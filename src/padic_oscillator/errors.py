"""Error types shared across the package.

Each error maps to a CLI exit code, see ``cli._EXIT_BY_TYPE``.
"""


class PadicOscillatorError(Exception):
    """Base class for all package errors."""


class DepthTooSmallError(PadicOscillatorError):
    """A brute-force coset sum was requested below its exactness depth."""


class OracleBudgetError(PadicOscillatorError):
    """A brute-force coset sum would take more samples than its budget."""


class MagnitudeOverflowError(PadicOscillatorError):
    """A magnitude is too large to render as a float."""


class CausticError(PadicOscillatorError):
    """The two endpoints are conjugate: sin of the phase difference vanishes."""


class DivergenceError(PadicOscillatorError):
    """An evaluation point lies outside the certified convergence region."""


class PrecisionError(PadicOscillatorError):
    """A character-feeding quantity changed under doubling of the truncation order."""


class PrimeCutoffError(PadicOscillatorError):
    """A denominator carries a prime factor above the declared cutoff."""

