"""Adelic assembly: the product vacuum, restricted products, discreteness.

The vacuum of the oscillator over all completions at once is the real
ground state times the unit-ball indicator Omega(|x|_p) at every prime.
This module evaluates the product of Omega over all primes with a
prime-cutoff certificate, which gives spatial discreteness; checks that
a p-adic kernel reproduces Omega (closed form and brute force); and
multiplies kernel values over a finite place set, standing in for the
divergent product over all places.

Everything on the finite places is exact rational arithmetic; floats
appear only in the real factor and in final renderings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .classical_oscillator import DEFAULT_ORDER, OscillatorModel
from .errors import PrimeCutoffError
from .exact_numbers import (
    MILLER_RABIN_BOUND,
    HalfPower,
    _require_prime,
    chi,
    frac_str,
    omega,
    padic_norm,
    padic_valuation,
    prime_divisors,
    prime_power,
)
from .gauss_analysis import GaussIntegralSpec, gauss_brute_force, gauss_closed_form
from .propagator import (
    REAL_PLACE,
    QuadraticKernel,
    evaluate_kernel,
    kernel_at,
    kernel_from_action,
    kernel_solution,
    kernel_window,
)


# ---------------------------------------------------------------------------
# The real factor of the vacuum


@dataclass(frozen=True)
class GaussianGroundState:
    """Real-place ground state of the constant-frequency oscillator.

    density(x) = sqrt(2 m w / h) * exp(-2 pi m w x^2 / h) integrates to 1
    over the line.  The associated length unit is sqrt(h / (m w)); the
    time-dependent generalization of that unit is not defined here, so
    this descriptor is only built from constant-frequency data.
    """

    mass: Fraction
    frequency: Fraction
    planck: Fraction = Fraction(1)

    def __post_init__(self) -> None:
        object.__setattr__(self, "mass", Fraction(self.mass))
        object.__setattr__(self, "frequency", Fraction(self.frequency))
        object.__setattr__(self, "planck", Fraction(self.planck))
        if self.mass <= 0 or self.frequency <= 0 or self.planck <= 0:
            raise ValueError("mass, frequency and planck must be positive")

    @property
    def length_scale(self) -> float:
        return HalfPower(self.planck / (self.mass * self.frequency), Fraction(1, 2)).value()

    def density(self, x) -> float:
        """sqrt(2s) exp(-2 pi s x^2) for s = m w/h, or MagnitudeOverflowError if sqrt(2s)
        is no float.

        When s rounds to 0.0 or past float range, the exponent comes from the
        exact s x^2; when x^2 is no float (|x| >= 2^512), from the rounded s
        times the exact x^2.  From 2^1000 on the exponential underflows to 0.0.
        """
        s = self.mass * self.frequency / self.planck
        root = HalfPower(2 * s, Fraction(1, 2)).value()
        try:
            scale = float(s)
        except OverflowError:
            scale = 0.0
        if scale:
            try:
                exponent = -2 * math.pi * scale * float(x) ** 2
            except OverflowError:  # x^2 is no float: s as rounded, times x^2 exactly
                s = Fraction(scale)
            else:
                if not math.isnan(exponent):  # nan once 2 pi s overflows and x^2 underflows
                    return root * math.exp(exponent)
        return root * math.exp(-2 * math.pi * float(min(s * Fraction(x) ** 2, 2**1000)))

    def to_json(self) -> dict:
        return {
            "mass": self.mass,
            "frequency": self.frequency,
            "planck": self.planck,
            "length_scale": self.length_scale,
        }


def vacuum_state(mass, frequency, planck=1) -> GaussianGroundState:
    """The product vacuum's real factor; every prime carries Omega, left implicit."""
    return GaussianGroundState(mass, frequency, planck)


# ---------------------------------------------------------------------------
# Certified Omega products


@dataclass(frozen=True)
class OmegaProduct:
    """Product of unit-ball indicators over all primes, certified finite.

    ``value`` is the product over every prime, not just those below the
    cutoff: the certificate is a complete factorization of the
    denominator by primes up to the cutoff, so nothing above the cutoff
    can change the answer.
    """

    value: int
    vanishing_primes: tuple


def omega_product(x, prime_cutoff: int) -> OmegaProduct:
    """Evaluate the product over primes of Omega(|x|_p) with a certificate.

    The product is 1 exactly when x is an integer; otherwise it vanishes
    at each prime dividing the denominator.  Trial division by d = 2, 3, ...
    while d <= cutoff and d^2 <= residual must leave 1 or a prime residual
    no larger than the cutoff — a larger leftover means some prime above
    the cutoff also kills the product and the finite inspection cannot
    certify it: PrimeCutoffError.  No sieve is built.  At d = 64, a residual n
    below MILLER_RABIN_BOUND is split by Pollard-Brent rho instead when its
    n^(1/4) steps beat the cutoff's divisions.
    """
    x = Fraction(x)
    if prime_cutoff < 2:
        raise ValueError("prime cutoff must be at least 2")
    residual = x.denominator
    vanishing = []
    d = 2
    while d <= prime_cutoff and d * d <= residual:
        if d == 64 and prime_cutoff**4 > residual and residual < MILLER_RABIN_BOUND:
            for q in sorted(prime_divisors(residual)):  # all above 63, as d < 64 is done
                if q <= prime_cutoff:
                    vanishing.append(q)
                    residual //= q ** padic_valuation(residual, q)
            break
        if residual % d == 0:
            vanishing.append(d)
            while residual % d == 0:
                residual //= d
        d += 1
    if residual > prime_cutoff:
        raise PrimeCutoffError(
            f"denominator of {frac_str(x)} keeps a factor {residual} with no "
            f"prime divisor <= {prime_cutoff}; raise the cutoff to certify"
        )
    if residual > 1:  # no divisor up to its square root: a prime
        vanishing.append(residual)
    return OmegaProduct(1 if x.denominator == 1 else 0, tuple(vanishing))


# ---------------------------------------------------------------------------
# Vacuum invariance under the kernel


@dataclass(frozen=True)
class VacuumCase:
    """One sampled output point and both sides of the invariance identity."""

    x_out: Fraction
    valuation: Optional[int]
    expected: int
    actual: complex
    deviation: float


@dataclass(frozen=True)
class VacuumReport:
    """Outcome of the kernel-invariance test for the unit-ball indicator."""

    prime: int
    method: str
    planck: Fraction
    holds: bool
    witness: Optional[Fraction]
    cases: tuple
    max_deviation: float
    sufficient_condition: Optional[bool]


_VACUUM_VALUATIONS = tuple(range(-3, 4))

#: largest deviation from Omega(|x''|_p) at which a sampled vacuum case still passes
VACUUM_TOLERANCE = 1e-9


def _unit_samples(p: int) -> tuple:
    """Unit representatives separating every quadratic character value."""
    if p == 2:
        return (1, 3, 5, 7)
    non_residue = next(u for u in range(2, p) if pow(u, (p - 1) // 2, p) == p - 1)
    return tuple(sorted({1, non_residue, p - 1}))


def vacuum_check(p: int, model: OscillatorModel, t_prime, t_dprime, planck=1,
                 method: str = "closed-form", order: int = DEFAULT_ORDER) -> VacuumReport:
    """``vacuum_report`` for the kernel at p over [t', t''] from one solve at ``order``."""
    _require_prime(p)
    return vacuum_report(kernel_at(p, kernel_solution(model, order), t_prime, t_dprime, planck),
                         method)


def _closed_case(kernel: QuadraticKernel, x_out: Fraction, expected: int) -> tuple:
    """(K Omega(x''), whether it equals ``expected`` exactly) by the closed-form ball integral."""
    h = kernel.planck
    inner = gauss_closed_form(GaussIntegralSpec(kernel.place, -kernel.coef_in / h,
                                                -kernel.coef_cross * x_out / h, 0))
    if inner.magnitude is None:
        return 0j, expected == 0
    front = chi(-kernel.coef_out * x_out * x_out / h, kernel.place)
    total_norm = kernel.norm * inner.magnitude
    total_phase = kernel.lambda_factor * inner.lambda_factor * front * inner.phase
    return (total_norm.value() * total_phase.to_complex(),
            expected == 1 and total_norm.exponent == 0 and total_phase.angle == 0)


def vacuum_report(kernel: QuadraticKernel, method: str = "closed-form") -> VacuumReport:
    """Does the unit-ball indicator reproduce itself under the kernel at its prime p?

    Integrates the kernel against the unit ball in the incoming slot and
    compares with Omega(|x''|_p) for x'' running over one representative
    set per valuation class in [-3, 3] plus 0 — both sides depend on x''
    only through |x''|_p, so that sampling is exhaustive.  method
    'closed-form' uses the ball integral in exact arithmetic (deviation
    0.0 on an exact match); 'brute-force' sums the cosets at the
    local-constancy depth.  A case fails when its deviation exceeds
    VACUUM_TOLERANCE.  ``sufficient_condition`` is the exact criterion at
    odd p: the ``evolution`` ((a, b), (c, d)) of S/h lies in SL(2, Z_p)
    (a, bh, c/h and d are p-adic integers) and K Omega(0) = 1.  At p = 2
    it is None.
    """
    p, h = kernel.place, kernel.planck
    _require_prime(p)
    if method not in ("closed-form", "brute-force"):
        raise ValueError(f"unknown vacuum method {method!r}")

    samples = [(Fraction(0), None)]
    for nu_x in _VACUUM_VALUATIONS:
        for u in _unit_samples(p):
            samples.append((Fraction(u) * prime_power(p, nu_x), nu_x))

    cases = []
    witness = None
    max_deviation = 0.0
    for x_out, nu_x in samples:
        expected = omega(padic_norm(x_out, p))
        if method == "closed-form":
            actual, matches = _closed_case(kernel, x_out, expected)
            deviation = 0.0 if matches else abs(actual - expected)
        else:
            spec = GaussIntegralSpec(p, -kernel.coef_in / h, -kernel.coef_cross * x_out / h, 0)
            front = chi(-kernel.coef_out * x_out * x_out / h, p)
            actual = (kernel.norm.value() * (kernel.lambda_factor * front).to_complex()
                      * gauss_brute_force(spec))
            deviation = abs(actual - expected)
        max_deviation = max(max_deviation, deviation)
        if deviation > VACUUM_TOLERANCE and witness is None:
            witness = x_out
        cases.append(VacuumCase(x_out, nu_x, expected, actual, deviation))

    criterion = None
    if p != 2:
        (a, b), (c, d) = kernel.evolution
        criterion = (all(padic_valuation(x, p) >= 0 for x in (a, b * h, c / h, d))
                     and _closed_case(kernel, Fraction(0), 1)[1])

    return VacuumReport(p, method, h, witness is None, witness,
                        tuple(cases), max_deviation, criterion)


# ---------------------------------------------------------------------------
# Finite partial products of kernels


@dataclass(frozen=True)
class AdelicProduct:
    """Kernel values at finitely many places and their product.

    For a rational kernel the product over all places is exactly 1.  This
    is the restricted partial product over the listed places only: there
    is no "all" place set, because a series kernel's coefficients are
    truncation artifacts (example1(2/3,1) on [0, 5/7] at order 24 has a
    47-digit numerator in B).
    """

    places: tuple
    factors: tuple
    x_out: Fraction
    x_in: Fraction

    @property
    def phase_angle(self) -> Fraction:
        total = Fraction(0)
        for value in self.factors:
            total += value.lambda_factor.angle + value.phase.angle
        return total % 1

    @property
    def product_value(self) -> complex:
        out = complex(1, 0)
        for value in self.factors:
            out *= value.complex_value
        return out

    def to_json(self) -> dict:
        return {
            "label": "restricted partial product",
            "x_out": self.x_out,
            "x_in": self.x_in,
            "places": [str(place) for place in self.places],
            "factors": dict(zip(map(str, self.places), self.factors)),
            "phase_angle": self.phase_angle,
            "product": self.product_value,
        }


def _ordered_places(places) -> tuple:
    """The real place first, then each distinct prime once, ascending."""
    finite = sorted({p for p in places if p != REAL_PLACE})
    head = [REAL_PLACE] if REAL_PLACE in places else []
    return tuple(head + finite)


def adelic_propagator_product(places, model: OscillatorModel, t_prime, t_dprime,
                              x_out, x_in, planck=1,
                              order: int = DEFAULT_ORDER) -> AdelicProduct:
    """Evaluate the kernel at each requested place and multiply.

    One solve and one ``kernel_window``, certified at every listed prime,
    serve all places at once, for any wronskian: each factor equals the
    kernel built at its place alone.  An empty place set yields the empty
    product 1.
    """
    ordered = _ordered_places(places)
    x_out = Fraction(x_out)
    x_in = Fraction(x_in)
    factors = ()
    if ordered:
        ap = kernel_solution(model, order)
        ep = kernel_window(ap, t_prime, t_dprime, ordered)
        factors = tuple(evaluate_kernel(kernel_from_action(place, ap, ep, planck=planck),
                                        x_out, x_in) for place in ordered)
    return AdelicProduct(ordered, factors, x_out, x_in)


# ---------------------------------------------------------------------------
# Reduction to the real marginal and discreteness


def discreteness_profile(state: GaussianGroundState, xs: Sequence,
                         prime_cutoff: int = 100) -> list:
    """Tabulate |Psi(x)|^2 over the samples: real density times Omega tail.

    The tail kills every non-integer x exactly, so the support is the
    integer lattice in length-scale units.
    """
    rows = []
    for x in xs:
        x = Fraction(x)
        tail = omega_product(x, prime_cutoff)
        rows.append({"x": x, "value": state.density(x) if tail.value else 0.0,
                     "vanishing_primes": list(tail.vanishing_primes)})
    return rows
