"""Adelic assembly: restricted products, vacuum checks, discreteness.

A state of the oscillator over all completions at once factorizes into a
real wavefunction times one factor per prime, with all but finitely many
finite factors equal to the unit-ball indicator Omega.  This module
provides the bookkeeping types for such states, the certified product
of Omega factors that underlies spatial discreteness, the invariance
check for the Omega vacuum under the quadratic kernel (closed form and
brute force), and the finite partial products standing in for the
divergent product of kernels over all places.

Everything on the finite places is exact rational arithmetic; floats
appear only in the real factor and in final renderings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from .classical_oscillator import DEFAULT_ORDER, OscillatorModel
from .errors import (
    NormalizationError,
    PrimeCutoffError,
    VacuumAbsentError,
)
from .exact_numbers import (
    MILLER_RABIN_BOUND,
    _require_prime,
    chi,
    frac_str,
    fractional_part,
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
# Adeles and factorized states


@dataclass(frozen=True)
class Adele:
    """A rational-component adele: one real value plus one value per listed prime.

    ``exception_set`` declares the finitely many primes whose component
    may leave the unit ball; at every other prime, listed or not, the
    component must be a p-adic integer.  Unlisted primes default to the
    integer component 0.
    """

    real_component: Fraction | float
    components: Mapping[int, Fraction] = field(default_factory=dict)
    exception_set: frozenset = frozenset()

    def __post_init__(self) -> None:
        comps = {}
        for p, value in dict(self.components).items():
            _require_prime(p)
            comps[p] = Fraction(value)
        object.__setattr__(self, "components", comps)
        exceptions = frozenset(self.exception_set)
        for p in exceptions:
            _require_prime(p)
        object.__setattr__(self, "exception_set", exceptions)
        for p, value in comps.items():
            if p not in exceptions and padic_valuation(value, p) < 0:
                raise ValueError(
                    f"component {frac_str(value)} at p={p} leaves the unit ball "
                    f"but p is not in the exception set"
                )

    def component(self, p: int) -> Fraction:
        _require_prime(p)
        return self.components.get(p, Fraction(0))

    def norm_at(self, p: int) -> Fraction:
        return padic_norm(self.component(p), p)

    def to_json(self) -> dict:
        real = self.real_component
        return {
            "real": real if isinstance(real, Fraction) else float(real),
            "exceptions": {str(p): x for p, x in sorted(self.components.items())},
            "S": sorted(self.exception_set),
        }


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
        return math.sqrt(float(self.planck / (self.mass * self.frequency)))

    def density(self, x) -> float:
        scale = self.mass * self.frequency / self.planck
        return math.sqrt(2 * float(scale)) * math.exp(-2 * math.pi * float(scale) * float(x) ** 2)

    def to_json(self) -> dict:
        return {
            "mass": self.mass,
            "frequency": self.frequency,
            "planck": self.planck,
            "length_scale": self.length_scale,
        }


@dataclass(frozen=True)
class PAdicFactor:
    """Finite-place factor descriptor.

    kind 'omega' is the unit-ball indicator (the vacuum factor); kind
    'declared' stands for an unspecified normalized wavefunction known
    only through the declared value of its squared norm.
    """

    kind: str = "omega"
    declared_norm: Fraction = Fraction(1)

    def __post_init__(self) -> None:
        if self.kind not in ("omega", "declared"):
            raise ValueError(f"unknown finite-place factor kind {self.kind!r}")
        object.__setattr__(self, "declared_norm", Fraction(self.declared_norm))


@dataclass(frozen=True)
class AdelicState:
    """Factorized state: real factor x finite factors x Omega tail.

    ``finite_factors`` holds the finitely many explicitly described
    factors; every prime outside that map implicitly carries Omega.
    ``alpha`` records the per-place eigenvalue bookkeeping and ``mixed``
    marks statistical mixtures, whose spatial support is smeared.
    """

    real_factor: GaussianGroundState
    finite_factors: Mapping[int, PAdicFactor] = field(default_factory=dict)
    alpha: Mapping = field(default_factory=dict)
    mixed: bool = False

    def __post_init__(self) -> None:
        factors = {}
        for p, factor in dict(self.finite_factors).items():
            _require_prime(p)
            if not isinstance(factor, PAdicFactor):
                raise TypeError("finite factors must be PAdicFactor instances")
            factors[p] = factor
        object.__setattr__(self, "finite_factors", factors)
        alphas = {}
        for place, value in dict(self.alpha).items():
            if place != REAL_PLACE:
                _require_prime(place)
            alphas[place] = Fraction(value)
        object.__setattr__(self, "alpha", alphas)

    @property
    def exception_set(self) -> frozenset:
        return frozenset(self.finite_factors)

    def factor_at(self, p: int) -> PAdicFactor:
        _require_prime(p)
        return self.finite_factors.get(p, PAdicFactor())


def vacuum_state(mass, frequency, planck=1) -> AdelicState:
    """The pure product vacuum: real ground state with an all-Omega tail."""
    return AdelicState(GaussianGroundState(mass, frequency, planck))


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
    prime_cutoff: int


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
    return OmegaProduct(1 if x.denominator == 1 else 0, tuple(vanishing), prime_cutoff)


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


def eigen_evolution_check(state: AdelicState, model: OscillatorModel,
                          t_prime, t_dprime, p: int, planck=1,
                          order: int = DEFAULT_ORDER) -> dict:
    """Apply the evolution to the state's p-factor and read off the phase.

    Only the Omega factor is supported: the closed-form kernel integral
    against the unit ball (``vacuum_report``'s 'closed-form' method) must
    land back on Omega exactly, up to the declared per-place phase,
    whose p-adic fractional part has to vanish for the vacuum; the
    reported deviation is therefore 0.0.  Raises VacuumAbsentError when
    the invariance fails.
    """
    _require_prime(p)
    factor = state.factor_at(p)
    if factor.kind != "omega":
        raise ValueError(
            "only the unit-ball vacuum factor evolves in closed form; "
            f"kind {factor.kind!r} at p={p} is out of scope"
        )
    alpha = state.alpha.get(p, Fraction(0))
    identity = Fraction(t_dprime) == Fraction(t_prime)
    deviation, phase_jump = 0.0, Fraction(0)
    if not identity:
        ap = kernel_solution(model, order)
        ep = kernel_window(ap, t_prime, t_dprime, (p,))
        report = vacuum_report(kernel_from_action(p, ap, ep, planck))
        if not report.holds:
            raise VacuumAbsentError(
                f"p={p}: kernel does not preserve the unit-ball indicator "
                f"(witness x''={frac_str(report.witness)})"
            )
        deviation, phase_jump = report.max_deviation, ep.phase2 - ep.phase1
    alpha_fraction = fractional_part(alpha * phase_jump, p)
    return {
        "prime": p,
        "identity": identity,
        "deviation": deviation,
        "phase_jump": phase_jump,
        "alpha": alpha,
        "alpha_phase_fraction": alpha_fraction,
        "trivial_phase": alpha_fraction == 0,
    }


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

    def norm_value(self) -> float:
        out = 1.0
        for value in self.factors:
            out *= value.norm.value()
        return out

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


def probability_reduction(state: AdelicState, prime_cutoff: int) -> GaussianGroundState:
    """Integrate the squared state over every finite place, exactly.

    Omega tail factors integrate to exactly 1 in the unit-ball Haar
    normalization, so only the explicitly listed factors matter: each
    must carry declared squared norm exactly 1.  The real factor comes
    back unchanged as the ordinary position density.
    """
    for p in sorted(state.finite_factors):
        if p > prime_cutoff:
            raise PrimeCutoffError(
                f"finite factor at p={p} lies beyond the cutoff {prime_cutoff}"
            )
        factor = state.finite_factors[p]
        if factor.kind == "omega":
            continue
        if factor.declared_norm != 1:
            raise NormalizationError(
                f"factor at p={p} declares squared norm "
                f"{frac_str(factor.declared_norm)} != 1"
            )
    return state.real_factor


def discreteness_profile(state: AdelicState, xs: Sequence,
                         prime_cutoff: int = 100) -> list:
    """Tabulate |Psi(x)|^2 over the samples: real density times Omega tail.

    The tail kills every non-integer x exactly, so the support is the
    integer lattice in length-scale units.  A mixed state has no sharp
    support; its rows carry a qualitative note instead of numbers.
    """
    for p, factor in state.finite_factors.items():
        if factor.kind != "omega":
            raise ValueError(
                f"factor at p={p} has no pointwise values; "
                "discreteness needs an all-Omega tail"
            )
    rows = []
    for x in xs:
        x = Fraction(x)
        if state.mixed:
            rows.append({"x": x, "value": None,
                         "note": "mixed state: sharp support smeared out"})
            continue
        tail = omega_product(x, prime_cutoff)
        value = state.real_factor.density(x) if tail.value else 0.0
        rows.append({"x": x, "value": value,
                     "vanishing_primes": list(tail.vanishing_primes)})
    return rows
