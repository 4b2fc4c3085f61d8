"""Quantum propagator for quadratic actions at the real place and every p-adic place.

The kernel K_v(x_out, x_in) = lambda_v(-B/2h) |B/h|_v^(1/2)
chi_v(-S(x_out, x_in)/h) is assembled from the exact quadratic action
S = A x_out^2 + B x_out x_in + D x_in^2 of the classical module.  The
character convention puts the sign at the real place:
chi_real(u) = exp(-2 pi i u), chi_p(u) = exp(2 pi i {u}_p), so the
real kernel phase angle is +S/h while p-adic angles are {-S/h}_p; both
are exact rationals here.

The composition oracle integrates the product of two kernels over a
p-adic ball by brute force and compares against the direct kernel —
the semigroup property checked with no reference to the closed form
under test.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Sequence

from .classical_oscillator import (
    DEFAULT_ORDER,
    AmplitudePhase,
    EndpointData,
    OscillatorModel,
    action_coefficients,
    endpoint_data,
    solve_amplitude_phase,
)
from .errors import DivergenceError, PrecisionError
from .exact_numbers import (
    PHASE_ONE,
    HalfPower,
    UnitPhase,
    chi,
    is_prime,
    padic_valuation,
)
from .gauss_analysis import (
    GaussIntegralSpec,
    gauss_brute_force,
    lambda_p,
    local_constancy_depth,
)

REAL_PLACE = "real"

#: largest move of the real action angle that the order-doubling gate accepts
REAL_TOLERANCE = 1e-9


def _check_place(place) -> None:
    if place == REAL_PLACE:
        return
    if isinstance(place, int) and not isinstance(place, bool) and is_prime(place):
        return
    raise ValueError(f"place must be {REAL_PLACE!r} or a prime, got {place!r}")


def lambda_real(alpha) -> UnitPhase:
    """Real-place unimodular factor (1 - i sign(alpha)) / sqrt(2)."""
    alpha = Fraction(alpha)
    if alpha == 0:
        return PHASE_ONE
    return UnitPhase(Fraction(-1, 8)) if alpha > 0 else UnitPhase(Fraction(1, 8))


@dataclass(frozen=True)
class QuadraticKernel:
    """Propagator data at one place: quadratic action coefficients plus m, h."""

    place: object
    coef_out: Fraction
    coef_cross: Fraction
    coef_in: Fraction
    mass: Fraction = Fraction(1)
    planck: Fraction = Fraction(1)

    def __post_init__(self) -> None:
        _check_place(self.place)
        for name in ("coef_out", "coef_cross", "coef_in", "mass", "planck"):
            object.__setattr__(self, name, Fraction(getattr(self, name)))
        if self.coef_cross == 0:
            raise ValueError("degenerate kernel: vanishing cross coefficient")
        if self.planck == 0:
            raise ValueError("planck constant must be nonzero")

    @classmethod
    def free(cls, place, duration, mass=1, planck=1) -> "QuadraticKernel":
        """Closed-form free kernel: A = D = m/(2T), B = -m/T."""
        duration = Fraction(duration)
        if duration == 0:
            raise ValueError("free kernel needs a nonzero time interval")
        mass = Fraction(mass)
        half = mass / (2 * duration)
        return cls(place, half, -mass / duration, half, mass, Fraction(planck))

    def action(self, x_out, x_in) -> Fraction:
        x_out, x_in = Fraction(x_out), Fraction(x_in)
        return (self.coef_out * x_out * x_out + self.coef_cross * x_out * x_in
                + self.coef_in * x_in * x_in)

    @cached_property
    def evolution(self) -> tuple:
        """The classical map ((a, b), (c, d)): (x', k') -> (x'', k'') that S generates.

        k' = -dS/dx' and k'' = dS/dx'' give b = -1/B, a = 2bD, d = 2bA and
        c = (ad - 1)/b, so the determinant is exactly 1.
        """
        b = -1 / self.coef_cross
        a, d = 2 * b * self.coef_in, 2 * b * self.coef_out
        return ((a, b), ((a * d - 1) / b, d))

    @cached_property
    def lambda_factor(self) -> UnitPhase:
        """lambda_v(-B/2h), computed once: it does not depend on x_out or x_in."""
        arg = -self.coef_cross / (2 * self.planck)
        return lambda_real(arg) if self.place == REAL_PLACE else lambda_p(arg, self.place)

    @cached_property
    def norm(self) -> HalfPower:
        """|B/h|_v^(1/2), computed once: it does not depend on x_out or x_in."""
        scale = self.coef_cross / self.planck
        if self.place == REAL_PLACE:
            return HalfPower(abs(scale), Fraction(1, 2))
        return HalfPower(Fraction(self.place), Fraction(-padic_valuation(scale, self.place), 2))


@dataclass(frozen=True)
class KernelValue:
    """One kernel evaluation, split into exact factors."""

    lambda_factor: UnitPhase
    norm: HalfPower
    phase: UnitPhase

    @property
    def complex_value(self) -> complex:
        return self.norm.value() * (self.lambda_factor * self.phase).to_complex()

    def to_json(self) -> dict:
        return {
            "lambda_angle": self.lambda_factor.angle,
            "norm": self.norm,
            "phase_angle": self.phase.angle,
            "value": self.complex_value,
        }


def _is_free(model: OscillatorModel) -> bool:
    return model.freq_sq.is_zero_through(model.freq_sq.order)


def kernel_from_action(place, ap: AmplitudePhase, ep: EndpointData, planck=1) -> QuadraticKernel:
    """Kernel coefficients at a place from solved classical data.

    A p-adic place requires the endpoint data to carry its certificate.
    A frequency profile that is identically zero short-circuits to the
    closed-form free kernel, which depends only on the time interval —
    the amplitude/phase frame for the free particle is exact as a
    function but its truncated series would pollute the coefficients.
    """
    _check_place(place)
    mass = ap.model.mass
    if _is_free(ap.model):
        return QuadraticKernel.free(place, ep.t_dprime - ep.t_prime, mass, planck)
    if place != REAL_PLACE and place not in ep.certified:
        raise DivergenceError(f"endpoint data not certified at p={place}")
    coef_out, coef_cross, coef_in = action_coefficients(ap, ep)
    return QuadraticKernel(place, coef_out, coef_cross, coef_in, mass, planck)


def kernel_solution(model: OscillatorModel, order: int = DEFAULT_ORDER) -> AmplitudePhase:
    """Solve the model for kernels: at ``order``, capped at two past the order of omega^2."""
    return solve_amplitude_phase(model, min(order, model.freq_sq.order + 2))


def kernel_window(ap: AmplitudePhase, t_prime, t_dprime, places) -> EndpointData:
    """Endpoint data over [t', t''] certified at each prime of ``places``; none if free."""
    primes = () if _is_free(ap.model) else tuple(p for p in places if p != REAL_PLACE)
    return endpoint_data(ap, t_prime, t_dprime, 0, 0, primes=primes)


def kernel_at(place, ap: AmplitudePhase, t_prime, t_dprime, planck=1) -> QuadraticKernel:
    """The kernel over [t', t''] at one place from one solve, through ``kernel_window``.

    One ``kernel_solution`` serves every place and time window of a model.
    """
    return kernel_from_action(place, ap, kernel_window(ap, t_prime, t_dprime, (place,)),
                              planck=planck)


def oscillator_kernel(place, model: OscillatorModel, t_prime, t_dprime,
                      order: int = DEFAULT_ORDER) -> QuadraticKernel:
    """Convenience: solve the model and build the kernel over [t', t''] with h = 1."""
    return kernel_at(place, kernel_solution(model, order), t_prime, t_dprime)


def evolution_matrix(ap: AmplitudePhase, t0, t) -> tuple:
    """The map (x0, k0) -> (x(t), k(t)): the real ``kernel_at``'s ``evolution`` over [t0, t].

    The exact identity at t = t0; a free model gets ((1, T/m), (0, 1))
    exactly at any T = t - t0.  A caustic raises CausticError.
    """
    if Fraction(t) == Fraction(t0):
        one, zero = Fraction(1), Fraction(0)
        return ((one, zero), (zero, one))
    return kernel_at(REAL_PLACE, ap, t0, t).evolution


def evolve_initial(ap: AmplitudePhase, x0, k0, t0, t) -> tuple[Fraction, Fraction]:
    (a11, a12), (a21, a22) = evolution_matrix(ap, t0, t)
    x0, k0 = Fraction(x0), Fraction(k0)
    return (a11 * x0 + a12 * k0, a21 * x0 + a22 * k0)


def action_phase(place, scaled_action) -> UnitPhase:
    """chi_v(-S/h) for S/h = scaled_action: exp(2 pi i S/h) at the real place, chi_p(-S/h) at p."""
    if place == REAL_PLACE:
        return UnitPhase(scaled_action)
    return chi(-scaled_action, place)


def evaluate_kernel(kernel: QuadraticKernel, x_out, x_in) -> KernelValue:
    """Exact factor decomposition of K(x_out, x_in) at the kernel's place.

    The kernel's own lambda factor and norm times chi_v(-S(x_out, x_in)/h).
    """
    phase = action_phase(kernel.place, kernel.action(x_out, x_in) / kernel.planck)
    return KernelValue(kernel.lambda_factor, kernel.norm, phase)


# ---------------------------------------------------------------------------
# Brute-force semigroup check


@dataclass(frozen=True)
class CompositionReport:
    prime: int
    depth: int
    ball_exponents: tuple[int, ...]
    samples: tuple[tuple[Fraction, Fraction], ...]
    max_deviation: float


def compose_oracle(late: QuadraticKernel, early: QuadraticKernel,
                   direct: QuadraticKernel,
                   samples: Sequence[tuple[Fraction, Fraction]] | None = None) -> CompositionReport:
    """Integrate K_late(x_out, x) K_early(x, x_in) dx against the direct kernel.

    The intermediate integral runs over a ball chosen per sample so the
    pure-quadratic part dominates and the linear part's indicator is
    saturated; the integral itself is the brute-force coset sum, so the
    only closed-form ingredients on the left side are the two factor
    kernels' own prefactors.
    """
    p = late.place
    if p == REAL_PLACE or early.place != p or direct.place != p:
        raise ValueError("composition oracle needs three kernels at one prime")
    if (late.planck, late.mass) != (early.planck, early.mass) or \
            (late.planck, late.mass) != (direct.planck, direct.mass):
        raise ValueError("kernels disagree on mass or planck")
    h = late.planck
    alpha = -(early.coef_out + late.coef_in) / h
    if alpha == 0:
        raise ValueError("degenerate composition: vanishing intermediate quadratic term")
    if samples is None:
        samples = [
            (Fraction(0), Fraction(0)),
            (Fraction(1), Fraction(0)),
            (Fraction(0), Fraction(1)),
            (Fraction(1), Fraction(1)),
            (Fraction(1, p), Fraction(0)),
            (Fraction(1), Fraction(1, p)),
            (Fraction(p), Fraction(1)),
        ]
    samples = tuple((Fraction(a), Fraction(b)) for a, b in samples)
    base_exp = padic_valuation(4 * alpha, p) // 2 + 1
    prefactor = (late.norm.value() * early.norm.value()
                 * (late.lambda_factor * early.lambda_factor).to_complex())
    worst = 0.0
    depth_used = 0
    exponents = []
    for x_out, x_in in samples:
        beta = -(late.coef_cross * x_out + early.coef_cross * x_in) / h
        ball = base_exp
        if beta:
            ball = max(ball, padic_valuation(2 * alpha, p) - padic_valuation(beta, p) + 1)
        exponents.append(ball)
        spec = GaussIntegralSpec(p, alpha, beta, ball)
        inner = gauss_brute_force(spec)
        constant = -(late.coef_out * x_out * x_out + early.coef_in * x_in * x_in) / h
        left = prefactor * chi(constant, p).to_complex() * inner
        right = evaluate_kernel(direct, x_out, x_in).complex_value
        worst = max(worst, abs(left - right))
        depth_used = max(depth_used, local_constancy_depth(spec))
    return CompositionReport(p, depth_used, tuple(exponents), samples, worst)


# ---------------------------------------------------------------------------
# Truncation-stability gate for character phases


def phase_doubling_check(build_model: Callable[[int], OscillatorModel],
                         t_prime, t_dprime, x_prime, x_dprime,
                         places: Sequence, planck=1, order: int = DEFAULT_ORDER) -> dict:
    """Re-solve at doubled order and require stable action phase angles.

    Each order n reads S from the real ``kernel_at`` of one solve of
    ``build_model(n)``, certified at no prime.  Returns {place: angle}
    with the real-place angle S/h mod 1 and p-adic angles {-S/h}_p.
    p-adic angles must agree EXACTLY between order N and 2N (p-adic
    characters are locally constant, so any truncation dust must already
    lie in Z_p); the real-place angle only needs to agree within
    REAL_TOLERANCE (the real character is continuous).  A violation
    raises PrecisionError.
    """
    planck = Fraction(planck)
    places = tuple(places)
    snapshots = []
    for n in (order, 2 * order):
        ap = solve_amplitude_phase(build_model(n), n)
        action = kernel_at(REAL_PLACE, ap, t_prime, t_dprime).action(x_dprime, x_prime)
        snapshots.append({place: action_phase(place, action / planck).angle
                          for place in places})
    first, second = snapshots
    for place in places:
        if place == REAL_PLACE:
            gap = abs(float(first[place] - second[place]))
            gap = min(gap, 1.0 - gap)
            if gap > REAL_TOLERANCE:
                raise PrecisionError(
                    f"real action angle unstable under order doubling "
                    f"({order} -> {2 * order}): moved by {gap:g}"
                )
        elif first[place] != second[place]:
            raise PrecisionError(
                f"p={place} action angle unstable under order doubling "
                f"({order} -> {2 * order}): {first[place]} vs {second[place]}"
            )
    return first
