"""Classical oscillator with time-dependent frequency, solved exactly.

The amplitude/phase form x(t) = G(t)*[P cos gamma(t) + Q sin gamma(t)]
turns the linear equation of motion x'' + omega^2(t) x = 0 into the
pair G^3 G'' + omega^2 G^4 = W^2 and gamma' G^2 = W for a positive
constant W (the Wronskian normalization of the solution basis; W = 1
by default).  Everything stays rational: frequency profiles are power
series with rational coefficients, the coefficient recurrence for G is
linear, and endpoint data, momenta and the quadratic action come out
as exact fractions — the same fractions whichever completion of the
rationals the caller later evaluates characters in.

Endpoint scalar convention.  At evaluation points the phase velocity
is taken as W / G(t)^2 (its defining relation) rather than as a series
evaluation, and phase differences enter only through the composed
products sin2*cos1 - cos2*sin1 and cos2*cos1 + sin2*sin1 of the
truncated cos/sin series values.  ``endpoint_data`` builds the window's
action S = A x''^2 + B x'' x' + D x'^2 from these scalars once; the
momenta are its derivatives, so the boundary form of the action equals
the quadratic form exactly; see ``boundary_action`` and
``classical_action``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import CausticError, DivergenceError
from .exact_numbers import padic_norm, padic_valuation, parse_rational
from .series import RationalSeries, binomial_series, numerators_over_lcm

DEFAULT_ORDER = 24


@dataclass(frozen=True)
class OscillatorModel:
    """Mass, squared frequency profile and amplitude initial data.

    The frequency enters the dynamics only through its square, so the
    model stores omega^2 as a series; profiles whose omega itself is
    irrational (but omega^2 rational) are fully supported.
    """

    freq_sq: RationalSeries
    mass: Fraction = Fraction(1)
    wronskian: Fraction = Fraction(1)
    amp0: Fraction = Fraction(1)
    amp_vel0: Fraction = Fraction(0)
    label: str = ""

    def __post_init__(self) -> None:
        for name in ("mass", "wronskian", "amp0", "amp_vel0"):
            object.__setattr__(self, name, Fraction(getattr(self, name)))
        if self.mass == 0:
            raise ValueError("mass must be nonzero")
        if self.wronskian <= 0:
            raise ValueError("wronskian constant must be positive")
        if self.amp0 == 0:
            raise ValueError("initial amplitude must be invertible")


def preset_example1(a, b, order: int = DEFAULT_ORDER) -> OscillatorModel:
    """omega^2 = b^-4 (1+a t)^-4; closed solution G = b(1+a t), gamma = t/(b^2(1+a t))."""
    a, b = Fraction(a), Fraction(b)
    freq_sq = binomial_series(-4, order, scale=a).scale(b**-4)
    return OscillatorModel(freq_sq, amp0=b, amp_vel0=a * b, label=f"example1({a},{b})")


def preset_example2(a, b, order: int = DEFAULT_ORDER) -> OscillatorModel:
    """omega^2 = w0^2 (1+a t)^-2 with w0^2 = (1 + a^2 b^4/4)/b^4.

    Closed solution G = b(1+a t)^(1/2), gamma = log(1+a t)/(a b^2);
    w0 itself is irrational for most (a, b) but never needed.
    """
    a, b = Fraction(a), Fraction(b)
    if a == 0:
        raise ValueError("profile requires a != 0")
    w0_sq = (1 + a * a * b**4 / 4) / b**4
    freq_sq = binomial_series(-2, order, scale=a).scale(w0_sq)
    return OscillatorModel(freq_sq, amp0=b, amp_vel0=a * b / 2, label=f"example2({a},{b})")


def preset_constant(w0, order: int = DEFAULT_ORDER) -> OscillatorModel:
    """Constant frequency w0 >= 0, normalized so G is identically 1 (W = w0)."""
    w0 = Fraction(w0)
    if w0 == 0:
        return preset_free(order)
    if w0 < 0:
        raise ValueError("constant frequency must be nonnegative")
    freq_sq = RationalSeries.constant(w0 * w0, order)
    return OscillatorModel(freq_sq, wronskian=w0, label=f"constant({w0})")


def preset_free(order: int = DEFAULT_ORDER) -> OscillatorModel:
    """Zero frequency with the standard W = 1 basis: G = (1+t^2)^(1/2), gamma = arctan t."""
    return OscillatorModel(RationalSeries.constant(0, order), label="free")


#: each parametrized preset family: its builder and how many arguments it takes
PRESETS = {"example1": (preset_example1, 2), "example2": (preset_example2, 2),
           "constant": (preset_constant, 1)}
_PRESET_RE = re.compile(rf"^({'|'.join(PRESETS)})\(([^()]*)\)$")


def parse_preset(text: str, order: int = DEFAULT_ORDER) -> OscillatorModel:
    text = text.strip()
    if text == "free":
        return preset_free(order)
    match = _PRESET_RE.match(text)
    if not match:
        raise ValueError(f"unknown preset {text!r}")
    name, raw_args = match.groups()
    args = [parse_rational(piece) for piece in raw_args.split(",")] if raw_args.strip() else []
    builder, arity = PRESETS[name]
    if len(args) != arity:
        raise ValueError(f"{name} expects {arity} argument(s)")
    return builder(*args, order=order)


def model_from_omega_coeffs(coeffs, order: int = DEFAULT_ORDER, label: str = "") -> OscillatorModel:
    """Unit-mass, unit-Wronskian model for a polynomial frequency given by its coefficients."""
    omega = RationalSeries.from_coeffs([Fraction(c) for c in coeffs])
    freq_sq = RationalSeries.from_coeffs(omega.mul_full(omega).coeffs, order=order)
    return OscillatorModel(freq_sq, label=label)


@dataclass(frozen=True)
class AmplitudePhase:
    """Solved amplitude/phase data: G, gamma, their derivatives, cos/sin of gamma."""

    model: OscillatorModel
    amp: RationalSeries
    phase: RationalSeries
    amp_vel: RationalSeries
    phase_vel: RationalSeries
    cos_phase: RationalSeries
    sin_phase: RationalSeries

    @property
    def order(self) -> int:
        return self.amp.order


def _dot(left, right) -> int:
    return sum(map(int.__mul__, left, right))


def _over_common(num: int, den: int, common: int) -> tuple[int, int, int]:
    """Put num/den over a common denominator that may have to grow.

    num/den is reduced with one gcd; the common denominator becomes
    lcm(common, den).  Returns the numerator over the new common
    denominator, that denominator, and the factor by which it grew, by
    which every earlier numerator kept over it must be rescaled.
    """
    gcd = math.gcd(num, den)
    num, den = num // gcd, den // gcd
    if den < 0:
        num, den = -num, -den
    grow = den // math.gcd(common, den)
    common *= grow
    return num * (common // den), common, grow


def solve_amplitude_phase(model: OscillatorModel, order: int = DEFAULT_ORDER) -> AmplitudePhase:
    """Coefficient recurrence for G, then gamma by integrating W/G^2.

    The amplitude equation G^3 G'' = W^2 - omega^2 G^4 is nonlinear, but
    the coefficient of t^n on the left contains the unknown G_{n+2} only
    linearly (through G_0^3 * G''), so each coefficient is solved for
    exactly in one division.  All produced coefficients are the true
    Taylor coefficients of the solution — there is no truncation error
    inside the retained orders.  gamma' = W/G^2 is one series division,
    and cos/sin gamma solve C' = -gamma' S, S' = gamma' C in O(order^2)
    steps, giving exactly cos/sin composed with the truncated phase.

    The recurrences run on integer numerators: each sequence (G with G^2,
    G^3 and G^4; gamma'; cos and sin together) keeps one common
    denominator, the lcm of its reduced coefficient denominators, and
    rescales its numerators when that grows.  The Fractions are built
    once at the end and are the same reduced Fractions a Fraction
    recurrence gives.
    """
    if order < 2:
        raise ValueError("order must be at least 2")
    if model.freq_sq.order < order - 2:
        raise ValueError("frequency-squared series too short for the requested order")
    w2_num, w2_den = numerators_over_lcm(model.freq_sq.coeffs[: order - 1])
    w_sq = model.wronskian * model.wronskian
    # G_k = g[k] / den, and G^2, G^3, G^4 over den^2, den^3, den^4
    g, den = numerators_over_lcm((model.amp0, model.amp_vel0))
    curv = [0, 0]  # k (k - 1) g[k]: the numerators of G'' shifted by two places
    square = [g[0] * g[0]]
    cube: list[int] = []
    quartic: list[int] = []
    for n in range(order - 1):
        square.append(_dot(g, g[n + 1 :: -1]))
        cube.append(_dot(square, g[n::-1]))
        quartic.append(_dot(square[: n + 1], square[n::-1]))
        forcing = _dot(w2_num, quartic[::-1])
        inertia = _dot(cube[1:], curv[n + 1 : 1 : -1])
        # G_(n+2) = (W^2 [n = 0] - forcing - inertia) / (G_0^3 (n+2)(n+1)), over integers
        num = -w_sq.denominator * (forcing + w2_den * inertia)
        if n == 0:
            num += w_sq.numerator * w2_den * den**4
        scale = w_sq.denominator * w2_den * den * cube[0] * (n + 2) * (n + 1)
        coeff, den, grow = _over_common(num, scale, den)
        if grow > 1:
            grow2 = grow * grow
            g = [grow * x for x in g]
            curv = [grow * x for x in curv]
            square = [grow2 * x for x in square]
            cube = [grow2 * grow * x for x in cube]
            quartic = [grow2 * grow2 * x for x in quartic]
        g.append(coeff)
        curv.append((n + 2) * (n + 1) * coeff)
    square.append(_dot(g, g[::-1]))
    # gamma'_k = rate[k] / rate_den from gamma' G^2 = W; the den^2 of G^2 cancels
    w = model.wronskian
    first, rate_den, _ = _over_common(w.numerator * den * den, w.denominator * square[0], 1)
    rate = [first]
    for k in range(1, order + 1):
        coeff, rate_den, grow = _over_common(
            -_dot(rate, square[k:0:-1]), rate_den * square[0], rate_den)
        if grow > 1:
            rate = [grow * x for x in rate]
        rate.append(coeff)
    # cos_k = cos_n[k] / trig_den and sin_k = sin_n[k] / trig_den, from
    # n C_n = -sum gamma'_k S_(n-1-k) and n S_n = sum gamma'_k C_(n-1-k)
    cos_n, sin_n, trig_den = [1], [0], 1
    for n in range(1, order + 1):
        for sign, into, other in ((-1, cos_n, sin_n), (1, sin_n, cos_n)):
            coeff, trig_den, grow = _over_common(
                sign * _dot(rate[:n], other[n - 1 :: -1]), rate_den * trig_den * n, trig_den)
            if grow > 1:
                cos_n[:] = [grow * x for x in cos_n]
                sin_n[:] = [grow * x for x in sin_n]
            into.append(coeff)
    return AmplitudePhase(
        model=model,
        amp=RationalSeries(tuple(Fraction(x, den) for x in g)),
        phase=RationalSeries((Fraction(0),) + tuple(
            Fraction(x, rate_den * (k + 1)) for k, x in enumerate(rate[:order]))),
        amp_vel=RationalSeries(tuple(Fraction(k * g[k], den) for k in range(1, order + 1))),
        phase_vel=RationalSeries(tuple(Fraction(x, rate_den) for x in rate)),
        cos_phase=RationalSeries(tuple(Fraction(x, trig_den) for x in cos_n)),
        sin_phase=RationalSeries(tuple(Fraction(x, trig_den) for x in sin_n)),
    )


def amplitude_residual(ap: AmplitudePhase) -> RationalSeries:
    """G^3 G'' + omega^2 G^4 - W^2; identically zero through order-2."""
    a = ap.amp
    accel = a.differentiate().differentiate()
    w = ap.model.wronskian
    return a * a * a * accel + ap.model.freq_sq * (a * a * a * a) - w * w


def phase_residual(ap: AmplitudePhase) -> RationalSeries:
    """gamma' G^2 - W; identically zero through the full order."""
    return ap.phase_vel * ap.amp * ap.amp - ap.model.wronskian


# ---------------------------------------------------------------------------
# Convergence certification


def convergence_certificate(series: RationalSeries, p: int, point) -> None:
    """Certify the tail of a truncated series at a point for one prime p, or raise DivergenceError.

    Every retained term t^n * a_n of the top-half coefficient window must
    have p-adic norm <= 1/p; the tail beyond truncation is then treated as
    a p-adic integer perturbation, which leaves fractional parts (and any
    character built from the value) unchanged.  No claim at the real place.
    """
    point = Fraction(point)
    point_val = padic_valuation(point, p)
    for n in range(series.order // 2 + 1, series.order + 1):
        coeff = series.coefficient(n)
        if coeff != 0 and padic_valuation(coeff, p) + n * point_val < 1:
            raise DivergenceError(f"series tail not certified at t={point} for primes [{p}]")


# ---------------------------------------------------------------------------
# Endpoint problems


@dataclass(frozen=True)
class EndpointData:
    """Two-point boundary data and the window's action S = A x''^2 + B x'' x' + D x'^2.

    phase_vel1/2 follow the scalar convention W/G^2; coef_cos/coef_sin
    are the exact solution (P, Q) of the linear endpoint system for the
    trajectory shape; coef_out, coef_cross and coef_in are A, B and D.
    """

    t_prime: Fraction
    x_prime: Fraction
    t_dprime: Fraction
    x_dprime: Fraction
    amp1: Fraction
    amp2: Fraction
    phase_vel1: Fraction
    phase_vel2: Fraction
    coef_cos: Fraction
    coef_sin: Fraction
    coef_out: Fraction
    coef_cross: Fraction
    coef_in: Fraction
    certified: tuple[int, ...]


def endpoint_data(ap: AmplitudePhase, t_prime, t_dprime, x_prime=0, x_dprime=0,
                  primes=()) -> EndpointData:
    """Solve the two-point problem x(t') = x', x(t'') = x'' exactly, with its action.

    At each supplied prime, in ascending order, the amplitude and phase
    series must pass ``convergence_certificate`` at both endpoints and the
    phase values sit inside the trig domain |gamma|_p < |2|_p; otherwise
    DivergenceError.  Kernels pick their primes in ``kernel_window``.

    With sin and cot of the phase difference, A = (m/2)(W/G''^2 cot + G''dot/G''),
    B = -mW/(G' G'' sin) and D = (m/2)(W/G'^2 cot - G'dot/G').
    """
    t1, t2 = Fraction(t_prime), Fraction(t_dprime)
    x1, x2 = Fraction(x_prime), Fraction(x_dprime)
    primes = tuple(sorted(set(primes)))
    for p in primes:
        for series in (ap.amp, ap.phase):
            convergence_certificate(series, p, t1)
            convergence_certificate(series, p, t2)
    amp1, amp2 = ap.amp.evaluate(t1), ap.amp.evaluate(t2)
    if amp1 == 0 or amp2 == 0:
        raise CausticError("amplitude vanishes at an endpoint")
    phases = ap.phase.evaluate(t1), ap.phase.evaluate(t2)
    for p in primes:
        for value in phases:
            if not padic_norm(value, p) < padic_norm(2, p):
                raise DivergenceError(f"phase value {value} outside the trig domain at p={p}")
    cos1, sin1 = ap.cos_phase.evaluate(t1), ap.sin_phase.evaluate(t1)
    cos2, sin2 = ap.cos_phase.evaluate(t2), ap.sin_phase.evaluate(t2)
    sin_diff = sin2 * cos1 - cos2 * sin1
    if sin_diff == 0:
        raise CausticError(f"degenerate endpoint pair: sin of phase difference vanishes "
                           f"(t'={t1}, t''={t2})")
    cot = (cos2 * cos1 + sin2 * sin1) / sin_diff
    m, w = ap.model.mass, ap.model.wronskian
    phase_vel1, phase_vel2 = w / (amp1 * amp1), w / (amp2 * amp2)
    reduced1, reduced2 = x1 / amp1, x2 / amp2
    return EndpointData(
        t_prime=t1, x_prime=x1, t_dprime=t2, x_dprime=x2,
        amp1=amp1, amp2=amp2, phase_vel1=phase_vel1, phase_vel2=phase_vel2,
        coef_cos=(reduced1 * sin2 - reduced2 * sin1) / sin_diff,
        coef_sin=(reduced2 * cos1 - reduced1 * cos2) / sin_diff,
        coef_out=m / 2 * (phase_vel2 * cot + ap.amp_vel.evaluate(t2) / amp2),
        coef_cross=-m * w / (amp1 * amp2 * sin_diff),
        coef_in=m / 2 * (phase_vel1 * cot - ap.amp_vel.evaluate(t1) / amp1),
        certified=primes,
    )


def trajectory_endpoints(ap: AmplitudePhase, ep: EndpointData) -> RationalSeries:
    """The interpolating trajectory as an exact polynomial (full products).

    Evaluating at either endpoint returns the prescribed position
    exactly, because evaluation distributes over the untruncated
    product G * (P cos + Q sin) and (P, Q) solved the endpoint system.
    """
    shape = ap.cos_phase.scale(ep.coef_cos) + ap.sin_phase.scale(ep.coef_sin)
    return ap.amp.mul_full(shape)


def endpoint_momenta(ap: AmplitudePhase, ep: EndpointData) -> tuple[Fraction, Fraction]:
    """Exact momenta k' = -dS/dx' and k'' = dS/dx'' of the window's action."""
    k1 = -(ep.coef_cross * ep.x_dprime + 2 * ep.coef_in * ep.x_prime)
    k2 = 2 * ep.coef_out * ep.x_dprime + ep.coef_cross * ep.x_prime
    return k1, k2


def classical_action(ap: AmplitudePhase, ep: EndpointData) -> Fraction:
    """Action as the quadratic form in the endpoint positions."""
    return (ep.coef_out * ep.x_dprime * ep.x_dprime
            + ep.coef_cross * ep.x_dprime * ep.x_prime
            + ep.coef_in * ep.x_prime * ep.x_prime)


def boundary_action(ap: AmplitudePhase, ep: EndpointData) -> Fraction:
    """Action as the boundary form (m/2)(x'' xdot'' - x' xdot')."""
    k1, k2 = endpoint_momenta(ap, ep)
    return (ep.x_dprime * k2 - ep.x_prime * k1) / 2
