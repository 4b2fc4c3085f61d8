"""Quadratic character integrals over p-adic balls.

Evaluates I(alpha, beta, nu) = integral over |x|_p <= p^nu of
chi_p(alpha*x^2 + beta*x) dx two ways:

* an exact closed form with three branches: small alpha, stationary
  phase with the unimodular factor lambda_p, and the dyadic band between
  them that only exists at p = 2,
* and an independent brute-force coset sum with exact phase bookkeeping,
  kept as the oracle for the closed form.

Haar measure is normalized so the unit ball has measure 1.  A spec reads
alpha and beta once as integer valuations and unit parts p^v * num/den:
branches and indicators compare valuations and phases are residues mod
powers of p, so no p^nu is built and the ball exponent costs nothing.
The brute force sum reduces every phase to an exact integer k mod
M = p^level and adds e(k/M) = exp(2 pi i k / M) over the sample cosets.
Each e(k/M) is the product of two table entries, e(h 2^s / M) and
e(l / M) with k = h 2^s + l, from two tables of 2^s <= 2^16 roots built
once per call.  A sum of more than 2^12 samples is split in two levels,
j = x + p^e y with 2e >= level: the y-sum then depends on x only through
t = (2a x + b) mod p^(level - e), so a table of it is built once per t and
about 2 count^(2/3) roots suffice instead of count (the 3^14-sample sum in
2-3 ms rather than 9-10 ms, 2^26 samples in 9-14 ms rather than 0.14-0.16 s,
2-vCPU VM).  Smaller sums, and those with e >= span, run in plain blocks of
2^16 samples.  Either way no array holds more than 2^16 entries, so the
temporaries stay a few MB whatever M is; numpy is imported on first use.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import NamedTuple

from .errors import DepthTooSmallError, MagnitudeOverflowError, OracleBudgetError
from .exact_numbers import (
    PHASE_ONE,
    HalfPower,
    UnitPhase,
    _require_prime,
    _unit_part,
)

# Samples per plain block, the oracle's memory bound; the split's blocks are a quarter of it.
_BLOCK = 1 << 16
_CROSSOVER = 1 << 12  # larger sums are split; up to here one plain block is as fast
# Most samples one oracle call may sum: 2^26 take 9-14 ms split, and the largest
# plain sum, 8191^2 samples (span 2), 1.2 s in blocks (2-vCPU VM).
_BUDGET = 1 << 26


@dataclass(frozen=True)
class GaussIntegralSpec:
    """Integral of chi_p(alpha*x^2 + beta*x) over the ball |x|_p <= p^ball_exponent."""

    prime: int
    alpha: Fraction
    beta: Fraction
    ball_exponent: int = 0

    def __post_init__(self) -> None:
        _require_prime(self.prime)
        if type(self.alpha) is not Fraction or type(self.beta) is not Fraction:
            object.__setattr__(self, "alpha", Fraction(self.alpha))
            object.__setattr__(self, "beta", Fraction(self.beta))

    @cached_property
    def unit_parts(self) -> tuple[tuple[int | float, int, int], tuple[int | float, int, int]]:
        """(v, num, den) of alpha and of beta, read once: x = p**v * num/den, (inf, 0, 1) for 0."""
        return _unit_part(self.alpha, self.prime), _unit_part(self.beta, self.prime)


@dataclass(frozen=True)
class AmplitudeValue:
    """Closed-form integral value split into exact factors.

    ``magnitude`` is None when an indicator factor vanished and the
    whole integral is exactly 0.  Otherwise the value is
    magnitude * lambda_factor * phase with both phases exact.
    """

    branch: int
    magnitude: HalfPower | None
    phase: UnitPhase
    lambda_factor: UnitPhase

    @property
    def value(self) -> complex:
        if self.magnitude is None:
            return 0j
        return self.magnitude.value() * (self.lambda_factor * self.phase).to_complex()

    def to_json(self) -> dict:
        return {
            "branch": self.branch,
            "magnitude": self.magnitude,
            "phase_angle": self.phase.angle,
            "lambda_angle": self.lambda_factor.angle,
            "value": self.value,
        }


def branch_of(spec: GaussIntegralSpec) -> int:
    """Which closed-form branch applies: 1 (flat), 2 (stationary phase) or 3.

    For p = 2 the two conditions |alpha| <= p^(-2 nu) and |4 alpha| > p^(-2 nu)
    leave a two-valuation-wide band, v(alpha) in {2 nu - 1, 2 nu - 2}; there
    the integral is a finite dyadic sum, branch 3.
    """
    v_alpha = spec.unit_parts[0][0]  # inf for alpha = 0
    target = 2 * spec.ball_exponent
    if v_alpha >= target:
        return 1
    if v_alpha + 2 * (spec.prime == 2) < target:  # v(4 alpha) < 2 nu
        return 2
    return 3


def _residue(num: int, den: int, p: int, e: int, modulus: int) -> int:
    """num * p^e / den mod modulus, for e >= 0 and den prime to p; 0 when num = 0."""
    return num * pow(p, e, modulus) * pow(den, -1, modulus) % modulus if num else 0


def gauss_closed_form(spec: GaussIntegralSpec) -> AmplitudeValue:
    p, nu = spec.prime, spec.ball_exponent
    (v_a, a_num, a_den), (v_b, b_num, b_den) = spec.unit_parts
    branch = branch_of(spec)
    if branch == 1:
        # ball measure times the indicator that beta pairs trivially with it: v(beta) >= nu
        if v_b < nu:
            return AmplitudeValue(1, None, PHASE_ONE, PHASE_ONE)
        return AmplitudeValue(1, HalfPower(Fraction(p), Fraction(nu)), PHASE_ONE, PHASE_ONE)
    if branch == 3:
        return _dyadic_band(spec)
    lam = _lambda_of_unit(p, v_a, a_num, a_den)
    v_2a = v_a + (p == 2)
    if v_b - v_2a < -nu:  # the stationary point beta / 2 alpha lies outside the ball
        return AmplitudeValue(2, None, PHASE_ONE, lam)
    magnitude = HalfPower(Fraction(p), Fraction(v_2a, 2))  # |2 alpha|_p**(-1/2)
    # {-beta^2 / 4 alpha}_p = k / p^m with m = v(4 alpha) - 2 v(beta), k from the units
    m, phase = v_2a + (p == 2) - 2 * v_b, PHASE_ONE
    if m > 0:
        pm, unit_4a = p**m, a_num if p == 2 else 4 * a_num  # 4 alpha = p^v * unit_4a / a_den
        k = _residue(-b_num * b_num * a_den, unit_4a * b_den * b_den, p, 0, pm)
        phase = UnitPhase(Fraction(k, pm))
    return AmplitudeValue(branch, magnitude, phase, lam)


def _dyadic_band(spec: GaussIntegralSpec) -> AmplitudeValue:
    """Branch 3: 2^nu times the integral of chi_2(a y^2 + b y) over Z_2, where
    a = alpha / 4^nu, b = beta / 2^nu and v(a) in {-1, -2}.

    On 2Z_2 the quadratic term is 2-adically integral, and on 1 + 2Z_2 it
    is a + (integral), so the integral is 2^nu (1 + chi_2(a + b)) / 2 when
    |2b| <= 1 and 0 otherwise.  chi_2(a + b) = i^k with k = 4(a + b) mod 4.
    """
    nu = spec.ball_exponent
    (v_a, a_num, a_den), (v_b, b_num, b_den) = spec.unit_parts
    if v_b < nu - 1:  # |2b| > 1
        return AmplitudeValue(3, None, PHASE_ONE, PHASE_ONE)
    k = (_residue(a_num, a_den, 2, v_a + 2 - 2 * nu, 4)
         + _residue(b_num, b_den, 2, v_b + 2 - nu, 4)) % 4
    if k == 2:
        return AmplitudeValue(3, None, PHASE_ONE, PHASE_ONE)
    if k == 0:
        return AmplitudeValue(3, HalfPower(Fraction(2), Fraction(nu)), PHASE_ONE, PHASE_ONE)
    # (1 +- i) / 2 = 2^(-1/2) exp(+-2 pi i / 8)
    phase = UnitPhase(Fraction(1, 8) if k == 1 else Fraction(7, 8))
    return AmplitudeValue(3, HalfPower(Fraction(2), nu - Fraction(1, 2)), phase, PHASE_ONE)


def local_constancy_depth(spec: GaussIntegralSpec) -> int:
    """Smallest m such that the integrand is constant on cosets of p^m Z_p.

    Constancy requires |2 alpha x eps|, |alpha eps^2| and |beta eps| all
    <= 1 for x in the ball and eps in p^m Z_p, plus m >= -nu so the
    sample grid is at least as fine as the ball itself.
    """
    nu = spec.ball_exponent
    (v_a, a_num, _), (v_b, _, _) = spec.unit_parts
    bounds = [0, -nu, -v_b]  # -v_b is -inf for beta = 0
    if a_num:
        bounds += [nu - v_a - (spec.prime == 2), -(v_a // 2)]  # nu - v(2 alpha), ceil(-v_a/2)
    return max(bounds)


class OraclePlan(NamedTuple):
    """Size of one coset-sum evaluation, as exponents of p.

    The sum runs over p^(nu+depth) samples x_j = j p^(-nu).  The angle of
    the summand is an integer mod p^level and is periodic in j with a
    period dividing that modulus, so when there are more samples than the
    modulus the sum over one period is exact after multiplying by their
    ratio.  No power of p is built, so a huge ball exponent costs nothing.
    """

    level: int
    depth: int


def oracle_plan(spec: GaussIntegralSpec, depth: int | None = None) -> OraclePlan:
    """Modulus exponent and coset depth of the coset sum at the given depth.

    ``depth`` defaults to the local-constancy depth; a smaller one raises
    DepthTooSmallError.
    """
    nu = spec.ball_exponent
    floor = local_constancy_depth(spec)
    if depth is None:
        depth = floor
    if depth < floor:
        raise DepthTooSmallError(
            f"depth {depth} below the local-constancy requirement {floor}"
        )
    (v_a, _, _), (v_b, _, _) = spec.unit_parts
    return OraclePlan(max(0, 2 * nu - v_a, nu - v_b), depth)  # a zero coefficient gives -inf


def gauss_brute_force(spec: GaussIntegralSpec, depth: int | None = None) -> complex:
    """Coset-sum value of the integral: p^(-depth) sum_j e(k_j / M), e(x) = exp(2 pi i x).

    k_j = (a j + b) j mod M with a, b the exact residues of alpha and beta,
    summed over j < count = p^min(nu + depth, level) and multiplied by the
    fold (cosets / count) / p^depth, a power of p rounded once (0.0 below
    p^-1100).  With s = ceil(bit_length(M) / 2), e(k/M) = high[k >> s] *
    low[k & (2^s - 1)] where low[l] = e(l / M) and high[h] = e(h 2^s / M),
    two tables of 2^s <= 2^16 entries: one complex exponential per table
    entry rather than per sample.

    Up to _CROSSOVER samples are summed as they are, in blocks of _BLOCK.
    A larger sum splits the index in two levels, j = x + n y with n = p^e
    and x < n.  Then k_j = quad(x) + t(x) n y + a n^2 y^2 mod M, where
    quad(x) = (a x + b) x and t(x) = (2a x + b) mod M/n: 2a x + b - t(x) is a
    multiple of M/n, so its product with n y is one of M.  With 2e >= level,
    n^2 is 0 mod M as well, so the y-sum depends on x only through t < M/n.  F[t] = sum_y e(t n y / M) is tabulated once and the
    sum is sum_x e(quad(x) / M) F[t(x)], with e(u + v) = e(u) e(v).  That is
    n + (M/n) (count/n) roots instead of count, and e = max(ceil(level / 2),
    ceil((level + span) / 3)) makes both terms about count^(2/3).  When
    e >= span nothing is saved and the plain blocks run; above _CROSSOVER
    that means span <= 2, since the local-constancy depth makes span >=
    level - 1.  The split's blocks hold _BLOCK / 4 entries, since each also
    holds t(x) and F[t(x)].  No matrix product is formed, so no BLAS thread.

    Every int64 product stays below M count: a x + b and its residue times x
    with x < count, t n y with t n < M and y < count / n, and
    (2a mod M/n) x < M, as 2a x + b is reduced mod M/n before any product.
    A modulus above 2^31 therefore raises ValueError (int64 overflow), more
    than _BUDGET samples raise OracleBudgetError and a fold of 2^1024 or
    more MagnitudeOverflowError, all decided on exponents before any work.
    """
    p, nu = spec.prime, spec.ball_exponent
    (v_a, a_num, a_den), (v_b, b_num, b_den) = spec.unit_parts
    level, depth = oracle_plan(spec, depth)
    if level > 31 or p**level > 1 << 31:
        raise ValueError(f"oracle modulus {p}^{level} is above 2^31")
    modulus, span = p**level, min(nu + depth, level)
    count = p**span
    if count > _BUDGET:
        raise OracleBudgetError(f"oracle needs {count} samples, above the budget of 2^26")
    fold = nu - level if span == level else -depth  # (cosets / count) / p^depth = p^fold
    if fold >= 1024 or (fold >= 0 and p**fold >= 1 << 1024):
        raise MagnitudeOverflowError(f"{p}^({fold}) is too large for a float")

    import numpy as np
    a_red = _residue(a_num, a_den, p, v_a + level - 2 * nu, modulus)
    b_red = _residue(b_num, b_den, p, v_b + level - nu, modulus)
    s = (modulus.bit_length() + 1) // 2
    mask = (1 << s) - 1
    turns = np.arange(mask + 1) * (2j * np.pi / modulus)
    low, high = np.exp(turns), np.exp(turns * (mask + 1))

    # j = x + n y with n = p^e; F[t] is the y-sum for each t = (2a x + b) mod M/n
    e = max(-(-level // 2), -(-(level + span) // 3)) if count > _CROSSOVER else span
    split = e < span
    n_x, step = (p**e, _BLOCK // 4) if split else (count, _BLOCK)
    if split:
        n_t, ny = p ** (level - e), np.arange(p ** (span - e), dtype=np.int64) * n_x
        table = np.empty(n_t, dtype=complex)
        rows = max(1, step // len(ny))
        for start in range(0, n_t, rows):
            k = np.multiply.outer(np.arange(start, min(start + rows, n_t), dtype=np.int64), ny)
            k %= modulus
            roots = high[k >> s]
            roots *= low[k & mask]
            table[start:start + rows] = roots.sum(axis=1)
        a_t, b_t = 2 * a_red % n_t, b_red % n_t
    total = 0j
    for start in range(0, n_x, step):
        k = np.arange(start, min(start + step, n_x), dtype=np.int64)  # the x, then k_x
        if split:
            t = (a_t * k + b_t) % n_t
        k = (a_red * k + b_red) % modulus * k % modulus
        roots = high[k >> s]
        roots *= low[k & mask]
        if split:
            roots *= table[t]
        total += complex(roots.sum())
    return total * (p**fold if fold >= 0 else 1 / p**-fold if fold > -1100 else 0.0)


def lambda_p(alpha: Fraction, p: int) -> UnitPhase:
    """Unimodular factor of the stationary-phase branch, an 8th root of unity.

    The closed form of Vladimirov, Volovich and Zelenov.  Write
    alpha = p^v * u with u a unit.  For odd p the factor is 1 when v is
    even and otherwise the Legendre symbol (u/p), times i when p = 3 mod 4.
    For p = 2, with u = 1 + 2 a1 + 4 a2 mod 8, it is exp(+-2 pi i / 8)
    with the sign (-1)^a1, times (-1)^(a1 + a2) when v is odd.
    """
    _require_prime(p)
    return _lambda_of_unit(p, *_unit_part(alpha, p))


def _lambda_of_unit(p: int, v_alpha: int | float, num: int, den: int) -> UnitPhase:
    """lambda_p of p^v_alpha * num/den."""
    if num == 0:
        return PHASE_ONE
    if p == 2:
        u = num * pow(den, -1, 8) % 8
        a1, a2 = (u >> 1) & 1, (u >> 2) & 1
        angle = Fraction(-1 if a1 else 1, 8)
        if v_alpha % 2:
            angle += Fraction(a1 + a2, 2)
        return UnitPhase(angle)
    if v_alpha % 2 == 0:
        return PHASE_ONE
    residue = pow(num * pow(den, -1, p) % p, (p - 1) // 2, p) == 1
    return UnitPhase(Fraction(0 if residue else 1, 2) + Fraction(p % 4 == 3, 4))
