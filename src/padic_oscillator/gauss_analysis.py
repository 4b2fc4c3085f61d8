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
once per call.  A sum of more than 2^12 samples is factored: with the
sample index split as j = (w R + r) C + c, k_j is the residue of each part
plus three cross terms, so about 3 count^(2/3) exact residues and roots
suffice and the count multiply-adds run in one numpy einsum.  Smaller sums,
and those that do not split into three factors of at least p with
R C <= 2^16, run in plain blocks of 2^16 samples.  Either way no array
holds more than 2^16 samples or matrix entries, so the temporaries stay a
few MB whatever M is; numpy is imported on first use.
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

# Samples per plain block and entries per factored matrix: the oracle's memory bound.
_BLOCK = 1 << 16
_CROSSOVER = 1 << 12  # larger sums are factored; up to here one plain block is faster
_BUDGET = 1 << 26  # most samples one oracle call may sum (0.2 s factored, 1.3 s in blocks, 2-vCPU VM)


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
    A larger sum writes j = (w R + r) C + c with W R C = count, R C = p^e
    <= _BLOCK, C >= R and W about count^(1/3).  Then (x + y + z)^2 splits k_j
    into quad(w R C) + quad(r C) + quad(c) plus the cross terms 2a R C^2 w r,
    2a R C w c and 2a C r c, quad(x) = (a x + b) x mod M, and e(u + v) =
    e(u) e(v) turns the sum into sum_{w,r} A[w,r] sum_c B[w,c] G[r,c] with
    every entry e(residue / M).  Only A, B and G are formed, W R + W C + R C
    roots, and einsum (no BLAS, so no thread) does the count multiply-adds,
    a slab of w-rows at a time so that no matrix exceeds _BLOCK entries.
    When p^2 > _BLOCK or count < p^3, e < 2 gives R = 1, nothing to save,
    and the plain blocks run instead.

    Every int64 product is a residue below M times an index, or a product of
    two index parts, below count <= M, so it stays below M^2.  A modulus
    above 2^31 (int64 overflow) therefore raises ValueError, more than
    _BUDGET samples raise OracleBudgetError and a fold of 2^1024 or more
    MagnitudeOverflowError, all decided on exponents before any work.
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

    # R C = p^e and W = p^(span - e) of the factored sum; e < 2 leaves nothing to factor
    e = span - (span + 2) // 3 if count > _CROSSOVER else 0
    while p**e > _BLOCK:
        e -= 1
    total = 0j
    if e < 2:
        for start in range(0, count, _BLOCK):
            k = np.arange(start, min(start + _BLOCK, count), dtype=np.int64)  # the j, then k_j
            k = (a_red * k + b_red) % modulus * k % modulus
            roots = high[k >> s]
            roots *= low[k & mask]
            total += complex(roots.sum())
    else:
        def quad(j):  # (a j + b) j mod M for an int64 array j of values below M
            return (a_red * j + b_red) % modulus * j % modulus

        def root(k):  # e(k / M) for an int64 array k of residues mod M
            out = high[k >> s]
            out *= low[k & mask]
            return out

        n_w, n_r, n_c = p ** (span - e), p ** (e // 2), p ** (e - e // 2)
        r, c = np.arange(n_r, dtype=np.int64), np.arange(n_c, dtype=np.int64)
        cross_wr, cross_wc, cross_rc = (2 * a_red * step % modulus
                                        for step in (n_r * n_c * n_c, n_r * n_c, n_c))
        quad_r, quad_c = quad(r * n_c), quad(c)
        k = np.multiply.outer(r, c)
        k *= cross_rc
        k %= modulus
        g = root(k)  # e(2aC r c / M)
        rows = _BLOCK // max(n_r, n_c)  # w-rows per slab: each matrix keeps <= _BLOCK entries
        for start in range(0, n_w, rows):
            w = np.arange(start, min(start + rows, n_w), dtype=np.int64)
            k = np.multiply.outer(w, c)
            k *= cross_wc
            k += quad_c
            k %= modulus
            # sum over c of e((quad(c) + 2aRC w c) / M) e(2aC r c / M), with no BLAS call
            inner = np.einsum("wc,rc->wr", root(k), g, optimize=False)
            k = np.multiply.outer(w, r)
            k *= cross_wr
            k += quad(w * (n_r * n_c))[:, None]
            k += quad_r
            k %= modulus
            inner *= root(k)  # times e((quad(wRC) + quad(rC) + 2aRC^2 w r) / M)
            total += complex(inner.sum())
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
