"""The integer-valuation Gauss layer against its former pure-Fraction version.

The reference functions below compute the closed form, the dyadic band,
the local-constancy depth, the oracle plan, the coset-sum residues and
HalfPower.value with Fraction arithmetic and explicit powers p^nu.  The
library reads each spec's valuations and unit parts once and works on
integers; the seeded sweeps assert that both give the same exact factors
and bit-equal floats.  The coset sums, whose roots of unity the library
takes from two tables, are held to a 30-digit mpmath sum instead.
"""

import math
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from padic_oscillator.errors import MagnitudeOverflowError
from padic_oscillator.exact_numbers import (
    HalfPower,
    UnitPhase,
    chi,
    is_prime,
    omega,
    padic_norm,
    padic_valuation,
    prime_power,
)
from padic_oscillator.gauss_analysis import (
    GaussIntegralSpec,
    branch_of,
    gauss_brute_force,
    gauss_closed_form,
    lambda_p,
    local_constancy_depth,
    oracle_plan,
)


def _ref_branch(spec):
    if spec.alpha == 0:
        return 1
    v_alpha = padic_valuation(spec.alpha, spec.prime)
    target = 2 * spec.ball_exponent
    if v_alpha >= target:
        return 1
    if v_alpha + padic_valuation(4, spec.prime) < target:
        return 2
    return 3


def _ref_closed_form(spec):
    """(branch, magnitude, phase angle, lambda angle), magnitude None for a zero integral."""
    p, alpha, beta, nu = spec.prime, spec.alpha, spec.beta, spec.ball_exponent
    branch = _ref_branch(spec)
    if branch == 1:
        if omega(prime_power(p, nu) * padic_norm(beta, p)) == 0:
            return 1, None, Fraction(0), Fraction(0)
        return 1, HalfPower(Fraction(p), Fraction(nu)), Fraction(0), Fraction(0)
    if branch == 3:
        return _ref_dyadic_band(alpha * prime_power(2, -2 * nu), beta * prime_power(2, -nu), nu)
    lam = lambda_p(alpha, p).angle
    if omega(prime_power(p, -nu) * padic_norm(beta / (2 * alpha), p)) == 0:
        return 2, None, Fraction(0), lam
    v2a = padic_valuation(2 * alpha, p)
    magnitude = HalfPower(Fraction(p), Fraction(v2a, 2))
    return 2, magnitude, chi(-beta * beta / (4 * alpha), p).angle, lam


def _ref_dyadic_band(a, b, nu):
    angle = chi(a + b, 2).angle
    if padic_norm(2 * b, 2) > 1 or angle == Fraction(1, 2):
        return 3, None, Fraction(0), Fraction(0)
    if angle == 0:
        return 3, HalfPower(Fraction(2), Fraction(nu)), Fraction(0), Fraction(0)
    phase = Fraction(1, 8) if angle == Fraction(1, 4) else Fraction(7, 8)
    return 3, HalfPower(Fraction(2), nu - Fraction(1, 2)), phase, Fraction(0)


def _ref_depth(spec):
    p, alpha, beta, nu = spec.prime, spec.alpha, spec.beta, spec.ball_exponent
    bounds = [0, -nu]
    if alpha:
        bounds.append(nu - padic_valuation(2 * alpha, p))
        bounds.append(-(padic_valuation(alpha, p) // 2))
    if beta:
        bounds.append(-padic_valuation(beta, p))
    return max(bounds)


def _ref_plan(spec):
    p, alpha, beta, nu = spec.prime, spec.alpha, spec.beta, spec.ball_exponent
    depth = _ref_depth(spec)
    angle_exp = [0]
    if alpha:
        angle_exp.append(2 * nu - padic_valuation(alpha, p))
    if beta:
        angle_exp.append(nu - padic_valuation(beta, p))
    level = max(angle_exp)
    return level, p**level, depth, p ** (nu + depth)



def _plan_values(spec):
    """``oracle_plan``'s two exponents as the reference's (level, modulus, depth, cosets)."""
    level, depth = oracle_plan(spec)
    return level, spec.prime**level, depth, spec.prime ** (spec.ball_exponent + depth)


def _ref_mod_reduce(x, modulus):
    return x.numerator * pow(x.denominator, -1, modulus) % modulus


def _ref_reduced(spec):
    """(a, b, M, count, fold): the exact residues of alpha and beta in k_j = (a j + b) j mod M,
    the number of samples and the fold (cosets / samples) / p^depth, from Fraction arithmetic."""
    p, alpha, beta, nu = spec.prime, spec.alpha, spec.beta, spec.ball_exponent
    level, modulus, depth, cosets = _ref_plan(spec)
    count = min(cosets, modulus)
    a_red = _ref_mod_reduce(alpha * prime_power(p, level - 2 * nu), modulus) if alpha else 0
    b_red = _ref_mod_reduce(beta * prime_power(p, level - nu), modulus) if beta else 0
    return a_red, b_red, modulus, count, Fraction(cosets // count, p**depth)


def _ref_residues(spec):
    """(k, M, fold): the exact residues k_j of every coset-sum sample, M and the fold."""
    a_red, b_red, modulus, count, fold = _ref_reduced(spec)
    j = np.arange(count, dtype=np.int64)
    return (a_red * j + b_red) % modulus * j % modulus, modulus, fold


def _ref_brute_force(spec):
    """The former oracle formula: one complex exp per sample, summed in blocks of 2^18."""
    a_red, b_red, modulus, count, fold = _ref_reduced(spec)
    total = 0j
    for start in range(0, count, 1 << 18):
        j = np.arange(start, min(start + (1 << 18), count), dtype=np.int64)
        k = (a_red * j + b_red) % modulus * j % modulus
        total += complex(np.exp(2j * np.pi / modulus * k).sum())
    return total * float(fold)


def _ref_half_power_value(h):
    """The former HalfPower.value; None where it raised OverflowError or returned inf."""
    whole_exp = h.exponent.numerator // h.exponent.denominator
    try:
        whole = h.base**whole_exp
        out = whole.numerator / whole.denominator
        if h.exponent - whole_exp:
            out *= math.sqrt(h.base.numerator / h.base.denominator)
    except OverflowError:
        return None
    return None if math.isinf(out) else out


def _exact_half_power(h):
    """base^exponent rounded once from a 2400-bit integer square root; None from 2^1024 on."""
    n = int(2 * h.exponent)
    top, bottom = (h.base.numerator, h.base.denominator) if n > 0 else \
        (h.base.denominator, h.base.numerator)
    top, bottom = top ** abs(n), bottom ** abs(n)
    if top.bit_length() - bottom.bit_length() > 2050:  # at least 2^1025
        return None
    if bottom.bit_length() - top.bit_length() > 2202:  # below 2^-1101
        return 0.0
    root = math.isqrt(top * 4**2400 // bottom)
    try:
        return float(Fraction(root, 2**2400))
    except OverflowError:
        return None


def _value_or_none(h):
    try:
        return h.value()
    except MagnitudeOverflowError:
        return None


def _draw(rng, p, digits):
    """0 or +-p^v * num/den with num and den prime to p and up to `digits` digits."""
    if rng.random() < 0.15:
        return Fraction(0)
    num = rng.randint(1, 10**digits)
    den = rng.randint(1, 10 ** rng.randint(1, digits))
    while num % p == 0:
        num += 1
    while den % p == 0:
        den += 1
    return Fraction(rng.choice((-1, 1)) * num, den) * prime_power(p, rng.randint(-8, 8))


def _spec_near_band(rng, p, nu, digits):
    """A spec whose v(alpha) is within 3 of 2 nu, where the branches meet."""
    alpha = _draw(rng, p, digits) or Fraction(1)
    shift = 2 * nu - padic_valuation(alpha, p) + rng.randint(-3, 2)
    beta = _draw(rng, p, digits) * prime_power(p, nu + rng.randint(-3, 3))
    return GaussIntegralSpec(p, alpha * prime_power(p, shift), beta, nu)


def _assert_same_closed_form(spec):
    got = gauss_closed_form(spec)
    branch, magnitude, phase, lam = _ref_closed_form(spec)
    assert branch_of(spec) == branch == got.branch, spec
    assert got.magnitude == magnitude, spec
    assert got.phase.angle == phase and got.lambda_factor.angle == lam, spec
    if magnitude is None:
        assert got.value == 0j
        return got
    ref_value = _ref_half_power_value(magnitude)
    assert _value_or_none(got.magnitude) == ref_value, spec
    if ref_value is not None:
        lam_phase = (UnitPhase(lam) * UnitPhase(phase)).to_complex()
        assert repr(got.value) == repr(ref_value * lam_phase), spec
    return got


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 10**6 + 3])
def test_closed_form_and_plan_equal_the_fraction_reference(p):
    rng = random.Random(1100 + p)
    branches, zero_alpha, zero_beta = set(), 0, 0
    for case in range(600):
        nu = rng.randint(-6, 6)
        digits = 40 if case % 4 == 0 else 3
        if case % 2:
            spec = _spec_near_band(rng, p, nu, digits)
        else:
            spec = GaussIntegralSpec(p, _draw(rng, p, digits), _draw(rng, p, digits), nu)
        got = _assert_same_closed_form(spec)
        branches.add((got.branch, got.magnitude is None))
        zero_alpha += spec.alpha == 0
        zero_beta += spec.beta == 0
        assert local_constancy_depth(spec) == _ref_depth(spec), spec
        assert _plan_values(spec) == _ref_plan(spec), spec
    expected = {(1, False), (1, True), (2, False), (2, True)}
    if p == 2:
        expected |= {(3, False), (3, True)}
    assert branches == expected
    assert zero_alpha and zero_beta


@pytest.mark.parametrize("p", [2, 3, 5])
def test_large_ball_exponents_equal_the_fraction_reference(p):
    # |nu| up to 10^6 with small valuations: branch 2 above, branch 1 below;
    # the branch boundaries themselves are swept at |nu| <= 40
    rng = random.Random(1200 + p)
    for nu in (10**6, -(10**6), 123_457, -98_765, 4_000, -4_000):
        for _ in range(3):
            spec = GaussIntegralSpec(p, _draw(rng, p, rng.choice((3, 40))), _draw(rng, p, 3), nu)
            assert _assert_same_closed_form(spec).branch == (2 if nu > 0 and spec.alpha else 1)
            assert local_constancy_depth(spec) == _ref_depth(spec), spec
    for nu in (-40, -17, 23, 40):
        for _ in range(20):
            spec = _spec_near_band(rng, p, nu, rng.choice((3, 40)))
            _assert_same_closed_form(spec)
            assert _plan_values(spec) == _ref_plan(spec), spec


def test_dyadic_band_equals_the_fraction_reference_for_every_unit_class():
    for nu in (-3, 0, 2, 40):
        for v_alpha in (2 * nu - 1, 2 * nu - 2):
            for a_unit in (1, 3, 5, 7, Fraction(-5, 3), Fraction(9, 11)):
                for beta in [Fraction(0)] + [Fraction(b_unit) * prime_power(2, nu + shift)
                                             for shift in range(-3, 3)
                                             for b_unit in (1, 3, Fraction(-7, 5))]:
                    spec = GaussIntegralSpec(2, a_unit * prime_power(2, v_alpha), beta, nu)
                    assert _assert_same_closed_form(spec).branch == 3


def _oracle_error_bound_holds(oracle, spec):
    """|oracle - ref * fold| <= 2^-50 * samples * fold, where ref is the 30-digit sum of
    e(k/M) over the exact residues k, one exponential per distinct k."""
    k, modulus, fold = _ref_residues(spec)
    ks, multiplicities = np.unique(k, return_counts=True)
    with mpmath.workdps(30):
        ref = mpmath.fsum(int(m) * mpmath.expjpi(mpmath.mpf(2 * int(r)) / modulus)
                          for r, m in zip(ks, multiplicities))
        scale = mpmath.mpf(fold.numerator) / fold.denominator
        return abs(mpmath.mpc(oracle) - ref * scale) <= mpmath.mpf(2) ** -50 * len(k) * scale


def test_oracle_sums_are_within_fifty_bits_per_sample_of_a_30_digit_reference():
    # the bound is 8.9e-16 per sample; the former one-exp-per-sample formula meets it too
    rng = random.Random(1300)
    checked = 0
    while checked < 150:
        p = rng.choice((2, 3, 5, 7, 11))
        spec = GaussIntegralSpec(p, _draw(rng, p, rng.choice((3, 40))),
                                 _draw(rng, p, 3), rng.randint(-3, 3))
        level, modulus, depth, cosets = _ref_plan(spec)
        if min(cosets, modulus) > 5000:
            continue
        assert _oracle_error_bound_holds(gauss_brute_force(spec), spec), spec
        assert _oracle_error_bound_holds(_ref_brute_force(spec), spec), spec
        checked += 1
    # two sums of 2^12 to 2^15 samples at each prime, which gauss_brute_force factors
    for p in (2, 3, 5, 7, 11) * 2:
        while True:
            spec = GaussIntegralSpec(p, _draw(rng, p, rng.choice((3, 40))),
                                     _draw(rng, p, 3), rng.randint(-3, 3))
            level, modulus, depth, cosets = _ref_plan(spec)
            if 1 << 12 < min(cosets, modulus) <= 1 << 15:
                break
        assert _oracle_error_bound_holds(gauss_brute_force(spec), spec), spec


def _split_draw(rng, p, accept=lambda a, modulus, count: True, beta_zero=False):
    """A seeded spec at p with 2^12 < samples <= 2^20 whose residue a, M and count pass `accept`."""
    while True:
        nu = rng.randint(-3, 3)
        alpha = _draw(rng, p, rng.choice((3, 40))) * prime_power(p, rng.randint(-12, 0))
        beta = Fraction(0) if beta_zero else _draw(rng, p, 3) * prime_power(p, rng.randint(-12, 0))
        spec = GaussIntegralSpec(p, alpha, beta, nu)
        a_red, b_red, modulus, count, _ = _ref_reduced(spec)
        if 1 << 12 < count <= 1 << 20 and accept(a_red, modulus, count):
            return spec


def _assert_split_matches_the_plain_reference(spec):
    _, _, _, count, fold = _ref_reduced(spec)
    deviation = abs(gauss_brute_force(spec) - _ref_brute_force(spec))
    assert deviation <= 2.0**-50 * count * float(fold), (spec, deviation)


def test_split_oracle_sums_match_the_one_exp_per_sample_reference():
    # The 30-digit reference stops at 2^15 samples, so this sweep pins the split's
    # index arithmetic up to 2^20: j = x + p^e y, t(x) = (2a x + b) mod M/p^e, F[t].
    # Same 2^-50-per-sample bound.
    rng = random.Random(1500)
    specs = [_split_draw(rng, p) for p in (2, 3, 5, 7, 11) for _ in range(6)]
    # span = level - 1, the only case where the coset sum has fewer samples than M
    specs += [_split_draw(rng, 2, lambda a, modulus, count: 2 * count == modulus) for _ in range(3)]
    specs += [_split_draw(rng, p, beta_zero=True) for p in (2, 3, 5, 7, 11)]
    # p divides a: t(x) = (2a x + b) mod M/p^e then meets only the t = b mod p (a = 0: one t)
    specs += [_split_draw(rng, p, lambda a, modulus, count: a % p == 0) for p in (2, 3, 5, 7, 11)]
    assert any(spec.alpha == 0 for spec in specs)
    for spec in specs:
        _assert_split_matches_the_plain_reference(spec)
    # a prime with p^2 > 2^16 at span 3 (level 3), 257^3 to 401^3 samples: the
    # sample budget 2^26 caps span-3 primes at 406, so the count exceeds 2^20 here
    p = rng.choice([q for q in range(257, 407) if is_prime(q)])
    spec = GaussIntegralSpec(p, Fraction(rng.randint(1, p - 1), p**3), Fraction(rng.randint(1, p - 1), p**3))
    assert _ref_plan(spec)[:2] == (3, p**3) and _ref_reduced(spec)[3] == p**3
    _assert_split_matches_the_plain_reference(spec)


def test_half_power_values_are_bit_identical_to_the_fraction_reference():
    rng = random.Random(1400)
    bases = [Fraction(p) for p in (2, 3, 5, 7, 10**6 + 3)]
    bases += [Fraction(1, 3), Fraction(7, 2), Fraction(10**40 + 1, 3), Fraction(2, 10**40 + 7)]
    for base in bases:
        # exponents around the float range's ends, where value() decides before any power
        edge = round(1024 / math.log2(base))
        exponents = [Fraction(n, 2) for n in range(-8, 9)]
        exponents += [Fraction(2 * edge + n, 2) for n in range(-8, 9)]
        exponents += [Fraction(-2 * edge * 1075 // 1024 + n, 2) for n in range(-8, 9)]
        exponents += [Fraction(rng.randint(-3000, 3000), 2) for _ in range(40)]
        for exponent in exponents:
            h = HalfPower(base, exponent)
            # where the float route gave no finite nonzero value, the exact one
            expected = _ref_half_power_value(h) or _exact_half_power(h)
            assert repr(_value_or_none(h)) == repr(expected), h


def test_half_power_past_float_range_bases_round_like_the_exact_root():
    # where base^k or sqrt(base) is no float but base^exponent is, the value rounds once
    huge = 10**400
    bases = [Fraction(huge), Fraction(1, huge), Fraction(2**1100 + 1), Fraction(3, 2**1100),
             Fraction(huge + 1, huge), Fraction(huge, huge + 7), Fraction(2**2100)]
    for base in bases:
        exponents = {Fraction(n, 2) for n in (-3, -2, -1, 1, 2, 3)}
        bits = abs(math.log2(base.numerator) - math.log2(base.denominator))
        if bits > 1:  # half-steps around 2^-1075, 2^-1022 and 2^1024, on both signs
            exponents |= {Fraction(sign * (round(2 * edge / bits) + n), 2) for sign in (1, -1)
                          for edge in (1022, 1024, 1075) for n in range(-3, 4)}
        for exponent in exponents:
            h = HalfPower(base, exponent)
            expected = _ref_half_power_value(h) or _exact_half_power(h)
            assert repr(_value_or_none(h)) == repr(expected), h
    # the values that printed 0.0 or exited 10: |B/h|^(1/2) = 1e-200 and 1e200 exactly
    assert HalfPower(Fraction(1, huge), Fraction(1, 2)).value() == 1e-200
    assert HalfPower(Fraction(huge), Fraction(1, 2)).value() == 1e200
    assert HalfPower(Fraction(huge), Fraction(-1, 2)).value() == 1e-200


def test_half_power_out_of_range_is_decided_without_building_the_power():
    # 3^(10^8) has 1.6e8 bits; building it would take seconds
    assert HalfPower(Fraction(3), Fraction(-(10**8))).value() == 0.0
    with pytest.raises(MagnitudeOverflowError, match="too large for a float"):
        HalfPower(Fraction(3), Fraction(10**8)).value()
    assert HalfPower(Fraction(2), Fraction(1023)).value() == 2.0**1023
    with pytest.raises(MagnitudeOverflowError):
        HalfPower(Fraction(2), Fraction(1024)).value()
    # exponents that no float holds: the signs decide, and a base of 1 stays 1.0
    huge = Fraction(10**400 + 1, 2)
    assert HalfPower(Fraction(1), huge).value() == HalfPower(Fraction(1), -huge).value() == 1.0
    assert HalfPower(Fraction(3), -huge).value() == HalfPower(Fraction(1, 3), huge).value() == 0.0
    for base, exponent in ((Fraction(3), huge), (Fraction(1, 3), -huge)):
        with pytest.raises(MagnitudeOverflowError, match="too large for a float"):
            HalfPower(base, exponent).value()
