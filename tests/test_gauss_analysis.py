"""Quadratic character sums over p-adic balls: closed form vs coset sums."""

import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padic_oscillator.errors import DepthTooSmallError, OracleBudgetError
from padic_oscillator.exact_numbers import HalfPower, padic_norm, padic_valuation
from padic_oscillator.gauss_analysis import (
    AmplitudeValue,
    GaussIntegralSpec,
    branch_of,
    gauss_brute_force,
    gauss_closed_form,
    lambda_p,
    local_constancy_depth,
    oracle_plan,
)
from padic_oscillator.propagator import lambda_real


def test_pure_quadratic_unit_ball_with_deep_pole():
    # alpha = 1/3 over the unit 3-adic ball: stationary-phase branch,
    # magnitude 3^{-1/2} and a quarter-turn unimodular factor.
    spec = GaussIntegralSpec(3, Fraction(1, 3), Fraction(0))
    got = gauss_closed_form(spec)
    assert got.branch == 2
    assert got.lambda_factor.angle == Fraction(1, 4)
    assert got.phase.angle == 0
    assert abs(got.value - complex(0, 1 / math.sqrt(3))) < 1e-12


def test_pure_quadratic_unit_ball_flat_integrand():
    # alpha = 3 keeps the quadratic phase trivial on the unit ball
    spec = GaussIntegralSpec(3, Fraction(3), Fraction(0))
    got = gauss_closed_form(spec)
    assert got.branch == 1
    assert got.value == 1


def test_flat_branch_vanishes_when_linear_term_oscillates():
    spec = GaussIntegralSpec(3, Fraction(3), Fraction(1, 3))
    got = gauss_closed_form(spec)
    assert got.magnitude is None and got.value == 0
    assert abs(gauss_brute_force(spec)) < 1e-12


def test_stationary_branch_vanishes_off_center():
    # critical point beta/2alpha lands outside the ball
    spec = GaussIntegralSpec(3, Fraction(1, 3), Fraction(1, 9))
    got = gauss_closed_form(spec)
    assert got.branch == 2 and got.magnitude is None
    assert abs(gauss_brute_force(spec)) < 1e-12


def test_dyadic_band_matches_coset_sum():
    # the band v(alpha) in {2 nu - 1, 2 nu - 2} between branches 1 and 2 at p = 2
    checked = 0
    for nu in range(-2, 3):
        for v_alpha in (2 * nu - 1, 2 * nu - 2):
            for unit in (1, 3, 5, 7):
                alpha = Fraction(unit) * Fraction(2) ** v_alpha
                betas = [Fraction(0)] + [Fraction(b_unit) * Fraction(2) ** v_beta
                                         for v_beta in range(-4, 5) for b_unit in (1, 3, 5, 7)]
                for beta in betas:
                    spec = GaussIntegralSpec(2, alpha, beta, nu)
                    assert branch_of(spec) == 3
                    closed = gauss_closed_form(spec)
                    oracle = gauss_brute_force(spec)
                    assert abs(closed.value - oracle) < 1e-9
                    assert (closed.magnitude is None) == (abs(oracle) < 1e-9)
                    assert closed.lambda_factor.angle == 0
                    checked += 1
    assert checked == 5 * 2 * 4 * 37


def test_odd_primes_have_no_branch_gap():
    for v in range(-4, 5):
        spec = GaussIntegralSpec(5, Fraction(5) ** v, Fraction(0))
        assert branch_of(spec) in (1, 2)


def test_histogram_depth_guard():
    spec = GaussIntegralSpec(3, Fraction(1, 9), Fraction(0))
    assert local_constancy_depth(spec) == 2
    with pytest.raises(DepthTooSmallError):
        oracle_plan(spec, 1)
    with pytest.raises(DepthTooSmallError):
        gauss_brute_force(spec, 1)
    plan = oracle_plan(spec, 2)
    assert (3**plan.level, plan.depth, 3**plan.depth) == (9, 2, 9)
    # 9 cosets of weight 1/9: a unit-ball sum of unimodular terms
    assert abs(gauss_brute_force(spec, 2) - gauss_closed_form(spec).value) < 1e-12


def test_histogram_total_mass_counts_every_coset():
    spec = GaussIntegralSpec(5, Fraction(2, 5), Fraction(3), ball_exponent=1)
    depth = local_constancy_depth(spec)
    plan = oracle_plan(spec, depth + 1)
    assert plan.depth == depth + 1
    assert 5 ** (1 + plan.depth) == 5 ** (1 + depth + 1)
    assert 5 ** (1 + plan.depth) % 5**plan.level == 0
    # total mass: with alpha = beta = 0 every one of the p^(nu+depth)
    # cosets adds exp(0) = 1 at weight p^(-depth), giving the ball measure
    flat = GaussIntegralSpec(5, Fraction(0), Fraction(0), ball_exponent=1)
    assert 5 ** (1 + oracle_plan(flat, depth + 1).depth) == 5 ** (1 + plan.depth)
    assert abs(gauss_brute_force(flat, depth + 1) - 5) < 1e-12


@pytest.mark.parametrize("p, alpha, beta", [
    (3, Fraction(2, 3**14), Fraction(0)),
    (2, Fraction(3, 2**22), Fraction(5, 2**7)),
])
def test_moduli_above_two_to_the_21_match_closed_form(p, alpha, beta):
    # the benchmark's deep-tier specs, each a factored sum of over 4 million samples
    spec = GaussIntegralSpec(p, alpha, beta)
    assert p ** oracle_plan(spec).level > 1 << 21
    assert abs(gauss_brute_force(spec) - gauss_closed_form(spec).value) < 1e-9


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_oracle_at_modulus_one_is_one_exact_sample(p):
    # level 0: both root tables hold only e(0) = 1, so the sum is exactly the ball measure
    for spec, measure in ((GaussIntegralSpec(p, Fraction(0), Fraction(0)), 1.0),
                          (GaussIntegralSpec(p, Fraction(p * p), Fraction(p), -1), 1 / p)):
        plan = oracle_plan(spec)
        assert (p**plan.level, p ** (spec.ball_exponent + plan.depth)) == (1, 1)
        assert gauss_brute_force(spec) == measure == gauss_closed_form(spec).value


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_oracle_at_modulus_p_sums_the_pth_roots_of_unity(p):
    quadratic = GaussIntegralSpec(p, Fraction(1, p), Fraction(0))
    linear = GaussIntegralSpec(p, Fraction(0), Fraction(1, p))
    for spec in (quadratic, linear):
        plan = oracle_plan(spec)
        assert p**plan.level == p**plan.depth == p
    assert abs(gauss_brute_force(quadratic) - gauss_closed_form(quadratic).value) < 1e-15
    assert abs(gauss_brute_force(linear)) < 1e-15  # every p-th root once: the sum is 0


def test_oracle_plan_is_integral_when_cosets_are_half_the_modulus():
    # p = 2, alpha = 1/8: nu + depth = level - 1, so the samples cover
    # only half the modulus; the sum then runs over exactly those cosets
    p, nu = 2, 0
    spec = GaussIntegralSpec(p, Fraction(1, 8), Fraction(0), nu)
    plan = oracle_plan(spec)
    assert all(type(field) is int for field in plan)
    assert 2 * p ** (nu + plan.depth) == p**plan.level
    assert abs(gauss_brute_force(spec) - gauss_closed_form(spec).value) < 1e-9



def test_oracle_plan_at_a_huge_ball_exponent_builds_no_power_of_p():
    # p^(nu + depth) would have about 48 million digits at nu = 10^8
    spec = GaussIntegralSpec(3, Fraction(1, 3), Fraction(0), 10**8)
    start = time.perf_counter()
    plan = oracle_plan(spec)
    assert time.perf_counter() - start < 1.0
    assert plan == (2 * 10**8 + 1, 10**8 + 1)


def test_oracle_modulus_above_two_to_the_31_fails_fast():
    spec = GaussIntegralSpec(2, Fraction(1, 2**40), Fraction(0))
    with pytest.raises(ValueError, match=r"2\^40"):
        gauss_brute_force(spec)


def test_oracle_sample_count_above_budget_fails_fast():
    # 2^30 samples fit int64 but are 16 times the budget
    spec = GaussIntegralSpec(2, Fraction(1, 2**31), Fraction(0))
    plan = oracle_plan(spec, depth=30)
    assert min(2**plan.depth, 2**plan.level) == 2**30
    with pytest.raises(OracleBudgetError, match=r"1073741824 samples"):
        gauss_brute_force(spec, depth=30)


@pytest.mark.parametrize("spec, count", [
    (GaussIntegralSpec(2, Fraction(1, 2**27), Fraction(0)), 2**26),  # M = 2^27, split
    (GaussIntegralSpec(3, Fraction(2, 3**16), Fraction(1, 3**5)), 3**16),  # split
    (GaussIntegralSpec(251, Fraction(1, 251**3), Fraction(0)), 251**3),  # split, p^2 <= 2^16
    (GaussIntegralSpec(257, Fraction(1, 257**3), Fraction(0)), 257**3),  # split, p^2 > 2^16
    (GaussIntegralSpec(4093, Fraction(1, 4093**2), Fraction(0)), 4093**2),  # span 2: plain blocks
])
def test_oracle_sums_at_the_sample_budget_match_the_closed_form(spec, count):
    # the largest sums the modulus and sample guards let through, where the int64
    # products of the residues come closest to their M * count bound.  Span 3 splits
    # at every prime, 251 and 257 included; span 2 has nothing to split, so a prime
    # with p^2 near the budget gives the plain blocks' largest sum (8191^2 samples
    # would too, at four times the cost)
    level, depth = oracle_plan(spec)
    assert spec.prime ** min(spec.ball_exponent + depth, level) == count <= 2**26
    assert abs(gauss_brute_force(spec) - gauss_closed_form(spec).value) < 1e-9


def test_deeper_sampling_does_not_move_the_value():
    spec = GaussIntegralSpec(3, Fraction(2, 9), Fraction(1, 3))
    base = gauss_brute_force(spec)
    deeper = gauss_brute_force(spec, depth=local_constancy_depth(spec) + 2)
    assert abs(base - deeper) < 1e-12


def test_closed_form_matches_coset_sum_on_fixed_grid():
    rng = random.Random(11)
    checked = 0
    while checked < 60:
        p = rng.choice((2, 3, 5, 7))
        nu = rng.randint(-2, 2)
        alpha = Fraction(rng.choice((1, 2, 3, 4))) * Fraction(p) ** rng.randint(-3, 3)
        beta = Fraction(rng.choice((0, 1, 2, 5))) * Fraction(p) ** rng.randint(-2, 2)
        spec = GaussIntegralSpec(p, alpha, beta, nu)
        if local_constancy_depth(spec) + nu > 9:
            continue
        closed = gauss_closed_form(spec)
        assert abs(closed.value - gauss_brute_force(spec)) < 1e-9
        checked += 1


def _lambda_by_coset_sum(alpha, p):
    """Reference lambda_p: the pure-quadratic integral over a ball deep in
    the stationary-phase branch, normalized by |2 alpha|_p^(1/2)."""
    nu = padic_valuation(4 * alpha, p) // 2 + 1
    raw = gauss_brute_force(GaussIntegralSpec(p, alpha, Fraction(0), nu))
    return raw * HalfPower(Fraction(p), Fraction(-padic_valuation(2 * alpha, p), 2)).value()


def test_lambda_matches_normalized_coset_sum():
    for p in (2, 3, 5, 7, 11, 13):
        units = (1, 3, 5, 7) if p == 2 else range(1, p)
        for unit in units:
            for v in range(-3, 4):
                # p + 1 is a unit denominator
                for alpha in (Fraction(unit) * p**v, Fraction(-unit, p + 1) * p**v):
                    reference = _lambda_by_coset_sum(alpha, p)
                    assert abs(lambda_p(alpha, p).to_complex() - reference) < 1e-9


def test_lambda_is_trivial_at_zero_and_unimodular():
    for p in (2, 3, 5, 7):
        assert lambda_p(Fraction(0), p).angle == 0
    for p in (3, 5, 7):
        for v in range(-3, 4):
            for unit in (1, 2, 3):
                val = lambda_p(Fraction(unit) * Fraction(p) ** v, p)
                assert abs(abs(val.to_complex()) - 1) < 1e-12


def test_lambda_even_valuation_is_trivial_for_odd_primes():
    for p in (3, 5, 7):
        for unit in (1, 2, p - 1):
            assert lambda_p(Fraction(unit), p).angle == 0
            assert lambda_p(Fraction(unit) * p**2, p).angle == 0


def test_lambda_square_scaling_invariance():
    rng = random.Random(5)
    for p in (3, 5, 7):
        for _ in range(30):
            a = Fraction(rng.randint(1, 30)) * Fraction(p) ** rng.randint(-2, 2)
            b = Fraction(rng.randint(1, 12))
            assert lambda_p(a, p).angle == lambda_p(b * b * a, p).angle


def test_lambda_reciprocal_duality():
    rng = random.Random(17)
    for p in (3, 5, 7):
        for _ in range(25):
            a = Fraction(rng.randint(1, 20)) * Fraction(p) ** rng.randint(-2, 2)
            b = Fraction(rng.randint(1, 20)) * Fraction(p) ** rng.randint(-2, 2)
            if a + b == 0:
                continue
            lhs = lambda_p(a, p) * lambda_p(b, p)
            rhs = lambda_p(a + b, p) * lambda_p(1 / a + 1 / b, p)
            assert abs(lhs.to_complex() - rhs.to_complex()) < 1e-10


def _trial_primes(n):
    """The primes dividing an integer n >= 1, by trial division."""
    primes, q = set(), 2
    while q * q <= n:
        while n % q == 0:
            primes.add(q)
            n //= q
        q += 1
    return primes | ({n} if n > 1 else set())


def _integral_over_q_p(alpha, beta, p):
    """gauss_closed_form on the first ball where branch 2 fires with a nonzero magnitude:
    from there on the ball integral is the integral over all of Q_p."""
    nu = -3  # terms <= 300 keep v(alpha) >= -8, so branch 2 cannot fire below nu = -3
    while True:
        got = gauss_closed_form(GaussIntegralSpec(p, alpha, beta, nu))
        if got.branch == 2 and got.magnitude is not None:
            return got
        nu += 1


def test_gauss_integrals_satisfy_weils_product_formula():
    # prod_v of the integral of chi_v(alpha x^2 + beta x) over Q_v is 1 (Weil, Acta Math.
    # 111, 1964).  At the real place it is lambda_real(alpha) |2 alpha|^(-1/2) with
    # chi(-beta^2 / 4 alpha) = exp(2 pi i beta^2 / 4 alpha); a prime outside {2} and the
    # primes of alpha and beta contributes exactly 1, so the product is finite.
    rng = random.Random(1700)
    zero_beta = 0
    for _ in range(2000):
        alpha = Fraction(rng.choice((-1, 1)) * rng.randint(1, 300), rng.randint(1, 300))
        beta = Fraction(0) if rng.random() < 0.2 else Fraction(rng.randint(-300, 300),
                                                                rng.randint(1, 300))
        zero_beta += beta == 0
        parts = (alpha.numerator, alpha.denominator, beta.numerator, beta.denominator)
        primes = {2}.union(*(_trial_primes(abs(n)) for n in parts if n))
        angle = lambda_real(alpha).angle + beta * beta / (4 * alpha)
        norm = abs(2 * alpha)
        for p in primes:
            got = _integral_over_q_p(alpha, beta, p)
            assert got.magnitude.base == p, (alpha, beta, p)
            angle += got.lambda_factor.angle + got.phase.angle
            norm *= Fraction(p) ** int(-2 * got.magnitude.exponent)
        assert angle.denominator == 1 and norm == 1, (alpha, beta)
        outside = next(q for q in range(3, 400) if _trial_primes(q) == {q} and q not in primes)
        got = _integral_over_q_p(alpha, beta, outside)
        assert got.magnitude.exponent == got.lambda_factor.angle == got.phase.angle == 0
    assert 300 < zero_beta < 500


@given(
    st.sampled_from([3, 5, 7]),
    st.integers(-3, 3),
    st.integers(1, 40),
)
@settings(max_examples=80)
def test_magnitude_never_depends_on_the_unit(p, v, unit):
    if unit % p == 0:
        unit += 1
    spec = GaussIntegralSpec(p, Fraction(unit) * Fraction(p) ** v, Fraction(0))
    got = gauss_closed_form(spec)
    if got.branch == 2:
        expected = padic_norm(2 * spec.alpha, p) ** Fraction(1, 2)
        assert abs(got.magnitude.value() * expected - 1) < 1e-12
    else:
        assert got.value == 1


def test_json_payload_carries_exact_factors():
    payload = gauss_closed_form(GaussIntegralSpec(3, Fraction(1, 3), Fraction(0))).to_json()
    assert payload["branch"] == 2
    assert payload["lambda_angle"] == Fraction(1, 4)
    assert payload["phase_angle"] == Fraction(0)
    assert isinstance(gauss_closed_form(GaussIntegralSpec(3, Fraction(3), Fraction(0))), AmplitudeValue)
