"""Scalar layer: norms, characters, and the square-root reference in Q_p."""

import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padic_oscillator import exact_numbers
from padic_oscillator.gauss_analysis import lambda_p
from padic_oscillator.exact_numbers import (
    HalfPower,
    PHASE_ONE,
    UnitPhase,
    chi,
    frac_str,
    fractional_part,
    is_prime,
    omega,
    padic_norm,
    padic_valuation,
    parse_rational,
    primes_upto,
    real_norm,
)
from reference import padic_sqrt

PRIMES = st.sampled_from([2, 3, 5, 7, 11, 13])
rationals = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**6)
nonzero_rationals = rationals.filter(bool)


@given(PRIMES, rationals, rationals)
@settings(max_examples=100)
def test_ultrametric_inequality_with_equality_case(p, x, y):
    nx, ny = padic_norm(x, p), padic_norm(y, p)
    nsum = padic_norm(x + y, p)
    assert nsum <= max(nx, ny)
    if nx != ny:
        # the strong triangle inequality is an equality off the diagonal
        assert nsum == max(nx, ny)


@given(PRIMES, rationals, rationals)
@settings(max_examples=100)
def test_norm_multiplicative(p, x, y):
    assert padic_norm(x * y, p) == padic_norm(x, p) * padic_norm(y, p)


@given(PRIMES, rationals, rationals)
@settings(max_examples=120)
def test_character_additive(p, x, y):
    assert (chi(x, p) * chi(y, p)).angle == chi(x + y, p).angle


@given(st.fractions(min_value=-3000, max_value=3000, max_denominator=3000).filter(bool))
@settings(max_examples=120, deadline=None)
def test_product_formula_over_all_places(x):
    total = real_norm(x)
    for p in primes_upto(max(abs(x.numerator), x.denominator) + 1):
        total *= padic_norm(x, p)
    assert total == 1


@given(PRIMES, rationals)
@settings(max_examples=120)
def test_fractional_part_lands_in_unit_interval_with_integral_difference(p, x):
    f = fractional_part(x, p)
    assert 0 <= f < 1
    assert padic_norm(x - f, p) <= 1
    # denominator is a pure p power
    d = f.denominator
    while d % p == 0:
        d //= p
    assert d == 1


def test_fractional_part_frozen_values():
    assert fractional_part(Fraction(7, 4), 2) == Fraction(3, 4)
    assert fractional_part(Fraction(1, 3), 3) == Fraction(1, 3)
    assert fractional_part(Fraction(5), 7) == 0
    assert fractional_part(Fraction(-1, 5), 5) == Fraction(4, 5)


def test_valuation_of_zero_is_infinite():
    assert padic_valuation(0, 5) == float("inf")
    assert padic_norm(0, 5) == 0
    assert omega(padic_norm(0, 5)) == 1  # zero sits inside the unit ball


def test_square_root_existence_matches_quadratic_residues():
    # 2 is a non-residue mod 5 and mod 3, a residue mod 7
    assert padic_sqrt(2, 5) is None
    assert padic_sqrt(2, 3) is None
    root7 = padic_sqrt(2, 7, digits=6)
    assert root7 is not None
    v, root = root7
    assert v == 0 and padic_norm(root**2 - 2, 7) <= Fraction(1, 7**6)


def test_square_root_picks_small_leading_digit():
    v, root = padic_sqrt(4, 5, digits=3)
    assert v == 0 and root % 5 == 2  # not the conjugate root leading with 3


def test_square_root_at_two_needs_one_mod_eight():
    assert padic_sqrt(17, 2, digits=8) is not None
    assert padic_sqrt(3, 2) is None
    assert padic_sqrt(5, 2) is None
    v, root = padic_sqrt(17, 2, digits=8)
    # chosen branch is 1 mod 4: second digit zero
    assert v == 0 and root % 4 == 1
    assert padic_norm(root**2 - 17, 2) <= Fraction(1, 2**8)


@given(PRIMES, st.integers(1, 200))
@settings(max_examples=100)
def test_square_of_returned_root_recovers_input(p, n):
    x = Fraction(n * n)
    root = padic_sqrt(x, p, digits=10)
    assert root is not None
    v, unit = root
    assert padic_norm((p**v * unit) ** 2 - x, p) <= Fraction(1, p**8)


def _scan_sqrt(u: int, p: int, digits: int):
    """Reference for odd p: the root mod p by scanning, lifted by Newton steps."""
    if pow(u, (p - 1) // 2, p) != 1:
        return None
    root = next(r for r in range(1, p) if r * r % p == u)
    k = 1
    while k < digits:
        k = min(2 * k, digits)
        modulus = p**k
        root = (root + u * pow(root, -1, modulus)) * pow(2, -1, modulus) % modulus
    if root % p > (p - 1) // 2:
        root = p**digits - root
    return 0, root


def test_square_root_equals_the_scan_reference_for_every_unit_below_200():
    for p in primes_upto(199)[1:]:
        for u in range(1, p):
            assert padic_sqrt(u, p, digits=5) == _scan_sqrt(u, p, 5), (u, p)


@pytest.mark.parametrize("p", [1000000000039, 1000000000121])  # 3 mod 4 and 1 mod 8
def test_square_root_at_a_thirteen_digit_prime_is_fast(p):
    small = p // 3  # a scan for the root mod p would run p/3 steps
    start = time.perf_counter()
    v, root = padic_sqrt(small * small, p)
    assert time.perf_counter() - start < 1
    assert v == 0 and root % p == small
    assert padic_norm(root**2 - small * small, p) <= Fraction(1, p**32)


def test_unit_phase_group_laws():
    a = UnitPhase(Fraction(3, 8))
    b = UnitPhase(Fraction(7, 8))
    assert (a * b).angle == Fraction(1, 4)
    assert (a * UnitPhase(-a.angle)).angle == 0  # the inverse phase
    assert PHASE_ONE.to_complex() == 1


def test_half_power_merging_and_value():
    h = HalfPower(Fraction(3), Fraction(-1, 2))
    assert abs(h.value() - 3 ** -0.5) < 1e-15
    merged = h * HalfPower(Fraction(3), Fraction(5, 2))
    assert merged.exponent == 2 and merged.value() == 9
    with pytest.raises(ValueError):
        h * HalfPower(Fraction(5), Fraction(1, 2))
    with pytest.raises(ValueError):
        HalfPower(Fraction(3), Fraction(1, 3))


def test_rational_parsing_round_trip_and_rejects():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-5") == -5
    assert parse_rational(frac_str(Fraction(-22, 7))) == Fraction(-22, 7)
    for bad in ("x/3", "1.5", "1/0", "2/-3", ""):
        with pytest.raises(ValueError):
            parse_rational(bad)


def test_is_prime_agrees_with_the_sieve_below_ten_to_the_six(monkeypatch):
    monkeypatch.setattr(exact_numbers, "_PRIME_CACHE", set())
    primes = set(primes_upto(10**6))
    assert [n for n in range(-2, 10**6) if is_prime(n) != (n in primes)] == []


def _strong_probable_prime(n, base):
    odd, twos = n - 1, 0
    while odd % 2 == 0:
        odd, twos = odd // 2, twos + 1
    x = pow(base, odd, n)
    return x in (1, n - 1) or any(pow(x, 2**r, n) == n - 1 for r in range(1, twos))


def test_is_prime_sizes_its_bases_to_n_at_the_jaeschke_bounds(monkeypatch):
    monkeypatch.setattr(exact_numbers, "_PRIME_CACHE", set())
    # the least strong pseudoprimes to the first 3 and the first 4 prime bases:
    # both are composite, and each fools the base set exact only below it
    for n, fooled in ((25_326_001, 3), (3_215_031_751, 4), (341_550_071_728_321, 8)):
        assert all(_strong_probable_prime(n, q) for q in (2, 3, 5, 7, 11, 13, 17, 19)[:fooled])
        assert not is_prime(n)
    # the primes next to each bound
    assert is_prime(25_325_981) and is_prime(25_326_023)
    assert is_prime(341_550_071_728_361)


def test_is_prime_rejects_every_non_integer_before_the_cache(monkeypatch):
    monkeypatch.setattr(exact_numbers, "_PRIME_CACHE", set())
    for n in (3.0, Fraction(7), 2003.0, 7.5, "7", None):
        with pytest.raises(ValueError, match="integers"):
            is_prime(n)
    assert exact_numbers._PRIME_CACHE == set()
    assert is_prime(7) and is_prime(True) is False


def test_is_prime_rejects_strong_pseudoprimes_to_the_first_bases(monkeypatch):
    monkeypatch.setattr(exact_numbers, "_PRIME_CACHE", set())
    # strong pseudoprimes to the bases 2..7, 2..23 and 2..37 respectively
    for n in (3215031751, 3825123056546413051, 318665857834031151167461):
        assert not is_prime(n)
    assert is_prime(10**18 + 3) and is_prime(2**61 - 1)


def test_is_prime_refuses_to_guess_beyond_the_exact_bound():
    with pytest.raises(ValueError):
        is_prime(2**89 - 1)
    with pytest.raises(ValueError):
        is_prime(exact_numbers.MILLER_RABIN_BOUND)


def test_prime_divisors_refuses_n_below_two_before_any_work():
    # rho never finds a divisor of 1 or of a negative n, and 0 raised ZeroDivisionError
    for n in (0, 1, -7):
        with pytest.raises(ValueError, match="n > 1"):
            exact_numbers.prime_divisors(n)
    assert exact_numbers.prime_divisors(67 * 71**2 * 73) == {67, 71, 73}


# -- the integer path against the Fraction-only reference -------------------


def _reference_unit_part(x, p):
    """(v, num, den) by one division per factor of p."""
    x = Fraction(x)
    if x == 0:
        return math.inf, 0, 1
    v, num, den = 0, x.numerator, x.denominator
    while num % p == 0:
        num, v = num // p, v + 1
    while den % p == 0:
        den, v = den // p, v - 1
    return v, num, den


def _reference_valuation(x, p):
    return _reference_unit_part(x, p)[0]


def _reference_norm(x, p):
    v = _reference_valuation(x, p)
    return Fraction(0) if v == math.inf else Fraction(p) ** -v


def _reference_fractional_part(u, p):
    u = Fraction(u)
    v = _reference_valuation(u, p)
    if v >= 0:
        return Fraction(0)
    pm = p**-v
    unit = u * pm
    return Fraction(unit.numerator * pow(unit.denominator, -1, pm) % pm, pm)


def _reference_lambda_angle(alpha, p):
    alpha = Fraction(alpha)
    if alpha == 0:
        return Fraction(0)
    v = _reference_valuation(alpha, p)
    unit = alpha / Fraction(p) ** v
    if p == 2:
        u = unit.numerator * pow(unit.denominator, -1, 8) % 8
        a1, a2 = (u >> 1) & 1, (u >> 2) & 1
        angle = Fraction(-1 if a1 else 1, 8) + (Fraction(a1 + a2, 2) if v % 2 else 0)
        return angle % 1
    if v % 2 == 0:
        return Fraction(0)
    residue = pow(unit.numerator * pow(unit.denominator, -1, p) % p, (p - 1) // 2, p) == 1
    return (Fraction(0 if residue else 1, 2) + Fraction(p % 4 == 3, 4)) % 1


def _scalar_inputs(rng, p):
    """ints, bools, zero, negatives, large values, Fractions and exact floats, some divisible by p."""
    power = p ** rng.randint(0, 4)
    num, den = rng.randint(-10**6, 10**6), rng.randint(1, 10**6)
    big = rng.randint(10**30, 10**40) * power
    return [0, True, False, num, -abs(num) * power, big, -big,
            Fraction(num * power, den), Fraction(num, den * power), Fraction(big, den * power),
            rng.randint(-2**20, 2**20) / 2 ** rng.randint(0, 12), float(num * power)]


@pytest.mark.parametrize("p", [2, 3, 5, 7, 13, 10**9 + 7])
def test_scalar_functions_equal_the_fraction_reference(p):
    rng = random.Random(p)
    for _ in range(150):
        for x in _scalar_inputs(rng, p):
            assert padic_valuation(x, p) == _reference_valuation(x, p), (x, p)
            assert padic_norm(x, p) == _reference_norm(x, p), (x, p)
            assert fractional_part(x, p) == _reference_fractional_part(x, p), (x, p)
            assert lambda_p(x, p).angle == _reference_lambda_angle(x, p), (x, p)


@pytest.mark.parametrize("p", [2, 3, 5, 10**6 + 3])
def test_unit_part_equals_the_division_loop_for_every_valuation(p):
    rng = random.Random(1500 + p)
    assert exact_numbers._unit_part(Fraction(0), p) == _reference_unit_part(0, p)
    for v in range(-300, 301):
        for _ in range(2):
            unit = Fraction(rng.choice((-1, 1)) * rng.randint(1, 10**6), rng.randint(1, 10**6))
            x = unit * Fraction(p) ** v
            assert exact_numbers._unit_part(x, p) == _reference_unit_part(x, p), (x, p)
            assert fractional_part(x, p) == _reference_fractional_part(x, p), (x, p)


def test_unit_part_of_a_large_power_takes_logarithmically_many_divisions():
    # at one division per factor of p this took seconds
    for x, expected in ((Fraction(5**80000, 7), (80000, 1, 7)),
                        (Fraction(-7, 5**80000), (-80000, -7, 1))):
        start = time.perf_counter()
        assert exact_numbers._unit_part(x, 5) == expected
        assert time.perf_counter() - start < 0.1


def test_fractional_part_of_a_large_power_takes_logarithmically_many_divisions():
    # at one division per factor of p this took about a second
    u = Fraction(1, 5**40000 * 7)
    start = time.perf_counter()
    f = fractional_part(u, 5)
    assert time.perf_counter() - start < 0.1
    assert f.denominator == 5**40000 and (7 * f.numerator - 1) % 5**40000 == 0


def test_norms_are_fractions_also_for_zero_and_units():
    for x in (0, Fraction(0), 0.0, 5, Fraction(7, 11), 1.5, 9, Fraction(1, 27), 3**40):
        assert type(padic_norm(x, 3)) is Fraction
    assert padic_norm(0, 3) == 0 and padic_norm(Fraction(7, 11), 3) == 1
    assert padic_norm(Fraction(1, 27), 3) == 27 and padic_norm(3**40, 3) == Fraction(1, 3**40)


def test_cached_prime_does_not_admit_equal_non_integers():
    assert is_prime(3)  # 3 is now cached, and 3.0 == Fraction(3) == 3
    for p in (3.0, True, Fraction(3), 4, -3):
        for call in (padic_valuation, padic_norm, fractional_part, lambda_p):
            with pytest.raises(ValueError, match="not a prime"):
                call(Fraction(1, 9), p)
