"""Truncated power series arithmetic over the rationals."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padic_oscillator.series import RationalSeries, binomial_series
from reference import atan_series, cos_series, exp_series, log1p_series, sin_series

coeff = st.fractions(min_value=-20, max_value=20, max_denominator=12)
series_strategy = st.lists(coeff, min_size=1, max_size=8).map(RationalSeries.from_coeffs)


@given(series_strategy, series_strategy)
@settings(max_examples=100)
def test_addition_commutes_and_subtraction_cancels(a, b):
    assert (a + b).coeffs[: min(a.order, b.order) + 1] == (b + a).coeffs[
        : min(a.order, b.order) + 1
    ]
    diff = a - a
    assert diff.is_zero_through(diff.order)


@given(series_strategy, series_strategy, series_strategy)
@settings(max_examples=80)
def test_multiplication_distributes(a, b, c):
    left = a * (b + c)
    right = a * b + a * c
    n = min(left.order, right.order)
    assert left.coeffs[: n + 1] == right.coeffs[: n + 1]


@given(series_strategy)
@settings(max_examples=80)
def test_division_inverts_multiplication_when_unit(a):
    if a.coefficient(0) == 0:
        a = a + 1
    q = (a * a) / a
    assert q.coeffs == a.coeffs[: q.order + 1]


def test_reciprocal_of_geometric_series():
    one_minus_t = RationalSeries.from_coeffs([1, -1], order=6)
    inv = RationalSeries.constant(1, 6) / one_minus_t
    assert inv.coeffs == tuple(Fraction(1) for _ in range(7))


def test_division_by_non_unit_rejected():
    t = RationalSeries.from_coeffs([0, 1], order=4)
    with pytest.raises(ZeroDivisionError):
        RationalSeries.constant(1, 4) / t


def test_composition_chain_rule_on_samples():
    outer = exp_series(10)
    inner = RationalSeries.from_coeffs([0, 2, 1], order=10)
    comp = outer.compose(inner)
    lhs = comp.differentiate()
    rhs = outer.differentiate().compose(inner) * inner.differentiate()
    n = min(lhs.order, rhs.order)
    assert lhs.coeffs[: n + 1] == rhs.coeffs[: n + 1]


def test_composition_requires_zero_constant_term():
    with pytest.raises(ValueError):
        sin_series(6).compose(RationalSeries.constant(1, 6))


def test_pythagorean_identity_to_truncation_order():
    n = 12
    s, c = sin_series(n), cos_series(n)
    total = s * s + c * c
    assert total.coefficient(0) == 1
    assert all(total.coefficient(k) == 0 for k in range(1, n + 1))


def test_tangent_addition_through_arctangent():
    # d/dt atan(t) produced by termwise differentiation matches 1/(1+t^2)
    n = 11
    lhs = atan_series(n).differentiate()
    rhs = RationalSeries.constant(1, n - 1) / RationalSeries.from_coeffs([1, 0, 1], order=n - 1)
    assert lhs.coeffs == rhs.coeffs


def test_logarithm_exponential_round_trip():
    n = 10
    expm1 = exp_series(n) - 1
    assert log1p_series(n).compose(expm1).coeffs == RationalSeries.from_coeffs([0, 1], order=n).coeffs


def test_binomial_square_root_squares_back():
    n = 9
    root = binomial_series(Fraction(1, 2), n)  # (1+t)^{1/2}
    square = root * root
    expect = RationalSeries.from_coeffs([1, 1], order=n)
    assert square.coeffs == expect.coeffs[: square.order + 1]


@given(series_strategy, coeff)
@settings(max_examples=80)
def test_evaluate_is_exact_horner(a, x):
    value = a.evaluate(x)
    manual = sum(a.coefficient(k) * x**k for k in range(a.order + 1))
    assert value == manual and isinstance(value, Fraction)


def _fraction_horner(series, t):
    acc = Fraction(0)
    for c in reversed(series.coeffs):
        acc = acc * t + c
    return acc


_POINTS = (0, 1, -1, 7, -12, Fraction(-3, 4), Fraction(-22, 7), Fraction(5, 8),
           Fraction(2, 3**5), Fraction(-1, 5**3), Fraction(9, 2**10), Fraction(4, 7**2))


@pytest.mark.parametrize("point", _POINTS, ids=str)
def test_integer_horner_equals_fraction_horner(point):
    rng = random.Random(31)
    shapes = [RationalSeries((Fraction(0),)), RationalSeries((Fraction(-5, 6),)),
              RationalSeries.constant(0, 9)]
    for _ in range(40):
        order = rng.randint(0, 24)
        shapes.append(RationalSeries.from_coeffs(
            [Fraction(rng.randint(-50, 50), rng.choice((1, 2, 3, 4, 9, 25, 49, 3**7, 1000)))
             if rng.random() < 0.8 else 0 for _ in range(order + 1)]))
    for series in shapes:
        value = series.evaluate(point)
        assert value == _fraction_horner(series, Fraction(point))
        assert type(value) is Fraction
