"""Multi-place assembly: adeles, vacuum invariance, products, discreteness."""

import json
import math
import random
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padic_oscillator import classical_oscillator
from padic_oscillator.adelic import (
    Adele,
    AdelicProduct,
    AdelicState,
    GaussianGroundState,
    PAdicFactor,
    adelic_propagator_product,
    discreteness_profile,
    eigen_evolution_check,
    omega_product,
    probability_reduction,
    vacuum_check,
    vacuum_report,
    vacuum_state,
)
from padic_oscillator.classical_oscillator import (
    parse_preset,
    preset_constant,
    preset_example1,
    preset_free,
)
from padic_oscillator.errors import (
    DivergenceError,
    NormalizationError,
    PadicOscillatorError,
    PrimeCutoffError,
    VacuumAbsentError,
)
from padic_oscillator.cli import main
from padic_oscillator.exact_numbers import _unit_part, fractional_part, primes_upto
from padic_oscillator.propagator import (
    REAL_PLACE,
    QuadraticKernel,
    evaluate_kernel,
    kernel_at,
    kernel_solution,
    oscillator_kernel,
)
from padic_oscillator.suites import run_suite

F = Fraction


# -- adeles ----------------------------------------------------------------


def test_adele_accepts_integral_components_everywhere():
    a = Adele(F(1, 2), {3: F(2), 7: F(14)})
    assert a.component(3) == 2
    assert a.component(11) == 0  # unlisted primes default to 0
    assert a.norm_at(7) == F(1, 7)


def test_adele_requires_exception_listing_for_large_components():
    with pytest.raises(ValueError):
        Adele(F(0), {5: F(1, 5)})
    ok = Adele(F(0), {5: F(1, 5)}, exception_set=frozenset({5}))
    assert ok.norm_at(5) == 5
    payload = ok.to_json()
    assert payload["S"] == [5] and payload["exceptions"] == {"5": F(1, 5)}


@given(st.integers(-40, 40), st.sampled_from([2, 3, 5, 7]))
@settings(max_examples=60)
def test_adele_integer_components_never_need_exceptions(n, p):
    a = Adele(F(n), {p: F(n)})
    assert a.exception_set == frozenset()
    assert a.norm_at(p) <= 1


# -- certified indicator products ------------------------------------------


def test_indicator_product_is_the_integer_indicator():
    assert omega_product(F(4), 100).value == 1
    assert omega_product(F(0), 100).value == 1
    assert omega_product(F(1, 2), 100).value == 0
    assert omega_product(F(3, 10), 100).vanishing_primes == (2, 5)


def test_indicator_product_demands_complete_factorization():
    with pytest.raises(PrimeCutoffError):
        omega_product(F(1, 101), 100)
    # 101 is prime, so a cutoff that includes it certifies the zero
    assert omega_product(F(1, 101), 101).value == 0


@given(st.integers(-500, 500), st.integers(1, 97))
@settings(max_examples=80)
def test_indicator_product_matches_integrality(num, den):
    x = F(num, den)
    got = omega_product(x, 100)
    assert got.value == (1 if x.denominator == 1 else 0)
    assert all(x.denominator % p == 0 for p in got.vanishing_primes)


def _sieve_omega(den: int, cutoff: int):
    """Reference: divide den by every prime up to the cutoff, taken from a sieve."""
    vanishing = []
    for p in primes_upto(cutoff):
        if den % p == 0:
            vanishing.append(p)
            while den % p == 0:
                den //= p
    return tuple(vanishing), den


@given(st.integers(-10**6, 10**6), st.integers(1, 10**7), st.integers(2, 3000))
@settings(max_examples=150, deadline=None)
def test_indicator_product_equals_the_sieve_reference(num, den, cutoff):
    x = F(num, den)
    vanishing, residual = _sieve_omega(x.denominator, cutoff)
    if residual > 1:
        with pytest.raises(PrimeCutoffError, match=f"keeps a factor {residual} with no prime"):
            omega_product(x, cutoff)
    else:
        got = omega_product(x, cutoff)
        assert (got.value, got.vanishing_primes) == (int(x.denominator == 1), vanishing)


def _trial_division_omega(den: int, cutoff: int):
    """Reference: trial division by d = 2, 3, ... while d <= cutoff and d^2 <= the residual."""
    vanishing, d = [], 2
    while d <= cutoff and d * d <= den:
        if den % d == 0:
            vanishing.append(d)
            while den % d == 0:
                den //= d
        d += 1
    if 1 < den <= cutoff:
        vanishing.append(den)
        den = 1
    return tuple(vanishing), den


def test_indicator_product_equals_trial_division_on_a_seeded_sweep():
    rng = random.Random(2024)
    for _ in range(3000):
        x = F(rng.randint(-10**6, 10**6), rng.randint(1, 10**8))
        cutoff = rng.choice([rng.randint(2, 100), rng.randint(2, 10**4)])
        vanishing, residual = _trial_division_omega(x.denominator, cutoff)
        if residual > 1:
            with pytest.raises(PrimeCutoffError, match=f"keeps a factor {residual} with no prime"):
                omega_product(x, cutoff)
        else:
            got = omega_product(x, cutoff)
            assert (got.value, got.vanishing_primes) == (int(x.denominator == 1), vanishing), x


def test_indicator_product_splits_products_of_large_primes():
    p, q, r = 1000003, 999999937, 10**9 + 7
    assert omega_product(F(1, 2 * p * q**2), 10**9).vanishing_primes == (2, p, q)
    with pytest.raises(PrimeCutoffError, match=f"keeps a factor {q * r} with no prime"):
        omega_product(F(5, 6 * q * r), 10**7)
    assert omega_product(F(1, p * q * r), r).vanishing_primes == (p, q, r)
    # the denominator is above MILLER_RABIN_BOUND, the residual left after d = 2..63 is not
    with pytest.raises(PrimeCutoffError, match=f"keeps a factor {q * r} with no prime"):
        omega_product(F(1, 2**90 * 3 * q * r), 10**8)


def test_indicator_product_at_a_cutoff_of_ten_to_the_nine_builds_no_sieve():
    start = time.perf_counter()
    rows = discreteness_profile(vacuum_state(F(1), F(1)), [F(0), F(1), F(1, 2), F(3, 2), F(2)],
                                prime_cutoff=10**9)
    assert omega_product(F(1, 6 * 1000003), 10**9).vanishing_primes == (2, 3, 1000003)
    assert time.perf_counter() - start < 2
    assert [row["vanishing_primes"] for row in rows] == [[], [], [2], [2], []]


# -- vacuum invariance ------------------------------------------------------


def test_vacuum_holds_for_small_frequency_both_methods():
    model = preset_constant(3, order=16)
    for method in ("closed-form", "brute-force"):
        report = vacuum_check(3, model, F(0), F(1), method=method)
        assert report.holds and report.witness is None
        assert report.method == method
        # x''=0 plus 7 valuation shells times the 2 unit classes mod 3
        assert len(report.cases) == 15


def test_vacuum_methods_agree_also_through_the_oscillating_regime():
    model = preset_constant(3, order=16)
    closed = vacuum_check(3, model, F(0), F(3), method="closed-form")
    brute = vacuum_check(3, model, F(0), F(3), method="brute-force")
    assert closed.holds and brute.holds
    assert closed.sufficient_condition is True
    assert brute.max_deviation < 1e-9


def test_vacuum_fails_with_witness_when_planck_breaks_the_scale():
    model = preset_constant(3, order=16)
    for method in ("closed-form", "brute-force"):
        report = vacuum_check(3, model, F(0), F(1), planck=F(2, 3), method=method)
        assert not report.holds
        assert report.witness == 0  # already the center point leaks mass


def test_vacuum_criterion_is_exact():
    # the window the former one-way frame criterion missed: at h = 1 the evolution of
    # S/h lies in SL(2, Z_3) and K Omega(0) = 1; at h = 2/3 the vacuum and the criterion fail
    model = preset_constant(3, order=16)
    for planck, holds in ((1, True), (F(2, 3), False)):
        for method in ("closed-form", "brute-force"):
            report = vacuum_check(3, model, F(0), F(1), planck=planck, method=method)
            assert report.holds is holds and report.sufficient_condition is holds


def test_vacuum_criterion_is_false_for_an_sl2_evolution_with_eigenvalue_minus_one():
    # the evolution lies in SL(2, Z_5), but K Omega = -Omega: Omega itself is not reproduced
    kernel = QuadraticKernel(5, F(4, 5**7), F(-4, 5**7), F(1, 5**7))
    assert kernel.evolution == ((F(1, 2), F(5**7, 4)), (0, 2))
    report = vacuum_report(kernel)
    assert not report.holds and report.sufficient_condition is False
    assert report.cases[0].x_out == 0 and abs(report.cases[0].actual + 1) < 1e-12


def _unit(rng, p):
    while True:
        k, m = rng.randint(1, 30), rng.randint(1, 30)
        if k % p and m % p:
            return F(rng.choice((-k, k)), m)


def _sl2_kernel(rng, p, planck):
    """A kernel whose evolution of S/h, ((a, bh), (c/h, d)), lies in SL(2, Z_p)."""
    a, bh, ch = _unit(rng, p), _unit(rng, p) * F(p) ** rng.randint(0, 6), _unit(rng, p) * p
    b, d = bh / planck, (1 + bh * ch) / a
    return QuadraticKernel(p, d / (2 * b), -1 / b, a / (2 * b), planck=planck)


def test_vacuum_criterion_equals_the_closed_form_verdict_on_random_kernels():
    # 1500 kernels with v(A), v(B), v(D) in -6..6, where SL(2, Z_p) is rare, and 500
    # drawn inside SL(2, Z_p), where the eigenvalue K Omega(0) = +-1 decides
    rng = random.Random(20)
    held = minus_one = 0
    for n in range(2000):
        p = rng.choice((3, 5, 7, 11))
        planck = 1 if n % 2 else _unit(rng, p) * F(p) ** rng.randint(-2, 2)
        if n < 1500:
            coefs = [_unit(rng, p) * F(p) ** rng.randint(-6, 6) for _ in range(3)]
            kernel = QuadraticKernel(p, *coefs, planck=planck)
        else:
            kernel = _sl2_kernel(rng, p, planck)
        report = vacuum_report(kernel)
        assert report.sufficient_condition is report.holds, kernel
        held += report.holds
        minus_one += abs(report.cases[0].actual + 1) < 1e-12
    assert held > 300 and minus_one > 50  # both verdicts, and both eigenvalues, are exercised


def test_vacuum_sufficient_condition_undefined_at_two():
    model = preset_constant(2, order=16)
    report = vacuum_check(2, model, F(0), F(2), method="brute-force")
    assert report.holds and report.sufficient_condition is None


def test_vacuum_for_free_motion():
    report = vacuum_check(3, preset_free(order=12), F(0), F(3), method="closed-form")
    assert report.holds


def test_vacuum_rejects_trig_domain_violations():
    model = preset_constant(3, order=16)
    with pytest.raises(DivergenceError):
        vacuum_check(5, model, F(0), F(3))


# -- eigen-evolution of the finite factors ---------------------------------


def test_evolution_of_vacuum_factor_reports_trivial_phase():
    state = vacuum_state(1, 1)
    model = preset_constant(3, order=16)
    out = eigen_evolution_check(state, model, F(0), F(1), p=3)
    assert out["identity"] is False
    assert out["trivial_phase"] is True and out["alpha"] == 0
    assert out["deviation"] < 1e-9


def test_evolution_with_declared_eigenvalue_tracks_phase_fraction():
    state = AdelicState(GaussianGroundState(1, 1), alpha={3: F(1, 3)})
    model = preset_constant(3, order=16)
    out = eigen_evolution_check(state, model, F(0), F(1), p=3)
    assert out["phase_jump"] != 0
    assert out["alpha_phase_fraction"] == fractional_part(out["alpha"] * out["phase_jump"], 3)
    assert out["trivial_phase"] == (out["alpha_phase_fraction"] == 0)


def test_evolution_identity_when_times_coincide():
    state = vacuum_state(1, 1)
    out = eigen_evolution_check(state, preset_constant(3, order=16), F(1), F(1), p=3)
    assert out["identity"] is True and out["deviation"] == 0.0


def test_evolution_refuses_non_vacuum_factors():
    state = AdelicState(GaussianGroundState(1, 1),
                        {3: PAdicFactor("declared", F(1))})
    with pytest.raises(ValueError):
        eigen_evolution_check(state, preset_constant(3, order=16), F(0), F(1), p=3)


def test_evolution_raises_when_invariance_is_absent():
    state = vacuum_state(1, 1)
    model = preset_constant(3, order=16)
    with pytest.raises(VacuumAbsentError):
        eigen_evolution_check(state, model, F(0), F(1), p=3, planck=F(2, 3))


# -- restricted products ----------------------------------------------------


def test_free_product_over_three_places_is_exact_eighth_root():
    product = adelic_propagator_product((REAL_PLACE, 3, 5), preset_free(order=12),
                                        F(0), F(2), F(4), F(1))
    assert product.places == (REAL_PLACE, 3, 5)
    assert product.phase_angle == F(1, 8)
    assert abs(product.norm_value() - 1 / math.sqrt(2)) < 1e-12
    assert abs(product.product_value - complex(0.5, 0.5)) < 1e-12


def test_product_over_a_non_unit_wronskian_equals_each_place():
    # constant(3) has wronskian 3; each factor is that place's own kernel value
    model = preset_constant(3, order=12)
    places = (REAL_PLACE, 3, 5)
    product = adelic_propagator_product(places, model, F(0), F(15), F(2), F(1), order=12)
    assert product.places == places
    assert product.factors == tuple(_per_place(places, model, F(15), F(2), F(1)))


def test_product_counts_a_repeated_place_once():
    model = parse_preset("example1(1,1)", order=12)
    once = adelic_propagator_product((3,), model, F(0), F(105), F(2), F(1), order=12)
    twice = adelic_propagator_product((3, REAL_PLACE, 3, REAL_PLACE), model, F(0), F(105),
                                      F(2), F(1), order=12)
    assert twice.places == (REAL_PLACE, 3)
    assert twice.factors[1:] == once.factors and twice.factors[1].phase.angle == F(2, 3)


def test_product_over_no_places_is_one():
    product = adelic_propagator_product((), preset_free(order=12),
                                        F(0), F(1), F(0), F(0))
    assert product.product_value == 1 and product.phase_angle == 0


def test_product_solves_the_model_once_for_all_places(solve_calls):
    model = parse_preset("example1(1,1)", order=12)
    places = (REAL_PLACE, 3, 5, 7)
    expect = [evaluate_kernel(oscillator_kernel(place, model, F(0), F(105), order=12),
                              F(2), F(1)) for place in places]
    solve_calls.clear()
    product = adelic_propagator_product(places, model, F(0), F(105), F(2), F(1), order=12)
    assert solve_calls == [12]
    assert product.factors == tuple(expect)


def test_product_errors_carry_the_place_label():
    # the certificate's own message names the prime it could not certify
    model = parse_preset("example1(1,1)", order=16)
    with pytest.raises(DivergenceError, match=r"for primes \[3\]"):
        adelic_propagator_product((REAL_PLACE, 3), model, F(0), F(1, 3),
                                  F(1), F(0), order=16)


@pytest.fixture
def endpoint_calls(monkeypatch):
    """The prime sets of every endpoint evaluation, through every module that binds it."""
    calls = []
    original = classical_oscillator.endpoint_data

    def counted(*args, **kwargs):
        calls.append(tuple(kwargs.get("primes", ())))
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "padic_oscillator" and \
                getattr(module, "endpoint_data", None) is original:
            monkeypatch.setattr(module, "endpoint_data", counted)
    return calls


def test_product_evaluates_the_endpoints_once_for_every_place(endpoint_calls):
    model = parse_preset("example1(1,1)", order=12)
    adelic_propagator_product((REAL_PLACE, 3, 5, 7), model, F(0), F(105), F(2), F(1), order=12)
    assert endpoint_calls == [(3, 5, 7)]
    endpoint_calls.clear()
    adelic_propagator_product((), model, F(0), F(105), F(2), F(1), order=12)
    assert endpoint_calls == []


def test_single_place_kernels_certify_their_own_prime_unless_the_model_is_free(endpoint_calls):
    ap = kernel_solution(parse_preset("example1(1,1)", order=12), 12)
    kernel_at(REAL_PLACE, ap, F(0), F(105))
    kernel_at(5, ap, F(0), F(105))
    kernel_at(5, kernel_solution(preset_free(order=12), 12), F(0), F(105))
    vacuum_check(3, preset_constant(3, order=16), F(0), F(15), order=16)
    vacuum_check(3, preset_free(order=16), F(0), F(3), order=16)
    assert endpoint_calls == [(), (5,), (), (3,), ()]


def test_eigen_evolution_reads_its_phase_jump_from_the_vacuum_window(solve_calls, endpoint_calls):
    out = eigen_evolution_check(vacuum_state(1, 3), preset_constant(3, order=16), F(0), F(15),
                                p=3, order=16)
    assert out["phase_jump"] == 45 and out["trivial_phase"]
    assert solve_calls == [16]
    assert endpoint_calls == [(3,)]


def test_vacuum_command_solves_once_and_builds_one_window_per_prime(solve_calls, endpoint_calls,
                                                                    capsys):
    assert main(["vacuum", "-p", "3,5", "--preset", "constant(3)", "--t1", "0", "--t2", "15"]) == 0
    reports = json.loads(capsys.readouterr().out)["reports"]
    assert [(row["prime"], row["agree"]) for row in reports] == [(3, True), (5, True)]
    assert solve_calls == [24]
    assert endpoint_calls == [(3,), (5,)]


def test_vacuum_suite_solves_once_per_grid_row(solve_calls, endpoint_calls):
    assert run_suite("vacuum").passed
    assert solve_calls == [16] * 7
    assert endpoint_calls == [(3,), (3,), (3,), (5,), (5,), (7,), ()]


def _per_place(places, model, t_dprime, x_out, x_in):
    """Each place's factor from its own solve and kernel, or the error that raised."""
    out = []
    for place in places:
        try:
            kernel = oscillator_kernel(place, model, F(0), t_dprime, order=12)
            out.append(evaluate_kernel(kernel, x_out, x_in))
        except PadicOscillatorError as exc:
            out.append(exc)
    return out


def test_product_factors_equal_the_per_place_kernels_on_a_seeded_sweep():
    rng = random.Random(1300)
    passed = failed = with_two = 0
    for case in range(90):
        family = ("free", "example1", "constant")[case % 3]
        if family == "free":
            model = preset_free(order=12)
        elif family == "example1":
            model = preset_example1(rng.choice((-3, -2, -1, 1, 2, 3)), 1, order=12)
        else:  # constant(w0) has wronskian w0
            model = preset_constant(rng.choice((1, 2, 3, 5, F(1, 2), F(2, 3))), order=12)
        primes = rng.sample((2, 3, 5, 7, 11, 13), rng.randint(1, 4))
        places = [REAL_PLACE] + primes + [rng.choice(primes)]  # one place repeated
        rng.shuffle(places)
        if case % 2:  # |T|_p < 1 at every listed prime (|T|_2 < 1/2) certifies every place
            t_dprime = F(4 * math.prod(primes))
        else:
            t_dprime = F(rng.choice((-1, 1)) * rng.randint(1, 30), rng.randint(1, 9))
        x_out, x_in = F(rng.randint(-5, 5)), F(rng.randint(-5, 5))
        ordered = (REAL_PLACE,) + tuple(sorted(primes))
        expect = _per_place(ordered, model, t_dprime, x_out, x_in)
        errors = {type(value) for value in expect if isinstance(value, Exception)}
        if errors:
            with pytest.raises(PadicOscillatorError) as info:
                adelic_propagator_product(places, model, F(0), t_dprime, x_out, x_in, order=12)
            assert type(info.value) in errors
            failed += 1
            continue
        product = adelic_propagator_product(places, model, F(0), t_dprime, x_out, x_in,
                                            order=12)
        assert product.places == ordered and product.factors == tuple(expect)
        passed += 1
        with_two += 2 in primes and family != "free"
    assert passed > 20 and failed > 10 and with_two > 5


def test_rational_kernels_satisfy_the_product_formula_over_all_places():
    # lambda_real, lambda_p, chi and |.|^(1/2) multiply to exactly 1 over all places;
    # outside {real, 2} and the primes of B/h and of den(S/h) every factor is 1
    rng = random.Random(1400)
    small_primes = primes_upto(60)

    def draw(nonzero=False):
        while True:
            x = F(rng.randint(-60, 60), rng.randint(1, 60))
            if x or not nonzero:
                return x

    dyadic_classes = set()
    for _ in range(2000):
        A, B, D, h = draw(), draw(True), draw(), draw(True)
        x_out, x_in = draw(), draw()
        scale = B / h
        action = (A * x_out * x_out + B * x_out * x_in + D * x_in * x_in) / h
        support = scale.numerator * scale.denominator * action.denominator
        places = (REAL_PLACE, 2) + tuple(q for q in small_primes[1:] if support % q == 0)
        factors = tuple(evaluate_kernel(QuadraticKernel(place, A, B, D, 1, h), x_out, x_in)
                        for place in places)
        product = AdelicProduct(places, factors, x_out, x_in)
        assert product.phase_angle == 0, (A, B, D, h, x_out, x_in)
        assert abs(product.norm_value() - 1) < 1e-12, (A, B, D, h, x_out, x_in)
        v, num, den = _unit_part(-B / (2 * h), 2)
        dyadic_classes.add((v % 2, num * den % 8))  # the unit mod 8, as den^2 = 1 mod 8
    # every class of the dyadic lambda: v even or odd, each unit mod 8
    assert dyadic_classes == {(v, u) for v in (0, 1) for u in (1, 3, 5, 7)}


# -- reduction and discreteness ---------------------------------------------


def test_reduction_returns_real_marginal_for_omega_tail():
    state = vacuum_state(1, 2, planck=1)
    real = probability_reduction(state, 100)
    assert real is state.real_factor
    assert abs(real.density(0) - math.sqrt(4.0)) < 1e-12


def test_reduction_enforces_declared_normalization():
    bad = AdelicState(GaussianGroundState(1, 1),
                      {3: PAdicFactor("declared", F(2))})
    with pytest.raises(NormalizationError):
        probability_reduction(bad, 100)
    good = AdelicState(GaussianGroundState(1, 1),
                       {3: PAdicFactor("declared", F(1))})
    assert probability_reduction(good, 100) is good.real_factor
    with pytest.raises(PrimeCutoffError):
        probability_reduction(good, 2)


def test_discreteness_supports_exactly_the_integers():
    state = vacuum_state(1, 1)
    xs = [F(k, d) for d in (1, 2, 3, 5) for k in range(-6, 7)]
    rows = discreteness_profile(state, xs, prime_cutoff=100)
    for row in rows:
        if row["x"].denominator == 1:
            assert row["value"] > 0
            assert row["vanishing_primes"] == []
        else:
            assert row["value"] == 0.0
            assert row["vanishing_primes"]


def test_discreteness_mixed_state_has_no_sharp_support():
    state = AdelicState(GaussianGroundState(1, 1), mixed=True)
    rows = discreteness_profile(state, [F(0), F(1, 2)])
    assert all(row["value"] is None and "note" in row for row in rows)


def test_discreteness_rejects_declared_factors():
    state = AdelicState(GaussianGroundState(1, 1),
                        {3: PAdicFactor("declared", F(1))})
    with pytest.raises(ValueError):
        discreteness_profile(state, [F(0)])
