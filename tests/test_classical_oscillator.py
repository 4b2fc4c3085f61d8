"""Amplitude/phase solutions, two-point data, momenta and actions."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padic_oscillator.classical_oscillator import (
    AmplitudePhase,
    action_coefficients,
    OscillatorModel,
    momentum_series,
    amplitude_residual,
    boundary_action,
    classical_action,
    convergence_certificate,
    endpoint_data,
    endpoint_momenta,
    model_from_omega_coeffs,
    momentum,
    parse_preset,
    phase_residual,
    preset_constant,
    preset_example1,
    preset_example2,
    preset_free,
    solve_amplitude_phase,
    trajectory_endpoints,
    trajectory_residual,
)
from padic_oscillator.errors import CausticError, DivergenceError
from padic_oscillator.propagator import evolution_matrix, evolve_initial
from padic_oscillator.series import RationalSeries, binomial_series, cos_series, sin_series

F = Fraction


def _solve(model, order=18):
    return solve_amplitude_phase(model, order=order)


def test_rational_amplitude_profile_closed_form():
    # G = b(1+at) and gamma = t / (b^2 (1+at)), checked coefficient by coefficient
    for a, b in ((1, 1), (2, 3), (3, 2)):
        ap = _solve(preset_example1(a, b), order=16)
        expect_amp = RationalSeries.from_coeffs([b, a * b], order=16)
        assert ap.amp.coeffs == expect_amp.coeffs
        geometric = binomial_series(-1, 15, scale=a)  # (1+at)^-1
        expect_phase = (RationalSeries.identity(15) * geometric).scale(F(1, b * b))
        assert ap.phase.coeffs[: 16] == expect_phase.coeffs[: 16]


def test_residuals_vanish_identically_for_all_presets():
    models = [
        preset_example1(1, 2),
        preset_example2(1, 1),
        preset_example2(F(1, 2), 2),
        preset_constant(2),
        preset_free(),
    ]
    for model in models:
        ap = _solve(model, order=20)
        amp_res = amplitude_residual(ap)
        ph_res = phase_residual(ap)
        assert amp_res.is_zero_through(amp_res.order)
        assert ph_res.is_zero_through(ph_res.order)


def test_square_root_amplitude_profile_matches_series():
    a, b = F(1), F(2)
    ap = _solve(preset_example2(a, b), order=14)
    expect = binomial_series(F(1, 2), 14, scale=a).scale(b)  # b (1+at)^{1/2}
    assert ap.amp.coeffs == expect.coeffs


def test_free_motion_cartesian_frame_is_polynomial():
    # G cos(gamma) = 1 and G sin(gamma) = t exactly, order by order
    ap = _solve(preset_free(), order=20)
    u = ap.amp * ap.cos_phase
    v = ap.amp * ap.sin_phase
    assert u.coefficient(0) == 1 and u.is_zero_through(u.order) is False
    assert all(u.coefficient(k) == 0 for k in range(1, u.order + 1))
    assert v.coefficient(1) == 1
    assert all(v.coefficient(k) == 0 for k in range(v.order + 1) if k != 1)


def test_wronskian_identity_from_scalar_convention():
    # G^2 gamma' = W as series
    for model in (preset_example1(2, 1), preset_constant(3), preset_free()):
        ap = _solve(model, order=16)
        product = ap.amp * ap.amp * ap.phase_vel
        assert product.coefficient(0) == model.wronskian
        assert all(product.coefficient(k) == 0 for k in range(1, product.order + 1))


def test_two_point_trajectory_interpolates_exactly():
    ap = _solve(preset_example1(1, 1), order=18)
    ep = endpoint_data(ap, F(0), F(1, 2), x_prime=F(1), x_dprime=F(3, 4))
    path = trajectory_endpoints(ap, ep)
    assert path.evaluate(F(0)) == 1
    assert path.evaluate(F(1, 2)) == F(3, 4)
    res = trajectory_residual(ap, path)
    assert res.is_zero_through(ap.order - 2)


def test_endpoint_momenta_match_trajectory_derivative():
    ap = _solve(preset_example1(1, 2), order=24)
    ep = endpoint_data(ap, F(0), F(1, 4), x_prime=F(2), x_dprime=F(-1))
    k1, k2 = endpoint_momenta(ap, ep)
    path = trajectory_endpoints(ap, ep)
    m = ap.model.mass
    # the left endpoint sits at t=0, where evaluation sees no truncation tail
    assert k1 == m * path.differentiate().evaluate(F(0))
    assert momentum(ap, ep, F(0)) == k1
    # the closed momentum form tracks m x' coefficient-by-coefficient
    deriv = path.differentiate().scale(m)
    closed = momentum_series(ap, ep)
    assert all(closed.coefficient(n) == deriv.coefficient(n) for n in range(ap.order - 1))
    # interior endpoint: tails only
    gap = k2 - m * path.differentiate().evaluate(F(1, 4))
    assert abs(float(gap)) < 1e-9


@given(
    st.sampled_from(["example1(1,1)", "example1(2,3)", "example2(1,2)", "constant(2)", "free"]),
    st.fractions(min_value=-2, max_value=2, max_denominator=6),
    st.fractions(min_value=-2, max_value=2, max_denominator=6),
)
@settings(max_examples=60, deadline=None)
def test_action_quadratic_form_equals_boundary_form(preset, x1, x2):
    ap = _solve(parse_preset(preset, order=14), order=14)
    t1, t2 = F(0), F(1, 4)
    try:
        ep = endpoint_data(ap, t1, t2, x_prime=x1, x_dprime=x2)
    except CausticError:
        return
    lhs = classical_action(ap, ep)
    rhs = boundary_action(ap, ep)
    assert lhs == rhs and isinstance(lhs, Fraction)


def test_action_cross_term_identity():
    # (G2 pv2 / G1 + G1 pv1 / G2)^2 == 4 pv1 pv2 for the scalar convention
    for preset in ("example1(1,1)", "example2(1,1)", "constant(3)"):
        ap = _solve(parse_preset(preset, order=14), order=14)
        ep = endpoint_data(ap, F(0), F(1, 5), x_prime=F(1), x_dprime=F(1, 2))
        lhs = (ep.amp2 * ep.phase_vel2 / ep.amp1 + ep.amp1 * ep.phase_vel1 / ep.amp2) ** 2
        assert lhs == 4 * ep.phase_vel1 * ep.phase_vel2


def test_coincident_endpoints_are_a_caustic():
    ap = _solve(preset_free(), order=12)
    with pytest.raises(CausticError):
        endpoint_data(ap, F(1, 2), F(1, 2), x_prime=F(0), x_dprime=F(1))


def test_evolution_matrix_is_symplectic_and_composes():
    # The determinant is exactly 1; composition holds to the order-24 tail size.
    ap = _solve(preset_example1(1, 1), order=24)
    t0, t1, t2 = F(0), F(1, 8), F(1, 4)
    (a, b), (c, d) = evolution_matrix(ap, t0, t2)
    assert a * d - b * c == 1
    (p, q), (r, s) = evolution_matrix(ap, t0, t1)
    (e, f), (g, h) = evolution_matrix(ap, t1, t2)
    for got, want in zip((e * p + f * r, e * q + f * s, g * p + h * r, g * q + h * s),
                         (a, b, c, d)):
        assert abs(float(got - want)) < 1e-10
    assert evolution_matrix(ap, t1, t1) == ((1, 0), (0, 1))


def test_evolution_round_trip_restores_initial_data():
    ap = _solve(preset_constant(2), order=18)
    x1, k1 = evolve_initial(ap, F(3, 2), F(-1), F(0), F(1, 4))
    assert evolve_initial(ap, x1, k1, F(1, 4), F(0)) == (F(3, 2), F(-1))


@pytest.mark.parametrize("preset", ["example1(1,1)", "example2(1,2)", "constant(3)", "free"])
def test_evolution_matrix_is_the_kernel_action_map(preset):
    # b = -1/B, a = 2bD and d = 2bA from the action A x''^2 + B x''x' + D x'^2,
    # and the map carries each endpoint pair and its momenta into the other exactly
    ap = _solve(parse_preset(preset, order=18), order=18)
    if preset == "free":  # the exact free map, also past the radius 1 of the frame series
        for mass in (1, F(3, 2)):
            free = _solve(OscillatorModel(ap.model.freq_sq, mass=mass), order=18)
            for t in (F(1, 4), F(3)):
                assert evolution_matrix(free, F(0), t) == ((1, t / mass), (0, 1))
                k = mass * (F(-2, 3) - F(3, 2)) / t
                assert evolve_initial(free, F(3, 2), k, F(0), t) == (F(-2, 3), k)
        return
    for t0, t in ((F(0), F(1, 4)), (F(1, 8), F(1, 4)), (F(-1, 5), F(1, 3))):
        coef_out, coef_cross, coef_in = action_coefficients(ap, endpoint_data(ap, t0, t))
        (a, b), (_, d) = evolution_matrix(ap, t0, t)
        assert (a, b, d) == (2 * b * coef_in, -1 / coef_cross, 2 * b * coef_out)
        ep = endpoint_data(ap, t0, t, F(3, 2), F(-2, 3))
        k0, k = endpoint_momenta(ap, ep)
        assert evolve_initial(ap, F(3, 2), k0, t0, t) == (F(-2, 3), k)
    if preset == "example1(1,1)":  # G = 1 + t vanishes at t = -1
        with pytest.raises(CausticError, match="amplitude vanishes at an endpoint"):
            evolution_matrix(ap, F(0), F(-1))


def test_certificate_gates_padic_evaluation():
    ap = _solve(preset_constant(1), order=16)
    ok = endpoint_data(ap, F(0), F(5), primes=(5,))
    assert 5 in ok.certified
    with pytest.raises(DivergenceError):
        endpoint_data(ap, F(0), F(1, 5), primes=(5,))


def test_certificate_checks_tail_window_per_prime():
    geometric = binomial_series(-1, 20, scale=1)  # coefficients (-1)^k
    assert convergence_certificate(geometric, 3, F(3)) is None
    with pytest.raises(DivergenceError, match=r"at t=1/3 for primes \[3\]"):
        convergence_certificate(geometric, 3, F(1, 3))
    assert convergence_certificate(geometric, 3, F(15)) is None
    assert convergence_certificate(geometric, 5, F(15)) is None


def test_preset_parsing_round_trip_and_rejects():
    assert parse_preset("example1(2,3)").label == "example1(2,3)"
    assert parse_preset(" free ").label == "free"
    assert parse_preset("constant(0)").label == "free"
    for bad in ("example3(1)", "example1(1)", "constant()", "constant(1,2)", "example1(x,y)"):
        with pytest.raises(ValueError):
            parse_preset(bad)


def test_inline_polynomial_frequency_square():
    model = model_from_omega_coeffs([2, 1], order=10)
    assert model.freq_sq.coeffs[:3] == (F(4), F(4), F(1))
    ap = _solve(model, order=12)
    res = amplitude_residual(ap)
    assert res.is_zero_through(res.order)


_COS_SIN_MODELS = ("example1(2/3,1)", "example2(1,2)", "constant(3/2)", "free", "omega")


@pytest.mark.parametrize(
    "name, order",
    [(name, order) for order in (24, 48) for name in _COS_SIN_MODELS] + [("example2(1,2)", 96)],
)
def test_cos_sin_recurrence_equals_series_composition(name, order):
    # the coupled recurrence must reproduce cos/sin composed with the phase exactly
    if name == "omega":
        model = model_from_omega_coeffs([1, F(1, 2), -2], order=order)
    else:
        model = parse_preset(name, order)
    ap = solve_amplitude_phase(model, order=order)
    assert ap.cos_phase.coeffs == cos_series(order).compose(ap.phase).coeffs
    assert ap.sin_phase.coeffs == sin_series(order).compose(ap.phase).coeffs
    unit = ap.cos_phase * ap.cos_phase + ap.sin_phase * ap.sin_phase
    assert unit.coeffs == RationalSeries.constant(1, order).coeffs


def _fraction_solve(model, order):
    """Reference: the same recurrences run directly on Fractions."""
    w2 = model.freq_sq.coeffs
    g = [model.amp0, model.amp_vel0]
    square = [g[0] * g[0]]
    cube, quartic = [], []
    wronskian_sq = model.wronskian * model.wronskian
    for n in range(order - 1):
        square.append(sum(g[i] * g[n + 1 - i] for i in range(n + 2)))
        cube.append(sum(square[i] * g[n - i] for i in range(n + 1)))
        quartic.append(sum(square[i] * square[n - i] for i in range(n + 1)))
        forcing = sum(w2[k] * quartic[n - k] for k in range(n + 1))
        inertia = sum(
            cube[k] * (n - k + 2) * (n - k + 1) * g[n - k + 2] for k in range(1, n + 1)
        )
        rhs = (wronskian_sq if n == 0 else F(0)) - forcing - inertia
        g.append(rhs / (cube[0] * (n + 2) * (n + 1)))
    amp = RationalSeries(tuple(g))
    phase_vel = model.wronskian / (amp * amp)
    phase = phase_vel.integrate().truncate(order)
    rate = phase.differentiate().coeffs
    cos_c, sin_c = [F(1)], [F(0)]
    for n in range(1, order + 1):
        cos_c.append(-sum(rate[k] * sin_c[n - 1 - k] for k in range(n)) / n)
        sin_c.append(sum(rate[k] * cos_c[n - 1 - k] for k in range(n)) / n)
    return AmplitudePhase(model, amp, phase, amp.differentiate(), phase_vel,
                          RationalSeries(tuple(cos_c)), RationalSeries(tuple(sin_c)))


def _assert_same_solution(model, order):
    ap = solve_amplitude_phase(model, order=order)
    reference = _fraction_solve(model, order)
    for name in ("amp", "phase", "amp_vel", "phase_vel", "cos_phase", "sin_phase"):
        got, want = getattr(ap, name).coeffs, getattr(reference, name).coeffs
        assert len(got) == len(want), name
        # name the first differing coefficient instead of diffing two long tuples
        wrong = next((k for k, (a, b) in enumerate(zip(got, want)) if a != b), None)
        assert wrong is None, f"{model.label or 'model'} at order {order}: {name}[{wrong}]"
        assert all(type(c) is Fraction for c in got), name
    assert ap == reference


@pytest.mark.parametrize("order", (24, 48, 96))
@pytest.mark.parametrize("name", _COS_SIN_MODELS)
def test_integer_solve_equals_fraction_recurrence(name, order):
    if name == "omega":
        model = model_from_omega_coeffs([1, F(1, 2), -2], order=order)
    else:
        model = parse_preset(name, order)
    _assert_same_solution(model, order)


def _random_fraction(rng, nonzero=False):
    value = F(rng.randint(-9, 9), rng.randint(1, 9))
    return value or (F(-2, 3) if nonzero else value)


def test_integer_solve_equals_fraction_recurrence_on_random_models():
    rng = random.Random(20240517)
    for _ in range(120):
        order = rng.randint(2, 32)
        model_order = order + rng.randint(-2, 4)
        kind = rng.choice(("example1", "example2", "constant", "free", "omega"))
        if kind == "omega":
            coeffs = [_random_fraction(rng) for _ in range(rng.randint(1, 4))]
            profile = model_from_omega_coeffs(coeffs, order=model_order)
        elif kind == "constant":
            profile = preset_constant(abs(_random_fraction(rng)), order=model_order)
        elif kind == "free":
            profile = preset_free(order=model_order)
        else:
            a, b = _random_fraction(rng, nonzero=True), _random_fraction(rng, nonzero=True)
            build = preset_example1 if kind == "example1" else preset_example2
            profile = build(a, b, order=model_order)
        _assert_same_solution(profile, order)
        # the same frequency with non-default mass, W and amplitude data
        model = OscillatorModel(profile.freq_sq, mass=_random_fraction(rng, nonzero=True),
                                wronskian=abs(_random_fraction(rng, nonzero=True)),
                                amp0=_random_fraction(rng, nonzero=True),
                                amp_vel0=_random_fraction(rng))
        _assert_same_solution(model, order)
