"""Quadratic propagator kernels at one place and their consistency gates."""

import json
from fractions import Fraction

import pytest

from padic_oscillator import propagator
from padic_oscillator.classical_oscillator import (
    endpoint_data,
    parse_preset,
    preset_constant,
    preset_free,
    solve_amplitude_phase,
)
from padic_oscillator.errors import DivergenceError, PrecisionError
from padic_oscillator.propagator import (
    REAL_PLACE,
    QuadraticKernel,
    compose_oracle,
    evaluate_kernel,
    evolution_matrix,
    kernel_at,
    kernel_from_action,
    lambda_real,
    oscillator_kernel,
    phase_doubling_check,
)
from reference import cos_series, sin_series

F = Fraction


def test_free_model_collapses_to_closed_form_kernel():
    model = preset_free(order=16)
    for place in (REAL_PLACE, 3, 7):
        got = oscillator_kernel(place, model, F(0), F(2))
        want = QuadraticKernel.free(place, F(2))
        assert (got.coef_out, got.coef_cross, got.coef_in) == (
            want.coef_out, want.coef_cross, want.coef_in)
        assert got.mass == 1 and got.planck == 1


def test_constant_frequency_matches_trigonometric_closed_form():
    # From t'=0 the composed phase difference is the plain series value,
    # so A = (m w/2) cot(w T), B = -m w / sin(w T), D = A hold exactly.
    order = 18
    for w0, t2 in ((F(2), F(1, 3)), (F(3), F(1, 2)), (F(1), F(1))):
        model = preset_constant(w0, order=order)
        kernel = oscillator_kernel(REAL_PLACE, model, F(0), t2, order=order)
        c = cos_series(order).evaluate(w0 * t2)
        s = sin_series(order).evaluate(w0 * t2)
        assert kernel.coef_out == w0 * c / (2 * s)
        assert kernel.coef_cross == -w0 / s
        assert kernel.coef_in == kernel.coef_out


def test_kernel_modulus_ignores_both_positions():
    model = parse_preset("example1(1,1)", order=20)
    kernel = oscillator_kernel(REAL_PLACE, model, F(0), F(1, 4), order=20)
    norms = set()
    values = []
    for x_out in (F(0), F(1), F(-3, 2), F(7, 3)):
        for x_in in (F(0), F(1, 2), F(5)):
            kv = evaluate_kernel(kernel, x_out, x_in)
            norms.add((kv.norm.base, kv.norm.exponent))
            values.append(abs(kv.complex_value))
    assert len(norms) == 1
    assert max(values) - min(values) < 1e-12


def test_padic_kernel_norm_and_phase_are_exact():
    kernel = QuadraticKernel.free(5, F(1))
    kv = evaluate_kernel(kernel, F(1, 5), F(0))
    # action 1/50 has 5-adic fractional part 12/25 after negation
    assert kv.phase.angle == F(12, 25)
    assert kv.norm.exponent == 0 and kv.norm.value() == 1
    assert kv.lambda_factor.angle == 0
    payload = kv.to_json()
    assert payload["phase_angle"] == F(12, 25) and payload["norm"] is kv.norm


def test_real_kernel_value_splits_magnitude_and_eighth_root():
    kernel = QuadraticKernel.free(REAL_PLACE, F(2))
    kv = evaluate_kernel(kernel, F(4), F(1))
    # S = 9/4: phase angle 1/4, stationary-phase eighth root at -1/8 mod 1
    assert kv.phase.angle == F(1, 4)
    assert kv.lambda_factor.angle == lambda_real(F(1, 4)).angle == F(7, 8)
    assert (kv.norm.base, kv.norm.exponent) == (F(1, 2), F(1, 2))
    assert abs(kv.complex_value - complex(0.5, 0.5)) < 1e-12


def test_padic_place_requires_certified_series():
    model = preset_constant(3, order=16)
    with pytest.raises(DivergenceError):
        oscillator_kernel(5, model, F(0), F(1, 5), order=16)
    ok = oscillator_kernel(3, model, F(0), F(1), order=16)
    assert ok.place == 3


def test_kernel_from_action_agrees_with_one_step_builder():
    model = parse_preset("example1(1,1)", order=18)
    ap = solve_amplitude_phase(model, order=18)
    ep = endpoint_data(ap, F(0), F(1, 4))
    direct = kernel_from_action(REAL_PLACE, ap, ep)
    packaged = oscillator_kernel(REAL_PLACE, model, F(0), F(1, 4), order=18)
    assert direct == packaged


def test_free_composition_closes_exactly_under_the_oracle():
    for p in (3, 5):
        late = QuadraticKernel.free(p, F(1))
        early = QuadraticKernel.free(p, F(1))
        direct = QuadraticKernel.free(p, F(2))
        report = compose_oracle(late, early, direct)
        assert report.max_deviation < 1e-9
        assert report.prime == p and len(report.samples) == 7


def test_oscillator_composition_closes_at_small_frequency():
    model = preset_constant(3, order=16)
    late = oscillator_kernel(3, model, F(1, 2), F(1), order=16)
    early = oscillator_kernel(3, model, F(0), F(1, 2), order=16)
    direct = oscillator_kernel(3, model, F(0), F(1), order=16)
    report = compose_oracle(late, early, direct)
    assert report.max_deviation < 1e-9


def test_composition_oracle_takes_each_kernels_factors_once(monkeypatch):
    calls = []
    lambda_p = propagator.lambda_p

    def counted(alpha, p):
        calls.append(p)
        return lambda_p(alpha, p)

    monkeypatch.setattr(propagator, "lambda_p", counted)
    model = preset_constant(3, order=16)
    late = oscillator_kernel(3, model, F(1, 2), F(1), order=16)
    early = oscillator_kernel(3, model, F(0), F(1, 2), order=16)
    direct = oscillator_kernel(3, model, F(0), F(1), order=16)
    report = compose_oracle(late, early, direct)
    assert len(report.samples) == 7 and calls == [3, 3, 3]
    assert evaluate_kernel(direct, F(1), F(2)).lambda_factor is direct.lambda_factor
    assert calls == [3, 3, 3]


def test_composition_oracle_rejects_mixed_places():
    with pytest.raises(ValueError):
        compose_oracle(QuadraticKernel.free(3, 1), QuadraticKernel.free(5, 1),
                       QuadraticKernel.free(3, 2))
    with pytest.raises(ValueError):
        compose_oracle(QuadraticKernel.free(REAL_PLACE, 1),
                       QuadraticKernel.free(REAL_PLACE, 1),
                       QuadraticKernel.free(REAL_PLACE, 2))


def test_doubling_gate_passes_where_angles_are_stable():
    build = lambda order: parse_preset("example1(1,1)", order=order)
    angles = phase_doubling_check(build, F(0), F(3, 16), F(1), F(2),
                                  places=(REAL_PLACE, 3), order=24)
    assert angles[3] == F(1, 3)
    assert abs(angles[REAL_PLACE] - 0.5210856417331802) < 1e-9
    only5 = phase_doubling_check(build, F(0), F(5, 2), F(1), F(2),
                                 places=(5,), order=24)
    assert only5[5] == F(4, 5)


def test_doubling_gate_flags_unstable_padic_angle():
    build = lambda order: parse_preset("example1(1,1)", order=order)
    with pytest.raises(PrecisionError):
        phase_doubling_check(build, F(0), F(1, 3), F(1), F(2),
                             places=(3,), order=24)


@pytest.mark.parametrize("preset", ["example1(1,1)", "example2(1,2)", "constant(3)", "free"])
def test_kernel_evolution_is_the_evolution_matrix(preset):
    ap = solve_amplitude_phase(parse_preset(preset, order=18), 18)
    for t0, t in ((F(0), F(1, 4)), (F(-1, 5), F(1, 3))):
        kernel = kernel_at(REAL_PLACE, ap, t0, t)
        assert kernel.evolution == evolution_matrix(ap, t0, t)
        (a, b), (c, d) = kernel.evolution
        assert a * d - b * c == 1


def test_doubling_gate_free_branch_uses_the_free_action(solve_calls):
    # m (x'' - x')^2 / (2T) = 3/4 for T = 2/3, x' = 1 and x'' = 2, from the
    # closed-form free kernel of one solve at each order
    angles = phase_doubling_check(preset_free, F(0), F(2, 3), F(1), F(2),
                                  places=(REAL_PLACE, 2, 3), order=8)
    assert angles == {REAL_PLACE: F(3, 4), 2: F(1, 4), 3: F(0)}
    assert solve_calls == [8, 16]


def test_composition_command_builds_its_three_kernels_from_one_solve(solve_calls, run_cli):
    code, out, _ = run_cli("propagator", "--place", "5", "--preset", "example1(2/3,1)",
                           "--t1", "0", "--t2", "5/7", "--x1", "1", "--x2", "2",
                           "--order", "12", "--compose", "5/14")
    assert code == 0 and solve_calls == [12]
    assert json.loads(out)["compose"]["max_deviation"] < 1e-9
