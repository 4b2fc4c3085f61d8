"""Top-level acceptance gates: every criterion as one pass/fail test.

Each test prints a single summary line; run with -s to see them on
success (they always appear in failure reports).
"""

import math
import random
import subprocess
import sys
import time
from fractions import Fraction

from padic_oscillator.adelic import (
    GaussianGroundState,
    omega_product,
    vacuum_check,
)
from padic_oscillator.classical_oscillator import (
    amplitude_residual,
    boundary_action,
    classical_action,
    endpoint_data,
    phase_residual,
    preset_constant,
    preset_example1,
    preset_example2,
    preset_free,
    solve_amplitude_phase,
)
from padic_oscillator.errors import CausticError
from padic_oscillator.exact_numbers import primes_upto
from padic_oscillator.gauss_analysis import (
    GaussIntegralSpec,
    gauss_brute_force,
    gauss_closed_form,
    lambda_p,
)
from padic_oscillator.propagator import (
    REAL_PLACE,
    compose_oracle,
    evaluate_kernel,
    oscillator_kernel,
)
from padic_oscillator.series import binomial_series
from reference import cos_series, sin_series

F = Fraction


def _unit(rng, p):
    while True:
        num = rng.randint(1, 40) * rng.choice((1, -1))
        den = rng.randint(1, 40)
        if num % p and den % p:
            return F(num, den)


def test_criterion_1_closed_form_matches_coset_oracle_on_500_cases():
    rng = random.Random(7)
    start = time.perf_counter()
    checked = 0
    worst = 0.0
    while checked < 500:
        p = rng.choice((2, 3, 5, 7))
        nu = rng.randint(-2, 2)
        alpha = _unit(rng, p) * F(p) ** rng.randint(-3, 3)
        beta = _unit(rng, p) * F(p) ** rng.randint(-3, 3)
        spec = GaussIntegralSpec(p, alpha, beta, nu)
        closed = gauss_closed_form(spec)
        worst = max(worst, abs(closed.value - gauss_brute_force(spec)))
        checked += 1
    elapsed = time.perf_counter() - start
    assert worst < 1e-9
    assert elapsed < 60.0
    print(f"ACCEPTANCE 1: PASS — {checked} ball integrals, "
          f"max |closed - oracle| = {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_unimodular_factor_identities():
    for p in (2, 3, 5, 7):
        assert lambda_p(F(0), p).angle == 0
    rng = random.Random(13)
    worst_square = worst_product = worst_mod = 0.0
    for p in (3, 5, 7):
        pairs = 0
        while pairs < 200:
            a = _unit(rng, p) * F(p) ** rng.randint(-3, 3)
            b = _unit(rng, p) * F(p) ** rng.randint(-3, 3)
            if a + b == 0:
                continue
            c = F(rng.randint(1, 15))
            la, lb = lambda_p(a, p), lambda_p(b, p)
            worst_mod = max(worst_mod, abs(abs(la.to_complex()) - 1))
            worst_square = max(
                worst_square, abs(lambda_p(c * c * a, p).to_complex() - la.to_complex()))
            rhs = lambda_p(a + b, p) * lambda_p(1 / a + 1 / b, p)
            worst_product = max(
                worst_product, abs((la * lb).to_complex() - rhs.to_complex()))
            pairs += 1
    assert worst_square < 1e-10 and worst_product < 1e-10 and worst_mod < 1e-12
    # mod-9 coset sum evaluates the quarter turn at the deep pole directly
    oracle = gauss_brute_force(GaussIntegralSpec(3, F(1, 3), F(0))) * math.sqrt(3)
    assert abs(oracle - 1j) < 1e-10
    assert lambda_p(F(1, 3), 3).angle == F(1, 4)
    print(f"ACCEPTANCE 2: PASS — 200 pairs per prime, square dev "
          f"{worst_square:.1e}, product dev {worst_product:.1e}, deep-pole value i")


def test_criterion_3_classical_profiles_solve_exactly_through_order_22():
    models = [preset_example1(a, b, order=24) for a in (1, 2, 3) for b in (1, 2, 3)]
    models += [preset_example2(a, b, order=24) for a, b in ((1, 1), (2, 1), (1, 2), (3, 2))]
    for model in models:
        ap = solve_amplitude_phase(model, order=24)
        assert amplitude_residual(ap).is_zero_through(22)
        assert phase_residual(ap).is_zero_through(22)
    for a in (1, 2, 3):
        for b in (1, 2, 3):
            ap = solve_amplitude_phase(preset_example1(a, b, order=24), order=24)
            assert ap.amp.coeffs == tuple([F(b), F(a * b)] + [F(0)] * 23)
            geometric = binomial_series(-1, 23, scale=a)
            gamma = (geometric * F(1, b * b)).coeffs
            assert ap.phase.coeffs[0] == 0
            assert ap.phase.coeffs[1:] == gamma
    print("ACCEPTANCE 3: PASS — 13 profiles, residuals zero through order 22, "
          "rational amplitude family reproduced coefficient-by-coefficient")


def test_criterion_4_action_forms_agree_exactly_per_preset():
    presets = {
        "example1": preset_example1(1, 1, order=14),
        "example2": preset_example2(1, 1, order=14),
        "constant": preset_constant(2, order=14),
        "free": preset_free(order=14),
    }
    rng = random.Random(23)
    totals = {}
    for name, model in presets.items():
        ap = solve_amplitude_phase(model, order=14)
        done = 0
        while done < 100:
            t1 = F(-rng.randint(0, 2), 4)
            t2 = F(rng.randint(1, 8), rng.choice((4, 5, 8, 9)))
            if t1 == t2:
                continue
            x1 = F(rng.randint(-12, 12), rng.choice((1, 2, 3)))
            x2 = F(rng.randint(-12, 12), rng.choice((1, 2, 3)))
            try:
                ep = endpoint_data(ap, t1, t2, x_prime=x1, x_dprime=x2)
            except (CausticError, ZeroDivisionError):
                continue
            assert classical_action(ap, ep) == boundary_action(ap, ep)
            cross = (ep.amp2 * ep.phase_vel2 / ep.amp1
                     + ep.amp1 * ep.phase_vel1 / ep.amp2) ** 2
            assert cross == 4 * ep.phase_vel1 * ep.phase_vel2
            done += 1
        totals[name] = done
    assert all(n >= 100 for n in totals.values())
    print(f"ACCEPTANCE 4: PASS — exact action equality on {totals} configurations")


def test_criterion_5_kernel_structure_and_composition():
    # modulus independent of both positions
    model = preset_example1(1, 1, order=20)
    spread = 0.0
    for place, t2 in ((REAL_PLACE, F(1, 4)), (3, F(3, 4))):
        kernel = oscillator_kernel(place, model, F(0), t2, order=20)
        values = [abs(evaluate_kernel(kernel, F(i, 2), F(j, 3)).complex_value)
                  for i in range(-3, 4) for j in range(-3, 4)]
        spread = max(spread, max(values) - min(values))
    assert spread < 1e-12
    # constant frequency reduces to the trigonometric closed form exactly
    order = 18
    for w0, t2 in ((F(2), F(1, 3)), (F(3), F(1, 2))):
        kernel = oscillator_kernel(REAL_PLACE, preset_constant(w0, order=order),
                                   F(0), t2, order=order)
        c = cos_series(order).evaluate(w0 * t2)
        s = sin_series(order).evaluate(w0 * t2)
        assert kernel.coef_out == w0 * c / (2 * s)
        assert kernel.coef_cross == -w0 / s
        assert kernel.coef_in == kernel.coef_out
    # composition closes under the brute-force intermediate integral
    worst = 0.0
    slowest = 0.0
    for p in (3, 5):
        cases = [tuple(oscillator_kernel(p, preset_free(order=14), a, b, order=14)
                       for a, b in ((F(1), F(2)), (F(0), F(1)), (F(0), F(2))))]
        small = preset_constant(p, order=16)
        cases.append(tuple(oscillator_kernel(p, small, a, b, order=16)
                           for a, b in ((F(1, 2), F(1)), (F(0), F(1, 2)), (F(0), F(1)))))
        for late, early, direct in cases:
            tick = time.perf_counter()
            report = compose_oracle(late, early, direct)
            span = time.perf_counter() - tick
            worst = max(worst, report.max_deviation)
            slowest = max(slowest, span)
            assert report.max_deviation < 1e-9
            assert span < 120.0
    print(f"ACCEPTANCE 5: PASS — modulus spread {spread:.1e}, symbolic constant-"
          f"frequency match, composition dev {worst:.1e} (slowest case {slowest:.1f}s)")


def test_criterion_6_vacuum_invariance_and_engineered_violation():
    disagreements = 0
    for p in (3, 5, 7):
        model = preset_constant(p, order=16)
        closed = vacuum_check(p, model, F(0), F(1), method="closed-form")
        brute = vacuum_check(p, model, F(0), F(1), method="brute-force")
        assert closed.holds and brute.holds
        disagreements += int(closed.holds != brute.holds)
    model = preset_constant(3, order=16)
    broken_closed = vacuum_check(3, model, F(0), F(1), planck=F(2, 3),
                                 method="closed-form")
    broken_brute = vacuum_check(3, model, F(0), F(1), planck=F(2, 3),
                                method="brute-force")
    assert not broken_closed.holds and not broken_brute.holds
    assert broken_closed.witness is not None
    assert broken_brute.witness is not None
    disagreements += int(broken_closed.holds != broken_brute.holds)
    assert disagreements == 0
    print("ACCEPTANCE 6: PASS — invariance holds at p=3,5,7 by both methods; "
          f"scale violation refused with witness x''={broken_closed.witness}; "
          "verdicts never disagree")


def test_criterion_7_discreteness_and_exact_reduction():
    mismatches = 0
    for d in (1, 2, 3, 5):
        for k in range(-20, 21):
            x = F(k, d)
            value = omega_product(x, 100).value
            mismatches += int(value != (1 if x.denominator == 1 else 0))
    assert mismatches == 0
    # the reduction to the real marginal: each Omega factor has squared norm 1 ...
    for p in primes_upto(50):
        assert gauss_closed_form(GaussIntegralSpec(p, 0, 0, 0)).value == 1
    # ... and the real ground state's density integrates to 1 (trapezoid, +-10 length scales)
    worst = 0.0
    for mass, frequency, planck in ((1, 1, 1), (F(1), F(2), F(3)), (F(3, 2), F(1, 2), F(2))):
        state = GaussianGroundState(mass, frequency, planck)
        steps = 2000
        width = 20 * state.length_scale / steps
        xs = [-10 * state.length_scale + k * width for k in range(steps + 1)]
        total = width * (sum(map(state.density, xs)) - (state.density(xs[0]) + state.density(xs[-1])) / 2)
        worst = max(worst, abs(total - 1))
    assert worst < 1e-9
    print("ACCEPTANCE 7: PASS — 164 lattice samples follow integer support "
          f"exactly; Omega has norm 1 at p <= 50; the real density integrates to 1 "
          f"within {worst:.1e}")


def test_criterion_8_suite_runs_are_byte_identical():
    command = [sys.executable, "-m", "padic_oscillator.cli",
               "suite", "all", "--seed", "7"]
    first = subprocess.run(command, capture_output=True)
    second = subprocess.run(command, capture_output=True)
    assert first.returncode == 0, first.stdout.decode()
    assert second.returncode == 0
    assert first.stdout == second.stdout
    assert len(first.stdout) > 0
    print("ACCEPTANCE 8: PASS — two full suite runs emitted "
          f"{len(first.stdout)} identical bytes")
