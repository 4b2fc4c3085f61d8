"""Seeded verification sweeps behind the command line's `suite` command.

Each suite draws its cases from a `random.Random(seed)` generator before
any work starts, so a given (name, seed, cases) triple always produces
the same report, byte for byte.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Mapping, Optional

from .adelic import vacuum_report
from .classical_oscillator import (
    PRESETS,
    amplitude_residual,
    boundary_action,
    classical_action,
    endpoint_data,
    parse_preset,
    phase_residual,
    solve_amplitude_phase,
)
from .errors import CausticError
from .exact_numbers import (
    chi,
    frac_str,
    padic_norm,
    prime_power,
    primes_upto,
    real_norm,
)
from .gauss_analysis import (
    GaussIntegralSpec,
    gauss_brute_force,
    gauss_closed_form,
    lambda_p,
    oracle_plan,
)
from .propagator import compose_oracle, kernel_at, kernel_solution, kernel_window


@dataclass(frozen=True)
class SuiteResult:
    """Deterministic outcome of one named sweep (no wall-clock fields)."""

    name: str
    passed: bool
    cases: int
    skipped: int
    max_deviation: Optional[float]
    failures: tuple
    detail: Mapping[str, int] = field(default_factory=dict)


_FAILURE_LIMIT = 12


def _finish(name, cases, skipped, max_dev, failures, detail=None) -> SuiteResult:
    kept = tuple(failures[:_FAILURE_LIMIT])
    if len(failures) > _FAILURE_LIMIT:
        kept += (f"... {len(failures) - _FAILURE_LIMIT} more",)
    return SuiteResult(name, not failures, cases, skipped, max_dev, kept,
                       dict(detail or {}))


def _random_rational(rng: random.Random, allow_zero: bool = False) -> Fraction:
    if allow_zero and rng.random() < 0.12:
        return Fraction(0)
    num = rng.randint(1, 60)
    den = rng.randint(1, 60)
    sign = rng.choice((-1, 1))
    return Fraction(sign * num, den)


def _random_with_valuation(rng: random.Random, p: int, low: int, high: int) -> Fraction:
    """Nonzero rational whose p-valuation is exactly the drawn integer."""
    v = rng.randint(low, high)
    unit_num = rng.randint(1, 40)
    while unit_num % p == 0:
        unit_num = rng.randint(1, 40)
    unit_den = rng.randint(1, 40)
    while unit_den % p == 0:
        unit_den = rng.randint(1, 40)
    sign = rng.choice((-1, 1))
    return Fraction(sign * unit_num, unit_den) * prime_power(p, v)


# ---------------------------------------------------------------------------
# Individual sweeps


def suite_ultrametric(seed: int, cases: Optional[int] = None) -> SuiteResult:
    """Norm axioms, character additivity and the product formula, exactly."""
    n = cases or 400
    rng = random.Random(seed)
    small_primes = (2, 3, 5, 7, 11, 13)
    failures = []
    for k in range(n):
        p = rng.choice(small_primes)
        x = _random_rational(rng, allow_zero=True)
        y = _random_rational(rng, allow_zero=True)
        nx, ny, nxy = padic_norm(x, p), padic_norm(y, p), padic_norm(x + y, p)
        if nxy > max(nx, ny):
            failures.append(f"case {k}: |x+y|_{p} > max at x={frac_str(x)} y={frac_str(y)}")
        if nx != ny and nxy != max(nx, ny):
            failures.append(f"case {k}: strict ultrametric equality failed at p={p}")
        if padic_norm(x * y, p) != nx * ny:
            failures.append(f"case {k}: multiplicativity failed at p={p}")
        if (chi(x, p) * chi(y, p)).angle != chi(x + y, p).angle:
            failures.append(f"case {k}: character additivity failed at p={p}")
        if x != 0:
            total = real_norm(x)
            for q in primes_upto(61):
                total *= padic_norm(x, q)
            if total != 1:
                failures.append(f"case {k}: product formula failed at x={frac_str(x)}")
    return _finish("ultrametric", n, 0, None, failures)


def suite_lambda(seed: int, cases: Optional[int] = None) -> SuiteResult:
    """Unimodularity, square-scaling invariance and the duality identity."""
    n = cases or 120
    rng = random.Random(seed)
    failures = []
    max_dev = 0.0
    if lambda_p(Fraction(1, 3), 3).angle != Fraction(1, 4):
        failures.append("frozen value: quarter turn expected at p=3, a=1/3")
    for k in range(n):
        p = rng.choice((2, 3, 5, 7))
        a = _random_with_valuation(rng, p, -3, 3)
        b = _random_with_valuation(rng, p, -3, 3)
        la = lambda_p(a, p)
        dev_mod = abs(abs(la.to_complex()) - 1.0)
        max_dev = max(max_dev, dev_mod)
        if dev_mod > 1e-12:
            failures.append(f"case {k}: modulus off unit circle at p={p}")
        if lambda_p(b * b * a, p).angle != la.angle:
            failures.append(f"case {k}: square-scaling changed the value at p={p}")
        if a + b != 0:
            lhs = (la * lambda_p(b, p)).to_complex()
            rhs = (lambda_p(a + b, p) * lambda_p(1 / a + 1 / b, p)).to_complex()
            dev = abs(lhs - rhs)
            max_dev = max(max_dev, dev)
            if dev > 1e-10:
                failures.append(
                    f"case {k}: duality identity off by {dev:g} at p={p}, "
                    f"a={frac_str(a)}, b={frac_str(b)}"
                )
    return _finish("lambda", n, 0, max_dev, failures)


def suite_gauss_oracle(seed: int, cases: Optional[int] = None) -> SuiteResult:
    """Closed-form ball integrals against the independent coset sum."""
    n = cases or 500
    rng = random.Random(seed)
    specs = []
    while len(specs) < n:
        p = rng.choice((2, 3, 5, 7, 11))
        nu = rng.randint(-2, 2)
        alpha = _random_with_valuation(rng, p, -4, 4)
        if rng.random() < 0.15:
            beta = Fraction(0)
        else:
            beta = _random_with_valuation(rng, p, -4, 4)
        spec = GaussIntegralSpec(p, alpha, beta, nu)
        # keep the oracle affordable: redraw the rare specs with over 2^21 cosets
        if p ** (nu + oracle_plan(spec).depth) > 1 << 21:
            continue
        specs.append(spec)

    failures = []
    max_dev = 0.0
    for k, spec in enumerate(specs):
        dev = abs(gauss_closed_form(spec).value - gauss_brute_force(spec))
        max_dev = max(max_dev, dev)
        if dev > 1e-9:
            failures.append(
                f"case {k}: deviation {dev:g} at p={spec.prime}, alpha={frac_str(spec.alpha)}, "
                f"beta={frac_str(spec.beta)}, nu={spec.ball_exponent}"
            )
    return _finish("gauss-oracle", n, 0, max_dev, failures)


_PARAM_POOL = (Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-1, 2),
               Fraction(2), Fraction(1, 3), Fraction(3), Fraction(-2))
_SCALE_POOL = (Fraction(1), Fraction(2), Fraction(1, 2), Fraction(3), Fraction(2, 3))


@lru_cache(maxsize=256)
def _solved(family: str, args: tuple, order: int):
    """Build and solve one preset instance; the draw pools are small, so
    repeated draws hit this cache instead of re-running the recurrence."""
    model = PRESETS[family][0](*args, order=order)
    return model, solve_amplitude_phase(model, order)


def _draw_model(rng: random.Random, order: int):
    """One random admissible preset instance, with its family name."""
    family = rng.choice(("example1", "example2", "constant"))
    if family == "constant":
        w0 = rng.choice((Fraction(1), Fraction(2), Fraction(3), Fraction(1, 2),
                         Fraction(5), Fraction(1, 3)))
        return family, (w0,)
    a = rng.choice(_PARAM_POOL)
    b = rng.choice(_SCALE_POOL)
    return family, (a, b)


def suite_ode_residual(seed: int, cases: Optional[int] = None) -> SuiteResult:
    """Amplitude and phase residuals vanish through their guaranteed orders."""
    n = cases or 40
    order = 18
    rng = random.Random(seed)
    failures = []
    detail: dict = {}
    for k in range(n):
        family, args = _draw_model(rng, order)
        detail[family] = detail.get(family, 0) + 1
        model, ap = _solved(family, args, order)
        if not amplitude_residual(ap).is_zero_through(order - 2):
            failures.append(f"case {k}: amplitude residual nonzero for {model.label}")
        if not phase_residual(ap).is_zero_through(order):
            failures.append(f"case {k}: phase residual nonzero for {model.label}")
    return _finish("ode-residual", n, 0, None, failures, detail)


def suite_action_equality(seed: int, cases: Optional[int] = None) -> SuiteResult:
    """Quadratic-form action equals the boundary form, as exact rationals."""
    n = cases or 120
    order = 14
    rng = random.Random(seed)
    failures = []
    detail: dict = {}
    produced = 0
    skipped = 0
    families = ("example1", "example2", "constant")
    while produced < n:
        family = families[produced % 3]
        if family == "constant":
            args = (rng.choice((Fraction(1), Fraction(2), Fraction(3), Fraction(1, 2))),)
        else:
            args = (rng.choice(_PARAM_POOL), rng.choice(_SCALE_POOL))
        t1 = Fraction(rng.randint(-4, 4), rng.choice((4, 5, 8)))
        t2 = Fraction(rng.randint(-4, 4), rng.choice((4, 5, 8)))
        x1 = _random_rational(rng, allow_zero=True)
        x2 = _random_rational(rng, allow_zero=True)
        if t1 == t2:
            continue
        model, ap = _solved(family, args, order)
        try:
            ep = endpoint_data(ap, t1, t2, x1, x2)
        except (CausticError, ZeroDivisionError):
            skipped += 1
            continue
        produced += 1
        detail[family] = detail.get(family, 0) + 1
        if classical_action(ap, ep) != boundary_action(ap, ep):
            failures.append(
                f"case {produced}: action forms differ for {model.label} "
                f"at t=({frac_str(t1)},{frac_str(t2)})"
            )
        lhs = (ep.amp2 * ep.phase_vel2 / ep.amp1 + ep.amp1 * ep.phase_vel1 / ep.amp2) ** 2
        if lhs != 4 * ep.phase_vel2 * ep.phase_vel1:
            failures.append(f"case {produced}: phase-velocity identity broke for {model.label}")
    return _finish("action-equality", n, skipped, None, failures, detail)


_COMPOSITION_GRID = (
    ("free", 3, Fraction(0), Fraction(1, 2), Fraction(1)),
    ("free", 5, Fraction(0), Fraction(1, 2), Fraction(1)),
    ("constant(3)", 3, Fraction(0), Fraction(1, 2), Fraction(1)),
    ("constant(5)", 5, Fraction(0), Fraction(1, 2), Fraction(1)),
    ("example1(1,1)", 3, Fraction(0), Fraction(3, 2), Fraction(3)),
    ("example1(1,1)", 5, Fraction(0), Fraction(5, 2), Fraction(5)),
)


def suite_composition(seed: int, cases: Optional[int] = None) -> SuiteResult:
    """Kernel semigroup property against the brute-force middle integral."""
    grid = _COMPOSITION_GRID[: cases or len(_COMPOSITION_GRID)]
    rng = random.Random(seed)
    sample_sets = []
    for _ in grid:
        sample_sets.append([(Fraction(rng.randint(-6, 6)), Fraction(rng.randint(-6, 6)))
                            for _ in range(3)])

    failures = []
    max_dev = 0.0
    for k, ((preset_text, p, t1, t_mid, t2), samples) in enumerate(zip(grid, sample_sets)):
        ap = kernel_solution(parse_preset(preset_text, 16), 16)
        late = kernel_at(p, ap, t_mid, t2)
        early = kernel_at(p, ap, t1, t_mid)
        direct = kernel_at(p, ap, t1, t2)
        dev = compose_oracle(late, early, direct, samples=samples).max_deviation
        max_dev = max(max_dev, dev)
        if dev > 1e-9:
            failures.append(f"case {k}: composition deviation {dev:g} for {preset_text} "
                            f"at p={p}")
    return _finish("composition", len(grid), 0, max_dev, failures)


_VACUUM_GRID = (
    # (preset text, p, t2, planck, expected holds)
    ("constant(3)", 3, Fraction(1), Fraction(1), True),
    ("constant(3)", 3, Fraction(3), Fraction(1), True),
    ("constant(3)", 3, Fraction(1), Fraction(2, 3), False),
    ("constant(5)", 5, Fraction(5), Fraction(1), True),
    ("example1(1,1)", 5, Fraction(5), Fraction(1), True),
    ("constant(7)", 7, Fraction(7), Fraction(1), True),
    ("free", 3, Fraction(3), Fraction(1), True),
)


def suite_vacuum(seed: int, cases: Optional[int] = None) -> SuiteResult:
    """Closed-form and brute-force vacuum verdicts agree on a fixed grid."""
    grid = _VACUUM_GRID[: cases or len(_VACUUM_GRID)]

    failures = []
    max_dev = 0.0
    for k, (preset_text, p, t2, planck, expected) in enumerate(grid):
        ap = kernel_solution(parse_preset(preset_text, 16), 16)
        ep = kernel_window(ap, Fraction(0), t2, (p,))
        closed = vacuum_report(p, ap, ep, planck=planck, method="closed-form")
        brute = vacuum_report(p, ap, ep, planck=planck, method="brute-force")
        tag = f"{preset_text} p={p}"
        if expected:
            max_dev = max(max_dev, brute.max_deviation)
        if closed.holds != brute.holds:
            failures.append(f"case {k}: methods disagree for {tag}")
        if closed.holds != expected:
            failures.append(f"case {k}: expected holds={expected} for {tag}")
        if closed.sufficient_condition and not closed.holds:
            failures.append(f"case {k}: sufficient criterion contradicted for {tag}")
    return _finish("vacuum", len(grid), 0, max_dev, failures)


SUITES = {
    "ultrametric": suite_ultrametric,
    "lambda": suite_lambda,
    "gauss-oracle": suite_gauss_oracle,
    "ode-residual": suite_ode_residual,
    "action-equality": suite_action_equality,
    "composition": suite_composition,
    "vacuum": suite_vacuum,
}

SUITE_ORDER = tuple(SUITES)


def run_suite(name: str, seed: int = 0, cases: Optional[int] = None) -> SuiteResult:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITE_ORDER)}")
    if cases is not None and cases < 1:
        raise ValueError(f"a suite needs at least one case, got {cases}")
    return SUITES[name](seed, cases)


def run_all(seed: int = 0) -> list:
    return [SUITES[name](seed, None) for name in SUITE_ORDER]
