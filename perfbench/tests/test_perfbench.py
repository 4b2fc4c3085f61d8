"""Tests of the benchmark itself: seeded inputs, guards, checkers and tracing.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import itertools
import json
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import arith  # noqa: E402
import layers  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402


def _first(blocks, count: int = 6) -> list:
    return list(itertools.islice(blocks, count))


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_one_seed_gives_identical_inputs_and_another_seed_other_inputs(name):
    blocks = W.WORKLOADS[name].blocks
    assert _first(blocks(3)) == _first(blocks(3))
    assert _first(blocks(3)) != _first(blocks(4))


def test_oracle_specs_stay_under_their_modulus_caps():
    for block in _first(W.oracle_blocks(5), 4):
        assert len(block) == 1 + W.GROUPS * W.ORACLE_GROUP
        deep = [op for op in block if op in W.DEEP_TIER]
        assert len(deep) == 1
        assert 1 << 21 < deep[0][1] ** arith.oracle_level(*deep[0][1:]) <= W.DEEP_MODULUS_CAP
        for op in block:
            assert op in W.DEEP_TIER or arith.oracle_cost(*op[1:]) <= W.LIGHT_COST_CAP


def test_brute_force_vacuum_stays_at_small_primes_and_moduli():
    for block in _first(W.adelic_blocks(5), 40):
        for op in block:
            if op[0] == "vacuum" and op[6]:
                _, p, _, horizon, planck, _, _ = op
                assert p <= 13
                level = max(3, arith.valuation(horizon, p) + arith.valuation(planck, p) + 3)
                assert p**level <= W.BRUTE_VACUUM_MODULUS_CAP


def test_kernel_ops_never_share_a_model():
    ops = [op for block in _first(W.kernel_blocks(5), 12) for op in block]
    assert len({(op[1], op[2]) for op in ops}) == len(ops)


def _cost_shape(op: tuple) -> tuple:
    """What sets an op's cost: everything but the seeded numbers."""
    kind = op[0]
    if kind == "kernel":
        return op[1:5] + (op[9],)
    if kind == "vacuum":
        _, p, _, horizon, planck, _, brute = op
        return kind, p, brute, brute and max(3, arith.valuation(horizon * planck, p) + 3)
    if kind == "product":
        return kind, op[1], op[3]
    if kind == "compose":
        return op[:3]
    if kind == "cli":
        return tuple(map(_cli_arg_shape, op[2]))
    return kind, op[-1]  # omega and discreteness cutoffs, product-formula bound


def _cli_arg_shape(arg: str):
    """A command-line argument without its seeded numbers: the subcommand, suite
    name, places and preset family stay, other flags keep only their name."""
    if arg.startswith("--preset="):
        return arg.split("(")[0]
    if arg.startswith(("--place=", "--primes=")):
        return arg
    if arg.startswith("--places="):
        return "--places", arg.count(",")
    return arg.split("=")[0]


@pytest.mark.parametrize("name", ["kernel-orders", "adelic-places", "cli-cold"])
def test_the_seed_does_not_change_what_a_block_costs(name):
    blocks = W.WORKLOADS[name].blocks
    for one, other in zip(_first(blocks(3)), _first(blocks(4))):
        assert sorted(map(_cost_shape, one), key=repr) == sorted(map(_cost_shape, other), key=repr)


def test_cli_gauss_oracle_suites_replay_as_small():
    for block in _first(W.cli_blocks(5), 20):
        for op in block:
            if op[2][:2] == ("suite", "gauss-oracle"):
                seed, cases = (int(arg.split("=")[1]) for arg in op[2][2:])
                specs = W.suite_oracle_specs(seed, cases)
                assert max(arith.oracle_cost(*spec) for spec in specs) <= W.SMALL_SUITE_COST


def test_frac_part_and_valuation():
    assert arith.valuation(Fraction(18, 5), 3) == 2
    assert arith.valuation(0, 3) is None
    assert arith.frac_part(Fraction(7, 9), 3) == Fraction(7, 9)
    assert arith.frac_part(Fraction(1, 6), 3) == Fraction(2, 3)  # 1/6 = 2/3 - 1/2, 1/2 in Z_3
    assert arith.frac_part(Fraction(5, 2), 3) == 0


# -- every checker counts a perturbed result as a failure --------------------

GAUSS_OP = ("gauss", 3, Fraction(1, 27), Fraction(1, 9), 0)


def test_oracle_checker():
    result = W.oracle_execute(GAUSS_OP)
    assert W.oracle_check(GAUSS_OP, result) is None
    closed, oracle = result
    assert W.oracle_check(GAUSS_OP, (closed, oracle + 1e-6)) is not None
    assert W.oracle_check(GAUSS_OP, W.SKIP) is not None  # not in the p = 2 gap
    gap_op = ("gauss", 2, Fraction(2), Fraction(1), 1)
    assert arith.in_p2_gap(2, Fraction(2), 1)
    assert W.oracle_execute(gap_op) == W.SKIP
    assert W.oracle_check(gap_op, W.oracle_execute(gap_op)) is None


KERNEL_OP = ("kernel", "example1", (Fraction(1), Fraction(1)), 24, 3,
             Fraction(0), Fraction(3), Fraction(1), Fraction(2), True)


def test_kernel_checker():
    result = W.kernel_execute(KERNEL_OP)
    assert W.kernel_check(KERNEL_OP, result) is None
    for bad in (replace(result, boundary=result.boundary + Fraction(1, 10**12)),
                replace(result, phase_vel1=2 * result.phase_vel1),
                replace(result, kernel_angle=(result.kernel_angle + Fraction(1, 3)) % 1),
                replace(result, doubled_angle=(result.doubled_angle + Fraction(1, 9)) % 1)):
        assert W.kernel_check(KERNEL_OP, bad) is not None


@pytest.mark.parametrize("op, perturb", [
    (("vacuum", 3, Fraction(3), Fraction(3), Fraction(1), True, True), lambda r: [r[0], not r[1]]),
    (("vacuum", 3, Fraction(3), Fraction(1), Fraction(2, 3), False, True), lambda r: [True, True]),
    (("product", "free", (), ("real", 2, 3, 5, 7), Fraction(1), 2, 1),
     lambda r: ((r[0] + Fraction(1, 7)) % 1, r[1])),
    (("product", "free", (), ("real", 2, 3, 5, 7), Fraction(1), 2, 1),
     lambda r: (r[0], r[1][:-1])),
    (("compose", 3, "constant", (Fraction(3),), Fraction(3), ((1, 0), (0, 1), (1, 1))),
     lambda r: r + 1e-6),
    (("omega", Fraction(5, 6), 1000), lambda r: (r[0], (2,))),
    (("omega", Fraction(5, 6), 1000), lambda r: (1, r[1])),
    (("discreteness", Fraction(1), Fraction(1), Fraction(1),
      (Fraction(0), Fraction(1, 2), Fraction(1)), 1000),
     lambda r: [(x, 1e-300 if x.denominator > 1 else v, vp) for x, v, vp in r]),
    (("product-formula", Fraction(12345, 67891), 67891), lambda r: r * Fraction(3, 2)),
])
def test_adelic_checker(op, perturb):
    result = W.adelic_execute(op)
    assert W.adelic_check(op, result) is None
    assert W.adelic_check(op, perturb(result)) is not None


def _cli_doc(sub: str, **fields) -> str:
    return json.dumps({"schema": W.SCHEMA, "command": sub, **fields})


@pytest.mark.parametrize("sub, args, good, bad", [
    ("gauss", ("gauss", "--oracle-depth=2"), {"deviation": 1e-15}, {"deviation": 1e-6}),
    ("gauss", ("gauss", "--oracle-depth=2"), {"deviation": 1e-15}, {}),
    ("classical", ("classical",), {"action": {"difference": "0/1"}}, {"action": {"difference": "1/3"}}),
    ("propagator", ("propagator",), {"compose": {"max_deviation": 0.0}},
     {"compose": {"max_deviation": 1e-6}}),
    ("vacuum", ("vacuum",), {"reports": [{"agree": True}]}, {"reports": [{"agree": False}]}),
    ("vacuum", ("vacuum",), {"reports": [{"agree": True}]}, {"reports": [{"note": "unavailable"}]}),
    ("suite", ("suite",), {"results": [{"passed": True}]}, {"results": [{"passed": False}]}),
])
def test_cli_checker_fields(sub, args, good, bad):
    op = ("cli", sub, args)
    assert W.cli_check(op, W.CliResult(0, _cli_doc(sub, **good), 1)) is None
    assert W.cli_check(op, W.CliResult(0, _cli_doc(sub, **bad), 1)) is not None


def test_cli_checker_on_a_real_call():
    op = ("cli", "discreteness", ("discreteness", "--xs=0,1/2,1", "--cutoff=100"))
    result = W.cli_execute(op)
    assert W.cli_check(op, result) is None
    assert W.cli_check(op, replace(result, code=3)) is not None
    assert W.cli_check(op, replace(result, stdout=result.stdout.replace(W.SCHEMA, "other/1"))) is not None
    assert W.cli_check(op, replace(result, stdout="")) is not None


# -- tracing -------------------------------------------------------------------


def test_self_time_subtracts_direct_children():
    tracer = tracing.Tracer()
    outer = tracer.open(tracer.name_id("adelic.omega_product"))
    inner = tracer.open(tracer.name_id("exact_numbers.is_prime"))
    tracer.close(inner)
    tracer.close(outer)
    tracer.cols["start"][outer], tracer.cols["end"][outer] = 0.0, 5.0
    tracer.cols["start"][inner], tracer.cols["end"][inner] = 1.0, 3.0
    metrics = layers.layer_metrics(layers.spans_of(tracer))
    assert metrics["adelic.omega_product.self_s"] == pytest.approx(3.0)
    assert metrics["exact_numbers.is_prime.self_s"] == pytest.approx(2.0)
    assert metrics["exact_numbers.is_prime.calls"] == 1
    assert metrics["series.compose.self_s"] is None  # not reached
    assert metrics["series.compose.calls"] is None


def test_merged_span_sets_keep_their_own_parents():
    parts = []
    for inner_name in ("exact_numbers.is_prime", "series.mul"):
        tracer = tracing.Tracer()
        tracer.close(tracer.open(tracer.name_id("adelic.omega_product")))  # a span before, so indices shift
        outer = tracer.open(tracer.name_id("adelic.omega_product"))
        inner = tracer.open(tracer.name_id(inner_name))
        tracer.close(inner)
        tracer.close(outer)
        tracer.cols["start"][0], tracer.cols["end"][0] = 0.0, 1.0
        tracer.cols["start"][outer], tracer.cols["end"][outer] = 0.0, 5.0
        tracer.cols["start"][inner], tracer.cols["end"][inner] = 1.0, 2.0
        parts.append(layers.spans_of(tracer))
    metrics = layers.layer_metrics(layers.merge(parts))
    assert metrics["adelic.omega_product.self_s"] == pytest.approx(2 * (1.0 + 4.0))
    assert metrics["exact_numbers.is_prime.self_s"] == pytest.approx(1.0)
    assert metrics["series.mul.self_s"] == pytest.approx(1.0)


def test_install_wraps_defining_and_importing_modules():
    code = """if True:
        import sys
        sys.path[:0] = sys.argv[1:]
        import padic_oscillator as po, tracing
        tracer = tracing.Tracer()
        undo = tracing.install(tracer)
        import padic_oscillator.adelic as adelic, padic_oscillator.exact_numbers as en
        assert adelic.padic_valuation is en.padic_valuation is po.padic_valuation
        assert hasattr(en.padic_valuation, "__wrapped__")
        po.padic_norm(12, 3)
        po.RationalSeries.constant(1, 4) * po.RationalSeries.constant(2, 4)
        print(sorted(set(tracer.names[i] for i in tracer.cols["name"])))
        undo()
        assert adelic.padic_valuation is en.padic_valuation and not hasattr(en.padic_valuation, "__wrapped__")
        assert not hasattr(po.RationalSeries.__mul__, "__wrapped__")
        spans = len(tracer.cols["start"])
        po.padic_norm(12, 3)
        assert len(tracer.cols["start"]) == spans
    """
    done = subprocess.run([sys.executable, "-c", code, str(BENCH.parent / "src"), str(BENCH)],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "['exact_numbers.is_prime', 'exact_numbers.padic_valuation', 'series.mul']"


def test_command_line_child_traces_itself(tmp_path, monkeypatch):
    monkeypatch.setenv(tracing.CHILD_TRACE_DIR, str(tmp_path))
    monkeypatch.setenv(tracing.CHILD_TRACE_OP, "7")
    op = ("cli", "gauss", ("gauss", "--prime=3", "--alpha=1/9", "--beta=1/3", "--oracle-depth=2"))
    assert W.cli_check(op, W.cli_execute(op)) is None
    names, cols = layers.load_all(tmp_path)
    assert set(cols["op"]) == {7}
    metrics = layers.layer_metrics((names, cols))
    assert metrics["gauss_analysis.gauss_brute_force.calls"] >= 1
    assert metrics["gauss_analysis.gauss_closed_form.self_s"] > 0


def test_benchmark_json_lists_the_layer_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(layers.LAYER_METRICS)
    assert [w["name"] for w in spec["workloads"]] == list(W.WORKLOADS)
