#!/usr/bin/env python3
"""Benchmark of padic-oscillator, run from the root of a checkout.

    python3 perfbench/run.py --workload oracle-sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

Each run is one fresh interpreter driving one workload in a closed loop,
one op in flight, with the library's caches cold.  It runs whole blocks
of ops until --seconds have passed (and, untraced, at least 100 ops have
run), checks every result, and prints one line per metric followed by a
last line holding one JSON object:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones (set-up time, throughput, latency p50
and p90, peak RSS); with --trace 1 they are the per-layer ones from a
traced run of the same workload, whose spans (and those of its
command-line children) are written under .perfbench-out/, and the
tracing overhead, measured on a fixed set of the workload's ops.
"""

from __future__ import annotations

import argparse
import compileall
import itertools
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OP_TIMEOUT_S = 30
MIN_OPS = 100  # per end-to-end run, so that p90 has at least ten samples beyond it
SETUP_REPEATS = 7
REFERENCE_REPEATS = 3
OVERHEAD_PASS_S = 1.0  # untraced time of the op set the tracing overhead is measured on
OVERHEAD_OP_MAX_S = 0.5  # ops slower than this stay out of that set
OVERHEAD_ROUNDS = 3
WORKLOAD_NAMES = ("oracle-sweep", "kernel-orders", "adelic-places", "cli-cold")


class OpTimeout(Exception):
    """An op ran past OP_TIMEOUT_S."""


def _on_alarm(signum, frame):
    raise OpTimeout()


@dataclass
class Outcome:
    """What one pass over a workload's ops produced."""

    attempted: int = 0
    passed: int = 0
    skipped: int = 0
    failures: list = field(default_factory=list)
    latencies: list = field(default_factory=list)  # seconds, every op that was not skipped
    elapsed: float = 0.0
    child_rss_kb: int = 0

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def throughput(self) -> float:
        return self.passed / self.elapsed


def _kind(op: tuple) -> str:
    return f"cli.{op[1]}" if op[0] == "cli" else op[0]


def run_op(wl, op, outcome: Outcome, tracer=None) -> None:
    """Execute, time and check one op, recording it in `outcome`."""
    from workloads import SKIP

    span = tracer.open(tracer.name_id(f"op.{_kind(op)}")) if tracer is not None else None
    signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
    start = time.perf_counter()
    try:
        try:
            result = wl.execute(op)
        finally:
            latency = time.perf_counter() - start
            if span is not None:
                tracer.close(span)
        problem = wl.check(op, result)
    except OpTimeout:
        result, problem = None, f"timed out after {OP_TIMEOUT_S} s"
    except Exception as exc:  # any library error fails this op, not the run
        result, problem = None, f"{type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    outcome.attempted += 1
    if result is SKIP and problem is None:
        outcome.skipped += 1
        return
    outcome.latencies.append(latency)
    if problem is None:
        outcome.passed += 1
    else:
        outcome.failures.append(f"{_kind(op)}: {problem}")
    if wl.child_rss_kb is not None and result is not None:
        outcome.child_rss_kb = max(outcome.child_rss_kb, wl.child_rss_kb(result))


def run_blocks(wl, blocks, seconds: float, min_ops: int = 0, tracer=None) -> Outcome:
    """Whole blocks until `seconds` have passed and at least `min_ops` ops have run."""
    outcome = Outcome()
    begin = time.perf_counter()
    for block in blocks:
        for op in block:
            if tracer is not None:
                tracer.begin_op(outcome.attempted)
            run_op(wl, op, outcome, tracer)
        if time.perf_counter() - begin >= seconds and outcome.attempted >= min_ops:
            break
    outcome.elapsed = time.perf_counter() - begin
    return outcome


def _child(args: list, timeout: float = 120) -> tuple[float, str]:
    """Run this interpreter on `args` from the checkout root; wall seconds and stdout."""
    from workloads import cli_env

    start = time.perf_counter()
    done = subprocess.run([sys.executable, *args], cwd=ROOT, env=cli_env(), capture_output=True,
                          text=True, timeout=timeout)
    wall = time.perf_counter() - start
    if done.returncode != 0:
        raise RuntimeError(f"child {args[:3]} exited {done.returncode}: {done.stderr.strip()[-300:]}")
    return wall, done.stdout


def measure_setup(workload: str, seed: int) -> list:
    """Wall time of fresh interpreters that import the package and generate the first block."""
    args = [str(HERE / "run.py"), "--setup-only", "--workload", workload, "--seed", str(seed)]
    return [_child(args)[0] for _ in range(SETUP_REPEATS)]


def _quantile(values: list, q: int) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[q - 1] if len(values) > 1 else values[0]


def _result_line(outcome: Outcome, metrics: dict) -> str:
    return json.dumps({"correct": outcome.failed == 0, "attempted": outcome.attempted,
                       "failed": outcome.failed, "metrics": metrics})


def _report_failures(outcome: Outcome) -> None:
    for reason in outcome.failures[:10]:
        print(f"  FAILED {reason}")
    if outcome.failed > 10:
        print(f"  ... {outcome.failed - 10} more failed ops")


def end_to_end(wl, seed: int, seconds: float) -> str:
    setups = measure_setup(wl.name, seed)
    outcome = run_blocks(wl, wl.blocks(seed), seconds, MIN_OPS)
    if not outcome.latencies:
        raise RuntimeError("no op completed")
    rss_kb = outcome.child_rss_kb or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    n = len(outcome.latencies)
    metrics = {
        "setup_s": (statistics.median(setups), "s", f"median of {len(setups)} set-ups"),
        "throughput_ops_per_s": (outcome.throughput, "ops/s",
                                 f"{outcome.passed} checked ops in {outcome.elapsed:.2f} s"),
        "latency_p50_ms": (statistics.median(outcome.latencies) * 1e3, "ms", f"n={n}"),
        "latency_p90_ms": (_quantile(outcome.latencies, 9) * 1e3, "ms", f"n={n}"),
        "peak_rss_mb": (rss_kb / 1024, "MB", "largest child" if outcome.child_rss_kb else "this process"),
    }
    print(f"workload {wl.name} seed {seed}: {outcome.attempted} ops attempted, "
          f"{outcome.failed} failed, {outcome.skipped} skipped (p=2 branch gap)")
    for name, (value, unit, note) in metrics.items():
        print(f"  {name:22s} {value:12.4f} {unit:6s} ({note})")
    print(f"  {'error_rate':22s} {outcome.failed / outcome.attempted:12.4f} {'':6s} "
          f"({outcome.failed}/{outcome.attempted})")
    _report_failures(outcome)
    return _result_line(outcome, {name: {"value": value, "unit": unit}
                                  for name, (value, unit, _) in metrics.items()})


def _import_ms(module: str) -> float:
    code = f"import time; t = time.perf_counter(); import {module}; print(time.perf_counter() - t)"
    return float(_child(["-c", code])[1]) * 1e3


def _pass_time(wl, ops: list) -> float:
    start = time.perf_counter()
    for op in ops:
        wl.execute(op)
    return time.perf_counter() - start


def tracing_overhead(wl, seed: int, child_dir: Path) -> float:
    """Traced over untraced wall time of one fixed set of the workload's ops.

    The set is the seed's first ops that each take under OVERHEAD_OP_MAX_S,
    up to OVERHEAD_PASS_S in all; timing them once to choose them also warms
    the caches that both kinds of pass then share.  Each of OVERHEAD_ROUNDS
    rounds times an untraced and a traced pass in this process, alternating
    which goes first; the result is the median of the rounds' ratios.
    """
    import tracing

    ops, total = [], 0.0
    for op in itertools.islice(itertools.chain.from_iterable(wl.blocks(seed)), 1000):
        took = _pass_time(wl, [op])
        if took < OVERHEAD_OP_MAX_S:
            ops.append(op)
            total += took
        if total >= OVERHEAD_PASS_S:
            break
    ratios = []
    for round_ in range(OVERHEAD_ROUNDS):
        times = {}
        for traced in (False, True) if round_ % 2 == 0 else (True, False):
            if traced:
                with tracing.active(tracing.Tracer(), child_dir):
                    times[traced] = _pass_time(wl, ops)
            else:
                times[traced] = _pass_time(wl, ops)
        ratios.append(times[True] / times[False])
    return statistics.median(ratios)


def traced(wl, seed: int, seconds: float) -> str:
    import layers
    import tracing

    trace_dir = ROOT / ".perfbench-out" / f"trace-{wl.name}-seed{seed}"
    shutil.rmtree(trace_dir, ignore_errors=True)
    (trace_dir / "overhead").mkdir(parents=True)
    tracer = tracing.Tracer()
    with tracing.active(tracer, trace_dir):
        outcome = run_blocks(wl, wl.blocks(seed), seconds / 2, tracer=tracer)
    tracer.dump(trace_dir / "run")
    spans = layers.load_all(trace_dir)
    metrics = layers.layer_metrics(spans)

    metrics["trace.overhead_ratio"] = tracing_overhead(wl, seed, trace_dir / "overhead")
    shutil.rmtree(trace_dir / "overhead")
    metrics["cli.interpreter_ms"] = statistics.median(
        _child(["-c", "pass"])[0] * 1e3 for _ in range(REFERENCE_REPEATS))
    metrics["cli.numpy_import_ms"] = statistics.median(_import_ms("numpy") for _ in range(REFERENCE_REPEATS))
    metrics["cli.import_ms"] = statistics.median(
        _import_ms("padic_oscillator.cli") for _ in range(REFERENCE_REPEATS))

    print(f"workload {wl.name} seed {seed} traced: {outcome.attempted} ops, {outcome.failed} failed; "
          f"{len(spans[1]['start'])} spans in {trace_dir.relative_to(ROOT)}/")
    for name, unit, _ in layers.LAYER_METRICS:
        note = "" if metrics[name] is not None else "  (not reached by this workload)"
        print(f"  {name:58s} {float(metrics[name] or 0):14.4f} {unit}{note}")
    _report_failures(outcome)
    return _result_line(outcome, {name: {"value": float(metrics[name] or 0), "unit": unit}
                                  for name, unit, _ in layers.LAYER_METRICS})


def run_all(args) -> int:
    """Each workload in its own interpreter, one after another."""
    results = {}
    for name in WORKLOAD_NAMES:
        done = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], cwd=ROOT, capture_output=True, text=True)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if done.returncode != 0 or not lines:
            print(done.stderr, file=sys.stderr)
            return done.returncode or 1
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import the package, generate the first block and exit (times set-up)")
    args = parser.parse_args(argv)

    if not (SRC / "padic_oscillator" / "__init__.py").is_file():
        print(f"error: no padic_oscillator sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("PADIC_OSC_THREADS", None)  # the library's default
    if args.workload == "all":
        return run_all(args)
    sys.path[:0] = [str(SRC), str(HERE)]
    if not args.setup_only:
        compileall.compile_dir(SRC, quiet=2)  # children start from bytecode, as installed code does
    from workloads import WORKLOADS, po

    if not Path(po.__file__).resolve().is_relative_to(SRC):
        print(f"error: padic_oscillator imported from {po.__file__}, not {SRC}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    if args.setup_only:
        next(wl.blocks(args.seed))
        return 0
    signal.signal(signal.SIGALRM, _on_alarm)
    run = traced if args.trace else end_to_end
    print(run(wl, args.seed, args.seconds), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
