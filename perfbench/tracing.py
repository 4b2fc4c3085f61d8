"""Spans recorded from outside the library.

``install`` wraps the library's layer entry points: each function at its
defining module and at every module that imported it by name, and the
``RationalSeries`` methods on the class; the function it returns puts
the originals back.  A wrapper records one span (name, start, end,
parent span, op id, tag) in column arrays held in memory;
``Tracer.dump`` writes them out when the run ends.  A span's self time
is its duration minus the durations of its direct children.

Command-line children trace themselves: while ``CHILD_TRACE_DIR`` is set
in the environment, ``childtrace/sitecustomize.py`` installs a tracer in
each child at start-up and dumps its spans into that directory at exit,
tagged with the op id in ``CHILD_TRACE_OP``; ``layers.load_all`` merges
them with the parent's spans.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import sys
import time
from array import array
from pathlib import Path

from arith import oracle_level

CHILD_TRACE_DIR = "PERFBENCH_CHILD_TRACE_DIR"
CHILD_TRACE_OP = "PERFBENCH_CHILD_TRACE_OP"
COEFF_BITS = "classical_oscillator.solve_amplitude_phase.coeff_bits"  # mark span, tag = bits


class Tracer:
    """Column store of spans plus the open-span stack that gives parents."""

    FIELDS = (("name", "H"), ("start", "d"), ("end", "d"), ("parent", "l"),
              ("op", "l"), ("tag", "q"), ("failed", "b"))

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.cols = {field: array(code) for field, code in self.FIELDS}
        self._stack: list[int] = []
        self.op_id = -1

    def begin_op(self, op_id: int) -> None:
        """Tag later spans, and those of command-line children started from now on, with `op_id`."""
        self.op_id = op_id
        os.environ[CHILD_TRACE_OP] = str(op_id)

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int, tag: int = 0) -> int:
        c = self.cols
        index = len(c["start"])
        c["name"].append(name_id)
        c["parent"].append(self._stack[-1] if self._stack else -1)
        c["op"].append(self.op_id)
        c["tag"].append(tag)
        c["failed"].append(0)
        c["end"].append(0.0)
        self._stack.append(index)
        c["start"].append(time.perf_counter())
        return index

    def close(self, index: int, failed: bool = False) -> None:
        self.cols["end"][index] = time.perf_counter()
        self._stack.pop()
        if failed:
            self.cols["failed"][index] = 1

    def mark(self, name_id: int, tag: int) -> None:
        """A zero-length span that carries a value in its tag."""
        self.close(self.open(name_id, tag))

    def dump(self, path: Path) -> None:
        """Write the spans as `path`.json (names, layout) and `path`.bin (columns in order)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path.with_suffix(".bin"), "wb") as out:
            for field, _ in self.FIELDS:
                self.cols[field].tofile(out)
        header = {"names": self.names, "count": len(self.cols["start"]),
                  "columns": [[field, code, self.cols[field].itemsize] for field, code in self.FIELDS]}
        path.with_suffix(".json").write_text(json.dumps(header))


# ---------------------------------------------------------------------------
# Wrapping the library


def _arg(args, kwargs, index: int, name: str, default):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _order_tag(args, kwargs) -> int:
    return _arg(args, kwargs, 1, "order", 24)


def _modulus_tag(args, kwargs) -> int:
    spec = args[0]
    return spec.prime ** oracle_level(spec.prime, spec.alpha, spec.beta, spec.ball_exponent)


def _method_tag(args, kwargs) -> int:
    return int(_arg(args, kwargs, 5, "method", "closed-form") == "brute-force")


def _places_tag(args, kwargs) -> int:
    return len(tuple(args[0]))


def _coeff_bits(tracer: Tracer, args, kwargs, ap) -> None:
    """Mark the widest coefficient of an order-96 solve."""
    if _order_tag(args, kwargs) != 96:
        return
    bits = max(max(c.numerator.bit_length(), c.denominator.bit_length())
               for series in (ap.amp, ap.phase, ap.cos_phase, ap.sin_phase)
               for c in series.coeffs)
    tracer.mark(tracer.name_id(COEFF_BITS), bits)


# (module, function, tag of the call, hook on the result)
TRACED = (
    ("exact_numbers", "padic_valuation", None, None),
    ("exact_numbers", "is_prime", None, None),
    ("exact_numbers", "fractional_part", None, None),
    ("classical_oscillator", "solve_amplitude_phase", _order_tag, _coeff_bits),
    ("classical_oscillator", "endpoint_data", None, None),
    ("classical_oscillator", "convergence_certificate", None, None),
    ("gauss_analysis", "gauss_brute_force", _modulus_tag, None),
    ("gauss_analysis", "gauss_closed_form", None, None),
    ("gauss_analysis", "lambda_p", None, None),
    ("propagator", "oscillator_kernel", None, None),
    ("propagator", "evaluate_kernel", None, None),
    ("propagator", "phase_doubling_check", None, None),
    ("propagator", "compose_oracle", None, None),
    ("adelic", "vacuum_check", _method_tag, None),
    ("adelic", "adelic_propagator_product", _places_tag, None),
    ("adelic", "omega_product", None, None),
    ("adelic", "discreteness_profile", None, None),
)
SERIES_METHODS = (("compose", "compose"), ("__mul__", "mul"), ("__rmul__", "mul"),
                  ("__truediv__", "truediv"), ("evaluate", "evaluate"))


def _wrap(tracer: Tracer, fn, span: str, tag_of=None, after=None):
    name_id = tracer.name_id(span)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = tracer.open(name_id, tag_of(args, kwargs) if tag_of else 0)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.close(index, failed=True)
            raise
        tracer.close(index)
        if after is not None:
            after(tracer, args, kwargs, result)
        return result

    return traced


def install(tracer: Tracer):
    """Route every listed entry point of the imported library through `tracer`.

    Modules imported later bind the wrapped functions.  Returns a function
    that puts the originals back.
    """
    modules = [m for name, m in list(sys.modules.items())
               if name == "padic_oscillator" or name.startswith("padic_oscillator.")]
    replaced = []  # (owner, attribute, original)
    for module, attr, tag_of, after in TRACED:
        original = getattr(sys.modules[f"padic_oscillator.{module}"], attr)
        traced = _wrap(tracer, original, f"{module}.{attr}", tag_of, after)
        for m in modules:
            for key in [k for k, v in vars(m).items() if v is original]:
                replaced.append((m, key, original))
                setattr(m, key, traced)
    series = sys.modules["padic_oscillator.series"].RationalSeries
    for attr, short in SERIES_METHODS:
        replaced.append((series, attr, vars(series)[attr]))
        setattr(series, attr, _wrap(tracer, getattr(series, attr), f"series.{short}"))

    def uninstall() -> None:
        for owner, attr, original in reversed(replaced):
            setattr(owner, attr, original)

    return uninstall


@contextlib.contextmanager
def active(tracer: Tracer, child_dir: Path):
    """Trace this process into `tracer`, and command-line children it starts into `child_dir`."""
    uninstall = install(tracer)
    os.environ[CHILD_TRACE_DIR] = str(child_dir)
    try:
        yield
    finally:
        uninstall()
        del os.environ[CHILD_TRACE_DIR]
