"""Per-layer metrics from span sets.

A span set is (names, columns): the span names and one numpy array per
``tracing.Tracer`` field, taken from a live tracer (``spans_of``) or read
back from dumps (``load``, ``load_all``), where a traced run and each of
its command-line children leave one dump apiece in the run's directory.

Per-layer metrics come only from the traced workload's own spans.  A
metric whose layer the workload never reaches has no sample: ``None``
here, which the run prints as 0 marked "not reached by this workload".
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from tracing import COEFF_BITS, Tracer

SMALL_MODULUS, DEEP_MODULUS = 1 << 12, 1 << 21
CLI_SUBCOMMANDS = ("gauss", "classical", "propagator", "vacuum", "discreteness", "product", "suite")

# (name, unit, better); the same list is BENCHMARK.json's per_layer
LAYER_METRICS = (
    ("exact_numbers.padic_valuation.calls", "count", "lower"),
    ("exact_numbers.padic_valuation.self_s", "s", "lower"),
    ("exact_numbers.is_prime.calls", "count", "lower"),
    ("exact_numbers.is_prime.self_s", "s", "lower"),
    ("exact_numbers.fractional_part.self_s", "s", "lower"),
    ("series.compose.calls", "count", "lower"),
    ("series.compose.self_s", "s", "lower"),
    ("series.mul.self_s", "s", "lower"),
    ("series.truediv.self_s", "s", "lower"),
    ("series.evaluate.self_s", "s", "lower"),
    ("classical_oscillator.solve_amplitude_phase.calls", "count", "lower"),
    ("classical_oscillator.solve_amplitude_phase.o24_ms", "ms", "lower"),
    ("classical_oscillator.solve_amplitude_phase.o48_ms", "ms", "lower"),
    ("classical_oscillator.solve_amplitude_phase.o96_ms", "ms", "lower"),
    ("classical_oscillator.solve_amplitude_phase.max_coeff_bits", "bits", "lower"),
    ("classical_oscillator.endpoint_data.self_s", "s", "lower"),
    ("classical_oscillator.convergence_certificate.calls", "count", "lower"),
    ("gauss_analysis.gauss_brute_force.calls", "count", "lower"),
    ("gauss_analysis.gauss_brute_force.self_s", "s", "lower"),
    ("gauss_analysis.gauss_brute_force.cosets", "count", "lower"),
    ("gauss_analysis.gauss_brute_force.ns_per_coset_small", "ns", "lower"),
    ("gauss_analysis.gauss_brute_force.ns_per_coset_mid", "ns", "lower"),
    ("gauss_analysis.gauss_brute_force.ns_per_coset_deep", "ns", "lower"),
    ("gauss_analysis.gauss_closed_form.self_s", "s", "lower"),
    ("gauss_analysis.gauss_closed_form.decided_ratio", "ratio", "higher"),
    ("gauss_analysis.lambda_p.calls", "count", "lower"),
    ("gauss_analysis.lambda_p.self_s", "s", "lower"),
    ("propagator.oscillator_kernel.self_s", "s", "lower"),
    ("propagator.evaluate_kernel.self_s", "s", "lower"),
    ("propagator.phase_doubling_check.self_s", "s", "lower"),
    ("propagator.compose_oracle.self_s", "s", "lower"),
    ("adelic.vacuum_check.closed_ms", "ms", "lower"),
    ("adelic.vacuum_check.brute_ms", "ms", "lower"),
    ("adelic.adelic_propagator_product.per_place_ms", "ms", "lower"),
    ("adelic.omega_product.self_s", "s", "lower"),
    ("adelic.discreteness_profile.self_s", "s", "lower"),
    ("cli.interpreter_ms", "ms", "lower"),
    ("cli.numpy_import_ms", "ms", "lower"),
    ("cli.import_ms", "ms", "lower"),
) + tuple((f"cli.{sub}.p50_ms", "ms", "lower") for sub in CLI_SUBCOMMANDS) + (
    ("trace.overhead_ratio", "ratio", "lower"),
)


def spans_of(tracer: Tracer) -> tuple:
    return list(tracer.names), {field: np.array(tracer.cols[field], dtype=code)
                                for field, code in Tracer.FIELDS}


def load(path: Path) -> tuple:
    """The span set `Tracer.dump` wrote as `path`.json and `path`.bin."""
    header = json.loads(path.with_suffix(".json").read_text())
    with open(path.with_suffix(".bin"), "rb") as data:
        cols = {field: np.fromfile(data, dtype=code, count=header["count"])
                for field, code, _ in header["columns"]}
    return header["names"], cols


def merge(parts: list) -> tuple:
    """One span set from several: names unified, parent indices shifted."""
    names = list(dict.fromkeys(name for part_names, _ in parts for name in part_names))
    ids = {name: i for i, name in enumerate(names)}
    merged = {field: [] for field, _ in Tracer.FIELDS}
    offset = 0
    for part_names, cols in parts:
        for field, _ in Tracer.FIELDS:
            column = cols[field]
            if field == "name":
                column = np.array([ids[name] for name in part_names], dtype=np.int64)[column]
            elif field == "parent":
                column = np.where(column >= 0, column + offset, -1)
            merged[field].append(column)
        offset += len(cols["start"])
    return names, {field: np.concatenate(merged[field]).astype(code) for field, code in Tracer.FIELDS}


def load_all(directory: Path) -> tuple:
    """The merged span sets of every dump in `directory`: a run and its children."""
    return merge([load(path.with_suffix("")) for path in sorted(directory.glob("*.json"))])


def _by_name(spans: tuple) -> dict:
    """name -> (durations, self times, tags, failed flags) of its spans."""
    names, cols = spans
    duration = cols["end"] - cols["start"]
    has_parent = cols["parent"] >= 0
    child = np.bincount(cols["parent"][has_parent], weights=duration[has_parent],
                        minlength=len(duration))
    own = duration - child
    out = {}
    for name_id, name in enumerate(names):
        mask = cols["name"] == name_id
        if mask.any():
            out[name] = (duration[mask], own[mask], cols["tag"][mask], cols["failed"][mask])
    return out


def _median_ms(values) -> float | None:
    return float(np.median(values)) * 1e3 if len(values) else None


def layer_metrics(spans: tuple) -> dict:
    """Every per-layer metric over a span set; None where the workload has no sample."""
    by_name = _by_name(spans)
    empty = (np.zeros(0),) * 4
    out = {}
    for name, unit, _ in LAYER_METRICS:
        parts = name.split(".")
        span, stat = ".".join(parts[:-1]), parts[-1]
        duration, own, tag, failed = by_name.get(span, empty)
        if stat == "calls":
            out[name] = len(duration) or None
        elif stat == "self_s":
            out[name] = float(own.sum()) if len(own) else None
        elif stat.startswith("o") and stat.endswith("_ms"):  # o24_ms, o48_ms, o96_ms
            out[name] = _median_ms(duration[tag == int(stat[1:-3])])
        elif stat == "max_coeff_bits":
            bits = by_name.get(COEFF_BITS, empty)[2]
            out[name] = int(bits.max()) if len(bits) else None
        elif stat == "cosets":
            out[name] = int(tag.sum()) if len(tag) else None
        elif stat.startswith("ns_per_coset"):
            size = stat.rsplit("_", 1)[1]
            bucket = {"small": tag <= SMALL_MODULUS, "deep": tag > DEEP_MODULUS}.get(
                size, (tag > SMALL_MODULUS) & (tag <= DEEP_MODULUS))
            out[name] = float(own[bucket].sum() / tag[bucket].sum() * 1e9) if bucket.any() else None
        elif stat == "decided_ratio":
            out[name] = float(1 - failed.mean()) if len(failed) else None
        elif stat in ("closed_ms", "brute_ms"):
            out[name] = _median_ms(duration[tag == int(stat == "brute_ms")])
        elif stat == "per_place_ms":
            out[name] = float(duration.sum() / tag.sum() * 1e3) if len(tag) else None
        elif stat == "p50_ms":  # cli.<sub>.p50_ms, over the op spans op.cli.<sub>
            out[name] = _median_ms(by_name.get(f"op.{span}", empty)[0])
        else:  # measured by the runner: the cli references and the tracing overhead
            out[name] = None
    return out
