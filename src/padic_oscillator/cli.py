"""Command-line surface: one subcommand per operation family.

All reports are JSON documents tagged "schema": "padic-oscillator/1",
printed with sorted keys so identical invocations are byte-identical;
tables can be CSV instead.  Rationals travel as "num/den" strings in
both directions — no floating-point input on exact paths.

Exit codes: 0 success; 1 suite failure; 3 oracle depth too small;
4 caustic endpoints; 5 divergent series evaluation; 6 unstable phase
precision; 7 prime cutoff too small; 8 non-normalized factor; 9 oracle
sample count above its budget; 10 magnitude too large for a float;
64 usage errors.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys
from fractions import Fraction

from .adelic import (
    adelic_propagator_product,
    discreteness_profile,
    vacuum_report,
    vacuum_state,
)
from .classical_oscillator import (
    DEFAULT_ORDER,
    boundary_action,
    classical_action,
    endpoint_data,
    endpoint_momenta,
    model_from_omega_coeffs,
    parse_preset,
    solve_amplitude_phase,
    trajectory_endpoints,
)
from .errors import (
    CausticError,
    DepthTooSmallError,
    DivergenceError,
    MagnitudeOverflowError,
    NormalizationError,
    OracleBudgetError,
    PrecisionError,
    PrimeCutoffError,
)
from .exact_numbers import _require_prime, frac_str, parse_rational
from .gauss_analysis import GaussIntegralSpec, gauss_brute_force, gauss_closed_form
from .propagator import (
    REAL_PLACE,
    compose_oracle,
    evaluate_kernel,
    kernel_at,
    kernel_solution,
    phase_doubling_check,
)
from .suites import SUITE_ORDER, run_all, run_suite

SCHEMA = "padic-oscillator/1"

_EXIT_BY_TYPE = {
    DepthTooSmallError: 3,
    CausticError: 4,
    DivergenceError: 5,
    PrecisionError: 6,
    PrimeCutoffError: 7,
    NormalizationError: 8,
    OracleBudgetError: 9,
    MagnitudeOverflowError: 10,
}


class _Parser(argparse.ArgumentParser):
    """argparse reserves exit status 2; route usage errors to 64 instead."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(64, f"{self.prog}: error: {message}\n")


def _encode(value):
    """The JSON form of each value json cannot write: a rational as "num/den",
    a complex as {"re", "im"}, then an object's own to_json or a dataclass's fields."""
    if isinstance(value, Fraction):
        return frac_str(value)
    if isinstance(value, complex):
        return {"re": value.real, "im": value.imag}
    if hasattr(value, "to_json"):
        return value.to_json()
    if dataclasses.is_dataclass(value):
        return {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}
    raise TypeError(f"no JSON form for {type(value).__name__}")


def _emit(command: str, payload: dict) -> None:
    doc = {"schema": SCHEMA, "command": command}
    doc.update(payload)
    print(json.dumps(doc, sort_keys=True, indent=2, default=_encode))


def _parse_place(text: str):
    return REAL_PLACE if text == REAL_PLACE else int(text)


def _parse_primes(text: str) -> tuple:
    return tuple(int(piece) for piece in text.split(",") if piece.strip())


def _build_model(args, order: int):
    if args.omega:
        coeffs = [parse_rational(piece) for piece in args.omega.split(",")]
        model = model_from_omega_coeffs(coeffs, order=order, label="inline")
    else:
        model = parse_preset(args.preset, order)
    if args.mass:
        model = dataclasses.replace(model, mass=parse_rational(args.mass))
    return model


# ---------------------------------------------------------------------------
# Subcommands


def cmd_gauss(args) -> int:
    spec = GaussIntegralSpec(args.prime, parse_rational(args.alpha),
                             parse_rational(args.beta), args.nu)
    closed = gauss_closed_form(spec)
    payload = {"spec": spec, "closed": closed}
    if args.oracle_depth is not None:
        oracle = gauss_brute_force(spec, depth=args.oracle_depth)
        payload["oracle"] = oracle
        payload["deviation"] = abs(closed.value - oracle)
    _emit("gauss", payload)
    return 0


def cmd_classical(args) -> int:
    order = args.order
    model = _build_model(args, order)
    ap = solve_amplitude_phase(model, order)
    ep = endpoint_data(ap, parse_rational(args.t1), parse_rational(args.t2),
                       parse_rational(args.x1), parse_rational(args.x2),
                       primes=_parse_primes(args.primes))
    trajectory = trajectory_endpoints(ap, ep)
    k1, k2 = endpoint_momenta(ap, ep)
    quad = classical_action(ap, ep)
    boundary = boundary_action(ap, ep)
    _emit("classical", {
        "model": model.label,
        "order": order,
        "endpoints": {
            "t_prime": ep.t_prime, "x_prime": ep.x_prime,
            "t_dprime": ep.t_dprime, "x_dprime": ep.x_dprime,
        },
        "certified_primes": ep.certified,
        "trajectory_coefficients": trajectory.coeffs,
        "momenta": {"k_prime": k1, "k_dprime": k2},
        "action": {
            "quadratic_form": quad,
            "boundary_form": boundary,
            "difference": quad - boundary,
        },
    })
    return 0


def cmd_propagator(args) -> int:
    order = args.order
    place = _parse_place(args.place)
    model = _build_model(args, order)
    planck = parse_rational(args.planck)
    t1, t2 = parse_rational(args.t1), parse_rational(args.t2)
    ap = kernel_solution(model, order)
    kernel = kernel_at(place, ap, t1, t2, planck=planck)
    x_in = parse_rational(args.x1)
    x_out = parse_rational(args.x2)
    value = evaluate_kernel(kernel, x_out, x_in)
    payload = {
        "model": model.label,
        "place": str(place),
        "order": order,
        "kernel": {
            "coef_out": kernel.coef_out,
            "coef_cross": kernel.coef_cross,
            "coef_in": kernel.coef_in,
            "mass": kernel.mass,
            "planck": kernel.planck,
        },
        "value": value,
        "modulus": value.norm.value(),
    }
    if args.compose is not None:
        if place == REAL_PLACE:
            raise ValueError("--compose needs a p-adic place (the middle "
                             "integral oracle works over Z_p balls)")
        t_mid = parse_rational(args.compose)
        late = kernel_at(place, ap, t_mid, t2, planck=planck)
        early = kernel_at(place, ap, t1, t_mid, planck=planck)
        report = compose_oracle(late, early, kernel)
        payload["compose"] = {
            "prime": report.prime,
            "depth": report.depth,
            "samples": len(report.samples),
            "ball_exponents": report.ball_exponents,
            "max_deviation": report.max_deviation,
        }
    if args.stability_check:
        angles = phase_doubling_check(lambda o: _build_model(args, o), t1, t2, x_in, x_out,
                                      places=(place,), planck=planck, order=order)
        payload["stability"] = {
            str(key): float(value) if key == REAL_PLACE else value
            for key, value in angles.items()
        }
    _emit("propagator", payload)
    return 0


def cmd_vacuum(args) -> int:
    order = args.order
    model = _build_model(args, order)
    planck = parse_rational(args.planck)
    t1, t2 = parse_rational(args.t1), parse_rational(args.t2)
    ap, reports = None, []
    for p in _parse_primes(args.primes):
        _require_prime(p)  # a bad prime is reported before the one solve
        ap = ap or kernel_solution(model, order)
        kernel = kernel_at(p, ap, t1, t2, planck=planck)
        entry: dict = {"prime": p}
        for method, key in (("closed-form", "closed"), ("brute-force", "brute")):
            if args.method in (method, "both"):
                entry[key] = vacuum_report(kernel, method)
        if args.method == "both":
            entry["agree"] = entry["closed"].holds == entry["brute"].holds
        reports.append(entry)
    _emit("vacuum", {"model": model.label, "planck": planck, "reports": reports})
    return 0


def cmd_discreteness(args) -> int:
    state = vacuum_state(parse_rational(args.mass), parse_rational(args.frequency),
                         parse_rational(args.planck))
    xs = [parse_rational(piece) for piece in args.xs.split(",")]
    rows = discreteness_profile(state, xs, prime_cutoff=args.cutoff)
    if args.format == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(["x", "value"])
        for row in rows:
            writer.writerow([frac_str(row["x"]), row["value"]])
        return 0
    _emit("discreteness", {"cutoff": args.cutoff, "state": state.real_factor, "rows": rows})
    return 0


def cmd_product(args) -> int:
    order = args.order
    model = _build_model(args, order)
    places = tuple(_parse_place(piece) for piece in args.places.split(",") if piece.strip())
    product = adelic_propagator_product(
        places, model, parse_rational(args.t1), parse_rational(args.t2),
        parse_rational(args.x2), parse_rational(args.x1),
        planck=parse_rational(args.planck), order=order)
    _emit("product", {"model": model.label, "report": product})
    return 0


def cmd_suite(args) -> int:
    if args.name == "all":
        results = run_all(seed=args.seed)
    else:
        results = [run_suite(args.name, seed=args.seed, cases=args.cases)]
    _emit("suite", {"name": args.name, "seed": args.seed, "results": results})
    return 0 if all(result.passed for result in results) else 1


# ---------------------------------------------------------------------------
# Parser assembly


def _add_model_flags(sub) -> None:
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--preset", help="model family: example1(a,b), "
                                        "example2(a,b), constant(w0) or free")
    group.add_argument("--omega", help="inline frequency coefficients c0,c1,...")
    sub.add_argument("--mass", help="override the particle mass (num/den)")


def _add_window_flags(sub, with_x: bool = True) -> None:
    sub.add_argument("--t1", required=True, help="initial time (num/den)")
    sub.add_argument("--t2", required=True, help="final time (num/den)")
    if with_x:
        sub.add_argument("--x1", default="0", help="initial position (num/den)")
        sub.add_argument("--x2", default="0", help="final position (num/den)")


def build_parser() -> _Parser:
    parser = _Parser(prog="padic-osc",
                     description="Exact oscillator mechanics over the reals "
                                 "and every p-adic completion.")
    subs = parser.add_subparsers(dest="command", required=True)

    gauss = subs.add_parser("gauss", help="quadratic character ball integral")
    gauss.add_argument("-p", "--prime", type=int, required=True)
    gauss.add_argument("-a", "--alpha", required=True, help="num/den")
    gauss.add_argument("-b", "--beta", default="0", help="num/den")
    gauss.add_argument("-n", "--nu", type=int, default=0, help="ball exponent")
    gauss.add_argument("--oracle-depth", type=int, default=None,
                       help="also run the coset-sum oracle at this depth")
    gauss.set_defaults(func=cmd_gauss)

    classical = subs.add_parser("classical", help="two-point trajectory and action")
    _add_model_flags(classical)
    _add_window_flags(classical)
    classical.add_argument("--order", type=int, default=DEFAULT_ORDER)
    classical.add_argument("--primes", default="",
                           help="comma list of primes to certify evaluation at")
    classical.set_defaults(func=cmd_classical)

    propagator = subs.add_parser("propagator", help="quadratic kernel at one place")
    propagator.add_argument("--place", required=True, help="'real' or a prime")
    _add_model_flags(propagator)
    _add_window_flags(propagator)
    propagator.add_argument("--planck", default="1", help="num/den")
    propagator.add_argument("--order", type=int, default=DEFAULT_ORDER)
    propagator.add_argument("--compose", default=None, metavar="T_MID",
                            help="split at this time and run the composition oracle")
    propagator.add_argument("--stability-check", action="store_true",
                            help="re-solve at doubled order and require the "
                                 "action phase angle to stay put")
    propagator.set_defaults(func=cmd_propagator)

    vacuum = subs.add_parser("vacuum", help="unit-ball vacuum invariance check")
    vacuum.add_argument("-p", "--primes", required=True, help="comma list of primes")
    _add_model_flags(vacuum)
    _add_window_flags(vacuum, with_x=False)
    vacuum.add_argument("--planck", default="1", help="num/den")
    vacuum.add_argument("--method", choices=("closed-form", "brute-force", "both"),
                        default="both")
    vacuum.add_argument("--order", type=int, default=DEFAULT_ORDER)
    vacuum.set_defaults(func=cmd_vacuum)

    disc = subs.add_parser("discreteness", help="spatial support table")
    disc.add_argument("--xs", required=True, help="comma list of positions (num/den)")
    disc.add_argument("--cutoff", type=int, default=100, help="prime cutoff")
    disc.add_argument("--mass", default="1")
    disc.add_argument("--frequency", default="1")
    disc.add_argument("--planck", default="1")
    disc.add_argument("--format", choices=("json", "csv"), default="json")
    disc.set_defaults(func=cmd_discreteness)

    product = subs.add_parser("product", help="kernel values over a place set")
    product.add_argument("--places", required=True,
                         help="comma list, e.g. real,3,5 (empty set allowed)")
    _add_model_flags(product)
    _add_window_flags(product)
    product.add_argument("--planck", default="1", help="num/den")
    product.add_argument("--order", type=int, default=DEFAULT_ORDER)
    product.set_defaults(func=cmd_product)

    suite = subs.add_parser("suite", help="named verification sweeps")
    suite.add_argument("name", choices=SUITE_ORDER + ("all",))
    suite.add_argument("--seed", type=int, default=0)
    suite.add_argument("--cases", type=int, default=None)
    suite.set_defaults(func=cmd_suite)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
        return code
    except BrokenPipeError:  # the reader went away: silence stdout, exit 1
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except tuple(_EXIT_BY_TYPE) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in _EXIT_BY_TYPE.items() if isinstance(exc, cls))
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 64


if __name__ == "__main__":
    sys.exit(main())
