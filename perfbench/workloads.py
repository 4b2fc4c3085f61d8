"""The four benchmark workloads: seeded inputs, one op each, and its check.

A workload turns a seed into blocks of ops.  An op is a plain tuple of
ints, Fractions and strings; ``execute`` runs it against the library's
public functions (or the ``padic-osc`` command line, for ``cli-cold``) and
``check`` returns None when the result is right, else a one-line reason.
Checks use only ``arith``, never the library.

Blocks fix the mix: every block holds the same kinds of op in the same
proportions, so a run that stops on a block boundary always measures the
same mix.  Where an op's cost depends on its parameters (oracle moduli,
kernel models, primes, cutoffs, bounds), a seed-independent stream draws
them, so every run pays for the same work; the seed draws the rest and
the order of the ops.  Blocks are generated as the run consumes them, so
a faster library never runs out of inputs.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterator

import padic_oscillator as po

from arith import (
    constancy_depth,
    frac_part,
    in_p2_gap,
    is_power_of,
    oracle_cost,
    oracle_level,
    prime_factors,
    primes_below,
    vacuum_expected,
)
from tracing import CHILD_TRACE_DIR

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SKIP = "skip"  # an op that is correctly not checkable (the p = 2 branch gap)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    blocks: Callable[[int], Iterator[list]]  # seed -> blocks, each a list of ops
    execute: Callable[[tuple], object]
    check: Callable[[tuple, object], str | None]
    child_rss_kb: Callable[[object], int] | None = None  # for ops run as child processes


def _rng(name: str, seed: int) -> random.Random:
    return random.Random(f"{name}/{seed}")


def _unit(rng: random.Random, p: int, hi: int = 40) -> Fraction:
    """Signed rational with numerator and denominator in [1, hi], both prime to p."""
    num = rng.randint(1, hi)
    while num % p == 0:
        num = rng.randint(1, hi)
    den = rng.randint(1, hi)
    while den % p == 0:
        den = rng.randint(1, hi)
    return Fraction(rng.choice((-1, 1)) * num, den)


def _p_power(p: int, v: int) -> Fraction:
    return Fraction(p) ** v


# ---------------------------------------------------------------------------
# oracle-sweep: closed-form ball integrals against the coset-sum oracle

LIGHT_COST_CAP = 1 << 21  # the seeded suite's cap on the oracle working set
DEEP_MODULUS_CAP = 5_000_000
ORACLE_PRIMES = (2, 3, 5, 7, 11)
# A block is one deep-tier spec and GROUPS groups, so that the mix a run
# measures does not depend on how many blocks fit in its time.  A group is
# 20 specs drawn like the suite but stratified by oracle modulus M = p^level: 14 with M <= 2^4, 2 up to 2^8, 1 up to 2^12, 2 up to 2^16 and
# one above 2^16.  The suite draws 56%, 19%, 11%, 5% and 5%; the smallest
# class is raised so that p50 falls inside its dense body rather than on its
# tail, and p90 falls in the middle of the 2^16 class.  The two largest
# classes are split further into their (p, level) strata, with suite draws
# per 1000 measured over 400k draws, and filled in proportion by smooth
# weighted round-robin.  The spec above 2^16 comes from a seed-independent
# stream, so every run pays the same heavy work; the seed varies the rest.
CLASS_EDGES = (1 << 4, 1 << 8, 1 << 12)
CLASS_QUOTAS = (14, 2, 1)
MID_STRATA = ((11, 4, 20), (7, 5, 13), (5, 6, 12), (3, 8, 4))  # 2^12 < M <= 2^16
MID_PER_GROUP = 2
HEAVY_STRATA = ((11, 5, 13), (7, 6, 12), (11, 6, 11), (7, 7, 5), (5, 7, 4), (5, 8, 4))
ORACLE_GROUP = sum(CLASS_QUOTAS) + MID_PER_GROUP + 1
GROUPS = 10
# Fixed deep tier, modulus in (2^21, 5e6]: the oracle's plain-Python path;
# the two specs take turns, one per block.
DEEP_TIER = (
    ("gauss", 3, Fraction(2, 3**14), Fraction(0), 0),
    ("gauss", 2, Fraction(3, 2**22), Fraction(5, 2**7), 0),
)


def _suite_spec(rng: random.Random, p: int) -> tuple:
    """One spec drawn like `suite gauss-oracle`, at a given prime."""
    nu = rng.randint(-2, 2)
    alpha = _unit(rng, p) * _p_power(p, rng.randint(-4, 4))
    beta = Fraction(0) if rng.random() < 0.15 else _unit(rng, p) * _p_power(p, rng.randint(-4, 4))
    return ("gauss", p, alpha, beta, nu)


def _schedule(strata: tuple) -> Iterator[tuple]:
    """(p, level) strata: each once, so every run meets them all early, then in
    proportion to their weights, by smooth weighted round-robin."""
    yield from (stratum[:2] for stratum in strata)
    current = [0] * len(strata)
    total = sum(w for _, _, w in strata)
    while True:
        for i, (_, _, w) in enumerate(strata):
            current[i] += w
        best = max(range(len(current)), key=current.__getitem__)
        current[best] -= total
        yield strata[best][:2]


def _gauss_cost_ok(op: tuple) -> bool:
    _, p, alpha, beta, nu = op
    return oracle_cost(p, alpha, beta, nu) <= LIGHT_COST_CAP


def _modulus_class(op: tuple) -> int | None:
    """Index into CLASS_EDGES of the spec's oracle modulus; None above 2^12."""
    modulus = op[1] ** oracle_level(*op[1:])
    return next((i for i, edge in enumerate(CLASS_EDGES) if modulus <= edge), None)


def _stratum_spec(rng: random.Random, p: int, level: int) -> tuple:
    while True:
        op = _suite_spec(rng, p)
        if _gauss_cost_ok(op) and oracle_level(*op[1:]) == level:
            return op


def _oracle_group(rng: random.Random, fixed: random.Random, heavy: tuple, mids: list) -> list:
    group = [_stratum_spec(fixed, *heavy)] + [_stratum_spec(rng, *mid) for mid in mids]
    room = list(CLASS_QUOTAS)
    while len(group) < ORACLE_GROUP:
        op = _suite_spec(rng, rng.choice(ORACLE_PRIMES))
        kind = _modulus_class(op)
        if kind is not None and room[kind] and _gauss_cost_ok(op):
            room[kind] -= 1
            group.append(op)
    return group


def oracle_blocks(seed: int) -> Iterator[list]:
    rng, fixed = _rng("oracle-sweep", seed), _rng("oracle-sweep", "heavy")
    for op in DEEP_TIER:
        modulus = op[1] ** oracle_level(*op[1:])
        if not (1 << 21) < modulus <= DEEP_MODULUS_CAP:
            raise AssertionError(f"deep-tier modulus {modulus} out of range")
    heavies, mids = _schedule(HEAVY_STRATA), _schedule(MID_STRATA)
    for deep in itertools.cycle(DEEP_TIER):
        block = [deep]
        for _ in range(GROUPS):
            block += _oracle_group(rng, fixed, next(heavies), [next(mids) for _ in range(MID_PER_GROUP)])
        rng.shuffle(block)
        yield block


def oracle_execute(op: tuple):
    _, p, alpha, beta, nu = op
    spec = po.GaussIntegralSpec(p, alpha, beta, nu)
    try:
        closed = po.gauss_closed_form(spec)
    except po.IndeterminateBranchError:
        return SKIP
    return closed.value, po.gauss_brute_force(spec)


def oracle_check(op: tuple, result) -> str | None:
    _, p, alpha, _, nu = op
    if result == SKIP:
        return None if in_p2_gap(p, alpha, nu) else "closed form declined a spec outside the p=2 gap"
    closed, oracle = result
    deviation = abs(closed - oracle)
    return None if deviation <= 1e-9 else f"closed form and oracle differ by {deviation:.3g}"


# ---------------------------------------------------------------------------
# kernel-orders: classical solve, both action forms and the kernel, by order

KERNEL_PRIMES = (2, 3, 5, 7, 11, 13)
# (order, place kind, model family, also run phase_doubling_check), per block.
# The block's ops fall into three cost classes far apart: 5 constant models
# at order 24 (~7 ms), 34 other order-24 ops (~25 ms) and 11 heavy ops, the
# order-48 solves and the two doubling checks (~150-250 ms), with the one
# order-96 solve (~2 s) on top.  p50 then lies in the middle of the order-24
# class and p90 in the middle of the heavy one, not on a class boundary.
KERNEL_BLOCK = (
    ((96, "real", "example2", False),)
    + ((48, "real", "example2", False), (48, "real", "omega", False),
       (48, "real", "example1", False), (48, "p", "example1", False)) * 2
    + ((24, "real", "example2", True), (24, "p", "example1", True))
    + ((24, "real", "example1", False),) * 8 + ((24, "real", "example2", False),) * 8
    + ((24, "real", "omega", False),) * 8 + ((24, "p", "example1", False),) * 10
    + ((24, "real", "constant", False),) * 2 + ((24, "p", "constant", False),) * 3
)


def _ratio(rng: random.Random, nums, dens, p: int | None = None) -> Fraction:
    """k/m with k drawn from nums and m from dens; with p given, a p-unit."""
    while True:
        k, m = rng.choice(nums), rng.choice(dens)
        if k and (p is None or (k % p and m % p)):
            return Fraction(k, m)


def _p_integral(rng: random.Random, p: int, nums, dens) -> Fraction:
    while True:
        k, m = rng.choice(nums), rng.choice(dens)
        if k and m % p:
            return Fraction(k, m)


def _draw_model(rng: random.Random, family: str, p: int | None) -> tuple:
    """Model parameters with small numerators and denominators.

    |a| <= 7/2 and 1/2 <= |b| <= 3 keep the real-place series converging
    fast; at a prime p, a is p-integral and b a p-unit.
    """
    small, dens = range(-7, 8), range(2, 8)
    if family == "omega":
        return (_ratio(rng, small, dens),) + tuple(Fraction(rng.choice(small), rng.choice(dens))
                                                  for _ in range(2))
    if family == "constant":
        return (_ratio(rng, range(1, 60), range(1, 60), p),)
    a = _ratio(rng, small, dens) if p is None else _p_integral(rng, p, small, range(1, 8))
    while True:
        b = _ratio(rng, small, range(1, 8), p)
        if Fraction(1, 2) <= abs(b) <= 3:
            return a, b


def build_model(family: str, params: tuple, order: int):
    if family == "example1":
        return po.preset_example1(*params, order=order)
    if family == "example2":
        return po.preset_example2(*params, order=order)
    if family == "constant":
        return po.preset_constant(*params, order=order)
    return po.model_from_omega_coeffs(params, order=order, label="inline")


def _real_time(rng: random.Random, params: tuple, family: str) -> Fraction:
    scale = 1 if family == "omega" else max(1, abs(params[0]))
    return Fraction(rng.randint(-8, 8), rng.randint(32, 64)) / scale


def _padic_time(rng: random.Random, p: int) -> Fraction:
    """|t|_p < 1 (|t|_2 < 1/2), so |a t|_p < 1 and the phase stays in the trig domain."""
    least = 2 if p == 2 else 1
    return _p_power(p, rng.randint(least, least + 1)) * _ratio(rng, range(-9, 10), range(1, 10), p)


def _kernel_model(rng: random.Random, family: str, place_kind: str, used: set) -> tuple:
    """(place, params) with a model no other op has."""
    place = "real" if place_kind == "real" else rng.choice(KERNEL_PRIMES)
    p = None if place == "real" else place
    params = _draw_model(rng, family, p)
    while (family, params) in used:
        params = _draw_model(rng, family, p)
    used.add((family, params))
    return place, params


def kernel_blocks(seed: int) -> Iterator[list]:
    """Blocks of KERNEL_BLOCK ops, without end.  Models and places come from a
    seed-independent stream, since their coefficient growth sets the cost,
    so every run pays for the same solves; the seed draws the endpoints and
    the order of the ops."""
    rng, fixed = _rng("kernel-orders", seed), _rng("kernel-orders", "models")
    used = set()
    while True:
        block = []
        models = [_kernel_model(fixed, family, place_kind, used) for _, place_kind, family, _ in KERNEL_BLOCK]
        for (place, params), (order, _, family, doubling) in zip(models, KERNEL_BLOCK):
            p = None if place == "real" else place
            while True:
                if p is None:
                    t1, t2 = _real_time(rng, params, family), _real_time(rng, params, family)
                else:
                    t1 = Fraction(0) if rng.random() < 0.3 else _padic_time(rng, p)
                    t2 = _padic_time(rng, p)
                if t1 != t2:
                    break
            x1, x2 = (_p_integral(rng, p, range(-9, 10), range(1, 10)) if p else
                      Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(2))
            block.append(("kernel", family, params, order, place, t1, t2, x1, x2, doubling))
        rng.shuffle(block)
        yield block


@dataclass(frozen=True)
class KernelResult:
    quadratic: Fraction
    boundary: Fraction
    amp1: Fraction
    amp2: Fraction
    phase_vel1: Fraction
    phase_vel2: Fraction
    kernel_angle: Fraction
    doubled_angle: Fraction | None


def kernel_execute(op: tuple) -> KernelResult:
    _, family, params, order, place, t1, t2, x1, x2, doubling = op
    ap = po.solve_amplitude_phase(build_model(family, params, order), order)
    ep = po.endpoint_data(ap, t1, t2, x1, x2, primes=() if place == "real" else (place,))
    quadratic = po.classical_action(ap, ep)
    boundary = po.boundary_action(ap, ep)
    value = po.evaluate_kernel(po.kernel_from_action(place, ap, ep), x2, x1)
    doubled = None
    if doubling:
        angles = po.phase_doubling_check(lambda n: build_model(family, params, n),
                                         t1, t2, x1, x2, places=(place,), order=order)
        doubled = angles[place]
    return KernelResult(quadratic, boundary, ep.amp1, ep.amp2, ep.phase_vel1,
                        ep.phase_vel2, value.phase.angle, doubled)


def kernel_check(op: tuple, r: KernelResult) -> str | None:
    place = op[4]
    if r.quadratic != r.boundary:
        return "quadratic and boundary action forms differ"
    lhs = (r.amp2 * r.phase_vel2 / r.amp1 + r.amp1 * r.phase_vel1 / r.amp2) ** 2
    if lhs != 4 * r.phase_vel2 * r.phase_vel1:
        return "phase-velocity identity fails"
    # the kernel phase is chi_v(-S/h) with h = 1: S mod 1 at the real place, {-S}_p at p
    angle = r.quadratic % 1 if place == "real" else frac_part(-r.quadratic, place)
    if r.kernel_angle != angle:
        return f"kernel phase angle {r.kernel_angle} is not {angle}"
    if op[9] and r.doubled_angle != angle:
        return f"doubling check angle {r.doubled_angle} is not {angle}"
    return None


# ---------------------------------------------------------------------------
# adelic-places: many primes, small moduli, thousands of tiny calls

VACUUM_ORDER = 24
PRODUCT_ORDER = 12
COMPOSE_ORDER = 16
BRUTE_VACUUM_PRIMES = (3, 5, 7, 11, 13)  # brute force above 13 hits the Python loop
BRUTE_VACUUM_MODULUS_CAP = 30_000
CLOSED_VACUUM_PRIMES = tuple(q for q in primes_below(100) if q > 13)
# 14 ops in cost classes: the two omega products and the discreteness rows
# are cheapest, the five closed-form vacuum checks hold p50 in their middle,
# and p90 falls between the two propagator products.
ADELIC_BLOCK = (("vacuum-brute",) * 2 + ("vacuum-closed",) * 5 + ("product",) * 2
                + ("compose", "omega", "omega", "discreteness", "product-formula"))


def _vacuum_op(rng: random.Random, p: int, level: int | None = None) -> tuple:
    """constant(w0) over [0, T] with Planck constant h.  With `level` given, the
    op also runs brute force, whose modulus p^max(3, v(T h) + 3) is then p^level."""
    while True:
        vw, vt, vh = rng.randint(0, 1), rng.randint(0, 2), rng.randint(-1, 1)
        if vw + vt >= 1 and level in (None, max(3, vt + vh + 3)):
            break
    w0 = abs(_unit(rng, p, 9)) * _p_power(p, vw)
    horizon = _unit(rng, p, 9) * _p_power(p, vt)
    planck = abs(_unit(rng, p, 9)) * _p_power(p, vh)
    return ("vacuum", p, w0, horizon, planck, vacuum_expected(p, w0, horizon, planck), level is not None)


def _brute_vacuum_op(rng: random.Random, shape: random.Random) -> tuple:
    p = shape.choice(BRUTE_VACUUM_PRIMES)
    # v(T h) + 3 ranges over 2..6 for the valuations _vacuum_op draws
    level = shape.choice([k for k in range(3, 7) if p**k <= BRUTE_VACUUM_MODULUS_CAP])
    return _vacuum_op(rng, p, level)


def _product_op(rng: random.Random, shape: random.Random) -> tuple:
    primes = sorted(shape.sample(primes_below(100), shape.randint(4, 24)))
    places = ("real",) + tuple(primes)
    family = shape.choice(("free", "example1", "constant"))
    if family == "free":
        horizon, params = Fraction(rng.randint(1, 9), rng.randint(1, 9)), ()
    else:
        # |T|_p < 1 at every listed prime (|T|_2 < 1/2) certifies every place
        horizon = Fraction(4 if 2 in primes else 1)
        for q in primes:
            horizon *= q
        params = (rng.choice((-3, -2, -1, 1, 2, 3)), 1) if family == "example1" else (1,)
    return ("product", family, params, places, horizon,
            rng.randint(-5, 5), rng.randint(-5, 5))


def _compose_op(rng: random.Random, shape: random.Random) -> tuple:
    p = shape.choice((3, 5))
    family = shape.choice(("free", "constant", "example1"))
    if family == "free":
        params = ()
    elif family == "constant":
        params = (_p_integral(rng, p, range(1, 10), range(1, 10)),)
    else:
        params = (_p_integral(rng, p, range(-4, 5), range(1, 5)), abs(_unit(rng, p, 4)))
    horizon = p * _ratio(rng, range(-4, 5), range(1, 5), p)
    samples = tuple((rng.randint(-6, 6), rng.randint(-6, 6)) for _ in range(3))
    return ("compose", p, family, params, horizon, samples)


def _denominator(rng: random.Random, small_primes: list, least: int = 0) -> int:
    den = 1
    for q in rng.sample(small_primes, rng.randint(least, 3)):
        den *= q ** rng.randint(1, 2)
    return den


def _omega_op(rng: random.Random, shape: random.Random) -> tuple:
    cutoff = int(10 ** shape.uniform(3, 5))
    den = _denominator(rng, primes_below(min(cutoff, 1000)))
    return ("omega", Fraction(rng.randint(-10**4, 10**4), den), cutoff)


def _vacuum_state_and_xs(rng: random.Random) -> tuple:
    """(mass, frequency, planck, xs): six points, about 40% of them integers."""
    small = primes_below(50)
    xs = []
    for _ in range(6):
        if rng.random() < 0.4:
            xs.append(Fraction(rng.randint(-3, 3)))
        else:
            den = _denominator(rng, small, least=1)
            xs.append(Fraction(rng.choice([k for k in range(-30, 31) if math.gcd(k, den) == 1]), den))
    pool = (Fraction(1, 2), Fraction(1), Fraction(2), Fraction(3, 2))
    return rng.choice(pool), rng.choice(pool), rng.choice(pool), tuple(xs)


def _discreteness_op(rng: random.Random, shape: random.Random) -> tuple:
    return ("discreteness",) + _vacuum_state_and_xs(rng) + (int(10 ** shape.uniform(3, 5)),)


def _product_formula_op(rng: random.Random, shape: random.Random) -> tuple:
    """x = +-n/d whose larger term is a 5-6 digit bound B, over every prime <= B.

    B < 2e5 keeps the cold prime checks affordable.
    """
    bound = shape.randint(10**4, 2 * 10**5 - 1)
    other = rng.randint(10**4, bound)
    num, den = (bound, other) if rng.random() < 0.5 else (other, bound)
    return ("product-formula", Fraction(rng.choice((-1, 1)) * num, den), bound)


def adelic_blocks(seed: int) -> Iterator[list]:
    """Blocks of ADELIC_BLOCK ops.  A seed-independent shape stream draws what
    sets an op's cost (its primes, brute-force modulus, place count, cutoff
    or bound), so every run pays for the same work; the seed draws the
    numbers and the order of the ops."""
    rng, shape = _rng("adelic-places", seed), _rng("adelic-places", "shape")
    makers = {
        "vacuum-brute": lambda: _brute_vacuum_op(rng, shape),
        "vacuum-closed": lambda: _vacuum_op(rng, shape.choice(CLOSED_VACUUM_PRIMES)),
        "product": lambda: _product_op(rng, shape),
        "compose": lambda: _compose_op(rng, shape),
        "omega": lambda: _omega_op(rng, shape),
        "discreteness": lambda: _discreteness_op(rng, shape),
        "product-formula": lambda: _product_formula_op(rng, shape),
    }
    while True:
        block = [makers[kind]() for kind in ADELIC_BLOCK]
        rng.shuffle(block)
        yield block


def _compose_model(family: str, params: tuple):
    if family == "free":
        return po.preset_free(COMPOSE_ORDER)
    return build_model(family, params, COMPOSE_ORDER)


def adelic_execute(op: tuple):
    kind = op[0]
    if kind == "vacuum":
        _, p, w0, horizon, planck, _, brute = op
        model = po.preset_constant(w0, order=VACUUM_ORDER)
        verdicts = [po.vacuum_check(p, model, 0, horizon, planck=planck,
                                    method="closed-form", order=VACUUM_ORDER).holds]
        if brute:
            verdicts.append(po.vacuum_check(p, model, 0, horizon, planck=planck,
                                            method="brute-force", order=VACUUM_ORDER).holds)
        return verdicts
    if kind == "product":
        _, family, params, places, horizon, x_out, x_in = op
        model = po.preset_free(PRODUCT_ORDER) if family == "free" else \
            build_model(family, params, PRODUCT_ORDER)
        product = po.adelic_propagator_product(places, model, 0, horizon, x_out, x_in,
                                               order=PRODUCT_ORDER)
        factors = [(place, f.lambda_factor.angle, f.phase.angle)
                   for place, f in zip(product.places, product.factors)]
        return product.phase_angle, factors
    if kind == "compose":
        _, p, family, params, horizon, samples = op
        model = _compose_model(family, params)
        mid = horizon / 2
        late = po.oscillator_kernel(p, model, mid, horizon, order=COMPOSE_ORDER)
        early = po.oscillator_kernel(p, model, 0, mid, order=COMPOSE_ORDER)
        direct = po.oscillator_kernel(p, model, 0, horizon, order=COMPOSE_ORDER)
        return po.compose_oracle(late, early, direct, samples=samples).max_deviation
    if kind == "omega":
        result = po.omega_product(op[1], op[2])
        return result.value, tuple(result.vanishing_primes)
    if kind == "discreteness":
        _, mass, frequency, planck, xs, cutoff = op
        rows = po.discreteness_profile(po.vacuum_state(mass, frequency, planck), xs,
                                       prime_cutoff=cutoff)
        return [(row["x"], row["value"], tuple(row["vanishing_primes"])) for row in rows]
    _, x, bound = op
    total = po.real_norm(x)
    for q in po.primes_upto(bound):
        total *= po.padic_norm(x, q)
    return total


def adelic_check(op: tuple, result) -> str | None:
    kind = op[0]
    if kind == "vacuum":
        expected = op[5]
        if any(verdict != expected for verdict in result):
            return f"vacuum verdicts {result} at p={op[1]}, expected {expected}"
        return None
    if kind == "product":
        angle, factors = result
        if [place for place, _, _ in factors] != list(op[3]):
            return "product places differ from the requested set"
        if angle != sum(lam + phase for _, lam, phase in factors) % 1:
            return "product phase angle is not the sum of its factor angles"
        for place, _, phase in factors:
            if place != "real" and not is_power_of(phase.denominator, place):
                return f"factor phase at p={place} has a denominator prime to p"
        return None
    if kind == "compose":
        return None if result <= 1e-9 else f"composition deviation {result:.3g}"
    if kind == "omega":
        x = op[1]
        if result != (int(x.denominator == 1), tuple(prime_factors(x.denominator))):
            return f"omega product {result} wrong for {x}"
        return None
    if kind == "discreteness":
        for x, value, vanishing in result:
            if x.denominator != 1 and (value != 0.0 or list(vanishing) != prime_factors(x.denominator)):
                return f"row at non-integer {x} does not vanish exactly"
            if x.denominator == 1 and not value > 0.0:
                return f"row at integer {x} vanishes"
        return None
    return None if result == 1 else f"product formula gives {result}"


# ---------------------------------------------------------------------------
# cli-cold: one `python -m padic_oscillator.cli` process per op

SCHEMA = "padic-oscillator/1"
CHEAP_SUITES = ("ultrametric", "lambda", "ode-residual", "action-equality",
                "composition", "vacuum")
SUITE_CASES = {"ultrametric": (20, 80), "lambda": (10, 40), "ode-residual": (3, 8),
               "action-equality": (10, 30), "composition": (1, 3), "vacuum": (1, 4),
               "gauss-oracle": (4, 8)}
# (kind, variant) per block.  What sets a call's cost beyond start-up is
# fixed by the slot or the block's turn, never by the seed: the model family
# of classical and real-place propagator calls (the variant), the prime of
# the p-adic ones (the variant; always example1), the product's place count
# and preset, and which cheap suites run.  Most calls cost start-up plus a
# little; the four stability checks are the dearest calls and fill the top
# fifth of the block, so p90 lies inside that class rather than on the edge
# of a single call.
CLI_BLOCK = (
    ("gauss", None), ("gauss", None), ("gauss-oracle", None), ("gauss-oracle", None),
    ("discreteness", None), ("suite", 0), ("suite", 1), ("suite-gauss", None),
    ("propagator", "omega"), ("propagator", "example2"), ("classical", "example1"),
    ("classical", "example2"), ("classical", "omega"), ("vacuum", None), ("product", None),
    ("propagator-compose", 3), ("propagator-stability", 3), ("propagator-stability", 5),
    ("propagator-stability", 3), ("propagator-stability", 5),
)
CLI_PRODUCT_PRIMES = 3


def cli_env() -> dict:
    """The child environment: the checkout's sources, the library's default threads,
    and in a traced run the start-up hook that makes the child trace itself."""
    env = dict(os.environ)
    env.pop("PADIC_OSC_THREADS", None)
    paths = [str(ROOT / "src")]
    if env.get(CHILD_TRACE_DIR):
        paths += [str(HERE / "childtrace"), str(HERE)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def _q(x) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def _cli_gauss(rng: random.Random, oracle: bool) -> tuple:
    while True:
        p = rng.choice((2, 3, 5, 7, 11))
        nu = rng.randint(-1, 1)
        alpha = _unit(rng, p, 20) * _p_power(p, rng.randint(-3, 3))
        beta = _unit(rng, p, 20) * _p_power(p, rng.randint(-3, 3))
        depth = constancy_depth(p, alpha, beta, nu)
        if in_p2_gap(p, alpha, nu) or p ** max(oracle_level(p, alpha, beta, nu), nu + depth + 1) > 1 << 12:
            continue
        args = ("gauss", f"--prime={p}", f"--alpha={_q(alpha)}", f"--beta={_q(beta)}", f"--nu={nu}")
        if oracle:
            args += (f"--oracle-depth={depth + rng.randint(0, 1)}",)
        return args


def _cli_model_flags(rng: random.Random, family: str, p: int | None) -> tuple:
    params = _draw_model(rng, family, p)
    if family == "omega":
        return (f"--omega={','.join(_q(c) for c in params)}",), family, params
    return (f"--preset={family}({','.join(_q(c) for c in params)})",), family, params


def _cli_window(rng: random.Random, p: int | None, family: str, params: tuple) -> tuple:
    while True:
        if p is None:
            t1, t2 = _real_time(rng, params, family), _real_time(rng, params, family)
        else:
            t1, t2 = Fraction(0), _padic_time(rng, p)
        if t1 != t2:
            return t1, t2


def _cli_op(rng: random.Random, kind: str, variant, turn: int) -> tuple:
    if kind in ("gauss", "gauss-oracle"):
        return ("cli", "gauss", _cli_gauss(rng, kind == "gauss-oracle"))
    if kind.startswith(("classical", "propagator")):
        p, family = (None, variant) if kind in ("classical", "propagator") else (variant, "example1")
        flags, family, params = _cli_model_flags(rng, family, p)
        t1, t2 = _cli_window(rng, p, family, params)
        window = (f"--t1={_q(t1)}", f"--t2={_q(t2)}",
                  f"--x1={rng.randint(-9, 9)}", f"--x2={rng.randint(-9, 9)}")
        if kind == "classical":
            return ("cli", "classical", ("classical",) + flags + window)
        extra = {"propagator": (), "propagator-compose": (f"--compose={_q(t2 / 2)}",),
                 "propagator-stability": ("--stability-check",)}[kind]
        return ("cli", "propagator", ("propagator", f"--place={p or 'real'}") + flags + window + extra)
    if kind == "vacuum":  # brute force at modulus p^4, the primes taking turns
        p = BRUTE_VACUUM_PRIMES[turn % len(BRUTE_VACUUM_PRIMES)]
        _, p, w0, horizon, planck, _, _ = _vacuum_op(rng, p, level=4)
        return ("cli", "vacuum", ("vacuum", f"--primes={p}", f"--preset=constant({_q(w0)})",
                                  "--t1=0", f"--t2={_q(horizon)}", f"--planck={_q(planck)}"))
    if kind == "discreteness":
        mass, frequency, planck, xs = _vacuum_state_and_xs(rng)
        return ("cli", "discreteness", ("discreteness", f"--xs={','.join(_q(x) for x in xs)}",
                                        f"--cutoff={rng.randint(100, 1000)}", f"--mass={_q(mass)}",
                                        f"--frequency={_q(frequency)}", f"--planck={_q(planck)}"))
    if kind == "product":
        primes = sorted(rng.sample(primes_below(30), CLI_PRODUCT_PRIMES))
        horizon = Fraction(4 if 2 in primes else 1)
        for q in primes:
            horizon *= q
        preset = f"example1({rng.choice((-2, -1, 1, 2))},1)" if turn % 2 else "free"
        return ("cli", "product", ("product", f"--places=real,{','.join(map(str, primes))}",
                                   f"--preset={preset}", "--t1=0", f"--t2={_q(horizon)}",
                                   f"--x1={rng.randint(-5, 5)}", f"--x2={rng.randint(-5, 5)}"))
    name = "gauss-oracle" if kind == "suite-gauss" else \
        CHEAP_SUITES[(2 * turn + variant) % len(CHEAP_SUITES)]
    while True:
        seed, cases = rng.randint(0, 10**6), rng.randint(*SUITE_CASES[name])
        if name != "gauss-oracle" or max(
                oracle_cost(*spec) for spec in suite_oracle_specs(seed, cases)) <= SMALL_SUITE_COST:
            return ("cli", "suite", ("suite", name, f"--seed={seed}", f"--cases={cases}"))


SMALL_SUITE_COST = 1 << 14


def suite_oracle_specs(seed: int, cases: int) -> list:
    """The (p, alpha, beta, nu) specs `suite gauss-oracle` draws, replayed from its seed.

    Follows the suite's use of random.Random(seed) step for step, so that
    cli-cold can keep its gauss-oracle calls small without running them.
    """
    rng = random.Random(seed)

    def with_valuation(p):
        v = rng.randint(-4, 4)
        num = rng.randint(1, 40)
        while num % p == 0:
            num = rng.randint(1, 40)
        den = rng.randint(1, 40)
        while den % p == 0:
            den = rng.randint(1, 40)
        return Fraction(rng.choice((-1, 1)) * num, den) * _p_power(p, v)

    specs = []
    while len(specs) < cases:
        p = rng.choice(ORACLE_PRIMES)
        nu = rng.randint(-2, 2)
        alpha = with_valuation(p)
        beta = Fraction(0) if rng.random() < 0.15 else with_valuation(p)
        if oracle_cost(p, alpha, beta, nu) <= LIGHT_COST_CAP:
            specs.append((p, alpha, beta, nu))
    return specs


def cli_blocks(seed: int) -> Iterator[list]:
    rng = _rng("cli-cold", seed)
    for turn in itertools.count():
        block = [_cli_op(rng, kind, variant, turn) for kind, variant in CLI_BLOCK]
        rng.shuffle(block)
        yield block


@dataclass(frozen=True)
class CliResult:
    code: int
    stdout: str
    rss_kb: int


def run_cli(args: tuple) -> CliResult:
    """Run one command-line process to completion; kills it if interrupted."""
    with subprocess.Popen([sys.executable, "-m", "padic_oscillator.cli", *args],
                          cwd=ROOT, env=cli_env(), stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL) as proc:
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
    return CliResult(proc.returncode, out.decode(), usage.ru_maxrss)


def cli_execute(op: tuple) -> CliResult:
    return run_cli(op[2])


def cli_check(op: tuple, r: CliResult) -> str | None:
    sub = op[1]
    if r.code != 0:
        return f"{sub} exited {r.code}"
    try:
        doc = json.loads(r.stdout)
    except ValueError:
        return f"{sub} printed no JSON document"
    if doc.get("schema") != SCHEMA:
        return f"{sub} output lacks the schema tag"
    if sub == "gauss" and "deviation" in doc and not doc["deviation"] <= 1e-9:
        return f"gauss deviation {doc['deviation']}"
    if sub == "gauss" and any(a.startswith("--oracle-depth") for a in op[2]) and "deviation" not in doc:
        return "gauss oracle run missing"
    if sub == "classical" and doc["action"]["difference"] != "0/1":
        return f"action forms differ by {doc['action']['difference']}"
    if sub == "propagator" and "compose" in doc and not doc["compose"]["max_deviation"] <= 1e-9:
        return f"composition deviation {doc['compose']['max_deviation']}"
    if sub == "vacuum" and not all(report.get("agree") is True for report in doc["reports"]):
        return "vacuum methods disagree"
    if sub == "suite" and not all(result["passed"] for result in doc["results"]):
        return "suite failed"
    return None


WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload("oracle-sweep",
                 "gauss_brute_force does over 95% of the work in a few big-modulus calls",
                 oracle_blocks, oracle_execute, oracle_check),
        Workload("kernel-orders",
                 "series.compose and the coefficient recurrence dominate at orders 24-96; no oracle runs",
                 kernel_blocks, kernel_execute, kernel_check),
        Workload("adelic-places",
                 "thousands of tiny calls at many primes, where per-call overhead and cold caches dominate",
                 adelic_blocks, adelic_execute, adelic_check),
        Workload("cli-cold",
                 "interpreter start, imports and cold caches make up most of each command-line call",
                 cli_blocks, cli_execute, cli_check, lambda r: r.rss_kb),
    )
}
