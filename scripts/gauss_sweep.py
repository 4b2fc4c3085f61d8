#!/usr/bin/env python3
"""Sweep random ball integrals and print closed-form vs oracle deviations.

Handy for eyeballing how the two evaluation routes track each other
across primes and valuations, beyond what the packaged suite reports:

    python3 scripts/gauss_sweep.py --cases 200 --seed 3 --primes 2,3,5
"""

import argparse
import random
import sys
from fractions import Fraction

from padic_oscillator.exact_numbers import frac_str, prime_power
from padic_oscillator.gauss_analysis import (
    GaussIntegralSpec,
    gauss_brute_force,
    gauss_closed_form,
    oracle_plan,
)


def draw(rng, p, low=-3, high=3):
    v = rng.randint(low, high)
    num = rng.randint(1, 40)
    while num % p == 0:
        num = rng.randint(1, 40)
    den = rng.randint(1, 40)
    while den % p == 0:
        den = rng.randint(1, 40)
    return Fraction(rng.choice((-1, 1)) * num, den) * prime_power(p, v)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cases", type=int, default=100)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--primes", default="2,3,5,7")
    parser.add_argument("--verbose", action="store_true",
                        help="print every case, not just the summary")
    args = parser.parse_args(argv)

    primes = [int(piece) for piece in args.primes.split(",")]
    rng = random.Random(args.seed)
    worst = 0.0
    worst_spec = None
    done = 0
    while done < args.cases:
        p = rng.choice(primes)
        spec = GaussIntegralSpec(p, draw(rng, p), draw(rng, p), rng.randint(-2, 2))
        plan = oracle_plan(spec)
        if plan.cosets > 1 << 21:
            continue
        done += 1
        dev = abs(gauss_closed_form(spec).value - gauss_brute_force(spec))
        if args.verbose:
            print(f"p={spec.prime:2d} nu={spec.ball_exponent:+d} "
                  f"alpha={frac_str(spec.alpha):>12s} beta={frac_str(spec.beta):>12s} "
                  f"dev={dev:.3e}")
        if dev > worst:
            worst, worst_spec = dev, spec
    print(f"{done} cases, worst deviation {worst:.3e}")
    if worst_spec is not None:
        print(f"worst at p={worst_spec.prime}, alpha={frac_str(worst_spec.alpha)}, "
              f"beta={frac_str(worst_spec.beta)}, nu={worst_spec.ball_exponent}")
    return 0 if worst < 1e-9 else 1


if __name__ == "__main__":
    sys.exit(main())
