"""Exact p-adic helpers of the benchmark's own.

Input generators and result checkers use these instead of the library,
so that drawing inputs and checking results add no calls to the layers
the benchmark measures, and a defect in the library cannot hide itself
by also being in the check.
"""

from __future__ import annotations

from fractions import Fraction


def valuation(x, p: int) -> int | None:
    """Exponent of p in the rational x; None for x == 0."""
    x = Fraction(x)
    if x == 0:
        return None
    v = 0
    num, den = x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def frac_part(u, p: int) -> Fraction:
    """{u}_p: the representative of u modulo Z_p in [0, 1) with a p-power denominator."""
    u = Fraction(u)
    den, pm = u.denominator, 1
    while den % p == 0:
        den //= p
        pm *= p
    if pm == 1:
        return Fraction(0)
    # u = n / (den * pm) with den prime to p: {u}_p = n * den^-1 mod pm, over pm
    return Fraction(u.numerator * pow(den, -1, pm) % pm, pm)


def primes_below(limit: int) -> list[int]:
    """All primes < limit."""
    flags = bytearray([1]) * max(limit, 2)
    flags[0] = flags[1] = 0
    for q in range(2, int(limit**0.5) + 1):
        if flags[q]:
            flags[q * q :: q] = bytearray(len(flags[q * q :: q]))
    return [q for q in range(limit) if flags[q]]


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n >= 1, ascending, by trial division."""
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def is_power_of(n: int, p: int) -> bool:
    while n % p == 0:
        n //= p
    return n == 1


# -- the quadratic ball integral over |x|_p <= p^nu --------------------------


def oracle_level(p: int, alpha, beta, nu: int) -> int:
    """Exponent of the coset-sum modulus M = p^level for the spec (p, alpha, beta, nu)."""
    terms = [0]
    if alpha:
        terms.append(2 * nu - valuation(alpha, p))
    if beta:
        terms.append(nu - valuation(beta, p))
    return max(terms)


def constancy_depth(p: int, alpha, beta, nu: int) -> int:
    """Smallest coset depth at which the integrand is locally constant."""
    bounds = [0, -nu]
    if alpha:
        bounds.append(nu - valuation(2 * Fraction(alpha), p))
        bounds.append(-(valuation(alpha, p) // 2))
    if beta:
        bounds.append(-valuation(beta, p))
    return max(bounds)


def oracle_cost(p: int, alpha, beta, nu: int) -> int:
    """Working-set bound p^max(level, nu + depth), the cap the seeded suite draws under."""
    return p ** max(oracle_level(p, alpha, beta, nu), nu + constancy_depth(p, alpha, beta, nu))


def in_p2_gap(p: int, alpha, nu: int) -> bool:
    """True where neither closed-form branch applies: p = 2 and v(alpha) in {2nu-2, 2nu-1}."""
    return p == 2 and alpha != 0 and 2 * nu - 2 <= valuation(alpha, 2) <= 2 * nu - 1


def vacuum_expected(p: int, w0, horizon, planck) -> bool:
    """Does the unit-ball vacuum survive constant(w0) over [0, horizon] at odd p?

    Needs m = 1 and |w0 * horizon|_p < 1.  With A = D = w0 cot(w0 T)/2 and
    B = -w0 / sin(w0 T), the ball integral of the kernel reproduces Omega iff
    |T h|_p = 1, or |T h|_p < 1 and |w0^2 T / (2h)|_p <= 1; for |T h|_p > 1
    the magnitude |B/h|^(1/2) falls below 1.
    """
    vw, vt, vh = valuation(w0, p), valuation(horizon, p), valuation(planck, p)
    if p == 2 or vw + vt < 1:
        raise ValueError("vacuum criterion needs odd p and |w0 T|_p < 1")
    if vt + vh == 0:
        return True
    return vt + vh > 0 and 2 * vw + vt - vh >= 0
