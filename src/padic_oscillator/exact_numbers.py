"""Exact arithmetic over the rationals and their p-adic norms.

Everything in this module is exact: inputs and outputs are
``fractions.Fraction`` values or rational character angles.  Floating point appears only when a :class:`UnitPhase` or a
:class:`HalfPower` is rendered as a ``complex``/``float`` at the very
end of a computation.

Conventions
-----------
* ``padic_norm(x, p) == Fraction(p) ** -padic_valuation(x, p)`` with
  ``padic_norm(0, p) == 0``.
* ``fractional_part(u, p)`` is the unique rational ``k / p**m`` in
  ``[0, 1)`` with ``u - k/p**m`` a p-adic integer.
* ``chi(u, p)`` is the additive character ``exp(2*pi*i*{u}_p)`` kept as
  an exact angle.  The real-place character ``exp(-2*pi*i*u)`` is
  handled by the propagator layer with the same :class:`UnitPhase`
  container.

The scalar functions work on integer numerators and denominators: an
``int`` input builds no ``Fraction``, the prime check looks in a cache
first, and the norms 0 and 1 are shared ``Fraction`` constants.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import MagnitudeOverflowError

_PRIME_CACHE: set[int] = set()
_ZERO, _ONE = Fraction(0), Fraction(1)

#: the first 13 primes; as Miller-Rabin bases they decide primality exactly
#: below MILLER_RABIN_BOUND (Sorenson and Webster, Math. Comp. 86, 2017), the
#: first 3 below 25,326,001 and the first 7 below 341,550,071,728,321
#: (Jaeschke, Math. Comp. 61, 1993)
MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MILLER_RABIN_BOUND = 3_317_044_064_679_887_385_961_981
_BASES_PRODUCT = math.prod(MILLER_RABIN_BASES)


def _passes_miller_rabin(n: int) -> bool:
    """True when no base of the set sized to n witnesses that odd n > 41 is composite."""
    odd, twos = n - 1, 0
    while odd % 2 == 0:
        odd, twos = odd // 2, twos + 1
    count = 3 if n < 25_326_001 else 7 if n < 341_550_071_728_321 else 13
    for base in MILLER_RABIN_BASES[:count]:
        x = pow(base, odd, n)
        if x in (1, n - 1):
            continue
        for _ in range(twos - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def is_prime(n: int) -> bool:
    """Exact primality test for an int n below MILLER_RABIN_BOUND; ValueError otherwise.

    Primes found are cached, so repeated checks of one prime cost a set lookup.
    """
    if not isinstance(n, int):  # before the lookup: 3.0 in {3} is true
        raise ValueError(f"primality is defined for integers, not {n!r}")
    if n in _PRIME_CACHE:
        return True
    if n < 2:
        return False
    if n >= MILLER_RABIN_BOUND:
        raise ValueError(f"cannot decide whether {n} is prime: the deterministic "
                         f"Miller-Rabin test is exact only below {MILLER_RABIN_BOUND}")
    if math.gcd(n, _BASES_PRODUCT) > 1:  # a factor up to 41
        prime = n in MILLER_RABIN_BASES
    else:  # no factor up to 41, so n < 43^2 is prime
        prime = n < 43 * 43 or _passes_miller_rabin(n)
    if prime:
        _PRIME_CACHE.add(n)
    return prime


def _rho_divisor(n: int) -> int:
    """A proper divisor of a composite n with no prime factor below 64, by Pollard-Brent
    rho (Brent, BIT 20, 1980): one gcd per 64 steps of y -> y^2 + c, c = 1, 2, ..."""
    for c in itertools.count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            for k in range(0, r, 64):
                ys = y
                for _ in range(min(64, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = math.gcd(q, n)
                if g != 1:
                    break
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if g < n:
            return g


def prime_divisors(n: int) -> set[int]:
    """The primes dividing 1 < n < MILLER_RABIN_BOUND, none of them below 64.

    n < 2 raises ValueError: rho would never find a divisor of 1 or of a
    negative n, and 0 has every prime as a divisor.
    """
    if n < 2:
        raise ValueError(f"prime divisors are defined here for n > 1, not {n}")
    if is_prime(n):
        return {n}
    d = _rho_divisor(n)
    return prime_divisors(d) | prime_divisors(n // d)


def primes_upto(limit: int) -> list[int]:
    """All primes <= limit, by sieve."""
    if limit < 2:
        return []
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for q in range(2, int(limit**0.5) + 1):
        if flags[q]:
            flags[q * q :: q] = bytearray(len(flags[q * q :: q]))
    return list(itertools.compress(range(limit + 1), flags))


def _require_prime(p: int) -> None:
    # isinstance first: 3.0 in {3} is true
    if not (isinstance(p, int) and (p in _PRIME_CACHE or is_prime(p))):
        raise ValueError(f"not a prime: {p!r}")


def _unit_part(x: Fraction | int, p: int) -> tuple[int | float, int, int]:
    """(v, a, b) with x = p**v * a/b, a and b prime to p, or (inf, 0, 1) for 0; no Fraction built."""
    if not isinstance(x, (int, Fraction)):
        x = Fraction(x)
    num, den, v = x.numerator, x.denominator, 0
    if num == 0:
        return math.inf, 0, 1
    if num % p == 0:
        num, v = _strip(num, p)
    if den % p == 0:
        den, k = _strip(den, p)
        v -= k
    return v, num, den


def _strip(n: int, p: int) -> tuple[int, int]:
    """(n / p**k, k) for the exponent k of p in n != 0, in O(log k) divisions:
    past one factor p, the exponent of p^2 in the rest is found the same way,
    and at most one p remains after it."""
    q, r = divmod(n, p)
    if r:
        return n, 0
    n, k = _strip(q, p * p)
    q, r = divmod(n, p)
    return (n, 2 * k + 1) if r else (q, 2 * k + 2)


def prime_power(p: int, k: int) -> Fraction:
    """p**k as an exact Fraction, k may be negative."""
    return Fraction(p**k) if k >= 0 else Fraction(1, p**-k)


def padic_valuation(x: Fraction | int, p: int) -> int | float:
    """Exponent of p in x; +inf for x == 0."""
    _require_prime(p)
    return _unit_part(x, p)[0]


def padic_norm(x: Fraction | int, p: int) -> Fraction:
    """|x|_p as an exact Fraction (a power of p, or 0 for x == 0)."""
    v = padic_valuation(x, p)
    if v == 0:
        return _ONE
    return _ZERO if v == math.inf else prime_power(p, -v)


def fractional_part(u: Fraction | int, p: int) -> Fraction:
    """{u}_p: the p-power-denominator representative of u modulo Z_p in [0, 1)."""
    if not isinstance(u, (int, Fraction)):
        u = Fraction(u)
    _require_prime(p)
    den = u.denominator
    if den % p:
        return _ZERO
    den, k = _strip(den, p)  # u = num / (den * p**k) with den prime to p
    pm = p**k
    return Fraction(u.numerator * pow(den, -1, pm) % pm, pm)


def omega(norm: Fraction | int) -> int:
    """Indicator of the unit ball: 1 if norm <= 1 else 0."""
    return 1 if norm <= 1 else 0


@dataclass(frozen=True)
class UnitPhase:
    """A point on the unit circle with exact rational angle.

    The represented value is ``exp(2*pi*i*angle)``; multiplication of
    phases is addition of angles mod 1 and stays exact.
    """

    angle: Fraction

    def __post_init__(self) -> None:
        angle = self.angle
        if not (type(angle) is Fraction and 0 <= angle.numerator < angle.denominator):
            object.__setattr__(self, "angle", Fraction(angle) % 1)

    def __mul__(self, other: "UnitPhase") -> "UnitPhase":
        return UnitPhase(self.angle + other.angle)

    def to_complex(self) -> complex:
        theta = 2.0 * math.pi * (self.angle.numerator / self.angle.denominator)
        return complex(math.cos(theta), math.sin(theta))


PHASE_ONE = UnitPhase(Fraction(0))


def chi(u: Fraction | int, p: int) -> UnitPhase:
    """Rank-zero additive character of Q_p evaluated at u, as an exact phase."""
    return UnitPhase(fractional_part(u, p))


@dataclass(frozen=True)
class HalfPower:
    """An exact value base**exponent with exponent a half-integer.

    Used for the magnitudes |.|_v**(1/2) that appear in quadratic
    integrals: the base/exponent pair is exact, only ``value()`` rounds.
    """

    base: Fraction
    exponent: Fraction

    def __post_init__(self) -> None:
        if type(self.base) is not Fraction or type(self.exponent) is not Fraction:
            object.__setattr__(self, "base", Fraction(self.base))
            object.__setattr__(self, "exponent", Fraction(self.exponent))
        if self.exponent.denominator not in (1, 2):
            raise ValueError("exponent must be integer or half-integer")
        if self.base <= 0:
            raise ValueError("base must be positive")

    def value(self) -> float:
        """n^k / d^k for the base n/d and k = floor(exponent), times sqrt(n/d) for a
        half-integer exponent.  From exponent * log2(base), before any power is built:
        0.0 below 2^-1100, MagnitudeOverflowError at 2^1024.  A base of 1 gives 1.0.
        Where base^k or sqrt(base) is no float, or their product rounds to 0.0, the value
        is sqrt(n^(2e) / d^(2e)) rounded once from integers.  Once the exponent's
        numerator reaches 2^1000, the signs of the exponent and of log2(base) decide
        alone, with no float built from the exponent; that is exact for every base
        whose terms have under 980 bits."""
        num, den = self.base.numerator, self.base.denominator
        if num == den:
            return 1.0
        if abs(self.exponent.numerator) >> 1000:
            bits = math.inf if (self.exponent > 0) == (num > den) else -math.inf
        else:
            bits = self.exponent * (math.log2(num) - math.log2(den))
        if bits < -1100:
            return 0.0
        if bits < 1024:
            k = self.exponent.numerator // self.exponent.denominator
            try:
                out = num**k / den**k if k >= 0 else den**-k / num**-k
                if k != self.exponent:
                    out *= math.sqrt(num / den)
                if 0.0 < out < math.inf:
                    return out
            except OverflowError:
                pass
            # the root of top/bottom scaled by 4^shift to about 64 bits, made odd when
            # inexact, so that the one division below rounds it correctly
            n = int(2 * self.exponent)
            top, bottom = (num**n, den**n) if n > 0 else (den**-n, num**-n)
            shift = (bottom.bit_length() - top.bit_length()) // 2 + 64
            if shift >= 0:
                top <<= 2 * shift
            else:
                bottom <<= -2 * shift
            root = math.isqrt(top // bottom)
            root |= root * root * bottom != top
            try:
                return root / (1 << shift) if shift >= 0 else float(root << -shift)
            except OverflowError:
                pass
        raise MagnitudeOverflowError(f"{self.base}^({self.exponent}) is too large for a float")

    def __mul__(self, other: "HalfPower") -> "HalfPower":
        if other.base == self.base:
            return HalfPower(self.base, self.exponent + other.exponent)
        raise ValueError("cannot merge half powers with different bases")


def real_norm(x: Fraction | int) -> Fraction:
    """|x| at the archimedean place, exact."""
    return abs(Fraction(x))


def frac_str(q: Fraction | int) -> str:
    q = Fraction(q)
    return f"{q.numerator}/{q.denominator}"


def parse_rational(text: str) -> Fraction:
    """Parse 'n' or 'n/d' with optional sign; rejects floats and spaces."""
    body = text.strip()
    sign = 1
    if body.startswith(("+", "-")):
        sign = -1 if body[0] == "-" else 1
        body = body[1:]
    if "/" in body:
        num, _, den = body.partition("/")
        if not (num.isdigit() and den.isdigit() and int(den) != 0):
            raise ValueError(f"not a rational literal: {text!r}")
        return Fraction(sign * int(num), int(den))
    if not body.isdigit():
        raise ValueError(f"not a rational literal: {text!r}")
    return Fraction(sign * int(body))
