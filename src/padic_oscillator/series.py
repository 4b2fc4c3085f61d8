"""Dense truncated power series with exact rational coefficients.

A series of order N stores the N+1 coefficients a_0..a_N.  Binary
operations truncate to the smaller operand order, which is the order
through which the result's coefficients are trustworthy; ``mul_full``
keeps the whole polynomial product for the places where exact endpoint
evaluation matters more than tail hygiene.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Union

Scalar = Union[Fraction, int]


def _frac(x: Scalar) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def numerators_over_lcm(values: Iterable[Fraction]) -> tuple[list[int], int]:
    """The values' integer numerators over L, the lcm of their denominators, and L."""
    values = list(values)
    common = lcm(*(v.denominator for v in values))
    return [v.numerator * (common // v.denominator) for v in values], common


@dataclass(frozen=True)
class RationalSeries:
    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", tuple(_frac(c) for c in self.coeffs))
        if not self.coeffs:
            raise ValueError("a series needs at least the constant coefficient")

    # -- constructors -------------------------------------------------

    @classmethod
    def from_coeffs(cls, values: Iterable[Scalar], order: int | None = None) -> "RationalSeries":
        coeffs = [_frac(v) for v in values]
        if order is not None:
            if order + 1 < len(coeffs):
                coeffs = coeffs[: order + 1]
            else:
                coeffs += [Fraction(0)] * (order + 1 - len(coeffs))
        return cls(tuple(coeffs))

    @classmethod
    def constant(cls, value: Scalar, order: int) -> "RationalSeries":
        return cls.from_coeffs([value], order=order)

    # -- basic queries ------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, n: int) -> Fraction:
        return self.coeffs[n] if 0 <= n <= self.order else Fraction(0)

    def is_zero_through(self, n: int) -> bool:
        return all(c == 0 for c in self.coeffs[: n + 1])

    # -- ring structure ----------------------------------------------

    def __add__(self, other: "RationalSeries | Scalar") -> "RationalSeries":
        if not isinstance(other, RationalSeries):
            other = RationalSeries.constant(other, self.order)
        n = min(self.order, other.order)
        return RationalSeries(tuple(self.coeffs[k] + other.coeffs[k] for k in range(n + 1)))

    def __neg__(self) -> "RationalSeries":
        return RationalSeries(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "RationalSeries | Scalar") -> "RationalSeries":
        if not isinstance(other, RationalSeries):
            other = RationalSeries.constant(other, self.order)
        return self + (-other)

    def scale(self, factor: Scalar) -> "RationalSeries":
        f = _frac(factor)
        return RationalSeries(tuple(f * c for c in self.coeffs))

    def __mul__(self, other: "RationalSeries | Scalar") -> "RationalSeries":
        if not isinstance(other, RationalSeries):
            return self.scale(other)
        return _convolve(self, other, min(self.order, other.order))

    __rmul__ = __mul__

    def mul_full(self, other: "RationalSeries") -> "RationalSeries":
        """Exact polynomial product: no truncation, order = sum of orders."""
        return _convolve(self, other, self.order + other.order)

    def __truediv__(self, other: "RationalSeries | Scalar") -> "RationalSeries":
        if not isinstance(other, RationalSeries):
            return self.scale(Fraction(1) / _frac(other))
        n = min(self.order, other.order)
        if other.coeffs[0] == 0:
            raise ZeroDivisionError("constant term of the divisor vanishes")
        out: list[Fraction] = []
        for k in range(n + 1):
            acc = self.coeffs[k]
            for i in range(k):
                acc -= out[i] * other.coeffs[k - i]
            out.append(acc / other.coeffs[0])
        return RationalSeries(tuple(out))

    # -- calculus -----------------------------------------------------

    def differentiate(self) -> "RationalSeries":
        if self.order == 0:
            return RationalSeries((Fraction(0),))
        return RationalSeries(tuple(Fraction(k) * self.coeffs[k] for k in range(1, self.order + 1)))

    def compose(self, inner: "RationalSeries") -> "RationalSeries":
        """self(inner(t)) as a sum of truncated powers of inner; its constant term must vanish."""
        if inner.coeffs[0] != 0:
            raise ValueError("composition requires a vanishing inner constant term")
        n = min(self.order, inner.order)
        out, power = RationalSeries.constant(self.coeffs[0], n), RationalSeries.constant(1, n)
        for coeff in self.coeffs[1 : n + 1]:
            power = power * inner
            if coeff:
                out = out + power.scale(coeff)
        return out

    def evaluate(self, point: Scalar) -> Fraction:
        """Exact partial-sum evaluation by Horner's rule on integers.

        With t = a/b, coefficients N_k/d_k and L = lcm(d_k), the sum is
        sum_k N_k (L/d_k) a^k b^(n-k) / (L b^n): the loop multiplies and
        adds integer numerators only, and the one Fraction built at the
        end is the same reduced value a Fraction Horner gives.
        """
        t = _frac(point)
        a, b = t.numerator, t.denominator
        nums, common = numerators_over_lcm(self.coeffs)
        acc, power = 0, 1
        for num in reversed(nums):
            acc = acc * a + num * power
            power *= b
        return Fraction(acc, common * b**self.order)


def _convolve(left: RationalSeries, right: RationalSeries, order: int) -> RationalSeries:
    """The product's coefficients 0..order, skipping zero coefficients of either factor."""
    out = [Fraction(0)] * (order + 1)
    for i, a in enumerate(left.coeffs[: order + 1]):
        if a == 0:
            continue
        for j, b in enumerate(right.coeffs[: order + 1 - i]):
            if b:
                out[i + j] += a * b
    return RationalSeries(tuple(out))


def binomial_series(exponent: Scalar, order: int, scale: Scalar = 1) -> RationalSeries:
    """(1 + scale*t)**exponent for a rational exponent."""
    e = _frac(exponent)
    s = _frac(scale)
    coeffs = [Fraction(1)]
    for n in range(1, order + 1):
        coeffs.append(coeffs[-1] * (e - n + 1) / n * s)
    return RationalSeries.from_coeffs(coeffs, order=order)
