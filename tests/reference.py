"""Reference code that the tests compare library output against.

None of it is on a production path: the standard function series check
the solve's cos/sin of the phase and ``RationalSeries.compose``;
``padic_sqrt`` decides which square roots exist in Q_p (the oracle for
amplitudes such as sqrt((1+a t')(1+a t''))); ``trajectory_residual``
checks a produced trajectory against the equation of motion.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from padic_oscillator.classical_oscillator import AmplitudePhase
from padic_oscillator.exact_numbers import _require_prime, _unit_part
from padic_oscillator.series import RationalSeries


# -- standard expansions ---------------------------------------------


def sin_series(order: int) -> RationalSeries:
    coeffs = [
        Fraction((-1) ** (k // 2), factorial(k)) if k % 2 else Fraction(0)
        for k in range(order + 1)
    ]
    return RationalSeries.from_coeffs(coeffs, order=order)


def cos_series(order: int) -> RationalSeries:
    coeffs = [
        Fraction((-1) ** (k // 2), factorial(k)) if k % 2 == 0 else Fraction(0)
        for k in range(order + 1)
    ]
    return RationalSeries.from_coeffs(coeffs, order=order)


def exp_series(order: int) -> RationalSeries:
    return RationalSeries.from_coeffs([Fraction(1, factorial(k)) for k in range(order + 1)])


def log1p_series(order: int) -> RationalSeries:
    """log(1 + t)."""
    coeffs = [Fraction(0)] + [Fraction((-1) ** (k + 1), k) for k in range(1, order + 1)]
    return RationalSeries.from_coeffs(coeffs, order=order)


def atan_series(order: int) -> RationalSeries:
    coeffs = [
        Fraction((-1) ** (k // 2), k) if k % 2 else Fraction(0) for k in range(order + 1)
    ]
    return RationalSeries.from_coeffs(coeffs, order=order)


# -- square roots in Q_p ----------------------------------------------


def _sqrt_mod_prime(a: int, p: int) -> int:
    """A square root of the quadratic residue a mod the odd prime p, by Tonelli-Shanks."""
    odd, twos = p - 1, 0
    while odd % 2 == 0:
        odd, twos = odd // 2, twos + 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:  # the least quadratic non-residue
        z += 1
    c, t, root = pow(z, odd, p), pow(a, odd, p), pow(a, (odd + 1) // 2, p)
    while t != 1:
        order, t_pow = 0, t  # t has multiplicative order 2^order < 2^twos
        while t_pow != 1:
            t_pow, order = t_pow * t_pow % p, order + 1
        b = pow(c, 1 << (twos - order - 1), p)
        twos, c = order, b * b % p
        t, root = t * c % p, root * b % p
    return root


def padic_sqrt(x: Fraction | int, p: int, digits: int = 32) -> tuple[int, int] | None:
    """A square root p**v * r of x in Q_p as (v, r mod p**digits), or None if none exists.

    Existence: the valuation must be even and the unit part a square
    (for odd p a quadratic residue mod p; for p = 2 congruent 1 mod 8).
    Of the two roots the one whose leading digit is at most (p-1)/2 is
    returned; for p = 2, where both roots lead with digit 1, the root
    congruent 1 mod 4.
    """
    _require_prime(p)
    v, num, den = _unit_part(x, p)  # the unit part is num / den
    if num == 0:
        raise ValueError("zero has no unit digit expansion")
    if v % 2:
        return None

    if p == 2:
        work = digits + 2
        modulus = 1 << work
        u = num * pow(den, -1, modulus) % modulus
        if u % 8 != 1:
            return None
        root = 1
        for k in range(3, work):
            if (root * root - u) % (1 << (k + 1)):
                root += 1 << (k - 1)
        if root % 4 != 1:
            root = modulus - root
        root %= 1 << digits
    else:
        u0 = num * pow(den, -1, p) % p
        if pow(u0, (p - 1) // 2, p) != 1:
            return None
        root = _sqrt_mod_prime(u0, p)
        k = 1
        while k < digits:
            k = min(2 * k, digits)
            modulus = p**k
            u = num * pow(den, -1, modulus) % modulus
            root = (root + u * pow(root, -1, modulus)) * pow(2, -1, modulus) % modulus
        if root % p > (p - 1) // 2:
            root = p**digits - root

    return v // 2, root


# -- the equation of motion -------------------------------------------


def trajectory_residual(ap: AmplitudePhase, trajectory: RationalSeries) -> RationalSeries:
    """x'' + omega^2 x for a produced trajectory; zero through order-2."""
    return trajectory.differentiate().differentiate() + ap.model.freq_sq * trajectory
