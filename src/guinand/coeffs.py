"""Exact coefficients of the odd-k summation formulas and the Bessel polynomials.

The two coefficient families are, for odd k >= 3 and 0 <= j <= (k-3)/2,

    alpha_k  = (-1)^((k-3)/2) / (k-2)!!                  * (2 pi)^(-(k-3)/2)
    beta_j_k = (-1)^j (k-j-3)! / ( j! (k-2j-3)!! )       * (2 pi)^(-(k-3)/2)

Both are rational multiples of pi^(-(k-3)/2); the powers of two are folded
into the rational part and the pi power is kept symbolic, so every identity
between coefficients can be checked without rounding.  A ScaledRational
(or an integer multiple of one) is rounded in one place only,
``round_multiples``.  It takes the integers (P, Q) of
``ScaledRational.ratio``, the value with pi replaced by a 50-digit pi, and
returns the integer true quotient (r*P)/Q, which Python rounds correctly,
once, exactly as ``float(Fraction(r*P, Q))`` does.  ``to_float`` is
``round_multiples`` with r = 1, and ``atoms.sigma_k_hat`` rounds each shell
weight r_k(n)*beta_j_k through it from one (P, Q) per j.

The Bessel polynomials theta_n are the integer polynomials with

    theta_0 = 1,  theta_1 = z + 1,
    theta_n = (2n-1) theta_{n-1} + z^2 theta_{n-2},

and satisfy, coefficient by coefficient, theta_n(z) = (2 pi)^n *
sum_j beta_j_k (-z)^j with k = 2n+3.  ``beta_bessel_crosscheck`` verifies
that identity exactly.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .util import Frozen

# 50 decimal digits of pi; used only when converting exact values to float.
PI_50 = Fraction("3.14159265358979323846264338327950288419716939937511")


def double_factorial(n: int) -> int:
    """n!! with the conventions (-1)!! = 0!! = 1."""
    if n < -1:
        raise ValueError(f"double factorial undefined for n = {n}")
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


class ScaledRational(Frozen):
    """Exact value (num/den) * pi^pi_power, normalized so gcd(|num|,den)=1, den>0."""

    __slots__ = ("num", "den", "pi_power")

    def __init__(self, num: int, den: int, pi_power: int) -> None:
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "pi_power", pi_power)

    @staticmethod
    def make(value, pi_power: int = 0) -> "ScaledRational":
        fr = Fraction(value)
        return ScaledRational(fr.numerator, fr.denominator, pi_power)

    @property
    def fraction(self) -> Fraction:
        return Fraction(self.num, self.den)

    def __mul__(self, other):
        if isinstance(other, ScaledRational):
            return ScaledRational.make(self.fraction * other.fraction,
                                       self.pi_power + other.pi_power)
        if isinstance(other, (int, Fraction)):
            return ScaledRational.make(self.fraction * other, self.pi_power)
        return NotImplemented

    __rmul__ = __mul__

    def __neg__(self):
        return ScaledRational(-self.num, self.den, self.pi_power)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = ScaledRational.make(other)
        if not isinstance(other, ScaledRational):
            return NotImplemented
        if self.num == 0:
            return other
        if other.num == 0:
            return self
        if self.pi_power != other.pi_power:
            raise ValueError("cannot add exact values with different pi powers")
        return ScaledRational.make(self.fraction + other.fraction, self.pi_power)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = ScaledRational.make(other)
        if not isinstance(other, ScaledRational):
            return NotImplemented
        if self.num == 0 and other.num == 0:
            return True
        return (self.fraction == other.fraction
                and self.pi_power == other.pi_power)

    def __hash__(self):
        if self.num == 0:
            return hash(0)
        return hash((self.num, self.den, self.pi_power))

    def ratio(self) -> tuple[int, int]:
        """(P, Q) with P/Q the value at pi = PI_50, exactly; Q > 0."""
        value = self.fraction * PI_50 ** self.pi_power
        return value.numerator, value.denominator

    def to_float(self) -> float:
        """Round once: the value at 50 digits of pi, as ``round_multiples`` rounds."""
        return round_multiples(1, [self.ratio()])[0]

    def __str__(self) -> str:
        if self.num == 0:
            return "0"
        rat = str(self.num) if self.den == 1 else f"{self.num}/{self.den}"
        if self.pi_power == 0:
            return rat
        pi = "pi" if self.pi_power == 1 else f"pi^{self.pi_power}"
        return f"{rat} * {pi}"


def round_multiples(r: int, ratios) -> list[float]:
    """[(r*P)/Q for each (P, Q)]: every value r*P/Q correctly rounded, once.

    The one place a ScaledRational becomes a float.  Integer true division
    rounds the exact quotient, so the result does not depend on whether P/Q
    is in lowest terms and equals float(Fraction(r*P, Q)) bit for bit.
    """
    return [r * p / q for p, q in ratios]


def _check_odd_k(k: int, minimum: int = 3) -> None:
    """The one dimension check of the package: k odd and at least ``minimum``."""
    if k < minimum or k % 2 == 0:
        raise ValueError(f"k must be an odd integer >= {minimum}, got {k}")


def alpha(k: int) -> ScaledRational:
    """Coefficient of the origin atom: (-1)^((k-3)/2)/(k-2)!! * (2 pi)^(-(k-3)/2)."""
    _check_odd_k(k)
    m = (k - 3) // 2
    fr = Fraction((-1) ** m, double_factorial(k - 2) * 2 ** m)
    return ScaledRational.make(fr, -m)


def beta(j: int, k: int) -> ScaledRational:
    """Shell coefficient (-1)^j (k-j-3)!/(j!(k-2j-3)!!) * (2 pi)^(-(k-3)/2)."""
    _check_odd_k(k)
    m = (k - 3) // 2
    if not 0 <= j <= m:
        raise ValueError(f"j must satisfy 0 <= j <= (k-3)/2 = {m}, got {j}")
    fr = Fraction((-1) ** j * math.factorial(k - j - 3),
                  math.factorial(j) * double_factorial(k - 2 * j - 3) * 2 ** m)
    return ScaledRational.make(fr, -m)


def betas(k: int) -> list[ScaledRational]:
    """All beta_j_k for j = 0 .. (k-3)/2, from beta_0_k by the exact ratio
    beta_(j+1)_k / beta_j_k = -(k-2j-3) / ((j+1) (k-j-3)): one small
    rational step per j instead of three factorials."""
    _check_odd_k(k)
    m = (k - 3) // 2
    fr = Fraction(math.factorial(k - 3), double_factorial(k - 3) * 2 ** m)
    out = [ScaledRational.make(fr, -m)]
    for j in range(m):
        fr *= Fraction(-(k - 2 * j - 3), (j + 1) * (k - j - 3))
        out.append(ScaledRational.make(fr, -m))
    return out


class BesselPoly(NamedTuple):
    """theta_n as integer coefficients in ascending powers of z."""

    n: int
    coeffs: tuple[int, ...]

    def __call__(self, z: complex) -> complex:
        val = 0j
        for c in reversed(self.coeffs):
            val = val * z + c
        return val


def bessel_poly(n: int) -> BesselPoly:
    """theta_n by the recurrence theta_n = (2n-1) theta_{n-1} + z^2 theta_{n-2}."""
    if n < 0:
        raise ValueError(f"degree must be nonnegative, got {n}")
    prev, cur = [1], [1, 1]
    if n == 0:
        return BesselPoly(0, (1,))
    for m in range(2, n + 1):
        nxt = [(2 * m - 1) * c for c in cur] + [0] * (len(prev) + 2 - len(cur))
        for i, c in enumerate(prev):
            nxt[i + 2] += c
        prev, cur = cur, nxt
    return BesselPoly(n, tuple(cur))


def beta_bessel_crosscheck(n: int) -> bool:
    """Check theta_n(z) == (2 pi)^n sum_j beta_j_k (-z)^j with k = 2n+3, exactly.

    The (2 pi)^n cancels every pi power, so both sides are plain integers.
    """
    if n < 0:
        raise ValueError(f"degree must be nonnegative, got {n}")
    k = 2 * n + 3
    theta = bessel_poly(n)
    for j in range(n + 1):
        rhs = beta(j, k) * ScaledRational.make(Fraction((-1) ** j * 2 ** n), n)
        if rhs.pi_power != 0 or rhs.fraction != theta.coeffs[j]:
            return False
    return True
