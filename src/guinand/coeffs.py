"""Exact coefficients of the odd-k summation formulas and the Bessel polynomials.

The two coefficient families are, for odd k >= 3 and 0 <= j <= (k-3)/2,

    alpha_k  = (-1)^((k-3)/2) / (k-2)!!                  * (2 pi)^(-(k-3)/2)
    beta_j_k = (-1)^j (k-j-3)! / ( j! (k-2j-3)!! )       * (2 pi)^(-(k-3)/2)

Both are rational multiples of pi^(-(k-3)/2); the powers of two are folded
into the rational part and the pi power is kept symbolic, so every identity
between coefficients can be checked without rounding.  ``PiScalar``, a sum
of (q_re + i q_im) * pi^e, is the package's one exact scalar; ``split_term``
takes a real one-term value apart into (q, e).  A real PiScalar is rounded in
one place only, ``round_multiples``.  It takes the integers (P, Q) of
``PiScalar.ratio``, the value with pi replaced by a 50-digit pi, and
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

import functools
import math
from fractions import Fraction
from types import MappingProxyType
from typing import NamedTuple

from .util import Frozen

# 50 decimal digits of pi; used only when converting exact values to float.
PI_50 = Fraction("3.14159265358979323846264338327950288419716939937511")


@functools.lru_cache(maxsize=256)
def _pi_50_power(e: int) -> Fraction:
    """PI_50 ** e, built once per exponent: all beta_jk of one k share theirs."""
    return PI_50 ** e


def double_factorial(n: int) -> int:
    """n!! with the conventions (-1)!! = 0!! = 1."""
    if n < -1:
        raise ValueError(f"double factorial undefined for n = {n}")
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


class PiScalar(Frozen):
    """Exact complex scalar sum_e (q_re + i q_im) * pi^e; ``parts`` maps each e
    with a nonzero coefficient to (q_re, q_im), read-only.  A value equal to
    an int or Fraction hashes like it."""

    __slots__ = ("parts",)

    def __init__(self, parts=None) -> None:
        clean = {}
        for e, (re_, im_) in (parts or {}).items():
            if re_ or im_:
                clean[e] = (Fraction(re_), Fraction(im_))
        object.__setattr__(self, "parts", MappingProxyType(clean))

    @staticmethod
    def of(value, pi_power: int = 0) -> "PiScalar":
        """value * pi^pi_power, for a PiScalar, int, Fraction or complex value."""
        if isinstance(value, PiScalar):
            return value * PiScalar({pi_power: (1, 0)}) if pi_power else value
        if isinstance(value, complex):
            return PiScalar({pi_power: (value.real, value.imag)})
        return PiScalar({pi_power: (value, 0)})

    def __add__(self, other):
        other = _as_piscalar(other)
        if other is None:
            return NotImplemented
        parts = dict(self.parts)
        for e, (re_, im_) in other.parts.items():
            r0, i0 = parts.get(e, (0, 0))
            parts[e] = (r0 + re_, i0 + im_)
        return PiScalar(parts)

    __radd__ = __add__

    def __neg__(self):
        return PiScalar({e: (-r, -i) for e, (r, i) in self.parts.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        other = _as_piscalar(other)
        if other is None:
            return NotImplemented
        parts: dict[int, tuple[Fraction, Fraction]] = {}
        for e1, (r1, i1) in self.parts.items():
            for e2, (r2, i2) in other.parts.items():
                r0, i0 = parts.get(e1 + e2, (0, 0))
                parts[e1 + e2] = (r0 + r1 * r2 - i1 * i2, i0 + r1 * i2 + i1 * r2)
        return PiScalar(parts)

    __rmul__ = __mul__

    def __eq__(self, other):
        other = _as_piscalar(other)
        if other is None:
            return NotImplemented
        return self.parts == other.parts

    def __hash__(self):
        if set(self.parts) <= {0}:
            re_, im_ = self.parts.get(0, (0, 0))
            if not im_:
                return hash(re_)
        return hash(frozenset(self.parts.items()))

    def _at_pi_50(self) -> tuple[Fraction, Fraction]:
        """(real, imaginary) parts of the value at pi = PI_50, exactly."""
        re_ = im_ = Fraction(0)
        for e, (r, i) in self.parts.items():
            scale = _pi_50_power(e)
            re_ += r * scale
            im_ += i * scale
        return re_, im_

    def ratio(self) -> tuple[int, int]:
        """(P, Q) with P/Q the value at pi = PI_50, exactly; Q > 0.  Real
        values only."""
        if any(i for _, i in self.parts.values()):
            raise ValueError(f"{self} is not real")
        value = self._at_pi_50()[0]
        return value.numerator, value.denominator

    def to_float(self) -> float:
        """Round once: the value at 50 digits of pi, as ``round_multiples`` rounds."""
        return round_multiples(1, [self.ratio()])[0]

    def __complex__(self) -> complex:
        re_, im_ = self._at_pi_50()
        return complex(float(re_), float(im_))

    def __str__(self) -> str:
        if not self.parts:
            return "0"
        bits = []
        for e in sorted(self.parts):
            r, i = self.parts[e]
            s = f"({r}+{i}i)" if i else f"{r}"
            bits.append(s if e == 0 else f"{s} * pi" if e == 1 else f"{s} * pi^{e}")
        return " + ".join(bits)

    def __repr__(self) -> str:
        return f"PiScalar({self})"


PiScalar.I = PiScalar({0: (0, 1)})


def _as_piscalar(v):
    if isinstance(v, PiScalar):
        return v
    if isinstance(v, (int, Fraction)):
        return PiScalar.of(v)
    return None


def split_term(value: PiScalar) -> tuple[Fraction, int]:
    """(q, e) with value = q * pi^e, for a nonzero real value with one pi
    power, such as alpha_k, beta_jk or a sphere area."""
    parts = list(value.parts.items())
    if len(parts) != 1 or parts[0][1][1]:
        raise ValueError(f"{value} is not a real rational multiple of one power of pi")
    e, (q, _) = parts[0]
    return q, e


def round_multiples(r: int, ratios) -> list[float]:
    """[(r*P)/Q for each (P, Q)]: every value r*P/Q correctly rounded, once.

    The one place a PiScalar becomes a float.  Integer true division
    rounds the exact quotient, so the result does not depend on whether P/Q
    is in lowest terms and equals float(Fraction(r*P, Q)) bit for bit.
    """
    try:
        return [r * p / q for p, q in ratios]
    except OverflowError:
        raise ValueError("exact value is beyond the float range (above 1.8e308)") from None


def _check_odd_k(k: int, minimum: int = 3) -> None:
    """The one dimension check of the package: k odd and at least ``minimum``."""
    if k < minimum or k % 2 == 0:
        raise ValueError(f"k must be an odd integer >= {minimum}, got {k}")


def alpha(k: int) -> PiScalar:
    """Coefficient of the origin atom: (-1)^((k-3)/2)/(k-2)!! * (2 pi)^(-(k-3)/2)."""
    _check_odd_k(k)
    m = (k - 3) // 2
    fr = Fraction((-1) ** m, double_factorial(k - 2) * 2 ** m)
    return PiScalar.of(fr, -m)


def beta(j: int, k: int) -> PiScalar:
    """Shell coefficient (-1)^j (k-j-3)!/(j!(k-2j-3)!!) * (2 pi)^(-(k-3)/2)."""
    _check_odd_k(k)
    m = (k - 3) // 2
    if not 0 <= j <= m:
        raise ValueError(f"j must satisfy 0 <= j <= (k-3)/2 = {m}, got {j}")
    fr = Fraction((-1) ** j * math.factorial(k - j - 3),
                  math.factorial(j) * double_factorial(k - 2 * j - 3) * 2 ** m)
    return PiScalar.of(fr, -m)


def betas(k: int) -> list[PiScalar]:
    """All beta_j_k for j = 0 .. (k-3)/2, from beta_0_k by the exact ratio
    beta_(j+1)_k / beta_j_k = -(k-2j-3) / ((j+1) (k-j-3)): one small
    rational step per j instead of three factorials."""
    _check_odd_k(k)
    m = (k - 3) // 2
    fr = Fraction(math.factorial(k - 3), double_factorial(k - 3) * 2 ** m)
    out = [PiScalar.of(fr, -m)]
    for j in range(m):
        fr *= Fraction(-(k - 2 * j - 3), (j + 1) * (k - j - 3))
        out.append(PiScalar.of(fr, -m))
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
    """theta_n: z^(n-j) has the integer (n+j)!/(2^j j! (n-j)!), each from the
    last by the exact ratio (n+j+1)(n-j)/(2(j+1)), n steps in all."""
    if n < 0:
        raise ValueError(f"degree must be nonnegative, got {n}")
    coeffs = [1]
    for j in range(n):
        coeffs.append(coeffs[-1] * (n + j + 1) * (n - j) // (2 * (j + 1)))
    return BesselPoly(n, tuple(reversed(coeffs)))


def beta_bessel_crosscheck(n: int) -> bool:
    """Check theta_n(z) == (2 pi)^n sum_j beta_j_k (-z)^j with k = 2n+3, exactly.

    The (2 pi)^n cancels every pi power, so both sides are plain integers.
    """
    if n < 0:
        raise ValueError(f"degree must be nonnegative, got {n}")
    k = 2 * n + 3
    theta = bessel_poly(n)
    for j in range(n + 1):
        if beta(j, k) * PiScalar.of((-1) ** j * 2 ** n, n) != theta.coeffs[j]:
            return False
    return True
