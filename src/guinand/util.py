"""Small helpers: the one summation primitive, the one modulus of a complex,
a relative difference, and the base of the immutable __slots__ classes.

Every term of every series passes through ``comp_sum`` or, where the
running partials are wanted too, ``CompensatedSum.add``; both write the
same Neumaier step out inline instead of calling a helper.
"""

from __future__ import annotations

import math


class Frozen:
    """Base of the immutable __slots__ classes: they set their slots with
    object.__setattr__; assigning or deleting one raises AttributeError.
    The default repr lists the slots as keyword arguments."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class CompensatedSum:
    """Neumaier-compensated accumulator for complex values.

    The result is deterministic for a fixed order of ``add`` calls, which is
    what makes pairing and series evaluation reproducible run to run.
    ``add`` runs the Neumaier step inline, once on the real parts and once
    on the imaginary parts: s + x, then the lost low part of whichever of s
    and x is larger in magnitude goes into the compensation.
    """

    __slots__ = ("_sr", "_si", "_cr", "_ci")

    def __init__(self) -> None:
        self._sr = 0.0
        self._si = 0.0
        self._cr = 0.0
        self._ci = 0.0

    def add(self, z: complex) -> None:
        z = complex(z)
        s, x = self._sr, z.real
        t = s + x
        if abs(s) >= abs(x):
            self._cr += (s - t) + x
        else:
            self._cr += (x - t) + s
        self._sr = t
        s, x = self._si, z.imag
        t = s + x
        if abs(s) >= abs(x):
            self._ci += (s - t) + x
        else:
            self._ci += (x - t) + s
        self._si = t

    @property
    def total(self) -> complex:
        return complex(self._sr + self._cr, self._si + self._ci)


def comp_sum(values) -> complex:
    """Compensated sum of an iterable of complex values, in iteration order:
    a ``CompensatedSum`` total, bit for bit, on local floats."""
    sr = si = cr = ci = 0.0
    for z in map(complex, values):
        x = z.real
        t = sr + x
        if abs(sr) >= abs(x):
            cr += (sr - t) + x
        else:
            cr += (x - t) + sr
        sr = t
        x = z.imag
        t = si + x
        if abs(si) >= abs(x):
            ci += (si - t) + x
        else:
            ci += (x - t) + si
        si = t
    return complex(sr + cr, si + ci)


def modulus(z) -> float:
    """|z| of any number, NaN for a NaN part and inf past the float range.
    ``abs`` of a complex with a NaN part raises OverflowError whenever the
    last libm call left errno set; the NaN test here comes first."""
    if z != z:
        return math.nan
    try:
        return abs(z)
    except OverflowError:
        return math.inf


def rel_diff(a: complex, b: complex) -> float:
    """|a-b| relative to max(|a|, |b|, 1e-300); NaN when a or b is not finite.

    The ratio is at most 2, unless a modulus or a - b overflows.  In that
    case finite a and b are scaled by a power of two, exactly, so that every
    modulus fits."""
    rel = modulus(a - b) / max(modulus(a), modulus(b), 1e-300)
    if math.isfinite(rel):
        return rel
    parts = (a.real, a.imag, b.real, b.imag)
    if not all(map(math.isfinite, parts)):
        return math.nan
    scale = math.ldexp(1.0, -math.frexp(max(map(abs, parts)))[1])
    a, b = a * scale, b * scale
    return abs(a - b) / max(abs(a), abs(b), 1e-300 * scale)
