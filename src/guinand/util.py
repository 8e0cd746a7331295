"""Small numeric helpers: the package's one summation primitive and a
relative difference.

Every term of every series passes through ``CompensatedSum.add``, so it
writes the Neumaier step out inline instead of calling a helper.
"""

from __future__ import annotations


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
    """Compensated sum of an iterable of complex values, in iteration order."""
    acc = CompensatedSum()
    for v in values:
        acc.add(v)
    return acc.total


def rel_diff(a: complex, b: complex, floor: float = 1e-300) -> float:
    """|a-b| relative to max(|a|, |b|, floor)."""
    return abs(a - b) / max(abs(a), abs(b), floor)
