"""Truncated temperate distributions as finite combs of derivative-delta atoms.

An atom is a weighted functional delta_x^(j) acting on test functions by

    <delta_x^(j), f> = (-1)^j f^(j)(x),

the standard distribution-theory sign; with that convention the comb
-2 delta'_0 pairs with an odd phi to 2 phi'(0), matching the left-hand side
phi'(0) + sum ... of the summation identities after the odd doubling.

The combs built here are truncations of

    sigma_k     = -2 delta'_0 + sum_n r_k(n)/sqrt(n) (d_{sqrt n} - d_{-sqrt n})
    sigma_k_hat = 2 i alpha_k d^(k-2)_0
                  - i sum_n r_k(n)/n^((k-2)/2)
                    sum_j beta_jk n^(j/2) ((-1)^j d^(j)_{sqrt n} - d^(j)_{-sqrt n})

together with their generalizations to arbitrary point measures mu on R^k
with locally finite support (``project_measure`` / ``project_ft``), where the
shell weight r_k(n) is replaced by the sum of mu-weights on the sphere of
radius |lambda| and an origin mass feeds the delta'_0 / d^(k-2)_0 atom.

Every comb here is built by one of two builders from an origin weight and
per-shell weights:
``sigma_comb`` for the sigma type (weight/|v| at +-v) and ``sigma_hat_comb``
for the sigma_hat type (beta-weighted derivative atoms at +-v).

Locations are sqrt(shell) with the shell kept exact (int or Fraction)
alongside the float, so atoms on equal shells merge by exact comparison,
never by float equality.  The canonical order of a comb is ascending
(location, order): ``make_comb`` sorts into it, and the builders emit it
directly unless two shells round to one float location.  Pairing
accumulates in that order with compensated summation, which makes results
reproducible; the derivative orders may be evaluated in any order.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import NamedTuple

from .coeffs import _check_odd_k, alpha, betas, round_multiples
from .schwartz import GaussPoly
from .sumsq import DEFAULT_TABLE_CAP, rk_table
from .util import Frozen, comp_sum

__all__ = [
    "Atom", "AtomComb", "PointMeasure", "make_comb", "pair",
    "sigma_k", "sigma_k_hat", "project_measure", "project_ft",
    "comb_to_json", "comb_from_json", "point_measure",
]


class Atom(NamedTuple):
    """Weighted derivative-delta: weight * delta_location^(order)."""

    location: float
    order: int
    weight: complex
    shell: int | Fraction | None = None  # exact location**2 when known


class AtomComb(Frozen):
    """Finite comb, atoms sorted by (location, order), duplicates merged.
    ``meta`` labels the comb; equality and hashing ignore it."""

    __slots__ = ("atoms", "meta")

    def __init__(self, atoms: tuple[Atom, ...], meta: dict | None = None) -> None:
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "meta", {} if meta is None else meta)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.atoms == other.atoms

    def __hash__(self) -> int:
        return hash((self.atoms,))

    @property
    def max_order(self) -> int:
        return max((a.order for a in self.atoms), default=0)


def make_comb(atoms, **meta) -> AtomComb:
    """Merge duplicate (location, order) atoms and sort.

    Atoms carrying an exact shell merge by (sign, shell, order); others by
    the float location.
    """
    merged: dict = {}
    for a in atoms:
        if a.shell is not None:
            key = ("shell", a.location < 0, a.shell, a.order)
        else:
            key = ("float", a.location, a.order)
        if key in merged:
            old = merged[key]
            merged[key] = Atom(old.location, old.order, old.weight + a.weight,
                               old.shell)
        else:
            merged[key] = a
    kept = [a for a in merged.values() if a.weight != 0]
    kept.sort(key=lambda a: (a.location, a.order))
    return AtomComb(tuple(kept), dict(meta))


def pair(comb: AtomComb, f: GaussPoly) -> complex:
    """<comb, f> = sum of weight * (-1)^order * f^(order)(location).

    One ``eval_many`` call per derivative order; summation runs in the
    comb's canonical order with compensated accumulation.
    """
    derivs = f.derivatives(comb.max_order)
    atoms = comb.atoms
    orders = [a.order for a in atoms]
    values = {}
    for order in set(orders):
        values[order] = iter(derivs[order].eval_many([a.location for a in atoms
                                                      if a.order == order]))
    return comp_sum([a.weight * (-1) ** o * next(values[o]) for a, o in zip(atoms, orders)])


# --------------------------------------------------------------------------
# the two comb builders
# --------------------------------------------------------------------------

def _shell_comb(origin_atom, per_shell, meta: dict) -> AtomComb:
    """``make_comb`` of ``origin_atom`` (or None) and, per ascending shell,
    atoms alternating +v, -v by ascending order: the -v atoms by descending
    shell, the origin atom, the +v atoms, unless two locations collide."""
    head = [origin_atom] if origin_atom is not None else []
    locations = [atoms[0].location for atoms in per_shell]
    if any(a >= b for a, b in zip(locations, locations[1:])):
        return make_comb(head + [a for atoms in per_shell for a in atoms], **meta)
    ordered = [a for atoms in reversed(per_shell) for a in atoms[1::2]] + head \
        + [a for atoms in per_shell for a in atoms[0::2]]
    return AtomComb(tuple(a for a in ordered if a.weight != 0), meta)


def sigma_comb(k: int, origin: complex, shells: dict, **meta) -> AtomComb:
    """-2 origin d'_0 + sum over shells of w/|v| (d_{+v} - d_{-v}), with
    v = sqrt(shell) for each {exact shell: weight w}."""
    origin_atom = Atom(0.0, 1, -2 * origin, 0) if origin != 0 else None
    per_shell = []
    for nsq in sorted(shells):
        v = math.sqrt(float(nsq))
        w = shells[nsq] / v
        per_shell.append((Atom(v, 0, w, nsq), Atom(-v, 0, -w, nsq)))
    return _shell_comb(origin_atom, per_shell, {"k": k, **meta})


def sigma_hat_comb(k: int, origin: complex, shells, **meta) -> AtomComb:
    """2 i origin alpha_k d^(k-2)_0 - i sum over (shell, base_by_j) pairs of
    sum_j base_j v^j / v^(k-2) ((-1)^j d^(j)_{+v} - d^(j)_{-v}), v = sqrt(shell)."""
    origin_atom = (Atom(0.0, k - 2, (2j * origin) * alpha(k).to_float(), 0)
                   if origin != 0 else None)
    per_shell = []
    for nsq, base_by_j in shells:
        v = math.sqrt(float(nsq))
        atoms = []
        for j, base in enumerate(base_by_j):
            mag = base * v ** j / v ** (k - 2)
            atoms += [Atom(v, j, (-1j) * (mag if j % 2 == 0 else -mag), nsq),
                      Atom(-v, j, (1j) * mag, nsq)]
        per_shell.append(atoms)
    return _shell_comb(origin_atom, per_shell, {"k": k, **meta})


def sigma_k(k: int, N: int, *, table_cap: int = DEFAULT_TABLE_CAP) -> AtomComb:
    """Truncation of sigma_k to shells n <= N (plus the origin atom)."""
    _check_odd_k(k)
    return _sigma_k(k, rk_table(k, N, table_cap=table_cap).counts)


def _sigma_k(k: int, counts) -> AtomComb:
    """sigma_k on the shells of a table counts = (r_k(0), ..., r_k(N)); k odd."""
    shells = {n: complex(r) for n, r in enumerate(counts) if n and r}
    return sigma_comb(k, complex(1.0), shells, N=len(counts) - 1, parity="odd")


def sigma_k_hat(k: int, N: int, *, table_cap: int = DEFAULT_TABLE_CAP) -> AtomComb:
    """Truncation of the transform of sigma_k to shells n <= N.

    The rational-times-pi parts of the weights, r_k(n) * beta_jk, are exact:
    each beta_jk is written once as integers P_j/Q_j (pi as 50 digits), and
    each weight is rounded once, as (r_k(n) * P_j) / Q_j by
    ``coeffs.round_multiples``.  Only the sqrt(n) powers are floating point.
    """
    _check_odd_k(k)
    return _sigma_k_hat(k, rk_table(k, N, table_cap=table_cap).counts)


def _sigma_k_hat(k: int, counts) -> AtomComb:
    """sigma_k_hat on the shells of a table counts = (r_k(0), ..., r_k(N)); k odd."""
    ratios = [b.ratio() for b in betas(k)]
    shells = ((n, round_multiples(r, ratios)) for n, r in enumerate(counts) if n and r)
    return sigma_hat_comb(k, complex(1.0), shells, N=len(counts) - 1, parity="odd")


# --------------------------------------------------------------------------
# general point measures
# --------------------------------------------------------------------------

class PointMeasure(NamedTuple):
    """Finitely many weighted points in R^k (a truncation of a measure with
    locally finite support)."""

    k: int
    atoms: tuple[tuple[tuple, complex], ...]


def point_measure(k: int, entries) -> PointMeasure:
    """Build a PointMeasure; duplicate points are merged exactly."""
    merged: dict = {}
    for point, weight in entries:
        key = tuple(Fraction(x) for x in point)
        if len(key) != k:
            raise ValueError(f"point {point!r} does not have dimension {k}")
        merged[key] = merged.get(key, 0j) + complex(weight)
    return PointMeasure(k, tuple(sorted(merged.items())))


def _shells(mu: PointMeasure):
    """Group points by the exact squared radius; returns (origin_weight,
    {shell: weight_sum}) with integer shells normalized to int."""
    origin = 0j
    shells: dict = {}
    for point, weight in mu.atoms:
        nsq = sum(Fraction(x) ** 2 for x in point)
        if nsq == 0:
            origin += weight
            continue
        nsq = int(nsq) if nsq.denominator == 1 else nsq
        shells[nsq] = shells.get(nsq, 0j) + weight
    return origin, shells


def project_measure(mu: PointMeasure) -> AtomComb:
    """The 1-D comb -2 a(0) delta'_0 + sum a(lambda)/|lambda| (d_{|l|} - d_{-|l|})."""
    _check_odd_k(mu.k)
    a0, shells = _shells(mu)
    return sigma_comb(mu.k, a0, shells, parity="odd")


def project_ft(mu_hat: PointMeasure, k: int) -> AtomComb:
    """The 1-D comb for the transform: 2 i b(0) alpha_k d^(k-2)_0 minus the
    beta-weighted derivative atoms at +-|s| for each shell of mu_hat."""
    _check_odd_k(k)
    if mu_hat.k != k:
        raise ValueError(f"measure dimension {mu_hat.k} != k = {k}")
    b0, shells = _shells(mu_hat)
    beta_floats = [b.to_float() for b in betas(k)]
    pairs = ((nsq, [shells[nsq] * bf for bf in beta_floats]) for nsq in sorted(shells))
    return sigma_hat_comb(k, b0, pairs, parity="odd")


# --------------------------------------------------------------------------
# serialization
# --------------------------------------------------------------------------

def comb_to_json(comb: AtomComb) -> str:
    """JSON array of {n, location, order, weight: [re, im]}; n is the exact
    integer shell when available, else null."""
    rows = []
    for a in comb.atoms:
        n = a.shell if isinstance(a.shell, int) else None
        rows.append({"n": n, "location": a.location, "order": a.order,
                     "weight": [a.weight.real, a.weight.imag]})
    return json.dumps(rows)


def comb_from_json(text: str) -> AtomComb:
    atoms = []
    for row in json.loads(text):
        wre, wim = row["weight"]
        n = row["n"]
        loc = float(row["location"])
        atoms.append(Atom(loc, int(row["order"]), complex(wre, wim),
                          None if n is None else int(n)))
    return make_comb(atoms)
