"""Two-sided evaluation of the summation identities, with tail certificates.

For an odd Schwartz function phi with psi its Fourier transform, and each
odd k >= 3, the identity under test is

    phi'(0) + sum_{n>=1} r_k(n)/sqrt(n) phi(sqrt n)
      = i alpha_k psi^(k-2)(0)
        + i sum_{n>=1} r_k(n)/n^((k-2)/2)
            sum_{j=0}^{(k-3)/2} beta_jk n^(j/2) psi^(j)(sqrt n).

The inner sum over j, over n^((k-2)/2), is Q(sqrt n) for one GaussPoly Q
(``radial._beta_quotient`` of psi, built once).  Q = (i/(2 pi)) H for H the
radial transform of f = phi/t, so a right-hand term is r_k(n) Fhat_k(sqrt n).

Each side has one term builder (``_lhs_terms``, ``_rhs_terms``) over an
origin weight and ascending (shell, weight) pairs, node sqrt(shell/den),
with one ``GaussPoly.eval_many`` call over all nodes.  ``verify`` feeds both
the shells of one r_k table and reports the sums at truncation N with
residuals and certified bounds on the discarded tails; ``lhs_general``,
``rhs_general`` and ``shell_table`` sum the same terms.
For k = 3 and k = 5 ``verify`` additionally evaluates the specialized explicit
forms (i psi'(0) + i sum r_3(n)/sqrt(n) psi(sqrt n), and the
psi - sqrt(n) psi' combination with prefactor i/(2 pi), written with their
literal constants rather than through the coefficient machinery) and
insists they agree with the general path to 1e-13 relative.

``verify_shifted`` does the same for the shifted-lattice identity: with
eta, xi in R^k \\ Z^k, the measure

    sigma = sum_{m in Z^k} e^{2 pi i <m,xi>}/|m+eta| (d_{|m+eta|} - d_{-|m+eta|})

has transform

    sigma_hat = -i e^{-2 pi i <eta,xi>} sum_{m in Z^k}
        e^{-2 pi i <m,eta>}/|m+xi|^(k-2)
        sum_j beta_jk |m+xi|^j ((-1)^j d^(j)_{|m+xi|} - d^(j)_{-|m+xi|}).

Since psi_hat is the reflection of phi and both distributions are odd,
<sigma, phi> is minus the pairing of sigma_hat against psi.  Nodes +-v pair
to twice the +v term, so each side is 2 (2 e^{-2 pi i <eta,xi>} on the
right) times the shell series with origin weight 0 and phase-sum weights.
Lattice points are enumerated in integers scaled by D, the shift's common
denominator: shells are D^2 |m+eta|^2, phases <m,xi> mod 1 integer residues.

Tail policy (ours; the identities themselves say nothing about rates): a
discarded shell n > N holds the r_k(n) points of Z^k at radius sqrt(n) >=
sqrt(N + 1), and a discarded shifted shell the points beyond R, so one
certificate, ``_radius_tail``, bounds every tail: radius bands [R+j, R+j+1)
of at most (2(R+j)+5)^k points, each weighted by the band supremum of the
term's explicit polynomial-times-Gaussian envelope, summed with a geometric
remainder once the bandwise ratio bound drops below one (within _TAIL_STEPS
bands, else WorkCapExceeded is raised).  The right-hand tails use the
envelope of Q, so the beta_j pieces that cancel in it are never bounded one
by one.  Bounds below 1e-300 are clamped to zero.  |lhs - rhs| is
``util.modulus``: NaN for a sum that is not finite, in any evaluation order.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from typing import NamedTuple

from .coeffs import _check_odd_k, alpha
from .errors import WorkCapExceeded
from .radial import _beta_quotient
from .schwartz import GaussPoly
from .sumsq import DEFAULT_TABLE_CAP, rk_table
from .util import CompensatedSum, comp_sum, modulus, rel_diff

__all__ = [
    "VerificationReport", "lhs_general", "rhs_general", "verify",
    "shifted_nodes", "verify_shifted", "tail_bound", "shell_table",
    "DEFAULT_N", "DEFAULT_LATTICE_CAP",
]

DEFAULT_N = 400
DEFAULT_LATTICE_CAP = 10 ** 8
_SPECIAL_FORM_RTOL = 1e-13
_TAIL_STEPS = 100000


class VerificationReport(NamedTuple):
    """Both sides of one identity check plus residuals and truncation data."""

    identity: str
    k: int
    lhs: complex
    rhs: complex
    abs_residual: float
    rel_residual: float
    tail_bound_lhs: float
    tail_bound_rhs: float
    terms_used: int
    truncation: dict

    def to_dict(self) -> dict:
        """The fields in order; ``truncation`` is a copy."""
        return {**self._asdict(), "truncation": dict(self.truncation)}


def _require_odd_phi(phi: GaussPoly, name: str = "phi") -> None:
    if not phi.is_odd():
        raise ValueError(f"{name} must be odd (even-power coefficients must vanish); "
                         "apply odd_part first")


# --------------------------------------------------------------------------
# the shell series: one term builder per side
# --------------------------------------------------------------------------

def _lhs_terms(phi: GaussPoly, origin, shells, den: int) -> list[tuple]:
    """(shell, weight, term) for the left-hand series: (0, origin, origin
    phi'(0)), then w/v phi(v), v = sqrt(shell/den), for each of the ascending
    (shell, w) pairs with shell and w nonzero."""
    shells = [(n, w) for n, w in shells if n and w]
    nodes = [math.sqrt(n / den) for n, _ in shells]
    return [(0, origin, origin * phi.derivative().eval(0.0))] + [
        (n, w, w / v * y) for (n, w), v, y in zip(shells, nodes, phi.eval_many(nodes))]


def _rhs_terms(k: int, psi: GaussPoly, q: GaussPoly, origin, shells, den: int) -> list[tuple]:
    """The same for the right-hand series: (0, origin, i origin alpha_k
    psi^(k-2)(0)), then i w Q(v) with q = Q = ``_beta_quotient(psi, k)``."""
    origin_term = origin * 1j * alpha(k).to_float() * psi.derivative(k - 2).eval(0.0)
    shells = [(n, w) for n, w in shells if n and w]
    values = q.eval_many([math.sqrt(n / den) for n, _ in shells])
    return [(0, origin, origin_term)] + [(n, w, 1j * w * y) for (n, w), y in zip(shells, values)]


def lhs_general(k: int, phi: GaussPoly, N: int) -> complex:
    """phi'(0) + sum_{n<=N} r_k(n)/sqrt(n) phi(sqrt n), ascending n."""
    _check_odd_k(k)
    _require_odd_phi(phi)
    terms = _lhs_terms(phi, 1, enumerate(rk_table(k, N).counts), 1)
    return comp_sum(term for _, _, term in terms)


def rhs_general(k: int, psi: GaussPoly, N: int) -> complex:
    """i alpha_k psi^(k-2)(0) + i sum_{n<=N} r_k(n)/n^((k-2)/2)
    sum_j beta_jk n^(j/2) psi^(j)(sqrt n), ascending n; psi must be odd, as
    the transform of an odd phi is."""
    _check_odd_k(k)
    _require_odd_phi(psi, "psi")
    terms = _rhs_terms(k, psi, _beta_quotient(psi, k), 1, enumerate(rk_table(k, N).counts), 1)
    return comp_sum(term for _, _, term in terms)


def _rhs_explicit_k3(psi: GaussPoly, N: int, *, table_cap: int = DEFAULT_TABLE_CAP) -> complex:
    # i psi'(0) + i sum r_3(n)/sqrt(n) psi(sqrt n)
    shells = [(n, r) for n, r in enumerate(rk_table(3, N, table_cap=table_cap).counts)
              if n and r]
    roots = [math.sqrt(n) for n, _ in shells]
    values = zip(shells, roots, psi.eval_many(roots))
    return comp_sum([1j * psi.derivative().eval(0.0)] + [1j * r / s * y for (_, r), s, y in values])


def _rhs_explicit_k5(psi: GaussPoly, N: int, *, table_cap: int = DEFAULT_TABLE_CAP) -> complex:
    # -i/(6 pi) psi'''(0) + i/(2 pi) sum r_5(n)/n^(3/2) [psi(sqrt n) - sqrt(n) psi'(sqrt n)]
    shells = [(n, r) for n, r in enumerate(rk_table(5, N, table_cap=table_cap).counts)
              if n and r]
    origin_term = -1j / (6.0 * math.pi) * psi.derivative(3).eval(0.0)
    roots = [math.sqrt(n) for n, _ in shells]
    values = zip(shells, roots, psi.eval_many(roots), psi.derivative().eval_many(roots))
    return comp_sum([origin_term] + [1j / (2.0 * math.pi) * r / s ** 3 * (y - s * dy)
                                     for (_, r), s, y, dy in values])


def _shell_rows(lhs_terms, rhs_terms) -> list[dict]:
    """Rows of matching terms with the running partial sums of both sides; row
    n = 0 shows each origin term as its accumulator's total (unsigned zeros)."""
    lhs_acc, rhs_acc = CompensatedSum(), CompensatedSum()
    rows = []
    for (n, r, lt), (_, _, rt) in zip(lhs_terms, rhs_terms):
        lhs_acc.add(lt)
        rhs_acc.add(rt)
        lhs, rhs = lhs_acc.total, rhs_acc.total
        if not n:
            lt, rt = lhs, rhs
        rows.append({"n": n, "r_k": r, "lhs_term": lt, "rhs_term": rt,
                     "lhs_partial": lhs, "rhs_partial": rhs})
    return rows


def _verify(k: int, phi: GaussPoly, N: int, *, shell_rows: bool = False,
            table_cap: int = DEFAULT_TABLE_CAP):
    """``verify``'s report and, if shell_rows is set, the ``_shell_rows`` whose
    last partials are its sums (else None), from one r_k table."""
    _check_odd_k(k)
    _require_odd_phi(phi)
    psi = phi.fourier()
    q = _beta_quotient(psi, k)
    counts = rk_table(k, N, table_cap=table_cap).counts
    lhs_terms = _lhs_terms(phi, 1, enumerate(counts), 1)
    rhs_terms = _rhs_terms(k, psi, q, 1, enumerate(counts), 1)
    rows = _shell_rows(lhs_terms, rhs_terms) if shell_rows else None
    if rows:
        lhs, rhs = rows[-1]["lhs_partial"], rows[-1]["rhs_partial"]
    else:
        lhs, rhs = (comp_sum(term for _, _, term in terms) for terms in (lhs_terms, rhs_terms))
    explicit = {3: _rhs_explicit_k3, 5: _rhs_explicit_k5}.get(k)
    if explicit is not None:
        special = explicit(psi, N, table_cap=table_cap)
        if not rel_diff(special, rhs) <= _SPECIAL_FORM_RTOL:  # NaN fails too
            raise ValueError(f"specialized k={k} form disagrees with the general "
                             f"path: {special!r} vs {rhs!r}")
    identity = {3: "guinand", 5: "k5"}.get(k, "general-k")
    report = VerificationReport(
        identity=identity,
        k=k,
        lhs=lhs,
        rhs=rhs,
        abs_residual=modulus(lhs - rhs),
        rel_residual=rel_diff(lhs, rhs),
        tail_bound_lhs=tail_bound(k, phi, N),
        tail_bound_rhs=_radius_tail(k, q.envelope(0), math.sqrt(N + 1)),
        terms_used=len(lhs_terms) - 1,
        truncation={"N": N},
    )
    return report, rows


def verify(k: int, phi: GaussPoly, N: int = DEFAULT_N) -> VerificationReport:
    """Evaluate both sides at truncation N and report residuals.

    For k in {3, 5} the specialized explicit form of the right-hand side is
    evaluated as well and must agree with the general path to 1e-13
    relative; a mismatch raises, since it would mean the coefficient
    machinery and the literal constants disagree.
    """
    return _verify(k, phi, N)[0]


def shell_table(k: int, phi: GaussPoly, N: int) -> list[dict]:
    """Per-shell terms and running partial sums of both sides (plot data):
    the rows of ``verify --format csv``."""
    return _verify(k, phi, N, shell_rows=True)[1]


# --------------------------------------------------------------------------
# tail certificates
# --------------------------------------------------------------------------

def _radius_tail(k: int, pieces, R: float) -> float:
    """Certified bound on the sum over the points of Z^k, or of a shifted
    Z^k, at radius u >= R of C u^p e^(-pi a u^2), summed over envelope pieces
    (C, p, a).

    Band j covers radii [R+j, R+j+1); it holds at most (2(R+j)+5)^k lattice
    points (each coordinate of a point within radius R+j+1 ranges over an
    interval of length 2(R+j+1)), each weighted by the band supremum of
    u^p times the Gaussian envelope (the envelope supremum sits at the left
    edge once past its peak, at the peak before that; u^p takes whichever
    edge its sign makes larger).  Terms drop like e^(-pi a (2u+1)) once past
    the peak, so at the first band whose ratio bound (a bound on each later
    step) is below 1 the rest is its term / (1 - ratio).  No end within
    _TAIL_STEPS bands raises WorkCapExceeded.
    """
    total = 0.0
    for C, p, a in pieces:
        peak = math.sqrt(max(p, 0) / (2.0 * math.pi * a)) if p > 0 else 0.0
        sub = 0.0
        for j in range(_TAIL_STEPS):
            lo = R + j
            env_at = max(lo, peak)
            g = C * (2.0 * lo + 5.0) ** k * (lo ** p if p < 0 else (lo + 1.0) ** p) \
                * math.exp(-math.pi * a * env_at * env_at)
            if g == 0.0:
                break
            ratio = ((2.0 * lo + 7.0) / (2.0 * lo + 5.0)) ** k * ((lo + 2.0) / (lo + 1.0)) \
                ** max(p, 0) * math.exp(-math.pi * a * (2.0 * lo + 1.0)) if lo > peak else math.inf
            if ratio < 1.0:
                sub += g / (1.0 - ratio)
                break
            sub += g
        else:
            raise WorkCapExceeded(f"no tail certificate within {_TAIL_STEPS} bands past R={R:g}")
        total += sub
    return 0.0 if total < 1e-300 else total


def tail_bound(k: int, f: GaussPoly, N: int) -> float:
    """Certified bound on the discarded left-hand tail
    sum_{n>N} r_k(n) n^(-1/2) |f|(sqrt n)."""
    _check_odd_k(k)
    return _radius_tail(k, f.envelope(-1), math.sqrt(N + 1))


# --------------------------------------------------------------------------
# shifted lattices
# --------------------------------------------------------------------------

def _check_shift(k, v) -> tuple[tuple[int, ...], int]:
    """(e, D) with v = e / D componentwise, D the least common denominator."""
    v = tuple(Fraction(x) for x in v)
    if len(v) != k:
        raise ValueError(f"shift vector must have length {k}")
    if all(abs(x - round(x)) < Fraction(1, 10 ** 12) for x in v):
        raise ValueError("shift vector must lie outside Z^k "
                         "(all components are within 1e-12 of integers)")
    D = math.lcm(*(x.denominator for x in v))
    return tuple(x.numerator * (D // x.denominator) for x in v), D


def _shifted_points(k, shift, R, cap, d=None):
    """All m in Z^k with |m + e/D| <= R, shift = (e, D), as
    (m, D^2 |m + e/D|^2, <m, d>) for an integer vector d (zero by default).

    The test is sum (D m_i + e_i)^2 <= floor(R^2 D^2), in integers; given the
    earlier coordinates, m_i runs ascending over the integers with
    |D m_i + e_i| <= isqrt of the remaining budget.  The squared radius and
    <m, d> are carried down the scan as partial sums.
    """
    if R <= 0:
        raise ValueError(f"radius must be positive, got {R}")
    e, D = shift
    budget = math.floor(Fraction(R) ** 2 * D * D)
    s = math.isqrt(budget)
    estimate = math.prod(max((s - ei) // D + (s + ei) // D + 1, 1) for ei in e)
    if estimate > cap:
        raise WorkCapExceeded(
            f"lattice enumeration estimate {estimate} points exceeds cap {cap}")
    d = d or (0,) * k
    out = []
    m = [0] * k

    def scan(i, partial, dot):
        s, ei, di = math.isqrt(budget - partial), e[i], d[i]
        for mi in range(-((s + ei) // D), (s - ei) // D + 1):
            m[i] = mi
            c = D * mi + ei
            if i + 1 < k:
                scan(i + 1, partial + c * c, dot + mi * di)
            else:
                out.append((tuple(m), partial + c * c, dot + mi * di))

    scan(0, 0, 0)
    del scan  # it refers to itself through its closure, a cycle that would hold ``out``
    return out


def shifted_nodes(k: int, eta, R: float, *, cap: int = DEFAULT_LATTICE_CAP):
    """Lattice points m with |m + eta| <= R and their node radii |m + eta|."""
    _check_odd_k(k)
    shift = _check_shift(k, eta)
    return [{"m": m, "node": math.sqrt(nsq / shift[1] ** 2)}
            for m, nsq, _ in _shifted_points(k, shift, R, cap)]


def _phase(num: int, den: int) -> complex:
    # e^(2 pi i num/den), reduced exactly mod 1 first; quarter turns are
    # exact so that shells whose phase sums cancel identically really cancel
    r = num % den
    quarter, rest = divmod(4 * r, den)
    if rest:
        return cmath.exp(2j * math.pi * (r / den))
    return (1 + 0j, 1j, -1 + 0j, -1j)[quarter]


def _phase_shells(k, shift, dual, R, cap) -> list[tuple[int, complex]]:
    """Ascending (D^2 |m+shift|^2, sum of e^(2 pi i <m,dual>)) over the shells
    |m+shift| <= R, for shift = (e, D) and dual = (d, den) in integers."""
    d, den = dual
    phases: dict = {}  # one per residue that occurs: den may be a float's 2^55
    shells: dict = {}
    for _, nsq, dot in _shifted_points(k, shift, R, cap, d):
        r = dot % den
        if r not in phases:
            phases[r] = _phase(r, den)
        shells[nsq] = shells.get(nsq, 0j) + phases[r]
    return sorted(shells.items())


def shifted_lhs_direct(k: int, eta, xi, phi: GaussPoly, R: float,
                       *, cap: int = DEFAULT_LATTICE_CAP) -> complex:
    """<sigma, phi> summed directly over lattice points, not over shells,
    as an independent route for cross-checking the shell series."""
    _check_odd_k(k)
    eta = _check_shift(k, eta)
    x, Dx = _check_shift(k, xi)
    acc = CompensatedSum()
    for m, nsq, _ in sorted(_shifted_points(k, eta, R, cap), key=lambda p: p[1]):
        v = math.sqrt(nsq / eta[1] ** 2)
        phase = _phase(sum(mi * xi_i for mi, xi_i in zip(m, x)), Dx)
        acc.add(phase / v * (phi.eval(v) - phi.eval(-v)))
    return acc.total


def verify_shifted(k: int, eta, xi, phi: GaussPoly,
                   R_time: float, R_freq: float,
                   *, cap: int = DEFAULT_LATTICE_CAP) -> VerificationReport:
    """Check the shifted-lattice identity through the shell series.

    LHS = <sigma, phi> over nodes |m+eta| <= R_time.  RHS = -<sigma_hat, psi>
    over nodes |m+xi| <= R_freq with psi the transform of phi: pairing
    sigma_hat against psi equals <sigma, psi_hat> = -<sigma, phi> because
    psi_hat is the reflection of phi and sigma is odd.  Both pair +-v to
    twice the term at +v, so each side is 2 times the series of ``verify``
    with the phase sums as shell weights and no origin term, and its tail
    bound takes the envelope pieces with C doubled.
    """
    _check_odd_k(k)
    eta, xi = _check_shift(k, eta), _check_shift(k, xi)
    _require_odd_phi(phi)
    (e, D), (x, Dx) = eta, xi
    psi = phi.fourier()
    q = _beta_quotient(psi, k)
    lhs_terms = _lhs_terms(phi, 0, _phase_shells(k, eta, xi, R_time, cap), D * D)
    freq_shells = _phase_shells(k, xi, (tuple(-a for a in e), D), R_freq, cap)
    rhs_terms = _rhs_terms(k, psi, q, 0, freq_shells, Dx * Dx)
    lhs = 2 * comp_sum(term for _, _, term in lhs_terms)
    rhs = 2 * _phase(-sum(a * b for a, b in zip(e, x)), D * Dx) \
        * comp_sum(term for _, _, term in rhs_terms)
    return VerificationReport(
        identity="shifted",
        k=k,
        lhs=lhs,
        rhs=rhs,
        abs_residual=modulus(lhs - rhs),
        rel_residual=rel_diff(lhs, rhs),
        tail_bound_lhs=_radius_tail(k, [(2 * C, p, a) for C, p, a in phi.envelope(-1)], R_time),
        tail_bound_rhs=_radius_tail(k, [(2 * C, p, a) for C, p, a in q.envelope(0)], R_freq),
        terms_used=len(lhs_terms) + len(rhs_terms) - 2,
        truncation={"R_time": float(R_time), "R_freq": float(R_freq)},
    )
