"""Per-job correctness checks for the benchmark.

Nothing here imports ``guinand``: every reference is computed independently.

* ``summarize`` runs right after a job, outside the timed region, and keeps
  only what the check needs, so a run's memory does not grow with the size
  of the outputs it has produced.
* ``check`` compares a summary against its reference after the run:

  - ``verify`` (JSON) and ``verify-shifted``: exit 0, the residual within
    tol, and tail_bound_lhs + tail_bound_rhs <= tol * max(|lhs|, |rhs|);
  - ``verify --format csv``: exit 0, final partial sums within tol, and the
    (n, r_k) column equal to the nonzero entries of a reference table;
  - ``duality``: rel_diff <= tol, recomputed from the two pairings;
  - ``rk``: every entry equal to the reference table;
  - ``radial-ft`` and ``sphere-ft``: sampled values within the README
    contract, |value - ref| <= 1e-8 * max(1, |ref|), against mpmath.

The reference r_k table is the coefficient list of theta(q)^k, with theta(q)
= 1 + 2 sum q^(j^2), computed by packing the series into one big integer
(Kronecker substitution).  It shares no algorithm with the package's
convolution.  The exhaustive oracle ``rk_bruteforce`` is not used: its scan
grows exponentially with k and is out of reach at k = 21.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
import re
from fractions import Fraction

RADIAL_RTOL = 1e-8
DEFAULT_TOL = {"verify": 1e-9, "duality": 1e-9, "verify-shifted": 1e-8}
SAMPLES_PER_GRID = 3


def options(argv: list[str]) -> dict[str, str]:
    """--flag value pairs of an argv list (every benchmark flag takes one)."""
    return {argv[i][2:]: argv[i + 1] for i in range(1, len(argv) - 1, 2)}


def _complex(pair) -> complex:
    return complex(float(pair[0]), float(pair[1]))


def _digest(pairs) -> str:
    h = hashlib.sha256()
    for n, r in pairs:
        h.update(f"{n}:{r};".encode())
    return h.hexdigest()


def summarize(argv: list[str], status: int, out: str, err: str, index: int) -> dict:
    """Compact record of one job's result; ``index`` seeds the row sample."""
    rec = {"argv": argv, "status": status}
    if status != 0:
        rec.update(stdout_bytes=len(out), stderr=err[-1000:])
        return rec
    cmd, opt = argv[0], options(argv)
    if cmd in ("verify", "verify-shifted") and opt.get("format") != "csv":
        d = json.loads(out)
        rec.update(lhs=_complex(d["lhs"]), rhs=_complex(d["rhs"]),
                   tails=d["tail_bound_lhs"] + d["tail_bound_rhs"])
    elif cmd == "verify":
        rows = list(csv.reader(out.splitlines()))[1:]
        last = rows[-1]
        rec.update(shells=_digest((int(r[0]), int(r[1])) for r in rows),
                   lhs=complex(float(last[6]), float(last[7])),
                   rhs=complex(float(last[8]), float(last[9])))
    elif cmd == "duality":
        d = json.loads(out)
        rec.update(a=_complex(d["pair_sigma_hat_phi"]), b=_complex(d["pair_sigma_phi_hat"]),
                   rel_diff=d["rel_diff"])
    elif cmd == "rk":
        if opt.get("format") == "csv":
            counts = [int(r[1]) for r in list(csv.reader(out.splitlines()))[1:]]
        else:
            counts = json.loads(out)["counts"]
        rec.update(counts=_digest(enumerate(counts)), length=len(counts))
    elif cmd in ("radial-ft", "sphere-ft"):
        if opt.get("format") == "csv":
            rows = list(csv.reader(out.splitlines()))[1:]
            values = [(float(r[1]), r[2],
                       complex(float(r[3]), float(r[4])) if cmd == "radial-ft" else float(r[3]))
                      for r in rows]
        else:
            values = [(row["t"], row["method"],
                       _complex(row["value"]) if cmd == "radial-ft" else row["value"])
                      for row in json.loads(out)]
        picks = {0} | set(random.Random(index).sample(range(len(values)),
                                                       min(SAMPLES_PER_GRID, len(values))))
        rec.update(rows=len(values), sample=[values[i] for i in sorted(picks)])
    else:
        raise ValueError(f"no check for subcommand {cmd!r}")
    return rec


# --------------------------------------------------------------------------
# references
# --------------------------------------------------------------------------

def rk_reference(k: int, n_max: int) -> list[int]:
    """r_k(0..n_max) as the coefficients of theta(q)^k, truncated after q^n_max."""
    # every coefficient met while multiplying is at most r_k(n) for some
    # n <= 2 n_max, and r_k(n) <= (2 sqrt(n) + 1)^k
    slot = (k * (2 * math.isqrt(2 * n_max) + 3).bit_length() + 8) // 8
    width = 8 * slot
    mask = (1 << (width * (n_max + 1))) - 1
    theta = 1
    j = 1
    while j * j <= n_max:
        theta |= 2 << (j * j * width)
        j += 1
    power, base, e = 1, theta, k
    while e:
        if e & 1:
            power = (power * base) & mask
        e >>= 1
        if e:
            base = (base * base) & mask
    raw = power.to_bytes(slot * (n_max + 1), "little")
    return [int.from_bytes(raw[i * slot:(i + 1) * slot], "little")
            for i in range(n_max + 1)]


_GAUSS_TERM = re.compile(r"\(([^()]*)\)\*exp\(-pi\*([0-9/.]+)\*t\^2\)")
_POLY_TERM = re.compile(r"^([0-9.]+)(?:\*t(?:\^(\d+))?)?$")


def parse_gauss_sum(expr: str) -> list[tuple[Fraction, dict[int, Fraction]]]:
    """[(a, {power: coeff})] for the workloads' sum of (poly)*exp(-pi*a*t^2)."""
    terms = []
    for poly, a in _GAUSS_TERM.findall(expr):
        coeffs = {}
        for mono in poly.split("+"):
            c, power = _POLY_TERM.match(mono).groups()
            p = 1 if power is None and "*t" in mono else int(power or 0)
            coeffs[p] = Fraction(c)
        terms.append((Fraction(a), coeffs))
    return terms


def _mpf(fr: Fraction):
    import mpmath
    return mpmath.mpf(fr.numerator) / fr.denominator


def radial_reference(expr: str, k: int, t: float) -> float:
    """k-dimensional transform of the radial lift of an even f, at |xi| = t.

    The transform of exp(-pi a |x|^2) is a^(-k/2) exp(-pi |xi|^2 / a), and
    |x|^(2m) exp(-pi a |x|^2) = (-1/pi)^m d^m/da^m exp(-pi a |x|^2), so each
    term is (-1/pi)^m times the m-th a-derivative of the Gaussian's transform,
    taken exactly on sums of a^p exp(-c/a) terms.
    """
    import mpmath
    with mpmath.workdps(40):
        c = mpmath.pi * mpmath.mpf(t) ** 2
        total = mpmath.mpf(0)
        for a, coeffs in parse_gauss_sum(expr):
            a_mp = _mpf(a)
            for power, coeff in coeffs.items():
                m = power // 2
                # d/da a^p e^(-c/a) = (p a^(p-1) + c a^(p-2)) e^(-c/a)
                terms = {Fraction(-k, 2): mpmath.mpf(1)}
                for _ in range(m):
                    nxt: dict = {}
                    for p, w in terms.items():
                        nxt[p - 1] = nxt.get(p - 1, 0) + w * _mpf(p)
                        nxt[p - 2] = nxt.get(p - 2, 0) + w * c
                    terms = nxt
                deriv = sum(w * a_mp ** _mpf(p) for p, w in terms.items()) \
                    * mpmath.exp(-c / a_mp)
                total += _mpf(coeff) * (-1 / mpmath.pi) ** m * deriv
        return float(total)


def sphere_reference(k: int, t: float) -> float:
    """s_k(t) = 2 pi t^(-nu) J_nu(2 pi t), nu = (k - 2) / 2."""
    import mpmath
    with mpmath.workdps(40):
        nu = mpmath.mpf(k - 2) / 2
        tt = mpmath.mpf(t)
        return float(2 * mpmath.pi * tt ** (-nu) * mpmath.besselj(nu, 2 * mpmath.pi * tt))


# --------------------------------------------------------------------------
# checks
# --------------------------------------------------------------------------

class Checker:
    """Checks job summaries; caches reference tables across jobs."""

    def __init__(self) -> None:
        self._tables: dict = {}

    def _table(self, k: int, n_max: int) -> list[int]:
        key = (k, n_max)
        if key not in self._tables:
            self._tables[key] = rk_reference(k, n_max)
        return self._tables[key]

    def check(self, rec: dict) -> str | None:
        """None when the job's output is right, else the reason it is not."""
        argv = rec["argv"]
        cmd, opt = argv[0], options(argv)
        if rec["status"] != 0:
            return f"exit status {rec['status']}"
        tol = float(opt.get("tol", DEFAULT_TOL.get(cmd, 0.0)))
        if cmd in ("verify", "verify-shifted", "duality"):
            lhs, rhs = (rec["a"], rec["b"]) if cmd == "duality" else (rec["lhs"], rec["rhs"])
            scale = max(abs(lhs), abs(rhs))
            if not abs(lhs - rhs) <= tol * scale:
                return f"residual {abs(lhs - rhs)} above tol * {scale}"
        if cmd == "duality":
            return None if rec["rel_diff"] <= tol else f"rel_diff {rec['rel_diff']}"
        if cmd in ("verify", "verify-shifted") and "tails" in rec:
            ok = rec["tails"] <= tol * max(abs(rec["lhs"]), abs(rec["rhs"]))
            return None if ok else f"tail bounds {rec['tails']} not certified below tol"
        if cmd == "verify":
            k, n_max = int(opt["k"]), int(opt["nmax"])
            table = self._table(k, n_max)
            shells = [(0, 1)] + [(n, r) for n, r in enumerate(table) if n and r]
            return None if _digest(shells) == rec["shells"] else "r_k column differs"
        if cmd == "rk":
            table = self._table(int(opt["k"]), int(opt["nmax"]))
            ok = rec["length"] == len(table) and _digest(enumerate(table)) == rec["counts"]
            return None if ok else "r_k table differs"
        for t, method, value in rec["sample"]:
            k = int(opt["k"])
            if cmd == "sphere-ft":
                ref = sphere_reference(k, t)
            else:
                ref = radial_reference(opt["f"], k, 0.0 if method == "zero" else t)
            if not abs(value - ref) <= RADIAL_RTOL * max(1.0, abs(ref)):
                return f"{method} at t={t}: {value} vs reference {ref}"
        return None
