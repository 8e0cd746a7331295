"""Acceptance suite: one test per criterion, printing one PASS/FAIL line each.

The status lines bypass pytest's capture, so a plain
``pytest tests/test_acceptance.py -v`` already shows them.

Criterion 8 holds its two 1e-12 gates on the whole grid, including the
small-t cells (k=9, t=0.1) and (k=11, t<=0.2), where plain double arithmetic
would miss them through the upward Bessel recurrence and the cancelling
closed forms; the module docstring of guinand.radial documents how each
route stays accurate there.  A failing gate reports the offending cells.
"""

import itertools
import math
import time
from fractions import Fraction

import pytest

from guinand.atoms import pair, sigma_k, sigma_k_hat
from guinand.coeffs import PiScalar, alpha, beta, beta_bessel_crosscheck
from guinand.formulas import (
    _rhs_explicit_k3, _rhs_explicit_k5, lhs_general, rhs_general, verify,
    verify_shifted,
)
from guinand.radial import (
    SPHERE_METHODS, radial_ft_closed, radial_ft_quadrature, sphere_area,
)
from guinand.schwartz import parse
from conftest import EVEN_SUITE, ODD_SUITE

# fixed by two independent 50-digit scalar summations (they agree to 3e-50):
#   1 + sum r_3(n) e^{-pi n/2} = 2 sqrt2 (1 + sum r_3(n) e^{-2 pi n})
#     = 2.860237190695389098...
PINNED = 2.8602371906953891

T_GRID = [i / 10 for i in range(1, 201)]
K_SET = (3, 5, 7, 9, 11)


_CAPSYS = None


@pytest.fixture(autouse=True)
def _status_passthrough(capsys):
    # let _report write through pytest's capture so every criterion's
    # status line reaches the console/log even without -s
    global _CAPSYS
    _CAPSYS = capsys
    yield
    _CAPSYS = None


def _report(num, name, ok, detail="", started=None):
    took = f" [{time.time() - started:.1f}s]" if started is not None else ""
    line = f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'}{took}"
    if detail:
        line += f" - {detail}"
    if _CAPSYS is not None:
        with _CAPSYS.disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)
    return ok


def test_criterion_1_coefficient_ground_truth():
    t0 = time.time()
    ok = (alpha(3) == PiScalar.of(1)
          and alpha(5) == PiScalar.of(Fraction(-1, 6), -1)
          and beta(0, 3) == PiScalar.of(1)
          and beta(0, 5) == PiScalar.of(Fraction(1, 2), -1)
          and beta(1, 5) == PiScalar.of(Fraction(-1, 2), -1))
    assert _report(1, "coefficient ground truth", ok, started=t0)


def test_criterion_2_bessel_polynomial_identity():
    t0 = time.time()
    bad = [n for n in range(9) if not beta_bessel_crosscheck(n)]
    assert _report(2, "Bessel-polynomial identity n=0..8", not bad,
                   detail=f"failing n: {bad}" if bad else "", started=t0)


def test_criterion_3_rk_correctness():
    from guinand.sumsq import rk_bruteforce, rk_table
    t0 = time.time()
    mismatches = []
    for k in range(1, 7):
        table = rk_table(k, 50)
        for n in range(51):
            if table.counts[n] != rk_bruteforce(k, n):
                mismatches.append((k, n))
    N = 200
    tables = {k: rk_table(k, N) for k in range(1, 8)}
    for k1, k2 in ((1, 1), (1, 2), (2, 3), (3, 4), (4, 7), (5, 6)):
        combined = rk_table(k1 + k2, N)
        for n in range(N + 1):
            conv = sum(tables[k1].counts[j] * tables[k2].counts[n - j]
                       for j in range(n + 1))
            if conv != combined.counts[n]:
                mismatches.append((k1, k2, n))
                break
    assert _report(3, "r_k table vs oracle + convolution identity",
                   not mismatches,
                   detail=str(mismatches[:5]) if mismatches else "",
                   started=t0)


def test_criterion_4_guinand_self_duality():
    t0 = time.time()
    sig = sigma_k(3, 400)
    hat = sigma_k_hat(3, 400)
    ok = len(sig.atoms) == len(hat.atoms) and all(
        a.location == b.location and a.order == b.order
        and b.weight == -1j * a.weight
        for a, b in zip(sig.atoms, hat.atoms))
    assert _report(4, "sigma_3_hat = -i sigma_3 exactly, N=400", ok, started=t0)


def test_criterion_5_summation_identities():
    t0 = time.time()
    worst = (0.0, None)
    for k in K_SET:
        for src in ODD_SUITE:
            rep = verify(k, parse(src).value, 400)
            if rep.rel_residual > worst[0]:
                worst = (rep.rel_residual, (k, src))
    # specialized explicit forms vs the general path
    special_worst = 0.0
    for src in ODD_SUITE:
        phi = parse(src).value
        psi = phi.fourier()
        for k, explicit in ((3, _rhs_explicit_k3), (5, _rhs_explicit_k5)):
            a = explicit(psi, 400)
            b = rhs_general(k, psi, 400)
            special_worst = max(special_worst,
                                abs(a - b) / max(abs(a), abs(b), 1e-300))
    ok = worst[0] <= 1e-9 and special_worst <= 1e-13
    assert _report(5, "identities k=3..11 over 9-function suite", ok,
                   detail=f"worst rel={worst[0]:.2e} at {worst[1]}, "
                          f"explicit-form agreement {special_worst:.2e}",
                   started=t0)


def test_criterion_6_pinned_value():
    t0 = time.time()

    def r3_direct(n):
        count = 0
        for a in range(-math.isqrt(n), math.isqrt(n) + 1):
            ra = n - a * a
            for b in range(-math.isqrt(ra), math.isqrt(ra) + 1):
                rb = ra - b * b
                c = math.isqrt(rb)
                if c * c == rb:
                    count += 2 if c > 0 else 1
        return count

    s1 = 1.0 + sum(r3_direct(n) * math.exp(-math.pi * n / 2)
                   for n in range(1, 60))
    s2 = 2 * math.sqrt(2) * (1.0 + sum(r3_direct(n) * math.exp(-2 * math.pi * n)
                                       for n in range(1, 60)))
    phi = parse("t*exp(-pi*t^2/2)").value
    lhs = lhs_general(3, phi, 400)
    rhs = rhs_general(3, phi.fourier(), 400)
    ok = (abs(s1 - PINNED) < 1e-12 and abs(s2 - PINNED) < 1e-12
          and abs(lhs - PINNED) <= 1e-8 and abs(rhs - PINNED) <= 1e-8)
    assert _report(6, "pinned value 2.8602371906953891", ok,
                   detail=f"series={s1!r}/{s2!r} lhs={lhs.real!r}", started=t0)


def test_criterion_7_shifted_lattice():
    t0 = time.time()
    phi = parse("t*exp(-pi*t^2)").value
    rep3 = verify_shifted(3, (Fraction(1, 2),) * 3, (Fraction(1, 2),) * 3,
                          phi, 6.0, 6.0)
    rep5 = verify_shifted(5, (Fraction(1, 4), 0, 0, 0, 0),
                          (0, Fraction(1, 3), 0, 0, 0), phi, 6.0, 6.0)
    ok = rep3.rel_residual <= 1e-8 and rep5.rel_residual <= 1e-8
    assert _report(7, "shifted-lattice corollary k=3, k=5", ok,
                   detail=f"rel k3={rep3.rel_residual:.2e} "
                          f"rel k5={rep5.rel_residual:.2e}", started=t0)


def test_criterion_8_radial_four_route_and_oracle():
    t0 = time.time()
    failures = []

    # four-route pairwise agreement over the full grid (k=3 has no
    # recurrence route; the other three apply)
    worst_pair = (0.0, None)
    for k in K_SET:
        methods = [m for m in SPHERE_METHODS if not (k == 3 and m == "recurrence")]
        for t in T_GRID:
            vals = [SPHERE_METHODS[m](k, t) for m in methods]
            for a, b in itertools.combinations(vals, 2):
                rel = abs(a - b) / max(abs(a), abs(b), 1e-300)
                if rel > worst_pair[0]:
                    worst_pair = (rel, (k, t))
                if rel > 1e-12:
                    failures.append(("four-route", k, t, rel))
                    break

    # closed form vs quadrature oracle on the even suite
    for src in EVEN_SUITE:
        f = parse(src).value
        for k in (3, 5, 7):
            for t in (0.3, 1.0, 2.0, 5.0):
                diff = abs(radial_ft_closed(f, k, t)
                           - radial_ft_quadrature(f, k, t, 1e-9))
                if diff > 1e-8:
                    failures.append(("oracle", src, k, t, diff))

    # Gaussian fixed point on the same grid
    gauss = parse("exp(-pi*t^2)").value
    for k in K_SET:
        for t in T_GRID:
            diff = abs(radial_ft_closed(gauss, k, t) - math.exp(-math.pi * t * t))
            if diff > 1e-12:
                failures.append(("gaussian-fixed-point", k, t, diff))

    if sphere_area(3) != PiScalar.of(4, 1):
        failures.append(("sphere-area",))

    cells = sorted({(f[1], f[2]) for f in failures if f[0] != "sphere-area"})
    assert _report(8, "radial four-route + oracle", not failures,
                   detail=f"worst pairwise {worst_pair[0]:.2e} at "
                          f"{worst_pair[1]}; failing cells {cells}",
                   started=t0)


def test_criterion_9_duality_pairing():
    t0 = time.time()
    worst = 0.0
    for k in (3, 5, 7):
        hat = sigma_k_hat(k, 400)
        sig = sigma_k(k, 400)
        for src in ODD_SUITE:
            phi = parse(src).value
            a = pair(hat, phi)
            b = pair(sig, phi.fourier())
            worst = max(worst, abs(a - b) / max(abs(a), abs(b), 1e-300))
    assert _report(9, "duality pairing k=3,5,7", worst <= 1e-9,
                   detail=f"worst rel={worst:.2e}", started=t0)
