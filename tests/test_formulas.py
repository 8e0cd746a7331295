"""Both sides of the summation identities, tails, and the shifted corollary.

The pinned constant below was fixed before wiring the main path, by summing
both scalar series independently at 50-digit precision:

    1 + sum_{n>=1} r_3(n) e^{-pi n/2}        = 2.860237190695389098...
    2 sqrt2 (1 + sum_{n>=1} r_3(n) e^{-2 pi n}) agrees to < 3e-50,

with r_3(n) counted by a direct two-coordinate scan (see r3_direct below,
which re-confirms the counts here at float precision).
"""

import cmath
import itertools
import math
import sys
from fractions import Fraction

import pytest

from guinand import formulas
from guinand.atoms import pair, sigma_comb, sigma_hat_comb
from guinand.coeffs import betas
from guinand.errors import WorkCapExceeded
from guinand.formulas import (
    lhs_general, rhs_general, shell_table, shifted_lhs_direct, shifted_nodes,
    tail_bound, verify, verify_shifted,
)
from guinand.schwartz import parse
from guinand.sumsq import rk_table

PINNED = 2.8602371906953891

HALF = Fraction(1, 2)


def r3_direct(n):
    if n == 0:
        return 1
    count = 0
    for a in range(-math.isqrt(n), math.isqrt(n) + 1):
        ra = n - a * a
        for b in range(-math.isqrt(ra), math.isqrt(ra) + 1):
            rb = ra - b * b
            c = math.isqrt(rb)
            if c * c == rb:
                count += 2 if c > 0 else 1
    return count


def test_pinned_constant_scalar_series():
    # independent scalar route: both series, directly counted r_3
    s1 = 1.0 + sum(r3_direct(n) * math.exp(-math.pi * n / 2) for n in range(1, 60))
    s2 = 2 * math.sqrt(2) * (1.0 + sum(r3_direct(n) * math.exp(-2 * math.pi * n)
                                       for n in range(1, 60)))
    assert abs(s1 - PINNED) < 1e-13
    assert abs(s2 - PINNED) < 1e-13


# ---- general identity -------------------------------------------------------

def test_lhs_pinned_value():
    phi = parse("t*exp(-pi*t^2/2)").value
    assert abs(lhs_general(3, phi, 400) - PINNED) < 1e-8


def test_lhs_scale_one():
    phi = parse("t*exp(-pi*t^2)").value
    expect = 1.0 + sum(r3_direct(n) * math.exp(-math.pi * n) for n in range(1, 40))
    assert abs(lhs_general(3, phi, 400) - expect) < 1e-13


def test_lhs_zero_function():
    from guinand.schwartz import zero
    assert lhs_general(9, zero(), 100) == 0


def test_lhs_rejects_even_input():
    with pytest.raises(ValueError, match="odd"):
        lhs_general(3, parse("exp(-pi*t^2)").value, 10)


def test_rhs_rejects_even_input():
    with pytest.raises(ValueError, match="psi must be odd"):
        rhs_general(5, parse("exp(-pi*t^2)").value, 10)


def test_rhs_matches_lhs_k3_across_truncations():
    phi = parse("t*exp(-pi*t^2/2)").value
    psi = phi.fourier()
    # transform side decays like e^{-2 pi n}: N = 50 is already converged
    assert abs(rhs_general(3, psi, 50) - PINNED) < 1e-10


def test_rhs_eigenfunction_is_same_series():
    phi = parse("t*exp(-pi*t^2)").value
    assert abs(rhs_general(5, phi.fourier(), 400)
               - lhs_general(5, phi, 400)) < 1e-12


def test_rhs_terms_match_beta_ladder():
    # independent route: i r/n^((k-2)/2) sum_j beta_jk n^(j/2) psi^(j)(sqrt n),
    # one derivative eval per j; the shells must agree to 1e-13 of the sum of
    # the ladder terms' magnitudes, the scale that cancels in them
    for src in ("t*exp(-pi*t^2/2)", "(t^5-t)*exp(-pi*2*t^2) + t*exp(-pi*t^2/3)",
                "t^3*exp(-pi*t^2)"):
        psi = parse(src).value.fourier()
        for k in (7, 9, 11, 13, 21):
            counts = rk_table(k, 80).counts
            beta_f = [b.to_float() for b in betas(k)]
            derivs = [psi.derivative(j) for j in range(len(beta_f))]
            got = formulas._rhs_terms(k, psi, formulas._beta_quotient(psi, k), 1,
                                      enumerate(counts), 1)
            assert [(n, r) for n, r, _ in got[1:]] == [
                (n, r) for n, r in enumerate(counts) if n and r]
            for n, r, term in got[1:]:
                s = math.sqrt(n)
                ladder = [1j * r / s ** (k - 2) * bf * s ** j * d.eval(s)
                          for j, (bf, d) in enumerate(zip(beta_f, derivs))]
                scale = math.fsum(abs(x) for x in ladder)
                assert abs(term - sum(ladder)) <= 1e-13 * scale, (src, k, n)


def test_verify_eigenfunction_k3():
    rep = verify(3, parse("t*exp(-pi*t^2)").value, 400)
    assert rep.identity == "guinand"
    assert rep.rel_residual <= 1e-13


def test_verify_k5():
    rep = verify(5, parse("t*exp(-pi*t^2/2)").value, 400)
    assert rep.identity == "k5"
    assert rep.rel_residual <= 1e-10


def test_verify_k9_mixed_poly():
    rep = verify(9, parse("(t^5-t)*exp(-pi*t^2)").value, 400)
    assert rep.identity == "general-k"
    assert rep.rel_residual <= 1e-9


def test_verify_suite_all_k(odd_suite):
    for k in (3, 5, 7, 9, 11):
        for phi in odd_suite:
            rep = verify(k, phi, 400)
            assert rep.rel_residual <= 1e-9, (k, phi, rep.rel_residual)


def test_report_fields():
    rep = verify(3, parse("t*exp(-pi*t^2)").value, 50)
    d = rep.to_dict()
    assert set(d) == {"identity", "k", "lhs", "rhs", "abs_residual",
                      "rel_residual", "tail_bound_lhs", "tail_bound_rhs",
                      "terms_used", "truncation"}
    assert d["truncation"] == {"N": 50}
    assert rep.abs_residual == abs(rep.lhs - rep.rhs)


def test_shell_table_partials_converge():
    phi = parse("t*exp(-pi*t^2/2)").value
    rows = shell_table(3, phi, 60)
    assert rows[0]["n"] == 0
    assert abs(rows[-1]["lhs_partial"] - PINNED) < 1e-10
    assert abs(rows[-1]["rhs_partial"] - PINNED) < 1e-10


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_verify_builds_each_table_once(monkeypatch, capsys, fmt):
    # one r_k table feeds both sides, the shell rows and terms_used; k = 3
    # and 5 build a second one for the literal-constant cross-check
    from guinand import formulas
    from guinand.cli import main

    build = formulas.rk_table
    calls = []

    def counting(k, max_n, **kwargs):
        calls.append((k, max_n))
        return build(k, max_n, **kwargs)

    monkeypatch.setattr(formulas, "rk_table", counting)
    for k in (3, 5, 7, 9, 11):
        calls.clear()
        assert main(["verify", "--k", str(k), "--phi", "t*exp(-pi*t^2/2)",
                     "--nmax", "60", "--format", fmt]) == 0
        assert calls == [(k, 60)] * (2 if k in (3, 5) else 1), (k, fmt)
    capsys.readouterr()


# ---- tails ------------------------------------------------------------------

def test_tail_bound_underflows_to_zero():
    phi = parse("t*exp(-pi*t^2)").value
    assert tail_bound(3, phi, 400) == 0.0


def test_tail_bound_k9_wide_gaussian():
    phi = parse("t*exp(-pi*t^2/4)").value
    b = tail_bound(9, phi, 400)
    assert 0 < b < 1e-100


def test_tail_bound_monotone():
    phi = parse("t*exp(-pi*t^2/4)").value
    assert tail_bound(9, phi, 100) >= tail_bound(9, phi, 200)


@pytest.mark.parametrize("width", [4, 20])
@pytest.mark.parametrize("k", [3, 5, 9])
def test_tail_bound_actually_bounds(k, width):
    # compare the certificate against the directly summed discarded terms
    phi = parse(f"t*exp(-pi*t^2/{width})").value
    N, M = 20, 60
    table = rk_table(k, M)
    discarded = sum(table.counts[n] / math.sqrt(n) * abs(phi.eval(math.sqrt(n)))
                    for n in range(N + 1, M + 1))
    assert tail_bound(k, phi, N) >= discarded


@pytest.mark.parametrize("k, width, N", [(3, 1000000, 400), (11, 100, 1000), (5, 20, 100)])
def test_tail_bound_covers_exact_tail(k, width, N):
    # for phi = t e^(-pi a t^2) the discarded tail is sum_{n>N} r_k(n) e^(-pi a n)
    # = theta(a)^k - 1 - sum_{1<=n<=N} r_k(n) e^(-pi a n), with theta(a) =
    # sum_m e^(-pi a m^2) = a^(-1/2) theta(1/a) (Jacobi), at 40 digits
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        a = mp.mpf(1) / width
        theta = mp.jtheta(3, 0, mp.exp(-mp.pi * width)) / mp.sqrt(a)
        counts = rk_table(k, N).counts
        exact = theta ** k - 1 - mp.fsum(counts[n] * mp.exp(-mp.pi * a * n)
                                         for n in range(1, N + 1))
        assert exact > 0
        assert tail_bound(k, parse(f"t*exp(-pi*t^2/{width})").value, N) >= exact


def test_rhs_tail_bounds_cover_discarded_terms():
    # the right-hand certificates against the tails summed from further
    # shells (verify) or radii (verify-shifted), at settings where those
    # tails lie well above rounding level
    for k, src, N in ((3, "t*exp(-pi*3*t^2)", 10), (5, "t*exp(-pi*3*t^2)", 20),
                      (9, "(t^3-t)*exp(-pi*2*t^2)", 12), (13, "t*exp(-pi*4*t^2)", 15)):
        phi = parse(src).value
        rep = verify(k, phi, N)
        far = formulas._rhs_terms(k, phi.fourier(), formulas._beta_quotient(phi.fourier(), k),
                                  1, enumerate(rk_table(k, 12 * N).counts), 1)
        discarded = math.fsum(abs(term) for n, _, term in far if n > N)
        assert discarded > 1e-9 * abs(rep.rhs), (k, src)
        assert discarded <= rep.tail_bound_rhs, (k, src)
    phi = parse("t*exp(-pi*2*t^2)").value
    for k, eta, xi, R in ((3, (HALF, 0, 0), (0, Fraction(1, 3), 0), 2.0),
                          (5, (Fraction(1, 4), 0, 0, 0, 0), (0, Fraction(1, 3), 0, 0, 0), 1.5)):
        small = verify_shifted(k, eta, xi, phi, 4.0, R)
        large = verify_shifted(k, eta, xi, phi, 4.0, R + 3.0)
        assert abs(large.rhs - small.rhs) > 1e-9 * abs(large.rhs), k
        assert abs(large.rhs - small.rhs) <= small.tail_bound_rhs, k


# ---- shifted lattices -------------------------------------------------------

def test_shifted_nodes_examples():
    nodes = shifted_nodes(3, (HALF, HALF, HALF), 1.0)
    assert len(nodes) == 8
    assert all(abs(n["node"] - math.sqrt(3) / 2) < 1e-15 for n in nodes)
    assert {n["m"] for n in nodes} == set(
        (a, b, c) for a in (0, -1) for b in (0, -1) for c in (0, -1))

    nodes = shifted_nodes(3, (HALF, 0, 0), 0.6)
    assert sorted(n["m"] for n in nodes) == [(-1, 0, 0), (0, 0, 0)]
    assert all(n["node"] == 0.5 for n in nodes)

    nodes = shifted_nodes(5, (HALF,) * 5, 1.2)
    assert len(nodes) == 32


def test_shifted_points_list_is_freed_on_return():
    # the enumeration must leave no reference cycle holding its result: only
    # the caller's name and getrefcount's argument may refer to the list
    pts = formulas._shifted_points(5, formulas._check_shift(5, (HALF, 0, 0, Fraction(1, 3), 0)),
                                   2.0, 10 ** 6)
    assert pts
    assert sys.getrefcount(pts) == 2


def test_shifted_nodes_rejects_integral_eta():
    with pytest.raises(ValueError, match="Z\\^k"):
        shifted_nodes(3, (1, 0, 0), 2.0)
    # close-to-integral componentwise also counts as integral
    with pytest.raises(ValueError):
        shifted_nodes(3, (1 + 1e-13, 0, 0), 2.0)
    # but a single non-integral component is enough to be admissible
    assert shifted_nodes(3, (1, 0, HALF), 1.0)


def test_shifted_enumeration_work_cap():
    with pytest.raises(WorkCapExceeded):
        shifted_nodes(3, (HALF, HALF, HALF), 300.0, cap=10 ** 6)


def test_verify_shifted_k3_degenerate():
    # eta = xi = (1/2,1/2,1/2): every shell's phase sum cancels exactly,
    # so both sides are exactly zero at any truncation
    phi = parse("t*exp(-pi*t^2)").value
    rep = verify_shifted(3, (HALF,) * 3, (HALF,) * 3, phi, 6.0, 6.0)
    assert rep.lhs == 0
    assert rep.rel_residual <= 1e-8


def test_verify_shifted_k3_nondegenerate():
    phi = parse("t*exp(-pi*t^2)").value
    rep = verify_shifted(3, (HALF, 0, 0), (0, Fraction(1, 3), 0), phi, 6.0, 6.0)
    assert abs(rep.lhs) > 0.1
    assert rep.rel_residual <= 1e-8


def test_verify_shifted_k5():
    phi = parse("t*exp(-pi*t^2)").value
    rep = verify_shifted(5, (Fraction(1, 4), 0, 0, 0, 0),
                         (0, Fraction(1, 3), 0, 0, 0), phi, 6.0, 6.0)
    assert rep.rel_residual <= 1e-8
    assert rep.truncation == {"R_time": 6.0, "R_freq": 6.0}
    assert rep.tail_bound_lhs < 1e-30
    assert rep.tail_bound_rhs < 1e-30


def test_verify_shifted_k7():
    phi = parse("t*exp(-pi*t^2)").value
    eta = (HALF,) + (0,) * 6
    xi = (0, Fraction(1, 3)) + (0,) * 5
    rep = verify_shifted(7, eta, xi, phi, 4.0, 4.0)
    assert rep.rel_residual <= 1e-8
    assert rep.tail_bound_lhs <= 1e-8 * abs(rep.lhs)
    assert rep.tail_bound_rhs <= 1e-8 * abs(rep.lhs)


def test_shifted_comb_pairing_matches_direct_sum():
    # same data, two summation routes
    phi = parse("t*exp(-pi*t^2)").value
    eta = (HALF, 0, 0)
    xi = (0, Fraction(1, 3), 0)
    rep = verify_shifted(3, eta, xi, phi, 5.0, 5.0)
    direct = shifted_lhs_direct(3, eta, xi, phi, 5.0)
    assert abs(rep.lhs - direct) <= 1e-13 * max(1.0, abs(direct))


def _comb_oracle(k, eta, xi, phi, R_time, R_freq):
    """(lhs, rhs) of the shifted identity in its sigma / sigma_hat comb form.

    Lattice points come from a box scan in Fractions, shells are keyed by
    the exact Fraction |m + shift|^2, and both combs come from the builders
    of guinand.atoms and are paired with atoms.pair: no code is shared with
    the shell series of verify_shifted.
    """
    eta, xi = [Fraction(x) for x in eta], [Fraction(x) for x in xi]

    def phase(x):
        return cmath.exp(2j * math.pi * float(x % 1))

    def shells(shift, dual, R):
        R = Fraction(R)
        out = {}
        ranges = [range(math.ceil(-R - s), math.floor(R - s) + 1) for s in shift]
        for m in itertools.product(*ranges):
            nsq = sum((mi + s) ** 2 for mi, s in zip(m, shift))
            if nsq <= R * R:
                out[nsq] = out.get(nsq, 0j) + phase(sum(mi * d for mi, d in zip(m, dual)))
        return out

    time_comb = sigma_comb(k, 0, shells(eta, xi, R_time))
    prefactor = phase(-sum(a * b for a, b in zip(eta, xi)))
    beta_f = [b.to_float() for b in betas(k)]
    freq = shells(xi, [-a for a in eta], R_freq)
    freq_comb = sigma_hat_comb(k, 0, ((nsq, [prefactor * freq[nsq] * bf for bf in beta_f])
                                      for nsq in sorted(freq)))
    return pair(time_comb, phi), -pair(freq_comb, phi.fourier())


@pytest.mark.parametrize("k, eta, xi, src, R_time, R_freq", [
    (3, "1/3,0,1/2", "1/4,1/2,0", "t*exp(-pi*t^2/2)", 4, 4),
    (3, "2/3,-4/5,5/6", "1/5,1/2,-2/3", "(t+0.5*t^3)*exp(-pi*t^2)", 5, 5),
    (5, "1/2,0,0,1/3,0", "0,1/4,0,0,1/5", "t*exp(-pi*t^2)", 3, 3.5),
    (7, "1/2,0,0,0,0,0,0", "0,1/3,0,0,0,0,0", "t*exp(-pi*t^2)", 1.5, 1.5),
], ids=["k3", "k3-mixed", "k5", "k7"])
def test_verify_shifted_matches_comb_pairing(k, eta, xi, src, R_time, R_freq):
    # the shell series of verify_shifted against the sigma / sigma_hat comb
    # form of the same truncated identity, side by side
    eta = [Fraction(x) for x in eta.split(",")]
    xi = [Fraction(x) for x in xi.split(",")]
    phi = parse(src).value
    rep = verify_shifted(k, eta, xi, phi, R_time, R_freq)
    lhs, rhs = _comb_oracle(k, eta, xi, phi, R_time, R_freq)
    assert abs(lhs) > 0.1 and abs(rhs) > 0.1
    assert abs(rep.lhs - lhs) <= 1e-13 * abs(lhs)
    assert abs(rep.rhs - rhs) <= 1e-13 * abs(rhs)


def test_shifted_tail_bound_covers_discarded_mass():
    # the R = 3 certificate must dominate what extending to R = 6 adds
    phi = parse("t*exp(-pi*t^2/4)").value.odd_part()
    eta = (HALF, 0, 0)
    xi = (0, Fraction(1, 3), 0)
    small = verify_shifted(3, eta, xi, phi, 3.0, 6.0)
    large = verify_shifted(3, eta, xi, phi, 6.0, 6.0)
    assert abs(large.lhs - small.lhs) <= small.tail_bound_lhs
    assert small.tail_bound_lhs > 0


def test_shifted_radius_cap_for_large_k():
    # the default cap admits k = 7 at R = 6 (~6e7 box estimate) but rejects
    # a larger radius or a larger dimension outright
    phi = parse("t*exp(-pi*t^2)").value
    eta7 = (HALF,) + (0,) * 6
    xi7 = (0, Fraction(1, 3)) + (0,) * 5
    with pytest.raises(WorkCapExceeded):
        verify_shifted(7, eta7, xi7, phi, 7.0, 7.0)
    eta9 = (HALF,) + (0,) * 8
    xi9 = (0, Fraction(1, 3)) + (0,) * 7
    with pytest.raises(WorkCapExceeded):
        verify_shifted(9, eta9, xi9, phi, 6.0, 6.0)
