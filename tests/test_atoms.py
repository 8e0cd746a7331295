"""Atom combs: pairing convention, sigma builders, projections, serialization."""

import itertools
import math

import pytest

from guinand.atoms import (
    Atom, AtomComb, comb_from_json, comb_to_json, make_comb, pair, point_measure,
    project_ft, project_measure, sigma_hat_comb, sigma_k, sigma_k_hat,
)
from guinand.coeffs import PI_50, alpha, betas, split_term
from guinand.sumsq import rk_table
from guinand.schwartz import parse

E_MINUS_PI = 0.043213918263772249774
# 1 + sum r_3(n) e^{-pi n/2}, fixed independently (see test_formulas)
GUINAND_LHS_HALF = 2.8602371906953891


def _ball_measure(k, N):
    side = math.isqrt(N)
    pts = [(m, 1.0) for m in itertools.product(range(-side, side + 1), repeat=k)
           if sum(x * x for x in m) <= N]
    return point_measure(k, pts)


# ---- pairing ----------------------------------------------------------------

def test_comb_equality_ignores_meta():
    atoms = (Atom(1.0, 0, 1 + 0j, 1), Atom(2.0, 0, 1 + 0j, 4))
    a, b = AtomComb(atoms, {"k": 3}), AtomComb(atoms)
    assert a == b and hash(a) == hash(b) and b.meta == {}
    assert a != AtomComb(atoms[:1], {"k": 3})
    assert a != atoms
    with pytest.raises(AttributeError):
        a.atoms = ()


def test_pairing_sign_convention():
    # <-2 delta'_0, f> = 2 f'(0)
    comb = make_comb([Atom(0.0, 1, -2 + 0j, 0)])
    f = parse("t*exp(-pi*t^2)").value
    assert pair(comb, f) == 2


def test_pairing_point_masses():
    comb = make_comb([Atom(1.0, 0, 1 + 0j, 1), Atom(-1.0, 0, -1 + 0j, 1)])
    f = parse("t*exp(-pi*t^2)").value
    assert abs(pair(comb, f) - 2 * E_MINUS_PI) < 1e-16


def test_pairing_sigma3_pinned_value():
    f = parse("t*exp(-pi*t^2/2)").value
    got = pair(sigma_k(3, 400), f)
    assert abs(got - 2 * GUINAND_LHS_HALF) < 1e-8


def test_pairing_even_function_annihilated(odd_suite):
    # sigma_k is odd: pairing against an even function is pure cancellation
    f = parse("(1+t^2)*exp(-pi*t^2)").value
    for k in (3, 5):
        comb = sigma_k(k, 200)
        mass = sum(abs(a.weight) * abs(f.derivative(a.order).eval(a.location))
                   for a in comb.atoms)
        assert abs(pair(comb, f)) <= 1e-12 * mass


# ---- sigma builders ---------------------------------------------------------

def test_sigma_k_atoms_k3():
    comb = sigma_k(3, 2)
    expect = {
        (0.0, 1): -2 + 0j,
        (1.0, 0): 6 + 0j,
        (-1.0, 0): -6 + 0j,
        (math.sqrt(2), 0): 12 / math.sqrt(2),
        (-math.sqrt(2), 0): -12 / math.sqrt(2),
    }
    got = {(a.location, a.order): a.weight for a in comb.atoms}
    assert got == expect


def test_sigma_k_truncation_zero():
    comb = sigma_k(3, 0)
    assert len(comb.atoms) == 1
    assert comb.atoms[0] == Atom(0.0, 1, -2 + 0j, 0)


def test_sigma_k5_weights():
    comb = sigma_k(5, 1)
    got = {(a.location, a.order): a.weight for a in comb.atoms}
    assert got[(1.0, 0)] == 10
    assert got[(-1.0, 0)] == -10


def test_sigma_hat_guinand_self_duality_exact():
    sig = sigma_k(3, 400)
    hat = sigma_k_hat(3, 400)
    assert len(sig.atoms) == len(hat.atoms)
    for a, b in zip(sig.atoms, hat.atoms):
        assert (a.location, a.order) == (b.location, b.order)
        assert b.weight == -1j * a.weight


def test_sigma_hat_k5_shell_weights():
    # shell n=1 of the k=5 transform: j=0 weights -+ i 10/(2 pi), and both
    # first-derivative atoms carry -i 10/(2 pi)
    hat = sigma_k_hat(5, 1)
    got = {(a.location, a.order): a.weight for a in hat.atoms}
    w = 10 / (2 * math.pi)
    ulp = 3e-16 * w  # the builder rounds the exact 10/(2 pi) once
    assert abs(got[(1.0, 0)] - (-1j * w)) < ulp
    assert abs(got[(-1.0, 0)] - (1j * w)) < ulp
    assert abs(got[(1.0, 1)] - (-1j * w)) < ulp
    assert abs(got[(-1.0, 1)] - (-1j * w)) < ulp
    assert got[(0.0, 3)] == 2j * alpha(5).to_float()


def test_sigma_hat_k7_origin_only():
    hat = sigma_k_hat(7, 0)
    assert len(hat.atoms) == 1
    atom = hat.atoms[0]
    assert (atom.location, atom.order) == (0.0, 5)
    assert atom.weight == 2j * alpha(7).to_float()
    assert abs(atom.weight.imag - 2 / (60 * math.pi ** 2)) < 1e-17


@pytest.mark.parametrize("k", range(3, 22, 2))
def test_sigma_k_hat_weights_round_like_fraction(k):
    # each shell weight r_k(n) beta_jk, rounded from its own exact Fraction
    N = 300
    shells = ((n, [float(r * q * PI_50 ** e) for q, e in map(split_term, betas(k))])
              for n, r in enumerate(rk_table(k, N).counts) if n and r)
    want = sigma_hat_comb(k, complex(1.0), shells, N=N, parity="odd")
    assert sigma_k_hat(k, N).atoms == want.atoms


def test_duality_pairing_at_truncation(odd_suite):
    for k in (3, 5, 7):
        hat = sigma_k_hat(k, 400)
        sig = sigma_k(k, 400)
        for phi in odd_suite:
            a = pair(hat, phi)
            b = pair(sig, phi.fourier())
            assert abs(a - b) <= 1e-9 * max(abs(a), abs(b)), (k, a, b)


def test_duality_pairing_asymmetric_truncations():
    # the two sides tolerate different truncations as long as each side's
    # own tail is negligible: psi decays like e^{-2 pi n}, so N' = 60 is
    # already far beyond double precision for the transform side
    phi = parse("t*exp(-pi*t^2/2)").value
    a = pair(sigma_k_hat(3, 400), phi)
    b = pair(sigma_k(3, 60), phi.fourier())
    assert abs(a - b) <= 1e-12 * max(abs(a), abs(b))


# ---- projections ------------------------------------------------------------

def test_project_measure_merges_shells():
    mu = point_measure(3, [((1, 0, 0), 1), ((-1, 0, 0), 1), ((0, 1, 0), 1),
                           ((0, -1, 0), 1), ((0, 0, 1), 1), ((0, 0, -1), 1)])
    comb = project_measure(mu)
    got = {(a.location, a.order): a.weight for a in comb.atoms}
    assert got == {(1.0, 0): 6 + 0j, (-1.0, 0): -6 + 0j}


def test_project_measure_origin_only():
    comb = project_measure(point_measure(3, [((0, 0, 0), 1.0)]))
    assert len(comb.atoms) == 1
    assert comb.atoms[0] == Atom(0.0, 1, -2 + 0j, 0)


def test_project_measure_ball_reproduces_sigma_k():
    N = 30
    comb = project_measure(_ball_measure(3, N))
    ref = sigma_k(3, N)
    assert comb.atoms == ref.atoms


def test_project_ft_ball_reproduces_sigma_k_hat():
    N = 20
    comb = project_ft(_ball_measure(3, N), 3)
    ref = sigma_k_hat(3, N)
    assert len(comb.atoms) == len(ref.atoms)
    for a, b in zip(comb.atoms, ref.atoms):
        assert (a.location, a.order) == (b.location, b.order)
        assert abs(a.weight - b.weight) <= 1e-15 * abs(b.weight)


def test_project_ft_origin_only():
    comb = project_ft(point_measure(5, [((0, 0, 0, 0, 0), 1.0)]), 5)
    assert len(comb.atoms) == 1
    assert comb.atoms[0].order == 3
    assert comb.atoms[0].weight == 2j * alpha(5).to_float()


def test_project_ft_single_offorigin_atom():
    b = 2.5 + 0.5j
    mu_hat = point_measure(3, [((2, 0, 0), b)])
    comb = project_ft(mu_hat, 3)
    got = {(a.location, a.order): a.weight for a in comb.atoms}
    assert got == {(2.0, 0): -1j * (b / 2.0), (-2.0, 0): 1j * (b / 2.0)}


def test_point_measure_merges_duplicates():
    mu = point_measure(2, [((1, 0), 1.0), ((1.0, 0.0), 2.0)])
    assert len(mu.atoms) == 1
    assert mu.atoms[0][1] == 3


def test_projection_rejects_even_k():
    with pytest.raises(ValueError):
        project_measure(point_measure(2, [((1, 0), 1.0)]))


# ---- serialization ----------------------------------------------------------

def test_comb_json_roundtrip():
    comb = sigma_k_hat(5, 10)
    again = comb_from_json(comb_to_json(comb))
    assert again.atoms == comb.atoms


def test_comb_json_schema():
    import json
    rows = json.loads(comb_to_json(sigma_k(3, 2)))
    assert all(set(r) == {"n", "location", "order", "weight"} for r in rows)
    assert {r["n"] for r in rows} == {0, 1, 2}
    assert all(isinstance(r["weight"], list) and len(r["weight"]) == 2
               for r in rows)
