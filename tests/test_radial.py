"""Radial transform: closed form vs quadrature oracle, sphere profile routes."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from guinand import radial
from guinand.errors import QuadratureError
from guinand.radial import (
    SPHERE_METHODS, _divide_out_power, bk_recurrence_check, radial_ft_closed,
    radial_ft_quadrature, radial_ft_zero, radial_transform, sphere_area, sphere_ft_bessel,
    sphere_ft_besselpoly, sphere_ft_closed, sphere_ft_recurrence,
    sphere_ft_value,
)
from guinand.schwartz import GaussPoly, PiScalar, parse
from oracles import radial_ft_fubini

# frozen 50-digit references for the sphere profile (mpmath besselj route)
S_9_AT_2 = 0.1131264237919135424089
S_7_AT_035 = 23.07598979644317183058

GAUSS = parse("exp(-pi*t^2)").value
T2GAUSS = parse("t^2*exp(-pi*t^2)").value


# ---- closed form and origin --------------------------------------------------

def test_gaussian_is_fixed_point():
    for k in (3, 5, 7):
        for t in (0.3, 0.7, 1.3, 2.0, 5.0):
            got = radial_ft_closed(GAUSS, k, t)
            assert abs(got - math.exp(-math.pi * t * t)) < 1e-13, (k, t)


def test_closed_rejects_odd_f_and_zero_t():
    with pytest.raises(ValueError, match="even"):
        radial_ft_closed(parse("t*exp(-pi*t^2)").value, 3, 1.0)
    with pytest.raises(ValueError, match="t = 0"):
        radial_ft_closed(GAUSS, 3, 0.0)


def test_origin_values():
    assert abs(radial_ft_zero(GAUSS, 3) - 1) < 1e-15
    assert abs(radial_ft_zero(GAUSS, 5) - 1) < 1e-15
    # integral over R^3 of |x|^2 e^{-pi |x|^2} = 3/(2 pi)
    assert abs(radial_ft_zero(T2GAUSS, 3) - 3 / (2 * math.pi)) < 1e-15


# ---- quadrature oracle ---------------------------------------------------------

def test_quadrature_self_dual_gaussian():
    got = radial_ft_quadrature(GAUSS, 3, 1.0, 1e-10)
    assert abs(got - math.exp(-math.pi)) < 1e-10
    got = radial_ft_quadrature(GAUSS, 7, 0.5, 1e-10)
    assert abs(got - math.exp(-math.pi / 4)) < 1e-10


def test_quadrature_agrees_with_closed_form():
    f = parse("t^4*exp(-pi*t^2/2)").value
    got = radial_ft_quadrature(f, 5, 2.0, 1e-9)
    assert abs(got - radial_ft_closed(f, 5, 2.0)) < 1e-8


def test_quadrature_oracle_suite(even_suite):
    for f in even_suite:
        for k in (3, 5, 7):
            for t in (0.3, 1.0, 2.0, 5.0):
                q = radial_ft_quadrature(f, k, t, 1e-9)
                c = radial_ft_closed(f, k, t)
                assert abs(q - c) <= 1e-8, (f, k, t, abs(q - c))


def test_quadrature_regular_at_origin():
    # the closed form is singular-looking at 0; the integral is not.  At
    # t = 1e-4 the genuine O(t^2) continuity gap is ~3e-8, so compare at the
    # stated proxy point with that gap allowed, and tightly at t = 1e-5.
    for f in (GAUSS, T2GAUSS):
        for k in (3, 5):
            zero_val = radial_ft_zero(f, k)
            near = radial_ft_quadrature(f, k, 1e-4, 1e-10)
            assert abs(near - zero_val) < 1e-7, (f, k)
            nearer = radial_ft_quadrature(f, k, 1e-5, 1e-10)
            assert abs(nearer - zero_val) < 1e-8, (f, k)


def test_quadrature_validates_tolerance():
    with pytest.raises(ValueError):
        radial_ft_quadrature(GAUSS, 3, 1.0, 1e-14)


def test_quadrature_panel_cap():
    with pytest.raises(QuadratureError):
        radial_ft_quadrature(GAUSS, 3, 1000.0, 1e-10, max_panels=64)


# ---- sphere profile ------------------------------------------------------------

def test_sphere_closed_examples():
    assert abs(sphere_ft_closed(3, 0.25) - 8.0) < 1e-14
    assert abs(sphere_ft_closed(3, 0.5)) < 1e-14
    # s_5(t) = sin(2 pi t)/(pi t^3) - 2 cos(2 pi t)/t^2
    for t in (0.3, 0.8, 1.0, 2.7):
        expect = math.sin(2 * math.pi * t) / (math.pi * t ** 3) \
            - 2 * math.cos(2 * math.pi * t) / t ** 2
        assert abs(sphere_ft_closed(5, t) - expect) < 1e-12 * max(1, abs(expect))
    assert abs(sphere_ft_closed(5, 1.0) - (-2.0)) < 1e-14


def test_sphere_bessel_examples():
    assert abs(sphere_ft_bessel(3, 0.25) - 8.0) < 1e-14
    assert abs(sphere_ft_bessel(1, 0.3) - 2 * math.cos(2 * math.pi * 0.3)) < 1e-15
    assert abs(sphere_ft_bessel(9, 2.0) - S_9_AT_2) < 1e-12 * S_9_AT_2


def test_sphere_recurrence_examples():
    assert abs(sphere_ft_recurrence(5, 1.0) - (-2.0)) < 1e-13
    for t in (0.4, 1.1, 7.3):
        assert abs(sphere_ft_recurrence(7, t) - sphere_ft_closed(7, t)) \
            <= 1e-12 * abs(sphere_ft_closed(7, t))
    # small-t trend approaches the sphere area
    area5 = sphere_area(5).to_float()
    assert abs(sphere_ft_recurrence(5, 1e-3) - area5) < 1e-3 * area5


def test_sphere_routes_agree_at_k3():
    # s_3(t) = 2 sin(2 pi t)/t; t = 0.05 lies below 2 pi t = 1/2, where the
    # recurrence route runs downward
    for t in (0.05, 0.3, 1.0, -1.7, 4.2):
        want = 2 * math.sin(2 * math.pi * abs(t)) / abs(t)
        for name, fn in SPHERE_METHODS.items():
            assert abs(fn(3, t) - want) <= 1e-13 * max(1.0, abs(want)), (name, t)


def test_sphere_besselpoly_examples():
    assert abs(sphere_ft_besselpoly(3, 0.25) - 8.0) < 1e-14
    assert abs(sphere_ft_besselpoly(5, 1.0) - (-2.0)) < 1e-13
    assert abs(sphere_ft_besselpoly(7, 0.35) - S_7_AT_035) < 1e-12 * S_7_AT_035


def test_sphere_routes_accept_negative_t(capsys):
    # s_k is even: every route gives the value at |t|, and t = 0 is refused
    for k in (5, 7, 11):
        for t in (0.05, 0.5, 1.7):
            want = sphere_ft_closed(k, t)
            for name, fn in SPHERE_METHODS.items():
                assert fn(k, -t) == fn(k, t), (name, k, t)
                assert abs(fn(k, -t) - want) <= 1e-12 * max(1.0, abs(want)), (name, k, t)
    for fn in SPHERE_METHODS.values():
        with pytest.raises(ValueError, match="t = 0"):
            fn(5, 0.0)
    assert abs(sphere_ft_bessel(5, -0.5) - 8.0) < 1e-14
    from guinand.cli import main
    assert main(["sphere-ft", "--k", "5", "--t", "-0.5"]) == 0
    capsys.readouterr()


def test_sphere_routes_against_mpmath():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30

    def truth(k, t):
        nu = mp.mpf(k - 2) / 2
        return float(2 * mp.pi * mp.mpf(t) ** (-nu) * mp.besselj(nu, 2 * mp.pi * t))

    for k in (3, 5, 7, 9):
        for t in (0.4, 1.0, 3.3, 11.1):
            want = truth(k, t)
            # absolute floor covers grid points where s_k vanishes exactly
            for fn in (sphere_ft_closed, sphere_ft_besselpoly, sphere_ft_bessel):
                assert abs(fn(k, t) - want) <= 1e-11 * max(abs(want), 1.0), (k, t, fn)


def test_sphere_value_wrapper():
    v = sphere_ft_value(9, 2.0, "closed")
    assert (v.k, v.t, v.method) == (9, 2.0, "closed")
    assert abs(v.value - S_9_AT_2) < 1e-13
    with pytest.raises(ValueError):
        sphere_ft_value(9, 2.0, "nope")


@pytest.mark.parametrize("k", [5, 9, 11])
def test_grid_rows_match_per_point_values(k):
    # the grid crosses 2 pi t = (k-2)/2, where every route changes form
    edge = (k - 2) / (4.0 * math.pi)
    ts = [edge * x for x in (0.05, 0.5, 0.99, 1.0, 1.01, 2.0)] + [-edge, 3.7]
    methods = ["closed", "bessel", "recurrence", "besselpoly"]
    want = [sphere_ft_value(k, t, m) for t in ts for m in methods]
    assert radial.grid_rows([k], ts, methods) == want  # floats compare exactly
    with pytest.raises(ValueError, match="unknown method"):
        radial.grid_rows([k], ts, ["closed", "nope"])


def test_sphere_routes_refuse_overflow_with_value_error():
    # |t|^(k-2), the coefficients of the exact path and pi^(nu+1) overflow a float
    for fn in (sphere_ft_closed, sphere_ft_besselpoly):
        with pytest.raises(ValueError, match="exceeds the float range"):
            fn(5, 1e300)
    with pytest.raises(ValueError, match="cannot certify"):
        sphere_ft_closed(5001, 0.001)
    with pytest.raises(ValueError, match="exceeds the float range"):
        sphere_ft_bessel(5001, 0.001)


def test_sphere_area_exact():
    assert sphere_area(3) == PiScalar.of(4, 1)                    # 4 pi
    assert sphere_area(5) == PiScalar.of(Fraction(8, 3), 2)       # 8 pi^2 / 3
    assert sphere_area(7) == PiScalar.of(Fraction(16, 15), 3)     # 16 pi^3 / 15


# ---- small t: 2 pi t below the order (k-2)/2 -------------------------------------

def test_small_t_against_mpmath():
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        for k in (9, 11, 21):
            nu = mp.mpf(k - 2) / 2
            for t in (0.1, 0.01, 0.001):
                tt = mp.mpf(t)
                want = float(2 * mp.pi * tt ** (-nu) * mp.besselj(nu, 2 * mp.pi * tt))
                for name, fn in SPHERE_METHODS.items():
                    got = fn(k, t)
                    assert abs(got - want) <= 1e-13 * abs(want), (name, k, t, got, want)
        for k in (9, 11):
            for t in (0.01, 0.001):
                want = float(mp.exp(-mp.pi * mp.mpf(t) ** 2))
                got = radial_ft_closed(GAUSS, k, t)
                assert abs(got - want) <= 1e-13 * want, (k, t, got)


def test_sphere_routes_at_large_k_against_mpmath():
    # Miller's backward recurrences pass the float range near k = 400; at
    # (601, 10) s_k is below every subnormal, so each route must underflow
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        for k, t in ((401, 10.0), (401, 20.0)):
            nu = mp.mpf(k - 2) / 2
            want = 2 * mp.pi * mp.mpf(t) ** (-nu) * mp.besselj(nu, 2 * mp.pi * t)
            for name, fn in SPHERE_METHODS.items():
                got = fn(k, t)
                assert abs(got - want) <= 1e-12 * abs(want), (name, k, t, got)
    for name, fn in SPHERE_METHODS.items():
        got = fn(601, 10.0)
        assert abs(got) <= 2.3e-308, (name, got)  # false for NaN too


def test_routes_call_no_other_route(monkeypatch):
    # every route looks its helpers up as module globals, so replacing the
    # other routes catches any call
    routes = dict(SPHERE_METHODS)

    def forbidden(*args):
        raise AssertionError("a route called another route")

    for name in [fn.__name__ for fn in routes.values()]:
        monkeypatch.setattr(radial, name, forbidden)
    for fn in routes.values():
        for t in (0.001, 0.1, 0.7, 3.0):
            fn(11, t)
    for t in (0.001, 0.1, 3.0):
        radial_ft_closed(GAUSS, 11, t)


def test_exact_path_with_coefficients_beyond_floats():
    # at k = 301 the Bessel-polynomial coefficients exceed the float range;
    # the exact path picks its precision in logarithms and still certifies
    got = sphere_ft_besselpoly(301, 10.0)
    assert abs(got - sphere_ft_closed(301, 10.0)) <= 1e-15 * abs(got)
    assert abs(got - sphere_ft_bessel(301, 10.0)) <= 1e-13 * abs(got)


def test_exact_path_refuses_uncertifiable_precision():
    for fn in (sphere_ft_closed, sphere_ft_besselpoly):
        with pytest.raises(ValueError, match="cannot certify"):
            fn(41, 1e-300)


def test_divide_out_power_drops_only_cancellation_noise():
    # float mode: a dropped coefficient is noise only when it is tiny next
    # to the terms that cancelled in it
    g = GaussPoly([(1.0, [2e-17, 0.0, 5.0, 1.0])])
    assert _divide_out_power(g.terms, {1.0: [1.0, 0.0]}, 2) == [(1.0, (5.0, 1.0))]
    perturbed = GaussPoly([(1.0, [1e-9, 0.0, 5.0, 1.0])])
    with pytest.raises(ValueError, match="not divisible"):
        _divide_out_power(perturbed.terms, {1.0: [1.0, 0.0]}, 2)
    with pytest.raises(ValueError, match="not divisible"):
        _divide_out_power(g.terms, {}, 2)
    # exact mode: the dropped coefficients must be exactly zero
    ok = GaussPoly([(1, [0, 0, 3])], exact=True)
    assert len(_divide_out_power(ok.terms, None, 2)) == 1
    bad = GaussPoly([(1, [Fraction(1, 10 ** 30), 0, 3])], exact=True)
    with pytest.raises(ValueError, match="not divisible"):
        _divide_out_power(bad.terms, None, 2)


def test_exact_mode_drops_only_zero_coefficients():
    # in exact mode radial_ft_closed raises unless every dropped coefficient
    # of the derivative sum is exactly zero
    gauss = GaussPoly([(1, [1])], exact=True)
    f = GaussPoly([(Fraction(1, 4), [0, 0, -1, 0, 1])], exact=True)
    f_float = parse("(t^4-t^2)*exp(-pi*t^2/4)").value
    for k in (3, 5, 7, 9, 11):
        for t in (0.01, 0.3, 2.0):
            assert abs(radial_ft_closed(gauss, k, t) - math.exp(-math.pi * t * t)) < 1e-15
            want = radial_ft_closed(f_float, k, t)
            assert abs(radial_ft_closed(f, k, t) - want) <= 1e-13 * max(abs(want), 1.0)


# ---- the transform as one GaussPoly operator -------------------------------------

# -1/(2 pi) exactly: Fhat_k(t) = -H(|t|)/(2 pi) with H = radial_transform(f, k)
MINUS_ONE_OVER_2PI = PiScalar.of(Fraction(-1, 2), -1)
# scales with rational square roots, so both transforms stay exact
SQUARE_SCALES = [Fraction(1, 4), Fraction(4, 9), Fraction(1), Fraction(9, 4), Fraction(4)]


def test_radial_transform_gaussian_exact():
    gauss = GaussPoly([(1, [1])], exact=True)
    for k in range(3, 23, 2):
        assert radial_transform(gauss, k) == gauss.scale(PiScalar.of(-2, 1)), k


@st.composite
def exact_even_fs(draw, max_even=3):
    terms = []
    for a in draw(st.lists(st.sampled_from(SQUARE_SCALES), min_size=1, max_size=2,
                           unique=True)):
        even = draw(st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=6),
                             min_size=1, max_size=max_even))
        poly = [0] * (2 * len(even) - 1)
        poly[::2] = even
        terms.append((a, poly))
    return GaussPoly(terms, exact=True)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(exact_even_fs(), st.sampled_from([3, 5, 7, 9, 11]))
def test_radial_transform_twice_is_identity(f, k):
    once = radial_transform(f, k).scale(MINUS_ONE_OVER_2PI)
    assert radial_transform(once, k).scale(MINUS_ONE_OVER_2PI) == f


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(exact_even_fs(max_even=5), st.sampled_from(range(3, 42, 2)))
def test_radial_transform_matches_the_beta_free_oracle(f, k):
    # G from 1-D transforms and Gaussian moments (tests/oracles.py) against
    # -H/(2 pi) from the paper's beta_jk, exactly
    assert radial_ft_fubini(f, k) == radial_transform(f, k).scale(MINUS_ONE_OVER_2PI)


def test_quadrature_reaches_no_beta(monkeypatch):
    # the oracle's s_k is the Bessel route's alone: every other route and
    # every source of beta_jk raises while it runs
    fs = [parse("(1 + t^2)*exp(-pi*t^2)").value, GAUSS]
    expected = {(3, 1.0): radial_ft_closed(fs[0], 3, 1.0),
                (11, 2.5): radial_ft_closed(fs[0], 11, 2.5),
                (7, 0.0): radial_ft_zero(fs[1], 7),
                (21, 0.3): radial_ft_closed(fs[1], 21, 0.3)}

    def forbidden(*args):
        raise AssertionError("the quadrature reached a beta_jk route")

    for name in ("_beta_floats", "_beta_integers", "betas", "sphere_ft_closed",
                 "sphere_ft_besselpoly", "sphere_ft_recurrence"):
        monkeypatch.setattr(radial, name, forbidden)
    for (k, t), want in expected.items():
        f = fs[0] if k in (3, 11) else fs[1]
        assert abs(radial_ft_quadrature(f, k, t) - want) <= 1e-9, (k, t)


def test_quadrature_refuses_a_nan_cutoff():
    # the parser refuses NaN constants, so this path is reached only from the API
    with pytest.raises(QuadratureError, match="cutoff tail bound nan .* is not finite"):
        radial_ft_quadrature(GaussPoly([(1.0, [math.nan])]), 3, 1.0)


def test_radial_ft_closed_reads_the_operator():
    f = parse("(t^4-t^2)*exp(-pi*t^2/2) + exp(-pi*3*t^2)").value
    for k in (3, 9, 21):
        h = radial_transform(f, k)
        for t in (1e-6, 0.3, -1.7, 4.0):
            assert radial_ft_closed(f, k, t) == -h.eval(abs(t)) / (2.0 * math.pi)
    with pytest.raises(ValueError, match="even"):
        radial_transform(parse("t*exp(-pi*t^2)").value, 5)
    with pytest.raises(ValueError):
        radial_transform(GAUSS, 4)


# ---- operator recurrence --------------------------------------------------------

def test_bk_recurrence():
    assert bk_recurrence_check(GAUSS, 7, 1.1) <= 1e-12
    f = parse("t^2*exp(-pi*t^2/2)").value
    assert bk_recurrence_check(f, 9, 0.6) <= 1e-11
    # k = 5 exercises the B_1 g = ghat base case
    assert bk_recurrence_check(GAUSS, 5, 1.0) <= 1e-12
