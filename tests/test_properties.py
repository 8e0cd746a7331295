"""Property-based checks of the algebra, of the shell-sum kernel and of the
report serializer.

Random odd phi and arbitrary f are drawn from the GaussPoly algebra; the
examples are derandomized so that every run checks the same cases.
"""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from guinand.cli import _to_json
from guinand.coeffs import PI_50, PiScalar
from guinand.formulas import (
    lhs_general, rhs_general, shell_table, shifted_nodes, verify,
)
from guinand.schwartz import GaussPoly, parse
from guinand.util import CompensatedSum

settings.register_profile("guinand", max_examples=40, deadline=None,
                          derandomize=True, database=None)
settings.load_profile("guinand")

# scales with rational square roots, so exact transforms stay exact
EXACT_SCALES = [Fraction(1, 4), Fraction(4, 9), Fraction(1), Fraction(9, 4), Fraction(4)]


@st.composite
def odd_phis(draw):
    """Float-mode odd phi: odd powers up to t^7, small integer coefficients."""
    terms = []
    for a in draw(st.lists(st.sampled_from([0.5, 1.0, 2.0, 3.0]), min_size=1,
                           max_size=2, unique=True)):
        coeffs = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=4))
        poly = [0.0] * (2 * len(coeffs))
        for i, c in enumerate(coeffs):
            poly[2 * i + 1] = float(c)
        terms.append((a, poly))
    phi = GaussPoly(terms)
    return phi if not phi.is_zero else GaussPoly([(1.0, [0.0, 1.0])])


@st.composite
def exact_polys(draw):
    terms = [(a, draw(st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=6),
                               min_size=1, max_size=5)))
             for a in draw(st.lists(st.sampled_from(EXACT_SCALES), min_size=1,
                                    max_size=2, unique=True))]
    return GaussPoly(terms, exact=True)


@st.composite
def float_polys(draw):
    terms = [(a, draw(st.lists(st.complex_numbers(allow_nan=False, allow_infinity=False,
                                                  max_magnitude=1e150),
                               min_size=1, max_size=6)))
             for a in draw(st.lists(st.floats(min_value=1e-3, max_value=1e3),
                                    min_size=1, max_size=3, unique=True))]
    return GaussPoly(terms)


@given(odd_phis(), st.sampled_from([3, 5, 7, 9, 11]), st.integers(1, 60))
def test_shell_table_ends_at_verify_sums(phi, k, N):
    rep = verify(k, phi, N)
    last = shell_table(k, phi, N)[-1]
    assert (last["lhs_partial"], last["rhs_partial"]) == (rep.lhs, rep.rhs)
    assert lhs_general(k, phi, N) == rep.lhs
    assert rhs_general(k, phi.fourier(), N) == rep.rhs


@given(exact_polys())
def test_double_transform_is_reflection(f):
    assert f.fourier().fourier() == f.reflect()


@given(float_polys())
def test_to_expr_parses_back(f):
    assert parse(f.to_expr()).value == f


@given(float_polys(), st.floats(min_value=1e-3, max_value=10.0), st.booleans(),
       st.sampled_from([-1, 0, 2]))
def test_envelope_bounds_the_function(f, u, negative, shift):
    t = -u if negative else u
    bound = math.fsum(c * u ** p * math.exp(-math.pi * a * t * t)
                      for c, p, a in f.envelope(shift))
    assert abs(f.eval(t)) * u ** shift <= bound * (1 + 1e-12)


SMALL_RATIONALS = st.fractions(min_value=-5, max_value=5, max_denominator=7)


@st.composite
def pi_scalars(draw, real=False):
    """PiScalar with up to three pi powers in [-3, 3] and small rational parts."""
    powers = draw(st.lists(st.integers(-3, 3), max_size=3, unique=True))
    return PiScalar({e: (draw(SMALL_RATIONALS), 0 if real else draw(SMALL_RATIONALS))
                     for e in powers})


def _at_pi_50(p: PiScalar) -> tuple[Fraction, Fraction]:
    """The value at pi = PI_50 as an exact complex number (re, im)."""
    return (sum((r * PI_50 ** e for e, (r, _) in p.parts.items()), Fraction(0)),
            sum((i * PI_50 ** e for e, (_, i) in p.parts.items()), Fraction(0)))


@given(pi_scalars(), pi_scalars())
def test_pi_scalar_evaluation_commutes_with_arithmetic(p, q):
    (a, b), (c, d) = _at_pi_50(p), _at_pi_50(q)
    assert _at_pi_50(p + q) == (a + c, b + d)
    assert _at_pi_50(p - q) == (a - c, b - d)
    assert _at_pi_50(p * q) == (a * c - b * d, a * d + b * c)


@given(pi_scalars(real=True), st.integers(-10 ** 20, 10 ** 20))
def test_pi_scalar_to_float_rounds_like_fraction(p, r):
    for v in (p, r * p):
        assert v.to_float() == float(_at_pi_50(v)[0])


@st.composite
def shifts_and_radii(draw):
    """(k, eta, R): rational eta with denominators up to 12, some negative,
    and R either arbitrary or the float root of the shell of a nearby point."""
    k = draw(st.sampled_from([3, 5]))
    eta = tuple(Fraction(draw(st.integers(-30, 30)), draw(st.integers(1, 12)))
                for _ in range(k))
    if all(x.denominator == 1 for x in eta):
        eta = (eta[0] + Fraction(1, draw(st.integers(2, 12))),) + eta[1:]
    r_max = 3.5 if k == 3 else 1.8
    if draw(st.booleans()):
        R = draw(st.floats(min_value=0.05, max_value=r_max))
    else:
        # m0 close to -eta puts the shell |m0 + eta|^2 near the origin
        m0 = [math.floor(-x) + draw(st.integers(0, 1)) for x in eta]
        sq = sum((m + x) ** 2 for m, x in zip(m0, eta))
        R = math.sqrt(float(sq))
        if R > r_max + 1:
            R = r_max
    return k, eta, R


def _brute_force_nodes(eta, R):
    # box scan in ascending nested order, exact acceptance
    r2 = Fraction(R) ** 2
    ranges = [range(math.ceil(-x - Fraction(R) - 1), math.floor(-x + Fraction(R) + 1) + 1)
              for x in eta]
    out = []
    for m in itertools.product(*ranges):
        sq = sum((mi + x) ** 2 for mi, x in zip(m, eta))
        if sq <= r2:
            out.append((m, math.sqrt(float(sq))))
    return out


@settings(max_examples=30)
@given(shifts_and_radii())
def test_shifted_nodes_match_brute_force(case):
    k, eta, R = case
    got = [(n["m"], n["node"]) for n in shifted_nodes(k, eta, R)]
    assert got == _brute_force_nodes(eta, R)


def _bits(z: complex) -> tuple[str, str]:
    # hex strings tell -0.0 from 0.0, unlike ==
    z = complex(z)
    return z.real.hex(), z.imag.hex()


def _plain_horner(f: GaussPoly, t: float) -> complex:
    """GaussPoly.eval written as one loop over the terms, no stored state."""
    total = 0j
    for a, coeffs in f.terms:
        acc = 0j
        for c in reversed(coeffs):
            acc = acc * t + complex(c)
        total += acc * math.exp(-math.pi * float(a) * (t * t))
    return total


# 0, signed zero, ordinary points of both signs, and points far enough out
# that every Gaussian factor underflows to 0
EVAL_POINTS = st.one_of(st.sampled_from([0.0, -0.0, 40.0, -40.0, 1e3, -1e3]),
                        st.floats(min_value=-8.0, max_value=8.0))


@given(st.one_of(float_polys(), exact_polys()), st.integers(0, 3), st.booleans(),
       EVAL_POINTS)
def test_eval_matches_plain_horner(f, order, transform, t):
    def build():
        return (f.fourier() if transform else f).derivative(order)

    g, twin = build(), build()
    key = hash(g)
    want = _bits(_plain_horner(g, t))
    assert _bits(g.eval(t)) == want
    assert _bits(g.eval(t)) == want  # second call runs on the stored plan
    assert g == twin and hash(g) == hash(twin) == key
    assert _bits(twin.eval(-t)) == _bits(_plain_horner(twin, -t))


def _neumaier(xs) -> float:
    s = c = 0.0
    for x in xs:
        t = s + x
        if abs(s) >= abs(x):
            c += (s - t) + x
        else:
            c += (x - t) + s
        s = t
    return s + c


MIXED = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.builds(lambda m, e, sign: sign * m * 10.0 ** e,
              st.floats(min_value=1.0, max_value=9.99), st.integers(-300, 299),
              st.sampled_from([1.0, -1.0])))


@given(st.lists(st.builds(complex, MIXED, MIXED), max_size=40))
def test_compensated_sum_is_neumaier(values):
    acc = CompensatedSum()
    for z in values:
        acc.add(z)
    want = complex(_neumaier(z.real for z in values), _neumaier(z.imag for z in values))
    assert _bits(acc.total) == _bits(want)


def _chain_to_json(obj) -> str:
    """The report serializer as one isinstance chain: the reference that
    ``cli._to_json`` must match byte for byte."""
    def fmt(x):
        if x != x or x in (float("inf"), float("-inf")):
            raise ValueError(f"non-finite value {x} in report")
        return format(x, ".17g")

    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return fmt(obj)
    if isinstance(obj, complex):
        return f"[{fmt(obj.real)}, {fmt(obj.imag)}]"
    if isinstance(obj, str):
        return '"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"'
    if isinstance(obj, dict):
        inner = ", ".join(f"{_chain_to_json(str(key))}: {_chain_to_json(val)}"
                          for key, val in obj.items())
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_chain_to_json(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


# signed zeros, the smallest subnormal and normal, and the largest magnitudes
EDGE_FLOATS = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                               1e308, -1e308, 1.7976931348623157e308])
FINITE = st.one_of(EDGE_FLOATS, st.floats(allow_nan=False, allow_infinity=False))
TEXT = st.text(alphabet=st.sampled_from('ab"\\ \u00e9\n'), max_size=6)
JSON_LEAVES = st.one_of(st.none(), st.booleans(), st.integers(), FINITE,
                        st.builds(complex, FINITE, FINITE), TEXT)
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(st.one_of(TEXT, st.integers()), inner,
                                            max_size=4),
                            # rows drawing their keys from one small set, as a
                            # report's lists of rows do
                            st.lists(st.dictionaries(st.sampled_from(["k", "t", "1", 1]),
                                                     inner, max_size=3), max_size=4)),
    max_leaves=20)


@settings(max_examples=300)
@given(JSON_VALUES)
def test_to_json_matches_isinstance_chain(obj):
    assert _to_json(obj) == _chain_to_json(obj)


@pytest.mark.parametrize("obj,error", [
    (math.nan, ValueError), (math.inf, ValueError), ([1.0, -math.inf], ValueError),
    (complex(0.0, math.nan), ValueError), ({"x": complex(math.inf, 0.0)}, ValueError),
    (Fraction(1, 3), TypeError), ({1, 2}, TypeError), ({"x": [Fraction(1)]}, TypeError),
])
def test_to_json_refuses(obj, error):
    with pytest.raises(error):
        _to_json(obj)
