"""Property-based checks of the algebra, of the shell-sum kernel, of the comb
builders and of the report serializers.

Random odd phi and arbitrary f are drawn from the GaussPoly algebra; the
examples are derandomized so that every run checks the same cases.
"""

import csv
import io
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from guinand.atoms import (
    Atom, make_comb, pair, point_measure, project_ft, project_measure, sigma_k, sigma_k_hat,
)
from guinand.cli import _fmt_float, _shell_csv, _to_json
from guinand.coeffs import PI_50, PiScalar, alpha, betas, round_multiples
from guinand.formulas import (
    lhs_general, rhs_general, shell_table, shifted_nodes, verify,
)
from guinand.schwartz import GaussPoly, parse
from guinand.sumsq import rk_table
from guinand.util import CompensatedSum, comp_sum

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


@given(exact_polys())
def test_transform_of_derivative_is_2_pi_i_xi_times_transform(f):
    two_pi_i = PiScalar({1: (0, 2)})
    assert f.derivative().fourier() == f.fourier().mul_poly([0, two_pi_i])


@given(float_polys(), float_polys())
def test_parsed_sum_is_the_sum(f, g):
    assert parse(f"({f.to_expr()})+({g.to_expr()})").value == f + g


@given(float_polys())
def test_parsed_product_by_t_squared_is_mul_poly(f):
    assert parse(f"({f.to_expr()})*t^2").value == f.mul_poly([0, 0, 1])


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


# coefficients: real or imaginary with +0.0 or -0.0 in the other part, or
# mixed; magnitudes from subnormal to 1e150
SIGNED = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.0, -2.5]),
                   st.floats(min_value=-1e150, max_value=1e150, allow_subnormal=True))
ZERO = st.sampled_from([0.0, -0.0])
COEFFS = st.one_of(st.builds(complex, SIGNED, ZERO), st.builds(complex, ZERO, SIGNED),
                   st.builds(complex, SIGNED, SIGNED))


@st.composite
def signed_polys(draw):
    """Float GaussPoly whose terms are each all real, all imaginary or mixed."""
    terms = []
    for a in draw(st.lists(st.sampled_from([1e-3, 0.5, 1.0, 2.0, 1e3]), max_size=3,
                           unique=True)):
        kind = draw(st.sampled_from(["real", "imag", "mixed"]))
        part = {"real": st.builds(complex, SIGNED, ZERO),
                "imag": st.builds(complex, ZERO, SIGNED), "mixed": COEFFS}[kind]
        terms.append((a, draw(st.lists(part, min_size=1, max_size=5))))
    return GaussPoly(terms)


@given(st.one_of(signed_polys(), float_polys(), exact_polys()), st.integers(0, 2),
       st.lists(EVAL_POINTS, max_size=8))
def test_eval_many_matches_plain_horner(f, order, ts):
    g = f.derivative(order)
    assert [_bits(z) for z in g.eval_many(ts)] == [_bits(_plain_horner(g, t)) for t in ts]
    assert [_bits(z) for z in g.eval_many(t for t in ts)] == [_bits(g.eval(t)) for t in ts]


@pytest.mark.parametrize("f", [
    GaussPoly(), GaussPoly([(1.0, [-0.0j, complex(0.0, -0.0), 1j])]),
    GaussPoly([(1.0, [complex(-0.0, 2.0)]), (2.0, [3.0, -0.0])]),
    # Horner values that overflow while t^2 stays finite
    GaussPoly([(1e-300, [0.0, 1e300])]), GaussPoly([(2.0, [0.0, 0.0, complex(-0.0, 1e300)])]),
])
def test_eval_many_edge_values(f):
    assert f.eval_many([]) == []
    squares_finite = [0.0, -0.0, 1e-170, -1e-170, 5e-324, -5e-324, 30.0, -30.0, 1e100, -1e100]
    for ts in (squares_finite, squares_finite + [1e200, -1e200, math.inf, -math.inf, math.nan]):
        assert [_bits(z) for z in f.eval_many(ts)] == [_bits(_plain_horner(f, t)) for t in ts]


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


@given(st.lists(st.builds(complex, MIXED, MIXED), max_size=40))
def test_comp_sum_is_neumaier(values):
    want = complex(_neumaier(z.real for z in values), _neumaier(z.imag for z in values))
    assert _bits(comp_sum(values)) == _bits(want)
    assert _bits(comp_sum(iter(values))) == _bits(want)


def _sigma_atoms(origin, shells):
    # the atoms of sigma_comb in the order a per-shell loop makes them
    atoms = [Atom(0.0, 1, -2 * origin, 0)] if origin != 0 else []
    for nsq in sorted(shells):
        v = math.sqrt(float(nsq))
        atoms += [Atom(v, 0, shells[nsq] / v, nsq), Atom(-v, 0, -(shells[nsq] / v), nsq)]
    return atoms


def _sigma_hat_atoms(k, origin, pairs):
    atoms = [Atom(0.0, k - 2, (2j * origin) * alpha(k).to_float(), 0)] if origin != 0 else []
    for nsq, base_by_j in pairs:
        v = math.sqrt(float(nsq))
        for j, base in enumerate(base_by_j):
            mag = base * v ** j / v ** (k - 2)
            atoms += [Atom(v, j, (-1j) * (mag if j % 2 == 0 else -mag), nsq),
                      Atom(-v, j, (1j) * mag, nsq)]
    return atoms


def _comb_bits(comb):
    return [(a.location.hex(), a.order, _bits(a.weight), a.shell) for a in comb.atoms], comb.meta


@pytest.mark.parametrize("k", range(3, 17, 2))
def test_sigma_builders_match_make_comb(k):
    N = 40
    counts = rk_table(k, N).counts
    shells = {n: complex(r) for n, r in enumerate(counts) if n and r}
    want = make_comb(_sigma_atoms(1 + 0j, shells), k=k, N=N, parity="odd")
    assert _comb_bits(sigma_k(k, N)) == _comb_bits(want)
    ratios = [b.ratio() for b in betas(k)]
    pairs = [(n, round_multiples(r, ratios)) for n, r in enumerate(counts) if n and r]
    want = make_comb(_sigma_hat_atoms(k, 1 + 0j, pairs), k=k, N=N, parity="odd")
    assert _comb_bits(sigma_k_hat(k, N)) == _comb_bits(want)


# two points whose exact shells differ but round to one float location
CLOSE = [((1, 0, 0), 1), ((Fraction(10 ** 20 + 1, 10 ** 20), 0, 0), 2)]
FRACTIONS = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def point_measures(draw):
    k = draw(st.sampled_from([3, 5]))
    entries = [(tuple(draw(FRACTIONS) for _ in range(k)),
                draw(st.sampled_from([1, -1, 0.5, 1j, -2 + 1j])))
               for _ in range(draw(st.integers(0, 8)))]
    if draw(st.booleans()):
        entries += [(p + (0,) * (k - 3), w) for p, w in CLOSE]
    return point_measure(k, entries)


def _measure_shells(mu):
    origin, shells = 0j, {}
    for point, weight in mu.atoms:
        nsq = sum(Fraction(x) ** 2 for x in point)
        if nsq == 0:
            origin += weight
        else:
            nsq = int(nsq) if nsq.denominator == 1 else nsq
            shells[nsq] = shells.get(nsq, 0j) + weight
    return origin, shells


@given(point_measures())
def test_projection_builders_match_make_comb(mu):
    origin, shells = _measure_shells(mu)
    want = make_comb(_sigma_atoms(origin, shells), k=mu.k, parity="odd")
    assert _comb_bits(project_measure(mu)) == _comb_bits(want)
    beta_floats = [b.to_float() for b in betas(mu.k)]
    pairs = [(nsq, [shells[nsq] * bf for bf in beta_floats]) for nsq in sorted(shells)]
    want = make_comb(_sigma_hat_atoms(mu.k, origin, pairs), k=mu.k, parity="odd")
    assert _comb_bits(project_ft(mu, mu.k)) == _comb_bits(want)


def test_close_shells_stay_apart():
    comb = project_measure(point_measure(3, CLOSE))
    assert [(a.location, a.shell) for a in comb.atoms] == [
        (-1.0, 1), (-1.0, Fraction(10 ** 20 + 1, 10 ** 20) ** 2),
        (1.0, 1), (1.0, Fraction(10 ** 20 + 1, 10 ** 20) ** 2)]


@given(point_measures(), odd_phis())
def test_pair_matches_a_loop_over_the_atoms(mu, phi):
    for comb in (project_measure(mu), project_ft(mu, mu.k), sigma_k_hat(mu.k, 12)):
        derivs = phi.derivatives(comb.max_order)
        want = comp_sum(a.weight * (-1) ** a.order * derivs[a.order].eval(a.location)
                        for a in comb.atoms)
        assert _bits(pair(comb, phi)) == _bits(want)


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


def _csv_reference(rows) -> str:
    """``verify --format csv`` through csv.writer and ``_fmt_float``."""
    columns = ("lhs_term", "rhs_term", "lhs_partial", "rhs_partial")
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(
        [["n", "r_k"] + [f"{col}_{part}" for col in columns for part in ("re", "im")]]
        + [[row["n"], row["r_k"]] + [_fmt_float(x) for col in columns
                                     for x in (row[col].real, row[col].imag)]
           for row in rows])
    return buf.getvalue()


SHELL_ROWS = st.lists(st.fixed_dictionaries({
    "n": st.integers(0, 10 ** 6), "r_k": st.integers(0, 10 ** 30),
    **{col: st.builds(complex, FINITE, FINITE)
       for col in ("lhs_term", "rhs_term", "lhs_partial", "rhs_partial")}}), max_size=6)


@settings(max_examples=200)
@given(SHELL_ROWS)
def test_shell_csv_matches_csv_writer(rows):
    assert _shell_csv(rows) == _csv_reference(rows)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_shell_csv_refuses_the_first_non_finite_value(bad):
    row = {"n": 1, "r_k": 6, "lhs_term": complex(1.0, 2.0), "rhs_term": complex(-0.0, bad),
           "lhs_partial": complex(1e308, 1e308), "rhs_partial": complex(-math.inf, 0.0)}
    big = dict(row, rhs_term=complex(1e308, 1e308), rhs_partial=complex(1e308, 1e308))
    assert _shell_csv([big]) == _csv_reference([big])  # the values' sum overflows
    with pytest.raises(ValueError, match=f"^non-finite value {bad} in report$"):
        _shell_csv([big, row])
