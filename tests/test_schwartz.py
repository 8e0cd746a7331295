"""Gaussian-polynomial algebra: evaluation, calculus, transform, parser."""

import math
import random
from fractions import Fraction

import pytest

from guinand.errors import ParseError
from guinand.schwartz import GaussPoly, PiScalar, gauss_term, parse, zero

E_MINUS_PI = 0.043213918263772249774  # e^{-pi}, 20 digits

GRID = [t / 10 for t in range(-50, 51)]


def _rand_poly(rng):
    terms = []
    for _ in range(rng.randint(1, 2)):
        a = rng.uniform(0.25, 4.0)
        deg = rng.randint(0, 6)
        coeffs = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                  for _ in range(deg + 1)]
        terms.append((a, coeffs))
    return GaussPoly(terms)


def _sup_diff(f, g):
    worst = 0.0
    scale = 0.0
    for t in GRID:
        worst = max(worst, abs(f.eval(t) - g.eval(t)))
        scale = max(scale, abs(g.eval(t)))
    return worst, scale


# ---- eval ------------------------------------------------------------------

def test_eval_examples():
    g = parse("exp(-pi*t^2)").value
    assert g.eval(0.0) == 1
    f = parse("t*exp(-pi*t^2)").value
    assert abs(f.eval(1.0) - E_MINUS_PI) < 1e-17
    assert f.eval(-1.0) == -f.eval(1.0)


def test_zero_function():
    z = zero()
    assert z.is_zero
    assert z.eval(1.3) == 0
    assert z.fourier().is_zero
    assert z.derivative().is_zero


# ---- derivative ------------------------------------------------------------

def test_derivative_examples():
    g = parse("exp(-pi*t^2)").value
    dg = g.derivative()
    # -2 pi t e^{-pi t^2}
    assert dg.terms[0][1][0] == 0
    assert dg.terms[0][1][1] == complex(-2 * math.pi)
    f = parse("t*exp(-pi*t^2)").value
    assert f.derivative().eval(0.0) == 1
    assert g.derivative(3).eval(0.0) == 0


def test_derivative_matches_finite_differences():
    rng = random.Random(7)
    h = 1e-5
    for _ in range(10):
        f = _rand_poly(rng)
        df = f.derivative()
        worst = 0.0
        scale = 0.0
        for t in GRID:
            approx = (f.eval(t + h) - f.eval(t - h)) / (2 * h)
            worst = max(worst, abs(approx - df.eval(t)))
            scale = max(scale, abs(df.eval(t)))
        assert worst <= 1e-6 * scale


# ---- fourier ---------------------------------------------------------------

def test_fourier_gaussian_self_dual():
    g = parse("exp(-pi*t^2)").value
    assert g.fourier() == g


def test_fourier_eigenfunction_float():
    f = parse("t*exp(-pi*t^2)").value
    ft = f.fourier()
    assert ft.terms[0][0] == 1.0
    assert ft.terms[0][1][1] == -1j


def test_fourier_eigenfunction_exact():
    f = gauss_term(1, [0, 1], exact=True)
    ft = f.fourier()
    assert ft.terms[0][0] == Fraction(1)
    assert ft.terms[0][1][1] == -PiScalar.I


def test_fourier_scale_half():
    # t e^{-pi t^2/2} -> -2 sqrt2 i xi e^{-2 pi xi^2}
    f = parse("t*exp(-pi*t^2/2)").value
    ft = f.fourier()
    (a, coeffs), = ft.terms
    assert a == 2.0
    assert abs(coeffs[1] - complex(0, -2 * math.sqrt(2))) < 1e-15


def test_fourier_exact_requires_rational_sqrt():
    f = gauss_term(Fraction(1, 4), [1], exact=True)
    ft = f.fourier()  # sqrt(1/4) = 1/2 is rational
    assert ft.terms[0][0] == Fraction(4)
    with pytest.raises(ValueError):
        gauss_term(Fraction(1, 2), [1], exact=True).fourier()


def test_fourier_refuses_a_transform_beyond_the_float_range():
    # 1/a = 1e300 is a float, but the t coefficient 2 pi/a * a^(-1/2) is not
    with pytest.raises(ValueError, match="Gaussian scale 1e-300 leaves the float range"):
        parse("t*exp(-pi*1e-300*t^2)").value.fourier()


def test_fourier_involution_equals_reflection():
    rng = random.Random(20)
    for _ in range(20):
        f = _rand_poly(rng)
        worst, scale = _sup_diff(f.fourier().fourier(), f.reflect())
        assert worst <= 1e-12 * scale


# ---- parity and division ---------------------------------------------------

def test_hadamard_divide():
    f = parse("t*exp(-pi*t^2)").value
    assert f.hadamard_divide() == parse("exp(-pi*t^2)").value
    g = parse("(t^3-2*t)*exp(-pi*t^2)").value
    assert g.hadamard_divide() == parse("(t^2-2)*exp(-pi*t^2)").value
    with pytest.raises(ValueError):
        parse("exp(-pi*t^2)").value.hadamard_divide()


def test_hadamard_inverts_multiplication_by_t():
    rng = random.Random(3)
    for _ in range(10):
        f = _rand_poly(rng)
        assert f.mul_poly([0, 1]).hadamard_divide() == f


def test_odd_part():
    assert parse("exp(-pi*t^2)").value.odd_part().is_zero
    assert parse("t*exp(-pi*t^2)").value.odd_part() == \
        parse("2*t*exp(-pi*t^2)").value
    assert parse("(1+t)*exp(-pi*t^2)").value.odd_part() == \
        parse("2*t*exp(-pi*t^2)").value


def test_odd_part_is_odd_exactly():
    rng = random.Random(11)
    for _ in range(5):
        g = _rand_poly(rng).odd_part()
        assert g.is_odd()
        for t in (0.3, 1.7, 4.2):
            assert g.eval(-t) == -g.eval(t)


# ---- parser ----------------------------------------------------------------

def test_parse_examples():
    v = parse("t*exp(-pi*t^2)").value
    assert v.terms == ((1.0, (0j, 1 + 0j)),)
    v = parse("(t^3-2*t)*exp(-pi*t^2/2)").value
    assert v.terms == ((0.5, (0j, -2 + 0j, 0j, 1 + 0j)),)


def test_parse_constants():
    v = parse("2*i*t*exp(-pi*t^2)").value
    assert v.terms[0][1][1] == 2j
    v = parse("sqrt2*exp(-pi*t^2)").value
    assert v.terms[0][1][0] == complex(math.sqrt(2))
    v = parse("pi*t*exp(-pi*t^2)").value
    assert v.terms[0][1][1] == complex(math.pi)


def test_parse_sums_merge_equal_scales():
    v = parse("t*exp(-pi*t^2) + t^3*exp(-pi*t^2) - t*exp(-pi*t^2/2)").value
    assert len(v.terms) == 2


def test_parse_rejects_positive_scale():
    with pytest.raises(ParseError, match="positive"):
        parse("exp(pi*t^2)")


def test_parse_rejects_polynomial_only():
    with pytest.raises(ParseError, match="Schwartz"):
        parse("t^2")


def test_parse_rejects_numbers_beyond_the_float_range():
    with pytest.raises(ParseError, match="number is beyond the float range") as info:
        parse("t*1e400*exp(-pi*t^2)")
    assert info.value.offset == 2
    with pytest.raises(ParseError, match="Gaussian scale is beyond the float range") as info:
        parse("t*exp(-pi*1e400*t^2)")
    assert info.value.offset == 2
    assert parse("1e-400*t*exp(-pi*t^2)").value.is_zero  # underflow to 0 is fine


def test_parse_rejects_gaussian_scales_below_the_float_range():
    # a scale that rounds to 0.0 is refused at its exp, not taken for a polynomial
    for src in ("t*exp(-pi*1e-400*t^2)", "t*exp(-1e-400*t^2/pi)"):
        with pytest.raises(ParseError, match="Gaussian scale is below the float range") as info:
            parse(src)
        assert info.value.offset == 2


def test_parse_refuses_operations_that_leave_the_float_range():
    # at the operation's byte offset, before an inf or NaN is stored
    for src, offset, what in [("(1e308*10-1e308*10)*exp(-pi*t^2)", 6, "coefficient"),
                              ("exp(-pi*t^2) + 1e308*exp(-pi*t^2)*10", 33, "coefficient"),
                              ("(1e200+1e200*i)*(1e200+1e200*i)*exp(-pi*t^2)", 15, "coefficient"),
                              ("exp(-pi*t^2)/1e-320", 12, "coefficient"),
                              ("exp(-pi*1e308*t^2)*exp(-pi*1e308*t^2)", 18, "Gaussian scale")]:
        with pytest.raises(ParseError, match=f"{what} is beyond the float range") as info:
            parse(src)
        assert info.value.offset == offset, src
    assert parse("1e308*exp(-pi*t^2)*1.5").value == gauss_term(1, [1.5e308])


def test_parse_bounds_decimal_exponents_before_building_them():
    # 1e4300 and 1e-4300 are read exactly; one more exponent digit is refused
    assert parse("t*exp(-pi*1e-4300*1e4300*t^2)").value == parse("t*exp(-pi*t^2)").value
    for src, where in [("t*exp(-pi*1e4301*t^2)", "beyond"), ("t*exp(-pi*1e-4301*t^2)", "below"),
                       ("t*exp(-pi*t^2/1e4301)", "below"), ("t*exp(-pi*t^2/1e-4301)", "beyond")]:
        with pytest.raises(ParseError, match=f"Gaussian scale is {where} the float range") as info:
            parse(src)
        assert info.value.offset == 2, src


def test_parse_reads_polynomial_degrees_up_to_the_limit():
    # 1000 is the parser's limit; the refusals past it are tested in test_cli.py
    for src in ("t^1000*exp(-pi*t^2)", "t^0001000*exp(-pi*t^2)", "t^600*(t^400+1)*exp(-pi*t^2)"):
        assert parse(src).value.envelope()[-1][1] == 1000, src


def test_parse_zero_is_fine():
    assert parse("0").value.is_zero
    assert parse("0*t*exp(-pi*t^2)").value.is_zero


def test_parse_error_reports_offset():
    with pytest.raises(ParseError) as info:
        parse("t*exp(-pi*t^2) + @")
    assert info.value.offset == 17
    with pytest.raises(ParseError) as info:
        parse("t*+exp(-pi*t^2)")
    assert info.value.offset >= 2


def test_parse_whitespace_and_exponents():
    assert parse(" t * exp( - pi * t^2 / 2 ) ").value == \
        parse("t*exp(-pi*t^2/2)").value
    v = parse("2.5e-3*t*exp(-pi*t^2)").value
    assert v.terms[0][1][1] == 0.0025


def test_parse_division_only_by_constants():
    v = parse("t/2*exp(-pi*t^2)").value
    assert v.terms[0][1][1] == 0.5
    with pytest.raises(ParseError, match="constants"):
        parse("1/t")


def test_roundtrip_through_text():
    rng = random.Random(42)
    for _ in range(20):
        f = _rand_poly(rng)
        again = parse(f.to_expr()).value
        assert again == f, f.to_expr()


def test_gausspoly_slots_cannot_be_assigned_or_deleted():
    f = parse("t*exp(-pi*t^2)").value
    with pytest.raises(AttributeError):
        f.terms = ()
    with pytest.raises(AttributeError):
        del f.terms
    assert f.terms == ((1.0, (0j, 1 + 0j)),)
