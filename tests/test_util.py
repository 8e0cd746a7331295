import math

from guinand.util import CompensatedSum, comp_sum, modulus, rel_diff


def test_compensated_sum_recovers_cancellation():
    acc = CompensatedSum()
    for x in (1e16, 1.0, -1e16):
        acc.add(x)
    assert acc.total == 1.0  # plain float addition would give 0.0


def test_comp_sum_complex():
    vals = [complex(1e16, 1.0), complex(1.0, -1e16), complex(-1e16, 1e16)]
    assert comp_sum(vals) == complex(1.0, 1.0)


def test_rel_diff_floor():
    assert rel_diff(0j, 0j) == 0.0
    assert rel_diff(2.0, 1.0) == 0.5


def test_rel_diff_beyond_the_float_range():
    # moduli and differences past 1.8e308 are scaled by a power of two
    assert rel_diff(complex(1e308, 1e308), complex(1e308, 1e308)) == 0.0
    assert abs(rel_diff(complex(1e308, 1e308), complex(1e308, -1e308)) - math.sqrt(2.0)) < 1e-15
    assert rel_diff(1e308, -1e308) == 2.0


def test_rel_diff_is_nan_for_non_finite_values():
    # so that a check "rel_diff(a, b) <= tol" fails on them
    nan, inf = math.nan, math.inf
    for a, b in [(complex(nan, nan), complex(nan, nan)), (complex(inf, 0.0), 1.0),
                 (1.0, complex(0.0, nan))]:
        assert math.isnan(rel_diff(a, b))


def test_rel_diff_scales_when_a_modulus_and_the_difference_overflow():
    # a - b = 3e308j overflows to an inf part and |a| overflows: inf/inf is
    # NaN, so the finite parts must still take the scaled path
    assert rel_diff(1.5e308 + 1.5e308j, 1.5e308 - 1.5e308j) == math.sqrt(2.0)


FINITE = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.0, -3.5, 1e154, -1e308]


def test_modulus_is_abs_on_finite_values():
    for x in FINITE:
        assert math.copysign(1.0, modulus(x)) == math.copysign(1.0, abs(x))
        assert modulus(x) == abs(x)
        for y in FINITE:
            z = complex(x, y)
            assert modulus(z).hex() == abs(z).hex(), z


def test_modulus_is_nan_for_a_nan_part_whatever_errno_holds():
    nan = math.nan
    for z in (complex(nan, 1.0), complex(0.0, nan), complex(nan, nan), nan):
        for x in (-1e4, 0.0):
            math.exp(x)  # -1e4 underflows and leaves errno = ERANGE
            assert math.isnan(modulus(z))


def test_modulus_is_inf_past_the_float_range():
    inf = math.inf
    for z in (complex(inf, 0.0), complex(-2.0, -inf), complex(inf, inf), -inf,
              1.5e308 + 1.5e308j):
        assert modulus(z) == inf
