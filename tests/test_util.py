import math

from guinand.util import CompensatedSum, comp_sum, rel_diff


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
