"""Exact coefficient values, the Bessel polynomials, and their cross-identity."""

from fractions import Fraction

import pytest

from guinand.coeffs import (
    PI_50, PiScalar, alpha, bessel_poly, beta, beta_bessel_crosscheck, betas,
    double_factorial, split_term,
)


def test_double_factorial_conventions():
    assert double_factorial(-1) == 1
    assert double_factorial(0) == 1
    assert double_factorial(5) == 15
    assert double_factorial(7) == 105
    assert double_factorial(8) == 384
    with pytest.raises(ValueError):
        double_factorial(-2)


def test_alpha_known_values():
    # k = 3 makes the transformed series i * psi'(0) + ..., and k = 5
    # carries the classical -1/(6 pi) third-derivative coefficient
    assert alpha(3) == PiScalar.of(1)
    assert alpha(5) == PiScalar.of(Fraction(-1, 6), -1)
    assert alpha(7) == PiScalar.of(Fraction(1, 60), -2)
    assert alpha(9) == PiScalar.of(Fraction(-1, 840), -3)


def test_alpha_rejects_bad_k():
    for k in (0, 1, 2, 4, 6):
        with pytest.raises(ValueError):
            alpha(k)


def test_beta_known_values():
    assert beta(0, 3) == PiScalar.of(1)
    assert beta(0, 5) == PiScalar.of(Fraction(1, 2), -1)
    assert beta(1, 5) == PiScalar.of(Fraction(-1, 2), -1)
    assert beta(0, 7) == PiScalar.of(Fraction(3, 4), -2)
    assert beta(1, 7) == PiScalar.of(Fraction(-3, 4), -2)
    assert beta(2, 7) == PiScalar.of(Fraction(1, 4), -2)


def test_betas_ratio_recurrence_matches_each_beta():
    for k in range(3, 62, 2):
        assert betas(k) == [beta(j, k) for j in range((k - 3) // 2 + 1)], k
    with pytest.raises(ValueError, match="odd"):
        betas(4)


def test_beta_range_checks():
    with pytest.raises(ValueError):
        beta(1, 3)
    with pytest.raises(ValueError):
        beta(-1, 5)
    with pytest.raises(ValueError):
        beta(0, 4)


def test_beta_sign_pattern():
    for k in range(3, 23, 2):
        for j in range((k - 3) // 2 + 1):
            q, _ = split_term(beta(j, k))
            assert q != 0
            assert (q > 0) == (j % 2 == 0), (j, k)


def test_scaled_rational_to_float_against_mpmath():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    cases = [alpha(k) for k in range(3, 17, 2)]
    cases += [beta(j, 15) for j in range(7)]
    cases += [PiScalar.of(Fraction(22, 7), 5)]
    for sr in cases:
        q, e = split_term(sr)
        want = mp.mpf(q.numerator) / q.denominator * mp.pi ** e
        got = sr.to_float()
        assert abs(got - float(want)) <= abs(float(want)) * 2.3e-16


def test_to_float_rounds_like_fraction():
    # integer true division P/Q rounds as float(Fraction) does, bit for bit
    cases = [alpha(k) for k in range(3, 42, 2)]
    cases += [b for k in range(3, 42, 2) for b in betas(k)]
    cases += [r * b for b in betas(41)[::4]
              for r in (10 ** 15 - 1, 10 ** 15, 10 ** 15 + 7, 2 ** 50 + 1)]
    for sr in cases:
        q, e = split_term(sr)
        assert sr.to_float() == float(q * PI_50 ** e), sr


def test_scaled_rational_arithmetic_is_exact():
    a = PiScalar.of(Fraction(1, 3), -1)
    b = PiScalar.of(Fraction(1, 6), -1)
    assert a + b == PiScalar.of(Fraction(1, 2), -1)
    assert a * 3 == PiScalar.of(1, -1)


def test_scaled_rational_is_an_immutable_value():
    a = PiScalar.of(Fraction(1, 3), -1)
    assert repr(a) == "PiScalar(1/3 * pi^-1)"
    assert {a: 1}[PiScalar.of(Fraction(2, 6), -1)] == 1
    assert PiScalar.of(0, 2) == 0 and hash(PiScalar.of(0, 2)) == hash(0)
    for v in (3, Fraction(1, 2)):     # equal values hash alike, so dict lookups agree
        assert PiScalar.of(v) == v and hash(PiScalar.of(v)) == hash(v)
        assert {v: 1}[PiScalar.of(v)] == 1
    with pytest.raises(TypeError):
        a.parts[-1] = (Fraction(1), Fraction(0))
    with pytest.raises(AttributeError):
        a.parts = {}
    with pytest.raises(AttributeError):
        del a.parts


def test_bessel_poly_base_cases_and_recurrence():
    assert bessel_poly(0).coeffs == (1,)
    assert bessel_poly(1).coeffs == (1, 1)
    assert bessel_poly(2).coeffs == (3, 3, 1)
    assert bessel_poly(3).coeffs == (15, 15, 6, 1)
    # constant term (2n-1)!!, leading coefficient 1
    for n in range(1, 10):
        c = bessel_poly(n).coeffs
        assert c[0] == double_factorial(2 * n - 1)
        assert c[-1] == 1


def _bessel_by_recurrence(n: int) -> tuple[int, ...]:
    """theta_n by theta_m = (2m-1) theta_{m-1} + z^2 theta_{m-2}: the oracle."""
    prev, cur = [1], [1, 1]
    if n == 0:
        return (1,)
    for m in range(2, n + 1):
        nxt = [(2 * m - 1) * c for c in cur] + [0] * (len(prev) + 2 - len(cur))
        for i, c in enumerate(prev):
            nxt[i + 2] += c
        prev, cur = cur, nxt
    return tuple(cur)


def test_bessel_poly_matches_the_three_term_recurrence():
    for n in [*range(0, 40), 101, 256, 399]:
        assert bessel_poly(n) == (n, _bessel_by_recurrence(n)), n


def test_beta_bessel_crosscheck():
    for n in range(0, 9):
        assert beta_bessel_crosscheck(n), n
