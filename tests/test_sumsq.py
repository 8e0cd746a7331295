"""r_k correctness: the table against oracles that share no code with it.

The oracles are the brute-force lattice scan, Jacobi's closed forms for
r_4 and r_8, theta^k by repeated schoolbook multiplication, and the Cauchy
product of two smaller tables.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from guinand.errors import WorkCapExceeded
from guinand.sumsq import RepTable, ball_count, rk_bruteforce, rk_table


def test_r1_row():
    assert rk_table(1, 4).counts == (1, 2, 0, 0, 2)


def test_r3_small_values():
    t = rk_table(3, 8)
    assert t.counts[0] == 1
    assert t.counts[1] == 6
    assert t.counts[2] == 12
    assert t.counts[3] == 8
    assert t.counts[7] == 0


def test_r5_small_values():
    t = rk_table(5, 2)
    assert t.counts[1] == 10
    assert t.counts[2] == 40


def test_bruteforce_examples():
    assert rk_bruteforce(3, 9) == 30   # (+-3,0,0) perms and (+-2,+-2,+-1) perms
    assert rk_bruteforce(2, 1) == 4
    assert rk_bruteforce(7, 0) == 1


def test_counts_are_even_for_positive_n():
    for k in (1, 2, 4, 9):
        t = rk_table(k, 60)
        assert all(c % 2 == 0 for c in t.counts[1:])


def test_table_matches_bruteforce():
    for k in range(1, 5):
        t = rk_table(k, 30)
        for n in range(31):
            assert t.counts[n] == rk_bruteforce(k, n), (k, n)


def test_ball_count_matches_direct_scan():
    # sum of counts = lattice points in the closed ball, counted directly
    N = 12
    t = rk_table(3, N)
    side = math.isqrt(N)
    direct = sum(1
                 for x in range(-side, side + 1)
                 for y in range(-side, side + 1)
                 for z in range(-side, side + 1)
                 if x * x + y * y + z * z <= N)
    assert ball_count(t) == direct


def test_convolution_identity():
    N = 200
    tables = {k: rk_table(k, N) for k in range(1, 8)}
    for k1, k2 in ((1, 1), (1, 2), (2, 3), (3, 4)):
        combined = rk_table(k1 + k2, N)
        for n in range(N + 1):
            conv = sum(tables[k1].counts[j] * tables[k2].counts[n - j]
                       for j in range(n + 1))
            assert conv == combined.counts[n], (k1, k2, n)


def test_growth_sanity():
    t = rk_table(5, 300)
    partial = 0.0
    prev = 0.0
    for n in range(1, 301):
        partial += t.counts[n] / math.sqrt(n)
        assert partial >= prev
        prev = partial
    assert math.isfinite(partial)


def test_rejects_k_zero():
    with pytest.raises(ValueError):
        rk_table(0, 10)
    with pytest.raises(ValueError):
        rk_bruteforce(0, 10)


def test_table_cap():
    with pytest.raises(WorkCapExceeded):
        rk_table(3, 10 ** 7)
    # explicit cap can loosen or tighten
    with pytest.raises(WorkCapExceeded):
        rk_table(3, 100, table_cap=50)
    assert rk_table(3, 100, table_cap=100).max_n == 100


def test_bruteforce_work_cap():
    with pytest.raises(WorkCapExceeded):
        rk_bruteforce(10, 10 ** 4)
    with pytest.raises(WorkCapExceeded):
        rk_bruteforce(3, 100, box_cap=10)


def test_reptable_validates_length():
    with pytest.raises(ValueError):
        RepTable(1, 3, (1, 2))


def _divisor_sums(N, power):
    """sigma_power(n) for 0 <= n <= N (0 at n = 0), by a divisor sieve."""
    sums = [0] * (N + 1)
    for d in range(1, N + 1):
        dp = d ** power
        for n in range(d, N + 1, d):
            sums[n] += dp
    return sums


def test_jacobi_four_and_eight_squares():
    # r_4(n) = 8 sigma(n) - 32 sigma(n/4);
    # r_8(n) = 16 sum_{d|n} (-1)^(n+d) d^3
    N = 3000
    sigma = _divisor_sums(N, 1)
    r8 = [1] + [0] * N
    for d in range(1, N + 1):
        for n in range(d, N + 1, d):
            r8[n] += 16 * (-1) ** (n + d) * d ** 3
    r4 = [1] + [8 * sigma[n] - (32 * sigma[n // 4] if n % 4 == 0 else 0)
                for n in range(1, N + 1)]
    assert rk_table(4, N).counts == tuple(r4)
    assert rk_table(8, N).counts == tuple(r8)


def _theta_power(k, N):
    """Coefficients of theta(q)^k to q^N, theta = 1 + 2 sum q^(s^2), by k
    schoolbook multiplications with the sparse theta row."""
    theta = [(0, 1)] + [(s * s, 2) for s in range(1, math.isqrt(N) + 1)]
    power = [1] + [0] * N
    for _ in range(k):
        product = [0] * (N + 1)
        for shift, c in theta:
            for n in range(N + 1 - shift):
                product[n + shift] += c * power[n]
        power = product
    return power


@pytest.mark.parametrize("k", [13, 21])
def test_table_matches_schoolbook_theta_power(k):
    N = 1320   # the largest table the benchmark's deep verify jobs request
    assert rk_table(k, N).counts == tuple(_theta_power(k, N))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_table_is_cauchy_product_of_smaller_tables(data):
    k = data.draw(st.integers(2, 30), label="k")
    j = data.draw(st.integers(1, k - 1), label="j")
    N = data.draw(st.integers(0, 300), label="N")
    a, b = rk_table(k - j, N).counts, rk_table(j, N).counts
    product = tuple(sum(a[i] * b[n - i] for i in range(n + 1)) for n in range(N + 1))
    assert rk_table(k, N).counts == product
