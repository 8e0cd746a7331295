"""Sum-of-k-squares counts r_k(n) = #{m in Z^k : |m|^2 = n}.

Two independent computation routes:

* ``rk_table`` builds the whole table 0..max_n as the coefficients of
  g = theta^k, theta(q) = 1 + 2 sum_{s>=1} q^(s^2), in one pass of
  J.C.P. Miller's recurrence for powers of a power series (Knuth, TAOCP
  vol. 2, 4.7), in exact unbounded-integer arithmetic: O(max_n^1.5)
  whatever k is.
* ``rk_bruteforce`` counts a single value by exhausting the lattice box
  [-isqrt(n), isqrt(n)]^k, organized as a sign-symmetric depth-first scan
  with radius pruning so small instances finish quickly.  It shares no code
  or data with the table route and serves as its oracle.

Both reject oversized requests instead of truncating.  All values are
immutable after construction and both routes are pure, so results can be
shared freely across threads.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import WorkCapExceeded

DEFAULT_TABLE_CAP = 10 ** 6   # largest max_n accepted by rk_table
DEFAULT_BOX_CAP = 10 ** 9     # largest k*(2*isqrt(n)+1)^k accepted by rk_bruteforce


class _RepTableFields(NamedTuple):
    k: int
    max_n: int
    counts: tuple[int, ...]


class RepTable(_RepTableFields):
    """counts[n] = r_k(n) for 0 <= n <= max_n, as exact integers."""

    __slots__ = ()

    def __new__(cls, k: int, max_n: int, counts: tuple[int, ...]):
        if len(counts) != max_n + 1:
            raise ValueError("counts length must be max_n + 1")
        return super().__new__(cls, k, max_n, counts)


def rk_table(k: int, max_n: int, *, table_cap: int = DEFAULT_TABLE_CAP) -> RepTable:
    """Exact r_k table on 0..max_n: the coefficients g_n of g = theta^k.

    Differentiating g = theta^k gives theta g' = k theta' g; comparing the
    coefficients of q^(n-1) gives g_0 = 1 and, for n >= 1,

        g_n = 2 sum_{s>=1, s^2<=n} ((k+1) s^2 - n) g_{n-s^2} / n,

    where the division is exact.  One pass, O(max_n^1.5) for every k.
    """
    if k < 1:
        raise ValueError(f"dimension k must be >= 1, got {k}")
    if max_n < 0:
        raise ValueError(f"max_n must be nonnegative, got {max_n}")
    if max_n > table_cap:
        raise WorkCapExceeded(
            f"table size {max_n + 1} exceeds cap {table_cap + 1}; "
            f"raise the cap explicitly if this is intended")
    counts = [1] + [0] * max_n
    pairs = []  # (s^2, (k+1) s^2) for s^2 <= n
    for n in range(1, max_n + 1):
        if math.isqrt(n) ** 2 == n:
            pairs.append((n, (k + 1) * n))
        acc = 0
        for ss, kss in pairs:
            acc += (kss - n) * counts[n - ss]
        counts[n] = 2 * acc // n
    return RepTable(k, max_n, tuple(counts))


def rk_bruteforce(k: int, n: int, *, box_cap: int = DEFAULT_BOX_CAP) -> int:
    """r_k(n) by exhaustive scan of the box [-isqrt(n), isqrt(n)]^k.

    Coordinates are scanned depth first over their absolute values with the
    remaining budget n - sum of squares so far; each completed vector is
    counted with multiplicity 2^(number of nonzero coordinates), which
    enumerates the full box exactly once.
    """
    if k < 1:
        raise ValueError(f"dimension k must be >= 1, got {k}")
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    side = 2 * math.isqrt(n) + 1
    if k * side ** k > box_cap:
        raise WorkCapExceeded(
            f"brute-force box estimate {k * side ** k} exceeds cap {box_cap}")

    def count(dim: int, rem: int) -> int:
        if dim == 1:
            if rem == 0:
                return 1
            r = math.isqrt(rem)
            return 2 if r * r == rem else 0
        total = count(dim - 1, rem)        # this coordinate = 0
        j = 1
        while j * j <= rem:
            total += 2 * count(dim - 1, rem - j * j)
            j += 1
        return total

    return count(k, n)


def ball_count(table: RepTable) -> int:
    """Number of integer points in the closed ball |m|^2 <= max_n."""
    return sum(table.counts)
