"""Counting lattice points on spheres: the r_k(n) tables.

r_k(n) is the number of integer vectors m in Z^k with |m|^2 = n.  The
library computes whole tables in exact integers as the coefficients of
theta(q)^k, theta(q) = 1 + 2 sum q^(s^2), with Miller's power recurrence,
and cross-checks single values against a brute-force lattice scan.
"""

from guinand import rk_bruteforce, rk_table

print("r_3(n) for n = 0..12 (theta^k table):")
table = rk_table(3, 12)
for n, c in enumerate(table.counts):
    print(f"  r_3({n:2d}) = {c}")

print()
print("Note r_3(7) = 0: seven is not a sum of three squares")
print("(it is 7 = 4^a(8b+7), the classical obstruction).")

print()
print("The brute-force oracle agrees, e.g. r_3(9):", rk_bruteforce(3, 9))
print("  30 = 6 from (+-3,0,0) permutations + 24 from (+-2,+-2,+-1).")

print()
print("Convolution identity r_{k1+k2}(n) = sum_j r_{k1}(j) r_{k2}(n-j):")
t2, t3, t5 = rk_table(2, 40), rk_table(3, 40), rk_table(5, 40)
n = 25
conv = sum(t2.counts[j] * t3.counts[n - j] for j in range(n + 1))
print(f"  sum_j r_2(j) r_3({n}-j) = {conv} = r_5({n}) = {t5.counts[n]}")

print()
print("Totals grow like the ball volume: sum of r_5(n) for n <= 40:")
print("  table:", sum(t5.counts), " (points of Z^5 in the closed ball of radius sqrt(40))")
