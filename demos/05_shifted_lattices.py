"""Shifted-lattice identities: crystalline node sets away from sqrt(n).

For eta, xi in R^k outside Z^k, the measure with nodes +-|m + eta| and
phase weights e^{2 pi i <m, xi>}/|m + eta| has an explicitly computable
transform supported on the nodes +-|m + xi|.  Both sides are evaluated
as series over shells |m + eta|^2 and |m + xi|^2, weighted by the phase
sums on each shell, the same series as for the sqrt(n) nodes.
"""

from fractions import Fraction

from guinand import parse, shifted_nodes, verify_shifted

HALF = Fraction(1, 2)

print("Nodes of the shifted lattice Z^3 + (1/2, 1/2, 1/2) up to radius 2:")
nodes = shifted_nodes(3, (HALF, HALF, HALF), 2.0)
radii = sorted({round(n["node"], 12) for n in nodes})
print(f"  {len(nodes)} lattice points on {len(radii)} distinct shells:")
print("  shell radii:", ", ".join(f"{r:.6f}" for r in radii))

print()
phi = parse("t*exp(-pi*t^2)").value
print("Checking the identity for k = 5, eta = (1/4,0,0,0,0), xi = (0,1/3,0,0,0):")
rep = verify_shifted(5, (Fraction(1, 4), 0, 0, 0, 0),
                     (0, Fraction(1, 3), 0, 0, 0), phi, 6.0, 6.0)
print(f"  lhs = {rep.lhs:.15g}")
print(f"  rhs = {rep.rhs:.15g}")
print(f"  relative residual = {rep.rel_residual:.2e}")
print(f"  certified tail bounds: {rep.tail_bound_lhs:.2e} / {rep.tail_bound_rhs:.2e}")

print()
print("A symmetric curiosity: for eta = xi = (1/2,1/2,1/2) in k = 3 every")
print("shell's phase sum cancels exactly (m -> -1-m pairs points with")
print("opposite sign), so the whole measure annihilates odd functions:")
rep = verify_shifted(3, (HALF,) * 3, (HALF,) * 3, phi, 6.0, 6.0)
print(f"  lhs = {rep.lhs}, rhs = {rep.rhs} (both exactly zero)")
