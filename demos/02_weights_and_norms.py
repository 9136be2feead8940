"""Weights, the disk grid, and the norms built on weighted suprema.

Suprema over the disk are estimated on a radial/angular grid whose radii
pile up geometrically at the boundary, then polished by a zoom: ever
smaller (r, theta) patches around the coarse argmax, each evaluated at once.
"""

import math

from diskvolterra import (TruncatedSeries, Weight, bloch_norm, default_grid,
                          growth_bound_check, weighted_sup_norm, zygmund_norm)

grid = default_grid()
print(grid)

# The standard weight (1-|z|^2)^alpha and the logarithmic weight.
v1 = Weight.standard(1.0)
vlog = Weight.logarithmic()
print("v_1(0) =", v1(0.0), "  v_log(0) =", vlog(0.0))

# sup (1-|z|^2) |z^2| = 1/4, attained at |z| = 1/sqrt(2).
est = weighted_sup_norm(TruncatedSeries([0, 0, 1]), v1, grid)
print("\nsup (1-|z|^2)|z^2| =", est.value, " at |z| =", abs(est.argmax),
      " (exact 0.25 at", 1 / math.sqrt(2), ")")

# Bloch-type and Zygmund-type norms of small polynomials.
z3 = TruncatedSeries([0, 0, 0, 1])
print("\n||z^2||_B1 =", bloch_norm(TruncatedSeries([0, 0, 1]), 1.0, grid),
      " (exact 4/(3 sqrt 3) =", 4 / (3 * math.sqrt(3)), ")")
print("||z^3||_Z1 =", zygmund_norm(z3, 1.0, grid),
      " (exact 4/sqrt(3) =", 4 / math.sqrt(3), ")")

# A finite Zygmund-type norm bounds the growth of f and f'. The checker
# verifies the clause for each exponent regime over the whole grid.
f = TruncatedSeries([0.3, -1.0, 0.5, 0.2j, -0.1])
for alpha in (0.5, 1.0, 2.5):
    rep = growth_bound_check(f, alpha, grid)
    clauses = ", ".join(f"({c.clause}:{c.quantity}) ratio {c.worst_ratio:.3f}"
                        for c in rep.checks)
    print(f"\nalpha={alpha}: norm {rep.norm:.4f}  all clauses hold:"
          f" {rep.all_passed}   {clauses}")
