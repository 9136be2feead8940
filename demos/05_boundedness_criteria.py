"""Boundedness criteria: both sides of every comparability, with verdicts.

Each operator kind and source exponent demands a few conditions on the
symbol weights u1, u2. The sequence side scans sup_z v(z)|u||phi|^n over
n; the pointwise side takes the matching weighted supremum. The two are
comparable whenever finite, and divergence evidence (growth along the
boundary ladder, or a scaled scan still climbing at the cap) blocks the
"bounded" verdict.
"""

from diskvolterra import check_boundedness, default_grid, symbol_from_config

grid = default_grid()


def show(kind, sym, alpha, beta):
    rep = check_boundedness(kind, sym, alpha, beta, grid)
    print(f"\n{kind}  alpha={alpha} beta={beta}:  verdict = {rep.verdict}")
    for m in rep.memberships:
        print(f"  membership {m.label}: norm {m.norm:.4g} "
              f"{'(diverging)' if m.diverging else ''}")
    for q in rep.quantities:
        ratio = "n/a" if q.ratio is None else f"{q.ratio:.3f}"
        flag = "  ** divergence evidence" if q.divergence_evidence else ""
        print(f"  {q.u_label:>34}  seq {q.sequence_side:.4g}  "
              f"pointwise {q.pointwise_side:.4g}  ratio {ratio}{flag}")


# The identity-like case: g = 1, phi = z makes V_g C_phi the map f -> f - f(0).
trivial = symbol_from_config({"phi": {"family": "scaled_identity", "params": {"c": 1.0}},
                              "g": {"family": "poly", "params": {"coeffs": [1.0]}}},
                             grid=grid)
show("vgcphi", trivial, 1.0, 1.0)

# A Moebius inner symbol reaches the boundary; boundedness then depends on
# how the exponents compare.
mob = symbol_from_config({"phi": {"family": "mobius", "params": {"a": 0.5}},
                          "g": {"family": "identity"}}, grid=grid)
show("vgcphi", mob, 1.0, 1.0)      # bounded
show("vgcphi", mob, 2.0, 1.0)      # alpha > beta: divergence evidence

# The Cesaro symbol g = log(1/(1-z)) is evaluated in closed form, so
# g'' = 1/(1-z)^2 grows at z = 1 as the function does.
ces = symbol_from_config({"phi": {"family": "scaled_identity", "params": {"c": 0.5}},
                          "g": {"family": "log_cesaro"}}, grid=grid)
show("ugcphi", ces, 0.7, 1.0)      # g'' leaves the beta = 1 space: not determined
show("ugcphi", ces, 0.7, 2.5)      # membership-only case, 0 < alpha < 1
show("cphiug", ces, 2.0, 1.0)      # g(phi) with |phi| <= 1/2: bounded
