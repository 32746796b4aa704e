"""Splitting the value family into a universal martingale and a drift.

The martingale part has zero one-step mean under every prior of the class
simultaneously.  Whether the drift part is nondecreasing depends on a
richness premise on the class of density increments; the demo shows a
failure under genuine ambiguity and the clean classical picture for the
single-measure class.
"""

from robust_snell import (
    PriorSet,
    fixtures,
    flat_off_check,
    solve,
    u_star,
    universal_decompose,
)

cfg = fixtures.load("tt3")
sol = solve(cfg.tree, cfg.payoff, cfg.priors)
dec = universal_decompose(sol)

print("three-branch tree under one-directional ambiguity")
print("value at the root:", dec.X0)
print("martingale part:  ", {n: round(v, 12) for n, v in dec.M.items()})
print("drift part C:     ", {n: round(v, 12) for n, v in dec.C.items()})
diag = dec.diagnostics
print("drift increasing:", diag.C_increasing, " smallest increment:", diag.min_delta_C)
print("worst one-step mean of M over all extremes:", diag.universal_martingale_residual)
print("per-node scaling-closure premise:", dict(diag.premise.scaling_closed))
print()
print("The premise fails (the increment span is one-dimensional but scaling")
print("out of it leaves the admissible densities), and indeed C decreases on")
print("the branch the best model overweights.")

print()
print("single-measure contrast on the two-period put tree:")
tt4 = fixtures.load("tt4")
single = PriorSet.singleton_reference(tt4.tree)
sol_single = solve(tt4.tree, tt4.payoff, single)
dec_single = universal_decompose(sol_single)
rule = u_star(sol_single, "r")
print("drift increasing:", dec_single.diagnostics.C_increasing)
print("drift equals the predictable part:",
      all(abs(dec_single.C[n] - dec_single.A_q[n]) < 1e-12 for n in tt4.tree.nodes()))
print("drift flat before the optimal stop:",
      flat_off_check(dec_single, tt4.tree, rule))
