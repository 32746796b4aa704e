"""The family of approximately optimal stopping rules on the put tree.

For each fraction alpha, the alpha-rule stops as soon as the reward covers
alpha times the value.  The rules grow with alpha and their limit is the
optimal rule: the first entry into the region where value equals reward.
"""

from robust_snell import fixtures, solve, u_alpha, u_star

cfg = fixtures.load("tt4")
sol = solve(cfg.tree, cfg.payoff, cfg.priors)

print("two-period put tree, value at the root:", sol.R["r"])
print()
print("alpha   stop nodes of the alpha-rule")
for alpha in (0.2, 0.4, 0.6, 0.8, 0.95, 1.0):
    rule = u_alpha(sol, "r", alpha)
    stops = [n for n in cfg.tree.nodes() if n in rule.cut(cfg.tree)]
    print(f"{alpha:5.2f}   {stops}")

star = u_star(sol, "r")
print()
print("optimal rule stops at:", [n for n in cfg.tree.nodes() if n in star.cut(cfg.tree)])
print("(every interior node still has value strictly above the reward, so the")
print("rule rides each path to the horizon)")
