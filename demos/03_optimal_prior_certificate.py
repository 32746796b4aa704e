"""Extracting a maximizing prior and certifying optimality of the pair.

A (stopping rule, prior) pair is optimal exactly when the value equals the
reward at the stop and the value is a martingale under that prior up to the
stop.  The demo certifies the extracted pair and shows how perturbing either
component breaks exactly one condition.
"""

from robust_snell import (
    check_optimality_certificate,
    density_process,
    extract_optimal_prior,
    fixtures,
    gamma,
    solve,
    stop_at_time_rule,
    u_star,
)

cfg = fixtures.load("tt1")
sol = solve(cfg.tree, cfg.payoff, cfg.priors)
rule = u_star(sol, "r")
z_star = extract_optimal_prior(sol, "r")

print("value at the root:", sol.R["r"])
print("extracted prior density along the tree:", dict(z_star.z))
print("conditional reward under the pair:", gamma(cfg.tree, cfg.payoff, z_star, rule, "r"))

cert = check_optimality_certificate(sol, rule, z_star)
print("certificate (optimal, reward-touch, martingale):",
      (cert.optimal, cert.cond1, cert.cond2))

print()
print("perturbation 1: stop immediately instead of waiting")
early = stop_at_time_rule(cfg.tree, 0, "r")
cert_early = check_optimality_certificate(sol, early, z_star)
print("  certificate:", (cert_early.optimal, cert_early.cond1, cert_early.cond2),
      "- the reward-touch condition fails at the root")

print()
print("perturbation 2: keep the rule but tilt mass the wrong way")
z_wrong = density_process(cfg.tree, cfg.priors, {"r": 1})
cert_wrong = check_optimality_certificate(sol, rule, z_wrong)
print("  certificate:", (cert_wrong.optimal, cert_wrong.cond1, cert_wrong.cond2),
      "- the martingale condition fails; the pair only achieves",
      cert_wrong.value)
