"""End-to-end acceptance suite: one test and one printed line per criterion.

Criteria 2 and 7 pin the single-reference-measure value of the two-period
put tree (tt4, or the CRR put with S0 4, up 2, down 1/2, K 5, H 4 and
q_up 1/2, which builds the same tree, rewards and measure) at 1.75.  With
q = 1/2 on every edge and Y of r 1, u 0, d 3, uu 0, ud 1, du 1, dd 4,
backward induction gives

    R(u) = max(0, 0.5*0 + 0.5*1) = 0.5
    R(d) = max(3, 0.5*1 + 0.5*4) = 3
    R(r) = max(1, 0.5*0.5 + 0.5*3) = 1.75

and enumerating all five stopping rules from r gives stop at r: 1, stop at
time 1: 1.5, stop at time 2: 1.5, continue at u and stop at d: 1.75, stop
at u and continue at d: 1.25, so max = 1.75 and no stopping time reaches
2.0.  The value 2.0 in the original acceptance spec was an arithmetic
error.  The robust value 2.625 passes the same check: R(u) = 3/4,
R(d) = 3.25, R(r) = 1/4 * 3/4 + 3/4 * 3.25 = 2.625.  All these values are
dyadic, so the 1e-12 tolerances check them exactly.
"""

import time

from robust_snell import (
    CrrParams,
    PriorSet,
    brute_force_value,
    build_crr_barrier_tree,
    check_optimality_certificate,
    crosscheck,
    density_process,
    drift_ambiguity_priors,
    extract_optimal_prior,
    extreme_selections,
    first_entry_rule,
    fixtures,
    gamma,
    knockin_payoff,
    premise_check,
    price,
    random_crr_params,
    random_instance,
    solve,
    stop_at_time_rule,
    u_alpha,
    u_star,
    universal_decompose,
    vanilla_put_payoff,
    verify_value_identities,
)
from robust_snell.cli import run as cli_run

ALPHA_GRID = (0.2, 0.4, 0.6, 0.8, 0.95, 1.0)

CRR_BASE = dict(S0=4.0, up=2.0, down=0.5, steps=2, rate=0.0, K=5.0, H=4.0, q_up=0.5)


def report(criterion: int, failures: list[str]) -> None:
    status = "PASS" if not failures else "FAIL"
    detail = "" if not failures else " | " + "; ".join(failures)
    print(f"[criterion {criterion}] {status}{detail}")
    assert not failures, f"criterion {criterion}: " + "; ".join(failures)


def best_over_selections(tree, priors, family, rule, v):
    return max(
        gamma(tree, family, density_process(tree, priors, sel), rule, v)
        for sel in extreme_selections(tree, priors)
    )


def test_criterion_1_oracle_equivalence(tt1, tt3, tt4):
    failures = []
    start = time.perf_counter()
    for name, cfg in (("tt1", tt1), ("tt3", tt3), ("tt4", tt4)):
        dev = crosscheck(cfg.tree, cfg.payoff, cfg.priors).max_deviation
        if not dev < 1e-9:
            failures.append(f"{name}: oracle deviation {dev:g}")
    for seed in range(50):
        tree, payoff, priors = random_instance(seed)
        dev = crosscheck(tree, payoff, priors).max_deviation
        if not dev < 1e-9:
            failures.append(f"random seed {seed}: oracle deviation {dev:g}")
    elapsed = time.perf_counter() - start
    if not elapsed < 10.0:
        failures.append(f"runtime {elapsed:.2f}s exceeds 10s")
    report(1, failures)


def test_criterion_2_fixture_values(tt1, tt3, tt4):
    failures = []
    expectations = [
        ("tt1 root value", solve(tt1.tree, tt1.payoff, tt1.priors).R["r"], 1.5),
        ("tt4 root value", solve(tt4.tree, tt4.payoff, tt4.priors).R["r"], 2.625),
        ("tt3 root value", solve(tt3.tree, tt3.payoff, tt3.priors).R["r"], 1.3),
    ]
    single = PriorSet.singleton_reference(tt4.tree)
    computed_single = solve(tt4.tree, tt4.payoff, single).R["r"]
    oracle_single = brute_force_value(tt4.tree, tt4.payoff, single, "r").value
    # backward induction: R(u) = 0.5, R(d) = 3, R(r) = max(1, 0.5*0.5 + 0.5*3)
    # = 1.75; the five rules give max(1, 1.5, 1.5, 1.75, 1.25) = 1.75
    expectations.append(("tt4 single-prior root value", computed_single, 1.75))
    if abs(computed_single - oracle_single) > 1e-12:
        failures.append("single-prior solve disagrees with its own oracle")
    for label, got, want in expectations:
        if abs(got - want) > 1e-12:
            failures.append(f"{label}: got {got:.17g}, pinned {want:.17g}")
    report(2, failures)


def test_criterion_3_value_identities(tt1, tt3, tt4):
    failures = []
    for name, cfg in (("tt1", tt1), ("tt3", tt3), ("tt4", tt4)):
        sol = solve(cfg.tree, cfg.payoff, cfg.priors)
        for n in cfg.tree.nodes():
            if sol.R[n] != max(cfg.payoff[n], sol.R_plus[n]):
                failures.append(f"{name}: value recursion broken at node {n}")
    sol4 = solve(tt4.tree, tt4.payoff, tt4.priors)
    identity_report = verify_value_identities(sol4)
    tower = identity_report.check("strict_value_tower_with_repasted_priors")
    if not tower.passed or tower.worst_deviation >= 1e-12:
        failures.append(
            f"repasted tower identity deviation {tower.worst_deviation:g}"
        )
    literal = identity_report.check("strict_value_tower_with_fixed_prior")
    documented = any(
        abs(e["lhs"] - 2.0) <= 1e-12 and abs(e["rhs"] - 1.5) <= 1e-12
        for e in literal.details["entries"]
    )
    if literal.passed:
        failures.append("fixed-prior tower unexpectedly passed under ambiguity")
    if not documented:
        failures.append("fixed-prior tower did not report the 2.0 vs 1.5 gap")
    report(3, failures)


def test_criterion_4_optimality_certificates(tt1, tt3, tt4):
    failures = []
    for name, cfg in (("tt1", tt1), ("tt3", tt3), ("tt4", tt4)):
        sol = solve(cfg.tree, cfg.payoff, cfg.priors)
        v = cfg.tree.root
        rule = u_star(sol, v)
        z = extract_optimal_prior(sol, v)
        cert = check_optimality_certificate(sol, rule, z)
        if (cert.optimal, cert.cond1, cert.cond2) != (True, True, True):
            failures.append(f"{name}: certificate {cert.optimal, cert.cond1, cert.cond2}")
        if abs(cert.value - sol.R[v]) > 1e-10:
            failures.append(f"{name}: certified value {cert.value:g} != {sol.R[v]:g}")
    # perturbed pairs on tt1 must fail exactly the predicted condition
    sol1 = solve(tt1.tree, tt1.payoff, tt1.priors)
    z_plus = extract_optimal_prior(sol1, "r")
    early = stop_at_time_rule(tt1.tree, 0, "r")
    cert_early = check_optimality_certificate(sol1, early, z_plus)
    if (cert_early.optimal, cert_early.cond1, cert_early.cond2) != (False, False, True):
        failures.append(f"early stop certificate {cert_early}")
    wrong = density_process(tt1.tree, tt1.priors, {"r": 1})
    good_rule = u_star(sol1, "r")
    cert_wrong = check_optimality_certificate(sol1, good_rule, wrong)
    if (cert_wrong.optimal, cert_wrong.cond1, cert_wrong.cond2) != (False, True, False):
        failures.append(f"wrong prior certificate {cert_wrong}")
    report(4, failures)


def test_criterion_5_approximate_optimality(tt1, tt3, tt4):
    failures = []
    for name, cfg in (("tt1", tt1), ("tt3", tt3), ("tt4", tt4)):
        tree, payoff, priors = cfg.tree, cfg.payoff, cfg.priors
        sol = solve(tree, payoff, priors)
        v = tree.root
        rules = [u_alpha(sol, v, a) for a in ALPHA_GRID]
        for (a1, r1), (a2, r2) in zip(
            zip(ALPHA_GRID, rules), list(zip(ALPHA_GRID, rules))[1:]
        ):
            for leaf in tree.leaves():
                if r1.stop_time(tree, leaf) > r2.stop_time(tree, leaf):
                    failures.append(f"{name}: rule not nondecreasing {a1}->{a2}")
        for alpha, rule in zip(ALPHA_GRID, rules):
            for s in rule.cut(tree):
                if alpha * sol.R[s] > payoff[s] + 1e-9:
                    failures.append(f"{name}: alpha {alpha} reward gap at {s}")
            best_reward = best_over_selections(tree, priors, payoff, rule, v)
            if alpha * sol.R[v] > best_reward + 1e-10:
                failures.append(f"{name}: alpha {alpha} approximate optimality fails")
            best_value = best_over_selections(tree, priors, sol.R, rule, v)
            if abs(sol.R[v] - best_value) > 1e-10:
                failures.append(f"{name}: alpha {alpha} continuation identity fails")
        star = u_star(sol, v)
        explicit = first_entry_rule(tree, lambda n: n in sol.stop_region, v)
        if star.cut(tree) != explicit.cut(tree):
            failures.append(f"{name}: optimal rule is not the first entry")
        if star.cut(tree) != rules[-1].cut(tree):
            failures.append(f"{name}: optimal rule differs from alpha=1 rule")
        attained = best_over_selections(tree, priors, payoff, star, v)
        if abs(attained - sol.R[v]) > 1e-10:
            failures.append(f"{name}: optimal rule attains {attained:g} != {sol.R[v]:g}")
    report(5, failures)


def test_criterion_6_universal_decomposition(tt1, tt3, tt4):
    failures = []
    fixture_runs = []
    for name, cfg in (("tt1", tt1), ("tt3", tt3), ("tt4", tt4)):
        fixture_runs.append((name, cfg.tree, cfg.payoff, cfg.priors))
        fixture_runs.append(
            (f"{name}-single", cfg.tree, cfg.payoff, PriorSet.singleton_reference(cfg.tree))
        )
    decomposed = {}
    for name, tree, payoff, priors in fixture_runs:
        sol = solve(tree, payoff, priors)
        dec = universal_decompose(sol)
        decomposed[name] = dec
        for n in tree.nodes():
            if abs(sol.R[n] - (dec.X0 + dec.M[n] - dec.C[n])) > 1e-10:
                failures.append(f"{name}: reconstruction off at {n}")
        if dec.diagnostics.universal_martingale_residual > 1e-10:
            failures.append(
                f"{name}: martingale residual {dec.diagnostics.universal_martingale_residual:g}"
            )
        if name.endswith("-single"):
            if not dec.diagnostics.C_increasing:
                failures.append(f"{name}: drift not increasing under a single prior")
            if any(abs(dec.C[n] - dec.A_q[n]) > 1e-12 for n in tree.nodes()):
                failures.append(f"{name}: C differs from the predictable drift")
            if not dec.diagnostics.premise.scaling_closed_all:
                failures.append(f"{name}: premise flag false under a single prior")
    for name, want in (("tt1", -0.5), ("tt3", -0.2)):
        dec = decomposed[name]
        if dec.diagnostics.C_increasing:
            failures.append(f"{name}: C unexpectedly increasing")
        if abs(dec.diagnostics.min_delta_C - want) > 1e-12:
            failures.append(
                f"{name}: min delta C {dec.diagnostics.min_delta_C:.17g} != {want}"
            )
    for name, cfg in (("tt1", tt1), ("tt3", tt3)):
        if premise_check(cfg.tree, cfg.priors).scaling_closed_all:
            failures.append(f"{name}: scaling-closure flag should be false")
    report(6, failures)


def test_criterion_7_pricing():
    failures = []
    robust = price(CrrParams(ambiguity=(0.25, 0.75), **CRR_BASE))
    if abs(robust.hedging_price - 2.625) > 1e-12:
        failures.append(f"robust price {robust.hedging_price:.17g} != 2.625")
    single = price(CrrParams(ambiguity=(0.5, 0.5), **CRR_BASE))
    # same tree, rewards and measure as tt4: R(u) = 0.5, R(d) = 3,
    # R(r) = max(1, 0.5*0.5 + 0.5*3) = 1.75; the five rules give
    # max(1, 1.5, 1.5, 1.75, 1.25) = 1.75
    if abs(single.hedging_price - 1.75) > 1e-12:
        failures.append(
            f"single-prior price: got {single.hedging_price:.17g}, pinned 1.75"
        )
    grid = [(0.5, 0.5), (0.4, 0.6), (0.25, 0.75)]
    values = [
        price(CrrParams(ambiguity=width, **CRR_BASE)).hedging_price for width in grid
    ]
    if not (values[0] < values[1] < values[2]):
        failures.append(f"prices not strictly increasing over the grid: {values}")
    for seed in range(20):
        params = random_crr_params(seed)
        tree = build_crr_barrier_tree(params)
        priors = drift_ambiguity_priors(tree, params)
        knockin = solve(tree, knockin_payoff(tree, params), priors).R[tree.root]
        vanilla = solve(tree, vanilla_put_payoff(tree, params), priors).R[tree.root]
        if knockin > vanilla + 1e-12:
            failures.append(f"seed {seed}: knock-in {knockin:g} above vanilla {vanilla:g}")
    report(7, failures)


def test_criterion_8_cli_determinism(tmp_path):
    failures = []
    crr_config = tmp_path / "crr.json"
    crr_config.write_text(
        '{"crr": {"S0": 4.0, "up": 2.0, "down": 0.5, "steps": 2, "rate": 0.0,'
        ' "K": 5.0, "H": 4.0, "q_up": 0.5, "ambiguity": [0.25, 0.75]}, "seed": 7}'
    )
    jobs = [
        ("solve", fixtures.config_path("tt1")),
        ("solve", fixtures.config_path("tt4")),
        ("oracle", fixtures.config_path("tt4")),
        ("decompose", fixtures.config_path("tt3")),
        ("price", crr_config),
    ]
    for i, (command, config) in enumerate(jobs):
        out1 = tmp_path / f"{command}{i}_a"
        out2 = tmp_path / f"{command}{i}_b"
        code1 = cli_run([command, "--config", str(config), "--out", str(out1)])
        code2 = cli_run([command, "--config", str(config), "--out", str(out2)])
        if code1 != 0 or code2 != 0:
            failures.append(f"{command} exited {code1}/{code2}")
            continue
        for artifact in ("summary.json", "nodes.csv"):
            if (out1 / artifact).read_bytes() != (out2 / artifact).read_bytes():
                failures.append(f"{command}: {artifact} differs between runs")
    report(8, failures)
