import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robust_snell import (
    AdaptedFamily,
    CrrParams,
    EventTree,
    InvalidFamilyError,
    InvalidParamsError,
    InvalidPriorSetError,
    InvalidTreeError,
    NodeRecord,
    PriorSet,
    SizeGuardError,
    UnattainedSupremumError,
    UndefinedConditionalError,
    bayes_conditional,
    brute_force_value,
    build_crr_barrier_tree,
    check_optimality_certificate,
    crosscheck,
    density_process,
    drift_ambiguity_priors,
    extract_optimal_prior,
    first_entry_rule,
    fixtures,
    knockin_payoff,
    random_instance,
    selection_count,
    solve,
    stop_at_time_rule,
    u_alpha,
    u_star,
)
from robust_snell import filtration, snell
from robust_snell import priors as priors_module
from robust_snell.filtration import step
from robust_snell.snell import DEFAULT_TOL
from reference import (
    check_supermartingale_family,
    constant_family,
    continuation_region,
    enumerate_rules,
    extreme_selections,
    leaves_below,
    reference_process,
    scaled_family,
    stop_time,
    verify_value_identities,
)


def classical_snell(tree, payoff):
    """Independent single-prior backward induction for cross-checking."""
    values = {}
    for n in tree.nodes_by_time(descending=True):
        if tree.is_terminal(n):
            values[n] = payoff[n]
        else:
            cont = sum(tree.edge_q(c) * values[c] for c in tree.children(n))
            values[n] = max(payoff[n], cont)
    return values


class TestSolve:
    def test_tt1(self, tt1):
        sol = solve(tt1.tree, tt1.payoff, tt1.priors)
        assert sol.R["r"] == pytest.approx(1.5, abs=1e-12)
        assert sol.R_plus["r"] == pytest.approx(1.5, abs=1e-12)
        assert sol.argmax_extreme["r"] == 0
        assert sol.stop_region == frozenset({"u", "d"})
        assert sol.attained

    def test_tt3(self, tt3):
        sol = solve(tt3.tree, tt3.payoff, tt3.priors)
        assert sol.R["r"] == pytest.approx(1.3, abs=1e-12)

    def test_tt4(self, tt4):
        sol = solve(tt4.tree, tt4.payoff, tt4.priors)
        assert sol.R["r"] == pytest.approx(2.625, abs=1e-12)
        assert sol.R["u"] == pytest.approx(0.75, abs=1e-12)
        assert sol.R["d"] == pytest.approx(3.25, abs=1e-12)
        assert sol.stop_region == frozenset({"uu", "ud", "du", "dd"})
        assert all(sol.argmax_extreme[n] == 0 for n in ("r", "u", "d"))

    def test_tt4_single_prior_is_classical(self, tt4_single):
        # frozen from the enumeration oracle: continue at the root and the up
        # node, stop at the down node, so the root value is 1.75
        tree, payoff, priors = tt4_single
        sol = solve(tree, payoff, priors)
        assert sol.R["r"] == pytest.approx(1.75, abs=1e-12)
        assert sol.R["u"] == pytest.approx(0.5, abs=1e-12)
        assert sol.R["d"] == pytest.approx(3.0, abs=1e-12)
        reference = classical_snell(tree, payoff)
        for n in tree.nodes():
            assert sol.R[n] == pytest.approx(reference[n], abs=1e-12)

    def test_structural_invariants(self, tt4):
        sol = solve(tt4.tree, tt4.payoff, tt4.priors)
        for n in tt4.tree.nodes():
            assert sol.R[n] >= tt4.payoff[n]
            assert sol.R[n] >= sol.R_plus[n]
            assert sol.R[n] == max(tt4.payoff[n], sol.R_plus[n])
        for leaf in leaves_below(tt4.tree, tt4.tree.root):
            assert sol.R[leaf] == sol.R_plus[leaf] == tt4.payoff[leaf]

    def test_matches_oracle_on_fixtures(self, tt1, tt3, tt4):
        for cfg in (tt1, tt3, tt4):
            report = crosscheck(cfg.tree, cfg.payoff, cfg.priors)
            assert report.max_deviation < 1e-9

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000), c=st.floats(0.1, 10.0))
    def test_positive_homogeneity(self, seed, c):
        tree, payoff, priors = random_instance(seed)
        base = solve(tree, payoff, priors)
        scaled = solve(tree, scaled_family(payoff, c), priors)
        for n in tree.nodes():
            assert scaled.R[n] == pytest.approx(c * base.R[n], rel=1e-12, abs=1e-12)
        assert scaled.stop_region == base.stop_region
        assert scaled.argmax_extreme == base.argmax_extreme

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_monotone_in_prior_set(self, seed):
        tree, payoff, priors = random_instance(seed)
        import random as _random

        rng = _random.Random(seed + 77)
        enlarged = {}
        for n in tree.decision_nodes(tree.root):
            q = tree.q_vector(n)
            raw = [rng.uniform(0.05, 1.0) for _ in q]
            norm = sum(qc * rc for qc, rc in zip(q, raw))
            extra = tuple(rc / norm for rc in raw)
            enlarged[n] = list(priors.extremes(n)) + [extra]
        bigger = PriorSet(extreme_points=enlarged)
        base = solve(tree, payoff, priors)
        grown = solve(tree, payoff, bigger)
        for n in tree.nodes():
            assert grown.R[n] >= base.R[n] - 1e-12


class TestGamma:
    def test_reference(self, tt1):
        rule = stop_at_time_rule(tt1.tree, 1, "r")
        z = reference_process(tt1.tree)
        assert bayes_conditional(tt1.tree, z, tt1.payoff, rule, "r") == pytest.approx(1.0)

    def test_extreme(self, tt1):
        rule = stop_at_time_rule(tt1.tree, 1, "r")
        z = density_process(tt1.tree, tt1.priors, {"r": 0})
        assert bayes_conditional(tt1.tree, z, tt1.payoff, rule, "r") == pytest.approx(1.5)


class TestAlphaRules:
    def test_tt1_low_alpha_stops_immediately(self, tt1):
        sol = solve(tt1.tree, tt1.payoff, tt1.priors)
        rule = u_alpha(sol, "r", 0.6)
        assert rule.cut(tt1.tree) == frozenset({"r"})

    def test_tt1_high_alpha_continues(self, tt1):
        sol = solve(tt1.tree, tt1.payoff, tt1.priors)
        rule = u_alpha(sol, "r", 0.8)
        assert rule.cut(tt1.tree) == frozenset({"u", "d"})

    def test_terminal_floor_stops_at_once(self, tt4):
        sol = solve(tt4.tree, tt4.payoff, tt4.priors)
        for leaf in leaves_below(tt4.tree, tt4.tree.root):
            for alpha in (0.2, 0.9, 1.0):
                rule = u_alpha(sol, leaf, alpha)
                assert rule.cut(tt4.tree) == frozenset({leaf})

    def test_alpha_out_of_range(self, tt1):
        sol = solve(tt1.tree, tt1.payoff, tt1.priors)
        for alpha in (0.0, -0.3, 1.2):
            with pytest.raises(InvalidParamsError):
                u_alpha(sol, "r", alpha)

    def test_nondecreasing_in_alpha(self, tt4):
        sol = solve(tt4.tree, tt4.payoff, tt4.priors)
        grid = [0.2, 0.4, 0.6, 0.8, 0.95, 1.0]
        rules = [u_alpha(sol, "r", a) for a in grid]
        for earlier, later in zip(rules, rules[1:]):
            for leaf in leaves_below(tt4.tree, tt4.tree.root):
                assert stop_time(earlier, tt4.tree, leaf) <= stop_time(later, tt4.tree, leaf)

    def test_reward_covers_alpha_fraction_at_stop(self, tt4):
        sol = solve(tt4.tree, tt4.payoff, tt4.priors)
        for alpha in (0.2, 0.6, 0.95, 1.0):
            rule = u_alpha(sol, "r", alpha)
            for s in rule.cut(tt4.tree):
                assert alpha * sol.R[s] <= tt4.payoff[s] + 1e-9


class TestOptimalTime:
    def test_tt1(self, tt1):
        sol = solve(tt1.tree, tt1.payoff, tt1.priors)
        rule = u_star(sol, "r")
        assert rule.cut(tt1.tree) == frozenset({"u", "d"})

    def test_tt4_first_entry_of_stop_region(self, tt4):
        sol = solve(tt4.tree, tt4.payoff, tt4.priors)
        rule = u_star(sol, "r")
        assert rule.cut(tt4.tree) == frozenset({"uu", "ud", "du", "dd"})
        explicit = first_entry_rule(tt4.tree, lambda n: n in sol.stop_region, "r")
        assert rule.cut(tt4.tree) == explicit.cut(tt4.tree)

    def test_equals_alpha_one(self, tt3):
        sol = solve(tt3.tree, tt3.payoff, tt3.priors)
        assert u_star(sol, "r").cut(tt3.tree) == u_alpha(sol, "r", 1.0).cut(tt3.tree)

    def test_constant_reward_stops_at_once(self, tt4):
        payoff = constant_family(tt4.tree, 2.0)
        sol = solve(tt4.tree, payoff, tt4.priors)
        rule = u_star(sol, "r")
        assert rule.cut(tt4.tree) == frozenset({"r"})

    def test_attains_value_over_extremes(self, tt4):
        sol = solve(tt4.tree, tt4.payoff, tt4.priors)
        rule = u_star(sol, "r")
        best = max(
            bayes_conditional(tt4.tree, density_process(tt4.tree, tt4.priors, sel), tt4.payoff, rule, "r")
            for sel in extreme_selections(tt4.tree, tt4.priors)
        )
        assert best == pytest.approx(sol.R["r"], abs=1e-10)


class TestExtractOptimalPrior:
    def test_tt1_picks_upweighting(self, tt1):
        sol = solve(tt1.tree, tt1.payoff, tt1.priors)
        z = extract_optimal_prior(sol, "r")
        assert z.z == {"r": 1.0, "u": 1.5, "d": 0.5}
        rule = u_star(sol, "r")
        assert bayes_conditional(tt1.tree, z, tt1.payoff, rule, "r") == pytest.approx(1.5)

    def test_tt4_downweights_everywhere(self, tt4):
        sol = solve(tt4.tree, tt4.payoff, tt4.priors)
        z = extract_optimal_prior(sol, "r")
        for n in ("r", "u", "d"):
            assert z.ratio[n] == (0.5, 1.5)
        rule = u_star(sol, "r")
        assert bayes_conditional(tt4.tree, z, tt4.payoff, rule, "r") == pytest.approx(2.625)

    def test_extraction_at_interior_nodes(self, tt4):
        sol = solve(tt4.tree, tt4.payoff, tt4.priors)
        for v in ("u", "d"):
            rule = u_star(sol, v)
            z = extract_optimal_prior(sol, v)
            assert bayes_conditional(tt4.tree, z, tt4.payoff, rule, v) == pytest.approx(
                sol.R[v], abs=1e-12
            )

    def test_single_prior_returns_reference(self, tt4_single):
        tree, payoff, priors = tt4_single
        sol = solve(tree, payoff, priors)
        z = extract_optimal_prior(sol, "r")
        assert all(v == 1.0 for v in z.z.values())

    def test_unattained_supremum_raises_with_value(self, tt1):
        priors = PriorSet.from_node_extremes(
            {"r": [[2.0, 0.0], [0.0, 2.0]]}, mode="equivalent"
        )
        sol = solve(tt1.tree, tt1.payoff, priors)
        assert not sol.attained
        with pytest.raises(UnattainedSupremumError) as exc:
            extract_optimal_prior(sol, "r")
        assert exc.value.supremum == pytest.approx(2.0)

    def test_equivalent_mode_tie_mixes_to_positive(self, tt1):
        # both boundary extremes attain the maximum for a flat objective, so
        # the extracted ratios mix to the strictly positive midpoint
        payoff = AdaptedFamily({"r": 0.0, "u": 1.0, "d": 1.0})
        priors = PriorSet.from_node_extremes(
            {"r": [[2.0, 0.0], [0.0, 2.0]]}, mode="equivalent"
        )
        sol = solve(tt1.tree, payoff, priors)
        assert sol.attained
        z = extract_optimal_prior(sol, "r")
        assert z.ratio["r"] == (1.0, 1.0)


class TestSupermartingaleCheck:
    def test_value_family_passes(self, tt4):
        sol = solve(tt4.tree, tt4.payoff, tt4.priors)
        assert check_supermartingale_family(tt4.tree, sol.R, tt4.priors).passed

    def test_reward_fails_at_down_node(self, tt4):
        report = check_supermartingale_family(tt4.tree, tt4.payoff, tt4.priors)
        assert not report.passed
        assert report.node_ok["d"] is False

    def test_constant_family_passes(self, tt4):
        family = constant_family(tt4.tree, 5.0)
        assert check_supermartingale_family(tt4.tree, family, tt4.priors).passed

    def test_minimality_probe(self, tt4):
        # shaving the value at a continuation node breaks dominance or the
        # supermartingale property, witnessing minimality
        sol = solve(tt4.tree, tt4.payoff, tt4.priors)
        for node in ("r", "u", "d"):
            shaved = dict(sol.R.items())
            shaved[node] -= 1e-3
            family = AdaptedFamily(shaved)
            dominated = all(family[n] >= tt4.payoff[n] for n in tt4.tree.nodes())
            supermart = check_supermartingale_family(tt4.tree, family, tt4.priors).passed
            assert not (dominated and supermart)


class TestCertificate:
    def test_optimal_pair(self, tt1):
        sol = solve(tt1.tree, tt1.payoff, tt1.priors)
        rule = u_star(sol, "r")
        z = extract_optimal_prior(sol, "r")
        cert = check_optimality_certificate(sol, rule, z)
        assert (cert.optimal, cert.cond1, cert.cond2) == (True, True, True)
        assert cert.value == pytest.approx(cert.value_target)

    def test_early_stop_fails_first_condition(self, tt1):
        sol = solve(tt1.tree, tt1.payoff, tt1.priors)
        z = density_process(tt1.tree, tt1.priors, {"r": 0})
        rule = stop_at_time_rule(tt1.tree, 0, "r")
        cert = check_optimality_certificate(sol, rule, z)
        assert (cert.optimal, cert.cond1, cert.cond2) == (False, False, True)

    def test_wrong_prior_fails_second_condition(self, tt1):
        sol = solve(tt1.tree, tt1.payoff, tt1.priors)
        z = density_process(tt1.tree, tt1.priors, {"r": 1})
        rule = stop_at_time_rule(tt1.tree, 1, "r")
        cert = check_optimality_certificate(sol, rule, z)
        assert (cert.optimal, cert.cond1, cert.cond2) == (False, True, False)
        assert cert.value == pytest.approx(0.5)

    def test_equivalence_with_value_attainment(self, tt1):
        # the pair is optimal exactly when its conditional value hits R(v)
        sol = solve(tt1.tree, tt1.payoff, tt1.priors)
        for rule in enumerate_rules(tt1.tree, "r"):
            for sel in extreme_selections(tt1.tree, tt1.priors):
                z = density_process(tt1.tree, tt1.priors, sel)
                cert = check_optimality_certificate(sol, rule, z)
                attains = abs(cert.value - cert.value_target) <= 1e-9
                assert cert.optimal == attains


class TestValueIdentities:
    def test_gated_identities_pass_on_fixtures(self, tt1, tt3, tt4):
        for cfg in (tt1, tt3, tt4):
            sol = solve(cfg.tree, cfg.payoff, cfg.priors)
            report = verify_value_identities(sol)
            assert report.passed
            for check in report.checks:
                if check.gating:
                    assert check.worst_deviation < 1e-12

    def test_fixed_prior_tower_fails_with_documented_numbers(self, tt4):
        sol = solve(tt4.tree, tt4.payoff, tt4.priors)
        report = verify_value_identities(sol)
        literal = report.check("strict_value_tower_with_fixed_prior")
        assert not literal.passed
        assert not literal.gating
        # reference measure, stop at time 1: conditional strict value 2.0
        # against a best fixed-prior continuation of 1.5
        entries = literal.details["entries"]
        assert any(
            e["lhs"] == pytest.approx(2.0, abs=1e-12)
            and e["rhs"] == pytest.approx(1.5, abs=1e-12)
            for e in entries
        )

    def test_single_prior_towers_agree(self, tt4_single):
        tree, payoff, priors = tt4_single
        sol = solve(tree, payoff, priors)
        report = verify_value_identities(sol)
        assert report.passed
        assert report.check("strict_value_tower_with_fixed_prior").passed

    def test_zero_ratio_components_in_closure_mode(self, tt4):
        # extreme 0 at r gives d zero mass, so the checks at d must not
        # condition on a measure built from the root
        priors = PriorSet.from_node_extremes(
            {n: [(2.0, 0.0), (0.0, 2.0)] for n in ("r", "u", "d")}
        )
        sol = solve(tt4.tree, tt4.payoff, priors)
        report = verify_value_identities(sol)
        assert report.passed
        for check in report.checks:
            if check.gating:
                assert check.worst_deviation == 0.0, check
        assert crosscheck(tt4.tree, tt4.payoff, priors, sol).max_deviation == 0.0

    def test_root_selection_guard_covers_every_subtree(self, crr_put):
        # no subtree has more extreme selections than the root, so the
        # guard at the root is the only one the enumeration needs
        params = crr_put._replace(steps=4)
        tree = build_crr_barrier_tree(params)
        sol = solve(tree, knockin_payoff(tree, params), drift_ambiguity_priors(tree, params))
        assert selection_count(tree, sol.priors) == 2**15
        with pytest.raises(SizeGuardError, match="32768 extreme selections"):
            verify_value_identities(sol)


class TestStepOneIdentity:
    def test_value_equals_best_continuation(self, tt1, tt3, tt4):
        for cfg in (tt1, tt3, tt4):
            sol = solve(cfg.tree, cfg.payoff, cfg.priors)
            for alpha in (0.2, 0.6, 1.0):
                rule = u_alpha(sol, cfg.tree.root, alpha)
                best = max(
                    bayes_conditional(cfg.tree, density_process(cfg.tree, cfg.priors, sel), sol.R, rule, cfg.tree.root)
                    for sel in extreme_selections(cfg.tree, cfg.priors)
                )
                assert best == pytest.approx(sol.R[cfg.tree.root], abs=1e-10)

    def test_one_minus_alpha_optimality(self, tt4):
        sol = solve(tt4.tree, tt4.payoff, tt4.priors)
        for alpha in (0.2, 0.4, 0.6, 0.8, 0.95, 1.0):
            rule = u_alpha(sol, "r", alpha)
            best = max(
                bayes_conditional(tt4.tree, density_process(tt4.tree, tt4.priors, sel), tt4.payoff, rule, "r")
                for sel in extreme_selections(tt4.tree, tt4.priors)
            )
            assert alpha * sol.R["r"] <= best + 1e-10


CRR_FIELDS = {"S0": 5.0, "up": 1.1, "down": 0.9, "steps": 2, "rate": 0.0, "K": 5.0, "H": 3.8}


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf], ids=["nan", "+inf", "-inf"])
@pytest.mark.parametrize("where", ["edge-q", "payoff", "extreme", "crr"])
def test_validators_reject_non_finite(tt1, where, x):
    """NaN and ±inf fail the range checks of every library validator."""
    tree, payoff, priors = tt1.tree, tt1.payoff, tt1.priors
    if where == "edge-q":
        records = [
            tree.node(n)._replace(q=x) if n == "u" else tree.node(n)
            for n in tree.nodes()
        ]
        with pytest.raises(InvalidTreeError, match="node u: edge probability"):
            solve(EventTree(horizon=tree.horizon, records=records), payoff, priors)
    elif where == "payoff":
        bad = AdaptedFamily({**payoff.values, "u": x})
        with pytest.raises(InvalidFamilyError, match="not finite at node u"):
            solve(tree, bad, priors)
    elif where == "extreme":
        bad = PriorSet.from_node_extremes({"r": [[x, 0.5], [0.5, 1.5]]})
        with pytest.raises(InvalidPriorSetError, match="density component"):
            solve(tree, payoff, bad)
    else:
        for name in ("S0", "up", "down", "rate", "K", "H", "q_up"):
            params = CrrParams(**{**CRR_FIELDS, name: x})
            with pytest.raises(InvalidParamsError):
                build_crr_barrier_tree(params)
        for ambiguity in [(x, 0.6), (0.4, x)]:
            with pytest.raises(InvalidParamsError, match="ambiguity"):
                build_crr_barrier_tree(CrrParams(**CRR_FIELDS, ambiguity=ambiguity))


def reference_optimal_prior(solution, tree, priors, v):
    """The earlier route to z*: u* rebuilt as a first-entry rule, a selection
    over every decision node, then ``density_process``."""
    if not solution.attained:
        raise UnattainedSupremumError("unattained", supremum=solution.R[v])
    rule = first_entry_rule(tree, lambda n: n in solution.stop_region, v)
    continuation = continuation_region(rule, tree)
    selection = {}
    for n in tree.decision_nodes(tree.root):
        if n not in continuation:
            selection[n] = 0
        elif priors.mode == "closure":
            selection[n] = solution.argmax_extreme[n]
        else:
            extremes = priors.extremes(n)
            child_values = [solution.R[c] for c in tree.children(n)]
            values = [step(tree.q_vector(n), d, child_values) for d in extremes]
            best = max(values)
            tie_tol = snell.TIE_TOL * max(1.0, abs(best))
            winners = [i for i, val in enumerate(values) if val >= best - tie_tol]
            weight = 1.0 / len(winners)
            selection[n] = tuple(
                weight if i in winners else 0.0 for i in range(len(extremes))
            )
    return density_process(tree, priors, selection)


def optimal_pair_models():
    """(name, tree, payoff, priors): the fixtures in both modes, tt1 with a
    -0.0 ratio component, seeded random instances and the CRR put."""
    for name in ("tt1", "tt3", "tt4"):
        cfg = fixtures.load(name)
        for mode in ("closure", "equivalent"):
            priors = PriorSet(extreme_points=cfg.priors.extreme_points, mode=mode)
            yield f"{name}-{mode}", cfg.tree, cfg.payoff, priors
    tt1 = fixtures.load("tt1")
    negative_zero = PriorSet.from_node_extremes({"r": [[2.0, -0.0], [0.0, 2.0]]})
    yield "tt1-negative-zero", tt1.tree, tt1.payoff, negative_zero
    for seed in range(40):
        for single in (False, True):
            yield (f"random{seed}-{single}", *random_instance(seed, single_prior=single))
    for steps in range(2, 9):
        params = CrrParams(**{**CRR_FIELDS, "steps": steps}, ambiguity=(0.4, 0.6))
        tree = build_crr_barrier_tree(params)
        for mode in ("closure", "equivalent"):
            priors = drift_ambiguity_priors(tree, params, mode=mode)
            yield f"crr{steps}-{mode}", tree, knockin_payoff(tree, params), priors


def coverage_edge_model():
    """Y(u) = Y(d) = 1 + c exceeds Y(r) = 1 by slightly more than the
    tolerance allows, so r is outside the stop region."""
    c = 2.0**-30
    tree = EventTree(horizon=1, records=[
        NodeRecord(id="r", time=0),
        NodeRecord(id="u", time=1, parent="r", q=0.5),
        NodeRecord(id="d", time=1, parent="r", q=0.5),
    ])
    payoff = AdaptedFamily({"r": 1.0, "u": 1.0 + c, "d": 1.0 + c})
    priors = PriorSet.from_node_extremes({"r": [[1.0, 1.0]]})
    return tree, payoff, priors, c / (1 + c) * (1 - 1e-9)


def hexed(process):
    ratio = {n: tuple(x.hex() for x in r) for n, r in process.ratio.items()}
    return ratio, {n: x.hex() for n, x in process.z.items()}


class TestOptimalPairFromStopRegion:
    def test_z_star_matches_reference_bit_for_bit(self):
        compared = 0
        for name, tree, payoff, priors in optimal_pair_models():
            sol = solve(tree, payoff, priors)
            for v in tree.nodes():
                try:
                    expected = reference_optimal_prior(sol, tree, priors, v)
                except UnattainedSupremumError:
                    with pytest.raises(UnattainedSupremumError):
                        extract_optimal_prior(sol, v)
                    continue
                got = extract_optimal_prior(sol, v)
                if expected.z[v] == 0.0:
                    # the earlier route left v without mass above it
                    assert got.z[v] > 0.0, (name, v)
                    continue
                assert hexed(got) == hexed(expected), (name, v)
                compared += 1
        assert compared > 2000

    def test_negative_zero_component_comes_out_as_zero(self, tt1):
        priors = PriorSet.from_node_extremes({"r": [[2.0, -0.0], [0.0, 2.0]]})
        sol = solve(tt1.tree, tt1.payoff, priors)
        z = extract_optimal_prior(sol, "r")
        assert z.ratio["r"][1].hex() == "0x0.0p+0"
        assert z.z["d"].hex() == "0x0.0p+0"

    def test_u_star_is_first_entry_into_stop_region(self):
        tree, payoff, priors, tol = coverage_edge_model()
        models = [("edge", tree, payoff, priors, tol)]
        models += [(*model, DEFAULT_TOL) for model in optimal_pair_models()]
        for name, tree, payoff, priors, tol in models:
            sol = solve(tree, payoff, priors, tol=tol)
            for v in tree.nodes():
                entry = first_entry_rule(tree, lambda n: n in sol.stop_region, v)
                assert u_alpha(sol, v, 1.0).cut(tree) == entry.cut(tree), (name, v)

    def test_coverage_edge_stops_where_the_stop_region_does(self):
        tree, payoff, priors, tol = coverage_edge_model()
        sol = solve(tree, payoff, priors, tol=tol)
        assert sol.stop_region == frozenset({"u", "d"})
        rule = u_star(sol, "r")
        assert rule.cut(tree) == frozenset({"u", "d"})
        z = extract_optimal_prior(sol, "r")
        assert check_optimality_certificate(sol, rule, z).optimal

    @pytest.mark.parametrize("mode", ["closure", "equivalent"])
    def test_extract_builds_no_selection(self, tt4, monkeypatch, mode):
        calls = []

        def counted(fn):
            def wrapper(*args, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)
            return wrapper

        for module, attr in (
            (priors_module, "density_process"),
            (snell, "first_entry_rule"),
            (filtration, "first_entry_rule"),
        ):
            monkeypatch.setattr(module, attr, counted(getattr(module, attr)))
        priors = PriorSet(extreme_points=tt4.priors.extreme_points, mode=mode)
        sol = solve(tt4.tree, tt4.payoff, priors)
        for v in tt4.tree.nodes():
            extract_optimal_prior(sol, v)
        assert calls == []

    def test_no_model_charging_the_evaluation_node_is_named(self, tt1):
        priors = PriorSet.from_node_extremes({"r": [[2.0, 0.0]]})
        sol = solve(tt1.tree, tt1.payoff, priors)
        with pytest.raises(UndefinedConditionalError, match="'d'.*'r'"):
            extract_optimal_prior(sol, "d")
