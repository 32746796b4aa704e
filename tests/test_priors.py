import tracemalloc

import pytest

from robust_snell import (
    DensityProcess,
    EventTree,
    InvalidSelectionError,
    PriorSet,
    SizeGuardError,
    UndefinedConditionalError,
    bayes_conditional,
    build_crr_barrier_tree,
    density_process,
    drift_ambiguity_priors,
    random_instance,
    stop_at_time_rule,
)
from reference import (
    NotMeasurableError,
    convex_combine,
    expected_value_q,
    extreme_selections,
    leaves_below,
    paste,
    reference_process,
    validate_density_process,
    validate_prior_set,
)


class TestValidatePriorSet:
    def test_fixture_is_clean(self, tt1):
        assert validate_prior_set(tt1.tree, tt1.priors) == []

    def test_martingale_sum_violation(self, tt1):
        priors = PriorSet.from_node_extremes({"r": [[1.6, 0.5], [0.5, 1.5]]})
        report = validate_prior_set(tt1.tree, priors)
        assert any("martingale sum 1.05 ≠ 1" in msg for msg in report)

    def test_equivalent_mode_rejects_zero_component(self, tt3):
        priors = PriorSet.from_node_extremes(
            {"r": [[2.0, 1.0, 0.0]]}, mode="equivalent"
        )
        report = validate_prior_set(tt3.tree, priors)
        assert any("nonpositive density component" in msg for msg in report)

    def test_closure_mode_allows_zero_but_not_negative(self, tt3):
        ok = PriorSet.from_node_extremes({"r": [[2.0, 1.0, 0.0]]})
        assert validate_prior_set(tt3.tree, ok) == []
        bad = PriorSet.from_node_extremes({"r": [[3.2, 1.0, -0.2]]})
        report = validate_prior_set(tt3.tree, bad)
        assert any("negative density component" in msg for msg in report)

    def test_missing_node(self, tt4):
        priors = PriorSet.from_node_extremes({"r": [[1.0, 1.0]]})
        report = validate_prior_set(tt4.tree, priors)
        assert any("no extreme points" in msg for msg in report)


class TestDensityProcess:
    def test_midpoint_weights_recover_reference(self, tt1):
        z = density_process(tt1.tree, tt1.priors, {"r": (0.5, 0.5)})
        assert z.z == {"r": 1.0, "u": 1.0, "d": 1.0}

    def test_pure_selection(self, tt1):
        z = density_process(tt1.tree, tt1.priors, {"r": 0})
        assert z.z["u"] == pytest.approx(1.5)
        assert z.z["d"] == pytest.approx(0.5)

    def test_cumulative_products(self, tt4):
        z = density_process(tt4.tree, tt4.priors, {"r": 1, "u": 1, "d": 1})
        assert z.z["uu"] == pytest.approx(2.25)
        assert z.z["ud"] == pytest.approx(0.75)
        assert z.z["du"] == pytest.approx(0.75)
        assert z.z["dd"] == pytest.approx(0.25)

    def test_every_selection_yields_valid_process(self, tt4):
        for sel in extreme_selections(tt4.tree, tt4.priors):
            z = density_process(tt4.tree, tt4.priors, sel)
            assert validate_density_process(tt4.tree, z) == []

    def test_bad_coefficients(self, tt1):
        with pytest.raises(InvalidSelectionError):
            density_process(tt1.tree, tt1.priors, {"r": (0.7, 0.7)})
        with pytest.raises(InvalidSelectionError):
            density_process(tt1.tree, tt1.priors, {"r": (-0.5, 1.5)})
        with pytest.raises(InvalidSelectionError):
            density_process(tt1.tree, tt1.priors, {"r": 5})
        for entry in (True, 0.0, None, "ab", "01", [0.5, float("nan")], ["0.5", 0.5]):
            with pytest.raises(InvalidSelectionError):
                density_process(tt1.tree, tt1.priors, {"r": entry})


def time_sorted_z(tree, ratio):
    """z as ``from_ratios`` computed it by sorting every node by time."""
    ratios = {n: tuple(float(x) for x in r) for n, r in ratio.items()}
    z = {tree.root: 1.0}
    for n in tree.nodes_by_time():
        if tree.is_terminal(n):
            continue
        for c, rc in zip(tree.children(n), ratios[n]):
            z[c] = z[n] * rc
    return ratios, z


def instances(tt1, tt3, tt4, crr_put):
    """(tree, priors) for the fixtures, 40 random trees and CRR at 2-8 steps."""
    yield from ((f.tree, f.priors) for f in (tt1, tt3, tt4))
    for seed in range(40):
        tree, _, priors = random_instance(seed)
        yield tree, priors
    for steps in range(2, 9):
        tree = build_crr_barrier_tree(crr_put._replace(steps=steps))
        yield tree, drift_ambiguity_priors(tree, crr_put)


class TestFromRatios:
    def test_preorder_walk_matches_time_sorted_bits(self, tt1, tt3, tt4, crr_put):
        for tree, priors in instances(tt1, tt3, tt4, crr_put):
            selection = {
                n: i % len(priors.extremes(n))
                for i, n in enumerate(tree.decision_nodes(tree.root))
            }
            process = density_process(tree, priors, selection)
            ratios, z = time_sorted_z(tree, process.ratio)
            assert {n: v.hex() for n, v in process.z.items()} == {
                n: v.hex() for n, v in z.items()
            }
            assert {n: [x.hex() for x in r] for n, r in process.ratio.items()} == {
                n: [x.hex() for x in r] for n, r in ratios.items()
            }

    def test_never_sorts_by_time(self, tt4, monkeypatch):
        calls = []
        sort = EventTree.nodes_by_time

        def counted(tree, *args, **kwargs):
            calls.append(args)
            return sort(tree, *args, **kwargs)

        monkeypatch.setattr(EventTree, "nodes_by_time", counted)
        reference_process(tt4.tree)
        density_process(tt4.tree, tt4.priors, {"r": 1, "d": (0.25, 0.75)})
        assert calls == []


class TestConstant:
    def test_one_shared_list(self, tt4):
        priors = PriorSet.constant(tt4.tree, [(1.5, 0.5), (0.5, 1.5)])
        assert list(priors.extreme_points) == list(tt4.tree.decision_nodes("r"))
        assert len({id(ds) for ds in priors.extreme_points.values()}) == 1

    def test_crr_priors_bytes_per_decision_node(self, crr_put):
        tree = build_crr_barrier_tree(crr_put)
        tracemalloc.start()
        try:
            priors = drift_ambiguity_priors(tree, crr_put)
            size = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert size / len(priors.extreme_points) <= 50


class TestPaste:
    def test_empty_event_keeps_first(self, tt4):
        z1 = density_process(tt4.tree, tt4.priors, {"r": 1, "u": 1, "d": 1})
        z2 = density_process(tt4.tree, tt4.priors, {"r": 0, "u": 0, "d": 0})
        pasted = paste(tt4.tree, z1, z2, 1, [])
        assert pasted.ratio == z1.ratio

    def test_full_event_at_root_gives_second(self, tt4):
        z1 = density_process(tt4.tree, tt4.priors, {"r": 1, "u": 1, "d": 1})
        z2 = density_process(tt4.tree, tt4.priors, {"r": 0, "u": 0, "d": 0})
        pasted = paste(tt4.tree, z1, z2, 0, ["r"])
        assert pasted.ratio == z2.ratio

    def test_paste_on_up_event(self, tt4):
        z1 = density_process(tt4.tree, tt4.priors, {"r": 1, "u": 1, "d": 1})
        z2 = density_process(tt4.tree, tt4.priors, {"r": 0, "u": 0, "d": 0})
        pasted = paste(tt4.tree, z1, z2, 1, ["u"])
        assert pasted.z["uu"] == pytest.approx(0.75)
        assert pasted.z["ud"] == pytest.approx(2.25)
        assert pasted.z["du"] == pytest.approx(0.75)
        assert pasted.z["dd"] == pytest.approx(0.25)
        terminal_mean = sum(
            tt4.tree.edge_q(leaf) * tt4.tree.edge_q(tt4.tree.parent(leaf)) * pasted.z[leaf]
            for leaf in leaves_below(tt4.tree, tt4.tree.root)
        )
        assert terminal_mean == pytest.approx(1.0, abs=1e-12)
        # conditional ratios from the pasting time onward follow the event
        assert pasted.ratio["u"] == z2.ratio["u"]
        assert pasted.ratio["d"] == z1.ratio["d"]

    def test_not_measurable(self, tt4):
        z1 = reference_process(tt4.tree)
        with pytest.raises(NotMeasurableError):
            paste(tt4.tree, z1, z1, 1, ["uu"])


class TestConvexCombine:
    def test_endpoints(self, tt1):
        z1 = density_process(tt1.tree, tt1.priors, {"r": 0})
        z2 = density_process(tt1.tree, tt1.priors, {"r": 1})
        assert convex_combine(tt1.tree, z1, z2, 1.0).z == z1.z
        assert convex_combine(tt1.tree, z1, z2, 0.0).z == z2.z

    def test_midpoint_is_reference(self, tt1):
        z1 = density_process(tt1.tree, tt1.priors, {"r": 0})
        z2 = density_process(tt1.tree, tt1.priors, {"r": 1})
        mid = convex_combine(tt1.tree, z1, z2, 0.5)
        assert mid.z == {"r": 1.0, "u": 1.0, "d": 1.0}

    def test_blend_is_valid_process(self, tt4):
        z1 = density_process(tt4.tree, tt4.priors, {"r": 0, "u": 1, "d": 0})
        z2 = density_process(tt4.tree, tt4.priors, {"r": 1, "u": 0, "d": 1})
        blend = convex_combine(tt4.tree, z1, z2, 0.3)
        assert validate_density_process(tt4.tree, blend) == []
        for n in tt4.tree.nodes():
            assert blend.z[n] == pytest.approx(0.3 * z1.z[n] + 0.7 * z2.z[n])

    def test_weight_range(self, tt1):
        z = reference_process(tt1.tree)
        with pytest.raises(InvalidSelectionError):
            convex_combine(tt1.tree, z, z, 1.5)


class TestBayesConditional:
    def test_reference_reduces_to_plain_expectation(self, tt1):
        rule = stop_at_time_rule(tt1.tree, 1, "r")
        z = reference_process(tt1.tree)
        lhs = bayes_conditional(tt1.tree, z, tt1.payoff, rule, "r")
        rhs = expected_value_q(tt1.tree, tt1.payoff, rule, "r")
        assert lhs == pytest.approx(rhs) == pytest.approx(1.0)

    def test_tilted_one_step(self, tt1):
        rule = stop_at_time_rule(tt1.tree, 1, "r")
        z = density_process(tt1.tree, tt1.priors, {"r": 0})
        assert bayes_conditional(tt1.tree, z, tt1.payoff, rule, "r") == pytest.approx(1.5)

    def test_two_step_weighted_leaves(self, tt4):
        rule = stop_at_time_rule(tt4.tree, 2, "r")
        z = density_process(tt4.tree, tt4.priors, {"r": 0, "u": 0, "d": 0})
        assert bayes_conditional(tt4.tree, z, tt4.payoff, rule, "r") == pytest.approx(2.625)

    def test_restriction_property(self, tt4):
        # two processes differing only strictly before the evaluation node
        za = density_process(tt4.tree, tt4.priors, {"r": 0, "u": 1, "d": 1})
        zb = density_process(tt4.tree, tt4.priors, {"r": 1, "u": 1, "d": 1})
        rule = stop_at_time_rule(tt4.tree, 2, "u")
        va = bayes_conditional(tt4.tree, za, tt4.payoff, rule, "u")
        vb = bayes_conditional(tt4.tree, zb, tt4.payoff, rule, "u")
        assert va == pytest.approx(vb, abs=1e-14)

    def test_zero_mass_atom_is_rejected(self, tt4):
        priors = PriorSet.constant(tt4.tree, [(0.0, 2.0)])
        z = density_process(tt4.tree, priors, {})
        rule = stop_at_time_rule(tt4.tree, 2, "u")
        with pytest.raises(UndefinedConditionalError):
            bayes_conditional(tt4.tree, z, tt4.payoff, rule, "u")


class TestExtremeSelections:
    def test_counts(self, tt1, tt3, tt4):
        assert len(extreme_selections(tt1.tree, tt1.priors)) == 2
        assert len(extreme_selections(tt3.tree, tt3.priors)) == 2
        assert len(extreme_selections(tt4.tree, tt4.priors)) == 8

    def test_size_guard(self, tt4):
        many = [(1.0, 1.0)] * 17
        priors = PriorSet.constant(tt4.tree, many)
        with pytest.raises(SizeGuardError):
            extreme_selections(tt4.tree, priors)

    def test_linear_objective_attained_at_extreme(self, tt1):
        # closure-mode supremum over the hull vs a dense grid of mixtures
        objective = {"u": 2.0, "d": 0.0}
        q = tt1.tree.q_vector("r")
        children = tt1.tree.children("r")
        extreme_best = max(
            sum(qc * dc * objective[c] for qc, dc, c in zip(q, d, children))
            for d in tt1.priors.extremes("r")
        )
        grid_best = float("-inf")
        for i in range(101):
            w = i / 100.0
            z = density_process(tt1.tree, tt1.priors, {"r": (w, 1.0 - w)})
            value = sum(
                qc * rc * objective[c]
                for qc, rc, c in zip(q, z.ratio["r"], children)
            )
            grid_best = max(grid_best, value)
        assert grid_best <= extreme_best + 1e-12
        assert extreme_best == pytest.approx(grid_best, abs=1e-9)
