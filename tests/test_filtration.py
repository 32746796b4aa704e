import itertools
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robust_snell import (
    AdaptedFamily,
    EventTree,
    FloorMismatchError,
    InvalidFamilyError,
    InvalidTreeError,
    NodeRecord,
    SizeGuardError,
    build_crr_barrier_tree,
    count_rules,
    first_entry_rule,
    random_instance,
    stop_at_time_rule,
    validate_tree,
)
from reference import (
    enumerate_rules,
    expected_value_q,
    leaves_below,
    max_rule,
    min_rule,
    step_expectation_q,
    validate_rule,
)


def two_leaf_tree(q_up=0.5, q_down=0.5):
    return EventTree(
        horizon=1,
        records=[
            NodeRecord(id="r", time=0),
            NodeRecord(id="u", time=1, parent="r", q=q_up),
            NodeRecord(id="d", time=1, parent="r", q=q_down),
        ],
    )


class TestStoredFacts:
    """The tree stores each node's facts once and hands them out as stored."""

    @pytest.mark.parametrize("accessor", ["children", "time", "parent", "q_vector"])
    def test_unknown_id_is_named(self, tt4, accessor):
        with pytest.raises(InvalidTreeError, match="unknown node 'zz'"):
            getattr(tt4.tree, accessor)("zz")

    def test_children_is_the_stored_tuple(self, tt4):
        tree = tt4.tree
        for n in tree.nodes():
            assert isinstance(tree.children(n), tuple)
            assert tree.children(n) is tree.children(n)
        for leaf in tree.leaves():
            assert tree.children(leaf) == ()

    def test_node_record_has_no_instance_dict(self):
        assert not hasattr(NodeRecord(id="r", time=0), "__dict__")

    def test_crr_tree_bytes_per_node(self, crr_put):
        tracemalloc.start()
        try:
            tree = build_crr_barrier_tree(crr_put)
            size = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert size / len(tree.nodes()) <= 480

    def test_construction_transient_bytes_per_node(self, crr_put):
        # what construction allocates beyond what the tree keeps: child ids
        # are grouped by parent, so no leaf gets a list
        built = build_crr_barrier_tree(crr_put)
        records = [built.node(n) for n in built.nodes()]
        tracemalloc.start()
        try:
            tree = EventTree(horizon=built.horizon, records=records)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert tree.children(tree.root) == built.children(built.root)
        assert (peak - kept) / len(records) <= 40


class TestValidateTree:
    def test_valid_fixture_is_clean(self, tt1):
        assert validate_tree(tt1.tree) == []

    def test_probability_sum_violation(self):
        tree = two_leaf_tree(0.5, 0.4)
        report = validate_tree(tree)
        assert any("probabilities sum 0.9 ≠ 1" in msg for msg in report)

    def test_zero_probability_branch(self):
        tree = two_leaf_tree(1.0, 0.0)
        report = validate_tree(tree)
        assert any("zero-probability branch" in msg for msg in report)

    def test_leaf_before_horizon(self):
        tree = EventTree(
            horizon=2,
            records=[
                NodeRecord(id="r", time=0),
                NodeRecord(id="u", time=1, parent="r", q=0.5),
                NodeRecord(id="d", time=1, parent="r", q=0.5),
                NodeRecord(id="uu", time=2, parent="u", q=1.0),
            ],
        )
        report = validate_tree(tree)
        assert any("leaf at time 1 before horizon" in msg for msg in report)

    def test_child_time_gap(self):
        tree = EventTree(
            horizon=2,
            records=[
                NodeRecord(id="r", time=0),
                NodeRecord(id="x", time=2, parent="r", q=1.0),
            ],
        )
        report = validate_tree(tree)
        assert any("time 2 != parent time + 1" in msg for msg in report)


class TestStepExpectation:
    def test_hand_sum(self, tt1):
        assert step_expectation_q(tt1.tree, {"u": 2.0, "d": 0.0}, "r") == pytest.approx(1.0)

    def test_constant_values(self, tt4):
        for n in tt4.tree.decision_nodes("r"):
            values = {c: 3.7 for c in tt4.tree.children(n)}
            assert step_expectation_q(tt4.tree, values, n) == pytest.approx(3.7)

    def test_three_children(self, tt3):
        values = {"a": 2.0, "b": 0.0, "c": 1.0}
        assert step_expectation_q(tt3.tree, values, "r") == pytest.approx(1.0)

    def test_missing_child(self, tt1):
        with pytest.raises(InvalidFamilyError):
            step_expectation_q(tt1.tree, {"u": 2.0}, "r")


def cut_weighted_sum(tree, family, rule, v):
    """Independent implementation: probability-weighted sum over the cut."""
    total = 0.0
    for stop in rule.cut(tree):
        prob = 1.0
        for node in tree.path(v, stop)[1:]:
            prob *= tree.edge_q(node)
        total += prob * family[stop]
    return total


class TestExpectedValue:
    def test_stop_at_horizon(self, tt1):
        rule = stop_at_time_rule(tt1.tree, 1, "r")
        assert expected_value_q(tt1.tree, tt1.payoff, rule, "r") == pytest.approx(1.0)

    def test_stop_at_root(self, tt1):
        rule = stop_at_time_rule(tt1.tree, 0, "r")
        assert expected_value_q(tt1.tree, tt1.payoff, rule, "r") == pytest.approx(1.0)

    def test_tt4_stop_at_two(self, tt4):
        rule = stop_at_time_rule(tt4.tree, 2, "r")
        assert expected_value_q(tt4.tree, tt4.payoff, rule, "r") == pytest.approx(1.5)

    def test_floor_mismatch(self, tt4):
        rule = stop_at_time_rule(tt4.tree, 2, "r")
        with pytest.raises(FloorMismatchError):
            expected_value_q(tt4.tree, tt4.payoff, rule, "u")

    def test_matches_cut_weighted_sum_and_is_linear(self, tt4):
        tree, payoff = tt4.tree, tt4.payoff
        other = AdaptedFamily({n: 1.0 + 0.1 * i for i, n in enumerate(tree.nodes())})
        for rule in enumerate_rules(tree, "r"):
            a = expected_value_q(tree, payoff, rule, "r")
            assert a == pytest.approx(cut_weighted_sum(tree, payoff, rule, "r"), abs=1e-12)
            combo = AdaptedFamily(
                {n: 2.0 * payoff[n] + 3.0 * other[n] for n in tree.nodes()}
            )
            lhs = expected_value_q(tree, combo, rule, "r")
            rhs = 2.0 * a + 3.0 * expected_value_q(tree, other, rule, "r")
            assert lhs == pytest.approx(rhs, abs=1e-12)


class TestRuleAlgebra:
    def test_min_idempotent(self, tt4):
        for rule in enumerate_rules(tt4.tree, "r"):
            assert min_rule(tt4.tree, rule, rule).cut(tt4.tree) == rule.cut(tt4.tree)

    def test_min_of_time_rules(self, tt4):
        r1 = stop_at_time_rule(tt4.tree, 1, "r")
        r2 = stop_at_time_rule(tt4.tree, 2, "r")
        assert min_rule(tt4.tree, r1, r2).cut(tt4.tree) == r1.cut(tt4.tree)

    def test_max_mixed_cuts(self, tt4):
        tree = tt4.tree
        # stop at the up node, ride the down branch to the horizon
        r1 = first_entry_rule(tree, lambda n: n == "u", "r")
        r2 = stop_at_time_rule(tree, 2, "r")
        merged = max_rule(tree, r1, r2)
        assert merged.cut(tree) == frozenset({"uu", "ud", "du", "dd"})

    def test_lattice_laws_all_pairs(self, tt4):
        tree = tt4.tree
        rules = enumerate_rules(tree, "r")
        leaves = leaves_below(tree, "r")
        for r1, r2 in itertools.product(rules, rules):
            lo = min_rule(tree, r1, r2)
            hi = max_rule(tree, r1, r2)
            assert lo.cut(tree) == min_rule(tree, r2, r1).cut(tree)
            assert hi.cut(tree) == max_rule(tree, r2, r1).cut(tree)
            for leaf in leaves:
                t1 = r1.stop_time(tree, leaf)
                t2 = r2.stop_time(tree, leaf)
                assert lo.stop_time(tree, leaf) == min(t1, t2)
                assert hi.stop_time(tree, leaf) == max(t1, t2)

    def test_associativity_on_triples(self, tt4):
        tree = tt4.tree
        rules = enumerate_rules(tree, "r")
        for r1, r2, r3 in itertools.islice(itertools.product(rules, repeat=3), 60):
            left = min_rule(tree, min_rule(tree, r1, r2), r3)
            right = min_rule(tree, r1, min_rule(tree, r2, r3))
            assert left.cut(tree) == right.cut(tree)

    def test_floor_mismatch(self, tt4):
        r1 = stop_at_time_rule(tt4.tree, 2, "r")
        r2 = stop_at_time_rule(tt4.tree, 2, "u")
        with pytest.raises(FloorMismatchError):
            min_rule(tt4.tree, r1, r2)


class TestFirstEntry:
    def test_predicate_everywhere(self, tt4):
        rule = first_entry_rule(tt4.tree, lambda n: True, "r")
        assert rule.cut(tt4.tree) == frozenset({"r"})

    def test_predicate_nowhere(self, tt4):
        rule = first_entry_rule(tt4.tree, lambda n: False, "r")
        assert rule.cut(tt4.tree) == frozenset({"uu", "ud", "du", "dd"})

    def test_anchored_below_root(self, tt4):
        rule = first_entry_rule(tt4.tree, lambda n: False, "u")
        assert rule.cut(tt4.tree) == frozenset({"uu", "ud"})


class TestRuleValidation:
    def test_strict_rule_may_not_stop_at_floor(self, tt4):
        from robust_snell import StoppingRule

        rule = StoppingRule(labels={"r": True}, floor="r", strict=True)
        assert any(
            "strict rule stops" in msg for msg in validate_rule(tt4.tree, rule)
        )

    def test_path_without_stop_is_flagged(self, tt4):
        from robust_snell import StoppingRule

        rule = StoppingRule(
            labels={"r": False, "u": True, "d": False, "du": True, "dd": False},
            floor="r",
        )
        report = validate_rule(tt4.tree, rule)
        assert any("never stops" in msg for msg in report)

    def test_enumerated_and_derived_rules_are_valid(self, tt4):
        sub_rules = enumerate_rules(tt4.tree, "u", strict=True)
        for rule in sub_rules:
            assert validate_rule(tt4.tree, rule) == []


class TestEnumeration:
    def test_tt1_counts(self, tt1):
        rules = enumerate_rules(tt1.tree, "r")
        assert len(rules) == 2
        assert len(enumerate_rules(tt1.tree, "r", strict=True)) == 1

    def test_tt4_count(self, tt4):
        assert len(enumerate_rules(tt4.tree, "r")) == 5

    def test_rules_are_unique_and_valid(self, tt4):
        tree = tt4.tree
        rules = enumerate_rules(tree, "r")
        cuts = {rule.cut(tree) for rule in rules}
        assert len(cuts) == len(rules)
        for rule in rules:
            assert validate_rule(tree, rule) == []

    def test_strict_rules_continue_at_floor(self, tt4):
        for rule in enumerate_rules(tt4.tree, "r", strict=True):
            assert not rule.stops_at("r")

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_count_matches_closed_form(self, seed):
        tree, _, _ = random_instance(seed)
        assert len(enumerate_rules(tree, tree.root)) == count_rules(tree, tree.root)
        assert len(enumerate_rules(tree, tree.root, strict=True)) == count_rules(
            tree, tree.root, strict=True
        )

    def test_size_guard(self):
        records = [NodeRecord(id="n0", time=0)]
        frontier = ["n0"]
        counter = 1
        for t in range(1, 6):
            nxt = []
            for parent in frontier:
                for _ in range(2):
                    nid = f"n{counter}"
                    counter += 1
                    records.append(NodeRecord(id=nid, time=t, parent=parent, q=0.5))
                    nxt.append(nid)
            frontier = nxt
        tree = EventTree(horizon=5, records=records)
        with pytest.raises(SizeGuardError):
            enumerate_rules(tree, "n0")
