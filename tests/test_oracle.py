import pytest

from robust_snell import (
    AdaptedFamily,
    EventTree,
    NodeRecord,
    PriorSet,
    SizeGuardError,
    brute_force_strict_value,
    brute_force_value,
    crosscheck,
    density_process,
    enumerate_rules,
    expected_value_q,
    extreme_selections,
    gamma,
    random_instance,
)


class TestBruteForce:
    def test_tt1_value_and_argmax(self, tt1):
        result = brute_force_value(tt1.tree, tt1.payoff, tt1.priors, "r")
        assert result.value == pytest.approx(1.5, abs=1e-12)
        assert result.best_rule.cut(tt1.tree) == frozenset({"u", "d"})
        assert result.best_selection == {"r": 0}

    def test_tt4_value(self, tt4):
        result = brute_force_value(tt4.tree, tt4.payoff, tt4.priors, "r")
        assert result.value == pytest.approx(2.625, abs=1e-12)

    def test_tt4_single_prior_by_hand(self, tt4_single):
        # enumerating the 5 rules under the reference measure gives
        # max(1, 1.5, 1.25, 1.75, 1.5) = 1.75, attained by riding the up
        # branch to the horizon and stopping at the down node
        tree, payoff, priors = tt4_single
        result = brute_force_value(tree, payoff, priors, "r")
        assert result.value == pytest.approx(1.75, abs=1e-12)
        assert result.best_rule.cut(tree) == frozenset({"uu", "ud", "d"})

    def test_max_dominates_every_pair(self, tt4):
        best = brute_force_value(tt4.tree, tt4.payoff, tt4.priors, "r").value
        for rule in enumerate_rules(tt4.tree, "r"):
            for sel in extreme_selections(tt4.tree, tt4.priors):
                z = density_process(tt4.tree, tt4.priors, sel)
                assert gamma(tt4.tree, tt4.payoff, z, rule, "r") <= best + 1e-12

    def test_single_prior_reduces_to_classical_enumeration(self, tt4_single):
        tree, payoff, priors = tt4_single
        classical = max(
            expected_value_q(tree, payoff, rule, "r")
            for rule in enumerate_rules(tree, "r")
        )
        robust = brute_force_value(tree, payoff, priors, "r").value
        assert robust == pytest.approx(classical, abs=1e-14)


def full_binary_tree(depth):
    """Full binary tree with ids from the root "r" by appending u or d."""
    records = [NodeRecord(id="r", time=0)]
    level = ["r"]
    for t in range(1, depth + 1):
        level = [
            f"{'' if n == 'r' else n}{move}" for n in level for move in "ud"
        ]
        records += [
            NodeRecord(id=c, time=t, parent="r" if t == 1 else c[:-1], q=0.5)
            for c in level
        ]
    return EventTree(horizon=depth, records=records)


def test_selection_guard_still_raises():
    # 2 extremes at each of the 15 decision nodes: 2**15 = 32,768 selections
    tree = full_binary_tree(4)
    priors = PriorSet.constant(tree, [(0.5, 1.5), (1.5, 0.5)])
    payoff = AdaptedFamily.constant(tree, 1.0)
    with pytest.raises(SizeGuardError, match="32768 extreme selections"):
        brute_force_value(tree, payoff, priors, "r")


class TestStrictBruteForce:
    def test_tt1(self, tt1):
        assert brute_force_strict_value(tt1.tree, tt1.payoff, tt1.priors, "r") == pytest.approx(1.5)

    def test_tt4(self, tt4):
        assert brute_force_strict_value(tt4.tree, tt4.payoff, tt4.priors, "r") == pytest.approx(2.625)

    def test_terminal_node_returns_reward(self, tt4):
        for leaf in tt4.tree.leaves():
            value = brute_force_strict_value(tt4.tree, tt4.payoff, tt4.priors, leaf)
            assert value == pytest.approx(tt4.payoff[leaf])

    def test_strict_below_plain(self, tt4_single):
        tree, payoff, priors = tt4_single
        for n in tree.nodes():
            strict = brute_force_strict_value(tree, payoff, priors, n)
            plain = brute_force_value(tree, payoff, priors, n).value
            assert strict <= plain + 1e-12


class TestCrosscheck:
    def test_fixtures_are_exact(self, tt1, tt4):
        assert crosscheck(tt1.tree, tt1.payoff, tt1.priors).max_deviation == 0.0
        assert crosscheck(tt4.tree, tt4.payoff, tt4.priors).max_deviation == 0.0

    def test_seeded_random_instances(self):
        for seed in range(10):
            tree, payoff, priors = random_instance(seed)
            report = crosscheck(tree, payoff, priors)
            assert report.max_deviation < 1e-9, f"seed {seed}: {report}"
