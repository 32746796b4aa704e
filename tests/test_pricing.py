import math

import pytest

from robust_snell import (
    CrrParams,
    InvalidParamsError,
    MissingStateError,
    build_crr_barrier_tree,
    drift_ambiguity_priors,
    knockin_payoff,
    price,
    random_crr_params,
    solve,
    validate_tree,
)
from robust_snell.filtration import EventTree, NodeRecord
from reference import leaves_below, path, vanilla_put_payoff


BASE = dict(S0=4.0, up=2.0, down=0.5, steps=2, rate=0.0, K=5.0, q_up=0.5)


class TestBuildTree:
    def test_tree_is_valid(self):
        tree = build_crr_barrier_tree(CrrParams(H=4.0, **BASE))
        assert validate_tree(tree) == []
        assert tree.nodes() == ("r", "u", "d", "uu", "ud", "du", "dd")

    def test_path_minimum_sets_hit(self):
        tree = build_crr_barrier_tree(CrrParams(H=2.0, **BASE))
        hits = {n for n in tree.nodes() if tree.node(n).states["hit"] == 1.0}
        assert hits == {"d", "du", "dd"}

    def test_barrier_above_spot_knocks_in_immediately(self):
        tree = build_crr_barrier_tree(CrrParams(H=4.0, **BASE))
        assert all(tree.node(n).states["hit"] == 1.0 for n in tree.nodes())

    def test_unreachable_barrier_never_hits(self):
        tree = build_crr_barrier_tree(CrrParams(H=0.5, **BASE))
        assert all(tree.node(n).states["hit"] == 0.0 for n in tree.nodes())

    def test_hit_is_monotone_along_paths(self):
        for seed in range(10):
            params = random_crr_params(seed)
            tree = build_crr_barrier_tree(params)
            for leaf in leaves_below(tree, tree.root):
                flags = [
                    tree.node(n).states["hit"] for n in path(tree, tree.root, leaf)
                ]
                assert flags == sorted(flags)

    def test_crossed_above_direction(self):
        tree = build_crr_barrier_tree(CrrParams(H=8.0, direction="crossed_above", **BASE))
        hits = {n for n in tree.nodes() if tree.node(n).states["hit"] == 1.0}
        assert hits == {"u", "uu", "ud"}

    def test_invalid_params(self):
        with pytest.raises(InvalidParamsError):
            build_crr_barrier_tree(CrrParams(S0=-1.0, up=2.0, down=0.5, steps=2, rate=0.0, K=5.0, H=1.0))
        with pytest.raises(InvalidParamsError):
            build_crr_barrier_tree(CrrParams(S0=4.0, up=0.9, down=0.5, steps=2, rate=0.0, K=5.0, H=1.0))

    def test_step_guard(self):
        # the unrolled tree doubles with every step; a config's 1.7e308 steps
        # must be refused before the build, not exhaust memory during it
        params = {**BASE, "steps": int(1.7e308)}
        with pytest.raises(InvalidParamsError, match=r"outside \[1, 20\]"):
            build_crr_barrier_tree(CrrParams(H=4.0, **params))
        assert CrrParams(H=4.0, **{**BASE, "steps": 20}).validate() == []

    def test_overflowing_prices_are_refused(self):
        params = {**BASE, "S0": 1e308}
        with pytest.raises(InvalidParamsError, match="price at node 'u' overflows"):
            build_crr_barrier_tree(CrrParams(H=4.0, **params))


class TestKnockinPayoff:
    def test_undiscounted_hit_put(self):
        params = CrrParams(H=4.0, **BASE)
        tree = build_crr_barrier_tree(params)
        payoff = knockin_payoff(tree, params)
        assert payoff["dd"] == pytest.approx(4.0)
        assert payoff["r"] == pytest.approx(1.0)

    def test_not_knocked_in_pays_nothing(self):
        params = CrrParams(H=0.5, **BASE)
        tree = build_crr_barrier_tree(params)
        payoff = knockin_payoff(tree, params)
        assert all(v == 0.0 for v in payoff.values.values())

    def test_discounting(self):
        params = CrrParams(
            S0=4.0, up=2.0, down=0.5, steps=1, rate=math.log(2.0), K=5.0, H=2.0
        )
        tree = build_crr_barrier_tree(params)
        payoff = knockin_payoff(tree, params)
        # down node: price 2 at the barrier, payoff exp(-ln 2) * 3
        assert payoff["d"] == pytest.approx(1.5)

    def test_missing_states(self):
        tree = EventTree(
            horizon=1,
            records=[
                NodeRecord(id="r", time=0),
                NodeRecord(id="u", time=1, parent="r", q=0.5),
                NodeRecord(id="d", time=1, parent="r", q=0.5),
            ],
        )
        with pytest.raises(MissingStateError):
            knockin_payoff(tree, CrrParams(H=2.0, **BASE))


class TestDriftAmbiguityPriors:
    def test_point_interval_is_reference(self):
        params = CrrParams(H=4.0, ambiguity=(0.5, 0.5), **BASE)
        tree = build_crr_barrier_tree(params)
        priors = drift_ambiguity_priors(tree, params)
        assert priors.extremes("r") == [(1.0, 1.0)]

    def test_interval_ratios(self, tt4):
        params = CrrParams(H=4.0, ambiguity=(0.25, 0.75), **BASE)
        tree = build_crr_barrier_tree(params)
        priors = drift_ambiguity_priors(tree, params)
        assert priors.extremes("r") == [(0.5, 1.5), (1.5, 0.5)]
        # matches the canonical two-period fixture's prior vectors
        assert set(priors.extremes("r")) == set(tt4.priors.extremes("r"))

    def test_bounds_validated(self):
        params = CrrParams(H=4.0, ambiguity=(0.0, 0.75), **BASE)
        with pytest.raises(InvalidParamsError):
            tree = build_crr_barrier_tree(CrrParams(H=4.0, **BASE))
            drift_ambiguity_priors(tree, params)


class TestPrice:
    def test_always_knocked_in_matches_fixture_values(self, tt4):
        result = price(CrrParams(H=4.0, ambiguity=(0.25, 0.75), **BASE))
        assert result.hedging_price == pytest.approx(2.625, abs=1e-12)
        assert set(result.exercise_boundary) == {"uu", "ud", "du", "dd"}
        assert result.node_up_probability == {"r": 0.25, "u": 0.25, "d": 0.25}
        robust_fixture = solve(tt4.tree, tt4.payoff, tt4.priors)
        assert result.hedging_price == pytest.approx(robust_fixture.R["r"], abs=1e-12)

    def test_point_interval_is_classical(self):
        # frozen from the enumeration oracle: the single-prior value is 1.75
        result = price(CrrParams(H=4.0, ambiguity=(0.5, 0.5), **BASE))
        assert result.hedging_price == pytest.approx(1.75, abs=1e-12)

    def test_unreachable_barrier_prices_to_zero(self):
        result = price(CrrParams(H=0.5, ambiguity=(0.25, 0.75), **BASE))
        assert result.hedging_price == 0.0

    def test_monotone_in_ambiguity_width(self):
        widths = [(0.5, 0.5), (0.4, 0.6), (0.25, 0.75)]
        values = [
            price(CrrParams(H=4.0, ambiguity=w, **BASE)).hedging_price for w in widths
        ]
        assert values[0] < values[1] < values[2]

    def test_knockin_below_vanilla_on_seeded_params(self):
        for seed in range(20):
            params = random_crr_params(seed)
            tree = build_crr_barrier_tree(params)
            priors = drift_ambiguity_priors(tree, params)
            knockin = solve(tree, knockin_payoff(tree, params), priors).R[tree.root]
            vanilla = solve(tree, vanilla_put_payoff(tree, params), priors).R[tree.root]
            assert knockin <= vanilla + 1e-12

    def test_knocked_in_from_start_equals_vanilla(self):
        params = CrrParams(H=4.0, ambiguity=(0.25, 0.75), **BASE)
        tree = build_crr_barrier_tree(params)
        priors = drift_ambiguity_priors(tree, params)
        knockin = solve(tree, knockin_payoff(tree, params), priors).R[tree.root]
        vanilla = solve(tree, vanilla_put_payoff(tree, params), priors).R[tree.root]
        assert knockin == pytest.approx(vanilla, abs=1e-14)

    def test_monotone_in_strike(self):
        values = []
        for k in (3.0, 4.0, 5.0, 6.0):
            args = dict(BASE)
            args["K"] = k
            values.append(price(CrrParams(H=4.0, ambiguity=(0.25, 0.75), **args)).hedging_price)
        assert values == sorted(values)

    def test_nonincreasing_in_spot(self):
        values = []
        for s0 in (3.0, 4.0, 5.0, 6.0):
            args = dict(BASE)
            args["S0"] = s0
            values.append(
                price(
                    CrrParams(H=10.0, ambiguity=(0.25, 0.75), **args)
                ).hedging_price
            )
        assert values == sorted(values, reverse=True)
