import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import robust_snell
from robust_snell import (
    AdaptedFamily,
    DensityProcess,
    EventTree,
    NodeRecord,
    NotASupermartingaleError,
    PriorSet,
    density_process,
    doob,
    flat_off_check,
    kw_project,
    node_subspace_basis,
    premise_check,
    random_instance,
    solve,
    u_star,
    universal_decompose,
)
from robust_snell import decomposition
from robust_snell.decomposition import _full_slice, _in_hull, _slice_vertices
from robust_snell.pricing import CrrParams, build_crr_barrier_tree, drift_ambiguity_priors


class TestDoob:
    def test_reference_drift_of_robust_value(self, tt4):
        sol = solve(tt4.tree, tt4.payoff, tt4.priors)
        A, M = doob(tt4.tree, sol.R, DensityProcess.reference(tt4.tree))
        assert A["u"] - A["r"] == pytest.approx(0.625, abs=1e-12)
        assert A["d"] - A["r"] == pytest.approx(0.625, abs=1e-12)
        for n in tt4.tree.nodes():
            assert sol.R[n] == pytest.approx(sol.R["r"] + M[n] - A[n], abs=1e-12)

    def test_martingale_input_has_zero_drift(self, tt1):
        # under the upweighting prior the value family is already a martingale
        sol = solve(tt1.tree, tt1.payoff, tt1.priors)
        z = density_process(tt1.tree, tt1.priors, {"r": 0})
        A, M = doob(tt1.tree, sol.R, z)
        assert all(abs(v) < 1e-12 for v in A.values.values())

    def test_submartingale_rejected(self, tt4):
        with pytest.raises(NotASupermartingaleError):
            doob(tt4.tree, tt4.payoff, DensityProcess.reference(tt4.tree))

    def test_drift_is_sibling_constant_and_nonnegative(self, tt4):
        sol = solve(tt4.tree, tt4.payoff, tt4.priors)
        A, _ = doob(tt4.tree, sol.R, DensityProcess.reference(tt4.tree))
        for n in tt4.tree.decision_nodes("r"):
            increments = {A[c] - A[n] for c in tt4.tree.children(n)}
            assert len(increments) == 1
            assert min(increments) >= -1e-12


class TestSubspaceBasis:
    def test_single_prior_is_trivial(self, tt4_single):
        tree, _, priors = tt4_single
        for n in tree.decision_nodes("r"):
            assert node_subspace_basis(tree, priors, n) == []

    def test_tt1_direction(self, tt1):
        (vec,) = node_subspace_basis(tt1.tree, tt1.priors, "r")
        assert vec[0] == pytest.approx(-vec[1])
        q = tt1.tree.q_vector("r")
        assert sum(qc * xc for qc, xc in zip(q, vec)) == pytest.approx(0.0, abs=1e-12)
        assert sum(qc * xc * xc for qc, xc in zip(q, vec)) == pytest.approx(1.0)

    def test_tt3_direction(self, tt3):
        (vec,) = node_subspace_basis(tt3.tree, tt3.priors, "r")
        assert vec[1] == pytest.approx(0.0, abs=1e-12)
        assert vec[0] == pytest.approx(-vec[2])


class TestKwProject:
    def test_empty_basis_passthrough(self, tt4):
        k_part, orth = kw_project(tt4.tree, "r", (1.0, -1.0), [])
        assert k_part == (0.0, 0.0)
        assert orth == (1.0, -1.0)

    def test_increment_inside_span(self, tt1):
        basis = node_subspace_basis(tt1.tree, tt1.priors, "r")
        k_part, orth = kw_project(tt1.tree, "r", (1.0, -1.0), basis)
        assert k_part == pytest.approx((1.0, -1.0))
        assert orth == pytest.approx((0.0, 0.0), abs=1e-12)

    def test_oblique_increment(self, tt3):
        basis = node_subspace_basis(tt3.tree, tt3.priors, "r")
        k_part, orth = kw_project(tt3.tree, "r", (1.0, -1.0, 0.0), basis)
        assert k_part == pytest.approx((0.5, 0.0, -0.5))
        assert orth == pytest.approx((0.5, -1.0, 0.5))
        q = tt3.tree.q_vector("r")
        assert sum(qc * oc for qc, oc in zip(q, orth)) == pytest.approx(0.0, abs=1e-12)
        for b in basis:
            assert sum(qc * oc * bc for qc, oc, bc in zip(q, orth, b)) == pytest.approx(
                0.0, abs=1e-12
            )

    def test_nonzero_mean_rejected(self, tt1):
        with pytest.raises(NotASupermartingaleError):
            kw_project(tt1.tree, "r", (1.0, 1.0), [])


class TestUniversalDecompose:
    def test_tt3_numbers(self, tt3):
        sol = solve(tt3.tree, tt3.payoff, tt3.priors)
        dec = universal_decompose(tt3.tree, sol, tt3.priors)
        assert dec.X0 == pytest.approx(1.3, abs=1e-12)
        assert dec.A_q["a"] == pytest.approx(0.3, abs=1e-12)
        assert dec.K["a"] == pytest.approx(0.5, abs=1e-12)
        assert dec.K["c"] == pytest.approx(-0.5, abs=1e-12)
        assert dec.M["a"] == pytest.approx(0.5, abs=1e-12)
        assert dec.M["b"] == pytest.approx(-1.0, abs=1e-12)
        assert dec.C["a"] == pytest.approx(-0.2, abs=1e-12)
        assert dec.C["b"] == pytest.approx(0.3, abs=1e-12)
        assert dec.C["c"] == pytest.approx(0.8, abs=1e-12)
        assert not dec.diagnostics.C_increasing
        assert dec.diagnostics.min_delta_C == pytest.approx(-0.2, abs=1e-12)
        assert dec.diagnostics.universal_martingale_residual < 1e-12

    def test_tt1_numbers(self, tt1):
        sol = solve(tt1.tree, tt1.payoff, tt1.priors)
        dec = universal_decompose(tt1.tree, sol, tt1.priors)
        assert dec.M["u"] == pytest.approx(0.0, abs=1e-12)
        assert dec.M["d"] == pytest.approx(0.0, abs=1e-12)
        assert dec.C["u"] == pytest.approx(-0.5, abs=1e-12)
        assert dec.C["d"] == pytest.approx(1.5, abs=1e-12)
        assert not dec.diagnostics.C_increasing
        assert dec.diagnostics.min_delta_C == pytest.approx(-0.5, abs=1e-12)

    def test_single_prior_reduces_to_doob(self, tt4_single):
        tree, payoff, priors = tt4_single
        sol = solve(tree, payoff, priors)
        dec = universal_decompose(tree, sol, priors)
        A, M = doob(tree, sol.R, DensityProcess.reference(tree))
        for n in tree.nodes():
            assert dec.K[n] == pytest.approx(0.0, abs=1e-12)
            assert dec.C[n] == pytest.approx(dec.A_q[n], abs=1e-12)
            assert dec.C[n] == pytest.approx(A[n], abs=1e-12)
            assert dec.M[n] == pytest.approx(M[n], abs=1e-12)
        assert dec.diagnostics.C_increasing

    def test_reconstruction_and_residual_on_random_instances(self):
        for seed in range(12):
            tree, payoff, priors = random_instance(seed)
            sol = solve(tree, payoff, priors)
            dec = universal_decompose(tree, sol, priors)
            for n in tree.nodes():
                rebuilt = dec.X0 + dec.M[n] - dec.C[n]
                assert sol.R[n] == pytest.approx(rebuilt, abs=1e-10)
            assert dec.diagnostics.universal_martingale_residual <= 1e-10

    def test_reference_increment_splits_into_k_plus_m(self, tt3):
        sol = solve(tt3.tree, tt3.payoff, tt3.priors)
        dec = universal_decompose(tt3.tree, sol, tt3.priors)
        for n in tt3.tree.decision_nodes("r"):
            cond = sum(
                tt3.tree.edge_q(c) * sol.R[c] for c in tt3.tree.children(n)
            )
            for c in tt3.tree.children(n):
                lhs = sol.R[c] - cond
                rhs = (dec.K[c] - dec.K[n]) + (dec.M[c] - dec.M[n])
                assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_martingale_under_every_extreme(self, tt4):
        sol = solve(tt4.tree, tt4.payoff, tt4.priors)
        dec = universal_decompose(tt4.tree, sol, tt4.priors)
        for n in tt4.tree.decision_nodes("r"):
            q = tt4.tree.q_vector(n)
            children = tt4.tree.children(n)
            for d in tt4.priors.extremes(n):
                drift = sum(
                    qc * dc * (dec.M[c] - dec.M[n])
                    for qc, dc, c in zip(q, d, children)
                )
                assert drift == pytest.approx(0.0, abs=1e-12)


class TestPremise:
    def test_single_prior_premise_holds(self, tt4_single):
        tree, _, priors = tt4_single
        report = premise_check(tree, priors)
        assert report.scaling_closed_all
        assert report.full_slice_all

    def test_fixture_premises_fail(self, tt1, tt3):
        for cfg in (tt1, tt3):
            report = premise_check(cfg.tree, cfg.priors)
            assert not report.scaling_closed_all
            assert all(not flag for flag in report.scaling_closed.values())

    def test_tt1_hull_is_not_the_full_slice(self, tt1):
        report = premise_check(tt1.tree, tt1.priors)
        assert report.full_slice["r"] is False

    def test_boundary_extremes_fill_the_slice(self, tt1):
        priors = PriorSet.from_node_extremes({"r": [[2.0, 0.0], [0.0, 2.0]]})
        report = premise_check(tt1.tree, priors)
        assert report.full_slice["r"] is True
        assert report.scaling_closed["r"] is False

    def test_decompose_reports_the_same_premise(self, tt1, tt3):
        for cfg in (tt1, tt3):
            sol = solve(cfg.tree, cfg.payoff, cfg.priors)
            dec = universal_decompose(cfg.tree, sol, cfg.priors)
            assert dec.diagnostics.premise == premise_check(cfg.tree, cfg.priors)

    def test_premise_matches_increasing_drift_on_single_prior(self):
        for seed in range(8):
            tree, payoff, priors = random_instance(seed, single_prior=True)
            sol = solve(tree, payoff, priors)
            dec = universal_decompose(tree, sol, priors)
            assert dec.diagnostics.premise.scaling_closed_all
            assert dec.diagnostics.C_increasing


def one_step(q1, extremes):
    """A one-step binary tree with up-probability ``q1`` and the given extremes."""
    tree = EventTree(
        horizon=1,
        records=[
            NodeRecord(id="r", time=0),
            NodeRecord(id="u", time=1, parent="r", q=q1),
            NodeRecord(id="d", time=1, parent="r", q=1.0 - q1),
        ],
    )
    return tree, PriorSet.from_node_extremes({"r": extremes})


def lp_verdict(q, basis, extremes):
    """The hull LP at every slice vertex: the general path of the premise check."""
    return all(_in_hull(v, extremes) for v in _slice_vertices(q, basis))


def closed_form_and_lp(q1, extremes):
    tree, priors = one_step(q1, extremes)
    q = tree.q_vector("r")
    basis = node_subspace_basis(tree, priors, "r")
    return _full_slice(q, basis, priors.extremes("r")), lp_verdict(q, basis, extremes), basis


def crr_model(steps, ambiguity=(0.4, 0.6)):
    params = CrrParams(
        S0=5.0, up=1.1, down=0.9, steps=steps, rate=0.0, K=5.0, H=3.8,
        q_up=0.5, ambiguity=ambiguity,
    )
    tree = build_crr_barrier_tree(params)
    return tree, drift_ambiguity_priors(tree, params)


# an up-probability that is an end of [0, 1] or at least 1e-6 away from both
UP_PROBABILITY = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(1e-6, 1.0 - 1e-6))


class TestBinaryClosedForm:
    """At binary nodes the premise check decides the full slice without an LP."""

    @settings(max_examples=200, deadline=None)
    @given(
        q1=st.floats(0.05, 0.95),
        ups=st.lists(UP_PROBABILITY, min_size=1, max_size=3),
    )
    def test_agrees_with_the_lp(self, q1, ups):
        q2 = 1.0 - q1
        extremes = [[p / q1, (1.0 - p) / q2] for p in ups]
        closed, lp, basis = closed_form_and_lp(q1, extremes)
        assume(basis)
        assert closed == lp

    @pytest.mark.parametrize(
        "q1,extremes,expected",
        [
            (0.5, [[2.0, 0.0], [0.0, 2.0]], True),
            (0.5, [[0.0, 2.0], [1.0, 1.0], [2.0, 0.0]], True),
            (0.5, [[2.0, 0.0], [0.5, 1.5]], False),
            (0.5, [[1.5, 0.5], [0.0, 2.0]], False),
            (0.5, [[2.0, 0.0]], False),
            (0.5, [[1.5, 0.5], [0.5, 1.5]], False),
            (0.25, [[4.0, 0.0], [0.0, 4.0 / 3.0]], True),
            (0.25, [[4.0, 0.0], [1.0, 1.0]], False),
        ],
    )
    def test_endpoint_cases(self, q1, extremes, expected):
        closed, lp, _ = closed_form_and_lp(q1, extremes)
        assert closed is expected
        assert lp is expected

    def test_every_binary_node_of_the_models_agrees(self, tt1, tt4):
        models = [(tt1.tree, tt1.priors), (tt4.tree, tt4.priors)]
        models += [crr_model(steps, amb) for steps in (3, 5) for amb in ((0.4, 0.6), (0.01, 0.99))]
        models += [(tree, priors) for tree, _, priors in map(random_instance, range(10))]
        checked = 0
        for tree, priors in models:
            for n in tree.decision_nodes(tree.root):
                q = tree.q_vector(n)
                basis = node_subspace_basis(tree, priors, n)
                if len(q) != 2 or not basis:
                    continue
                extremes = priors.extremes(n)
                assert _full_slice(q, basis, extremes) == lp_verdict(q, basis, extremes)
                checked += 1
        assert checked > 50

    def test_binary_nodes_solve_no_lp(self, tt1, monkeypatch):
        def no_lp(*args, **kwargs):
            raise AssertionError("linprog called at a binary node")

        monkeypatch.setattr(decomposition, "linprog", no_lp)
        tree, priors = crr_model(6)
        report = premise_check(tree, priors)
        assert not any(report.full_slice.values())
        edge = PriorSet.from_node_extremes({"r": [[2.0, 0.0], [0.0, 2.0]]})
        assert premise_check(tt1.tree, edge).full_slice == {"r": True}


class TestThreeChildLp:
    """Nodes with three or more children keep the slice-vertex hull LPs."""

    @pytest.mark.parametrize(
        "extremes,expected",
        [
            ([[1.9, 1.0, 0.1], [0.1, 1.0, 1.9]], False),
            ([[2.0, 1.0, 0.0], [0.0, 1.0, 2.0]], True),
            ([[3.0, 0.0, 0.0], [0.0, 3.0, 0.0], [0.0, 0.0, 3.0]], True),
            ([[2.0, 1.0, 0.0], [0.0, 1.0, 2.0], [1.0, 1.0, 1.0]], True),
        ],
    )
    def test_tt3_node_uses_the_lp(self, tt3, monkeypatch, extremes, expected):
        calls = []
        linprog = decomposition.linprog

        def counted(*args, **kwargs):
            calls.append(kwargs["b_eq"])
            return linprog(*args, **kwargs)

        monkeypatch.setattr(decomposition, "linprog", counted)
        priors = PriorSet.from_node_extremes({"r": extremes})
        report = premise_check(tt3.tree, priors)
        assert report.full_slice == {"r": expected}
        assert calls

    def test_linprog_is_a_module_attribute(self):
        from scipy.optimize import linprog

        assert getattr(decomposition, "linprog") is linprog
        with pytest.raises(AttributeError):
            getattr(decomposition, "no_such_name")


def test_cli_runs_without_numpy_or_scipy_optimize(tmp_path):
    """solve, price, oracle and a binary decompose import neither numpy nor
    scipy.optimize: only the hull LP at 3-child nodes needs them."""
    config = tmp_path / "crr.json"
    config.write_text(json.dumps({"crr": {
        "S0": 5.0, "up": 1.1, "down": 0.9, "steps": 6, "K": 5.0, "H": 3.8,
        "q_up": 0.5, "ambiguity": [0.4, 0.6],
    }}))
    small = tmp_path / "crr3.json"
    small.write_text(json.dumps({"crr": {
        "S0": 4.0, "up": 2.0, "down": 0.5, "steps": 3, "K": 5.0, "H": 4.0,
        "ambiguity": [0.25, 0.75],
    }}))
    tt4 = robust_snell.fixtures.config_path("tt4")
    runs = [
        ("solve", robust_snell.fixtures.config_path("tt1")),
        ("price", small),
        ("oracle", tt4),
        ("decompose", config),
    ]
    script = "import sys\nfrom robust_snell.cli import run\n" + "".join(
        f"assert run([{command!r}, '--config', {str(path)!r},"
        f" '--out', {str(tmp_path / command)!r}]) == 0\n"
        "print(sorted({'numpy', 'scipy.optimize'} & set(sys.modules)))\n"
        for command, path in runs
    )
    src = str(Path(robust_snell.__file__).resolve().parents[1])
    paths = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.split("\n") == ["[]"] * len(runs) + [""]
    for command, _ in runs:
        assert (tmp_path / command / "summary.json").exists()


class TestFlatOff:
    def test_single_prior_value_is_flat_before_stopping(self, tt4_single):
        tree, payoff, priors = tt4_single
        sol = solve(tree, payoff, priors)
        dec = universal_decompose(tree, sol, priors)
        rule = u_star(sol, payoff, "r")
        assert flat_off_check(dec, tree, rule, "r") is True

    def test_constant_reward_trivially_flat(self, tt4):
        payoff = AdaptedFamily.constant(tt4.tree, 1.0)
        sol = solve(tt4.tree, payoff, tt4.priors)
        dec = universal_decompose(tt4.tree, sol, tt4.priors)
        rule = u_star(sol, payoff, "r")
        assert rule.cut(tt4.tree) == frozenset({"r"})
        assert flat_off_check(dec, tt4.tree, rule, "r") is True

    def test_tt1_single_prior_stops_at_root(self, tt1):
        priors = PriorSet.singleton_reference(tt1.tree)
        sol = solve(tt1.tree, tt1.payoff, priors)
        assert sol.R["r"] == pytest.approx(1.0)
        dec = universal_decompose(tt1.tree, sol, priors)
        rule = u_star(sol, tt1.payoff, "r")
        assert rule.cut(tt1.tree) == frozenset({"r"})
        assert flat_off_check(dec, tt1.tree, rule, "r") is True

    def test_robust_tt4_drift_moves_before_stop(self, tt4):
        # with genuine ambiguity the premise fails and C moves immediately
        sol = solve(tt4.tree, tt4.payoff, tt4.priors)
        dec = universal_decompose(tt4.tree, sol, tt4.priors)
        rule = u_star(sol, tt4.payoff, "r")
        assert flat_off_check(dec, tt4.tree, rule, "r") is False

    def test_random_single_prior_always_flat(self):
        for seed in range(10):
            tree, payoff, priors = random_instance(seed, single_prior=True)
            sol = solve(tree, payoff, priors)
            dec = universal_decompose(tree, sol, priors)
            rule = u_star(sol, payoff, tree.root)
            assert flat_off_check(dec, tree, rule, tree.root) is True
