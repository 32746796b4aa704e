import collections
import itertools
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

import robust_snell
from robust_snell import (
    AdaptedFamily,
    DensityProcess,
    EventTree,
    InvalidRuleError,
    NodeRecord,
    PriorSet,
    StoppingRule,
    density_process,
    flat_off_check,
    node_subspace_basis,
    premise_check,
    random_instance,
    solve,
    u_star,
    universal_decompose,
)
from robust_snell import decomposition
from robust_snell.decomposition import (
    DET_TOL,
    VERTEX_TOL,
    _full_slice,
    _same_point,
    _slice_vertices,
)
from robust_snell.filtration import step
from robust_snell.pricing import (
    CrrParams,
    build_crr_barrier_tree,
    drift_ambiguity_priors,
    knockin_payoff,
)
from reference import NotASupermartingaleError, doob, kw_project


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

    def test_same_bits_as_the_time_sorted_walk(self, tt4, monkeypatch):
        def time_sorted_doob(tree, family, process):
            A, M = {tree.root: 0.0}, {tree.root: 0.0}
            for n in sorted(tree.decision_nodes(tree.root), key=tree.time):
                children = tree.children(n)
                cond = step(tree.q_vector(n), process.ratio_at(n), [family[c] for c in children])
                for c in children:
                    A[c] = A[n] + (family[n] - cond)
                    M[c] = M[n] + family[c] - cond
            return A, M

        models = [(tt4.tree, tt4.payoff, tt4.priors)] + [random_instance(s) for s in range(10)]
        expected = []
        for tree, payoff, priors in models:
            sol = solve(tree, payoff, priors)
            selection = dict.fromkeys(tree.decision_nodes(tree.root), 0)
            process = density_process(tree, priors, selection)
            expected.append((time_sorted_doob(tree, sol.R, process), (tree, sol.R, process)))
        for name in ("nodes_by_time", "is_terminal"):
            monkeypatch.setattr(EventTree, name, None)
        for (A_ref, M_ref), args in expected:
            A, M = doob(*args)
            assert {n: v.hex() for n, v in A.items()} == {n: v.hex() for n, v in A_ref.items()}
            assert {n: v.hex() for n, v in M.items()} == {n: v.hex() for n, v in M_ref.items()}

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


class TestOnePass:
    """``universal_decompose`` walks the decision nodes once, parents first,
    and computes one basis and one full-slice flag per distinct polytope."""

    COUNTED = [
        (decomposition, "node_subspace_basis"),
        (decomposition, "_full_slice"),
        (decomposition, "premise_check"),
        (EventTree, "q_vector"),
        (EventTree, "nodes_by_time"),
    ]

    def decompose_counting(self, monkeypatch, tree, payoff, priors):
        sol = solve(tree, payoff, priors)
        calls = collections.Counter()
        for owner, name in self.COUNTED:

            def counted(*args, _name=name, _original=getattr(owner, name)):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(owner, name, counted)
        dec = universal_decompose(tree, sol, priors)
        monkeypatch.undo()
        return calls, dec

    def test_crr_put_computes_its_one_polytope_once(self, monkeypatch):
        tree, payoff, priors = crr_model(10)
        decision = len(tree.decision_nodes(tree.root))
        assert decision == 1023
        calls, dec = self.decompose_counting(monkeypatch, tree, payoff, priors)
        assert calls["node_subspace_basis"] == 1
        assert calls["_full_slice"] == 1
        assert calls["q_vector"] <= 2 * decision + 1
        assert calls["nodes_by_time"] == 0
        assert calls["premise_check"] == 0
        assert dec.diagnostics.premise == premise_check(tree, priors)

    def test_extremes_given_as_lists(self, tt1):
        sol = solve(tt1.tree, tt1.payoff, tt1.priors)
        listed = PriorSet(extreme_points={"r": [[1.5, 0.5], [0.5, 1.5]]})
        dec = universal_decompose(tt1.tree, sol, listed)
        ref = universal_decompose(tt1.tree, sol, tt1.priors)
        assert dec.diagnostics == ref.diagnostics
        assert (dec.M.values, dec.C.values) == (ref.M.values, ref.C.values)

    def test_unshared_polytopes_once_per_node(self, monkeypatch):
        for seed in range(10):
            tree, payoff, priors = random_instance(seed)
            decision = len(tree.decision_nodes(tree.root))
            calls, dec = self.decompose_counting(monkeypatch, tree, payoff, priors)
            assert calls["node_subspace_basis"] == decision
            assert calls["_full_slice"] == decision
            assert calls["premise_check"] == 0
            assert dec.diagnostics.premise == premise_check(tree, priors)


def one_step(q, extremes):
    """A one-step tree with edge probabilities ``q`` and the given extremes."""
    children = [NodeRecord(id=f"c{i}", time=1, parent="r", q=qc) for i, qc in enumerate(q)]
    tree = EventTree(horizon=1, records=[NodeRecord(id="r", time=0), *children])
    return tree, PriorSet.from_node_extremes({"r": extremes})


def _in_hull(point, extremes):
    """Feasibility of expressing ``point`` as a convex combination of extremes.

    HiGHS runs without presolve: with two extremes 1e-6 apart, presolve can
    call the problem infeasible even when ``point`` is one of the extremes.
    Its feasibility tolerance is ``VERTEX_TOL``, not the default 1e-7, which
    took a slice vertex 2e-8 outside the hull for a member (``NEAR_HULL_CASE``).
    """
    E = np.asarray(extremes, dtype=float).T  # (k, n_ext)
    n_ext = E.shape[1]
    res = linprog(
        c=np.zeros(n_ext),
        A_eq=np.vstack([E, np.ones((1, n_ext))]),
        b_eq=np.concatenate([point, [1.0]]),
        bounds=[(0, None)] * n_ext,
        method="highs",
        options={"presolve": False, "primal_feasibility_tolerance": VERTEX_TOL},
    )
    return bool(res.status == 0)


def exact_det(rows):
    """Determinant of a small square matrix of fractions, by cofactors."""
    if not rows:
        return Fraction(1)
    return sum(
        (-1) ** j * x * exact_det([row[:j] + row[j + 1:] for row in rows[1:]])
        for j, x in enumerate(rows[0])
    )


def reference_vertices(q, basis):
    """The slice vertices of the float basis in exact rational arithmetic, by
    Cramer's rule, rounded once to floats: independent of the package's
    Gaussian elimination.  (``numpy.linalg.solve`` carries rounding of the
    same size, which an ill-conditioned subsystem amplifies past
    ``VERTEX_TOL``; see ``NEAR_CORNER_CASE``.)"""
    B = [[Fraction(b[c]) for b in basis] for c in range(len(q))]
    vertices = []
    for rows in itertools.combinations(range(len(q)), len(basis)):
        sub = [B[r] for r in rows]
        det = exact_det(sub)
        if abs(det) < DET_TOL:
            continue
        lam = [
            exact_det([row[:j] + [-1] + row[j + 1:] for row in sub]) / det
            for j in range(len(basis))
        ]
        point = np.array([float(1 + sum(x * y for x, y in zip(lam, b))) for b in B])
        if np.all(point >= -VERTEX_TOL):
            if not any(np.allclose(point, v, atol=VERTEX_TOL) for v in vertices):
                vertices.append(point)
    return vertices


def lp_verdict(q, basis, extremes):
    """The hull LP at every slice vertex: the reference for the vertex rule."""
    return all(_in_hull(v, extremes) for v in reference_vertices(q, basis))


def rule_and_lp(q, extremes):
    tree, priors = one_step(q, extremes)
    q = tree.q_vector("r")
    basis = node_subspace_basis(tree, priors, "r")
    return _full_slice(q, basis, priors.extremes("r")), lp_verdict(q, basis, extremes), basis


def in_band(q, extremes, vertices):
    """Each extreme is a slice vertex, to rounding, or at least 1e-6 from every
    vertex in probability terms: the LP decides membership only to its own
    feasibility tolerance."""
    for d in extremes:
        for v in vertices:
            gap = max(qc * abs(dc - vc) for qc, dc, vc in zip(q, d, v))
            if 1e-12 < gap < 1e-6:
                return False
    return True


def crr_model(steps, ambiguity=(0.4, 0.6)):
    params = CrrParams(
        S0=5.0, up=1.1, down=0.9, steps=steps, rate=0.0, K=5.0, H=3.8,
        q_up=0.5, ambiguity=ambiguity,
    )
    tree = build_crr_barrier_tree(params)
    return tree, knockin_payoff(tree, params), drift_ambiguity_priors(tree, params)


# a probability weight that is 0 or at least 1e-6
WEIGHT = st.one_of(st.just(0.0), st.floats(1e-6, 1.0))


@st.composite
def star_nodes(draw):
    """Edge probabilities of a node with 2-5 children and its extremes: the
    slice vertices of the span of a few random points of the probability
    simplex, at most one of them dropped, and some of those points."""
    k = draw(st.integers(2, 5))
    raw = draw(st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k))
    q = [r / sum(raw) for r in raw]
    probabilities = draw(
        st.lists(st.lists(WEIGHT, min_size=k, max_size=k).filter(any), min_size=1, max_size=k)
    )
    points = [[pc / sum(p) / qc for pc, qc in zip(p, q)] for p in probabilities]
    tree, priors = one_step(q, points)
    basis = node_subspace_basis(tree, priors, "r")
    assume(basis)
    # extremes are densities, which ``structural_violations`` requires to be
    # nonnegative; the vertex rule presumes they lie in the slice
    vertices = [[max(0.0, x) for x in v] for v in reference_vertices(q, basis)]
    drop = draw(st.one_of(st.none(), st.integers(0, max(0, len(vertices) - 1))))
    extremes = [v for i, v in enumerate(vertices) if i != drop]
    extremes += draw(st.lists(st.sampled_from(points), max_size=2))
    assume(extremes)
    return q, extremes


# a slice vertex that is one of the extremes, with another extreme 1e-6 away
# in probability terms: HiGHS presolve called its hull LP infeasible
PRESOLVE_CASE = (
    [0.2] * 5,
    [
        [0.0, 0.0, 0.0, 4.999995000005001, 4.99999499992132e-06],
        [-2.220446049250313e-16, -2.220446049250313e-16, 0.00030515715593537607, 0.0, 4.999694842844065],
        [0.0, 0.0, -3.051758845629138e-10, 5.000000000305176, 0.0],
        [1.6667005757427784, 1.6667005757427784, 1.6665988485144432, 0.0, -2.220446049250313e-16],
    ],
)


def binary_closed_form(q, extremes):
    """The full-slice verdict at a binary node with a non-trivial span: its
    slice is the segment from (1/q1, 0) to (0, 1/q2), whose two ends are the
    vertices, so the hull is the slice exactly when both ends are extremes."""
    ends = ((1.0 / q[0], 0.0), (0.0, 1.0 / q[1]))
    return all(any(_same_point(end, d) for d in extremes) for end in ends)


# a coordinate that is 0, or 1e-12 to 1e-6 off it on either side
NEAR_ZERO = st.one_of(st.just(0.0), st.floats(1e-12, 1e-6), st.floats(-1e-6, -1e-12))


@st.composite
def near_end_binary_nodes(draw):
    """Edge probabilities of a binary node and extremes on its slice's line,
    one near each end: the coordinate that vanishes at the end is 0 or 1e-12
    to 1e-6 off, straddling the ``VERTEX_TOL`` edge of ``_same_point``."""
    q1 = draw(st.floats(0.05, 0.95))
    q = (q1, 1.0 - q1)
    up, down = draw(NEAR_ZERO), draw(NEAR_ZERO)
    extremes = [((1.0 - q[1] * up) / q[0], up), (down, (1.0 - q[0] * down) / q[1])]
    inner = st.floats(0.0, 1.0).map(lambda p: (p / q[0], (1.0 - p) / q[1]))
    return q, extremes + draw(st.lists(inner, max_size=1))


def near_end_case(q1, up):
    """A binary node with one extreme at the end (0, 1/q2) and one whose
    coordinate that vanishes at the end (1/q1, 0) is ``up``."""
    q = (q1, 1.0 - q1)
    return q, [((1.0 - q[1] * up) / q[0], up), (0.0, 1.0 / q[1])]


# ``up`` within rounding of the ``VERTEX_TOL`` edge: the vertex rule matched
# the closed form here only once a vertex's vanishing coordinates were set to
# exactly 0.0 instead of the rounding of 1 + B l
EDGE_CASES = [
    near_end_case(0.6649694400373257, -1.000009989020783e-09),
    near_end_case(0.36294832932137044, 1.0000100708273608e-09),
]


# a 4-child node whose slice has a vertex at the simplex corner
# (0, 0, 1/q3, 0), where three facets meet: the subsystem of rows 1 and 3 has
# determinant -5.1e-7, and numpy.linalg.solve put its vertex 1.27e-9 from the
# corner, past VERTEX_TOL, so the reference counted 4 vertices; exact
# arithmetic on the same basis puts it 8.5e-10 away, one vertex of 3
NEAR_CORNER_CASE = (
    [0.11749115732874411, 0.502023774024851, 0.3134762669102856, 0.0670088017361193],
    [
        [1.1102230246251565e-16, 1.757368584154361, 0.0, 1.7573690019686452],
        [8.511270182912455, 2.0235535377333136e-06, 1.1102230246251565e-16,
         1.1102230246251565e-16],
    ],
)


# a 5-child node whose slice vertex (0, 0, 0, 4.98, 0.019) is no extreme
# but lies 2e-8 from the edge between the first two: HiGHS at its default
# feasibility tolerance of 1e-7 called it a member of their hull
NEAR_HULL_CASE = (
    [0.2] * 5,
    [
        [0.0, 0.0, 4.999994999726555e-06, 0.0, 4.999995000005001],
        [1.953126930129963e-08, 1.953126930129963e-08, 0.0, 4.999999960937461, 0.0],
        [1.666667220052267, 1.666667220052267, 1.6666655598954658, 0.0, 0.0],
    ],
)


# drawn with its third component at -5e-12, the first extreme lay outside the
# slice (``structural_violations`` refuses a negative component), and the slice
# vertex (0, 0, 0, 5e-6, 5) was in the hull of the extremes but none of them,
# so the hull LP and the vertex rule disagreed; ``star_nodes`` now clips
# vertex components at 0, which gives this draw
NEAR_FACET_CASE = (
    [0.2] * 5,
    [
        [0.0, 0.0, 0.0, 0.0, 5.000000000005],
        [0.0, 0.0, 4.999995000200649e-06, 4.999995000005, 0.0],
        [1.666667222221852, 1.666667222221852, 1.6666655555562961, 0.0, 0.0],
    ],
)

# a 5-child node whose corner (0, 1/q2, 0, 0, 0) is a vertex where four facets
# meet: float elimination put one of its subsystems' solutions 1.05e-9 away,
# a fifth vertex that no extreme matched
SPLIT_CORNER_CASE = (
    [0.18997785353523902, 0.2516502128346572, 0.27712386500971126,
     0.25218809995459524, 0.029059968665797332],
    [
        [0.0, 0.0, 0.0, 4.052352365719636e-06, 34.41156422243235],
        [0.0, 0.0, 2.0501884109556348, 1.7123879502466888, 0.0],
        [0.0, 3.973769736714008, 0.0, 1.8527863712997966e-16, 0.0],
        [4.319099573584025, 0.0, 0.0, 0.711638391493701, 0.0],
    ],
)


class TestBinaryClosedForm:
    """The premise check decides the full slice without an LP, by slice-vertex
    membership at every node; at binary nodes that is the closed form, both
    ends of the segment being extremes."""

    @settings(max_examples=200, deadline=None)
    @given(node=star_nodes())
    @example(node=PRESOLVE_CASE)
    @example(node=NEAR_CORNER_CASE)
    @example(node=NEAR_HULL_CASE)
    @example(node=NEAR_FACET_CASE)
    @example(node=SPLIT_CORNER_CASE)
    def test_agrees_with_the_lp(self, node):
        q, extremes = node
        tree, priors = one_step(q, extremes)
        q = tree.q_vector("r")
        basis = node_subspace_basis(tree, priors, "r")
        assume(basis)
        reference = reference_vertices(q, basis)
        assume(in_band(q, extremes, reference))
        vertices = _slice_vertices(q, basis)
        assert len(vertices) == len(reference)
        assert all(any(_same_point(v, r) for r in reference) for v in vertices)
        assert _full_slice(q, basis, priors.extremes("r")) == lp_verdict(q, basis, extremes)

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
        rule, lp, _ = rule_and_lp((q1, 1.0 - q1), extremes)
        assert rule is expected
        assert lp is expected
        assert binary_closed_form((q1, 1.0 - q1), extremes) is expected

    @pytest.mark.parametrize("ambiguity", [(0.4, 0.6), (0.01, 0.99), (0.5, 0.5)])
    def test_every_crr_node_matches_the_closed_form(self, ambiguity):
        checked = 0
        for steps in range(2, 13):
            tree, _, priors = crr_model(steps, ambiguity)
            for n in tree.decision_nodes(tree.root):
                q, extremes = tree.q_vector(n), priors.extremes(n)
                basis = node_subspace_basis(tree, priors, n)
                # a trivial span leaves the one point 1, the lone extreme
                expected = binary_closed_form(q, extremes) if basis else True
                assert _full_slice(q, basis, extremes) is expected
                checked += 1
        assert checked == sum(2**steps - 1 for steps in range(2, 13))

    @settings(max_examples=300, deadline=None)
    @given(node=near_end_binary_nodes())
    @example(node=EDGE_CASES[0])
    @example(node=EDGE_CASES[1])
    def test_near_end_extremes_match_the_closed_form(self, node):
        q, extremes = node
        tree, priors = one_step(q, extremes)
        q = tree.q_vector("r")
        basis = node_subspace_basis(tree, priors, "r")
        assert len(basis) == 1
        assert _full_slice(q, basis, priors.extremes("r")) == binary_closed_form(q, extremes)

    def test_every_binary_node_of_the_models_agrees(self, tt1, tt4):
        models = [(tt1.tree, tt1.priors), (tt4.tree, tt4.priors)]
        crr = [crr_model(steps, amb) for steps in (3, 5) for amb in ((0.4, 0.6), (0.01, 0.99))]
        randoms = [random_instance(seed) for seed in range(10)]
        models += [(tree, priors) for tree, _, priors in crr + randoms]
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

    def test_binary_nodes_solve_no_lp(self, tt1, tt3, monkeypatch):
        def no_lp(*args, **kwargs):
            raise AssertionError("linprog called by the premise check")

        monkeypatch.setattr(decomposition, "linprog", no_lp)
        tree, _, priors = crr_model(6)
        report = premise_check(tree, priors)
        assert not any(report.full_slice.values())
        edge = PriorSet.from_node_extremes({"r": [[2.0, 0.0], [0.0, 2.0]]})
        assert premise_check(tt1.tree, edge).full_slice == {"r": True}
        assert premise_check(tt3.tree, tt3.priors).full_slice == {"r": False}


class TestThreeChildLp:
    """Nodes with three or more children, which once needed a hull LP per
    slice vertex, decide the full slice by vertex membership alone."""

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
        monkeypatch.setattr(decomposition, "linprog", lambda *a, **kw: calls.append(kw))
        priors = PriorSet.from_node_extremes({"r": extremes})
        report = premise_check(tt3.tree, priors)
        assert report.full_slice == {"r": expected}
        assert not calls

    def test_linprog_is_a_module_attribute(self):
        assert getattr(decomposition, "linprog") is linprog
        with pytest.raises(AttributeError):
            getattr(decomposition, "no_such_name")


def write_random_config(tmp_path, seed):
    """``random_instance(seed)`` written as a CLI config."""
    tree, payoff, priors = random_instance(seed)
    nodes = [{"id": tree.root, "time": 0, "Y": payoff[tree.root]}]
    nodes += [
        {"id": n, "time": tree.time(n), "parent": tree.parent(n), "q": tree.edge_q(n),
         "Y": payoff[n]}
        for n in tree.nodes() if n != tree.root
    ]
    extremes = {n: priors.extremes(n) for n in tree.decision_nodes(tree.root)}
    path = tmp_path / f"random{seed}.json"
    path.write_text(json.dumps({
        "tree": {"horizon": tree.horizon, "nodes": nodes},
        "priors": {"node_extremes": extremes},
    }))
    return path


def test_cli_runs_without_numpy_or_scipy_optimize(tmp_path):
    """Every command runs with numpy and scipy blocked from import, and writes
    the same bytes as an unblocked run."""
    crr3 = tmp_path / "crr3.json"
    crr3.write_text(json.dumps({"crr": {
        "S0": 4.0, "up": 2.0, "down": 0.5, "steps": 3, "K": 5.0, "H": 4.0,
        "ambiguity": [0.25, 0.75],
    }}))
    runs = [
        (command, robust_snell.fixtures.config_path(name))
        for name in ("tt1", "tt3", "tt4")
        for command in ("solve", "oracle", "decompose")
    ]
    # random_instance(0) has three 3-child nodes
    runs += [("decompose", write_random_config(tmp_path, 0)), ("price", crr3)]
    src = str(Path(robust_snell.__file__).resolve().parents[1])
    paths = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    outputs = {}
    for blocked in (True, False):
        script = "import sys\n"
        if blocked:
            script += "sys.modules['numpy'] = sys.modules['scipy'] = None\n"
        script += "from robust_snell.cli import run\n" + "".join(
            f"assert run([{command!r}, '--config', {str(path)!r},"
            f" '--out', {str(tmp_path / str(blocked) / str(i))!r}]) == 0\n"
            for i, (command, path) in enumerate(runs)
        )
        subprocess.run([sys.executable, "-c", script], env=env, check=True)
        outputs[blocked] = {
            f.relative_to(tmp_path / str(blocked)): f.read_bytes()
            for f in sorted((tmp_path / str(blocked)).rglob("*"))
            if f.is_file()
        }
    assert len(outputs[True]) >= 2 * len(runs)
    assert outputs[True] == outputs[False]


class TestFlatOff:
    def test_single_prior_value_is_flat_before_stopping(self, tt4_single):
        tree, payoff, priors = tt4_single
        sol = solve(tree, payoff, priors)
        dec = universal_decompose(tree, sol, priors)
        rule = u_star(sol, payoff, "r")
        assert flat_off_check(dec, tree, rule) is True

    def test_constant_reward_trivially_flat(self, tt4):
        payoff = AdaptedFamily.constant(tt4.tree, 1.0)
        sol = solve(tt4.tree, payoff, tt4.priors)
        dec = universal_decompose(tt4.tree, sol, tt4.priors)
        rule = u_star(sol, payoff, "r")
        assert rule.cut(tt4.tree) == frozenset({"r"})
        assert flat_off_check(dec, tt4.tree, rule) is True

    def test_tt1_single_prior_stops_at_root(self, tt1):
        priors = PriorSet.singleton_reference(tt1.tree)
        sol = solve(tt1.tree, tt1.payoff, priors)
        assert sol.R["r"] == pytest.approx(1.0)
        dec = universal_decompose(tt1.tree, sol, priors)
        rule = u_star(sol, tt1.payoff, "r")
        assert rule.cut(tt1.tree) == frozenset({"r"})
        assert flat_off_check(dec, tt1.tree, rule) is True

    def test_robust_tt4_drift_moves_before_stop(self, tt4):
        # with genuine ambiguity the premise fails and C moves immediately
        sol = solve(tt4.tree, tt4.payoff, tt4.priors)
        dec = universal_decompose(tt4.tree, sol, tt4.priors)
        rule = u_star(sol, tt4.payoff, "r")
        assert flat_off_check(dec, tt4.tree, rule) is False

    def test_random_single_prior_always_flat(self):
        for seed in range(10):
            tree, payoff, priors = random_instance(seed, single_prior=True)
            sol = solve(tree, payoff, priors)
            dec = universal_decompose(tree, sol, priors)
            rule = u_star(sol, payoff, tree.root)
            assert flat_off_check(dec, tree, rule) is True

    def test_rule_that_never_stops_raises(self, tt4):
        sol = solve(tt4.tree, tt4.payoff, tt4.priors)
        dec = universal_decompose(tt4.tree, sol, tt4.priors)
        # stops at u, but nowhere on the paths through d
        rule = StoppingRule(labels={"u": True}, floor="r")
        with pytest.raises(InvalidRuleError, match="never stops"):
            flat_off_check(dec, tt4.tree, rule)
