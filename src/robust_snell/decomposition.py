"""Universal supermartingale decomposition on event trees.

The value family R splits as R = X0 + M - C where M is a martingale under
every prior of the class simultaneously and C collects the remaining drift.
``universal_decompose`` makes one parents-first pass over the decision nodes.
At each, the reference Doob increment of R is projected (in the reference
weighted inner product) onto the span of the one-step density increments
{d - 1}; the projected part goes into C, the orthogonal part into M, and a
decreasing C is reported rather than raised.  Basis and premise flags are
computed once per distinct (q, extremes) polytope, inside that pass.

The premise check needs no LP: the node's slice of admissible densities
contains every extreme, and a vertex of a convex set lies in the hull of a
subset only if it is one of the subset's points, so the hull is the slice
exactly when every slice vertex is an extreme.  The vertices come from small
square systems solved exactly in fractions: no numpy, no scipy.
"""

from __future__ import annotations

import itertools
import math
from typing import Mapping, NamedTuple, Sequence

from .filtration import AdaptedFamily, EventTree, StoppingRule, step
from .priors import PriorSet
from .snell import SnellSolution

#: tolerance below which a projected basis candidate is considered dependent
RANK_TOL = 1e-10

#: tolerance for increasing/flatness checks on C
FLAT_TOL = 1e-10

#: absolute tolerance on slice vertices: their sign, and telling two apart
VERTEX_TOL = 1e-9

#: relative tolerance telling two slice vertices apart (numpy.allclose's rtol)
VERTEX_RTOL = 1e-5

#: determinant below which a square subsystem of the slice has no vertex
DET_TOL = 1e-12


def __getattr__(name: str):
    """Import scipy's ``linprog`` on first access and bind it in this module.

    Nothing in the package calls it.  It stays only because the bench's
    tracer (``bench/inproc.py``) looks ``linprog`` up here by name to count
    LPs; ROADMAP item 5b, where the bench reads a library trace, deletes it.
    """
    if name != "linprog":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from scipy.optimize import linprog

    globals()["linprog"] = linprog
    return linprog


def node_subspace_basis(
    tree: EventTree, priors: PriorSet, node: str
) -> list[tuple[float, ...]]:
    """Orthonormal basis of span{d - 1 over the node's extremes}.

    Orthonormal under the reference-weighted inner product
    <x, y> = sum_c q_c x_c y_c; every basis vector has zero reference mean.
    """
    q = tree.q_vector(node)
    basis: list[tuple[float, ...]] = []
    for d in priors.extremes(node):
        vec = tuple(dc - 1.0 for dc in d)
        for b in basis:
            c = step(q, vec, b)
            vec = tuple(x - c * y for x, y in zip(vec, b))
        norm_sq = step(q, vec, vec)
        if norm_sq > RANK_TOL:
            norm = math.sqrt(norm_sq)
            basis.append(tuple(x / norm for x in vec))
    return basis


def _project(
    q: Sequence[float], increment: Sequence[float], basis: Sequence[Sequence[float]]
) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Orthogonal split of a zero-mean one-step increment: (part inside the
    span of the orthonormal ``basis``, orthogonal part).

    The mean is not checked: the rounding of large values would trip such a
    guard on increments that have zero mean by construction."""
    k_part = tuple(0.0 for _ in increment)
    for b in basis:
        c = step(q, increment, b)
        k_part = tuple(x + c * y for x, y in zip(k_part, b))
    orth = tuple(x - y for x, y in zip(increment, k_part))
    return k_part, orth


class PremiseReport(NamedTuple):
    """Per-node richness flags for the density-increment subspaces.

    ``full_slice``: the node polytope is the entire nonnegativity-truncated
    affine slice 1 + span{d - 1}.  ``scaling_closed``: arbitrary predictable
    scalings of the increments stay admissible, which on a finite tree forces
    the span to be trivial.
    """

    full_slice: Mapping[str, bool]
    scaling_closed: Mapping[str, bool]

    @property
    def scaling_closed_all(self) -> bool:
        return all(self.scaling_closed.values()) if self.scaling_closed else True


def _solve_square(
    rows: Sequence[Sequence[float]], rhs: Sequence[float]
) -> list[float] | None:
    """Solve a square system by Gaussian elimination with partial pivoting.

    Returns None when the determinant, the product of the pivots, is below
    ``DET_TOL`` in absolute value.
    """
    a = [[*row, y] for row, y in zip(rows, rhs)]
    m = len(a)
    det = 1.0
    for j in range(m):
        p = max(range(j, m), key=lambda i: abs(a[i][j]))
        a[j], a[p] = a[p], a[j]
        pivot = a[j][j]
        det *= pivot
        if pivot == 0.0:
            return None
        for i in range(j + 1, m):
            f = a[i][j] / pivot
            a[i] = [x - f * y for x, y in zip(a[i], a[j])]
    if abs(det) < DET_TOL:
        return None
    x = [0.0] * m
    for j in reversed(range(m)):
        x[j] = (a[j][m] - sum(a[j][i] * x[i] for i in range(j + 1, m))) / a[j][j]
    return x


def _slice_vertices(
    q: Sequence[float], basis: Sequence[Sequence[float]]
) -> list[tuple[float, ...]]:
    """Vertices of {1 + B l >= 0} mapped back to density space.

    The polytope is bounded: a direction of the span has zero reference mean,
    so it cannot be nonnegative without vanishing.  Each vertex makes m =
    len(basis) coordinates vanish (an empty basis leaves the point 1).  It is
    solved in fractions and rounded once: a float solve can split a vertex
    where more than m facets meet into points 1e-9 apart.
    """
    from fractions import Fraction  # only a non-trivial span needs it

    B = [[Fraction(b[c]) for b in basis] for c in range(len(q))]
    vertices: list[tuple[float, ...]] = []
    for rows in itertools.combinations(range(len(q)), len(basis)):
        lam = _solve_square([B[r] for r in rows], [-1] * len(rows))
        if lam is None:
            continue
        point = tuple(float(1 + sum(x * y for x, y in zip(lam, b))) for b in B)
        if min(point) >= -VERTEX_TOL and not any(_same_point(point, v) for v in vertices):
            vertices.append(point)
    return vertices


def _same_point(a: Sequence[float], b: Sequence[float]) -> bool:
    """``numpy.allclose(a, b, atol=VERTEX_TOL)`` without its per-call overhead."""
    return all(abs(x - y) <= VERTEX_TOL + VERTEX_RTOL * abs(y) for x, y in zip(a, b))


def _full_slice(
    q: Sequence[float],
    basis: Sequence[Sequence[float]],
    extremes: Sequence[Sequence[float]],
) -> bool:
    """Whether the hull of ``extremes`` is the node's whole slice.

    The slice contains every extreme, and a vertex of a convex set lies in
    the hull of a subset only if it is one of the subset's points, so the
    hull is the slice exactly when every slice vertex is an extreme.
    """
    if not basis:
        return all(max(abs(dc - 1.0) for dc in d) <= VERTEX_TOL for d in extremes)
    return all(any(_same_point(v, d) for d in extremes) for v in _slice_vertices(q, basis))


def _node_polytopes(tree: EventTree, priors: PriorSet):
    """Yield (node, q, extremes, basis, full slice) per decision node, parents
    first, computing basis and flag once per distinct (q, extremes) pair."""
    table: dict[tuple, tuple[list[tuple[float, ...]], bool]] = {}
    for n in tree.decision_nodes(tree.root):
        q = tree.q_vector(n)
        extremes = priors.extremes(n)
        key = (q, tuple(map(tuple, extremes)))
        if key not in table:
            basis = node_subspace_basis(tree, priors, n)
            table[key] = basis, _full_slice(q, basis, extremes)
        yield (n, q, extremes, *table[key])


def premise_check(tree: EventTree, priors: PriorSet) -> PremiseReport:
    """Check, node by node, whether the class meets the subspace premises.

    The global flag (all nodes scaling-closed) holds exactly when every
    node span is trivial, i.e. the class is the reference measure alone.
    Nodes that share a polytope share one basis and one vertex check.
    """
    full_slice: dict[str, bool] = {}
    scaling_closed: dict[str, bool] = {}
    for n, _, _, basis, full in _node_polytopes(tree, priors):
        scaling_closed[n] = not basis
        full_slice[n] = full
    return PremiseReport(full_slice=full_slice, scaling_closed=scaling_closed)


class DecompositionDiagnostics(NamedTuple):
    C_increasing: bool
    min_delta_C: float
    universal_martingale_residual: float
    premise: PremiseReport


class Decomposition(NamedTuple):
    """R = X0 + M - C with per-node bookkeeping of the construction.

    ``K`` accumulates the projected parts of the reference Doob martingale
    increments (so reference-increment = delta K + delta M at every node) and
    ``A_q`` the predictable reference drift; C = A_q - K by construction.
    """

    X0: float
    M: AdaptedFamily
    C: AdaptedFamily
    K: AdaptedFamily
    A_q: AdaptedFamily
    diagnostics: DecompositionDiagnostics


def universal_decompose(solution: SnellSolution) -> Decomposition:
    """Split the value family into a same-for-all-priors martingale and a drift.

    Never raises on a failed premise: a decreasing C is the informative
    outcome and is reported through the diagnostics.
    """
    tree, R = solution.tree, solution.R
    M: dict[str, float] = {tree.root: 0.0}
    C: dict[str, float] = {tree.root: 0.0}
    K: dict[str, float] = {tree.root: 0.0}
    A: dict[str, float] = {tree.root: 0.0}
    full_slice: dict[str, bool] = {}
    scaling_closed: dict[str, bool] = {}
    min_delta_C = float("inf")
    residual = 0.0
    for n, q, extremes, basis, full in _node_polytopes(tree, solution.priors):
        full_slice[n] = full
        scaling_closed[n] = not basis
        children = tree.children(n)
        cond = step(q, itertools.repeat(1.0), [R[c] for c in children])
        drift = R[n] - cond
        increment = [R[c] - cond for c in children]
        k_part, m_part = _project(q, increment, basis)
        for i, c in enumerate(children):
            delta_c = drift - k_part[i]
            min_delta_C = min(min_delta_C, delta_c)
            M[c] = M[n] + m_part[i]
            K[c] = K[n] + k_part[i]
            A[c] = A[n] + drift
            C[c] = C[n] + delta_c
        for d in extremes:
            residual = max(residual, abs(step(q, d, m_part)))
        residual = max(residual, abs(step(q, itertools.repeat(1.0), m_part)))
    diag = DecompositionDiagnostics(
        C_increasing=min_delta_C >= -FLAT_TOL,
        min_delta_C=min_delta_C,
        universal_martingale_residual=residual,
        premise=PremiseReport(full_slice=full_slice, scaling_closed=scaling_closed),
    )
    return Decomposition(
        X0=R[tree.root],
        M=AdaptedFamily(M),
        C=AdaptedFamily(C),
        K=AdaptedFamily(K),
        A_q=AdaptedFamily(A),
        diagnostics=diag,
    )


def flat_off_check(
    decomposition: Decomposition, tree: EventTree, rule: StoppingRule
) -> bool:
    """True when C never moves between the rule's floor and its stop on any
    path; raises InvalidRuleError when some path never stops."""
    C = decomposition.C
    base = C[rule.floor]
    walk = rule.walk(tree)
    nodes = itertools.chain((n for n, _ in walk.continuation), walk.cut)
    return all(abs(C[n] - base) <= FLAT_TOL for n in nodes)
