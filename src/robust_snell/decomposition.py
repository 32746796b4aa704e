"""Universal supermartingale decomposition on event trees.

The value family R splits as R = X0 + M - C where M is a martingale under
every prior of the class simultaneously and C collects the remaining drift.
Per node, the reference Doob increment of R is projected (in the reference
weighted inner product) onto the span of the one-step density increments
{d - 1}; the projected part is absorbed into C, the orthogonal part forms M.
C is increasing exactly when the class is rich enough for the projection to
stay below the predictable drift; otherwise the failure is reported in the
diagnostics rather than raised.

Basis and projection are tuple arithmetic whose inner products all go
through ``filtration.step``.  The premise check needs no LP either: the
node's slice of admissible densities contains every extreme, and a vertex of
a convex set lies in the hull of a subset only if it is one of the subset's
points, so the hull of the extremes is the whole slice exactly when every
slice vertex is an extreme.  The vertices come from small square systems
solved by Gaussian elimination, so the package needs neither numpy nor
scipy.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from .errors import NotASupermartingaleError
from .filtration import AdaptedFamily, EventTree, StoppingRule, step
from .priors import DensityProcess, PriorSet
from .snell import SnellSolution

#: tolerance below which a projected basis candidate is considered dependent
RANK_TOL = 1e-10

#: tolerance for increasing/flatness checks on C
FLAT_TOL = 1e-10

#: absolute tolerance on slice vertices: their sign, and telling two apart
VERTEX_TOL = 1e-9

#: determinant below which a square subsystem of the slice has no vertex
DET_TOL = 1e-12

#: bound on an increment's reference mean, relative to its largest entry
#: (at least 1)
MEAN_TOL = 1e-9


def __getattr__(name: str):
    """Import scipy's ``linprog`` on first access and bind it in this module.

    Nothing in the package calls it.  It stays only because the bench's
    tracer (``bench/inproc.py``) looks ``linprog`` up here by name to count
    LPs; ROADMAP item 1, which moves tracing into the library, deletes it.
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


def kw_project(
    tree: EventTree,
    node: str,
    increment: Sequence[float],
    basis: Sequence[Sequence[float]],
) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Orthogonal split of a zero-mean one-step increment.

    Returns (part inside the density-increment span, orthogonal part), both
    zero-mean under the reference weights.
    """
    q = tree.q_vector(node)
    mean = step(q, itertools.repeat(1.0), increment)
    scale = max(1.0, max(map(abs, increment), default=1.0))
    if abs(mean) > MEAN_TOL * scale:
        raise NotASupermartingaleError(
            f"increment at node {node!r} has nonzero reference mean {mean:g}"
        )
    k_part = tuple(0.0 for _ in increment)
    for b in basis:
        c = step(q, increment, b)
        k_part = tuple(x + c * y for x, y in zip(k_part, b))
    orth = tuple(x - y for x, y in zip(increment, k_part))
    return k_part, orth


def doob(
    tree: EventTree, family: AdaptedFamily, process: DensityProcess, tol: float = 1e-9
) -> tuple[AdaptedFamily, AdaptedFamily]:
    """Classical discrete Doob split of a supermartingale under one prior.

    Returns (A, M) with family = family(root) + M - A along every path,
    A predictable (increments constant across siblings) and nondecreasing,
    M a martingale under the given prior.
    """
    A: dict[str, float] = {tree.root: 0.0}
    M: dict[str, float] = {tree.root: 0.0}
    for n in tree.nodes_by_time():
        if tree.is_terminal(n):
            continue
        children = tree.children(n)
        cond = step(tree.q_vector(n), process.ratio_at(n), [family[c] for c in children])
        drift = family[n] - cond
        if drift < -tol * max(1.0, abs(family[n])):
            raise NotASupermartingaleError(
                f"family gains {-drift:g} in one step at node {n!r}"
            )
        for c in children:
            A[c] = A[n] + drift
            M[c] = M[n] + family[c] - cond
    return AdaptedFamily(A), AdaptedFamily(M)


@dataclass(frozen=True)
class PremiseReport:
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

    @property
    def full_slice_all(self) -> bool:
        return all(self.full_slice.values()) if self.full_slice else True


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

    The polytope is bounded because every direction in the span has zero
    reference mean, so it cannot be nonnegative without vanishing.  Each
    vertex makes m = len(basis) of the k coordinates vanish; an empty basis
    leaves the single point 1.
    """
    vertices: list[tuple[float, ...]] = []
    for rows in itertools.combinations(range(len(q)), len(basis)):
        lam = _solve_square([[b[r] for b in basis] for r in rows], [-1.0] * len(rows))
        if lam is None:
            continue
        point = tuple(
            1.0 + sum(x * b[c] for x, b in zip(lam, basis)) for c in range(len(q))
        )
        if min(point) >= -VERTEX_TOL and not any(_same_point(point, v) for v in vertices):
            vertices.append(point)
    return vertices


def _same_point(a: Sequence[float], b: Sequence[float]) -> bool:
    """``numpy.allclose(a, b, atol=VERTEX_TOL)`` without its per-call overhead."""
    return all(abs(x - y) <= VERTEX_TOL + 1e-5 * abs(y) for x, y in zip(a, b))


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
    if len(q) == 2:
        # kept: faster than the general rule below on all-binary CRR decompose;
        # the slice is the segment from (1/q1, 0) to (0, 1/q2), and those two
        # ends are its vertices
        ends = ((1.0 / q[0], 0.0), (0.0, 1.0 / q[1]))
        return all(any(_same_point(end, d) for d in extremes) for end in ends)
    return all(any(_same_point(v, d) for d in extremes) for v in _slice_vertices(q, basis))


def premise_check(
    tree: EventTree,
    priors: PriorSet,
    *,
    bases: Mapping[str, Sequence[Sequence[float]]] | None = None,
) -> PremiseReport:
    """Check, node by node, whether the class meets the subspace premises.

    The global flag (all nodes scaling-closed) holds exactly when every
    node span is trivial, i.e. the class is the reference measure alone.
    ``bases`` maps decision nodes to their ``node_subspace_basis`` when the
    caller has them already.
    """
    full_slice: dict[str, bool] = {}
    scaling_closed: dict[str, bool] = {}
    for n in tree.decision_nodes(tree.root):
        basis = node_subspace_basis(tree, priors, n) if bases is None else bases[n]
        scaling_closed[n] = len(basis) == 0
        full_slice[n] = _full_slice(tree.q_vector(n), basis, priors.extremes(n))
    return PremiseReport(full_slice=full_slice, scaling_closed=scaling_closed)


@dataclass(frozen=True)
class DecompositionDiagnostics:
    C_increasing: bool
    min_delta_C: float
    universal_martingale_residual: float
    premise: PremiseReport


@dataclass(frozen=True)
class Decomposition:
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


def universal_decompose(
    tree: EventTree, solution: SnellSolution, priors: PriorSet
) -> Decomposition:
    """Split the value family into a same-for-all-priors martingale and a drift.

    Never raises on a failed premise: a decreasing C is the informative
    outcome and is reported through the diagnostics.
    """
    R = solution.R
    M: dict[str, float] = {tree.root: 0.0}
    C: dict[str, float] = {tree.root: 0.0}
    K: dict[str, float] = {tree.root: 0.0}
    A: dict[str, float] = {tree.root: 0.0}
    bases: dict[str, list[tuple[float, ...]]] = {}
    min_delta_C = float("inf")
    residual = 0.0
    any_step = False
    for n in tree.nodes_by_time():
        if tree.is_terminal(n):
            continue
        any_step = True
        children = tree.children(n)
        q = tree.q_vector(n)
        cond = step(q, itertools.repeat(1.0), [R[c] for c in children])
        drift = R[n] - cond
        increment = [R[c] - cond for c in children]
        basis = bases[n] = node_subspace_basis(tree, priors, n)
        k_part, m_part = kw_project(tree, n, increment, basis)
        for i, c in enumerate(children):
            delta_c = drift - k_part[i]
            min_delta_C = min(min_delta_C, delta_c)
            M[c] = M[n] + m_part[i]
            K[c] = K[n] + k_part[i]
            A[c] = A[n] + drift
            C[c] = C[n] + delta_c
        for d in priors.extremes(n):
            residual = max(residual, abs(step(q, d, m_part)))
        residual = max(residual, abs(step(q, itertools.repeat(1.0), m_part)))
    if not any_step:
        min_delta_C = 0.0
    diag = DecompositionDiagnostics(
        C_increasing=min_delta_C >= -FLAT_TOL,
        min_delta_C=min_delta_C,
        universal_martingale_residual=residual,
        premise=premise_check(tree, priors, bases=bases),
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
    decomposition: Decomposition,
    tree: EventTree,
    rule: StoppingRule,
    v: str,
) -> bool:
    """True when C never moves between ``v`` and the rule's stop on any path."""
    C = decomposition.C
    base = C[v]
    ok = True
    stack = [(v, rule.stops_at(v))]
    while stack:
        n, stopped = stack.pop()
        if abs(C[n] - base) > FLAT_TOL:
            ok = False
            break
        if stopped:
            continue
        for c in tree.children(n):
            stack.append((c, rule.stops_at(c)))
    return ok
