"""Reference constructions the tests check the package against.

None of these run in the program.  They state the paper's assumptions and
the classical objects it generalises in their plainest form: pasting and
convex mixing of density processes (the class is pasting-stable and convex),
the pathwise algebra of stopping times, reference-measure expectations, the
per-prior Doob split and the orthogonal projection of one increment, the
one-step supermartingale test under every extreme, the strict brute-force
value, and a prior-set validator that also rejects boundary points in
equivalent mode.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from robust_snell import (
    AdaptedFamily,
    DensityProcess,
    EventTree,
    FloorMismatchError,
    InvalidFamilyError,
    InvalidSelectionError,
    InvalidTreeError,
    PriorSet,
    RobustSnellError,
    StoppingRule,
    first_entry_rule,
)
from robust_snell.decomposition import _project
from robust_snell.filtration import fold_rows, step
from robust_snell.oracle import _brute_force
from robust_snell.priors import (
    MARTINGALE_TOL,
    MODE_CLOSURE,
    MODE_EQUIVALENT,
    structural_violations,
)
from robust_snell.snell import DEFAULT_TOL

#: absolute tolerance on z against the cumulative product of its ratios
CUMULATIVE_TOL = 1e-10

#: default bound on a one-step gain in ``doob``, relative to the value (at
#: least 1)
DOOB_TOL = 1e-9

#: bound on an increment's reference mean, relative to its largest entry
#: (at least 1)
MEAN_TOL = 1e-9


class NotASupermartingaleError(RobustSnellError):
    """A decomposition was requested for a family that is not a supermartingale."""


class NotMeasurableError(RobustSnellError):
    """An event is not a union of atoms of the required sigma-field."""


# -- trees and stopping rules ---------------------------------------------


def atoms_at(tree: EventTree, t: int) -> tuple[str, ...]:
    """Nodes at time t, the atoms of the time-t sigma-field."""
    return tuple(n for n in tree.nodes() if tree.time(n) == t)


def leaves_below(tree: EventTree, v: str) -> tuple[str, ...]:
    return tuple(n for n in tree.subtree(v) if not tree.children(n))


def ancestor_at(tree: EventTree, node_id: str, t: int) -> str:
    """The time-t ancestor of ``node_id`` (the atom containing it)."""
    n = node_id
    while tree.time(n) > t:
        p = tree.parent(n)
        if p is None:
            break
        n = p
    if tree.time(n) != t:
        raise InvalidTreeError(f"node {node_id!r} has no ancestor at time {t}")
    return n


def validate_rule(tree: EventTree, rule: StoppingRule) -> list[str]:
    report = []
    if rule.floor not in tree:
        return [f"floor {rule.floor!r} not in tree"]
    if rule.strict and not tree.is_terminal(rule.floor) and rule.stops_at(rule.floor):
        report.append(f"strict rule stops at its non-terminal floor {rule.floor}")
    for leaf in leaves_below(tree, rule.floor):
        if not any(rule.stops_at(n) for n in tree.path(rule.floor, leaf)):
            report.append(f"path to {leaf} never stops")
    return report


def _check_compatible(r1: StoppingRule, r2: StoppingRule) -> None:
    if r1.floor != r2.floor:
        raise FloorMismatchError(
            f"rules anchored at different floors: {r1.floor!r} vs {r2.floor!r}"
        )


def min_rule(tree: EventTree, r1: StoppingRule, r2: StoppingRule) -> StoppingRule:
    """Pathwise minimum of two stopping times with a common floor."""
    _check_compatible(r1, r2)
    rule = first_entry_rule(
        tree, lambda n: r1.stops_at(n) or r2.stops_at(n), r1.floor
    )
    return StoppingRule(labels=rule.labels, floor=rule.floor, strict=r1.strict and r2.strict)


def max_rule(tree: EventTree, r1: StoppingRule, r2: StoppingRule) -> StoppingRule:
    """Pathwise maximum of two stopping times with a common floor."""
    _check_compatible(r1, r2)
    labels: dict[str, bool] = {}
    stack = [(r1.floor, False, False)]
    while stack:
        n, done1, done2 = stack.pop()
        d1 = done1 or r1.stops_at(n)
        d2 = done2 or r2.stops_at(n)
        labels[n] = d1 and d2
        if not labels[n]:
            stack.extend((c, d1, d2) for c in reversed(tree.children(n)))
    return StoppingRule(labels=labels, floor=r1.floor, strict=r1.strict or r2.strict)


def step_expectation_q(
    tree: EventTree, child_values: Mapping[str, float], node: str
) -> float:
    """One-step conditional expectation under the reference measure."""
    children = tree.children(node)
    if not children:
        raise InvalidTreeError(f"node {node!r} is terminal")
    for c in children:
        if c not in child_values:
            raise InvalidFamilyError(f"missing value for child {c!r}")
    return step(
        tree.q_vector(node), itertools.repeat(1.0), [child_values[c] for c in children]
    )


def expected_value_q(
    tree: EventTree, family: AdaptedFamily, rule: StoppingRule, v: str
) -> float:
    """Conditional expectation of the stopped family under the reference measure.

    Computed by backward accumulation from the rule's cut to ``v``.
    """
    if rule.floor != v:
        raise FloorMismatchError(f"rule floor {rule.floor!r} != evaluation node {v!r}")
    walk = rule.walk(tree)
    stopped = {s: family[s] for s in walk.cut}
    unit = (itertools.repeat(1.0),)
    return fold_rows(walk, tree.q_vector, lambda n: unit, stopped)[0]


# -- prior sets and density processes -------------------------------------


def validate_prior_set(tree: EventTree, priors: PriorSet) -> list[str]:
    """``structural_violations``, plus every extreme with a zero component in
    equivalent mode, where it is a boundary point of the open set."""
    report = structural_violations(tree, priors)
    if priors.mode == MODE_EQUIVALENT:
        report += [
            f"node {n}: nonpositive density component"
            for n, extremes in priors.extreme_points.items()
            for d in extremes
            if 0.0 in d
        ]
    return report


def validate_density_process(
    tree: EventTree, process: DensityProcess, mode: str = MODE_CLOSURE
) -> list[str]:
    report: list[str] = []
    if abs(process.z.get(tree.root, float("nan")) - 1.0) > MARTINGALE_TOL:
        report.append("z(root) != 1")
    for n in tree.decision_nodes(tree.root):
        q = tree.q_vector(n)
        r = process.ratio_at(n)
        total = step(q, r, itertools.repeat(1.0))
        if abs(total - 1.0) > MARTINGALE_TOL:
            report.append(f"node {n}: martingale sum {total:g} ≠ 1")
        for c, rc in zip(tree.children(n), r):
            expected = process.z[n] * rc
            if abs(process.z[c] - expected) > CUMULATIVE_TOL:
                report.append(f"node {c}: z inconsistent with cumulative product")
    if mode == MODE_EQUIVALENT:
        for n in tree.nodes():
            if process.z.get(n, 0.0) <= 0:
                report.append(f"node {n}: nonpositive density in equivalent mode")
    return report


def paste(
    tree: EventTree,
    z1: DensityProcess,
    z2: DensityProcess,
    v: int,
    event: Iterable[str],
) -> DensityProcess:
    """Follow Z1's ratios before time ``v``; from ``v`` on, switch to Z2 on
    the event and keep Z1 off it.

    ``event`` must be a union of time-``v`` atoms.  The result is a genuine
    reference-martingale whose conditional ratios from time ``v`` onward agree
    with the selected component.  (A time-indexed mixture of the two z
    processes would reproduce the same conditional ratios after ``v`` but
    would generally fail the martingale property before ``v``; only the
    conditional ratios after the switch are ever used, so ratio pasting is the
    faithful construction.)
    """
    atoms = set(atoms_at(tree, v))
    event_set = set(event)
    bad = event_set - atoms
    if bad:
        raise NotMeasurableError(
            f"event contains nodes not at time {v}: {sorted(bad)}"
        )
    ratios: dict[str, tuple[float, ...]] = {}
    for n in tree.decision_nodes(tree.root):
        if tree.time(n) < v:
            ratios[n] = z1.ratio_at(n)
        else:
            anchor = ancestor_at(tree, n, v)
            ratios[n] = z2.ratio_at(n) if anchor in event_set else z1.ratio_at(n)
    return DensityProcess.from_ratios(tree, ratios)


def convex_combine(
    tree: EventTree, z1: DensityProcess, z2: DensityProcess, x: float
) -> DensityProcess:
    """Node-wise convex combination x*Z1 + (1-x)*Z2 of two density processes."""
    if not 0.0 <= x <= 1.0:
        raise InvalidSelectionError(f"weight {x:g} outside [0, 1]")
    z = {
        n: x * z1.z[n] + (1.0 - x) * z2.z[n]
        for n in tree.nodes()
    }
    ratios: dict[str, tuple[float, ...]] = {}
    for n in tree.decision_nodes(tree.root):
        children = tree.children(n)
        if z[n] > 0:
            ratios[n] = tuple(z[c] / z[n] for c in children)
        else:
            # null atom: any martingale ratio is consistent; keep the reference
            ratios[n] = tuple(1.0 for _ in children)
    return DensityProcess(ratio=ratios, z=z)


# -- value families and their decompositions ------------------------------


@dataclass(frozen=True)
class SupermartingaleReport:
    node_ok: Mapping[str, bool]
    passed: bool
    worst_excess: float
    worst_node: str | None


def check_supermartingale_family(
    tree: EventTree,
    family: AdaptedFamily,
    priors: PriorSet,
    tol: float = DEFAULT_TOL,
) -> SupermartingaleReport:
    """One-step supermartingale test under every extreme of the class.

    For a pasting-stable hull the one-step criterion at every node is
    equivalent to the two-stopping-time definition.
    """
    node_ok: dict[str, bool] = {}
    worst_excess = float("-inf")
    worst_node = None
    for n in tree.decision_nodes(tree.root):
        q = tree.q_vector(n)
        child_values = [family[c] for c in tree.children(n)]
        best = max(step(q, d, child_values) for d in priors.extremes(n))
        excess = best - family[n]
        node_ok[n] = excess <= tol * max(1.0, abs(family[n]))
        if excess > worst_excess:
            worst_excess = excess
            worst_node = n
    return SupermartingaleReport(
        node_ok=node_ok,
        passed=all(node_ok.values()) if node_ok else True,
        worst_excess=worst_excess if node_ok else 0.0,
        worst_node=worst_node,
    )


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
    return _project(q, increment, basis)


def doob(
    tree: EventTree,
    family: AdaptedFamily,
    process: DensityProcess,
    tol: float = DOOB_TOL,
) -> tuple[AdaptedFamily, AdaptedFamily]:
    """Classical discrete Doob split of a supermartingale under one prior.

    Returns (A, M) with family = family(root) + M - A along every path,
    A predictable (increments constant across siblings) and nondecreasing,
    M a martingale under the given prior.
    """
    A: dict[str, float] = {tree.root: 0.0}
    M: dict[str, float] = {tree.root: 0.0}
    for n in tree.decision_nodes(tree.root):
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


def brute_force_strict_value(
    tree: EventTree, payoff: AdaptedFamily, priors: PriorSet, v: str
) -> float:
    """Same supremum as ``brute_force_value`` over rules that must continue
    at a non-terminal ``v``."""
    return _brute_force(tree, payoff, priors, v, strict=True)[1].value
