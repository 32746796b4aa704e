"""Dominated prior classes represented by node-local polytopes of density ratios.

A prior is a density process Z against the reference measure: a positive
reference-martingale with Z(root) = 1, stored as one-step ratios per edge.
The prior class is the pasting-stable, convex hull generated by per-node
polytopes of one-step ratios, each given by its extreme points.  Pasting
stability makes the dynamic programming over the class exact and is why
suprema can be searched over pure per-node extreme selections.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from numbers import Real
from typing import Iterable, Mapping, Sequence

from .errors import (
    FloorMismatchError,
    InvalidPriorSetError,
    InvalidSelectionError,
    NotMeasurableError,
    SizeGuardError,
    UndefinedConditionalError,
)
from .filtration import AdaptedFamily, EventTree, StoppingRule, fold_rows, step

#: absolute tolerance on one-step martingale sums
MARTINGALE_TOL = 1e-12

#: absolute tolerance on z against the cumulative product of its ratios
CUMULATIVE_TOL = 1e-10

#: absolute tolerance on the sum of a selection's convex coefficients
WEIGHT_SUM_TOL = 1e-9

#: enumeration guard on the number of pure extreme selections
MAX_SELECTIONS = 4096

MODE_CLOSURE = "closure"
MODE_EQUIVALENT = "equivalent"


@dataclass(frozen=True)
class PriorSet:
    """Per-node convex polytopes of one-step density ratios.

    ``extreme_points`` maps each non-terminal node id to a non-empty list of
    ratio vectors over that node's children (in child order).  ``mode``
    selects whether the represented set is the closed hull ("closure", the
    default, suprema always attained) or its strictly positive part
    ("equivalent", faithful to a class of measures equivalent to the
    reference; suprema may then be unattained and are reported as such).
    """

    extreme_points: Mapping[str, Sequence[tuple[float, ...]]]
    mode: str = MODE_CLOSURE

    def extremes(self, node_id: str) -> Sequence[tuple[float, ...]]:
        try:
            return self.extreme_points[node_id]
        except KeyError:
            raise InvalidPriorSetError(f"no extreme points at node {node_id!r}") from None

    @classmethod
    def from_node_extremes(
        cls,
        mapping: Mapping[str, Iterable[Iterable[float]]],
        mode: str = MODE_CLOSURE,
    ) -> "PriorSet":
        pts = {
            n: [tuple(float(x) for x in d) for d in ds] for n, ds in mapping.items()
        }
        return cls(extreme_points=pts, mode=mode)

    @classmethod
    def constant(
        cls,
        tree: EventTree,
        extremes: Iterable[Iterable[float]],
        mode: str = MODE_CLOSURE,
    ) -> "PriorSet":
        """The same extreme list at every non-terminal node."""
        ds = [tuple(float(x) for x in d) for d in extremes]
        return cls(
            extreme_points={n: list(ds) for n in tree.decision_nodes(tree.root)},
            mode=mode,
        )

    @classmethod
    def singleton_reference(cls, tree: EventTree, mode: str = MODE_CLOSURE) -> "PriorSet":
        """The one-element class containing only the reference measure."""
        pts = {
            n: [tuple(1.0 for _ in tree.children(n))]
            for n in tree.decision_nodes(tree.root)
        }
        return cls(extreme_points=pts, mode=mode)


#: violation kinds: unusable in any mode, or a boundary point of the open set
STRUCTURAL = "structural"
BOUNDARY = "boundary"


def _violations(tree: EventTree, priors: PriorSet) -> list[tuple[str, str]]:
    """Invariant violations of a prior set as (kind, message) pairs."""
    report: list[tuple[str, str]] = []

    def bad(message: str, kind: str = STRUCTURAL) -> None:
        report.append((kind, message))

    if priors.mode not in (MODE_CLOSURE, MODE_EQUIVALENT):
        bad(f"unknown mode {priors.mode!r}")
    decision = set(tree.decision_nodes(tree.root))
    for n in priors.extreme_points:
        if n not in decision:
            bad(f"extreme points given for non-decision node {n}")
    for n in tree.decision_nodes(tree.root):
        if n not in priors.extreme_points or not priors.extreme_points[n]:
            bad(f"node {n}: no extreme points")
            continue
        k = len(tree.children(n))
        q = tree.q_vector(n)
        for i, d in enumerate(priors.extreme_points[n]):
            if len(d) != k:
                bad(f"node {n}: extreme {i} has {len(d)} components, expected {k}")
                continue
            total = step(q, d, itertools.repeat(1.0))
            if abs(total - 1.0) > MARTINGALE_TOL:
                bad(f"node {n}: martingale sum {total:g} ≠ 1")
            for dc in d:
                if not 0 <= dc < math.inf:
                    what = "negative" if dc < 0 else "non-finite"
                    bad(f"node {n}: {what} density component {dc:g}")
                    break
                if dc == 0 and priors.mode == MODE_EQUIVALENT:
                    bad(f"node {n}: nonpositive density component", BOUNDARY)
                    break
    return report


def validate_prior_set(tree: EventTree, priors: PriorSet) -> list[str]:
    """Diagnose invariant violations of a prior set; empty list means valid."""
    return [msg for _, msg in _violations(tree, priors)]


def structural_violations(tree: EventTree, priors: PriorSet) -> list[str]:
    """The subset of violations that make a prior set unusable in any mode.

    Zero components under ``equivalent`` mode are excluded: they describe
    boundary points of the open set and are handled through attainment
    reporting rather than rejection.
    """
    return [msg for kind, msg in _violations(tree, priors) if kind == STRUCTURAL]


@dataclass(frozen=True)
class DensityProcess:
    """One element of the prior class: per-edge ratios and cumulative density z.

    ``z`` is the running product of ratios along the path from the root, so
    z(root) = 1 and z(child) = z(parent) * ratio(parent)(child).
    """

    ratio: Mapping[str, tuple[float, ...]]
    z: Mapping[str, float]

    def ratio_at(self, node_id: str) -> tuple[float, ...]:
        try:
            return self.ratio[node_id]
        except KeyError:
            raise InvalidPriorSetError(f"no density ratio at node {node_id!r}") from None

    def ratio_for_child(self, tree: EventTree, child_id: str) -> float:
        parent = tree.parent(child_id)
        if parent is None:
            raise InvalidPriorSetError("root has no incoming ratio")
        idx = tree.children(parent).index(child_id)
        return self.ratio_at(parent)[idx]

    @classmethod
    def from_ratios(
        cls, tree: EventTree, ratio: Mapping[str, Sequence[float]]
    ) -> "DensityProcess":
        ratios = {n: tuple(float(x) for x in r) for n, r in ratio.items()}
        z: dict[str, float] = {tree.root: 1.0}
        for n in tree.nodes_by_time():
            if tree.is_terminal(n):
                continue
            children = tree.children(n)
            r = ratios.get(n)
            if r is None or len(r) != len(children):
                raise InvalidPriorSetError(f"bad ratio vector at node {n!r}")
            for c, rc in zip(children, r):
                z[c] = z[n] * rc
        return cls(ratio=ratios, z=z)

    @classmethod
    def reference(cls, tree: EventTree) -> "DensityProcess":
        """The constant process Z = 1 (the reference measure itself)."""
        ratios = {
            n: tuple(1.0 for _ in tree.children(n))
            for n in tree.decision_nodes(tree.root)
        }
        return cls.from_ratios(tree, ratios)


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


def _coefficients(
    selection_entry, n_extremes: int, node_id: str
) -> tuple[float, ...]:
    """Normalize a selection entry (index or weight vector) to weights."""
    if isinstance(selection_entry, (int,)) and not isinstance(selection_entry, bool):
        if not 0 <= selection_entry < n_extremes:
            raise InvalidSelectionError(
                f"extreme index {selection_entry} out of range at node {node_id!r}"
            )
        return tuple(
            1.0 if i == selection_entry else 0.0 for i in range(n_extremes)
        )
    if isinstance(selection_entry, (str, bytes)) or not isinstance(selection_entry, Iterable):
        raise InvalidSelectionError(
            f"selection {selection_entry!r} at node {node_id!r} is neither an extreme "
            "index nor a sequence of coefficients"
        )
    entries = tuple(selection_entry)
    if not all(
        isinstance(w, Real) and not isinstance(w, bool) and math.isfinite(w) for w in entries
    ):
        raise InvalidSelectionError(
            f"coefficients {entries!r} at node {node_id!r} are not all finite numbers"
        )
    weights = tuple(map(float, entries))
    if len(weights) != n_extremes:
        raise InvalidSelectionError(
            f"{len(weights)} coefficients for {n_extremes} extremes at node {node_id!r}"
        )
    if any(w < 0 for w in weights):
        raise InvalidSelectionError(f"negative coefficient at node {node_id!r}")
    if abs(sum(weights) - 1.0) > WEIGHT_SUM_TOL:
        raise InvalidSelectionError(
            f"coefficients sum {sum(weights):g} != 1 at node {node_id!r}"
        )
    return weights


def density_process(
    tree: EventTree, priors: PriorSet, selection: Mapping[str, object]
) -> DensityProcess:
    """Realize one element of the class from per-node convex weights.

    ``selection`` maps node ids to either an extreme index or a vector of
    convex coefficients over that node's extremes; absent nodes default to
    extreme 0.
    """
    ratios: dict[str, tuple[float, ...]] = {}
    for n in tree.decision_nodes(tree.root):
        extremes = priors.extremes(n)
        entry = selection.get(n, 0)
        weights = _coefficients(entry, len(extremes), n)
        k = len(tree.children(n))
        ratios[n] = tuple(
            sum(w * d[i] for w, d in zip(weights, extremes)) for i in range(k)
        )
    return DensityProcess.from_ratios(tree, ratios)


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
    atoms = set(tree.atoms_at(v))
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
            anchor = tree.ancestor_at(n, v)
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


def bayes_conditional(
    tree: EventTree,
    process: DensityProcess,
    family: AdaptedFamily,
    rule: StoppingRule,
    v: str,
) -> float:
    """Conditional expectation of the stopped family under the measure with
    density ``process``, evaluated at node ``v`` by the Bayes rule.

    Only the ratios on the interval between ``v`` and the stopping cut enter,
    so the value is unchanged by modifying the process strictly before ``v``.
    """
    if rule.floor != v:
        raise FloorMismatchError(f"rule floor {rule.floor!r} != evaluation node {v!r}")
    if process.z.get(v, 0.0) == 0.0:
        raise UndefinedConditionalError(
            f"conditioning on node {v!r} which carries zero density mass"
        )
    walk = rule.walk(tree)
    stopped = {s: family[s] for s in walk.cut}
    return fold_rows(
        walk, tree.q_vector, lambda n: (process.ratio_at(n),), stopped
    )[0]


def selection_count(tree: EventTree, priors: PriorSet, v: str | None = None) -> int:
    """Number of pure extreme selections on the subtree at ``v`` (default root)."""
    v = tree.root if v is None else v
    count = 1
    for n in tree.decision_nodes(v):
        count *= len(priors.extremes(n))
    return count


def guard_selection_count(tree: EventTree, priors: PriorSet, v: str) -> None:
    """Raise SizeGuardError when ``selection_count`` at ``v`` exceeds
    MAX_SELECTIONS."""
    total = selection_count(tree, priors, v)
    if total > MAX_SELECTIONS:
        raise SizeGuardError(
            f"{total} extreme selections exceed the guard {MAX_SELECTIONS}"
        )


def extreme_selections(
    tree: EventTree, priors: PriorSet, v: str | None = None
) -> list[dict[str, int]]:
    """All pure per-node extreme selections, in mixed-radix order.

    For a pasting-stable hull, any supremum of a per-path-linear objective over
    the class is attained at one of these selections.
    """
    v = tree.root if v is None else v
    guard_selection_count(tree, priors, v)
    nodes = tree.decision_nodes(v)
    ranges = [range(len(priors.extremes(n))) for n in nodes]
    return [dict(zip(nodes, combo)) for combo in itertools.product(*ranges)]
