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
from numbers import Real
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import (
    FloorMismatchError,
    InvalidPriorSetError,
    InvalidSelectionError,
    UndefinedConditionalError,
)
from .filtration import AdaptedFamily, EventTree, StoppingRule, step

#: absolute tolerance on one-step martingale sums
MARTINGALE_TOL = 1e-12

#: absolute tolerance on the sum of a selection's convex coefficients
WEIGHT_SUM_TOL = 1e-9

MODE_CLOSURE = "closure"
MODE_EQUIVALENT = "equivalent"


class PriorSet(NamedTuple):
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
        """One shared, read-only extreme list at every non-terminal node."""
        ds = [tuple(float(x) for x in d) for d in extremes]
        return cls(
            extreme_points=dict.fromkeys(tree.decision_nodes(tree.root), ds),
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


def structural_violations(tree: EventTree, priors: PriorSet) -> list[str]:
    """Diagnose the violations that make a prior set unusable; an empty list
    means valid.

    Zero components are allowed in both modes: under ``equivalent`` mode they
    are boundary points of the open set, handled through attainment reporting
    rather than rejection.
    """
    report: list[str] = []
    if priors.mode not in (MODE_CLOSURE, MODE_EQUIVALENT):
        report.append(f"unknown mode {priors.mode!r}")
    decision = dict.fromkeys(tree.decision_nodes(tree.root))
    for n in priors.extreme_points:
        if n not in decision:
            report.append(f"extreme points given for non-decision node {n}")
    for n in decision:
        if n not in priors.extreme_points or not priors.extreme_points[n]:
            report.append(f"node {n}: no extreme points")
            continue
        k = len(tree.children(n))
        q = tree.q_vector(n)
        for i, d in enumerate(priors.extreme_points[n]):
            if len(d) != k:
                report.append(
                    f"node {n}: extreme {i} has {len(d)} components, expected {k}"
                )
                continue
            total = step(q, d, itertools.repeat(1.0))
            if abs(total - 1.0) > MARTINGALE_TOL:
                report.append(f"node {n}: martingale sum {total:g} ≠ 1")
            for dc in d:
                if not 0 <= dc < math.inf:
                    what = "negative" if dc < 0 else "non-finite"
                    report.append(f"node {n}: {what} density component {dc:g}")
                    break
    return report


class DensityProcess(NamedTuple):
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

    @classmethod
    def from_ratios(
        cls, tree: EventTree, ratio: Mapping[str, Sequence[float]]
    ) -> "DensityProcess":
        """Cumulate ``ratio`` into z in one preorder walk from the root, so
        each node's z is set before its children's."""
        ratios = {n: tuple(float(x) for x in r) for n, r in ratio.items()}
        z: dict[str, float] = {tree.root: 1.0}
        for n in tree.subtree(tree.root):
            if tree.is_terminal(n):
                continue
            children = tree.children(n)
            r = ratios.get(n)
            if r is None or len(r) != len(children):
                raise InvalidPriorSetError(f"bad ratio vector at node {n!r}")
            for c, rc in zip(children, r):
                z[c] = z[n] * rc
        return cls(ratio=ratios, z=z)


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
    values = {s: family[s] for s in walk.cut}
    for n, children in walk.continuation:
        values[n] = step(
            tree.q_vector(n), process.ratio_at(n), [values[c] for c in children]
        )
    return values[v]


def selection_count(tree: EventTree, priors: PriorSet, v: str | None = None) -> int:
    """Number of pure extreme selections on the subtree at ``v`` (default root)."""
    v = tree.root if v is None else v
    count = 1
    for n in tree.decision_nodes(v):
        count *= len(priors.extremes(n))
    return count

