"""Finite filtered probability bases: event trees, adapted families, stopping rules.

The tree nodes at time t are the atoms of the time-t sigma-field.  Every edge
carries a reference one-step probability q > 0, so the reference measure
charges every path and all measures built from density ratios share its null
sets.
"""

from __future__ import annotations

import math
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from .errors import InvalidFamilyError, InvalidRuleError, InvalidTreeError

#: absolute tolerance on one-step probability sums
PROB_TOL = 1e-12

#: the one read-only empty mapping that optional mapping fields default to
EMPTY_MAPPING: Mapping = MappingProxyType({})


class NodeRecord(NamedTuple):
    """A single tree node.

    ``q`` is the reference probability of the edge from ``parent`` to this
    node (absent at the root).  ``states`` holds optional numeric labels such
    as an asset price "S" or a barrier flag "hit".
    """

    id: str
    time: int
    parent: str | None = None
    q: float | None = None
    states: Mapping[str, float] = EMPTY_MAPPING


class EventTree:
    """A finite, rooted event tree with horizon T and one-step probabilities.

    Construction only requires parent links to resolve; all quantitative
    invariants (probabilities summing to one, leaves sitting at the horizon,
    consecutive times) are checked by :func:`validate_tree` so that invalid
    trees can be diagnosed rather than rejected outright.  Each node's child
    ids are stored once, as a tuple, and handed out as is.
    """

    def __init__(self, horizon: int, records: Sequence[NodeRecord]):
        self.horizon = int(horizon)
        if self.horizon < 1:
            raise InvalidTreeError("horizon must be at least 1")
        if not records:
            raise InvalidTreeError("tree has no nodes")
        self._records: dict[str, NodeRecord] = {}
        for rec in records:
            if rec.id in self._records:
                raise InvalidTreeError(f"duplicate node id {rec.id!r}")
            self._records[rec.id] = rec
        roots = [r.id for r in records if r.parent is None]
        if len(roots) != 1:
            raise InvalidTreeError(f"expected exactly one root, found {len(roots)}")
        self.root = roots[0]
        # child ids grouped by parent; leaves get no list, only the shared ()
        kids: dict[str, list[str]] = {}
        for rec in records:
            if rec.parent is not None:
                if rec.parent not in self._records:
                    raise InvalidTreeError(
                        f"node {rec.id!r} references unknown parent {rec.parent!r}"
                    )
                kids.setdefault(rec.parent, []).append(rec.id)
        self._children: dict[str, tuple[str, ...]] = {
            n: tuple(kids.pop(n, ())) for n in self._records
        }

    # -- basic accessors -------------------------------------------------

    def nodes(self) -> tuple[str, ...]:
        """All node ids in construction order."""
        return tuple(self._records)

    def node(self, node_id: str) -> NodeRecord:
        try:
            return self._records[node_id]
        except KeyError:
            raise InvalidTreeError(f"unknown node {node_id!r}") from None

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._records

    def time(self, node_id: str) -> int:
        return self.node(node_id).time

    def parent(self, node_id: str) -> str | None:
        return self.node(node_id).parent

    def children(self, node_id: str) -> tuple[str, ...]:
        """Child ids in construction order: the stored tuple, not a copy."""
        try:
            return self._children[node_id]
        except KeyError:
            raise InvalidTreeError(f"unknown node {node_id!r}") from None

    def edge_q(self, child_id: str) -> float:
        q = self.node(child_id).q
        if q is None:
            raise InvalidTreeError(f"node {child_id!r} has no edge probability")
        return float(q)

    def q_vector(self, node_id: str) -> tuple[float, ...]:
        """One-step probabilities over the children of ``node_id``."""
        return tuple(self.edge_q(c) for c in self.children(node_id))

    def is_terminal(self, node_id: str) -> bool:
        return self.time(node_id) == self.horizon

    def leaves(self) -> tuple[str, ...]:
        return tuple(n for n in self._records if not self._children[n])

    # -- traversal helpers -----------------------------------------------

    def subtree(self, v: str) -> tuple[str, ...]:
        """Preorder listing of the subtree rooted at ``v``."""
        out: list[str] = []
        stack = [v]
        while stack:
            n = stack.pop()
            out.append(n)
            stack.extend(reversed(self._children[n]))
        return tuple(out)

    def decision_nodes(self, v: str) -> tuple[str, ...]:
        """Non-terminal nodes of the subtree at ``v``, in preorder."""
        return tuple(n for n in self.subtree(v) if self._children[n])

    def path(self, ancestor: str, descendant: str) -> tuple[str, ...]:
        """Nodes from ``ancestor`` down to ``descendant``, both inclusive."""
        chain = [descendant]
        n = descendant
        while n != ancestor:
            p = self.parent(n)
            if p is None:
                raise InvalidTreeError(
                    f"{ancestor!r} is not an ancestor of {descendant!r}"
                )
            chain.append(p)
            n = p
        return tuple(reversed(chain))

    def nodes_by_time(self, descending: bool = False) -> tuple[str, ...]:
        order = sorted(
            self._records,
            key=lambda n: self._records[n].time,
            reverse=descending,
        )
        return tuple(order)


def validate_tree(tree: EventTree) -> list[str]:
    """Diagnose structural invariant violations; an empty list means valid."""
    report: list[str] = []
    if tree.time(tree.root) != 0:
        report.append(f"root time {tree.time(tree.root)} != 0")
    for n in tree.nodes():
        rec = tree.node(n)
        if rec.time < 0 or rec.time > tree.horizon:
            report.append(f"node {n}: time {rec.time} outside [0, {tree.horizon}]")
        children = tree.children(n)
        if not children:
            if rec.time != tree.horizon:
                report.append(
                    f"node {n}: leaf at time {rec.time} before horizon {tree.horizon}"
                )
            continue
        if rec.time == tree.horizon:
            report.append(f"node {n}: terminal node has children")
        total = 0.0
        for c in children:
            crec = tree.node(c)
            if crec.time != rec.time + 1:
                report.append(f"node {c}: time {crec.time} != parent time + 1")
            if crec.q is None:
                report.append(f"node {c}: missing edge probability")
                continue
            if not 0 <= crec.q <= 1:
                report.append(f"node {c}: edge probability {crec.q:g} outside [0, 1]")
            elif crec.q == 0:
                report.append(f"node {n}: zero-probability branch (child {c})")
            total += crec.q
        if abs(total - 1.0) > PROB_TOL:
            report.append(f"node {n}: probabilities sum {total:g} ≠ 1")
    return report


class AdaptedFamily:
    """Node-indexed real values: rewards, value families, process components."""

    __slots__ = ("values",)

    def __init__(self, values: Mapping[str, float]):
        self.values = {k: float(v) for k, v in values.items()}

    def __getitem__(self, node_id: str) -> float:
        try:
            return self.values[node_id]
        except KeyError:
            raise InvalidFamilyError(f"family has no value at node {node_id!r}") from None

    def get(self, node_id: str, default: float | None = None) -> float | None:
        return self.values.get(node_id, default)

    def __contains__(self, node_id: str) -> bool:
        return node_id in self.values

    def __iter__(self):
        return iter(self.values)

    def __len__(self) -> int:
        return len(self.values)

    def items(self):
        return self.values.items()

    def __repr__(self) -> str:
        return f"AdaptedFamily({self.values!r})"

    @classmethod
    def constant(cls, tree: EventTree, value: float) -> "AdaptedFamily":
        return cls({n: value for n in tree.nodes()})

    def scaled(self, factor: float) -> "AdaptedFamily":
        return AdaptedFamily({k: factor * v for k, v in self.values.items()})


def validate_family(tree: EventTree, family: AdaptedFamily) -> list[str]:
    """Check that a family is finite and nonnegative on every node."""
    report = []
    for n in tree.nodes():
        if n not in family:
            report.append(f"family undefined at node {n}")
        elif not math.isfinite(family[n]):
            report.append(f"family not finite at node {n}: {family[n]:g}")
        elif family[n] < 0:
            report.append(f"family negative at node {n}: {family[n]:g}")
    return report


class StoppingRule(NamedTuple):
    """An adapted stop/continue labelling defining one stopping time.

    The rule belongs to the class anchored at ``floor`` and is only consulted
    on the subtree at or below it; the stopping node on each path is the first
    node labelled stop.  ``strict=True`` marks membership in the strictly-later
    class: the rule must continue at a non-terminal floor.
    """

    labels: Mapping[str, bool]
    floor: str
    strict: bool = False

    def stops_at(self, node_id: str) -> bool:
        return bool(self.labels.get(node_id, False))

    def stop_node(self, tree: EventTree, leaf: str) -> str:
        """First stop node on the path from the floor to ``leaf``."""
        for n in tree.path(self.floor, leaf):
            if self.stops_at(n):
                return n
        raise InvalidRuleError(f"rule never stops on the path to {leaf!r}")

    def stop_time(self, tree: EventTree, leaf: str) -> int:
        return tree.time(self.stop_node(tree, leaf))

    def walk(self, tree: EventTree) -> RuleWalk:
        """Traverse the rule once from its floor, without recursion.

        Raises InvalidRuleError when some path below the floor never stops.
        """
        continuation: list[tuple[str, tuple[str, ...]]] = []
        cut: list[str] = []
        stack = [self.floor]
        while stack:
            n = stack.pop()
            if self.stops_at(n):
                cut.append(n)
                continue
            children = tree.children(n)
            if not children:
                raise InvalidRuleError(f"rule never stops on the path to {n!r}")
            continuation.append((n, children))
            stack.extend(children)
        # reversed preorder lists every node after all of its descendants
        return RuleWalk(self.floor, tuple(reversed(continuation)), tuple(cut))

    def cut(self, tree: EventTree) -> frozenset[str]:
        """The set of nodes at which the rule actually stops."""
        return frozenset(self.walk(tree).cut)

    def continuation_region(self, tree: EventTree) -> frozenset[str]:
        """Nodes the rule passes through without stopping."""
        return frozenset(n for n, _ in self.walk(tree).continuation)


class RuleWalk(NamedTuple):
    """A stopping rule traversed from its floor.

    ``continuation`` pairs each node the rule passes through with its
    children, children first; ``cut`` lists the nodes where it stops.
    """

    floor: str
    continuation: tuple[tuple[str, tuple[str, ...]], ...]
    cut: tuple[str, ...]


def step(q: Sequence[float], d: Iterable[float], values: Iterable[float]) -> float:
    """The one-step continuation sum_c q_c d_c v_c.

    Every one-step expectation of the engine shares one arithmetic order:
    (q_c * d_c) * v_c added left to right from 0.  The oracle's rows come
    from ``_rule_rows``, which keeps that order with partial sums shared
    between rules; every other one-step expectation goes through here.
    Unit ratios or values are passed as ``itertools.repeat(1.0)``;
    multiplying by 1.0 is exact.
    """
    total = 0.0
    for qc, dc, vc in zip(q, d, values):
        total += qc * dc * vc
    return total


def continuing_rows(
    tree: EventTree,
    choices: Callable[[str], Sequence[Sequence[float]]],
    stopped: Callable[[str], float],
    v: str,
) -> dict[str, list[tuple[float, ...]]]:
    """The values of every stopping rule that continues at each decision node
    of the subtree at ``v``: one row per rule, built once for all of them.

    The order of those rules is defined here.  A child offers its immediate
    stop, then its own continuing rules in the order of its rows; the rules
    continuing at ``n`` are the combinations of its children's offers in
    mixed-radix order, the first child varying slowest.  A rule's row holds
    ``step(q, d, combo)`` for each ``d`` in ``choices(n)`` and, inside it,
    each combination ``combo`` of the offered rows, a stop at ``c`` offering
    ``(stopped(c),)``: its value under every selection on the nodes where it
    continues, in mixed-radix order over them in preorder.  Nodes are built
    children before parents, so a child's rows are shared by all its
    parent's; each node's rows come from one ``_rule_rows`` call, bit for bit
    the ``step`` values above.
    """
    rows: dict[str, list[tuple[float, ...]]] = {}
    for n in reversed(tree.decision_nodes(v)):
        q = tree.q_vector(n)
        weights = [[qc * dc for qc, dc in zip(q, d)] for d in choices(n)]
        offers = [[(stopped(c),), *rows.get(c, ())] for c in tree.children(n)]
        rows[n] = _rule_rows(weights, offers)
    return rows


def _rule_rows(
    weights: Sequence[Sequence[float]],
    offers: Sequence[Sequence[Sequence[float]]],
) -> list[tuple[float, ...]]:
    """The rows of ``continuing_rows`` at one node, from the weights
    ``q_c * d_c`` of each choice ``d`` and the children's ``offers``.

    Under each choice the sums run child by child from ``[0.0]``, each
    partial sum ``s`` extended by ``s + w_c * x`` for every ``x`` of every
    offered row: the arithmetic order of ``step``, with the partial sums of
    the first children shared by every rule that makes the same offers
    there.  Each rule's row is then built at once: under each choice in
    turn, every partial sum of its first children plus every term of its
    last child.
    """
    *first, last = offers
    prefixes = []
    for w in weights:
        level = [[0.0]]
        for wc, offer in zip(w, first):
            terms = [[wc * x for x in part] for part in offer]
            level = [[s + t for s in sums for t in part] for sums in level for part in terms]
        prefixes.append(level)
    lasts = [[[w[-1] * x for x in part] for part in last] for w in weights]
    return [
        tuple([s + t for sums, terms in zip(prefix, tail) for s in sums for t in terms])
        for prefix in zip(*prefixes)
        for tail in zip(*lasts)
    ]


def first_entry_rule(
    tree: EventTree, predicate: Callable[[str], bool], v: str
) -> StoppingRule:
    """Stop at the first node at or after ``v`` where ``predicate`` holds.

    Paths on which the predicate never holds stop at the horizon.
    """
    labels: dict[str, bool] = {}
    stack = [v]
    while stack:
        n = stack.pop()
        if tree.is_terminal(n) or predicate(n):
            labels[n] = True
        else:
            labels[n] = False
            stack.extend(tree.children(n))
    return StoppingRule(labels=labels, floor=v)


def stop_at_time_rule(tree: EventTree, t: int, v: str) -> StoppingRule:
    """Stop at the first node with time >= t (deterministic time rule)."""
    return first_entry_rule(tree, lambda n: tree.time(n) >= t, v)


def count_rules(tree: EventTree, v: str, strict: bool = False) -> int:
    """Closed-form count of stopping rules on the subtree at ``v``."""
    free: dict[str, int] = {}
    for n in reversed(tree.subtree(v)):
        prod = 1
        for c in tree.children(n):
            prod *= free[c]
        free[n] = 1 if tree.is_terminal(n) else 1 + prod
    if strict and not tree.is_terminal(v):
        return free[v] - 1
    return free[v]

