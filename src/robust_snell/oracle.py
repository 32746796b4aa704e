"""Ground-truth brute force for the double supremum over rules and priors.

Values are computed from the definition, never by the backward-induction
recursion they are used to check: every stopping rule that continues at a
node is evaluated under every pure extreme-point selection of the nodes
where that rule continues (a selection where it has stopped cannot change
its value), and the maximum is taken only over the complete values at the
node.  That gives the strict value R_plus; the stopping times at a node are
the immediate stop and the strictly later ones, so R is the larger of the
reward and R_plus, taken from the same enumeration.  The values of a rule's
subtrees are shared between the selections that agree on them
(``filtration.fold_rows``) instead of being recomputed for each one.  The
size guards are those of ``enumerate_rules`` followed by the
``MAX_SELECTIONS`` guard on every selection below the node.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .filtration import (
    AdaptedFamily,
    EventTree,
    StoppingRule,
    enumerate_rules,
    fold_rows,
)
from .priors import PriorSet, guard_selection_count
from .snell import solve


@dataclass(frozen=True)
class BruteForceResult:
    value: float
    best_rule: StoppingRule
    best_selection: dict[str, int]


def brute_force_value(
    tree: EventTree, payoff: AdaptedFamily, priors: PriorSet, v: str
) -> BruteForceResult:
    """Max over all stopping rules at ``v`` and all extreme selections.

    The immediate stop is weighed against the best rule that continues at
    ``v``, so R(v) = max(Y(v), R_plus(v)) comes from the strict enumeration.
    Ties are broken by enumeration order: the immediate stop first, then
    rules outer, selections inner.
    """
    return _brute_force(tree, payoff, priors, v, strict=False)[0]


def _brute_force(
    tree: EventTree,
    payoff: AdaptedFamily,
    priors: PriorSet,
    v: str,
    strict: bool,
) -> tuple[BruteForceResult, BruteForceResult]:
    """The suprema at ``v`` over every rule and over the rules that continue
    at a non-terminal ``v``, from one enumeration and fold of the latter.

    ``strict`` selects the class whose size the rule cap counts.
    """
    rules = enumerate_rules(tree, v, strict=strict)
    # ratios outside the subtree at v cannot affect a value there, so only
    # the selections below v are counted against the guard
    guard_selection_count(tree, priors, v)
    if not (strict or tree.is_terminal(v)):
        rules = rules[1:]
    nodes = tree.decision_nodes(v)
    q = {n: tree.q_vector(n) for n in nodes}
    extremes = {n: priors.extremes(n) for n in nodes}
    best_value = float("-inf")
    best_rule = rules[0]
    best_continuation: tuple[tuple[str, tuple[str, ...]], ...] = ()
    best_index = 0
    for rule in rules:
        walk = rule.walk(tree)
        row = fold_rows(
            walk, q.__getitem__, extremes.__getitem__, {s: payoff[s] for s in walk.cut}
        )
        for i, value in enumerate(row):
            if value > best_value:
                best_value = value
                best_rule = rule
                best_continuation = walk.continuation
                best_index = i
    later = BruteForceResult(
        value=best_value,
        best_rule=best_rule,
        best_selection=_selection_at(nodes, best_continuation, extremes, best_index),
    )
    stop = BruteForceResult(
        # as in a strict ``>`` scan from -inf, a NaN reward is never taken
        value=max(float("-inf"), payoff[v]),
        best_rule=StoppingRule(labels={v: True}, floor=v),
        best_selection=dict.fromkeys(nodes, 0),
    )
    return (later if later.value > stop.value else stop), later


def _selection_at(
    nodes: tuple[str, ...],
    continuation: tuple[tuple[str, tuple[str, ...]], ...],
    extremes: dict[str, Sequence[tuple[float, ...]]],
    index: int,
) -> dict[str, int]:
    """Decode a ``fold_rows`` index of a walk with ``continuation`` into a
    selection on ``nodes``.

    Nodes where the rule stops or that it never reaches get extreme 0, so the
    result is the first selection, in ``extreme_selections`` order, that
    gives the rule this value.
    """
    continuing = {n for n, _ in continuation}
    selection = dict.fromkeys(nodes, 0)
    for n in reversed([n for n in nodes if n in continuing]):
        index, selection[n] = divmod(index, len(extremes[n]))
    return selection


@dataclass(frozen=True)
class CrosscheckReport:
    max_deviation_R: float
    max_deviation_R_plus: float
    nodes_checked: int
    worst_node: str

    @property
    def max_deviation(self) -> float:
        return max(self.max_deviation_R, self.max_deviation_R_plus)


def crosscheck(
    tree: EventTree,
    payoff: AdaptedFamily,
    priors: PriorSet,
    solution=None,
) -> CrosscheckReport:
    """Compare backward-induction values against brute force at every node."""
    if solution is None:
        solution = solve(tree, payoff, priors)
    nodes = tree.nodes()
    max_r = 0.0
    max_rp = 0.0
    worst = nodes[0]
    for n in nodes:
        plain, later = _brute_force(tree, payoff, priors, n, strict=False)
        dev_r = abs(solution.R[n] - plain.value)
        dev_rp = abs(solution.R_plus[n] - later.value)
        if max(dev_r, dev_rp) > max(max_r, max_rp):
            worst = n
        max_r = max(max_r, dev_r)
        max_rp = max(max_rp, dev_rp)
    return CrosscheckReport(
        max_deviation_R=max_r,
        max_deviation_R_plus=max_rp,
        nodes_checked=len(nodes),
        worst_node=worst,
    )
