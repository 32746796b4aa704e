"""Ground-truth brute force for the double supremum over rules and priors.

Values are computed from the definition, by exhaustive enumeration of
stopping rules crossed with pure extreme-point selections, never by the
backward-induction recursion they are used to check.
"""

from __future__ import annotations

from dataclasses import dataclass

from .filtration import (
    AdaptedFamily,
    EventTree,
    StoppingRule,
    enumerate_rules,
    fold,
)
from .priors import PriorSet, extreme_selections
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

    Ties are broken by enumeration order: rules outer, selections inner.
    """
    return _brute_force(tree, payoff, priors, v, strict=False)


def brute_force_strict_value(
    tree: EventTree, payoff: AdaptedFamily, priors: PriorSet, v: str
) -> float:
    """Same supremum over rules that must continue at a non-terminal ``v``."""
    return _brute_force(tree, payoff, priors, v, strict=True).value


def _brute_force(
    tree: EventTree,
    payoff: AdaptedFamily,
    priors: PriorSet,
    v: str,
    strict: bool,
) -> BruteForceResult:
    rules = enumerate_rules(tree, v, strict=strict)
    # ratios outside the subtree at v cannot affect a value there, so only
    # the selections below v are enumerated
    selections = extreme_selections(tree, priors, v)
    # walk each rule and look up q and extremes once, outside the selection
    # loop that dominates the cost
    q = {n: tree.q_vector(n) for n in tree.decision_nodes(v)}
    extremes = {n: priors.extremes(n) for n in q}
    best_value = float("-inf")
    best_rule = rules[0]
    best_sel = selections[0]
    for rule in rules:
        walk = rule.walk(tree)
        stopped = {s: payoff[s] for s in walk.cut}
        for sel in selections:
            value = fold(walk, q.__getitem__, lambda n: extremes[n][sel[n]], stopped)
            if value > best_value:
                best_value = value
                best_rule = rule
                best_sel = sel
    return BruteForceResult(value=best_value, best_rule=best_rule, best_selection=best_sel)


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
        dev_r = abs(solution.R[n] - brute_force_value(tree, payoff, priors, n).value)
        dev_rp = abs(
            solution.R_plus[n] - brute_force_strict_value(tree, payoff, priors, n)
        )
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
