"""Ground-truth brute force for the double supremum over rules and priors.

Values are computed from the definition, never by the backward-induction
recursion they are used to check: every stopping rule that continues at a
node is evaluated under every pure extreme-point selection of the nodes
where that rule continues (a selection where it has stopped cannot change
its value), and the maximum is taken only over the complete values at the
node.  That gives the strict value R_plus; the stopping times at a node are
the immediate stop and the strictly later ones, so R is the larger of the
reward and R_plus, taken from the same enumeration.

The rows of these values are built once, children before parents
(``filtration.continuing_rows``): a rule that continues at a node combines
its children's rules, so each child's rows are computed once and shared by
every rule and selection above it, and one pass from the root gives the rows
of every node, each node's from one call of a partial-sum kernel.  The best
entry is found row by row with ``max`` and ``index``, as a strict ``>``
scan would find it.  The winning rule and selection are decoded from their
row and entry index, so the order of the rules is defined there alone.  The
one size guard, ``guard_entry_count``, counts the floats that the rows of
the starting node and of every node below it hold together, before any row
is built.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .errors import SizeGuardError
from .filtration import AdaptedFamily, EventTree, StoppingRule, continuing_rows
from .priors import PriorSet
from .snell import solve, validate_inputs

#: the one size guard: the floats that the rows of the starting node and of
#: every node below it hold together, since every node's rows are kept.
#: Cold CLI ``oracle`` runs just under the cap on 64-bit CPython 3.11 peaked
#: at 194 MB in 3.6 s on a 2047-step chain (2,096,128 floats in one-float
#: rows) and at 150 MB in 1.0 s on a 50-node tree whose root holds
#: 2,031,250 of its 2,031,292 floats
MAX_ENTRIES = 2**21


class BruteForceResult(NamedTuple):
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
    at a non-terminal ``v``, from one scan of the latter's rows.

    ``strict`` sets only the class of the returned rule; no guard counts it,
    since both suprema come from the same rows.  The inputs are validated as
    ``solve`` validates them before the guard runs.
    """
    validate_inputs(tree, payoff, priors)
    guard_entry_count(tree, priors, v)
    nodes = tree.decision_nodes(v)
    extremes = {n: priors.extremes(n) for n in nodes}
    rows = continuing_rows(tree, extremes.__getitem__, payoff.__getitem__, v)
    # the one rule at a terminal v stops there
    value, k, i = _scan(rows.get(v, [(payoff[v],)]))
    rule = _rule_at(tree, rows, v, k, strict)
    later = BruteForceResult(
        value=value,
        best_rule=rule,
        best_selection=_selection_at(nodes, rule.walk(tree).continuation, extremes, i),
    )
    stop = BruteForceResult(
        # as in a strict ``>`` scan from -inf, a NaN reward is never taken
        value=max(float("-inf"), payoff[v]),
        best_rule=StoppingRule(labels={v: True}, floor=v),
        best_selection=dict.fromkeys(nodes, 0),
    )
    return (later if later.value > stop.value else stop), later


def guard_entry_count(tree: EventTree, priors: PriorSet, v: str) -> None:
    """Raise SizeGuardError, naming a node and a count, when the
    ``continuing_rows`` of the subtree at ``v`` would hold more than
    MAX_ENTRIES floats in all.

    The rows at a decision node ``n`` hold E(n) = |extremes(n)| * prod over
    children c of (1 + E(c)) floats, E being 0 at a terminal node, and every
    node's rows are kept.  Nodes are counted children before parents into a
    running total, which stops at the first node that takes it over the cap.
    """
    entries: dict[str, int] = {}
    total = 0
    for n in reversed(tree.decision_nodes(v)):
        count = len(priors.extremes(n))
        for c in tree.children(n):
            count *= 1 + entries.get(c, 0)
        total += count
        if total > MAX_ENTRIES:
            raise SizeGuardError(
                f"the oracle's rows hold {total} floats once node {n!r} is "
                f"counted (guard: {MAX_ENTRIES})"
            )
        entries[n] = count


def _scan(rows: Sequence[Sequence[float]]) -> tuple[float, int, int]:
    """The first largest entry of ``rows`` by a strict ``>`` scan from -inf,
    with its row and entry index; ``(-inf, 0, 0)`` when no entry exceeds
    -inf, so a NaN is never taken.  Ties go to the earlier rule, then the
    earlier selection.

    Each row's largest entry is found by ``max`` and located by ``index``,
    both scanning left to right with strict comparisons; ``max`` returns a
    NaN only when the row starts with one, and that row is then scanned
    entry by entry.
    """
    best, at_k, at_i = float("-inf"), 0, 0
    for k, row in enumerate(rows):
        top = max(row)
        if top != top:
            for i, value in enumerate(row):
                if value > best:
                    best, at_k, at_i = value, k, i
        elif top > best:
            best, at_k, at_i = top, k, row.index(top)
    return best, at_k, at_i


def _rule_at(
    tree: EventTree,
    rows: dict[str, list[tuple[float, ...]]],
    v: str,
    k: int,
    strict: bool,
) -> StoppingRule:
    """The rule of row ``k`` of ``rows[v]``, or at a terminal ``v`` the one
    rule there, which stops at ``v``.

    ``k`` is decoded in mixed radix over the children, the last varying
    fastest, each child ``c`` with radix ``1 + len(rows[c])``: digit 0 stops
    at ``c``, and digit j continues there with the rule of row j - 1 of
    ``rows[c]``.  Labels are set in preorder from ``v``.
    """
    labels: dict[str, bool] = {}
    stack = [(v, k + 1 if v in rows else 0)]
    while stack:
        n, j = stack.pop()
        labels[n] = not j
        if j:
            k = j - 1
            for c in reversed(tree.children(n)):
                k, digit = divmod(k, 1 + len(rows.get(c, ())))
                stack.append((c, digit))
    return StoppingRule(labels=labels, floor=v, strict=strict)


def _selection_at(
    nodes: tuple[str, ...],
    continuation: tuple[tuple[str, tuple[str, ...]], ...],
    extremes: dict[str, Sequence[tuple[float, ...]]],
    index: int,
) -> dict[str, int]:
    """Decode entry ``index`` of the ``continuing_rows`` row of a rule whose
    walk has ``continuation`` into a selection on ``nodes``.

    Nodes where the rule stops or that it never reaches get extreme 0, so the
    result is the first selection, in mixed-radix order over ``nodes``, that
    gives the rule this value.
    """
    continuing = {n for n, _ in continuation}
    selection = dict.fromkeys(nodes, 0)
    for n in reversed([n for n in nodes if n in continuing]):
        index, selection[n] = divmod(index, len(extremes[n]))
    return selection


class CrosscheckReport(NamedTuple):
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
    """Compare backward-induction values against brute force at every node.

    The rows of every node come from one pass from the root, so the guard
    counts the floats of the whole tree's rows before that pass.
    """
    if solution is None:
        solution = solve(tree, payoff, priors)
    nodes = tree.nodes()
    guard_entry_count(tree, priors, tree.root)
    rows = continuing_rows(tree, priors.extremes, payoff.__getitem__, tree.root)
    max_r = 0.0
    max_rp = 0.0
    worst = nodes[0]
    for n in nodes:
        # both as strict ``>`` scans from -inf, so neither is NaN
        stop = max(float("-inf"), payoff[n])
        later = _scan(rows.get(n, [(payoff[n],)]))[0]
        dev_r = abs(solution.R[n] - max(stop, later))
        dev_rp = abs(solution.R_plus[n] - later)
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
