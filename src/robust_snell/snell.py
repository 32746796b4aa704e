"""Best-case value families on event trees and their optimal stopping objects.

The value family R is the smallest family dominating the reward that is a
supermartingale simultaneously under every prior in the class.  For a
pasting-stable class it satisfies the one-step recursion

    R(n) = max(Y(n), max over extreme ratios d of  sum_c q_c d_c R(c)),

with R = Y at the horizon.  The strict family R_plus drops the immediate
stop.  The recursion is validated elsewhere against the brute-force double
supremum, which is its definition.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple, Sequence

from .errors import (
    InvalidFamilyError,
    InvalidParamsError,
    InvalidPriorSetError,
    InvalidTreeError,
    UnattainedSupremumError,
    UndefinedConditionalError,
)
from .filtration import (
    AdaptedFamily,
    EventTree,
    StoppingRule,
    first_entry_rule,
    step,
    validate_family,
    validate_tree,
)
from .priors import (
    MODE_CLOSURE,
    DensityProcess,
    PriorSet,
    bayes_conditional,
    structural_violations,
)

#: default absolute floor of the relative comparison tolerance
DEFAULT_TOL = 1e-9

#: extremes whose continuation value is within this much of the best, relative
#: to the best (at least 1), tie for the maximum in equivalent mode
TIE_TOL = 1e-12


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def _covers(r: float, y: float, tol: float, alpha: float = 1.0) -> bool:
    """Whether the reward ``y`` covers the fraction ``alpha`` of the value
    ``r``; for r >= y >= 0 and alpha = 1, exactly ``_close(r, y, tol)``."""
    return alpha * r - y <= tol * max(1.0, abs(r))


def _maximizers(
    extremes: Sequence[tuple[float, ...]], values: Sequence[float]
) -> list[tuple[float, ...]]:
    """The extremes whose continuation value ties for the maximum."""
    best = max(values)
    tie_tol = TIE_TOL * max(1.0, abs(best))
    return [d for d, v in zip(extremes, values) if v >= best - tie_tol]


class SnellSolution(NamedTuple):
    """Output of the backward induction, with the validated inputs it came
    from: ``payoff``, ``priors`` and the tolerance ``tol``.

    ``stop_region`` collects the nodes where the value touches the reward
    (within a relative tolerance); ``argmax_extreme`` records, per decision
    node, the lowest-index extreme attaining the continuation supremum.
    ``unattained`` lists, in the order ``solve`` visits them, the decision
    nodes whose supremum is not attained inside the configured prior mode.
    """

    tree: EventTree
    payoff: AdaptedFamily
    priors: PriorSet
    tol: float
    R: AdaptedFamily
    R_plus: AdaptedFamily
    argmax_extreme: Mapping[str, int]
    stop_region: frozenset[str]
    unattained: tuple[str, ...]

    @property
    def attained(self) -> bool:
        """Whether every per-node supremum is attained in the prior mode."""
        return not self.unattained


def validate_inputs(tree: EventTree, payoff: AdaptedFamily, priors: PriorSet) -> None:
    """Raise InvalidTreeError, InvalidFamilyError or InvalidPriorSetError,
    joining every violation found, unless the tree, the reward and the prior
    set are valid, checked in that order."""
    tree_report = validate_tree(tree)
    if tree_report:
        raise InvalidTreeError("; ".join(tree_report))
    family_report = validate_family(tree, payoff)
    if family_report:
        raise InvalidFamilyError("; ".join(family_report))
    prior_report = structural_violations(tree, priors)
    if prior_report:
        raise InvalidPriorSetError("; ".join(prior_report))


def solve(
    tree: EventTree,
    payoff: AdaptedFamily,
    priors: PriorSet,
    tol: float = DEFAULT_TOL,
) -> SnellSolution:
    """Backward induction for the best-case value and strict value families."""
    validate_inputs(tree, payoff, priors)
    R: dict[str, float] = {}
    R_plus: dict[str, float] = {}
    argmax: dict[str, int] = {}
    unattained: list[str] = []

    for n in tree.nodes_by_time(descending=True):
        if tree.is_terminal(n):
            R[n] = payoff[n]
            R_plus[n] = payoff[n]
            continue
        children = tree.children(n)
        q = tree.q_vector(n)
        child_values = [R[c] for c in children]
        extremes = priors.extremes(n)
        values = [step(q, d, child_values) for d in extremes]
        best = max(values)
        R_plus[n] = best
        R[n] = max(payoff[n], best)
        argmax[n] = values.index(best)
        # in equivalent mode, the maximizing face contains a strictly positive
        # ratio iff every coordinate is positive on at least one maximizer
        if priors.mode != MODE_CLOSURE and not all(
            any(x > 0 for x in column) for column in zip(*_maximizers(extremes, values))
        ):
            unattained.append(n)

    stop_region = frozenset(n for n in tree.nodes() if _covers(R[n], payoff[n], tol))
    return SnellSolution(
        tree=tree,
        payoff=payoff,
        priors=priors,
        tol=tol,
        R=AdaptedFamily(R),
        R_plus=AdaptedFamily(R_plus),
        argmax_extreme=argmax,
        stop_region=stop_region,
        unattained=tuple(unattained),
    )


def u_alpha(solution: SnellSolution, v: str, alpha: float) -> StoppingRule:
    """First time at or after ``v`` that the reward covers the fraction
    ``alpha`` of the value: alpha * R - Y <= tol * max(1, |R|).

    With alpha = 1 this is the test ``solve`` decides its stop region by, so
    the rule is the candidate optimal time: the first entry into
    ``solution.stop_region``.
    """
    if not 0.0 < alpha <= 1.0:
        raise InvalidParamsError(f"alpha {alpha:g} outside (0, 1]")
    R, payoff, tol = solution.R, solution.payoff, solution.tol
    return first_entry_rule(
        solution.tree, lambda n: _covers(R[n], payoff[n], tol, alpha), v
    )


def u_star(solution: SnellSolution, v: str) -> StoppingRule:
    """First entry at or after ``v`` into ``solution.stop_region``, the
    region where the value equals the reward."""
    return u_alpha(solution, v, 1.0)


def extract_optimal_prior(solution: SnellSolution, v: str) -> DensityProcess:
    """A density process attaining the value at ``v`` along the optimal time.

    Where the optimal time from ``v`` keeps going (the nodes it reaches
    outside ``solution.stop_region`` and before the horizon) the ratio is the
    recorded maximizing extreme; in equivalent mode, the uniform mixture of
    the tied maximizers, so the ratios stay strictly positive whenever the
    supremum is attained at all.  On the strict ancestors of ``v`` it is the
    first extreme that charges the path to ``v``, and extreme 0 elsewhere.

    Raises UndefinedConditionalError, naming ``v`` and the ancestor, when no
    extreme at some ancestor charges the path: then no model of the class
    charges ``v``.
    """
    if solution.unattained:
        bad = list(solution.unattained)
        raise UnattainedSupremumError(
            f"supremum unattained in equivalent mode at nodes {bad}; "
            f"sup value at {v!r} is {solution.R[v]:.17g}",
            supremum=solution.R[v],
        )
    tree, priors = solution.tree, solution.priors
    # node -> the extremes mixed uniformly there
    chosen: dict[str, Sequence[tuple[float, ...]]] = {}
    n = v
    while (parent := tree.parent(n)) is not None:
        i = tree.children(parent).index(n)
        chosen[parent] = [d for d in priors.extremes(parent) if d[i] > 0][:1]
        if not chosen[parent]:
            raise UndefinedConditionalError(
                f"no model of the class charges evaluation node {v!r}: "
                f"no extreme at its ancestor {parent!r} charges the path to it"
            )
        n = parent
    stack = [v]
    while stack:
        n = stack.pop()
        if n in solution.stop_region or tree.is_terminal(n):
            continue
        extremes = priors.extremes(n)
        children = tree.children(n)
        if priors.mode == MODE_CLOSURE:
            chosen[n] = [extremes[solution.argmax_extreme[n]]]
        else:
            q = tree.q_vector(n)
            child_values = [solution.R[c] for c in children]
            values = [step(q, d, child_values) for d in extremes]
            chosen[n] = _maximizers(extremes, values)
        stack.extend(children)
    ratios = {}
    for n in solution.argmax_extreme:
        ds = chosen.get(n) or priors.extremes(n)[:1]
        w = 1.0 / len(ds)
        # summed from 0, so a -0.0 component comes out as 0.0
        ratios[n] = tuple(sum(w * x for x in column) for column in zip(*ds))
    return DensityProcess.from_ratios(tree, ratios)


class CertificateReport(NamedTuple):
    """Necessary-and-sufficient optimality certificate for a (rule, prior) pair.

    ``cond1``: the value equals the reward at every stop node carrying
    positive mass under the candidate prior.  ``cond2``: the value is a
    martingale under the candidate prior along every path up to the stop.
    The pair is optimal exactly when both hold, equivalently when ``value``
    equals ``value_target``.
    """

    optimal: bool
    cond1: bool
    cond2: bool
    value: float
    value_target: float


def check_optimality_certificate(
    solution: SnellSolution, rule: StoppingRule, process: DensityProcess
) -> CertificateReport:
    """Test a (rule, prior) pair against the solved value family, with the
    tolerance its stop region was decided with."""
    v = rule.floor
    tree, payoff, R, tol = solution.tree, solution.payoff, solution.R, solution.tol
    walk = rule.walk(tree)
    cond1 = all(
        process.z.get(s, 0.0) <= 0 or _covers(R[s], payoff[s], tol) for s in walk.cut
    )
    cond2 = all(
        process.z.get(n, 0.0) <= 0
        or _close(
            step(tree.q_vector(n), process.ratio_at(n), [R[c] for c in children]),
            R[n],
            tol,
        )
        for n, children in walk.continuation
    )
    value = bayes_conditional(tree, process, payoff, rule, v)
    return CertificateReport(
        optimal=cond1 and cond2,
        cond1=cond1,
        cond2=cond2,
        value=value,
        value_target=R[v],
    )
