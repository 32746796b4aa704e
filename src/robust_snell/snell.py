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

from dataclasses import dataclass, field
from typing import Mapping, Sequence

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
    RuleWalk,
    StoppingRule,
    enumerate_rules,
    first_entry_rule,
    fold_rows,
    step,
    stop_at_time_rule,
    validate_family,
    validate_tree,
)
from .priors import (
    MODE_CLOSURE,
    DensityProcess,
    PriorSet,
    bayes_conditional,
    density_process,
    extreme_selections,
    structural_violations,
)

#: default absolute floor of the relative comparison tolerance
DEFAULT_TOL = 1e-9

#: absolute tolerance of the value identities checked by enumeration
IDENTITY_TOL = 1e-10

#: the fractions alpha whose alpha-rules the value identities are checked at
IDENTITY_ALPHAS = (0.2, 0.4, 0.6, 0.8, 0.95, 1.0)

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


@dataclass(frozen=True)
class SnellSolution:
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


def solve(
    tree: EventTree,
    payoff: AdaptedFamily,
    priors: PriorSet,
    tol: float = DEFAULT_TOL,
) -> SnellSolution:
    """Backward induction for the best-case value and strict value families."""
    tree_report = validate_tree(tree)
    if tree_report:
        raise InvalidTreeError("; ".join(tree_report))
    family_report = validate_family(tree, payoff)
    if family_report:
        raise InvalidFamilyError("; ".join(family_report))
    prior_report = structural_violations(tree, priors)
    if prior_report:
        raise InvalidPriorSetError("; ".join(prior_report))

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


def gamma(
    tree: EventTree,
    payoff: AdaptedFamily,
    process: DensityProcess,
    rule: StoppingRule,
    v: str,
) -> float:
    """Conditional expected stopped reward under one prior (Bayes rule)."""
    return bayes_conditional(tree, process, payoff, rule, v)


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


@dataclass(frozen=True)
class CertificateReport:
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
    value = gamma(tree, payoff, process, rule, v)
    return CertificateReport(
        optimal=cond1 and cond2,
        cond1=cond1,
        cond2=cond2,
        value=value,
        value_target=R[v],
    )


@dataclass(frozen=True)
class IdentityCheck:
    name: str
    passed: bool
    worst_deviation: float
    gating: bool
    details: Mapping[str, object] = field(default_factory=dict)


@dataclass(frozen=True)
class IdentityReport:
    checks: tuple[IdentityCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks if c.gating)

    def check(self, name: str) -> IdentityCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def verify_value_identities(solution: SnellSolution) -> IdentityReport:
    """Verify the structural identities of the value families by enumeration.

    Each check compares to ``IDENTITY_TOL`` from the root.  Checks, in order:

    - the value equals the max of the reward and the strict value at every
      node (exact recursion identity);
    - for each alpha in ``IDENTITY_ALPHAS``, the value at every node equals
      the best conditional value of itself stopped at the alpha-rule;
    - the tower identity for the strict value: its conditional expectation
      under a fixed prior up to a stop equals the best reward over strictly
      later stops when the prior may be re-chosen afterwards;
    - the same identity with the prior held fixed throughout, which fails in
      general under genuine ambiguity and is reported (not gated) with both
      sides.

    Raises SizeGuardError when the root has more than ``MAX_SELECTIONS``
    extreme selections.  No subtree has more: ``solve`` gave every decision
    node at least one extreme.
    """
    tree, payoff, priors = solution.tree, solution.payoff, solution.priors
    v = tree.root
    measures = [DensityProcess.reference(tree)]
    for sel in extreme_selections(tree, priors, v)[:8]:
        measures.append(density_process(tree, priors, sel))
    taus = [stop_at_time_rule(tree, t, v) for t in range(tree.horizon + 1)]

    checks: list[IdentityCheck] = []

    # value is the max of reward and strict value, node by node
    dev_max = max(
        abs(solution.R[n] - max(payoff[n], solution.R_plus[n])) for n in tree.nodes()
    )
    checks.append(
        IdentityCheck(
            name="value_is_max_of_reward_and_strict_value",
            passed=dev_max <= IDENTITY_TOL,
            worst_deviation=dev_max,
            gating=True,
        )
    )

    # value equals the best continuation to the alpha-rule, all nodes, all alphas
    dev_alpha = 0.0
    worst_detail: dict[str, object] = {}
    for alpha in IDENTITY_ALPHAS:
        for n in tree.nodes():
            # the best over pure extreme selections of R stopped at the rule
            walk = u_alpha(solution, n, alpha).walk(tree)
            stopped = {s: solution.R[s] for s in walk.cut}
            lhs = solution.R[n]
            rhs = max(float("-inf"), *fold_rows(walk, tree.q_vector, priors.extremes, stopped))
            dev = abs(lhs - rhs)
            if dev > dev_alpha:
                dev_alpha = dev
                worst_detail = {"alpha": alpha, "node": n, "lhs": lhs, "rhs": rhs}
    checks.append(
        IdentityCheck(
            name="value_equals_best_continuation_to_alpha_rule",
            passed=dev_alpha <= IDENTITY_TOL,
            worst_deviation=dev_alpha,
            gating=True,
            details=worst_detail,
        )
    )

    # tower identity for the strict value, with and without re-chosen priors:
    # the rules stopping strictly after tau, where tau stops before the
    # horizon, are those whose cut holds none of tau's continuation nodes
    # and none of its earlier stops
    nodes = tree.decision_nodes(v)
    q = {n: tree.q_vector(n) for n in nodes}
    walks: list[tuple[RuleWalk, dict[str, float]]] | None = None
    later_walks = []
    for tau in taus:
        tau_walk = tau.walk(tree)
        if walks is None:
            # the rules at v, enumerated and walked once, when a tau needs them
            walks = [
                (walk, {s: payoff[s] for s in walk.cut})
                for walk in (sigma.walk(tree) for sigma in enumerate_rules(tree, v))
            ]
        forced = frozenset(n for n, _ in tau_walk.continuation)
        passed = forced.union(s for s in tau_walk.cut if tree.time(s) < tree.horizon)
        later_walks.append((forced, [w for w in walks if passed.isdisjoint(w[1])]))
    dev_tower = 0.0
    tower_detail: dict[str, object] = {}
    literal_entries: list[dict[str, float]] = []
    literal_dev = 0.0
    for base in measures:
        if base.z.get(v, 0.0) == 0.0:
            continue
        for tau, (forced, later) in zip(taus, later_walks):
            lhs = bayes_conditional(tree, base, solution.R_plus, tau, v)
            fixed = {n: (base.ratio_at(n),) for n in nodes}
            # re-pasted: base before tau, any extreme from tau on
            choices = {n: fixed[n] if n in forced else priors.extremes(n) for n in nodes}
            rhs = float("-inf")
            literal = []
            for walk, stopped in later:
                rhs = max(rhs, *fold_rows(walk, q.__getitem__, choices.__getitem__, stopped))
                literal.append(fold_rows(walk, q.__getitem__, fixed.__getitem__, stopped)[0])
            dev = abs(lhs - rhs)
            if dev > dev_tower:
                dev_tower = dev
                tower_detail = {"lhs": lhs, "rhs": rhs}
            rhs_literal = max(literal)
            literal_entries.append({"lhs": lhs, "rhs": rhs_literal})
            literal_dev = max(literal_dev, abs(lhs - rhs_literal))
    checks.append(
        IdentityCheck(
            name="strict_value_tower_with_repasted_priors",
            passed=dev_tower <= IDENTITY_TOL,
            worst_deviation=dev_tower,
            gating=True,
            details=tower_detail,
        )
    )
    checks.append(
        IdentityCheck(
            name="strict_value_tower_with_fixed_prior",
            passed=literal_dev <= IDENTITY_TOL,
            worst_deviation=literal_dev,
            gating=False,
            details={"entries": tuple(literal_entries)},
        )
    )
    return IdentityReport(checks=tuple(checks))
