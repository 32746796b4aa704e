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
)
from .filtration import (
    AdaptedFamily,
    EventTree,
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

#: extremes whose continuation value is within this much of the best, relative
#: to the best (at least 1), tie for the maximum in equivalent mode
TIE_TOL = 1e-12


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


@dataclass(frozen=True)
class SnellSolution:
    """Output of the backward induction.

    ``stop_region`` collects the nodes where the value touches the reward
    (within a relative tolerance); ``argmax_extreme`` records, per decision
    node, the lowest-index extreme attaining the continuation supremum.
    ``attained`` reports whether every per-node supremum is attained inside
    the configured prior mode.
    """

    tree: EventTree
    R: AdaptedFamily
    R_plus: AdaptedFamily
    argmax_extreme: Mapping[str, int]
    stop_region: frozenset[str]
    attained: bool
    attained_at: Mapping[str, bool] = field(default_factory=dict)
    tol: float = DEFAULT_TOL


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
    family_report = validate_family(tree, payoff, require_nonnegative=True)
    if family_report:
        raise InvalidFamilyError("; ".join(family_report))
    prior_report = structural_violations(tree, priors)
    if prior_report:
        raise InvalidPriorSetError("; ".join(prior_report))

    R: dict[str, float] = {}
    R_plus: dict[str, float] = {}
    argmax: dict[str, int] = {}
    attained_at: dict[str, bool] = {}

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
        best_idx = values.index(best)
        R_plus[n] = best
        R[n] = max(payoff[n], best)
        argmax[n] = best_idx
        if priors.mode == MODE_CLOSURE:
            attained_at[n] = True
        else:
            tie_tol = TIE_TOL * max(1.0, abs(best))
            maximizers = [d for d, v in zip(extremes, values) if v >= best - tie_tol]
            # the maximizing face contains a strictly positive ratio iff every
            # coordinate is positive on at least one maximizer
            attained_at[n] = all(
                any(d[i] > 0 for d in maximizers) for i in range(len(children))
            )

    stop_region = frozenset(
        n for n in tree.nodes() if _close(R[n], payoff[n], tol)
    )
    return SnellSolution(
        tree=tree,
        R=AdaptedFamily(R),
        R_plus=AdaptedFamily(R_plus),
        argmax_extreme=argmax,
        stop_region=stop_region,
        attained=all(attained_at.values()) if attained_at else True,
        attained_at=attained_at,
        tol=tol,
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


def u_alpha(
    solution: SnellSolution, payoff: AdaptedFamily, v: str, alpha: float
) -> StoppingRule:
    """First time the reward covers the fraction ``alpha`` of the value.

    With alpha = 1 this is the candidate optimal time: the first entry into
    the region where the value equals the reward.
    """
    if not 0.0 < alpha <= 1.0:
        raise InvalidParamsError(f"alpha {alpha:g} outside (0, 1]")
    tree = solution.tree
    tol = solution.tol

    def reward_covers(n: str) -> bool:
        r = solution.R[n]
        return alpha * r <= payoff[n] + tol * max(1.0, abs(r))

    return first_entry_rule(tree, reward_covers, v)


def u_star(solution: SnellSolution, payoff: AdaptedFamily, v: str) -> StoppingRule:
    """First entry after ``v`` into the region where the value equals the reward."""
    return u_alpha(solution, payoff, v, 1.0)


def extract_optimal_prior(
    solution: SnellSolution, tree: EventTree, priors: PriorSet, v: str
) -> DensityProcess:
    """A density process attaining the value at ``v`` along the optimal time.

    Chooses the recorded maximizing extreme wherever the optimal time keeps
    going, and extreme 0 elsewhere.  In equivalent mode, ties are mixed
    uniformly so the selected ratios stay strictly positive whenever the
    supremum is attained at all.
    """
    if not solution.attained:
        bad = [n for n, ok in solution.attained_at.items() if not ok]
        raise UnattainedSupremumError(
            f"supremum unattained in equivalent mode at nodes {bad}; "
            f"sup value at {v!r} is {solution.R[v]:.17g}",
            supremum=solution.R[v],
        )
    # payoff only matters through the stop region already recorded in the
    # solution, so the optimal-time walk can reuse it directly
    rule = first_entry_rule(tree, lambda n: n in solution.stop_region, v)
    continuation = rule.continuation_region(tree)
    selection: dict[str, object] = {}
    for n in tree.decision_nodes(tree.root):
        if n not in continuation:
            selection[n] = 0
            continue
        if priors.mode == MODE_CLOSURE:
            selection[n] = solution.argmax_extreme[n]
        else:
            extremes = priors.extremes(n)
            q = tree.q_vector(n)
            child_values = [solution.R[c] for c in tree.children(n)]
            values = [step(q, d, child_values) for d in extremes]
            best = max(values)
            tie_tol = TIE_TOL * max(1.0, abs(best))
            winners = [i for i, val in enumerate(values) if val >= best - tie_tol]
            weight = 1.0 / len(winners)
            selection[n] = tuple(
                weight if i in winners else 0.0 for i in range(len(extremes))
            )
    return density_process(tree, priors, selection)


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
    tree: EventTree,
    payoff: AdaptedFamily,
    priors: PriorSet,
    rule: StoppingRule,
    process: DensityProcess,
    tol: float = DEFAULT_TOL,
    solution: SnellSolution | None = None,
) -> CertificateReport:
    """Test a (rule, prior) pair; ``solution`` reuses a backward induction
    already run on the same inputs instead of solving again."""
    v = rule.floor
    if solution is None:
        solution = solve(tree, payoff, priors, tol=tol)
    R = solution.R
    walk = rule.walk(tree)
    cond1 = all(
        process.z.get(s, 0.0) <= 0 or _close(R[s], payoff[s], tol) for s in walk.cut
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


def _best_over_selections(
    tree: EventTree,
    priors: PriorSet,
    family: AdaptedFamily,
    rule: StoppingRule,
    v: str,
) -> float:
    """Max over pure extreme selections of the conditional stopped value."""
    best = float("-inf")
    for sel in extreme_selections(tree, priors, v):
        best = max(best, bayes_conditional(tree, density_process(tree, priors, sel), family, rule, v))
    return best


def _strict_rules_after(
    tree: EventTree, tau: StoppingRule, v: str
) -> list[StoppingRule]:
    """Rules stopping strictly after ``tau`` where it stops before the horizon.

    On each path such a rule passes through every node where ``tau``
    continues and every stop of ``tau`` before the horizon, so one walk of
    ``tau`` lists the nodes at which the rule must not stop.
    """
    walk = tau.walk(tree)
    passed = [n for n, _ in walk.continuation]
    passed += [s for s in walk.cut if tree.time(s) < tree.horizon]
    return [
        sigma for sigma in enumerate_rules(tree, v) if not any(map(sigma.stops_at, passed))
    ]


def _repasted_supremum(
    tree: EventTree,
    payoff: AdaptedFamily,
    priors: PriorSet,
    base: DensityProcess,
    tau: StoppingRule,
    later: Sequence[StoppingRule],
    v: str,
) -> float:
    """Best reward over the strictly-later stops ``later`` when the prior may
    be re-chosen from ``tau`` on but must follow ``base`` before it."""
    forced = tau.continuation_region(tree)
    nodes = tree.decision_nodes(v)
    q = {n: tree.q_vector(n) for n in nodes}
    choices = {
        n: (base.ratio_at(n),) if n in forced else priors.extremes(n) for n in nodes
    }
    best = float("-inf")
    for sigma in later:
        walk = sigma.walk(tree)
        stopped = {s: payoff[s] for s in walk.cut}
        best = max(best, *fold_rows(walk, q.__getitem__, choices.__getitem__, stopped))
    return best


def verify_value_identities(
    tree: EventTree,
    payoff: AdaptedFamily,
    priors: PriorSet,
    solution: SnellSolution,
    alphas: Sequence[float] = (0.2, 0.4, 0.6, 0.8, 0.95, 1.0),
    measures: Sequence[DensityProcess] | None = None,
    taus: Sequence[StoppingRule] | None = None,
    v: str | None = None,
    tol: float = 1e-10,
) -> IdentityReport:
    """Verify the structural identities of the value families by enumeration.

    Checks, in order:

    - the value equals the max of the reward and the strict value at every
      node (exact recursion identity);
    - for each alpha, the value at every node equals the best conditional
      value of itself stopped at the alpha-rule;
    - the tower identity for the strict value: its conditional expectation
      under a fixed prior up to a stop equals the best reward over strictly
      later stops when the prior may be re-chosen afterwards;
    - the same identity with the prior held fixed throughout, which fails in
      general under genuine ambiguity and is reported (not gated) with both
      sides.
    """
    v = tree.root if v is None else v
    if measures is None:
        measures = [DensityProcess.reference(tree)]
        for sel in extreme_selections(tree, priors, tree.root)[:8]:
            measures.append(density_process(tree, priors, sel))
    if taus is None:
        taus = [
            stop_at_time_rule(tree, t, v)
            for t in range(tree.time(v), tree.horizon + 1)
        ]

    checks: list[IdentityCheck] = []

    # value is the max of reward and strict value, node by node
    dev_max = max(
        abs(solution.R[n] - max(payoff[n], solution.R_plus[n])) for n in tree.nodes()
    )
    checks.append(
        IdentityCheck(
            name="value_is_max_of_reward_and_strict_value",
            passed=dev_max <= tol,
            worst_deviation=dev_max,
            gating=True,
        )
    )

    # value equals the best continuation to the alpha-rule, all nodes, all alphas
    dev_alpha = 0.0
    worst_detail: dict[str, object] = {}
    for alpha in alphas:
        for n in tree.nodes():
            rule = u_alpha(solution, payoff, n, alpha)
            lhs = solution.R[n]
            rhs = _best_over_selections(tree, priors, solution.R, rule, n)
            dev = abs(lhs - rhs)
            if dev > dev_alpha:
                dev_alpha = dev
                worst_detail = {"alpha": alpha, "node": n, "lhs": lhs, "rhs": rhs}
    checks.append(
        IdentityCheck(
            name="value_equals_best_continuation_to_alpha_rule",
            passed=dev_alpha <= tol,
            worst_deviation=dev_alpha,
            gating=True,
            details=worst_detail,
        )
    )

    # tower identity for the strict value, with and without re-chosen priors
    dev_tower = 0.0
    tower_detail: dict[str, object] = {}
    literal_entries: list[dict[str, float]] = []
    literal_dev = 0.0
    later_rules = [_strict_rules_after(tree, tau, v) for tau in taus]
    for base in measures:
        if base.z.get(v, 0.0) == 0.0:
            continue
        for tau, later in zip(taus, later_rules):
            lhs = bayes_conditional(tree, base, solution.R_plus, tau, v)
            rhs = _repasted_supremum(tree, payoff, priors, base, tau, later, v)
            dev = abs(lhs - rhs)
            if dev > dev_tower:
                dev_tower = dev
                tower_detail = {"lhs": lhs, "rhs": rhs}
            rhs_literal = max(
                bayes_conditional(tree, base, payoff, sigma, v) for sigma in later
            )
            literal_entries.append({"lhs": lhs, "rhs": rhs_literal})
            literal_dev = max(literal_dev, abs(lhs - rhs_literal))
    checks.append(
        IdentityCheck(
            name="strict_value_tower_with_repasted_priors",
            passed=dev_tower <= tol,
            worst_deviation=dev_tower,
            gating=True,
            details=tower_detail,
        )
    )
    checks.append(
        IdentityCheck(
            name="strict_value_tower_with_fixed_prior",
            passed=literal_dev <= tol,
            worst_deviation=literal_dev,
            gating=False,
            details={"entries": tuple(literal_entries)},
        )
    )
    return IdentityReport(checks=tuple(checks))
