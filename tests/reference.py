"""Reference constructions the tests check the package against.

None of these run in the program.  They state the paper's assumptions and
the classical objects it generalises in their plainest form: pasting and
convex mixing of density processes (the class is pasting-stable and convex),
the pathwise algebra of stopping times, reference-measure expectations, the
per-prior Doob split and the orthogonal projection of one increment, the
one-step supermartingale test under every extreme, the strict brute-force
value, and a prior-set validator that also rejects boundary points in
equivalent mode.

They also enumerate what the package only counts or builds rows for: every
stopping rule at a node (``enumerate_rules``), every pure extreme selection
(``extreme_selections``) and the values of one rule under every choice of
ratios (``fold_rows``); they scan rows entry by entry (``strict_scan``);
and they check the structural identities of the value families by that
enumeration (``verify_value_identities``).  The enumerations keep their own
size guards on decision nodes, rules and selections (``guard_rule_count``,
``guard_selection_count``); the package's oracle guards only the floats its
rows hold.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

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
    SizeGuardError,
    StoppingRule,
    bayes_conditional,
    count_rules,
    density_process,
    first_entry_rule,
    selection_count,
    stop_at_time_rule,
)
from robust_snell.decomposition import _project
from robust_snell.filtration import EMPTY_MAPPING, RuleWalk, step
from robust_snell.oracle import _brute_force
from robust_snell.priors import (
    MARTINGALE_TOL,
    MODE_CLOSURE,
    MODE_EQUIVALENT,
    structural_violations,
)
from robust_snell.snell import DEFAULT_TOL, SnellSolution, u_alpha

#: absolute tolerance on z against the cumulative product of its ratios
CUMULATIVE_TOL = 1e-10

#: default bound on a one-step gain in ``doob``, relative to the value (at
#: least 1)
DOOB_TOL = 1e-9

#: bound on an increment's reference mean, relative to its largest entry
#: (at least 1)
MEAN_TOL = 1e-9

#: absolute tolerance of the value identities checked by enumeration
IDENTITY_TOL = 1e-10

#: the fractions alpha whose alpha-rules the value identities are checked at
IDENTITY_ALPHAS = (0.2, 0.4, 0.6, 0.8, 0.95, 1.0)

#: enumeration guard: maximum number of decision (non-terminal) nodes
MAX_DECISION_NODES = 24

#: defensive cap on the number of enumerated stopping rules
MAX_RULES = 200_000

#: enumeration guard on the number of pure extreme selections
MAX_SELECTIONS = 4096


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


def guard_rule_count(tree: EventTree, v: str, strict: bool = False) -> None:
    """Raise SizeGuardError when the subtree at ``v`` has more than
    MAX_DECISION_NODES decision nodes, or else when ``count_rules`` there
    exceeds MAX_RULES."""
    n_decision = len(tree.decision_nodes(v))
    if n_decision > MAX_DECISION_NODES:
        raise SizeGuardError(
            f"subtree at {v!r} has {n_decision} decision nodes "
            f"(guard: {MAX_DECISION_NODES})"
        )
    total = count_rules(tree, v, strict)
    if total > MAX_RULES:
        raise SizeGuardError(f"{total} stopping rules exceed the cap {MAX_RULES}")


def enumerate_rules(tree: EventTree, v: str, strict: bool = False) -> list[StoppingRule]:
    """All stopping rules anchored at ``v``, each exactly once, in a fixed order.

    The order is deterministic: on each subtree the immediate stop comes
    first, followed by the cartesian combinations of child enumerations.
    At a non-terminal ``v`` the strict list is therefore the non-strict one
    without its first rule.  ``guard_rule_count`` runs first.
    """
    guard_rule_count(tree, v, strict)

    def continuing(n: str) -> list[dict[str, bool]]:
        """Labels of the rules that continue at the non-terminal ``n``."""
        combos = []
        for parts in itertools.product(*map(label_sets, tree.children(n))):
            lab = {n: False}
            for part in parts:
                lab.update(part)
            combos.append(lab)
        return combos

    def label_sets(n: str) -> list[dict[str, bool]]:
        return [{n: True}] if tree.is_terminal(n) else [{n: True}, *continuing(n)]

    all_labels = continuing(v) if strict and not tree.is_terminal(v) else label_sets(v)
    return [StoppingRule(labels=lab, floor=v, strict=strict) for lab in all_labels]


def fold_rows(
    walk: RuleWalk,
    q: Callable[[str], Sequence[float]],
    choices: Callable[[str], Sequence[Sequence[float]]],
    stopped: Mapping[str, float],
) -> tuple[float, ...]:
    """Values at the walk's floor under every choice of ratios on its
    continuation nodes.

    A cut node's row is ``(stopped[s],)``; every continuation node, children
    first, takes ``step(q(n), d, combo)`` for each ``d`` in ``choices(n)``
    and, inside it, each combination of its children's rows.  So the floor's
    row lists the value under every selection in mixed-radix order over the
    continuation nodes in preorder, the first node's choice varying slowest.
    Subtree values are shared between selections, never recomputed.  With one
    choice per node the row has one entry: the value of the stopped family
    under those ratios.
    """
    rows: dict[str, tuple[float, ...]] = {s: (y,) for s, y in stopped.items()}
    for n, children in walk.continuation:
        qn = q(n)
        child_rows = [rows[c] for c in children]
        rows[n] = tuple(
            step(qn, d, combo)
            for d in choices(n)
            for combo in itertools.product(*child_rows)
        )
    return rows[walk.floor]


def strict_scan(rows: Sequence[Sequence[float]]) -> tuple[float, int, int]:
    """The first largest entry of ``rows`` with its row and entry index, by
    a strict ``>`` scan from -inf over every entry: ``(-inf, 0, 0)`` when no
    entry exceeds -inf, a NaN never taken, ties to the earlier entry."""
    best, at_k, at_i = float("-inf"), 0, 0
    for k, row in enumerate(rows):
        for i, value in enumerate(row):
            if value > best:
                best, at_k, at_i = value, k, i
    return best, at_k, at_i


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


# -- value identities by enumeration --------------------------------------


class IdentityCheck(NamedTuple):
    name: str
    passed: bool
    worst_deviation: float
    gating: bool
    details: Mapping[str, object] = EMPTY_MAPPING


class IdentityReport(NamedTuple):
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
