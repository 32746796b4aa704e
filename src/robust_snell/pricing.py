"""American knock-in barrier put under drift ambiguity on an unrolled CRR tree.

The payoff activates only once the price path has crossed the barrier, which
makes it path dependent; the tree is therefore unrolled (no recombination)
and each node carries the running barrier flag as a state.  Ambiguity enters
as an interval of one-step up-probabilities around the reference.
"""

from __future__ import annotations

import math
from typing import Mapping, NamedTuple

from .errors import InvalidParamsError, MissingStateError
from .filtration import AdaptedFamily, EventTree, NodeRecord
from .priors import MODE_CLOSURE, PriorSet
from .snell import DEFAULT_TOL, SnellSolution, solve

CROSSED_BELOW = "crossed_below"
CROSSED_ABOVE = "crossed_above"

#: most steps an unrolled tree may have: it holds 2**(steps + 1) - 1 nodes,
#: about two million at 20 steps
MAX_STEPS = 20


class CrrParams(NamedTuple):
    """Parameters of the binomial market and of the knock-in put.

    ``rate`` is a per-period continuously compounded rate; ``q_up`` is the
    reference up-probability and ``ambiguity`` the closed interval of
    admissible up-probabilities.  ``direction`` selects whether the option
    knocks in when the price first reaches the barrier from above
    (``crossed_below``, the default) or from below (``crossed_above``).
    """

    S0: float
    up: float
    down: float
    steps: int
    rate: float
    K: float
    H: float
    direction: str = CROSSED_BELOW
    q_up: float = 0.5
    ambiguity: tuple[float, float] = (0.5, 0.5)

    def validate(self) -> list[str]:
        report = []
        if not 0 < self.S0 < math.inf:
            report.append(f"S0 {self.S0:g} must be positive and finite")
        if not 1 < self.up < math.inf:
            report.append(f"up factor {self.up:g} must exceed 1 and be finite")
        if not 0 < self.down < 1:
            report.append(f"down factor {self.down:g} must lie in (0, 1)")
        if not 1 <= self.steps <= MAX_STEPS:
            report.append(f"steps {self.steps} outside [1, {MAX_STEPS}]")
        if not 0 <= self.rate < math.inf:
            report.append(f"rate {self.rate:g} must be nonnegative and finite")
        if not 0 < self.K < math.inf:
            report.append(f"strike {self.K:g} must be positive and finite")
        if not 0 < self.H < math.inf:
            report.append(f"barrier {self.H:g} must be positive and finite")
        if self.direction not in (CROSSED_BELOW, CROSSED_ABOVE):
            report.append(f"unknown barrier direction {self.direction!r}")
        if not 0 < self.q_up < 1:
            report.append(f"reference up-probability {self.q_up:g} outside (0, 1)")
        lo, hi = self.ambiguity
        if not (0 < lo <= hi < 1):
            report.append(f"ambiguity interval [{lo:g}, {hi:g}] invalid")
        return report


def _require_valid(params: CrrParams) -> None:
    report = params.validate()
    if report:
        raise InvalidParamsError("; ".join(report))


def build_crr_barrier_tree(params: CrrParams) -> EventTree:
    """Unrolled binomial tree with price and barrier-hit states per node.

    The hit state is 1 from the first time the barrier condition holds on the
    path (including time 0) and stays 1 afterwards.
    """
    _require_valid(params)

    def hit_now(price: float) -> bool:
        if params.direction == CROSSED_BELOW:
            return price <= params.H
        return price >= params.H

    records = [
        NodeRecord(
            id="r",
            time=0,
            states={"S": params.S0, "hit": 1.0 if hit_now(params.S0) else 0.0},
        )
    ]
    frontier = [("r", params.S0, hit_now(params.S0))]
    for t in range(1, params.steps + 1):
        next_frontier = []
        for node_id, price, hit in frontier:
            prefix = "" if node_id == "r" else node_id
            for move, factor, prob in (
                ("u", params.up, params.q_up),
                ("d", params.down, 1.0 - params.q_up),
            ):
                child_id = prefix + move
                child_price = price * factor
                if child_price == math.inf:
                    raise InvalidParamsError(
                        f"price at node {child_id!r} overflows "
                        f"(S0 {params.S0:g}, up factor {params.up:g})"
                    )
                child_hit = hit or hit_now(child_price)
                records.append(
                    NodeRecord(
                        id=child_id,
                        time=t,
                        parent=node_id,
                        q=prob,
                        states={"S": child_price, "hit": 1.0 if child_hit else 0.0},
                    )
                )
                next_frontier.append((child_id, child_price, child_hit))
        frontier = next_frontier
    return EventTree(horizon=params.steps, records=records)


def knockin_payoff(tree: EventTree, params: CrrParams) -> AdaptedFamily:
    """Discounted put payoff gated by the barrier-hit state."""
    values = {}
    for n in tree.nodes():
        states = tree.node(n).states
        if "S" not in states or "hit" not in states:
            raise MissingStateError(f"node {n!r} lacks the S or hit state")
        t = tree.time(n)
        values[n] = (
            math.exp(-params.rate * t)
            * max(params.K - states["S"], 0.0)
            * states["hit"]
        )
    return AdaptedFamily(values)


def vanilla_put_payoff(tree: EventTree, params: CrrParams) -> AdaptedFamily:
    """Discounted put payoff without the barrier gate."""
    values = {}
    for n in tree.nodes():
        states = tree.node(n).states
        if "S" not in states:
            raise MissingStateError(f"node {n!r} lacks the S state")
        t = tree.time(n)
        values[n] = math.exp(-params.rate * t) * max(params.K - states["S"], 0.0)
    return AdaptedFamily(values)


def up_probabilities(ambiguity: tuple[float, float]) -> list[float]:
    """The extreme up-probabilities of an interval, one when it is a point."""
    lo, hi = ambiguity
    return [lo] if lo == hi else [lo, hi]


def drift_ambiguity_priors(
    tree: EventTree, params: CrrParams, mode: str = MODE_CLOSURE
) -> PriorSet:
    """Per-node density extremes from the interval of up-probabilities.

    An up-probability p corresponds to the one-step ratio
    (p / q_up, (1 - p) / (1 - q_up)); the interval endpoints give the extreme
    points, collapsing to the single reference ratio when the interval is a
    point at q_up.
    """
    _require_valid(params)
    extremes = [
        (p / params.q_up, (1.0 - p) / (1.0 - params.q_up))
        for p in up_probabilities(params.ambiguity)
    ]
    return PriorSet.constant(tree, extremes, mode=mode)


class PriceResult(NamedTuple):
    hedging_price: float
    exercise_boundary: tuple[str, ...]
    node_up_probability: Mapping[str, float]


def price(
    params: CrrParams, mode: str = MODE_CLOSURE, tol: float = DEFAULT_TOL
) -> PriceResult:
    """Best-case hedging price of the knock-in put over the ambiguity interval.

    The price is the root value of the backward induction; the boundary is
    the set of nodes where the value touches the (knocked-in, discounted)
    payoff, and the prior summary reports the maximizing up-probability per
    decision node.
    """
    tree = build_crr_barrier_tree(params)
    payoff = knockin_payoff(tree, params)
    priors = drift_ambiguity_priors(tree, params, mode=mode)
    solution = solve(tree, payoff, priors, tol=tol)
    return price_from_solution(params, solution)


def price_from_solution(params: CrrParams, solution: SnellSolution) -> PriceResult:
    """Price, exercise boundary and maximizing up-probabilities of a solved tree."""
    tree = solution.tree
    ps = up_probabilities(params.ambiguity)
    node_p = {
        n: ps[solution.argmax_extreme[n]] for n in tree.decision_nodes(tree.root)
    }
    boundary = tuple(n for n in tree.nodes() if n in solution.stop_region)
    return PriceResult(
        hedging_price=solution.R[tree.root],
        exercise_boundary=boundary,
        node_up_probability=node_p,
    )
