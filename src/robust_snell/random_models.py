"""Seeded random instances for oracle crosschecks and property suites.

Uses the stdlib Mersenne generator so that a given seed reproduces the same
instance on any platform.  Instances stay far within the size guard of the
brute-force oracle by construction.
"""

from __future__ import annotations

import itertools
import random

from .filtration import AdaptedFamily, EventTree, NodeRecord, step
from .pricing import CROSSED_ABOVE, CROSSED_BELOW, CrrParams
from .priors import PriorSet

#: self-imposed cap on extreme selections, which keeps the oracle's rows small
_SELECTION_BUDGET = 512


def random_instance(
    seed: int, single_prior: bool = False
) -> tuple[EventTree, AdaptedFamily, PriorSet]:
    """One random tree of 1 to 3 periods, with 2 or 3 children and 1 to 3
    extremes per node, a nonnegative reward and a valid prior set."""
    rng = random.Random(seed)
    periods = rng.randint(1, 3)
    records = [NodeRecord(id="n0", time=0)]
    payoff = {"n0": round(rng.uniform(0.0, 5.0), 6)}
    frontier = ["n0"]
    counter = 1
    for t in range(1, periods + 1):
        next_frontier = []
        for parent in frontier:
            # bias deep trees toward binary branching to keep rule counts small
            k = rng.randint(2, 2 if periods == 3 else 3)
            raw = [rng.uniform(0.15, 1.0) for _ in range(k)]
            total = sum(raw)
            for i in range(k):
                node_id = f"n{counter}"
                counter += 1
                records.append(
                    NodeRecord(id=node_id, time=t, parent=parent, q=raw[i] / total)
                )
                payoff[node_id] = round(rng.uniform(0.0, 5.0), 6)
                next_frontier.append(node_id)
        frontier = next_frontier
    tree = EventTree(horizon=periods, records=records)

    extreme_points: dict[str, list[tuple[float, ...]]] = {}
    budget = _SELECTION_BUDGET
    for n in tree.decision_nodes(tree.root):
        q = tree.q_vector(n)
        k = len(q)
        if single_prior:
            n_ext = 1
            extreme_points[n] = [tuple(1.0 for _ in range(k))]
            continue
        n_ext = rng.randint(1, 3)
        while n_ext > 1 and budget // n_ext < 1:
            n_ext -= 1
        budget = max(1, budget // max(1, n_ext))
        extremes = []
        for _ in range(n_ext):
            raw = [rng.uniform(0.05, 1.0) for _ in range(k)]
            norm = step(q, raw, itertools.repeat(1.0))
            extremes.append(tuple(rc / norm for rc in raw))
        extreme_points[n] = extremes
    priors = PriorSet(extreme_points=extreme_points)
    return tree, AdaptedFamily(payoff), priors


def random_crr_params(seed: int) -> CrrParams:
    """One random parameter set for the barrier put, of 1 to 3 steps."""
    rng = random.Random(seed)
    s0 = rng.uniform(1.0, 10.0)
    lo = rng.uniform(0.1, 0.85)
    hi = rng.uniform(lo, 0.9)
    return CrrParams(
        S0=s0,
        up=rng.uniform(1.1, 3.0),
        down=rng.uniform(0.2, 0.9),
        steps=rng.randint(1, 3),
        rate=rng.uniform(0.0, 0.1),
        K=rng.uniform(0.5 * s0, 2.0 * s0),
        H=rng.uniform(0.2 * s0, 1.5 * s0),
        direction=rng.choice([CROSSED_BELOW, CROSSED_ABOVE]),
        q_up=rng.uniform(0.2, 0.8),
        ambiguity=(lo, hi),
    )
