"""Property test of the CLI's error contract on mutated run configs.

Every config either runs (exit 0) with strictly finite outputs, or is refused
with exit 2, 3 or 4; no exception escapes ``cli.run``.  Mutations replace a
value (wrong types, NaN, ±inf, finite values near the largest double,
negative numbers, known and unknown node ids), delete a key or list entry,
append a list entry (wrong arity) or rename an object key (an unknown node
id or field).
"""

import copy
import csv
import json
import math
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from robust_snell import fixtures
from robust_snell.cli import run

BASES = {
    name: json.loads(fixtures.config_path(name).read_text())
    for name in ("tt1", "tt3", "tt4")
}
# extreme j at every decision node is 1/q_j on child j and 0 elsewhere
BASES["tt4corner"] = copy.deepcopy(BASES["tt4"])
BASES["tt4corner"]["priors"]["node_extremes"] = {
    n: [[2.0, 0.0], [0.0, 2.0]] for n in ("r", "u", "d")
}
BASES["crr3"] = {
    "crr": {
        "S0": 4.0, "up": 2.0, "down": 0.5, "steps": 3, "rate": 0.0, "K": 5.0,
        "H": 4.0, "q_up": 0.5, "ambiguity": [0.25, 0.75],
    },
    "alphas": [0.5, 1.0],
}

ODD_VALUES = [
    math.nan, math.inf, -math.inf, 1.7e308, -1.7e308, 1e-308, -1.0, 0.0, 2, 2.5,
    True, None, "x", "zz", "r", "u", "d", "ud", "b", "c", [], [1.0], {}, {"a": 1},
]


def paths(value, prefix=()):
    """Every path from the root of a JSON value to one of its parts."""
    if isinstance(value, dict):
        for key, part in value.items():
            yield prefix + (key,)
            yield from paths(part, prefix + (key,))
    elif isinstance(value, list):
        for i, part in enumerate(value):
            yield prefix + (i,)
            yield from paths(part, prefix + (i,))


PATHS = {name: list(paths(config)) for name, config in BASES.items()}


def mutate(config, kind, path, value):
    """Apply one mutation in place; a path an earlier mutation removed is skipped."""
    holder = config
    try:
        for key in path[:-1]:
            holder = holder[key]
        key = path[-1]
        holder[key]
    except (KeyError, IndexError, TypeError):
        return
    if not isinstance(holder, (dict, list)):
        return
    if kind == "set":
        holder[key] = copy.deepcopy(value)
    elif kind == "delete":
        del holder[key]
    elif kind == "append":
        if isinstance(holder[key], list):
            holder[key].append(copy.deepcopy(holder[key][-1]) if holder[key] else value)
    elif isinstance(holder, dict):  # rename
        holder["zz"] = holder.pop(key)


@st.composite
def cases(draw):
    name = draw(st.sampled_from(sorted(BASES)))
    mutation = st.tuples(
        st.sampled_from(["set", "set", "delete", "append", "rename"]),
        st.sampled_from(PATHS[name]),
        st.sampled_from(ODD_VALUES),
    )
    return name, draw(st.lists(mutation, min_size=1, max_size=3))


# rewards at r and u near the largest double: the decomposition's drift
# overflows along r -> u -> uu although every input is finite
OVERFLOW = (
    "tt4",
    [
        ("set", ("tree", "nodes", i, "Y"), 1.7e308 if i < 2 else 0.0)
        for i in range(7)
    ],
)

# extreme 0 at r leaves d without mass; z* must charge it through extreme 1
NULL_MASS_V = ("tt4corner", [("set", ("v",), "d")])

# rewards near 1e7: the decomposition's increments carry rounding of that
# size, which a mean guard scaled by the increment once took for a fault
LARGE_REWARDS = (
    "tt3",
    [
        ("set", ("tree", "nodes", i, "Y"), y)
        for i, y in enumerate((1e7, 1e7 + 0.74, 1e7, 1e7 + 0.37))
    ],
)

ID_COLUMNS = {"node_id", "parent_id"}


def reject_constant(name):
    raise AssertionError(f"summary.json holds {name}")


@settings(max_examples=120, deadline=None)
@example(case=OVERFLOW)
@example(case=NULL_MASS_V)
@example(case=LARGE_REWARDS)
@given(case=cases())
def test_every_config_exits_cleanly(case):
    name, mutations = case
    config = copy.deepcopy(BASES[name])
    for mutation in mutations:
        mutate(config, *mutation)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(config))
        for command in ("solve", "oracle", "decompose"):
            out = Path(tmp) / command
            code = run([command, "--config", str(path), "--out", str(out)])
            assert code in (0, 2, 3, 4)
            if code != 0:
                assert not (out / "summary.json").exists()
                assert not (out / "nodes.csv").exists()
                continue
            json.loads((out / "summary.json").read_text(), parse_constant=reject_constant)
            with open(out / "nodes.csv", newline="") as fh:
                for row in csv.DictReader(fh):
                    for column, field in row.items():
                        if column not in ID_COLUMNS:
                            assert field.lstrip("-") not in ("inf", "nan"), (column, row)
