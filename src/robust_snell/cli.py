"""Command line interface: config ingestion, dispatch, bit-exact emission.

Subcommands: ``solve``, ``oracle``, ``decompose``, ``price``.  Every run
writes ``<out>/summary.json`` and ``<out>/nodes.csv``.  All numeric output is
printed with 17 significant digits so results round-trip exactly; identical
configs produce byte-identical outputs.

Usage: ``robust-snell COMMAND --config PATH [--out DIR]`` (see ``_HELP``).

Exit codes: 0 success or ``--help``, 2 a usage error (an argument list
outside that grammar) or an invalid configuration (a value that is missing,
of the wrong type or not finite, an evaluation node no model of the class
charges, or a result too large to be finite), 3 enumeration size guard
exceeded, 4 unattained supremum in equivalent mode.
"""

from __future__ import annotations

import csv
import gc
import json
import math
import sys
from pathlib import Path
from typing import Mapping, NamedTuple, NoReturn, Sequence

from .decomposition import flat_off_check, universal_decompose
from .errors import (
    ConfigError,
    InvalidFamilyError,
    InvalidParamsError,
    InvalidPriorSetError,
    InvalidRuleError,
    InvalidTreeError,
    NonFiniteValueError,
    SizeGuardError,
    UnattainedSupremumError,
    UndefinedConditionalError,
)
from .filtration import AdaptedFamily, EventTree, NodeRecord, validate_tree
from .oracle import crosscheck, guard_entry_count
from .pricing import (
    CrrParams,
    build_crr_barrier_tree,
    drift_ambiguity_priors,
    knockin_payoff,
    price_from_solution,
    up_probabilities,
)
from .priors import MODE_CLOSURE, MODE_EQUIVALENT, PriorSet
from .snell import (
    DEFAULT_TOL,
    SnellSolution,
    check_optimality_certificate,
    extract_optimal_prior,
    solve,
    u_alpha,
    u_star,
    validate_inputs,
)

CSV_COLUMNS = [
    "node_id",
    "time",
    "parent_id",
    "q",
    "state_S",
    "state_hit",
    "Y",
    "R",
    "R_plus",
    "stop",
    "u_star_stop",
    "argmax_extreme",
    "z_star",
    "M",
    "C",
    "K",
    "A_q",
]


class RunConfig(NamedTuple):
    """Parsed and validated run configuration."""

    tree: EventTree
    payoff: AdaptedFamily
    priors: PriorSet
    alphas: tuple[float, ...]
    v: str
    tolerance: float
    seed: int
    crr: CrrParams | None = None


def _fmt(x: float) -> str:
    """The one number rule of both output files: the float ``x`` equals, to
    17 significant digits, so that it round-trips; a flag prints as 1 or 0."""
    return "%.17g" % x


#: the string quoting ``json.dumps`` applies under its default settings
_quote = json.encoder.encode_basestring_ascii


def _json_value(value, indent: int, key: str = "") -> str:
    pad = " " * indent
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise NonFiniteValueError(f"summary field {key!r} is {value!r}")
        return _fmt(value)
    if isinstance(value, str):
        return _quote(value)
    if value is None:
        return "null"
    if isinstance(value, Mapping):
        if not value:
            return "{}"
        parts = [
            f"{pad}  {_quote(str(k))}: {_json_value(v, indent + 2, str(k))}"
            for k, v in value.items()
        ]
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        parts = [f"{pad}  {_json_value(v, indent + 2, key)}" for v in value]
        return "[\n" + ",\n".join(parts) + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(value)!r}")


def write_summary(outdir: Path, summary: Mapping[str, object]) -> None:
    """Write ``summary.json``; raises NonFiniteValueError, writing nothing,
    if any float in ``summary`` is NaN or infinite (strict JSON has neither)."""
    text = _json_value(summary, 0) + "\n"
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "summary.json").write_text(text, encoding="utf-8")


def _require_finite_columns(columns: Mapping[str, Mapping[str, object]]) -> None:
    """Raise NonFiniteValueError, naming the column and the node, if a value
    in ``columns`` is NaN or infinite."""
    for name, col in columns.items():
        if not all(map(math.isfinite, col.values())):
            n = next(n for n, value in col.items() if not math.isfinite(value))
            raise NonFiniteValueError(
                f"nodes.csv column {name!r} is {col[n]!r} at node {n!r}"
            )


def write_nodes_csv(
    outdir: Path,
    tree: EventTree,
    columns: Mapping[str, Mapping[str, object]],
) -> None:
    """Emit one row per node in tree order; missing fields are left empty.

    Every number, flags and indices included, is printed by ``_fmt``.  Raises
    NonFiniteValueError, writing nothing, if a column holds a NaN or an
    infinity.  The tree's own fields (edge probabilities and states) are
    checked where the tree is parsed or built.
    """
    _require_finite_columns(columns)
    cols = [columns.get(name, {}) for name in CSV_COLUMNS[6:]]
    outdir.mkdir(parents=True, exist_ok=True)
    with open(outdir / "nodes.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for n in tree.nodes():
            rec = tree.node(n)
            numbers = [rec.q, rec.states.get("S"), rec.states.get("hit")]
            numbers += [col.get(n) for col in cols]
            writer.writerow([
                n, _fmt(rec.time), rec.parent or "",
                *["" if x is None else _fmt(x) for x in numbers],
            ])


def _write_outputs(
    outdir: Path,
    tree: EventTree,
    summary: Mapping[str, object],
    columns: Mapping[str, Mapping[str, object]],
) -> None:
    """Write ``summary.json`` and ``nodes.csv``, or neither when either would
    hold a NaN or an infinity: the columns are checked before the summary is
    written, and ``write_summary`` checks the summary before it writes."""
    _require_finite_columns(columns)
    write_summary(outdir, summary)
    write_nodes_csv(outdir, tree, columns)


# -- config parsing -----------------------------------------------------


def _number(value: object, what: str) -> float:
    """``float(value)`` of a JSON number (not a boolean) if that is finite,
    else a ConfigError naming ``what``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{what}: {value!r} is not a number")
    try:
        x = float(value)
    except OverflowError:  # an int beyond the float range
        x = math.inf
    if not math.isfinite(x):
        raise ConfigError(f"{what}: {value!r} is not finite")
    return x


def _integer(value: object, what: str) -> int:
    """``int(value)`` of an int (not a boolean) or of a float with no
    fractional part, which ``int`` would truncate, else a ConfigError naming
    ``what``."""
    if isinstance(value, bool) or not (
        isinstance(value, int) or isinstance(value, float) and value.is_integer()
    ):
        raise ConfigError(f"{what}: {value!r} is not an integer")
    return int(value)


def _string(value: object, what: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{what}: {value!r} is not a string")
    return value


def _object(value: object, what: str) -> Mapping:
    if not isinstance(value, Mapping):
        raise ConfigError(f"{what} must be an object, got {value!r}")
    return value


def _list(value: object, what: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"{what} must be a list, got {value!r}")
    return value


def _parse_tree_block(block: Mapping) -> tuple[EventTree, AdaptedFamily]:
    try:
        horizon = _integer(block["horizon"], "tree horizon")
        node_dicts = _list(block["nodes"], "tree nodes")
    except KeyError as exc:
        raise ConfigError(f"tree block missing horizon or nodes: {exc}") from exc
    records = []
    payoff = {}
    for nd in node_dicts:
        try:
            node_id = _string(nd["id"], "node id")
            time = _integer(nd["time"], f"node {node_id!r} time")
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"node entry missing id or time: {nd!r}") from exc
        if "Y" not in nd:
            raise ConfigError(f"node {node_id!r} has no payoff value Y")
        where = f"node {node_id!r}"
        parent = nd.get("parent")
        if parent is not None and not isinstance(parent, str):
            raise ConfigError(f"{where} parent must be a node id, got {parent!r}")
        states = _object(nd.get("states", {}), f"{where} states")
        records.append(
            NodeRecord(
                id=node_id,
                time=time,
                parent=parent,
                q=_number(nd["q"], f"{where} q") if "q" in nd else None,
                states={k: _number(v, f"{where} state {k!r}") for k, v in states.items()},
            )
        )
        payoff[node_id] = _number(nd["Y"], f"{where} Y")
    try:
        tree = EventTree(horizon=horizon, records=records)
    except InvalidTreeError as exc:
        raise ConfigError(str(exc)) from exc
    report = validate_tree(tree)
    if report:
        raise ConfigError("; ".join(report))
    return tree, AdaptedFamily(payoff)


def _parse_priors_block(block: Mapping, tree: EventTree, mode: str) -> PriorSet:
    if "node_extremes" in block:
        mapping = _object(block["node_extremes"], "node_extremes")
        pts = {}
        for node_id, extremes in mapping.items():
            if node_id not in tree:
                raise ConfigError(f"priors reference unknown node {node_id!r}")
            where = f"priors at node {node_id!r}"
            pts[node_id] = [
                tuple(_number(x, f"{where} ratio") for x in _list(d, f"{where} extreme"))
                for d in _list(extremes, where)
            ]
        return PriorSet(extreme_points=pts, mode=mode)
    if "interval_up_probability" in block:
        interval = block["interval_up_probability"]
        try:
            lo = _number(interval["lo"], "interval_up_probability lo")
            hi = _number(interval["hi"], "interval_up_probability hi")
        except (KeyError, TypeError) as exc:
            raise ConfigError("interval_up_probability needs lo and hi") from exc
        if not (0 < lo <= hi < 1):
            raise ConfigError(f"up-probability interval [{lo:g}, {hi:g}] invalid")
        ps = up_probabilities((lo, hi))
        pts = {}
        for n in tree.decision_nodes(tree.root):
            children = tree.children(n)
            if len(children) != 2:
                raise ConfigError(
                    f"interval_up_probability requires binary nodes; node {n!r} "
                    f"has {len(children)} children"
                )
            q1, q2 = tree.q_vector(n)
            pts[n] = [(p / q1, (1.0 - p) / q2) for p in ps]
        return PriorSet(extreme_points=pts, mode=mode)
    raise ConfigError("priors block needs node_extremes or interval_up_probability")


def parse_config(path: str | Path) -> RunConfig:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except ValueError as exc:  # malformed, or an integer too long to convert
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be an object")

    has_tree = "tree" in raw
    has_crr = "crr" in raw
    if has_tree == has_crr:
        raise ConfigError("config must contain exactly one of: tree, crr")

    mode = raw.get("mode", MODE_CLOSURE)
    if mode not in (MODE_CLOSURE, MODE_EQUIVALENT):
        raise ConfigError(f"unknown mode {mode!r}")
    alphas = tuple(_number(a, "alpha") for a in _list(raw.get("alphas", []), "alphas"))
    for a in alphas:
        if not 0 < a <= 1:
            raise ConfigError(f"alpha {a:g} outside (0, 1]")
    tolerance = _number(raw.get("tolerance", DEFAULT_TOL), "tolerance")
    if tolerance <= 0:
        raise ConfigError(f"tolerance {tolerance:g} must be positive")
    seed = _integer(raw.get("seed", 0), "seed")

    crr_params = None
    if has_crr:
        if "priors" in raw:
            raise ConfigError("priors block is not allowed with a crr block")
        block = _object(raw["crr"], "crr block")
        ambiguity = _list(block.get("ambiguity", [0.5, 0.5]), "crr ambiguity")
        if len(ambiguity) != 2:
            raise ConfigError(f"crr ambiguity needs [lo, hi], got {ambiguity!r}")
        try:
            crr_params = CrrParams(
                S0=_number(block["S0"], "crr S0"),
                up=_number(block["up"], "crr up"),
                down=_number(block["down"], "crr down"),
                steps=_integer(block["steps"], "bad crr block: steps"),
                rate=_number(block.get("rate", 0.0), "crr rate"),
                K=_number(block["K"], "crr K"),
                H=_number(block["H"], "crr H"),
                direction=block.get("direction", "crossed_below"),
                q_up=_number(block.get("q_up", 0.5), "crr q_up"),
                ambiguity=tuple(_number(x, "crr ambiguity") for x in ambiguity),
            )
        except KeyError as exc:
            raise ConfigError(f"bad crr block: {exc}") from exc
        tree = build_crr_barrier_tree(crr_params)
        payoff = knockin_payoff(tree, crr_params)
        priors = drift_ambiguity_priors(tree, crr_params, mode=mode)
    else:
        tree, payoff = _parse_tree_block(_object(raw["tree"], "tree block"))
        if "priors" not in raw:
            raise ConfigError("config with an explicit tree needs a priors block")
        priors = _parse_priors_block(_object(raw["priors"], "priors block"), tree, mode)

    v = _string(raw.get("v", tree.root), "evaluation node v")
    if v not in tree:
        raise ConfigError(f"evaluation node {v!r} not in tree")
    return RunConfig(
        tree=tree,
        payoff=payoff,
        priors=priors,
        alphas=alphas,
        v=v,
        tolerance=tolerance,
        seed=seed,
        crr=crr_params,
    )


# -- commands -----------------------------------------------------------


def _rule_stop_list(tree: EventTree, cut: frozenset[str]) -> list[str]:
    return [n for n in tree.nodes() if n in cut]


def _solve_columns(cfg: RunConfig, solution, cut_star, z_star):
    """The engine's own mappings as CSV columns; ``cut_star`` is u*'s cut."""
    tree = cfg.tree
    columns: dict[str, Mapping[str, object]] = {
        "Y": solution.payoff.values,
        "R": solution.R.values,
        "R_plus": solution.R_plus.values,
        "stop": {n: (n in solution.stop_region) for n in tree.nodes()},
        "argmax_extreme": solution.argmax_extreme,
    }
    if cut_star is not None:
        columns["u_star_stop"] = {n: (n in cut_star) for n in tree.subtree(cfg.v)}
    if z_star is not None:
        columns["z_star"] = z_star.z
    return columns


def cmd_solve(cfg: RunConfig, solution: SnellSolution) -> tuple[dict, dict]:
    rule_star = u_star(solution, cfg.v)
    cut_star = rule_star.cut(cfg.tree)
    z_star = extract_optimal_prior(solution, cfg.v)
    certificate = check_optimality_certificate(solution, rule_star, z_star)
    star_stops = _rule_stop_list(cfg.tree, cut_star)
    alpha_stops = {}
    for a in cfg.alphas:
        if a == 1.0:  # u_alpha at alpha = 1 is u*
            alpha_stops[_fmt(a)] = star_stops
        else:
            cut = u_alpha(solution, cfg.v, a).cut(cfg.tree)
            alpha_stops[_fmt(a)] = _rule_stop_list(cfg.tree, cut)
    fields = {
        "v": cfg.v,
        "R_root": solution.R[cfg.tree.root],
        "R_plus_root": solution.R_plus[cfg.tree.root],
        "R_v": solution.R[cfg.v],
        "R_plus_v": solution.R_plus[cfg.v],
        "attained": solution.attained,
        "U_star_stops": star_stops,
        "u_alpha_stops": alpha_stops,
        "certificate": certificate._asdict(),
    }
    return fields, _solve_columns(cfg, solution, cut_star, z_star)


def cmd_oracle(cfg: RunConfig, solution: SnellSolution) -> tuple[dict, dict]:
    report = crosscheck(cfg.tree, cfg.payoff, cfg.priors, solution=solution)
    fields = {
        "max_deviation": report.max_deviation,
        "max_deviation_R": report.max_deviation_R,
        "max_deviation_R_plus": report.max_deviation_R_plus,
        "nodes_checked": report.nodes_checked,
    }
    return fields, _solve_columns(cfg, solution, None, None)


def cmd_decompose(cfg: RunConfig, solution: SnellSolution) -> tuple[dict, dict]:
    rule_star = u_star(solution, cfg.v)
    decomp = universal_decompose(solution)
    flat = flat_off_check(decomp, cfg.tree, rule_star)
    diag = decomp.diagnostics
    fields = {
        "v": cfg.v,
        "X0": decomp.X0,
        "C_increasing": diag.C_increasing,
        "min_delta_C": diag.min_delta_C,
        "universal_martingale_residual": diag.universal_martingale_residual,
        "scaling_closed": diag.premise.scaling_closed_all,
        "flat_off": flat,
    }
    columns = _solve_columns(cfg, solution, rule_star.cut(cfg.tree), None)
    columns["M"] = decomp.M.values
    columns["C"] = decomp.C.values
    columns["K"] = decomp.K.values
    columns["A_q"] = decomp.A_q.values
    return fields, columns


def cmd_price(cfg: RunConfig, solution: SnellSolution) -> tuple[dict, dict]:
    cut_star = u_star(solution, cfg.v).cut(cfg.tree)
    z_star = extract_optimal_prior(solution, cfg.v)
    result = price_from_solution(cfg.crr, solution)
    fields = {
        "H_S": result.hedging_price,
        "exercise_boundary": result.exercise_boundary,
        "optimal_prior_summary": result.node_up_probability,
        "attained": solution.attained,
    }
    return fields, _solve_columns(cfg, solution, cut_star, z_star)


#: each command turns the solved run into its summary fields and CSV columns
_COMMANDS = {
    "solve": cmd_solve,
    "oracle": cmd_oracle,
    "decompose": cmd_decompose,
    "price": cmd_price,
}

_CONFIG_ERRORS = (
    ConfigError,
    InvalidTreeError,
    InvalidFamilyError,
    InvalidPriorSetError,
    InvalidParamsError,
    InvalidRuleError,
    UndefinedConditionalError,
)


_USAGE = "usage: robust-snell {solve,oracle,decompose,price} --config PATH [--out DIR]\n"

_HELP = _USAGE + """
Best-case optimal stopping under model uncertainty on event trees.

commands:
  solve          value families, stopping rules, optimal prior, certificate
  oracle         brute-force crosscheck of the backward induction
  decompose      universal martingale-minus-drift decomposition
  price          knock-in barrier put under drift ambiguity

options:
  -h, --help     show this help and exit
  --config PATH  path to the JSON run config
  --out DIR      output directory (default: out)

An option takes its value as --config PATH or --config=PATH; a value after a
space may not start with "-", except "-" itself.  If an option is repeated,
the last one counts.  A usage error exits 2.
"""


def _usage_error(message: str) -> NoReturn:
    sys.stderr.write(f"{_USAGE}robust-snell: error: {message}\n")
    raise SystemExit(2)


def _parse_argv(argv: Sequence[str]) -> tuple[str, str, str]:
    """``(command, config, out)`` from ``COMMAND --config PATH [--out DIR]``:
    the command comes first, an option is named in full and takes its value
    after a space or an ``=``, and the last of a repeated option wins.

    ``-h`` or ``--help`` prints ``_HELP`` and exits 0.  A usage error raises
    SystemExit(2) through ``_usage_error``: at once for a missing or unknown
    command, ``--`` or a missing value, and at the end for any other
    argument or a missing ``--config``, so a later ``-h`` still prints the
    help.
    """
    command, stray = None, []
    values = {"--config": None, "--out": "out"}
    args = iter(argv)
    for arg in args:
        if arg in ("-h", "--help"):
            sys.stdout.write(_HELP)
            raise SystemExit(0)
        if arg == "--":
            _usage_error("unexpected argument '--'")
        if command is None:
            if arg not in _COMMANDS:
                _usage_error(f"unknown command {arg!r}; choose from {', '.join(_COMMANDS)}")
            command = arg
            continue
        name, eq, value = arg.partition("=")
        if name not in values:
            stray.append(arg)
            continue
        if not eq:
            value = next(args, None)
            if value is None or value.startswith("-") and value != "-":
                _usage_error(f"{name} needs a value")
        values[name] = value
    if command is None:
        _usage_error("a command is required")
    if stray:
        _usage_error(f"unrecognized arguments: {' '.join(stray)}")
    if values["--config"] is None:
        _usage_error("--config is required")
    return command, values["--config"], values["--out"]


def run(argv: Sequence[str]) -> int:
    command, config, out = _parse_argv(argv)
    try:
        cfg = parse_config(config)
        if command == "price" and cfg.crr is None:
            raise ConfigError("the price command needs a crr block")
        if command == "oracle":
            # refuse a tree too large for the oracle before solving it, but
            # after validation, so an invalid input still exits 2
            validate_inputs(cfg.tree, cfg.payoff, cfg.priors)
            guard_entry_count(cfg.tree, cfg.priors, cfg.tree.root)
        solution = solve(cfg.tree, cfg.payoff, cfg.priors, tol=cfg.tolerance)
        fields, columns = _COMMANDS[command](cfg, solution)
        summary = {
            "command": command, "seed": cfg.seed, "mode": cfg.priors.mode, **fields
        }
        _write_outputs(Path(out), cfg.tree, summary, columns)
        return 0
    except _CONFIG_ERRORS as exc:
        print(f"robust-snell: invalid configuration: {exc}", file=sys.stderr)
        return 2
    except NonFiniteValueError as exc:
        print(f"robust-snell: non-finite result: {exc}", file=sys.stderr)
        return 2
    except SizeGuardError as exc:
        print(f"robust-snell: size guard exceeded: {exc}", file=sys.stderr)
        return 3
    except UnattainedSupremumError as exc:
        print(f"robust-snell: unattained supremum: {exc}", file=sys.stderr)
        return 4


def console_main() -> None:
    # the objects start-up created (the imports above all) live until exit;
    # frozen, the collections at exit and during the run skip them
    gc.freeze()
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    console_main()
