"""Benchmark of the robust-snell command line, end to end and layer by layer.

Run from the repository root:

    python3 bench/run.py --workload crr-solve --seed 1 --seconds 30 --trace 0

The bench generates every input from ``--seed`` and hands the program only
config files.  With ``--trace 0`` each operation runs as a cold
``python -m robust_snell <cmd> --config ... --out ...`` process, one at a time,
passes over the workload repeat while the next one still fits in
``--seconds``, and the end-to-end metrics are reported.  With ``--trace 1`` the
same operations run in-process in one fresh child (``bench/inproc.py``) with
spans around each layer, and the per-layer metrics are reported.

Every output is checked: exit code, strict JSON, oracle deviation, the
optimality certificate, ``price`` against ``solve``, the decomposition
residual, byte-identical repeats and the recorded digests of the fixture
operations (``bench/expected.json``).  An operation that fails any check counts
in ``failed``; ``correct`` is false when an operation that completed produced a
wrong output.  A human-readable report comes first; it also prints
``failed_frac``, ``max_abs_dev`` and, where a pass has at least 11
operations, ``op_tail_s``, which are not gated because they are zero or
undefined on some workloads.  The last stdout line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``, the metrics being
those BENCHMARK.json lists.  Each run also appends its full record to
``.bench_work/results.jsonl``, which ``bench/summarize.py`` reads.

``--quick`` shrinks every workload to a few small operations for the bench's
own tests (``bench/test_bench.py``); its numbers are not comparable.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".bench_work"
FIXTURES = Path("src") / "robust_snell" / "fixtures"

#: fresh interpreters timed for set-up; the median is reported
SETUP_RUNS = 3
#: fresh interpreters timed for import.s in a traced run
IMPORT_RUNS = 3
#: every run must end well within the three minutes a run is allowed
RUN_DEADLINE_S = 165.0
#: the largest oracle deviation and decomposition residual accepted
CHECK_TOL = 1e-9

# -- inputs -------------------------------------------------------------


@dataclass
class Op:
    cmd: str
    config: str
    label: str
    nodes: int = 0

    @property
    def key(self) -> str:
        return f"{self.cmd}:{self.label}"


def crr_config(steps: int, s0: float, mode: str = "closure") -> dict:
    """The drift-ambiguity knock-in put used throughout the roadmap."""
    return {
        "crr": {
            "S0": s0,
            "up": 1.1,
            "down": 0.9,
            "steps": steps,
            "rate": 0.0,
            "K": 5.0,
            "H": 3.8,
            "q_up": 0.5,
            "ambiguity": [0.4, 0.6],
        },
        "mode": mode,
    }


def random_tree_config(rng: random.Random) -> dict:
    """Horizon-2 tree, 2-3 children and 1-3 distinct extremes per node.

    Every node has its own polytope, so nothing repeats for a memo to reuse,
    and 3-child nodes need the general hull LP.
    """
    nodes = [{"id": "n0", "time": 0, "Y": round(rng.uniform(0.0, 5.0), 6)}]
    extremes: dict[str, list[list[float]]] = {}
    frontier = ["n0"]
    for t in (1, 2):
        next_frontier = []
        for parent in frontier:
            k = rng.randint(2, 3)
            raw = [rng.uniform(0.15, 1.0) for _ in range(k)]
            q = [r / sum(raw) for r in raw]
            for qc in q:
                node_id = f"n{len(nodes)}"
                nodes.append(
                    {
                        "id": node_id,
                        "time": t,
                        "parent": parent,
                        "q": qc,
                        "Y": round(rng.uniform(0.0, 5.0), 6),
                    }
                )
                next_frontier.append(node_id)
            extremes[parent] = []
            for _ in range(rng.randint(1, 3)):
                d = [rng.uniform(0.05, 1.0) for _ in range(k)]
                norm = sum(qc * dc for qc, dc in zip(q, d))
                extremes[parent].append([dc / norm for dc in d])
        frontier = next_frontier
    return {
        "tree": {"horizon": 2, "nodes": nodes},
        "priors": {"node_extremes": extremes},
        "mode": "closure",
        "alphas": [0.5, 1.0],
    }


def oracle_tree_config(rng: random.Random, depth: int, ambiguous: int) -> dict:
    """Full binary tree with ``ambiguous`` decision nodes carrying 2 extremes.

    The rest carry only the reference ratio, so the root enumerates
    count_rules x 2**ambiguous (rule, selection) pairs whatever the seed.
    """
    nodes = [{"id": "r", "time": 0, "Y": round(rng.uniform(0.0, 5.0), 6)}]
    decision = []
    frontier = ["r"]
    for t in range(1, depth + 1):
        next_frontier = []
        for parent in frontier:
            decision.append(parent)
            q_up = rng.uniform(0.3, 0.7)
            for move, qc in (("u", q_up), ("d", 1.0 - q_up)):
                node_id = ("" if parent == "r" else parent) + move
                nodes.append(
                    {
                        "id": node_id,
                        "time": t,
                        "parent": parent,
                        "q": qc,
                        "Y": round(rng.uniform(0.0, 5.0), 6),
                    }
                )
                next_frontier.append(node_id)
        frontier = next_frontier
    q_of = {nd["id"]: nd["q"] for nd in nodes[1:]}
    chosen = set(rng.sample(decision, ambiguous))
    extremes = {}
    for n in decision:
        if n not in chosen:
            extremes[n] = [[1.0, 1.0]]
            continue
        q1 = q_of[("" if n == "r" else n) + "u"]
        q2 = 1.0 - q1
        lo = rng.uniform(0.5 * q1, q1)
        hi = rng.uniform(q1, q1 + 0.5 * q2)
        extremes[n] = [[p / q1, (1.0 - p) / q2] for p in (lo, hi)]
    return {
        "tree": {"horizon": depth, "nodes": nodes},
        "priors": {"node_extremes": extremes},
        "mode": "closure",
    }


def chain_config(steps: int) -> dict:
    """Single-branch chain whose reward rises to the horizon.

    The optimal rule runs the whole chain, so every evaluator recurses
    ``steps`` levels deep.
    """
    nodes = [{"id": "c0", "time": 0, "Y": 0.0}]
    for t in range(1, steps + 1):
        nodes.append(
            {"id": f"c{t}", "time": t, "parent": f"c{t - 1}", "q": 1.0, "Y": t / steps}
        )
    return {
        "tree": {"horizon": steps, "nodes": nodes},
        "priors": {"node_extremes": {f"c{t}": [[1.0]] for t in range(steps)}},
        "mode": "closure",
    }


def generate(workload: str, seed: int, quick: bool, inputs: Path) -> list[Op]:
    """Write the workload's configs under ``inputs`` and list its operations."""
    rng = random.Random(f"{workload}:{seed}")
    inputs.mkdir(parents=True, exist_ok=True)
    ops: list[Op] = []

    def config(name: str, payload: dict) -> str:
        path = inputs / f"{name}.json"
        path.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
        return str(path.relative_to(ROOT))

    def s0() -> float:
        return round(rng.uniform(4.8, 5.2), 6)

    if workload == "cli-small":
        for fixture in ("tt1",) if quick else ("tt1", "tt3", "tt4"):
            path = str(FIXTURES / f"{fixture}.json")
            ops += [Op(cmd, path, fixture) for cmd in ("solve", "oracle", "decompose")]
        crr3 = config("crr3", crr_config(3, s0()))
        ops += [Op("price", crr3, "crr3"), Op("solve", crr3, "crr3")]
        for i in range(1 if quick else 5):
            path = config(f"random{i}", random_tree_config(rng))
            ops += [Op(cmd, path, f"random{i}") for cmd in ("solve", "oracle", "decompose")]
        ops.append(Op("solve", config("chain", chain_config(3000)), "chain3000"))
    elif workload == "crr-solve":
        big, small = (6, 5) if quick else (14, 12)
        path = config(f"crr{big}", crr_config(big, s0()))
        eq = config(f"crr{small}eq", crr_config(small, s0(), mode="equivalent"))
        ops += [
            Op("solve", path, f"crr{big}"),
            Op("price", path, f"crr{big}"),
            Op("solve", eq, f"crr{small}eq"),
        ]
    elif workload == "crr-decompose":
        for steps in (4, 5) if quick else (10, 11):
            path = config(f"crr{steps}", crr_config(steps, s0()))
            ops.append(Op("decompose", path, f"crr{steps}"))
    elif workload == "oracle-enum":
        depth, ambiguous = (3, 3) if quick else (4, 8)
        for i in range(2):
            path = config(f"enum{i}", oracle_tree_config(rng, depth, ambiguous))
            ops.append(Op("oracle", path, f"enum{i}"))
    else:
        raise ValueError(workload)
    return ops


# -- child processes ----------------------------------------------------


def child_env() -> dict[str, str]:
    """Clean environment: the source tree on the path and nothing else set."""
    return {"PATH": os.environ.get("PATH", "/usr/bin:/bin"), "PYTHONPATH": "src"}


@dataclass
class Child:
    rc: int
    wall: float
    rss_mb: float
    stdout: str
    stderr: str


def spawn(argv: list[str], timeout: float, log: Path) -> Child:
    """Run one child to completion; its output goes to files next to ``log``.

    ``os.wait4`` reaps the child and gives its own peak RSS.  A watchdog kills
    a child that outlives ``timeout``.
    """
    out_path, err_path = log.with_suffix(".out"), log.with_suffix(".err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=out, stderr=err)
        watchdog = threading.Timer(max(timeout, 0.1), proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        rc=proc.returncode,
        wall=wall,
        rss_mb=usage.ru_maxrss / 1024.0,
        stdout=out_path.read_text(encoding="utf-8", errors="replace"),
        stderr=err_path.read_text(encoding="utf-8", errors="replace"),
    )


def run_setup(configs: list[str], runs: int, run_dir: Path, deadline: float):
    """Time ``runs`` fresh interpreters that import the package and parse configs.

    Returns the wall times and the last child's report (node counts per
    config, versions) with every child's own import time under ``import_s``.
    """
    walls, import_s = [], []
    argv = [sys.executable, str(BENCH / "inproc.py"), "setup", *configs]
    for _ in range(runs):
        child = spawn(argv, deadline - time.perf_counter(), run_dir / "setup")
        if child.rc != 0:
            raise RuntimeError(f"set-up child failed (exit {child.rc}):\n{child.stderr}")
        info = json.loads(child.stdout)
        walls.append(child.wall)
        import_s.append(info["import_s"])
    info["import_s"] = import_s
    return walls, info


# -- checks -------------------------------------------------------------


def _reject_constant(token: str):
    raise ValueError(f"non-finite number {token} in summary.json")


@dataclass
class OpOutcome:
    op: Op
    rc: int
    wall: float = 0.0
    rss_mb: float = 0.0
    digest: str | None = None
    summary: dict | None = None
    bytes_out: int = 0
    errors: list[str] = field(default_factory=list)
    wrong: list[str] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return bool(self.errors or self.wrong)


def check_outputs(
    op: Op, rc: int, outdir: Path, expected: dict, stderr: str = ""
) -> OpOutcome:
    """Check one operation's exit code and outputs."""
    outcome = OpOutcome(op=op, rc=rc)
    if rc != 0:
        last = stderr.strip().splitlines()[-1:] or [""]
        outcome.errors.append(f"{op.key}: exit {rc}, expected 0 ({last[0][:160]})")
        return outcome
    try:
        summary_bytes = (outdir / "summary.json").read_bytes()
        csv_bytes = (outdir / "nodes.csv").read_bytes()
    except OSError as exc:
        outcome.wrong.append(f"{op.key}: missing output ({exc})")
        return outcome
    outcome.bytes_out = len(summary_bytes) + len(csv_bytes)
    outcome.digest = hashlib.sha256(summary_bytes + b"\0" + csv_bytes).hexdigest()
    try:
        summary = json.loads(summary_bytes, parse_constant=_reject_constant)
    except ValueError as exc:
        outcome.wrong.append(f"{op.key}: summary.json does not parse strictly ({exc})")
        return outcome
    outcome.summary = summary
    if op.cmd == "oracle" and not summary["max_deviation"] <= CHECK_TOL:
        outcome.wrong.append(f"{op.key}: oracle deviation {summary['max_deviation']!r}")
    if op.cmd == "solve" and summary["certificate"]["optimal"] is not True:
        outcome.wrong.append(f"{op.key}: certificate not optimal")
    if op.cmd == "decompose":
        residual = summary["universal_martingale_residual"]
        if not residual <= CHECK_TOL:
            outcome.wrong.append(f"{op.key}: martingale residual {residual!r}")
    want = expected.get(op.key)
    if want is not None and outcome.digest != want:
        outcome.wrong.append(f"{op.key}: digest {outcome.digest[:12]} != recorded {want[:12]}")
    return outcome


def cross_check(outcomes: list[OpOutcome], references: list[list[OpOutcome]]) -> None:
    """``price`` agrees with ``solve`` on one config; outputs repeat exactly."""
    root_value = {
        o.op.config: o.summary["R_root"]
        for o in outcomes
        if o.op.cmd == "solve" and o.summary is not None
    }
    for o in outcomes:
        if o.op.cmd == "price" and o.summary is not None and o.op.config in root_value:
            if o.summary["H_S"] != root_value[o.op.config]:
                o.wrong.append(
                    f"{o.op.key}: H_S {o.summary['H_S']!r} != solve R_root "
                    f"{root_value[o.op.config]!r}"
                )
    for reference in references:
        for o, ref in zip(outcomes, reference):
            if o.digest is not None and ref.digest is not None and o.digest != ref.digest:
                o.wrong.append(f"{o.op.key}: output differs from a repeat")


# -- measurement --------------------------------------------------------


def cold_pass(ops: list[Op], pass_dir: Path, expected: dict, deadline: float):
    """One pass of cold CLI processes; returns outcomes and the pass wall time."""
    outcomes = []
    start = time.perf_counter()
    children = []
    for i, op in enumerate(ops):
        outdir = pass_dir / f"{i:02d}"
        argv = [sys.executable, "-m", "robust_snell", op.cmd, "--config", op.config,
                "--out", str(outdir)]
        outdir.mkdir(parents=True)
        children.append((op, outdir, spawn(argv, deadline - time.perf_counter(), outdir / "cli")))
    wall = time.perf_counter() - start
    for op, outdir, child in children:
        outcome = check_outputs(op, child.rc, outdir, expected, child.stderr)
        outcome.wall, outcome.rss_mb = child.wall, child.rss_mb
        outcomes.append(outcome)
    shutil.rmtree(pass_dir, ignore_errors=True)
    return outcomes, wall


def tail(samples: list[float]) -> tuple[float, float] | None:
    """Highest percentile with at least ten samples beyond it, and its value."""
    n = len(samples)
    if n < 11:
        return None
    rank = n - 10
    return 100.0 * rank / n, sorted(samples)[rank - 1]


def measure_cold(ops, run_dir, expected, seconds, deadline, setup_runs):
    setup_walls, info = run_setup(
        sorted({op.config for op in ops}), setup_runs, run_dir, deadline)
    nodes = dict(zip(info["configs"], info["nodes"]))
    for op in ops:
        op.nodes = nodes[op.config]
    passes = []
    all_outcomes: list[OpOutcome] = []
    first: list[OpOutcome] = []
    start = time.perf_counter()
    while True:
        outcomes, wall = cold_pass(ops, run_dir / f"pass{len(passes)}", expected, deadline)
        cross_check(outcomes, [first] if first else [])
        first = first or outcomes
        passes.append(wall)
        all_outcomes += outcomes
        elapsed = time.perf_counter() - start
        if elapsed + wall > seconds or time.perf_counter() + wall > deadline:
            break
    op_walls = [o.wall for o in all_outcomes]
    nodes_per_pass = sum(op.nodes for op in ops)
    wall_s = statistics.median(passes)
    deviations = [o.summary["max_deviation"] for o in all_outcomes
                  if o.op.cmd == "oracle" and o.summary is not None]
    attempted = len(all_outcomes)
    failed = sum(o.failed for o in all_outcomes)
    metrics = {
        "wall_s": (wall_s, "s"),
        "op_p50_s": (statistics.median(op_walls), "s"),
        "nodes_per_s": (nodes_per_pass / wall_s, "1/s"),
        "setup_s": (statistics.median(setup_walls), "s"),
        "peak_rss_mb": (max(o.rss_mb for o in all_outcomes), "MB"),
        "ok_frac": ((attempted - failed) / attempted, "1"),
    }
    tail_value = tail(op_walls) if len(ops) >= 11 else None
    extras = {
        "passes": len(passes),
        "pass_walls_s": passes,
        "ops_per_pass": len(ops),
        "nodes_per_pass": nodes_per_pass,
        "setup_walls_s": setup_walls,
        "op_walls_s": [[o.op.key, o.wall] for o in all_outcomes],
        "failed_frac": failed / attempted,
        "max_abs_dev": max(deviations) if deviations else None,
        "op_tail_s": None if tail_value is None else {
            "value": tail_value[1], "percentile": tail_value[0], "samples": len(op_walls)},
    }
    return metrics, extras, all_outcomes, info


def layer_metrics(trace: dict, import_s: float) -> dict:
    """Self times and counts per layer from the traced pass's spans."""
    spans = trace["spans"]
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent is not None:
            child_time[parent] += end - start
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    calls: dict[str, int] = {}
    top_level = 0.0
    for i, (name, start, end, parent) in enumerate(spans):
        total[name] = total.get(name, 0.0) + end - start
        own[name] = own.get(name, 0.0) + end - start - child_time[i]
        calls[name] = calls.get(name, 0) + 1
        if parent is not None and spans[parent][0] == "op":
            top_level += end - start
    c = trace["counters"]

    def rate(count: float, seconds: float) -> float:
        return count / seconds if seconds > 0 else 0.0

    ops_wall = total.get("op", 0.0)
    solve_self = own.get("snell.solve", 0.0)
    crosscheck = total.get("oracle.crosscheck", 0.0)
    lp_calls = calls.get("decomposition.lp", 0)
    return {
        "import.s": (import_s, "s"),
        "cli.parse_s": (own.get("cli.parse", 0.0), "s"),
        "cli.self_s": (own.get("op", 0.0), "s"),
        "cli.columns_s": (total.get("cli.columns", 0.0), "s"),
        "cli.write_s": (total.get("cli.write", 0.0), "s"),
        "cli.bytes_out": (c["bytes_out"], "bytes"),
        "pricing.build_s": (total.get("pricing.build", 0.0), "s"),
        "filtration.validate_s": (total.get("filtration.validate", 0.0), "s"),
        "filtration.validate_calls": (calls.get("filtration.validate", 0), "count"),
        "priors.validate_s": (total.get("priors.validate", 0.0), "s"),
        "priors.validate_calls": (calls.get("priors.validate", 0), "count"),
        "snell.solve_s": (solve_self, "s"),
        "snell.solve_calls": (calls.get("snell.solve", 0), "count"),
        "snell.solve_nodes_per_s": (rate(c["solve_nodes"], solve_self), "1/s"),
        "snell.rules_s": (total.get("snell.rules", 0.0), "s"),
        "snell.extract_s": (total.get("snell.extract", 0.0), "s"),
        "snell.certificate_s": (own.get("snell.certificate", 0.0), "s"),
        "decomposition.decompose_s": (own.get("decomposition.decompose", 0.0), "s"),
        "decomposition.premise_s": (own.get("decomposition.premise", 0.0), "s"),
        "decomposition.lp_calls": (lp_calls, "count"),
        "decomposition.lp_s": (total.get("decomposition.lp", 0.0), "s"),
        "decomposition.lp_useful_ratio": (
            c["lp_distinct"] / lp_calls if lp_calls else 0.0, "1"),
        "oracle.crosscheck_s": (crosscheck, "s"),
        "oracle.evals": (c["oracle_evals"], "count"),
        "oracle.evals_per_s": (rate(c["oracle_evals"], crosscheck), "1/s"),
        "trace.wall_s": (import_s + ops_wall, "s"),
        "trace.coverage": ((import_s + top_level) / (import_s + ops_wall), "1"),
        "trace.overhead_s": (
            trace["pass_walls"]["traced"] - trace["pass_walls"]["untraced"], "s"),
    }


def measure_traced(ops, run_dir, expected, deadline):
    _, info = run_setup(sorted({op.config for op in ops}), IMPORT_RUNS, run_dir, deadline)
    import_s = statistics.median(info["import_s"])
    # the warm-up pass pays first-call costs, so traced and untraced compare warm
    passes = ("warmup", "traced", "untraced")
    plan = {
        "passes": [
            {"name": name, "ops": [
                {"argv": [op.cmd, "--config", op.config,
                          "--out", str(run_dir / name / f"{i:02d}")]}
                for i, op in enumerate(ops)]}
            for name in passes
        ],
        "spans_out": str(run_dir / "spans.json"),
    }
    plan_path = run_dir / "plan.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    child = spawn([sys.executable, str(BENCH / "inproc.py"), "trace", str(plan_path)],
                  deadline - time.perf_counter(), run_dir / "trace")
    if child.rc != 0:
        raise RuntimeError(f"traced child failed (exit {child.rc}):\n{child.stderr}")
    trace = json.loads((run_dir / "spans.json").read_text(encoding="utf-8"))
    outcomes = {}
    for name in passes:
        outcomes[name] = [
            check_outputs(op, res["rc"], run_dir / name / f"{i:02d}", expected, res["error"])
            for i, (op, res) in enumerate(zip(ops, trace["results"][name]))
        ]
    traced = outcomes["traced"]
    cross_check(traced, [outcomes["warmup"], outcomes["untraced"]])
    trace["counters"]["bytes_out"] = sum(o.bytes_out for o in traced)
    deviations = [o.summary["max_deviation"] for o in traced
                  if o.op.cmd == "oracle" and o.summary is not None]
    for name in passes:
        shutil.rmtree(run_dir / name, ignore_errors=True)
    metrics = layer_metrics(trace, import_s)
    extras = {
        "import_runs_s": info["import_s"],
        "pass_walls_s": trace["pass_walls"],
        "max_abs_dev": max(deviations) if deviations else None,
    }
    return metrics, extras, traced, info


# -- reporting ----------------------------------------------------------


def environment(info: dict) -> dict:
    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    return {
        "git_sha": sha,
        "python": info.get("python"),
        "numpy": info.get("numpy"),
        "scipy": info.get("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
    }


def report(args, why, env, metrics, extras, outcomes) -> None:
    print(f"robust-snell bench: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}{' quick' if args.quick else ''}")
    print(f"  why: {why}")
    print("  env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    if not args.trace:
        print(f"  {extras['passes']} passes of {extras['ops_per_pass']} ops, "
              f"{extras['nodes_per_pass']} tree nodes per pass")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<32} {value:>16.6g} {unit}")
    if not args.trace:
        failed = sum(o.failed for o in outcomes)
        print(f"  {'failed_frac':<32} {extras['failed_frac']:>16.6g} 1"
              f"   ({failed} of {len(outcomes)} ops)")
        t = extras["op_tail_s"]
        print(f"  {'op_tail_s':<32} " + (
            f"{t['value']:>16.6g} s   (p{t['percentile']:.1f} of {t['samples']} ops)"
            if t else f"{'n/a':>16}     (fewer than 11 ops per pass)"))
    dev = extras["max_abs_dev"]
    print(f"  {'max_abs_dev':<32} " + (f"{dev:>16.6g} 1" if dev is not None
                                       else f"{'n/a':>16}     (no oracle op)"))
    seen = set()
    for o in outcomes:
        for msg in o.errors + o.wrong:
            if msg not in seen:
                seen.add(msg)
                print(f"  FAILED {msg}")


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = {w["name"]: w["why"] for w in spec["workloads"]}
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tiny inputs for the bench's own tests")
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + RUN_DEADLINE_S

    if not (ROOT / "src" / "robust_snell" / "__init__.py").is_file():
        print(f"bench: no robust_snell sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    expected = json.loads((BENCH / "expected.json").read_text(encoding="utf-8"))["digests"]
    run_dir = WORK / (f"{args.workload}-s{args.seed}-t{args.trace}"
                      + ("-quick" if args.quick else ""))
    shutil.rmtree(run_dir, ignore_errors=True)
    ops = generate(args.workload, args.seed, args.quick, run_dir / "inputs")

    try:
        if args.trace:
            metrics, extras, outcomes, info = measure_traced(ops, run_dir, expected, deadline)
        else:
            metrics, extras, outcomes, info = measure_cold(
                ops, run_dir, expected, args.seconds, deadline,
                2 if args.quick else SETUP_RUNS)
    except RuntimeError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    env = environment(info)
    attempted = len(outcomes)
    failed = sum(o.failed for o in outcomes)
    correct = not any(o.wrong for o in outcomes)
    report(args, workloads[args.workload], env, metrics, extras, outcomes)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "quick": args.quick, "env": env, "correct": correct,
        "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "extras": extras,
        "failures": sorted({m for o in outcomes for m in o.errors + o.wrong}),
    }
    with open(WORK / "results.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
