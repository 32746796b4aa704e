"""Child side of bench/run.py: runs inside a fresh interpreter with PYTHONPATH=src.

    python3 bench/inproc.py setup CONFIG...   import the package, parse each config,
                                              print timings, node counts and versions
    python3 bench/inproc.py trace PLAN        run the plan's passes in-process through
                                              robust_snell.cli.run and write the spans

Spans are recorded only from this file, around the public functions as each
calling module binds them, so the package itself carries no tracing code.
A span is ``[name, start, end, parent]``; the parent is an index into the
same list.  Every operation is the root span ``op``.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter


def setup(configs: list[str]) -> None:
    start = perf_counter()
    from robust_snell import cli

    import_s = perf_counter() - start
    import numpy
    import scipy

    nodes = [len(cli.parse_config(path).tree.nodes()) for path in configs]
    print(json.dumps({
        "import_s": import_s,
        "configs": configs,
        "nodes": nodes,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }))


class Tracer:
    """Wraps module attributes with span recorders; ``remove`` restores them."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.saved: list[tuple[object, str, object]] = []
        self.solve_nodes = 0
        self.crosschecks: list[tuple] = []
        self.lp_keys: set[tuple] = set()

    def open(self, name: str) -> list:
        record = [name, perf_counter(), None, self.stack[-1] if self.stack else None]
        self.stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def close(self, record: list) -> None:
        record[2] = perf_counter()
        self.stack.pop()

    def wrap(self, module, attr: str, name: str, count=None) -> None:
        fn = getattr(module, attr)

        def traced(*args, **kwargs):
            record = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(record)
            if count is not None:
                count(args, kwargs)
            return result

        self.saved.append((module, attr, fn))
        setattr(module, attr, traced)

    def remove(self) -> None:
        for module, attr, fn in reversed(self.saved):
            setattr(module, attr, fn)
        self.saved.clear()

    def install(self) -> None:
        from robust_snell import cli, decomposition, snell

        def solved(args, kwargs):
            self.solve_nodes += len(args[0].nodes())

        def crosschecked(args, kwargs):
            self.crosschecks.append((args[0], args[2]))

        def lp(args, kwargs):
            a, b = kwargs["A_eq"], kwargs["b_eq"]
            self.lp_keys.add((a.shape, a.tobytes(), b.tobytes()))

        layers = [
            (cli, "parse_config", "cli.parse", None),
            (cli, "build_crr_barrier_tree", "pricing.build", None),
            (cli, "knockin_payoff", "pricing.build", None),
            (cli, "drift_ambiguity_priors", "pricing.build", None),
            (cli, "validate_tree", "filtration.validate", None),
            (cli, "solve", "snell.solve", solved),
            (cli, "u_star", "snell.rules", None),
            (cli, "u_alpha", "snell.rules", None),
            (cli, "extract_optimal_prior", "snell.extract", None),
            (cli, "check_optimality_certificate", "snell.certificate", None),
            (cli, "universal_decompose", "decomposition.decompose", None),
            (cli, "flat_off_check", "decomposition.decompose", None),
            (cli, "crosscheck", "oracle.crosscheck", crosschecked),
            (cli, "_rule_stop_list", "cli.columns", None),
            (cli, "_solve_columns", "cli.columns", None),
            (cli, "write_summary", "cli.write", None),
            (cli, "write_nodes_csv", "cli.write", None),
            (snell, "solve", "snell.solve", solved),
            (snell, "validate_tree", "filtration.validate", None),
            (snell, "validate_family", "filtration.validate", None),
            (snell, "structural_violations", "priors.validate", None),
            (decomposition, "premise_check", "decomposition.premise", None),
            (decomposition, "linprog", "decomposition.lp", lp),
        ]
        for module, attr, name, count in layers:
            self.wrap(module, attr, name, count)

    def oracle_evals(self) -> int:
        """(rule, selection) pairs the crosschecks enumerated, strict and not."""
        from robust_snell import count_rules, selection_count

        total = 0
        for tree, priors in self.crosschecks:
            for n in tree.nodes():
                rules = count_rules(tree, n) + count_rules(tree, n, strict=True)
                total += rules * selection_count(tree, priors, n)
        return total


def run_op(cli, argv: list[str]) -> dict:
    try:
        return {"rc": cli.run(argv), "error": ""}
    except Exception as exc:  # a traceback in the CLI is a failed operation
        return {"rc": 1, "error": f"{type(exc).__name__}: {str(exc)[:200]}"}


def trace(plan_path: str) -> None:
    from robust_snell import cli

    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    tracer = Tracer()
    results, pass_walls = {}, {}
    for pass_ in plan["passes"]:
        traced = pass_["name"] == "traced"
        if traced:
            tracer.install()
        start = perf_counter()
        out = []
        for op in pass_["ops"]:
            record = tracer.open("op") if traced else None
            out.append(run_op(cli, op["argv"]))
            if record is not None:
                tracer.close(record)
        pass_walls[pass_["name"]] = perf_counter() - start
        results[pass_["name"]] = out
        tracer.remove()
    with open(plan["spans_out"], "w", encoding="utf-8") as fh:
        json.dump({
            "spans": tracer.spans,
            "counters": {
                "solve_nodes": tracer.solve_nodes,
                "oracle_evals": tracer.oracle_evals(),
                "lp_distinct": len(tracer.lp_keys),
            },
            "pass_walls": pass_walls,
            "results": results,
        }, fh)


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        setup(sys.argv[2:])
    elif sys.argv[1] == "trace":
        trace(sys.argv[2])
    else:
        sys.exit(f"unknown mode {sys.argv[1]!r}")
