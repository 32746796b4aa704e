"""Summarize bench runs: medians, quartiles and spreads per workload and metric.

    python3 bench/summarize.py [RESULTS.jsonl] [--record LABEL]

RESULTS defaults to .bench_work/results.jsonl, where bench/run.py appends one
record per run.  For every workload and metric it prints the median, the first
and third quartiles and their distance as a share of the median, next to the
metric's bound from BENCHMARK.json.  ``--record LABEL`` appends the summary as
one entry to bench/trajectory.json, the file performance changes quote before
and after numbers from.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRAJECTORY = Path(__file__).resolve().parent / "trajectory.json"


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(records: list[dict], bounds: dict[str, float]) -> dict:
    by_workload: dict[str, dict] = {}
    for rec in records:
        if rec["quick"]:
            continue
        entry = by_workload.setdefault(rec["workload"], {"cold": [], "traced": []})
        entry["traced" if rec["trace"] else "cold"].append(rec)
    summary = {}
    for workload, runs in sorted(by_workload.items()):
        out: dict = {"runs": len(runs["cold"]), "seeds": [r["seed"] for r in runs["cold"]],
                     "traced_runs": len(runs["traced"]),
                     "correct": all(r["correct"] for r in runs["cold"] + runs["traced"]),
                     "attempted": sum(r["attempted"] for r in runs["cold"]),
                     "failed": sum(r["failed"] for r in runs["cold"])}
        for section, group in (("end_to_end", runs["cold"]), ("per_layer", runs["traced"])):
            if not group:
                continue
            metrics = {}
            for name, first in group[0]["metrics"].items():
                values = [r["metrics"][name]["value"] for r in group]
                q1, med, q3 = quartiles(values)
                row = {"median": med, "q1": q1, "q3": q3, "unit": first["unit"]}
                if section == "end_to_end":
                    row["spread"] = (q3 - q1) / med if med else float("inf")
                    row["bound"] = bounds.get(name)
                metrics[name] = row
            out[section] = metrics
        if runs["cold"]:
            extras = [r["extras"] for r in runs["cold"]]
            tails = [e["op_tail_s"] for e in extras if e["op_tail_s"]]
            deviations = [e["max_abs_dev"] for e in extras if e["max_abs_dev"] is not None]
            out["extras"] = {
                "failed_frac": statistics.median(e["failed_frac"] for e in extras),
                "max_abs_dev": max(deviations) if deviations else None,
                "op_tail_s": {
                    "median": statistics.median(t["value"] for t in tails),
                    "percentile": tails[0]["percentile"],
                    "samples": tails[0]["samples"],
                } if tails else None,
                "passes": [e["passes"] for e in extras],
                "nodes_per_pass": extras[0]["nodes_per_pass"],
            }
            out["failures"] = sorted({f for r in runs["cold"] + runs["traced"]
                                      for f in r["failures"]})
        summary[workload] = out
    return summary


def print_summary(summary: dict) -> None:
    for workload, out in summary.items():
        print(f"{workload}: {out['runs']} cold runs, {out['traced_runs']} traced, "
              f"correct={out['correct']}, failed {out['failed']} of {out['attempted']} ops")
        for name, row in out.get("end_to_end", {}).items():
            bound = row["bound"]
            flag = ""
            if bound is not None and name != "setup_s":
                flag = "ok" if row["spread"] < bound / 3 else (
                    "WIDE" if row["spread"] > bound else "over 1/3 bound")
            print(f"  {name:<14} median {row['median']:<12.6g} q1 {row['q1']:<12.6g} "
                  f"q3 {row['q3']:<12.6g} spread {row['spread']:.4f} "
                  f"bound {bound} {flag}")
        for name, row in out.get("per_layer", {}).items():
            print(f"  {name:<32} median {row['median']:.6g} {row['unit']}")
        if "extras" in out:
            print(f"  extras: {json.dumps(out['extras'])}")
        for failure in out.get("failures", []):
            print(f"  failure: {failure}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("results", nargs="?", default=str(ROOT / ".bench_work" / "results.jsonl"))
    parser.add_argument("--record", metavar="LABEL",
                        help="append the summary to bench/trajectory.json under LABEL")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    with open(args.results, encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    summary = summarize(records, bounds)
    print_summary(summary)
    if args.record:
        trajectory = json.loads(TRAJECTORY.read_text(encoding="utf-8")) \
            if TRAJECTORY.exists() else {"entries": []}
        env = records[-1]["env"]
        trajectory["entries"].append({
            "label": args.record,
            "env": env,
            "run_seconds": spec["run_seconds"],
            "workloads": summary,
        })
        TRAJECTORY.write_text(json.dumps(trajectory, indent=1) + "\n", encoding="utf-8")
        print(f"recorded {args.record!r} in {TRAJECTORY.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
