"""Tests of the bench itself, on its quick inputs.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_quick_run_reports_every_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", trace, "--quick")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    section = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in section}
    for m in section:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert result["correct"] is True
    failures = [line for line in proc.stdout.splitlines() if "FAILED" in line]
    if workload == "cli-small":
        # the 3000-step chain ends in a RecursionError today
        assert failures and all("solve:chain3000" in line for line in failures)
        assert result["failed"] >= 1
    else:
        assert failures == [] and result["failed"] == 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench("--workload", "crr-solve", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_same_seed_same_inputs():
    base = run.WORK / "test-inputs"
    shutil.rmtree(base, ignore_errors=True)
    for workload in (w["name"] for w in SPEC["workloads"]):
        a = run.generate(workload, 7, False, base / workload / "a")
        b = run.generate(workload, 7, False, base / workload / "b")
        assert [(op.cmd, op.label) for op in a] == [(op.cmd, op.label) for op in b]
        files = sorted(p.name for p in (base / workload / "a").iterdir())
        assert files == sorted(p.name for p in (base / workload / "b").iterdir())
        for name in files:
            assert (base / workload / "a" / name).read_bytes() == \
                (base / workload / "b" / name).read_bytes()
    shutil.rmtree(base)


def test_tail_keeps_ten_samples_beyond():
    assert run.tail(list(range(10))) is None
    percentile, value = run.tail([float(i) for i in range(1, 31)])
    assert value == 20.0 and percentile == pytest.approx(100 * 20 / 30)


def test_layer_self_times():
    spans = [["op", 0.0, 10.0, None], ["snell.solve", 1.0, 5.0, 0],
             ["filtration.validate", 1.0, 2.0, 1], ["cli.write", 6.0, 9.0, 0]]
    trace = {"spans": spans, "pass_walls": {"traced": 10.0, "untraced": 9.5},
             "counters": {"solve_nodes": 6, "oracle_evals": 0, "lp_distinct": 0,
                          "bytes_out": 1}}
    m = run.layer_metrics(trace, import_s=1.0)
    assert m["snell.solve_s"][0] == 3.0
    assert m["snell.solve_nodes_per_s"][0] == 2.0
    assert m["filtration.validate_calls"][0] == 1
    assert m["cli.self_s"][0] == 3.0
    assert m["trace.coverage"][0] == pytest.approx((1.0 + 4.0 + 3.0) / 11.0)
    assert m["trace.overhead_s"][0] == 0.5
