import csv
import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import robust_snell
from robust_snell import (
    EventTree,
    NodeRecord,
    NonFiniteValueError,
    fixtures,
    solve,
    u_alpha,
)
from robust_snell.cli import CSV_COLUMNS, run, write_nodes_csv, write_summary


def run_command(tmp_path, command, config_path, name="out"):
    outdir = tmp_path / name
    code = run([command, "--config", str(config_path), "--out", str(outdir)])
    return code, outdir


def read_summary(outdir):
    return json.loads((outdir / "summary.json").read_text())


def read_nodes(outdir):
    with open(outdir / "nodes.csv", newline="") as fh:
        return list(csv.DictReader(fh))


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


CRR_CONFIG = {
    "crr": {
        "S0": 4.0,
        "up": 2.0,
        "down": 0.5,
        "steps": 2,
        "rate": 0.0,
        "K": 5.0,
        "H": 4.0,
        "q_up": 0.5,
        "ambiguity": [0.25, 0.75],
    }
}


class TestSolveCommand:
    def test_tt1_summary(self, tmp_path):
        code, outdir = run_command(tmp_path, "solve", fixtures.config_path("tt1"))
        assert code == 0
        summary = read_summary(outdir)
        assert summary["R_root"] == 1.5
        assert summary["U_star_stops"] == ["u", "d"]
        assert summary["certificate"]["optimal"] is True

    def test_nodes_csv_schema(self, tmp_path):
        _, outdir = run_command(tmp_path, "solve", fixtures.config_path("tt4"))
        with open(outdir / "nodes.csv", newline="") as fh:
            header = next(csv.reader(fh))
        assert header == CSV_COLUMNS

    def test_nodes_csv_values(self, tmp_path):
        _, outdir = run_command(tmp_path, "solve", fixtures.config_path("tt4"))
        rows = {row["node_id"]: row for row in read_nodes(outdir)}
        assert rows["r"]["R"] == "2.625"
        assert rows["d"]["R_plus"] == "3.25"
        assert rows["d"]["stop"] == "0"
        assert rows["dd"]["stop"] == "1"
        assert rows["dd"]["u_star_stop"] == "1"
        assert rows["r"]["argmax_extreme"] == "0"
        assert rows["r"]["q"] == ""
        assert rows["u"]["q"] == "0.5"
        assert rows["r"]["M"] == ""

    def test_floats_round_trip_exactly(self, tmp_path, tt3):
        code, outdir = run_command(tmp_path, "solve", fixtures.config_path("tt3"))
        assert code == 0
        summary = read_summary(outdir)
        sol = solve(tt3.tree, tt3.payoff, tt3.priors)
        assert summary["R_root"] == sol.R["r"]

    def test_quotes_odd_node_ids(self, tmp_path):
        # ids holding a comma, double quotes and a leading space: CSV quotes
        # the first two and keeps the space, JSON escapes the quotes
        payload = {
            "tree": {"horizon": 1, "nodes": [
                {"id": " r", "time": 0, "Y": 1.0},
                {"id": "u,1", "time": 1, "parent": " r", "q": 0.5, "Y": 2.0},
                {"id": 'd"2"', "time": 1, "parent": " r", "q": 0.5, "Y": 0.0},
            ]},
            "priors": {"node_extremes": {" r": [[1.5, 0.5], [0.5, 1.5]]}},
            "alphas": [0.6, 1.0],
        }
        code, outdir = run_command(tmp_path, "solve", write_config(tmp_path, payload))
        assert code == 0
        assert (outdir / "summary.json").read_bytes() == (
            b'{\n  "command": "solve",\n  "seed": 0,\n  "mode": "closure",\n'
            b'  "v": " r",\n  "R_root": 1.5,\n  "R_plus_root": 1.5,\n'
            b'  "R_v": 1.5,\n  "R_plus_v": 1.5,\n  "attained": true,\n'
            b'  "U_star_stops": [\n    "u,1",\n    "d\\"2\\""\n  ],\n'
            b'  "u_alpha_stops": {\n    "0.59999999999999998": [\n      " r"\n    ],\n'
            b'    "1": [\n      "u,1",\n      "d\\"2\\""\n    ]\n  },\n'
            b'  "certificate": {\n    "optimal": true,\n    "cond1": true,\n'
            b'    "cond2": true,\n    "value": 1.5,\n    "value_target": 1.5\n  }\n}\n'
        )
        assert (outdir / "nodes.csv").read_bytes() == (
            b"node_id,time,parent_id,q,state_S,state_hit,Y,R,R_plus,stop,"
            b"u_star_stop,argmax_extreme,z_star,M,C,K,A_q\n"
            b" r,0,,,,,1,1.5,1.5,0,0,0,1,,,,\n"
            b'"u,1",1, r,0.5,,,2,2,2,1,1,,1.5,,,,\n'
            b'"d""2""",1, r,0.5,,,0,0,0,1,1,,0.5,,,,\n'
        )


class TestOracleCommand:
    def test_tt4_deviation(self, tmp_path):
        code, outdir = run_command(tmp_path, "oracle", fixtures.config_path("tt4"))
        assert code == 0
        summary = read_summary(outdir)
        assert summary["max_deviation"] < 1e-9
        assert summary["nodes_checked"] == 7


class TestDecomposeCommand:
    def test_tt3_diagnostics(self, tmp_path):
        code, outdir = run_command(tmp_path, "decompose", fixtures.config_path("tt3"))
        assert code == 0
        summary = read_summary(outdir)
        assert summary["C_increasing"] is False
        assert summary["min_delta_C"] == pytest.approx(-0.2, abs=1e-12)
        assert summary["scaling_closed"] is False
        rows = {row["node_id"]: row for row in read_nodes(outdir)}
        assert float(rows["a"]["C"]) == pytest.approx(-0.2, abs=1e-12)
        assert rows["a"]["A_q"] != ""


class TestPriceCommand:
    def test_crr_reproduces_fixture_value(self, tmp_path):
        config = write_config(tmp_path, CRR_CONFIG)
        code, outdir = run_command(tmp_path, "price", config)
        assert code == 0
        summary = read_summary(outdir)
        assert summary["H_S"] == 2.625
        assert summary["exercise_boundary"] == ["uu", "ud", "du", "dd"]
        assert summary["optimal_prior_summary"] == {"r": 0.25, "u": 0.25, "d": 0.25}
        rows = {row["node_id"]: row for row in read_nodes(outdir)}
        assert rows["dd"]["state_S"] == "1"
        assert rows["dd"]["state_hit"] == "1"

    def test_price_requires_crr_block(self, tmp_path):
        code, _ = run_command(tmp_path, "price", fixtures.config_path("tt1"))
        assert code == 2


class TestDeterminism:
    @pytest.mark.parametrize(
        "command,fixture", [("solve", "tt1"), ("solve", "tt4"), ("oracle", "tt4"), ("decompose", "tt3")]
    )
    def test_repeat_runs_are_byte_identical(self, tmp_path, command, fixture):
        config = fixtures.config_path(fixture)
        _, out1 = run_command(tmp_path, command, config, "first")
        _, out2 = run_command(tmp_path, command, config, "second")
        assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()
        assert (out1 / "nodes.csv").read_bytes() == (out2 / "nodes.csv").read_bytes()

    def test_price_runs_are_byte_identical(self, tmp_path):
        config = write_config(tmp_path, CRR_CONFIG)
        _, out1 = run_command(tmp_path, "price", config, "first")
        _, out2 = run_command(tmp_path, "price", config, "second")
        assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()
        assert (out1 / "nodes.csv").read_bytes() == (out2 / "nodes.csv").read_bytes()


class TestModuleEntryPoint:
    """``python -m robust_snell``, the entry point the benchmark runs."""

    @staticmethod
    def run_module(tmp_path, config_path):
        src = str(Path(robust_snell.__file__).resolve().parents[1])
        paths = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
        outdir = tmp_path / "module"
        result = subprocess.run(
            [sys.executable, "-m", "robust_snell", "solve",
             "--config", str(config_path), "--out", str(outdir)],
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(paths)),
            capture_output=True,
            text=True,
            timeout=60,
        )
        return result, outdir

    def test_solve_writes_the_bytes_of_run(self, tmp_path):
        config = fixtures.config_path("tt1")
        result, outdir = self.run_module(tmp_path, config)
        assert result.returncode == 0, result.stderr
        assert result.stdout == result.stderr == ""
        _, expected = run_command(tmp_path, "solve", config, "in_process")
        for name in ("summary.json", "nodes.csv"):
            assert (outdir / name).read_bytes() == (expected / name).read_bytes()

    def test_bad_config_exits_2(self, tmp_path):
        config = write_config(tmp_path, {"tree": {"horizon": 1, "nodes": []}})
        result, outdir = self.run_module(tmp_path, config)
        assert result.returncode == 2
        assert result.stderr.startswith("robust-snell: invalid configuration:")
        assert not outdir.exists()

    def test_start_up_loads_neither_dataclasses_nor_inspect(self, tmp_path):
        # the records are NamedTuples: a start-up that loaded dataclasses (and
        # with it inspect) would generate and compile their methods each time;
        # the argument list is read without argparse, which loads gettext, and
        # whose first message loads locale
        src = str(Path(robust_snell.__file__).resolve().parents[1])
        paths = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
        config = fixtures.config_path("tt1")
        runs = {
            "import": ["-c", "import robust_snell.cli"],
            "solve": ["-m", "robust_snell", "solve", "--config", str(config),
                      "--out", str(tmp_path / "module")],
        }
        for name, args in runs.items():
            # -X importtime lists every module the process imports on stderr
            result = subprocess.run(
                [sys.executable, "-X", "importtime", *args],
                env=dict(os.environ, PYTHONPATH=os.pathsep.join(paths)),
                capture_output=True,
                text=True,
                timeout=60,
            )
            assert result.returncode == 0, result.stderr
            imported = {
                line.rsplit("|", 1)[1].strip()
                for line in result.stderr.splitlines()
                if line.startswith("import time:")
            }
            assert "robust_snell.cli" in imported, name
            assert not imported & {
                "dataclasses", "inspect", "argparse", "gettext", "locale"
            }, name

    def test_console_main_freezes_the_start_up_heap(self, tmp_path):
        # an atexit hook runs after sys.exit, so it sees the state the
        # interpreter's exit-time collection walks
        src = str(Path(robust_snell.__file__).resolve().parents[1])
        paths = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
        script = (
            "import atexit, gc, sys\n"
            "from robust_snell import cli\n"
            "atexit.register(lambda: print(gc.get_freeze_count() > 0))\n"
            "sys.argv = ['robust-snell', 'solve', '--config', sys.argv[1], '--out', sys.argv[2]]\n"
            "cli.console_main()\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script, str(fixtures.config_path("tt1")),
             str(tmp_path / "out")],
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(paths)),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout == "True\n"
        assert (tmp_path / "out" / "summary.json").exists()

    def test_run_freezes_nothing(self, tmp_path):
        # tests and the bench call run in-process many times; only the
        # console entry point freezes the heap
        before = gc.get_freeze_count()
        assert run_command(tmp_path, "solve", fixtures.config_path("tt1"))[0] == 0
        assert gc.get_freeze_count() == before


#: argument lists the CLI accepts, with ``{config}`` the tt1 fixture and
#: ``{out}`` the output directory: each must write the bytes of the spaced form
ACCEPTED_ARGV = {
    "spaced": ["solve", "--config", "{config}", "--out", "{out}"],
    "equals": ["solve", "--config={config}", "--out={out}"],
    "out_first": ["solve", "--out", "{out}", "--config", "{config}"],
    "last_repeat_wins": ["solve", "--config", "missing.json", "--config", "{config}",
                         "--out", "elsewhere", "--out", "{out}"],
    "default_out": ["solve", "--config", "{config}"],
}

#: argument lists that print the usage text to stdout and exit 0
HELP_ARGV = {
    "short": ["-h"],
    "long": ["--help"],
    "after_command": ["solve", "-h"],
    "after_options": ["oracle", "--config", "{config}", "--out", "{out}", "--help"],
    "before_a_stray_argument": ["solve", "stray", "-h"],
    "after_an_unknown_option": ["price", "--bogus", "-h"],
}

#: argument lists refused with exit 2, the usage line and an error on stderr
REFUSED_ARGV = {
    "no_arguments": [],
    "unknown_command": ["bogus", "--config", "{config}"],
    "unknown_command_then_help": ["bogus", "-h"],
    "wrong_case_command": ["Solve", "--config", "{config}"],
    "option_before_command": ["--config", "{config}", "solve"],
    "equals_option_before_command": ["--config={config}", "solve", "--config", "{config}"],
    "missing_config": ["solve"],
    "missing_config_with_out": ["solve", "--out", "{out}"],
    "missing_value": ["solve", "--config"],
    "missing_out_value": ["solve", "--config", "{config}", "--out"],
    "value_is_an_option": ["solve", "--config", "--out", "{out}"],
    "value_starts_with_dash": ["solve", "--config", "-x"],
    "help_as_a_value": ["solve", "--config", "-h"],
    "stray_argument": ["solve", "--config", "{config}", "stray"],
    "stray_before_options": ["solve", "stray", "--config", "{config}"],
    "unknown_option": ["solve", "--config", "{config}", "--bogus"],
    "ambiguous_prefix": ["solve", "--=x", "--config", "{config}"],
    "help_with_a_value": ["solve", "--config", "{config}", "--help=x"],
    "double_dash_last": ["solve", "--config", "{config}", "--"],
    "double_dash_first": ["--", "solve", "--config", "{config}"],
    "help_after_double_dash": ["solve", "--config", "{config}", "--", "-h"],
    # an option is named in full: a prefix of one names nothing
    "prefixes": ["solve", "--c", "{config}", "--o", "{out}"],
    "longer_prefix": ["solve", "--conf", "{config}", "--out", "{out}"],
    "prefix_equals": ["solve", "--conf={config}", "--o", "{out}"],
    "long_prefix": ["--he"],
    "prefix_after_command": ["decompose", "--h"],
    # a value after a space may not start with "-", a negative number included
    "negative_value": ["solve", "--config", "{config}", "--out", "-5"],
}


class TestArgv:
    """The CLI's argument grammar: ``COMMAND --config PATH [--out DIR]``."""

    @staticmethod
    def argv(case, tmp_path):
        config = str(fixtures.config_path("tt1"))
        out = str(tmp_path / "out")
        return [a.format(config=config, out=out) for a in case]

    @pytest.mark.parametrize("case", ACCEPTED_ARGV.values(), ids=ACCEPTED_ARGV)
    def test_accepted(self, tmp_path, monkeypatch, case):
        monkeypatch.chdir(tmp_path)
        assert run(self.argv(case, tmp_path)) == 0
        _, expected = run_command(tmp_path, "solve", fixtures.config_path("tt1"), "spaced")
        for name in ("summary.json", "nodes.csv"):
            assert (tmp_path / "out" / name).read_bytes() == (expected / name).read_bytes()

    @pytest.mark.parametrize("case", HELP_ARGV.values(), ids=HELP_ARGV)
    def test_help(self, tmp_path, monkeypatch, capsys, case):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as info:
            run(self.argv(case, tmp_path))
        assert info.value.code == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("usage: robust-snell")
        assert captured.err == ""
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("case", REFUSED_ARGV.values(), ids=REFUSED_ARGV)
    def test_refused(self, tmp_path, monkeypatch, capsys, case):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as info:
            run(self.argv(case, tmp_path))
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: robust-snell")
        last = captured.err.splitlines()[-1]
        assert last.startswith("robust-snell") and "error:" in last
        assert not any(tmp_path.iterdir())

    def test_a_lone_dash_is_a_value(self):
        argv = ["solve", "--config", "-", "--out", "-"]
        assert robust_snell.cli._parse_argv(argv) == ("solve", "-", "-")


class TestExitCodes:
    def test_invalid_probability_sum(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            {
                "tree": {
                    "horizon": 1,
                    "nodes": [
                        {"id": "r", "time": 0, "Y": 1.0},
                        {"id": "u", "time": 1, "parent": "r", "q": 0.5, "Y": 2.0},
                        {"id": "d", "time": 1, "parent": "r", "q": 0.4, "Y": 0.0},
                    ],
                },
                "priors": {"node_extremes": {"r": [[1.5, 0.5]]}},
            },
        )
        code, _ = run_command(tmp_path, "solve", config)
        assert code == 2
        assert "probabilities sum 0.9" in capsys.readouterr().err

    def test_both_model_blocks(self, tmp_path):
        payload = dict(CRR_CONFIG)
        payload["tree"] = {"horizon": 1, "nodes": []}
        code, _ = run_command(tmp_path, "solve", write_config(tmp_path, payload))
        assert code == 2

    def test_missing_payoff(self, tmp_path):
        config = write_config(
            tmp_path,
            {
                "tree": {
                    "horizon": 1,
                    "nodes": [
                        {"id": "r", "time": 0},
                        {"id": "u", "time": 1, "parent": "r", "q": 1.0},
                    ],
                },
                "priors": {"node_extremes": {"r": [[1.0]]}},
            },
        )
        code, _ = run_command(tmp_path, "solve", config)
        assert code == 2

    def test_bad_alpha(self, tmp_path):
        config = write_config(
            tmp_path,
            {
                "crr": CRR_CONFIG["crr"],
                "alphas": [0.5, 1.5],
            },
        )
        code, _ = run_command(tmp_path, "solve", config)
        assert code == 2

    def test_size_guard_exit(self, tmp_path):
        payload = {"crr": dict(CRR_CONFIG["crr"])}
        payload["crr"]["steps"] = 6
        code, _ = run_command(tmp_path, "oracle", write_config(tmp_path, payload))
        assert code == 3

    def test_oracle_refuses_an_oversize_tree_before_solving(
        self, tmp_path, capsys, monkeypatch
    ):
        # the 5-step drift-ambiguity put of tests/test_golden.py
        payload = {
            "crr": {"S0": 5.0, "up": 1.1, "down": 0.9, "steps": 5, "rate": 0.0,
                    "K": 5.0, "H": 3.8, "q_up": 0.5, "ambiguity": [0.4, 0.6]},
        }

        def solve(*args, **kwargs):
            pytest.fail("the oracle solved a tree its size guard refuses")

        monkeypatch.setattr(robust_snell.cli, "solve", solve)
        code, outdir = run_command(tmp_path, "oracle", write_config(tmp_path, payload))
        assert code == 3
        assert capsys.readouterr().err == (
            "robust-snell: size guard exceeded: the oracle's rows hold 2185971135342 "
            "floats once node 'r' is counted (guard: 2097152)\n"
        )
        assert not outdir.exists()

    def test_unattained_supremum_exit(self, tmp_path):
        config = write_config(
            tmp_path,
            {
                "tree": {
                    "horizon": 1,
                    "nodes": [
                        {"id": "r", "time": 0, "Y": 1.0},
                        {"id": "u", "time": 1, "parent": "r", "q": 0.5, "Y": 2.0},
                        {"id": "d", "time": 1, "parent": "r", "q": 0.5, "Y": 0.0},
                    ],
                },
                "priors": {"node_extremes": {"r": [[2.0, 0.0], [0.0, 2.0]]}},
                "mode": "equivalent",
            },
        )
        code, _ = run_command(tmp_path, "solve", config)
        assert code == 4

    def test_unattained_supremum_names_every_node(self, tmp_path, capsys):
        # (2, 0) and (0, 2) at every node: each supremum sits on one boundary
        # density, listed in the order the backward induction meets them
        ratios = [[2.0, 0.0], [0.0, 2.0]]
        config = write_config(
            tmp_path,
            {
                "tree": {
                    "horizon": 2,
                    "nodes": [
                        {"id": "r", "time": 0, "Y": 0.0},
                        {"id": "u", "time": 1, "parent": "r", "q": 0.5, "Y": 0.0},
                        {"id": "d", "time": 1, "parent": "r", "q": 0.5, "Y": 0.0},
                        {"id": "uu", "time": 2, "parent": "u", "q": 0.5, "Y": 5.0},
                        {"id": "ud", "time": 2, "parent": "u", "q": 0.5, "Y": 1.0},
                        {"id": "du", "time": 2, "parent": "d", "q": 0.5, "Y": 3.0},
                        {"id": "dd", "time": 2, "parent": "d", "q": 0.5, "Y": 0.0},
                    ],
                },
                "priors": {"node_extremes": {"r": ratios, "u": ratios, "d": ratios}},
                "mode": "equivalent",
            },
        )
        code, outdir = run_command(tmp_path, "solve", config)
        assert code == 4
        assert capsys.readouterr().err == (
            "robust-snell: unattained supremum: supremum unattained in equivalent "
            "mode at nodes ['u', 'd', 'r']; sup value at 'r' is 5\n"
        )
        assert not outdir.exists()

    @pytest.mark.parametrize("command", ["solve", "oracle", "decompose"])
    def test_negative_component_after_a_zero_in_equivalent_mode(
        self, tmp_path, capsys, command
    ):
        # the zero is a boundary point of the open set, but the -0.5 after it
        # is no density in either mode
        payload = json.loads(fixtures.config_path("tt3").read_text())
        payload["priors"]["node_extremes"]["r"] = [[0.0, -0.5, 3.5], [1, 1, 1]]
        payload["mode"] = "equivalent"
        code, outdir = run_command(tmp_path, command, write_config(tmp_path, payload))
        assert code == 2
        assert "negative density component -0.5" in capsys.readouterr().err
        assert not outdir.exists()

    def test_interval_generator_on_explicit_tree(self, tmp_path):
        config = write_config(
            tmp_path,
            {
                "tree": {
                    "horizon": 1,
                    "nodes": [
                        {"id": "r", "time": 0, "Y": 1.0},
                        {"id": "u", "time": 1, "parent": "r", "q": 0.5, "Y": 2.0},
                        {"id": "d", "time": 1, "parent": "r", "q": 0.5, "Y": 0.0},
                    ],
                },
                "priors": {"interval_up_probability": {"lo": 0.25, "hi": 0.75}},
            },
        )
        code, outdir = run_command(tmp_path, "solve", config)
        assert code == 0
        assert read_summary(outdir)["R_root"] == 1.5


def tt1_payload():
    return json.loads(fixtures.config_path("tt1").read_text())


def tt1_with(edit):
    payload = tt1_payload()
    edit(payload)
    return payload


def set_node(node_id, key, value):
    def edit(payload):
        for nd in payload["tree"]["nodes"]:
            if nd["id"] == node_id:
                nd[key] = value
    return edit


def set_extremes(value):
    def edit(payload):
        payload["priors"]["node_extremes"]["r"] = value
    return edit


def crr_with(**fields):
    payload = {"crr": dict(CRR_CONFIG["crr"])}
    payload["crr"].update(fields)
    return payload


NAN = float("nan")
INF = float("inf")

# (config, text the error message must contain); json.dumps writes NaN and
# Infinity literals, which Python's json module reads back as floats
BAD_CONFIGS = {
    "Y-nan": (tt1_with(set_node("u", "Y", NAN)), "node 'u' Y"),
    "Y-inf": (tt1_with(set_node("d", "Y", -INF)), "node 'd' Y"),
    "Y-nan-string": (tt1_with(set_node("u", "Y", "nan")), "node 'u' Y"),
    "q-nan": (tt1_with(set_node("u", "q", NAN)), "node 'u' q"),
    "state-inf": (tt1_with(set_node("u", "states", {"S": INF})), "node 'u' state 'S'"),
    "ratio-nan": (tt1_with(set_extremes([[NAN, 0.5], [0.5, 1.5]])), "priors at node 'r'"),
    "ratio-inf": (tt1_with(set_extremes([[1.5, INF]])), "priors at node 'r'"),
    "Y-string": (tt1_with(set_node("u", "Y", "x")), "node 'u' Y"),
    "ratio-string": (tt1_with(set_extremes(["abc"])), "priors at node 'r'"),
    "ratios-string": (tt1_with(set_extremes("abc")), "priors at node 'r'"),
    "ratio-component-string": (tt1_with(set_extremes([[1.5, "x"]])), "priors at node 'r'"),
    "states-list": (tt1_with(set_node("u", "states", [1.0])), "node 'u' states"),
    "parent-object": (tt1_with(set_node("u", "parent", {"a": 1})), "node 'u' parent"),
    "tolerance-nan": (tt1_with(lambda p: p.update(tolerance=NAN)), "tolerance"),
    "alpha-string": (tt1_with(lambda p: p.update(alphas=["x"])), "alpha"),
    "crr-S0-nan": (crr_with(S0=NAN), "crr S0"),
    "crr-K-inf": (crr_with(K=INF), "crr K"),
    "crr-up-string": (crr_with(up="x"), "crr up"),
    "crr-ambiguity-nan": (crr_with(ambiguity=[NAN, 0.75]), "crr ambiguity"),
    "crr-ambiguity-arity": (crr_with(ambiguity=[0.25, 0.5, 0.75]), "crr ambiguity"),
    "crr-steps-inf": (crr_with(steps=INF), "crr block"),
    # non-integral floats in integer fields, which int() would truncate
    "crr-steps-fraction": (crr_with(steps=2.9), "steps: 2.9"),
    "horizon-fraction": (tt1_with(lambda p: p["tree"].update(horizon=1.5)), "horizon: 1.5"),
    "time-fraction": (tt1_with(set_node("u", "time", 1.6)), "node 'u' time: 1.6"),
    "seed-fraction": (tt1_with(lambda p: p.update(seed=1.7)), "seed: 1.7"),
    # JSON booleans and strings, which int() and float() would convert
    "time-bool": (tt1_with(set_node("u", "time", True)), "node 'u' time: True is not an integer"),
    "seed-bool": (tt1_with(lambda p: p.update(seed=False)), "seed: False is not an integer"),
    "q-string": (tt1_with(set_node("u", "q", "0.5")), "node 'u' q: '0.5' is not a number"),
    "crr-S0-string": (crr_with(S0="4.0"), "crr S0: '4.0' is not a number"),
    "crr-steps-string": (crr_with(steps="2"), "steps: '2' is not an integer"),
    # an integer beyond the float range, which float() cannot convert
    "Y-huge-int": (tt1_with(set_node("d", "Y", 10**400)), "node 'd' Y"),
    # node ids and v are JSON strings, which str() would accept in any type;
    # the leaf "u" is renamed, and v names the renamed node
    "id-null": (tt1_with(set_node("u", "id", None)), "node id: None is not a string"),
    "id-bool": (tt1_with(set_node("u", "id", True)), "node id: True is not a string"),
    "id-int": (tt1_with(set_node("u", "id", 7)), "node id: 7 is not a string"),
    "v-int": (
        tt1_with(lambda p: (set_node("u", "id", "7")(p), p.update(v=7))),
        "evaluation node v: 7 is not a string",
    ),
}


class TestBadValues:
    """Non-finite or wrongly typed values exit 2 with a message, writing nothing."""

    @pytest.mark.parametrize("name", sorted(BAD_CONFIGS))
    @pytest.mark.parametrize("command", ["solve", "decompose"])
    def test_exit_2_without_output(self, tmp_path, capsys, name, command):
        payload, where = BAD_CONFIGS[name]
        code, outdir = run_command(tmp_path, command, write_config(tmp_path, payload))
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("robust-snell: invalid configuration:")
        assert where in err
        assert not outdir.exists()

    def test_integer_beyond_the_conversion_limit_exits_2(self, tmp_path, capsys):
        # json.loads raises a plain ValueError on an integer of more than
        # sys.get_int_max_str_digits() digits (4300 by default)
        text = json.dumps(tt1_payload())[:-1] + ', "seed": ' + "9" * 5000 + "}"
        config = tmp_path / "config.json"
        config.write_text(text)
        code, outdir = run_command(tmp_path, "solve", config)
        assert code == 2
        assert "invalid configuration: config is not valid JSON" in capsys.readouterr().err
        assert not outdir.exists()

    def test_non_finite_result_exits_2_without_output(self, tmp_path, capsys, monkeypatch):
        from robust_snell import cli

        def nan_root(*args, **kwargs):
            return decompose(*args, **kwargs)._replace(X0=float("nan"))

        decompose = cli.universal_decompose
        monkeypatch.setattr(cli, "universal_decompose", nan_root)
        code, outdir = run_command(tmp_path, "decompose", fixtures.config_path("tt3"))
        assert code == 2
        assert "non-finite result: summary field 'X0' is nan" in capsys.readouterr().err
        assert not (outdir / "summary.json").exists()
        assert not (outdir / "nodes.csv").exists()


class TestIntegerFields:
    @pytest.mark.parametrize(
        "integral,exact",
        [
            (crr_with(steps=2.0), crr_with(steps=2)),
            (dict(CRR_CONFIG, seed=3.0), dict(CRR_CONFIG, seed=3)),
            (tt1_with(lambda p: p["tree"].update(horizon=1.0)), tt1_payload()),
            (tt1_with(set_node("u", "time", 1.0)), tt1_payload()),
        ],
    )
    def test_integral_floats_run_as_ints(self, tmp_path, integral, exact):
        outputs = []
        for name, payload in (("integral", integral), ("exact", exact)):
            config = write_config(tmp_path, payload, f"{name}.json")
            code, outdir = run_command(tmp_path, "solve", config, name)
            assert code == 0
            outputs.append(
                [(outdir / f).read_bytes() for f in ("summary.json", "nodes.csv")]
            )
        assert outputs[0] == outputs[1]


class TestAlphaStops:
    @pytest.mark.parametrize("name", ["tt1", "tt3", "tt4"])
    def test_alpha_one_is_read_off_u_star(self, tmp_path, monkeypatch, name):
        from robust_snell import cli

        alphas = [0.5, 0.8, 1.0]
        payload = json.loads(fixtures.config_path(name).read_text())
        payload["alphas"] = alphas
        calls = []

        def counted(solution, v, alpha):
            calls.append(alpha)
            return u_alpha(solution, v, alpha)

        monkeypatch.setattr(cli, "u_alpha", counted)
        code, outdir = run_command(tmp_path, "solve", write_config(tmp_path, payload))
        assert code == 0
        assert calls == [0.5, 0.8]
        cfg = fixtures.load(name)
        sol = solve(cfg.tree, cfg.payoff, cfg.priors, tol=cfg.tolerance)
        expected = {}
        for a in alphas:
            cut = u_alpha(sol, cfg.v, a).cut(cfg.tree)
            expected[format(a, ".17g")] = [n for n in cfg.tree.nodes() if n in cut]
        summary = read_summary(outdir)
        assert summary["u_alpha_stops"] == expected
        assert summary["U_star_stops"] == expected["1"]


class TestWriteSummary:
    @pytest.mark.parametrize(
        "summary",
        [{"x": float("nan")}, {"x": [1.0, float("inf")]}, {"x": {"y": -float("inf")}}],
    )
    def test_refuses_non_finite(self, tmp_path, summary):
        with pytest.raises(NonFiniteValueError, match="'x'|'y'"):
            write_summary(tmp_path / "out", summary)
        assert not (tmp_path / "out").exists()

    def test_finite_summary_parses_strictly(self, tmp_path):
        write_summary(tmp_path, {"a": 1.5, "b": [0.0, -2.0], "c": {"d": 1e-300}})
        text = (tmp_path / "summary.json").read_text()
        assert json.loads(text, parse_constant=pytest.fail) == {
            "a": 1.5, "b": [0.0, -2.0], "c": {"d": 1e-300}
        }


class TestWriteNodesCsv:
    def test_overflowing_decomposition_exits_2_without_output(self, tmp_path, capsys):
        # finite rewards whose drift sums to more than the largest double
        # along the path r -> u -> uu
        payload = json.loads(fixtures.config_path("tt4").read_text())
        for nd in payload["tree"]["nodes"]:
            nd["Y"] = 1.7e308 if nd["id"] in ("r", "u") else 0.0
        code, outdir = run_command(tmp_path, "decompose", write_config(tmp_path, payload))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("robust-snell: non-finite result:")
        assert "column 'A_q' is inf at node 'uu'" in err
        assert not outdir.exists()

    def test_every_number_takes_the_17_digit_rule(self, tmp_path):
        # flags and indices print as the floats they equal; the root has no value
        values = [True, False, 0, 3, 0.0, -0.0, 5e-324, 1.7976931348623157e308, 0.1]
        ids = [f"c{i}" for i in range(len(values))]
        tree = EventTree(horizon=1, records=[
            NodeRecord(id="r", time=0),
            *(NodeRecord(id=n, time=1, parent="r", q=0.1) for n in ids),
        ])
        write_nodes_csv(tmp_path, tree, {"R": dict(zip(ids, values))})
        with open(tmp_path / "nodes.csv", newline="") as fh:
            column = [row["R"] for row in csv.DictReader(fh)]
        assert column == [
            "", "1", "0", "0", "3", "0", "-0", "4.9406564584124654e-324",
            "1.7976931348623157e+308", "0.10000000000000001",
        ]

    def test_refuses_an_infinite_column(self, tmp_path, tt1):
        columns = {"Y": {"r": 1.0, "u": 0.0, "d": 2.0}, "R": {"r": 1.0, "u": float("inf")}}
        with pytest.raises(NonFiniteValueError, match="column 'R' is inf at node 'u'"):
            write_nodes_csv(tmp_path / "out", tt1.tree, columns)
        assert not (tmp_path / "out").exists()


class TestLargeRewards:
    """Rewards of 1e7 and more leave rounding of that size in the
    decomposition's increments; the run still exits 0 with finite outputs."""

    @pytest.mark.parametrize("offset", [1e7, 1e8, 1e10, 1e12])
    @pytest.mark.parametrize("name", ["tt1", "tt3", "tt4"])
    def test_shifted_fixture_decomposes(self, tmp_path, name, offset):
        payload = json.loads(fixtures.config_path(name).read_text())
        for nd in payload["tree"]["nodes"]:
            nd["Y"] = offset + 0.37 * nd["Y"]
        code, outdir = run_command(tmp_path, "decompose", write_config(tmp_path, payload))
        assert code == 0
        summary = json.loads((outdir / "summary.json").read_text(), parse_constant=pytest.fail)
        assert summary["universal_martingale_residual"] <= 1e-15 * offset
        for row in read_nodes(outdir):
            R, M, C = (float(row[k]) for k in ("R", "M", "C"))
            assert abs(summary["X0"] + M - C - R) <= 1e-15 * offset


def corner_payload(name, v):
    """A fixture whose extreme j at every decision node is 1/q_j on child j
    and 0 elsewhere, evaluated at ``v``."""
    payload = json.loads(fixtures.config_path(name).read_text())
    q = {nd["id"]: nd.get("q") for nd in payload["tree"]["nodes"]}
    children = {}
    for nd in payload["tree"]["nodes"]:
        if nd.get("parent") is not None:
            children.setdefault(nd["parent"], []).append(nd["id"])
    payload["priors"]["node_extremes"] = {
        n: [[1.0 / q[c] if c == cj else 0.0 for c in cs] for cj in cs]
        for n, cs in children.items()
    }
    payload["v"] = v
    return payload


class TestEvaluationNodeMass:
    """z* charges v through the first extreme above it that charges the path;
    extreme 0 there would leave v without mass and the certificate undefined."""

    @pytest.mark.parametrize(
        "name,v",
        [("tt1", "d"), ("tt3", "b"), ("tt3", "c"), ("tt4", "d"), ("tt4", "ud"),
         ("tt4", "du"), ("tt4", "dd")],
    )
    def test_corner_extremes_certify(self, tmp_path, name, v):
        config = write_config(tmp_path, corner_payload(name, v))
        code, outdir = run_command(tmp_path, "solve", config)
        assert code == 0
        assert read_summary(outdir)["certificate"]["optimal"] is True
        rows = {row["node_id"]: row for row in read_nodes(outdir)}
        assert float(rows[v]["z_star"]) > 0

    def test_no_model_charging_v_exits_2(self, tmp_path, capsys):
        payload = tt1_with(set_extremes([[2.0, 0.0]]))
        payload["v"] = "d"
        code, outdir = run_command(tmp_path, "solve", write_config(tmp_path, payload))
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("robust-snell: invalid configuration:")
        assert "evaluation node 'd'" in err
        assert not outdir.exists()


def test_stop_and_u_star_stop_agree_at_the_tolerance_edge(tmp_path):
    # R(r) - Y(r) = c is just above tol * R(r) = c * (1 - 1e-9): r is not a
    # stop node, so u* must not stop there either
    c = 2.0**-30
    payload = {
        "tree": {
            "horizon": 1,
            "nodes": [
                {"id": "r", "time": 0, "Y": 1.0},
                {"id": "u", "time": 1, "parent": "r", "q": 0.5, "Y": 1.0 + c},
                {"id": "d", "time": 1, "parent": "r", "q": 0.5, "Y": 1.0 + c},
            ],
        },
        "priors": {"node_extremes": {"r": [[1.0, 1.0]]}},
        "tolerance": c / (1 + c) * (1 - 1e-9),
    }
    code, outdir = run_command(tmp_path, "solve", write_config(tmp_path, payload))
    assert code == 0
    for row in read_nodes(outdir):
        assert row["stop"] == row["u_star_stop"], row
    summary = read_summary(outdir)
    assert summary["U_star_stops"] == ["u", "d"]
    assert summary["certificate"]["optimal"] is True
