"""Deep single-branch chains: every evaluator runs without recursing on depth."""

import json
import time

import pytest

from robust_snell import (
    AdaptedFamily,
    DensityProcess,
    EventTree,
    NodeRecord,
    PriorSet,
    bayes_conditional,
    check_optimality_certificate,
    count_rules,
    extract_optimal_prior,
    fixtures,
    solve,
    stop_at_time_rule,
    u_star,
)
from robust_snell import SizeGuardError, cli, oracle, snell
from reference import expected_value_q, max_rule

STEPS = 5000
LAST = f"c{STEPS}"


def chain_config(steps):
    """A chain whose reward rises to 1 at the horizon, so the optimal rule
    runs the whole chain."""
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


def build_chain(steps):
    records = [NodeRecord(id="c0", time=0)]
    records += [
        NodeRecord(id=f"c{t}", time=t, parent=f"c{t - 1}", q=1.0)
        for t in range(1, steps + 1)
    ]
    tree = EventTree(horizon=steps, records=records)
    payoff = AdaptedFamily({f"c{t}": t / steps for t in range(steps + 1)})
    priors = PriorSet.constant(tree, [[1.0]])
    return tree, payoff, priors


@pytest.fixture(scope="module")
def chain():
    return build_chain(STEPS)


def test_solve_extract_and_certify(chain):
    tree, payoff, priors = chain
    solution = solve(tree, payoff, priors)
    assert solution.R["c0"] == 1.0
    rule = u_star(solution, "c0")
    assert rule.cut(tree) == frozenset({LAST})
    z = extract_optimal_prior(solution, "c0")
    report = check_optimality_certificate(solution, rule, z)
    assert report.optimal
    assert report.value == 1.0
    assert report.value_target == 1.0


def test_stopped_value_evaluators(chain):
    tree, payoff, _ = chain
    rule = stop_at_time_rule(tree, STEPS, "c0")
    assert bayes_conditional(tree, DensityProcess.reference(tree), payoff, rule, "c0") == 1.0
    assert expected_value_q(tree, payoff, rule, "c0") == 1.0


def test_rule_algebra(chain):
    tree, _, _ = chain
    early = stop_at_time_rule(tree, 10, "c0")
    late = stop_at_time_rule(tree, STEPS, "c0")
    assert max_rule(tree, early, late).cut(tree) == frozenset({LAST})
    assert count_rules(tree, "c0") == STEPS + 1
    assert count_rules(tree, "c0", strict=True) == STEPS


def _reject_constant(token):
    raise ValueError(f"non-finite number {token}")


def test_cli_solve(tmp_path):
    config = tmp_path / "chain.json"
    config.write_text(json.dumps(chain_config(STEPS)), encoding="utf-8")
    outdir = tmp_path / "out"
    assert cli.run(["solve", "--config", str(config), "--out", str(outdir)]) == 0
    summary = json.loads(
        (outdir / "summary.json").read_text(encoding="utf-8"),
        parse_constant=_reject_constant,
    )
    assert summary["U_star_stops"] == [LAST]
    assert summary["certificate"]["optimal"] is True
    assert summary["certificate"]["value"] == 1.0


def test_cli_decompose(tmp_path):
    config = tmp_path / "chain.json"
    config.write_text(json.dumps(chain_config(STEPS)), encoding="utf-8")
    outdir = tmp_path / "out"
    assert cli.run(["decompose", "--config", str(config), "--out", str(outdir)]) == 0
    summary = json.loads(
        (outdir / "summary.json").read_text(encoding="utf-8"),
        parse_constant=_reject_constant,
    )
    assert summary["X0"] == 1.0
    assert summary["universal_martingale_residual"] <= 1e-9
    rows = (outdir / "nodes.csv").read_text(encoding="utf-8").splitlines()
    assert len(rows) == STEPS + 2  # header and one row per node


def test_cli_solve_solves_once(tmp_path, monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(cli, "solve", counted)
    monkeypatch.setattr(snell, "solve", counted)
    code = cli.run(
        ["solve", "--config", str(fixtures.config_path("tt4")), "--out", str(tmp_path)]
    )
    assert code == 0
    assert len(calls) == 1


def test_oracle_guard_counts_the_rows_of_every_node():
    # the rows at a node s steps above the horizon hold s floats, so the
    # rows of an n-step chain hold n (n + 1) / 2 in all, though no one node
    # holds more than n; the guard counts the total, building no row
    tree, _, priors = build_chain(2047)
    oracle.guard_entry_count(tree, priors, "c0")  # 2,096,128 floats
    tree, _, priors = build_chain(2048)
    with pytest.raises(SizeGuardError) as info:
        oracle.guard_entry_count(tree, priors, "c0")
    assert str(info.value) == (
        "the oracle's rows hold 2098176 floats once node 'c0' is counted "
        "(guard: 2097152)"
    )


def test_cli_oracle_refuses_a_3000_step_chain(tmp_path, capsys):
    # its rows would hold 4,501,500 floats; the count passes the cap at the
    # node 2048 steps above the horizon
    config = tmp_path / "chain.json"
    config.write_text(json.dumps(chain_config(3000)), encoding="utf-8")
    outdir = tmp_path / "out"
    start = time.perf_counter()
    code = cli.run(["oracle", "--config", str(config), "--out", str(outdir)])
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert capsys.readouterr().err == (
        "robust-snell: size guard exceeded: the oracle's rows hold 2098176 "
        "floats once node 'c952' is counted (guard: 2097152)\n"
    )
    assert not outdir.exists()
