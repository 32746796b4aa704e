import json
import math
import random
import time

import pytest

import robust_snell
from robust_snell import (
    AdaptedFamily,
    CrrParams,
    EventTree,
    InvalidFamilyError,
    InvalidPriorSetError,
    NodeRecord,
    PriorSet,
    SizeGuardError,
    bayes_conditional,
    brute_force_value,
    build_crr_barrier_tree,
    crosscheck,
    density_process,
    drift_ambiguity_priors,
    fixtures,
    knockin_payoff,
    random_instance,
    selection_count,
    solve,
)
from robust_snell import cli, filtration, oracle, snell
from robust_snell import priors as priors_module
from robust_snell.filtration import continuing_rows, step
from reference import (
    brute_force_strict_value,
    enumerate_rules,
    expected_value_q,
    extreme_selections,
    fold_rows,
    strict_scan,
)


class TestBruteForce:
    def test_tt1_value_and_argmax(self, tt1):
        result = brute_force_value(tt1.tree, tt1.payoff, tt1.priors, "r")
        assert result.value == pytest.approx(1.5, abs=1e-12)
        assert result.best_rule.cut(tt1.tree) == frozenset({"u", "d"})
        assert result.best_selection == {"r": 0}

    def test_tt4_value(self, tt4):
        result = brute_force_value(tt4.tree, tt4.payoff, tt4.priors, "r")
        assert result.value == pytest.approx(2.625, abs=1e-12)

    def test_tt4_single_prior_by_hand(self, tt4_single):
        # enumerating the 5 rules under the reference measure gives
        # max(1, 1.5, 1.25, 1.75, 1.5) = 1.75, attained by riding the up
        # branch to the horizon and stopping at the down node
        tree, payoff, priors = tt4_single
        result = brute_force_value(tree, payoff, priors, "r")
        assert result.value == pytest.approx(1.75, abs=1e-12)
        assert result.best_rule.cut(tree) == frozenset({"uu", "ud", "d"})

    def test_max_dominates_every_pair(self, tt4):
        best = brute_force_value(tt4.tree, tt4.payoff, tt4.priors, "r").value
        for rule in enumerate_rules(tt4.tree, "r"):
            for sel in extreme_selections(tt4.tree, tt4.priors):
                z = density_process(tt4.tree, tt4.priors, sel)
                assert bayes_conditional(tt4.tree, z, tt4.payoff, rule, "r") <= best + 1e-12

    def test_single_prior_reduces_to_classical_enumeration(self, tt4_single):
        tree, payoff, priors = tt4_single
        classical = max(
            expected_value_q(tree, payoff, rule, "r")
            for rule in enumerate_rules(tree, "r")
        )
        robust = brute_force_value(tree, payoff, priors, "r").value
        assert robust == pytest.approx(classical, abs=1e-14)


def full_binary_tree(depth):
    """Full binary tree with ids from the root "r" by appending u or d."""
    records = [NodeRecord(id="r", time=0)]
    level = ["r"]
    for t in range(1, depth + 1):
        level = [
            f"{'' if n == 'r' else n}{move}" for n in level for move in "ud"
        ]
        records += [
            NodeRecord(id=c, time=t, parent="r" if t == 1 else c[:-1], q=0.5)
            for c in level
        ]
    return EventTree(horizon=depth, records=records)


def test_32768_selections_run_under_the_float_cap():
    # 2 extremes at each of the 15 decision nodes: 2**15 = 32,768 selections,
    # whose rows hold 1,046,990 floats in all
    tree = full_binary_tree(4)
    priors = PriorSet.constant(tree, [(0.5, 1.5), (1.5, 0.5)])
    payoff = AdaptedFamily.constant(tree, 1.0)
    assert selection_count(tree, priors) == 2**15
    oracle.guard_entry_count(tree, priors, "r")
    result = brute_force_value(tree, payoff, priors, "r")
    assert result.value == solve(tree, payoff, priors).R["r"]


def wide_root():
    """A root with 18 children, each with 2 leaves and 2 extremes, and 2
    extremes at the root: the rows at the root hold 2 * 3**18 floats."""
    k = 18
    records = [NodeRecord(id="r", time=0)]
    for i in range(k):
        records.append(NodeRecord(id=f"c{i}", time=1, parent="r", q=1.0 / k))
        records += [
            NodeRecord(id=f"c{i}{m}", time=2, parent=f"c{i}", q=0.5) for m in "ud"
        ]
    tree = EventTree(horizon=2, records=records)
    extremes = {f"c{i}": [(1.0, 1.0), (1.5, 0.5)] for i in range(k)}
    extremes["r"] = [(1.0,) * k, (1.5,) * (k // 2) + (0.5,) * (k // 2)]
    priors = PriorSet.from_node_extremes(extremes)
    return tree, AdaptedFamily.constant(tree, 1.0), priors


def test_wide_root_is_refused_at_the_root():
    # 18 * 2 floats at the children and 774,840,978 at the root
    tree, payoff, priors = wide_root()
    message = "the oracle's rows hold 774841014 floats once node 'r' is counted"
    with pytest.raises(SizeGuardError, match=message):
        brute_force_value(tree, payoff, priors, "r")
    with pytest.raises(SizeGuardError, match=message):
        brute_force_strict_value(tree, payoff, priors, "r")


def two_extreme_binary_tree(depth, seed, ambiguous=None):
    """``full_binary_tree`` with seeded rewards and 2 extremes at ``ambiguous``
    decision nodes (all of them by default), the reference ratio elsewhere.

    Even seeds draw rewards from {0, 1, 2, 3}, so that many (rule, selection)
    pairs tie and the tie-break is exercised.
    """
    rng = random.Random(seed)

    def reward():
        if seed % 2 == 0:
            return float(rng.randint(0, 3))
        return round(rng.uniform(0.0, 5.0), 6)

    tree = full_binary_tree(depth)
    payoff = AdaptedFamily({n: reward() for n in tree.nodes()})
    decision = tree.decision_nodes(tree.root)
    chosen = set(decision if ambiguous is None else rng.sample(decision, ambiguous))
    extremes = {}
    for n in decision:
        if n not in chosen:
            extremes[n] = [(1.0, 1.0)]
            continue
        ps = (rng.uniform(0.25, 0.5), rng.uniform(0.5, 0.75))
        extremes[n] = [(p / 0.5, (1.0 - p) / 0.5) for p in ps]
    return tree, payoff, PriorSet.from_node_extremes(extremes)


def ternary_tree(seed):
    """Depth 2 with 3 children per decision node and 3 extremes at each of
    its 4 decision nodes: 8 rules continue at the root, under 81 selections."""
    rng = random.Random(seed)
    records = [NodeRecord(id="r", time=0)]
    for a in "abc":
        records.append(NodeRecord(id=a, time=1, parent="r", q=1 / 3))
        records += [NodeRecord(id=a + b, time=2, parent=a, q=1 / 3) for b in "abc"]
    tree = EventTree(horizon=2, records=records)
    payoff = AdaptedFamily({n: round(rng.uniform(0.0, 5.0), 6) for n in tree.nodes()})
    extremes = {}
    for n in tree.decision_nodes(tree.root):
        q = tree.q_vector(n)
        extremes[n] = []
        for _ in range(3):
            raw = [rng.uniform(0.05, 1.0) for _ in q]
            norm = sum(qc * rc for qc, rc in zip(q, raw))
            extremes[n].append(tuple(x / norm for x in raw))
    return tree, payoff, PriorSet.from_node_extremes(extremes)


def crr_put(steps):
    params = CrrParams(
        S0=5.0, up=1.1, down=0.9, steps=steps, rate=0.0, K=5.0, H=3.8,
        q_up=0.5, ambiguity=(0.4, 0.6),
    )
    tree = build_crr_barrier_tree(params)
    return tree, knockin_payoff(tree, params), drift_ambiguity_priors(tree, params)


def overflow_instance():
    """A child value that overflows to inf under the first extreme at ``a``,
    seen by ``r`` through a zero ratio: ``0 * inf`` makes the first entry of
    a rule's row NaN while its other entries are finite or inf."""
    big = 1.7976931348623157e308
    tree = EventTree(horizon=2, records=[
        NodeRecord(id="r", time=0),
        NodeRecord(id="a", time=1, parent="r", q=0.5),
        NodeRecord(id="b", time=1, parent="r", q=0.5),
        NodeRecord(id="aa", time=2, parent="a", q=0.5),
        NodeRecord(id="ab", time=2, parent="a", q=0.5),
        NodeRecord(id="ba", time=2, parent="b", q=0.5),
        NodeRecord(id="bb", time=2, parent="b", q=0.5),
    ])
    payoff = AdaptedFamily(
        {"r": 0.0, "a": 0.0, "b": 1.0, "aa": big, "ab": big, "ba": 0.0, "bb": 2.0}
    )
    priors = PriorSet.from_node_extremes({
        "r": [(0.0, 2.0), (1.0, 1.0)],
        "a": [(1.0 + 1e-13, 1.0 + 1e-13), (1.0, 1.0)],
        "b": [(1.0, 1.0)],
    })
    return tree, payoff, priors


def fold(walk, q, ratio, stopped):
    """One rule under one selection: ``step`` at every continuation node."""
    values = dict(stopped)
    for n, children in walk.continuation:
        values[n] = step(q(n), ratio(n), map(values.__getitem__, children))
    return values[walk.floor]


def reference_brute_force(tree, payoff, priors, v, strict):
    """The oracle as a plain triple loop: rules x ``extreme_selections`` x
    ``fold``, rules outer, strict ``>``."""
    rules = enumerate_rules(tree, v, strict=strict)
    selections = extreme_selections(tree, priors, v)
    best = (float("-inf"), rules[0], selections[0])
    for rule in rules:
        walk = rule.walk(tree)
        stopped = {s: payoff[s] for s in walk.cut}
        for sel in selections:
            value = fold(
                walk, tree.q_vector, lambda n: priors.extremes(n)[sel[n]], stopped
            )
            if value > best[0]:
                best = (value, rule, sel)
    return best


def _fixture(name):
    f = fixtures.load(name)
    return f.tree, f.payoff, f.priors


REFERENCE_CASES = (
    [(name, lambda name=name: _fixture(name)) for name in ("tt1", "tt3", "tt4")]
    + [(f"crr{s}", lambda s=s: crr_put(s)) for s in (2, 3)]
    + [(f"random{seed}", lambda seed=seed: random_instance(seed)) for seed in range(20)]
    + [(f"binary{seed}", lambda seed=seed: two_extreme_binary_tree(3, seed))
       for seed in range(6)]
    + [("overflow", overflow_instance)]
)


@pytest.mark.parametrize(
    "build", [b for _, b in REFERENCE_CASES], ids=[n for n, _ in REFERENCE_CASES]
)
def test_matches_the_reference_triple_loop(build):
    tree, payoff, priors = build()
    for n in tree.nodes():
        for strict in (False, True):
            value, rule, sel = reference_brute_force(tree, payoff, priors, n, strict)
            plain, later = oracle._brute_force(tree, payoff, priors, n, strict)
            result = later if strict else plain
            assert result.value == value, (n, strict)
            assert result.best_rule.labels == rule.labels, (n, strict)
            assert result.best_selection == sel, (n, strict)


def charging_selection(tree, priors, v):
    """On each strict ancestor of ``v``, the first extreme that charges the
    path to ``v``, so that a conditional value at ``v`` is defined."""
    selection = {}
    n = v
    while (parent := tree.parent(n)) is not None:
        i = tree.children(parent).index(n)
        extremes = priors.extremes(parent)
        selection[parent] = next(j for j, d in enumerate(extremes) if d[i] > 0)
        n = parent
    return selection


def bits(values):
    return tuple(x.hex() for x in values)


ROW_CASES = (
    [(name, lambda name=name: _fixture(name)) for name in ("tt1", "tt3", "tt4")]
    + [
        (f"random{seed}-{kind}", lambda seed=seed, single=single: random_instance(seed, single))
        for seed in range(40)
        for kind, single in (("ambiguous", False), ("single", True))
    ]
    # the shape of the bench's oracle workload, and three children under
    # three extremes at every decision node
    + [("binary4-ambiguous8", lambda: two_extreme_binary_tree(4, seed=7, ambiguous=8))]
    + [(f"ternary{seed}", lambda seed=seed: ternary_tree(seed)) for seed in range(2)]
)


@pytest.mark.parametrize("build", [b for _, b in ROW_CASES], ids=[n for n, _ in ROW_CASES])
def test_rows_match_the_reference_enumeration(build):
    # continuing_rows alone orders the rules that continue at a node: row k
    # is the k-th strict rule of the reference enumeration, folded under
    # every selection, and the oracle decodes k back into that rule
    tree, payoff, priors = build()
    rows = continuing_rows(tree, priors.extremes, payoff.__getitem__, tree.root)
    for n in tree.decision_nodes(tree.root):
        rules = enumerate_rules(tree, n, strict=True)
        assert len(rows[n]) == len(rules), n
        for k, rule in enumerate(rules):
            walk = rule.walk(tree)
            stopped = {s: payoff[s] for s in walk.cut}
            folded = fold_rows(walk, tree.q_vector, priors.extremes, stopped)
            assert bits(rows[n][k]) == bits(folded), (n, k)
            decoded = oracle._rule_at(tree, rows, n, k, True)
            assert decoded == rule, (n, k)
            assert list(decoded.labels.items()) == list(rule.labels.items()), (n, k)
        result = brute_force_value(tree, payoff, priors, n)
        selection = {**charging_selection(tree, priors, n), **result.best_selection}
        process = density_process(tree, priors, selection)
        value = bayes_conditional(tree, process, payoff, result.best_rule, n)
        assert bits([value]) == bits([result.value]), n


NAN = float("nan")
INF = float("inf")


@pytest.mark.parametrize("rows", [
    [(1.0, 2.0), (NAN, 3.0, 2.0)],  # NaN first in a later row
    [(NAN, 3.0), (NAN, NAN)],  # NaN first, and a row of NaN only
    [(1.0, NAN, 3.0, 3.0), (2.0, NAN)],  # NaN mid-row
    [(-INF, -INF), (-INF,)],  # no entry exceeds -inf
    [(-INF, -1.0), (-INF, NAN, -INF)],
    [(-0.0, 0.0), (0.0, -0.0)],  # ties between signed zeros
    [(-1.0, 0.0, -0.0), (-0.0,)],
    [(0.5, 2.0, 2.0), (1.0, 2.0), (2.0, 1.5)],  # ties across rows
    [(INF, INF), (NAN, INF)],
], ids=["nan-later-row", "nan-rows", "nan-mid-row", "all-minus-inf", "minus-inf-nan",
        "signed-zeros", "signed-zero-mid-row", "ties", "inf-ties"])
def test_scan_matches_the_strict_loop(rows):
    # max and index per row give the strict loop's value, bit for bit, and
    # its row and entry index
    value, k, i = oracle._scan(rows)
    expected, at_k, at_i = strict_scan(rows)
    assert (bits([value]), k, i) == (bits([expected]), at_k, at_i)


MOVED_TO_REFERENCE = (
    "verify_value_identities",
    "IdentityCheck",
    "IdentityReport",
    "IDENTITY_TOL",
    "IDENTITY_ALPHAS",
    "fold_rows",
    "enumerate_rules",
    "extreme_selections",
    "gamma",
    "MAX_DECISION_NODES",
    "MAX_RULES",
    "guard_rule_count",
    "MAX_SELECTIONS",
    "guard_selection_count",
)


def test_package_binds_no_enumeration_checker():
    # the enumeration checkers and their size guards run only in the tests,
    # from tests/reference.py
    for module in (robust_snell, snell, filtration, priors_module, oracle):
        bound = [name for name in MOVED_TO_REFERENCE if hasattr(module, name)]
        assert bound == [], module.__name__
    # the closed-form counts stay: the bench reads them
    assert callable(robust_snell.count_rules)
    assert callable(robust_snell.selection_count)


class TestStrictBruteForce:
    def test_tt1(self, tt1):
        assert brute_force_strict_value(tt1.tree, tt1.payoff, tt1.priors, "r") == pytest.approx(1.5)

    def test_tt4(self, tt4):
        assert brute_force_strict_value(tt4.tree, tt4.payoff, tt4.priors, "r") == pytest.approx(2.625)

    def test_terminal_node_returns_reward(self, tt4):
        for leaf in tt4.tree.leaves():
            value = brute_force_strict_value(tt4.tree, tt4.payoff, tt4.priors, leaf)
            assert value == pytest.approx(tt4.payoff[leaf])

    def test_strict_below_plain(self, tt4_single):
        tree, payoff, priors = tt4_single
        for n in tree.nodes():
            strict = brute_force_strict_value(tree, payoff, priors, n)
            plain = brute_force_value(tree, payoff, priors, n).value
            assert strict <= plain + 1e-12


class TestCrosscheck:
    def test_fixtures_are_exact(self, tt1, tt4):
        assert crosscheck(tt1.tree, tt1.payoff, tt1.priors).max_deviation == 0.0
        assert crosscheck(tt4.tree, tt4.payoff, tt4.priors).max_deviation == 0.0

    def test_seeded_random_instances(self):
        for seed in range(10):
            tree, payoff, priors = random_instance(seed)
            report = crosscheck(tree, payoff, priors)
            assert report.max_deviation < 1e-9, f"seed {seed}: {report}"


def count_entries(monkeypatch, call):
    """The result of ``call()`` and the number of row entries the row
    kernel returned while it ran: one per one-step sum of a rule under a
    selection."""
    entries = 0
    kernel = filtration._rule_rows

    def counted(*args):
        nonlocal entries
        rows = kernel(*args)
        entries += sum(map(len, rows))
        return rows

    monkeypatch.setattr(filtration, "_rule_rows", counted)
    result = call()
    monkeypatch.setattr(filtration, "_rule_rows", kernel)
    return result, entries


def test_crosscheck_folds_each_node_once(monkeypatch):
    # a rule that continues at a node has one entry per selection of the
    # nodes where it continues, and the rows of the rules below it are
    # shared, never rebuilt
    tree, payoff, priors = two_extreme_binary_tree(4, seed=7, ambiguous=8)
    solution = solve(tree, payoff, priors)
    entries = sum(
        math.prod(len(priors.extremes(m)) for m in rule.continuation_region(tree))
        for n in tree.decision_nodes(tree.root)
        for rule in enumerate_rules(tree, n, strict=True)
    )
    report, returned = count_entries(
        monkeypatch, lambda: crosscheck(tree, payoff, priors, solution=solution)
    )
    assert report.max_deviation < 1e-9
    assert returned == entries == 46_833


def test_crosscheck_step_count_is_under_a_tenth_of_the_triple_loop(monkeypatch):
    # the triple loop calls step once per continuation node of each rule
    # under each selection below the floor; the rows share subtree values,
    # so they hold far fewer one-step sums
    tree, payoff, priors = two_extreme_binary_tree(4, seed=7, ambiguous=8)
    triple_loop = sum(
        selection_count(tree, priors, n) * len(rule.continuation_region(tree))
        for n in tree.nodes()
        for strict in (False, True)
        for rule in enumerate_rules(tree, n, strict=strict)
    )
    solution = solve(tree, payoff, priors)
    report, entries = count_entries(
        monkeypatch, lambda: crosscheck(tree, payoff, priors, solution=solution)
    )
    assert report.max_deviation < 1e-9
    assert 0 < entries < triple_loop / 10, (entries, triple_loop)


def late_root(tmp_path):
    """A config whose node list has the 31 decision nodes below "c" before
    the root and its 63."""
    nodes = []
    for top in "cb":
        nodes.append({"id": top, "time": 1, "parent": "r", "q": 0.5, "Y": 1.0})
        level = [top]
        for t in range(2, 7):
            level = [n + m for n in level for m in "ud"]
            nodes += [
                {"id": n, "time": t, "parent": n[:-1], "q": 0.5, "Y": float(len(n) % 3)}
                for n in level
            ]
        if top == "c":
            nodes.append({"id": "r", "time": 0, "Y": 0.5})
    path = tmp_path / "late_root.json"
    path.write_text(json.dumps({
        "tree": {"horizon": 6, "nodes": nodes},
        "priors": {"interval_up_probability": {"lo": 0.4, "hi": 0.6}},
    }))
    cfg = cli.parse_config(path)
    return cfg.tree, cfg.payoff, cfg.priors


@pytest.mark.parametrize("build, node, floats", [
    (lambda tmp_path: wide_root(), "r", 774_841_014),
    (lambda tmp_path: two_extreme_binary_tree(5, seed=3), "r", 2_185_971_135_342),
    (late_root, "b", 2_185_971_135_342),
], ids=["wide_root", "binary5", "late_root"])
def test_guards_trip_in_node_order(build, node, floats, tmp_path):
    # the guard counts children before parents, the reverse of the preorder
    # from the root whatever the order of the config's node list, so the
    # last child of the root is counted first: the 31 decision nodes below
    # "b" in late_root take the total over the cap before the root is
    # reached.  crosscheck and both oracles at the root guard the same rows
    tree, payoff, priors = build(tmp_path)
    calls = (
        lambda: crosscheck(tree, payoff, priors),
        lambda: brute_force_value(tree, payoff, priors, tree.root),
        lambda: brute_force_strict_value(tree, payoff, priors, tree.root),
    )
    message = (
        f"the oracle's rows hold {floats} floats once node {node!r} is counted "
        "(guard: 2097152)"
    )
    for call in calls:
        with pytest.raises(SizeGuardError) as info:
            call()
        assert type(info.value) is SizeGuardError
        assert str(info.value) == message


def wide_fifty(root_extremes):
    """A 50-node config whose root has 7 children and ``root_extremes``
    extremes; each child has one extreme and 2 one-extreme children with 2
    leaves each.  The rows of the 21 decision nodes below the root hold 42
    floats, and the rows at the root root_extremes * 5**7."""
    nodes = [{"id": "r", "time": 0, "Y": 0.0}]
    extremes = {"r": []}
    for i in range(7):
        child = f"c{i}"
        nodes.append({"id": child, "time": 1, "parent": "r", "q": 1 / 7, "Y": 0.5})
        extremes[child] = [[1.0, 1.0]]
        for grandchild in (child + "u", child + "d"):
            nodes.append({"id": grandchild, "time": 2, "parent": child, "q": 0.5, "Y": 1.0})
            extremes[grandchild] = [[1.0, 1.0]]
            for leaf in (grandchild + "u", grandchild + "d"):
                nodes.append(
                    {"id": leaf, "time": 3, "parent": grandchild, "q": 0.5,
                     "Y": float(len(nodes) % 5)}
                )
    # distinct ratios 1 + s (e_i - e_j), each summing to 1 under q
    pairs = [(i, j) for i in range(7) for j in range(7) if i != j]
    for s in range(1, 99):
        for i, j in pairs:
            d = [1.0] * 7
            d[i] += s / 100
            d[j] -= s / 100
            extremes["r"].append(d)
    del extremes["r"][root_extremes:]
    return {"tree": {"horizon": 3, "nodes": nodes}, "priors": {"node_extremes": extremes}}


class TestEntryGuard:
    """The rows at a node n hold E(n) = |extremes(n)| * prod_c (1 + E(c))
    floats, E = 0 at a terminal node, and every node's rows are kept:
    ``guard_entry_count`` caps the sum of E over the subtree."""

    @staticmethod
    def config(tmp_path, root_extremes):
        path = tmp_path / "wide_fifty.json"
        path.write_text(json.dumps(wide_fifty(root_extremes)))
        return path

    def test_wide_fifty_is_refused_at_once(self, tmp_path, capsys):
        # without the entry guard the rows need 320,000,042 floats: over
        # 10 GB, ending in a MemoryError after about 30 s
        path = self.config(tmp_path, 4096)
        cfg = cli.parse_config(path)
        tree, payoff, priors = cfg.tree, cfg.payoff, cfg.priors
        assert len(tree.nodes()) == 50
        assert selection_count(tree, priors) == 4096
        message = (
            "the oracle's rows hold 320000042 floats once node 'r' is counted "
            "(guard: 2097152)"
        )
        for call in (
            lambda: crosscheck(tree, payoff, priors),
            lambda: brute_force_value(tree, payoff, priors, "r"),
        ):
            start = time.perf_counter()
            with pytest.raises(SizeGuardError) as info:
                call()
            assert time.perf_counter() - start < 1.0
            assert str(info.value) == message
        start = time.perf_counter()
        code = cli.run(["oracle", "--config", str(path), "--out", str(tmp_path / "out")])
        assert time.perf_counter() - start < 1.0
        assert code == 3
        assert capsys.readouterr().err == f"robust-snell: size guard exceeded: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_invalid_input_exits_2_before_the_guard(self, tmp_path, capsys):
        # the CLI validates the inputs before it counts the oracle's rows, so
        # a negative reward on a tree over the cap is a configuration error
        payload = wide_fifty(4096)
        payload["tree"]["nodes"][-1]["Y"] = -1.0
        leaf = payload["tree"]["nodes"][-1]["id"]
        path = tmp_path / "negative.json"
        path.write_text(json.dumps(payload))
        code = cli.run(["oracle", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == (
            f"robust-snell: invalid configuration: family negative at node {leaf}: -1\n"
        )
        assert not (tmp_path / "out").exists()

    def test_runs_below_the_cap(self, tmp_path):
        # 4 root extremes: 312,500 floats at the root, 312,542 in all
        cfg = cli.parse_config(self.config(tmp_path, 4))
        oracle.guard_entry_count(cfg.tree, cfg.priors, "r")
        assert crosscheck(cfg.tree, cfg.payoff, cfg.priors).max_deviation == 0.0

    def test_stops_at_the_first_node_over_the_cap(self, tmp_path, monkeypatch):
        # children before parents, the last child in preorder first: its two
        # children's rows hold 1 float each and its own 1 * 2 * 2, so the
        # total is 6 once "c6" is counted and 42 once "c0" is
        cfg = cli.parse_config(self.config(tmp_path, 4))
        for cap, node, floats in ((5, "c6", 6), (41, "c0", 42), (42, "r", 312_542)):
            monkeypatch.setattr(oracle, "MAX_ENTRIES", cap)
            with pytest.raises(
                SizeGuardError,
                match=f"rows hold {floats} floats once node {node!r} is counted",
            ):
                oracle.guard_entry_count(cfg.tree, cfg.priors, "r")
        monkeypatch.setattr(oracle, "MAX_ENTRIES", 312_542)
        oracle.guard_entry_count(cfg.tree, cfg.priors, "r")

    @pytest.mark.parametrize("build", [
        lambda: _fixture("tt1"),
        lambda: _fixture("tt4"),
        lambda: two_extreme_binary_tree(4, seed=7, ambiguous=8),
        lambda: random_instance(3),
        lambda: random_instance(11),
    ], ids=["tt1", "tt4", "binary4", "random3", "random11"])
    def test_counts_the_floats_of_the_rows(self, build, monkeypatch):
        # at each decision node n, the guard passes at exactly the number of
        # floats continuing_rows builds at n and below it, and one float
        # under that it names n, the node it counts last
        tree, payoff, priors = build()
        rows = continuing_rows(tree, priors.extremes, payoff.__getitem__, tree.root)
        for n in tree.decision_nodes(tree.root):
            floats = sum(len(row) for m in tree.decision_nodes(n) for row in rows[m])
            monkeypatch.setattr(oracle, "MAX_ENTRIES", floats)
            oracle.guard_entry_count(tree, priors, n)
            monkeypatch.setattr(oracle, "MAX_ENTRIES", floats - 1)
            with pytest.raises(
                SizeGuardError, match=f"rows hold {floats} floats once node {n!r} is counted"
            ):
                oracle.guard_entry_count(tree, priors, n)

    def test_admits_the_fixtures_and_random_instances(self):
        cases = [_fixture(name) for name in ("tt1", "tt3", "tt4")]
        cases += [random_instance(seed) for seed in range(40)]
        for tree, _, priors in cases:
            oracle.guard_entry_count(tree, priors, tree.root)


def tt4_with_a_short_extreme(tt4):
    """tt4 with a 1-component extreme (1.0,) added at its 2-child root."""
    extremes = dict(tt4.priors.extreme_points)
    extremes["r"] = [*extremes["r"], (1.0,)]
    return tt4.tree, tt4.payoff, PriorSet(extreme_points=extremes, mode=tt4.priors.mode)


class TestBruteForceValidates:
    def test_invalid_prior_set_is_refused_as_solve_refuses_it(self, tt4, monkeypatch):
        tree, payoff, priors = tt4_with_a_short_extreme(tt4)
        with pytest.raises(InvalidPriorSetError) as solved:
            solve(tree, payoff, priors)

        def no_rows(*args):
            raise AssertionError("a row was built")

        monkeypatch.setattr(oracle, "continuing_rows", no_rows)
        for call in (brute_force_value, brute_force_strict_value):
            with pytest.raises(InvalidPriorSetError) as info:
                call(tree, payoff, priors, "r")
            assert str(info.value) == str(solved.value)
            assert str(info.value) == "node r: extreme 2 has 1 components, expected 2"

    def test_invalid_reward_is_refused_as_solve_refuses_it(self, tt4):
        payoff = AdaptedFamily({**dict(tt4.payoff.items()), "uu": -1.0})
        with pytest.raises(InvalidFamilyError) as solved:
            solve(tt4.tree, payoff, tt4.priors)
        with pytest.raises(InvalidFamilyError) as info:
            brute_force_value(tt4.tree, payoff, tt4.priors, "r")
        assert str(info.value) == str(solved.value)

    def test_checks_run_through_the_engine_module(self, tt4, monkeypatch):
        # the bench times validation by wrapping these names on snell
        called = []

        def recorded(name):
            check = getattr(snell, name)

            def call(*args):
                called.append(name)
                return check(*args)

            return call

        for name in ("validate_tree", "validate_family", "structural_violations"):
            monkeypatch.setattr(snell, name, recorded(name))
        brute_force_value(tt4.tree, tt4.payoff, tt4.priors, "r")
        assert called == ["validate_tree", "validate_family", "structural_violations"]
