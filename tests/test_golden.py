"""Golden outputs: the sha256 of summary.json + NUL + nodes.csv per CLI run.

The digests were recorded once and must never be regenerated to make a change
pass: any engine change that alters a single output byte fails here.  The CRR
runs use the drift-ambiguity knock-in put (up 1.1, down 0.9, K 5, H 3.8,
ambiguity [0.4, 0.6]) at S0 = 5.
"""

import dataclasses
import hashlib
import json
from typing import Mapping

import pytest

from robust_snell import (
    RobustSnellError,
    check_optimality_certificate,
    extract_optimal_prior,
    fixtures,
    random_crr_params,
    random_instance,
    solve,
    u_star,
    universal_decompose,
    verify_value_identities,
)
from robust_snell.cli import parse_config, run


def crr_config(steps, mode="closure"):
    return {
        "crr": {
            "S0": 5.0,
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
        "alphas": [0.5, 0.8, 1.0],
    }


def config_for(label, tmp_path):
    """Path of the config named ``label``: a fixture or ``crr<steps>[eq]``."""
    if label.startswith("tt"):
        return fixtures.config_path(label)
    mode = "equivalent" if label.endswith("eq") else "closure"
    steps = int(label[3:].removesuffix("eq"))
    path = tmp_path / f"{label}.json"
    path.write_text(json.dumps(crr_config(steps, mode)), encoding="utf-8")
    return path


def output_digest(command, label, tmp_path):
    outdir = tmp_path / "out"
    code = run([command, "--config", str(config_for(label, tmp_path)), "--out", str(outdir)])
    assert code == 0
    data = (outdir / "summary.json").read_bytes() + b"\0" + (outdir / "nodes.csv").read_bytes()
    return hashlib.sha256(data).hexdigest()


GOLDEN = {
    "solve:tt1": "d3e046454fb0157236655b8969e9f1e60cab0e71d68ca348237d43a76fed867c",
    "oracle:tt1": "de8a19ee84dc0af788d39aba9a931bdbb661aab99374d7611ec170db91451d22",
    "decompose:tt1": "da71899e3efd4792456757ece8ad82b1816847fe8c92a08ee1f59d23b4114003",
    "solve:tt3": "f15657e05d919391f1f1d0740132f56f789707011ba6b50faf2d2a3fc3aa7bfe",
    "oracle:tt3": "b70e9570971d651ccaed5dbcf891ea72a1807c80deb896f5815ce16558ac3c09",
    "decompose:tt3": "9af7dd8074424ab73cdfbcbffcbcb9fed87fb5c6b2c18325c2f4ada791b8da34",
    "solve:tt4": "56a3d28efe01f236a202eb908b509e2d6e094b0f7c24223a146fff55258bcc1d",
    "oracle:tt4": "16764c0e4a787f12fb277ec937ac18bf8c6018a5c05db57998848a26e780ff8e",
    "decompose:tt4": "74063f48f50a999e066a7c6a8a1bfb0a5c17a1b75fa0ac38497ec1d1c8a78817",
    "solve:crr2": "fa65f0428b3cb776d43f96501ab3a0235d01aec66e342f5cfcfc1844c53bbf08",
    "price:crr2": "5f97086bc1d3019e4fa5eda7b51ed3a64dd8d2956e883b7f86276df195c7a686",
    "solve:crr4": "eac6a4f7a29638a4ec9fa9ab68200230f3ac3a51f241ea1522262fa8273fa0f3",
    "price:crr4": "bcd901ba4f3cc3932cbc1df153afbb5917f9c4f8691ed2343c0a41c78f58ffbf",
    "solve:crr6": "e16f70d4fbbee0d446a76a1791c4b499dd26a42d23723d72eb32ddd5721a3e87",
    "price:crr6": "bbbb1191e447a2b7ae565cc9207fc0d839d79828a6f0d6a9ce5599fe8918ca64",
    "solve:crr8": "f806189e06ec039674f10ca5f86afcb18c4692dd6d881978f028aa938f14ffa7",
    "price:crr8": "24a8c5e63dea590132fc8f4e5c68819b19a6d9fcfff56eba84c2ab22b832fd28",
    "solve:crr10": "f8e13744fd519a868822422e02101ac180b3e41ed6982f9c244a4f59d5542133",
    "price:crr10": "8aa711de25ca1c1ddc7d89fe731b9b6469e390cb9e1ad62c0a900990ddbaea3c",
    "solve:crr2eq": "3e3f9e2f62c10da32662ee66447ddd40e1fc5585f9fddce2b8806d89568f0b78",
    "solve:crr3eq": "bb395df1284f2ee9ef63a25a46214fced164f0fc4d29340ee5efddd4e06a4e05",
    "solve:crr4eq": "790a314858998fcaf62cffd91b3d02032be0a5dc61ce133228b1f14df6b438cf",
    "solve:crr5eq": "1c2659875206fe98e935cd1be0e07590c14868004d9a17c4f0eddad213481e66",
    "solve:crr6eq": "e1e46c8a5540d0656087c622b1a8ffc867e04ae087bd29a75b65881bfd98052a",
    "solve:crr7eq": "478e8398f4dad12f5019275df3cb3304a73dd44791772fa404aede93833b3397",
    "solve:crr8eq": "e2f5248a88312e606d93fa575725334eff5e3643dffd47a9d0478c21a5c9c5c9",
    "decompose:crr2": "027dbc0b6fc3587f937ac8dc515994dfd781900aed04918a6f3bcf5e79216cf4",
    "decompose:crr3": "e5b194107d3b5af1ae12a395c69644823f3e8279de8035b5a7bad03f07c39329",
    "decompose:crr4": "54f385d97e40baa0092389731367d1e5f7752c15f7f38b804b81037ad19db262",
    "decompose:crr5": "920b8f19453713b3e0ea49bad9344c5c3d823bb2bf8253c8eca473f1f9e8ddcf",
    "decompose:crr6": "dda885464d9006a949eb881acdd2837cd63b946027f7d0b1e5d18dfe47bf9322",
    "decompose:crr8": "af3711d7eab43bc9f14caffa3474ba603155e0cd4dd22ecb3fd90e9e2e833fed",
    "decompose:crr10": "8ff487f5dbb31bbf118b9ca8b63cee69fbbfce8ef0c5fe5b8cb3e0596860b538",
    "decompose:crr4eq": "a7769e09e356c5c1bbe9eb0e2f11d837bf10427151a9fc276a09a7a84be66686",
    "decompose:crr6eq": "398593198ca19119f85f7f0df5273094622cd5481d5ae1850f9485e2d82879f3",
}


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_output_matches_golden_digest(key, tmp_path):
    command, label = key.split(":")
    assert output_digest(command, label, tmp_path) == GOLDEN[key]


#: sha256 over seeds 0-39 of random_instance, single- and multi-prior, and of
#: random_crr_params: the property suites draw their cases from these
RANDOM_MODELS = "a99bf669f303caf3e5b2d3e873210cc4cc19d2c24dd981926d7393f80a77d0f9"


def instance_text(instance):
    """The content of a random instance, without object identities."""
    tree, payoff, priors = instance
    nodes = [
        (n, tree.time(n), tree.parent(n), tree.node(n).q, sorted(tree.node(n).states.items()))
        for n in tree.nodes()
    ]
    values = [(n, payoff[n]) for n in tree.nodes()]
    extremes = [(n, [tuple(d) for d in priors.extremes(n)]) for n in tree.decision_nodes(tree.root)]
    return repr((tree.horizon, nodes, values, extremes, priors.mode))


def test_random_models_match_golden_digest():
    h = hashlib.sha256()
    for seed in range(40):
        h.update(instance_text(random_instance(seed)).encode())
        h.update(instance_text(random_instance(seed, single_prior=True)).encode())
        h.update(repr(random_crr_params(seed)).encode())
    assert h.hexdigest() == RANDOM_MODELS


#: sha256 of the library's outputs on the fixtures, the 6-step CRR put in both
#: modes and seeds 0-39 of random_instance, multi- and single-prior: at every
#: node the u* cut, the optimal prior's ratios and z and its certificate (or
#: the error), then the decomposition and the identities' worst deviations
LIBRARY_OUTPUTS = "3ce06de5d2130cf23c229ac6e19070a67c4db10a3e49f2831d68557b416d756d"


def _canon(value):
    """``value`` with every float, also inside mappings and sequences, as
    ``float.hex``."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, Mapping):
        return [(k, _canon(v)) for k, v in value.items()]
    if isinstance(value, (list, tuple)):
        return [_canon(v) for v in value]
    return value


def _outcome(fn, *args):
    """``fn(*args)``, or the class and message of the library error it raises."""
    try:
        return fn(*args)
    except RobustSnellError as exc:
        return f"{type(exc).__name__}: {exc}"


def library_text(solution):
    """Every output the library derives from ``solution``, floats in hex."""
    tree = solution.tree
    nodes = tree.nodes()
    parts = []
    for v in nodes:
        rule = u_star(solution, v)
        cut = rule.cut(tree)
        entry = [v, [n for n in nodes if n in cut]]
        process = _outcome(extract_optimal_prior, solution, v)
        if isinstance(process, str):
            entry.append(process)
        else:
            cert = _outcome(check_optimality_certificate, solution, rule, process)
            entry += [
                _canon([(n, process.ratio[n]) for n in nodes if n in process.ratio]),
                _canon([(n, process.z[n]) for n in nodes if n in process.z]),
                cert if isinstance(cert, str) else _canon(dataclasses.astuple(cert)),
            ]
        parts.append(entry)
    decomp = universal_decompose(solution)
    diag = decomp.diagnostics
    parts.append(_canon([
        decomp.X0,
        [[(n, f[n]) for n in nodes] for f in (decomp.M, decomp.C, decomp.K, decomp.A_q)],
        diag.C_increasing,
        diag.min_delta_C,
        diag.universal_martingale_residual,
        diag.premise.full_slice,
        diag.premise.scaling_closed,
    ]))
    report = _outcome(verify_value_identities, solution)
    parts.append(
        report if isinstance(report, str)
        else _canon([c.worst_deviation for c in report.checks])
    )
    return repr(parts)


def test_library_outputs_match_golden_digest(tmp_path):
    h = hashlib.sha256()
    for label in ("tt1", "tt3", "tt4", "crr6", "crr6eq"):
        cfg = parse_config(config_for(label, tmp_path))
        h.update(library_text(solve(cfg.tree, cfg.payoff, cfg.priors, tol=cfg.tolerance)).encode())
    for seed in range(40):
        for single in (False, True):
            h.update(library_text(solve(*random_instance(seed, single_prior=single))).encode())
    assert h.hexdigest() == LIBRARY_OUTPUTS
