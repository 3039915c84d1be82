"""The instrument on planted hierarchies: cascade trees of known depth, run
end to end through the CLI.

Each product's network is a 60-node cascade tree.  Node k's parent is drawn
from the b nodes before it, so b = 1 plants a chain (the deepest cascade)
and a large b a shallow, bushy tree.  Each edge carries its child's subtree
size, the flow that passes through it, times lognormal(0, 0.05) noise.
"""

import json

import numpy as np
import pytest

from flowallometry.cli import main

NODES = 60
# products 1-3 in 2000, shallower by product; product 4 deepens over 2001-2003
PLANTED = {("1", 2000): 1, ("2", 2000): 4, ("3", 2000): 64,
           ("4", 2001): 64, ("4", 2002): 8, ("4", 2003): 1}
# Each planted step moves eta by 0.05 or more over five seeds; demand 0.02.
MARGIN = 0.02


def cascade(rng: np.random.Generator, b: int) -> list[tuple[int, int, float]]:
    """(parent, child, weight) edges of one cascade tree with branching window b."""
    parent = [0] + [int(rng.integers(max(0, k - b), k)) for k in range(1, NODES)]
    size = [1] * NODES
    for k in range(NODES - 1, 0, -1):
        size[parent[k]] += size[k]
    return [(parent[k], k, size[k] * float(rng.lognormal(0.0, 0.05)))
            for k in range(1, NODES)]


def write_corpus(path, label=lambda k: f"C{k:02d}", scale=1.0):
    """The planted corpus as a trades CSV, countries named by ``label`` and
    values multiplied by ``scale``."""
    rng = np.random.default_rng(20140516)
    lines = ["year,exporter,importer,product,value"]
    for (product, year), b in PLANTED.items():
        lines.extend(f"{year},{label(i)},{label(j)},{product},{w * scale!r}"
                     for i, j, w in cascade(rng, b))
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def run_json(tmp_path, *argv):
    out = tmp_path / "out.json"
    assert main([*argv, "--format", "json", "--out", str(out)]) == 0
    return json.loads(out.read_text())


def etas(tmp_path, corpus):
    """Each product's eta in 2000 from ``batch``, and product 4's etas over
    2001-2003 from ``timeseries``."""
    doc = run_json(tmp_path, "batch", "--input", corpus, "--year", "2000")
    ranked = {r["product"]: r["eta"] for r in doc["results"]}
    doc = run_json(tmp_path, "timeseries", "--input", corpus, "--years", "2001-2003")
    series = {s["product"]: [p["eta"] for p in s["points"]] for s in doc["series"]}
    return ranked, series["4"]


@pytest.fixture(scope="module")
def planted(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("planted")
    return etas(tmp_path, write_corpus(tmp_path / "planted.csv"))


def test_batch_ranks_products_in_planted_order(planted):
    ranked, _ = planted
    assert list(ranked) == ["1", "2", "3", "ALL"]
    assert ranked["1"] - ranked["2"] > MARGIN
    assert ranked["2"] - ranked["3"] > MARGIN
    assert ranked["3"] < ranked["ALL"] < ranked["1"]


def test_timeseries_rises_as_the_product_deepens(planted):
    _, deepening = planted
    assert deepening[1] - deepening[0] > MARGIN
    assert deepening[2] - deepening[1] > MARGIN


@pytest.mark.parametrize("label, scale", [
    (lambda k: f"R{(37 * k) % NODES:02d}", 1.0),      # a permutation of the names
    (lambda k: f"C{k:02d}", 2.0),
], ids=["relabelled", "scaled"])
def test_etas_survive_relabelling_and_scaling(tmp_path, planted, label, scale):
    ranked, deepening = etas(tmp_path, write_corpus(tmp_path / "t.csv", label, scale))
    assert ranked.keys() == planted[0].keys()
    for code, eta in planted[0].items():
        assert ranked[code] == pytest.approx(eta, abs=1e-12)
    assert deepening == pytest.approx(planted[1], abs=1e-12)
