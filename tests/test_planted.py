"""The instrument on planted hierarchies: cascade trees of known depth, run
end to end through the CLI.

Each product's network is a 60-node cascade tree.  Node k's parent is drawn
from the b nodes before it, so b = 1 plants a chain (the deepest cascade)
and a large b a shallow, bushy tree.  Each edge carries its child's subtree
size, the flow that passes through it, times lognormal(0, 0.05) noise.  One
product recycles: every child sends half of what it receives back to its
parent, so its network is full of cycles and u_ii > 1 on its inner nodes.
The same family runs again at 150 nodes, above the 64 at which the
fundamental matrix takes its block route.
"""

import json
from collections import defaultdict

import numpy as np
import pytest

from flowallometry.cli import main

NODES = 60
# products 1-3 in 2000, shallower by product; product 4 deepens over 2001-2003;
# product 5 in 2000 recycles
PLANTED = {("1", 2000): 1, ("2", 2000): 4, ("3", 2000): 64,
           ("4", 2001): 64, ("4", 2002): 8, ("4", 2003): 1, ("5", 2000): 4}
RECYCLED = {"5": 0.5}       # product: share of each edge's flow sent back up
# Each planted step moves eta by 0.05 or more over five seeds; demand 0.02.
MARGIN = 0.02


def cascade(rng: np.random.Generator, b: int,
            nodes: int = NODES) -> list[tuple[int, int, float]]:
    """(parent, child, weight) edges of one cascade tree of ``nodes`` nodes
    with branching window b."""
    parent = [0] + [int(rng.integers(max(0, k - b), k)) for k in range(1, nodes)]
    size = [1] * nodes
    for k in range(nodes - 1, 0, -1):
        size[parent[k]] += size[k]
    return [(parent[k], k, size[k] * float(rng.lognormal(0.0, 0.05)))
            for k in range(1, nodes)]


def corpus_rows(label=lambda k: f"C{k:02d}", scale=1.0, nodes=NODES) -> list[tuple]:
    """The planted corpus of ``nodes``-node cascades as (year, exporter,
    importer, product, value) rows, countries named by ``label`` and values
    multiplied by ``scale``."""
    rng = np.random.default_rng(20140516)
    rows = []
    for (product, year), b in PLANTED.items():
        edges = cascade(rng, b, nodes)
        share = RECYCLED.get(product, 0.0)
        edges += [(j, i, share * w) for i, j, w in edges if share]
        rows.extend((year, label(i), label(j), product, w * scale) for i, j, w in edges)
    return rows


def write_rows(path, rows) -> str:
    lines = ["year,exporter,importer,product,value"]
    lines.extend(f"{year},{src},{dst},{product},{value!r}"
                 for year, src, dst, product, value in rows)
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def write_corpus(path, label=lambda k: f"C{k:02d}", scale=1.0, nodes=NODES):
    """The planted corpus as a trades CSV; see ``corpus_rows``."""
    return write_rows(path, corpus_rows(label, scale, nodes))


def run_json(tmp_path, *argv):
    out = tmp_path / "out.json"
    assert main([*argv, "--format", "json", "--out", str(out)]) == 0
    return json.loads(out.read_text())


def etas(tmp_path, corpus):
    """Each product's eta and largest impact in 2000 from ``batch``, and
    product 4's etas over 2001-2003 from ``timeseries``."""
    doc = run_json(tmp_path, "batch", "--input", corpus, "--year", "2000")
    ranked = {r["product"]: r["eta"] for r in doc["results"]}
    largest = {r["product"]: r["topk"][0]["impact"] for r in doc["results"]}
    doc = run_json(tmp_path, "timeseries", "--input", corpus, "--years", "2001-2003")
    series = {s["product"]: [p["eta"] for p in s["points"]] for s in doc["series"]}
    return ranked, series["4"], largest


@pytest.fixture(scope="module")
def planted(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("planted")
    return etas(tmp_path, write_corpus(tmp_path / "planted.csv"))


def test_batch_ranks_products_in_planted_order(planted):
    ranked, _, _ = planted
    assert list(ranked) == ["1", "2", "3", "5", "ALL"]
    assert ranked["1"] - ranked["2"] > MARGIN
    assert ranked["2"] - ranked["3"] > MARGIN
    assert ranked["3"] < ranked["ALL"] < ranked["1"]


def test_timeseries_rises_as_the_product_deepens(planted):
    _, deepening, _ = planted
    assert deepening[1] - deepening[0] > MARGIN
    assert deepening[2] - deepening[1] > MARGIN


@pytest.mark.parametrize("label, scale", [
    (lambda k: f"R{(37 * k) % NODES:02d}", 1.0),      # a permutation of the names
    (lambda k: f"C{k:02d}", 2.0),
], ids=["relabelled", "scaled"])
def test_etas_survive_relabelling_and_scaling(tmp_path, planted, label, scale):
    ranked, deepening, _ = etas(tmp_path, write_corpus(tmp_path / "t.csv", label, scale))
    assert ranked.keys() == planted[0].keys()
    for code, eta in planted[0].items():
        assert ranked[code] == pytest.approx(eta, abs=1e-12)
    assert deepening == pytest.approx(planted[1], abs=1e-12)


def test_no_extraction_removes_more_than_all_the_flow(planted):
    # Extracting a node can stop at most every flow of its network, so no
    # impact exceeds the network's total throughflow.  On the recycling
    # product the closed form needs its / u_ii for this: without it, the
    # impact of a node on a cycle grows by u_ii > 1.
    _, _, largest = planted
    inflow, outflow = defaultdict(float), defaultdict(float)
    for year, src, dst, product, value in corpus_rows():
        if year == 2000:
            for code in (product, "ALL"):
                outflow[code, src] += value
                inflow[code, dst] += value
    total = defaultdict(float)
    for code, node in inflow.keys() | outflow.keys():
        total[code] += max(inflow[code, node], outflow[code, node])
    assert largest.keys() == {"1", "2", "3", "5", "ALL"}
    for code, impact in largest.items():
        assert 0.5 * total[code] < impact <= total[code] * (1 + 1e-9), code


def assert_splitting_keeps_output(tmp_path, rows):
    """``batch`` and ``timeseries`` print the same JSON from ``rows`` in one
    file and from ``rows`` split over two.

    Rows alternate between two files, and every third cell is split across
    both as a + (w - a), with a = 0.625 w: w - a is exact for a in [w/2, 2w]
    (Sterbenz), so the parts sum to w exactly.
    """
    parts = ([], [])
    for k, (year, src, dst, product, w) in enumerate(rows):
        if k % 3 == 0:
            a = 0.625 * w
            parts[0].append((year, src, dst, product, a))
            parts[1].append((year, src, dst, product, w - a))
        else:
            parts[k % 3 - 1].append(rows[k])
    assert sorted(parts[0] + parts[1]) != sorted(rows)
    whole = ["--input", write_rows(tmp_path / "whole.csv", rows)]
    split = ["--input", write_rows(tmp_path / "a.csv", parts[0]),
             "--input", write_rows(tmp_path / "b.csv", parts[1])]
    for command in (["batch", "--year", "2000"], ["timeseries", "--years", "2000-2003"]):
        texts = []
        for inputs in (whole, split):
            out = tmp_path / "out.json"
            assert main([*command, *inputs, "--format", "json", "--out", str(out)]) == 0
            texts.append(out.read_text())
        assert texts[0] == texts[1], command


def test_output_survives_splitting_into_files(tmp_path):
    assert_splitting_keeps_output(tmp_path, corpus_rows())


# The same family at 150 nodes: every product network and ALL then take the
# block route of the fundamental matrix, whose rounding depends on node order.
# Measured separations: 0.0745 (products 1-2) and 0.1806 (2-3) in 2000, and
# 0.1079 and 0.1164 as product 4 deepens over 2001-2003.
BLOCK_NODES = 150


def block_label(k):
    return f"C{k:03d}"


@pytest.fixture(scope="module")
def planted_block(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("planted_block")
    return etas(tmp_path, write_corpus(tmp_path / "planted.csv", block_label, nodes=BLOCK_NODES))


def test_block_route_keeps_the_planted_order(planted_block):
    ranked, deepening, _ = planted_block
    assert list(ranked) == ["1", "2", "3", "5", "ALL"]
    assert ranked["1"] - ranked["2"] > MARGIN
    assert ranked["2"] - ranked["3"] > MARGIN
    assert ranked["3"] < ranked["ALL"] < ranked["1"]
    assert deepening[1] - deepening[0] > MARGIN
    assert deepening[2] - deepening[1] > MARGIN


@pytest.mark.parametrize("label, scale", [
    (lambda k: f"R{(37 * k) % BLOCK_NODES:03d}", 1.0),      # gcd(37, 150) = 1
    (block_label, 2.0),
], ids=["relabelled", "scaled"])
def test_block_route_etas_survive_relabelling_and_scaling(tmp_path, planted_block,
                                                          label, scale):
    corpus = write_corpus(tmp_path / "t.csv", label, scale, nodes=BLOCK_NODES)
    ranked, deepening, _ = etas(tmp_path, corpus)
    assert ranked.keys() == planted_block[0].keys()
    for code, eta in planted_block[0].items():
        assert ranked[code] == pytest.approx(eta, abs=1e-12)
    assert deepening == pytest.approx(planted_block[1], abs=1e-12)


def test_block_route_output_survives_splitting_into_files(tmp_path):
    assert_splitting_keeps_output(tmp_path, corpus_rows(block_label, nodes=BLOCK_NODES))
