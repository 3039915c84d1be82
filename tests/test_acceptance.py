"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 9 needs the real year-2000 trade dataset in the canonical CSV
schema and is skipped unless FLOWALLOMETRY_UN_TRADES (and, for the
correlation part, FLOWALLOMETRY_UN_GDP) point at the prepared files; see the
README for the preprocessing recipe.
"""

import math
import os
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

import flowallometry as fa
from flowallometry.cli import main

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {number} {name}: PASS")


def test_1_oracle_equivalence():
    with criterion(1, "oracle equivalence (closed form vs extraction)"):
        rng = np.random.default_rng(20240001)
        start = time.perf_counter()
        checked = 0
        for k in range(200):
            n = int(rng.integers(3, 31))
            density = float(rng.uniform(0.1, 0.9))
            back = 0.15 if k % 3 == 0 else 0.0  # exercise cycles too
            net = fa.random_flow(n, density=density, weight=(1e-6, 100.0),
                                 back_density=back,
                                 seed=int(rng.integers(0, 2**63)))
            closed = fa.analyze(net).impact
            for i in range(net.n):
                oracle = fa.impact_by_extraction(net, i)
                assert closed[i] == pytest.approx(oracle, rel=1e-9), \
                    f"network {k}, node {i}"
            checked += net.n
        elapsed = time.perf_counter() - start
        assert checked > 0
        assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_2_worked_fixture():
    with criterion(2, "worked three-node fixture"):
        net = fa.FlowNetwork.from_edges(
            {("AAA", "BBB"): 2.0, ("AAA", "CCC"): 1.0, ("BBB", "CCC"): 1.0},
            product="71", year=2000)
        result = fa.analyze(net)
        assert result.throughflow.tolist() == [3.0, 2.0, 2.0]
        assert result.source.tolist() == [3.0, 0.0, 0.0]
        # the re-solve route reproduces the hand values bit-exactly; the
        # closed form rounds thirds, so it gets the 1e-12 relative gate
        assert [fa.impact_by_extraction(net, i) for i in range(3)] == \
            [7.0, 3.0, 2.0]
        assert result.impact == pytest.approx([7.0, 3.0, 2.0], rel=1e-12)


def test_3_throughflow_identity():
    with criterion(3, "throughflow identity residual below 1e-10"):
        rng = np.random.default_rng(20240003)
        nets = [fa.FlowNetwork.from_edges(
            {("AAA", "BBB"): 2.0, ("AAA", "CCC"): 1.0, ("BBB", "CCC"): 1.0})]
        for _ in range(60):
            nets.append(fa.random_flow(
                int(rng.integers(3, 40)), density=float(rng.uniform(0.1, 0.9)),
                weight=(0.01, 1e9), back_density=0.1,
                seed=int(rng.integers(0, 2**63))))
        for net in nets:
            result = fa.analyze(net)
            residual = fa.throughflow_residual(
                result.throughflow, result.source, result.coefficients)
            assert residual <= 1e-10


def test_4_tree_bounds():
    with criterion(4, "tree allometry bounds (star exact, chain toward 2)"):
        for n in (10, 100, 1000):
            counts, sums = fa.tree_allometry(fa.star(n))
            slope = fa.fit(counts, sums).eta
            assert slope == pytest.approx(math.log(2 * n - 1) / math.log(n),
                                          abs=1e-9)
        chain_slopes = []
        for n in (10, 100, 1000):
            counts, sums = fa.tree_allometry(fa.chain(n))
            chain_slopes.append(fa.fit(counts, sums).eta)
        assert chain_slopes[0] < chain_slopes[1] < chain_slopes[2]
        assert 1.8 <= chain_slopes[2] <= 2.0


def test_5_exact_power_law_recovery():
    with criterion(5, "exact power-law recovery"):
        thru = np.logspace(0, 4, 25)
        impact = 3.0 * thru ** 1.37
        result = fa.fit(thru, impact)
        assert result.eta == pytest.approx(1.37, abs=1e-12)
        assert result.r2 == pytest.approx(1.0, abs=1e-12)


def test_6_metric_oracles():
    with criterion(6, "metric oracles (gini, dominance, rca, prody)"):
        assert fa.gini([1, 2, 3, 4, 5]) == pytest.approx(0.26667, abs=1e-5)

        rng = np.random.default_rng(20240006)
        for _ in range(100):
            values = rng.uniform(0.0, 1000.0, size=int(rng.integers(2, 1000)))
            values[0] += 1.0
            x = values
            n = len(x)
            pairwise = float(np.abs(x[:, None] - x[None, :]).sum()
                             / (2 * n * n * x.mean()))
            assert fa.gini(values) == pytest.approx(pairwise, abs=1e-12)

        for impacts, expected in (([1, 2, 3, 4, 5], 0.3333),
                                  ([1, 1.4, 1.7, 2, 2.2], 0.2651),
                                  ([1, 4, 9, 16, 25], 0.4545)):
            assert fa.dominance_share(impacts) == pytest.approx(expected,
                                                                abs=1e-3)

        for _ in range(25):
            n_c = int(rng.integers(2, 10))
            n_p = int(rng.integers(1, 8))
            exports = rng.uniform(0, 100, size=(n_c, n_p))
            exports[rng.random(exports.shape) < 0.3] = 0.0
            exports[0] += 1.0  # every country column has an active exporter
            gdp = rng.uniform(500, 90000, size=n_c)
            table = fa.ComplexityTable(tuple(f"C{i:02d}" for i in range(n_c)),
                                       tuple(f"{10 + j}" for j in range(n_p)),
                                       exports, gdp)
            for p in table.products:
                if exports[:, table.product_index(p)].sum() == 0:
                    continue
                assert fa.rca_column(table, p).sum() == pytest.approx(
                    1.0, abs=1e-12)
                value = fa.prody(table, p)
                assert gdp.min() - 1e-9 <= value <= gdp.max() + 1e-9


def test_7_invariance_suite():
    with criterion(7, "scaling and relabeling invariance"):
        scale = 1e6
        net = fa.random_flow(20, density=0.4, weight=(0.5, 200.0),
                             back_density=0.1, seed=77)
        scaled = fa.FlowNetwork(net.nodes, net.flux * scale, net.product,
                                net.year)
        base, big = fa.analyze(net), fa.analyze(scaled)
        assert big.throughflow == pytest.approx(scale * base.throughflow,
                                                rel=1e-12)
        assert big.source == pytest.approx(scale * base.source, rel=1e-12)
        assert big.impact == pytest.approx(scale * base.impact, rel=1e-12)

        fit_base = fa.fit(base.throughflow, base.impact)
        fit_big = fa.fit(big.throughflow, big.impact)
        assert fit_big.eta == pytest.approx(fit_base.eta, abs=1e-12)
        assert fit_big.r2 == pytest.approx(fit_base.r2, abs=1e-12)
        assert fit_big.classification == fit_base.classification
        assert fa.gini(big.impact) == pytest.approx(fa.gini(base.impact),
                                                    abs=1e-12)
        assert fa.extract(scaled, 0.05).kept == fa.extract(net, 0.05).kept

        rng = np.random.default_rng(20240007)
        perm = rng.permutation(net.n)
        permuted = fa.FlowNetwork([net.nodes[i] for i in perm],
                                  net.flux[np.ix_(perm, perm)],
                                  net.product, net.year)
        other = fa.analyze(permuted)
        lookup = [permuted.nodes.index(c) for c in net.nodes]
        assert other.throughflow[lookup] == pytest.approx(base.throughflow,
                                                          rel=1e-12)
        assert other.impact[lookup] == pytest.approx(base.impact, rel=1e-12)


def test_8_cli_golden_files(tmp_path):
    with criterion(8, "CLI golden files byte-for-byte"):
        cases = [
            (("analyze", "--input", str(DATA / "fixture_3node.csv"),
              "--year", "2000", "--product", "71", "--digits", "2",
              "--format", "json"), "analyze_fixture.json"),
            (("analyze", "--input", str(DATA / "fixture_3node.csv"),
              "--year", "2000", "--product", "71", "--digits", "2",
              "--format", "csv"), "analyze_fixture.csv"),
            (("batch", "--input", str(DATA / "corpus_two_products.csv"),
              "--year", "2000", "--digits", "1", "--min-countries", "3",
              "--format", "csv"), "batch_corpus.csv"),
            (("batch", "--input", str(DATA / "corpus_two_products.csv"),
              "--year", "2000", "--digits", "1", "--min-countries", "3",
              "--format", "json"), "batch_corpus.json"),
        ]
        for i, (argv, golden) in enumerate(cases):
            out = tmp_path / f"out{i}"
            assert main([*argv, "--out", str(out)]) == 0
            assert out.read_bytes() == (GOLDEN / golden).read_bytes()


def test_9_dataset_gated_reproduction():
    trades_path = os.environ.get("FLOWALLOMETRY_UN_TRADES")
    gdp_path = os.environ.get("FLOWALLOMETRY_UN_GDP")
    if not trades_path:
        print("ACCEPTANCE 9 dataset-gated reproduction: SKIPPED "
              "(set FLOWALLOMETRY_UN_TRADES to the prepared year-2000 CSV)")
        pytest.skip("real dataset not provided")

    # Reference 1-digit values for the year-2000 network: code -> (eta, gini);
    # codes 8 and 9 are out of scope, ALL is the integrated network.
    expected = {
        "7": (1.136, 0.889), "6": (1.120, 0.830), "5": (1.117, 0.877),
        "1": (1.116, 0.868), "4": (1.077, 0.847), "0": (1.043, 0.798),
        "3": (1.042, 0.821), "2": (1.001, 0.815),
    }
    with criterion(9, "dataset-gated reproduction"):
        trades = fa.parse_trades(Path(trades_path))
        outcome = fa.batch(trades, 2000, 1, min_countries=10)
        by_code = {r.product: r for r in outcome.results}
        for code, (eta, gini_value) in expected.items():
            assert code in by_code, f"code {code} missing from batch results"
            assert by_code[code].eta == pytest.approx(eta, abs=0.05)
            assert by_code[code].gini == pytest.approx(gini_value, abs=0.03)
        ranked = sorted(expected, key=lambda c: -by_code[c].eta)
        assert ranked[0] == "7", "machinery should rank highest"
        assert ranked[-1] == "2", "crude materials should rank lowest"
        assert outcome.integrated is not None
        assert outcome.integrated.eta == pytest.approx(1.022, abs=0.05)

        # flow-balance identity on every ingested product network
        for code in expected:
            net = fa.build_network(trades, code, 2000, 1)
            result = fa.analyze(net)
            assert fa.throughflow_residual(
                result.throughflow, result.source,
                result.coefficients) <= 1e-10

        if gdp_path:
            gdp = {a.country: a.value
                   for a in fa.parse_attributes(Path(gdp_path), kind="gdp")}
            table = fa.complexity_table(trades, 2000, 2, gdp=gdp)
            column = fa.prody_all(table)
            two_digit = fa.batch(trades, 2000, 2, min_countries=10)
            r, _ = fa.correlate_complexity(two_digit.results, column)
            assert r == pytest.approx(0.37, abs=0.1)
