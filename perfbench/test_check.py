"""The checker accepts the program's outputs and rejects corrupted ones.

    python3 -m pytest -q perfbench/test_check.py
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import check  # noqa: E402
import corpus  # noqa: E402
import flowallometry as fa  # noqa: E402

pytestmark = pytest.mark.filterwarnings("ignore::flowallometry.FlowDataWarning")


@pytest.fixture(scope="module")
def year(tmp_path_factory):
    out = tmp_path_factory.mktemp("year")
    truth = corpus.trade_arrays(3, (2000,), 4000)
    corpus.write_trade_files(truth, out)
    records = fa.parse_trades(out / "trades.csv")
    return truth, records, fa.batch(records, 2000, 4, min_countries=10)


@pytest.fixture(scope="module")
def ensemble():
    names = corpus.country_codes(corpus.ENSEMBLE_N[1])
    nets = [fa.FlowNetwork(names[:flux.shape[0]], flux, str(k), 2000)
            for k, flux in enumerate(corpus.ensemble_arrays(5, count=2))]
    analyses = [fa.analyze(net) for net in nets]
    fits = [fa.fit(a.throughflow, a.impact) for a in analyses]
    reports = [fa.inequality_report(net.nodes, a.impact) for net, a in zip(nets, analyses)]
    return nets, analyses, fits, reports


def rng():
    return np.random.default_rng(0)


def test_batch_outputs_pass(year):
    truth, _, outcome = year
    assert outcome.results and outcome.skipped
    assert check.check_batch(outcome, truth, 2000, 4, 10, rng()) == []


def test_shifted_exponent_fails(year):
    truth, _, outcome = year
    row = outcome.results[0]
    shifted = dataclasses.replace(row, eta=row.eta + 1e-6)
    corrupt = dataclasses.replace(outcome, results=[shifted, *outcome.results[1:]])
    problems = check.check_batch(corrupt, truth, 2000, 4, 10, rng())
    assert any(f"/{row.product}: eta" in p for p in problems)


def test_dropped_product_fails(year):
    truth, _, outcome = year
    corrupt = dataclasses.replace(outcome, results=outcome.results[1:])
    problems = check.check_batch(corrupt, truth, 2000, 4, 10, rng())
    assert any("not covered exactly once" in p for p in problems)


def test_complexity_outputs_pass_and_shifted_prody_fails(year):
    truth, records, outcome = year
    gdp = dict(zip(truth["countries"].tolist(), truth["gdp"].tolist()))
    table = fa.complexity_table(records, 2000, 4, gdp=gdp)
    prody = fa.prody_all(table)
    assert check.check_complexity(table, prody, truth, 2000, 4) == []
    r, pairs = fa.correlate_complexity(outcome.results, prody)
    assert check.check_correlation(r, pairs, outcome.results, prody) == []
    code = next(iter(prody))
    assert check.check_complexity(table, {**prody, code: prody[code] * (1 + 1e-9)},
                                  truth, 2000, 4)


def test_ensemble_outputs_pass(ensemble):
    for net, analysis, fitted, report in zip(*ensemble):
        assert check.check_analysis(net.product, list(net.nodes), net.flux,
                                    analysis, fitted, report, rng()) == []


def test_ensemble_shifted_exponent_fails(ensemble):
    net, analysis, fitted, report = (part[0] for part in ensemble)
    shifted = dataclasses.replace(fitted, eta=fitted.eta + 1e-6)
    problems = check.check_analysis(net.product, list(net.nodes), net.flux,
                                    analysis, shifted, report, rng())
    assert any("eta" in p for p in problems)


def test_backbones_pass_and_removed_edge_fails(ensemble):
    net = ensemble[0][0]
    kept = {alpha: fa.extract(net, alpha).kept for alpha in (0.05, 0.3)}
    assert check.check_backbones(list(net.nodes), net.flux, kept) == []
    edge = min(kept[0.3] - kept[0.05])
    corrupt = {**kept, 0.3: kept[0.3] - {edge}}
    assert check.check_backbones(list(net.nodes), net.flux, corrupt)
