"""Batch orchestration: per-product analyses, time series, and correlation
against complexity columns.

Batch results are a pure function of (trade table, parameters), listed in
product-code order.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from itertools import pairwise

import numpy as np

from . import allometry, flowcalc, metrics
from .errors import (DegenerateFit, EmptySelection, SingularNetwork,
                     TooFewPoints)
from .netcore import (ALL, TradeTable, _cells, _check_min_flow, _network,
                      _select)
# Unused here, but importable as pipeline.build_network and
# pipeline.enumerate_products: the names perfbench/spans.py wraps.
from .netcore import build_network, enumerate_products  # noqa: F401


@dataclass(frozen=True)
class ProductResult:
    """Per-network summary row: scaling fit plus inequality measures."""

    product: str
    year: int
    eta: float
    stderr: float
    r2: float
    classification: str
    gini: float
    dominance: float
    n_countries: int
    topk: tuple[tuple[str, float], ...]


@dataclass(frozen=True)
class SkippedProduct:
    """A product that could not be analyzed, with the reason; never silent."""

    product: str
    reason: str


@dataclass(frozen=True)
class BatchResult:
    results: list[ProductResult]            # sorted by product code
    integrated: ProductResult | None        # all products as one network
    skipped: list[SkippedProduct]


def summarize_network(net, analysis: flowcalc.FlowAnalysis) -> ProductResult:
    """Fit and summarize one already-built network from its flow ``analysis``."""
    fit = allometry.fit(analysis.throughflow, analysis.impact)
    report = metrics.inequality_report(net.nodes, analysis.impact)
    return ProductResult(net.product, net.year, fit.eta, fit.stderr, fit.r2,
                         fit.classification, report.gini, report.dominance,
                         net.n, report.topk)


def batch(table: TradeTable, year: int, digit_level: int,
          min_countries: int = 10, min_flow: float = 0.0) -> BatchResult:
    """Analyze every product at ``digit_level`` for one year, plus the
    integrated all-products network.

    Products with fewer retained countries than ``min_countries`` or failing
    with a singular balance / degenerate fit land in the skip list with the
    reason.  Codes shorter than the digit level and self-loops are each
    reported once, in one counted warning for the year.  The products' cells
    come from one sort, sliced per product, and those of ``ALL``, which keep
    codes shorter than the digit level, from a second.
    """
    if min_countries < 3:
        raise ValueError(f"min_countries must be at least 3, got {min_countries}")
    _check_min_flow(min_flow)
    groups, group, exporter, importer, value = _select(table, year, digit_level)
    coded = group >= 0
    (code, src, dst), totals = _cells([group[coded], exporter[coded], importer[coded]],
                                      value[coded])
    bounds = np.searchsorted(code, np.arange(len(groups) + 1)).tolist()
    jobs = [(code, src[lo:hi], dst[lo:hi], totals[lo:hi])
            for code, (lo, hi) in zip(groups, pairwise(bounds))]
    (src, dst), totals = _cells([exporter, importer], value)
    jobs.append((ALL, src, dst, totals))
    del group, exporter, importer, value, coded     # the year's rows, before analysis

    results = []
    integrated = None
    skipped = []
    for code, src, dst, totals in jobs:
        try:
            net = _network(table.countries, src, dst, totals, code, year, min_flow)
            if net.n < min_countries:
                raise TooFewPoints(f"{net.n} countries < {min_countries}")
            result = summarize_network(net, flowcalc.analyze(net))
        except (TooFewPoints, DegenerateFit, SingularNetwork, EmptySelection) as exc:
            skipped.append(SkippedProduct(code, f"{type(exc).__name__}: {exc}"))
            continue
        if code == ALL:
            integrated = result
        else:
            results.append(result)
    return BatchResult(results, integrated, skipped)


def timeseries(table: TradeTable, digit_level: int,
               years: Iterable[int] | None = None, min_countries: int = 10,
               min_flow: float = 0.0) -> dict[str, dict[int, float | None]]:
    """Per-product exponent by year, from one ``batch`` per year; missing
    product-year combinations are explicit ``None`` gaps, never zeros."""
    years = np.unique(table.year).tolist() if years is None else list(years)
    if not years:
        raise ValueError("no years requested")

    per_year: dict[int, dict[str, float]] = {}
    for yr in years:
        try:
            outcome = batch(table, yr, digit_level,
                            min_countries=min_countries, min_flow=min_flow)
            per_year[yr] = {r.product: r.eta for r in outcome.results}
        except EmptySelection:
            per_year[yr] = {}
    codes = sorted({code for fits in per_year.values() for code in fits})
    return {code: {yr: per_year[yr].get(code) for yr in years} for code in codes}


def correlate_complexity(results: Iterable[ProductResult],
                         column: Mapping[str, float],
                         exclusions: Iterable[str] = ()) -> tuple[float, list[tuple[str, float, float]]]:
    """Pearson correlation of per-product exponents against a complexity column.

    Inner-joins on product code, drops the user-supplied exclusions, and
    returns the coefficient plus the joined (product, eta, value) pairs for
    plotting.  Exclusion is never automatic.
    """
    excluded = set(exclusions)
    pairs = [(r.product, r.eta, float(column[r.product]))
             for r in sorted(results, key=lambda r: r.product)
             if r.product in column and r.product not in excluded]
    if len(pairs) < 3:
        raise TooFewPoints(f"only {len(pairs)} products joined; need at least 3")
    r = metrics.pearson([p[1] for p in pairs], [p[2] for p in pairs])
    return r, pairs
