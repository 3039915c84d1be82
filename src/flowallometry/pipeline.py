"""Batch orchestration: per-product analyses, exponent distributions, time
series, and correlation against complexity columns.

Batch results are a pure function of (trade table, parameters), listed in
product-code order.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
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

PRIMARY_PREFIXES = frozenset("01234")

#: Most bins a ``histogram`` may span.
MAX_BINS = 10_000


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


@dataclass(frozen=True)
class Histogram:
    """Left-closed exponent bins with optional stacked group counts."""

    edges: tuple[float, ...]                 # len(bins) + 1 ascending edges
    counts: tuple[int, ...]
    stacks: dict[str, tuple[int, ...]] = field(default_factory=dict)


def histogram(results: Iterable[ProductResult], bin_width: float,
              stack_by: str | None = None) -> Histogram:
    """Bin per-product exponents into left-closed bins of ``bin_width``.

    ``stack_by`` may be ``"prefix"`` (ten 1-digit groups) or ``"class"``
    (primary = prefixes 0-4, manufactured = 5-9); every stack group is
    emitted even when empty and group counts sum to the totals.  Bins are
    anchored at the largest multiple of the width not above the smallest
    exponent.  ValueError if the bins would number more than ``MAX_BINS``
    or their indices pass 2**53, where a float stops holding every integer.
    """
    rows = list(results)
    if not rows:
        raise ValueError("no results to bin")
    if not (np.isfinite(bin_width) and bin_width > 0):
        raise ValueError(f"bin width must be finite and positive, got {bin_width}")
    if stack_by not in (None, "prefix", "class"):
        raise ValueError(f"unknown stacking mode {stack_by!r}")

    etas = np.array([r.eta for r in rows])
    # Bin in index space so multiples of the width land on their own left
    # edge despite division rounding (0.7/0.05 floors to 13 otherwise).
    with np.errstate(over="ignore"):
        raw = np.floor(etas / bin_width + 1e-9)
    # Checked before the int cast and before any bin is allocated.
    if not (np.abs(raw).max() < 2**53 and raw.max() - raw.min() < MAX_BINS):
        raise ValueError(f"bin width {bin_width} is too fine for these exponents: "
                         f"it needs more than {MAX_BINS} bins or bin indices "
                         f"beyond 2**53")
    raw = raw.astype(int)
    first = int(raw.min())
    indices = raw - first
    n_bins = int(indices.max()) + 1
    edges = tuple(float((first + k) * bin_width) for k in range(n_bins + 1))

    counts = [0] * n_bins
    groups = ([str(d) for d in range(10)] if stack_by == "prefix"
              else ["primary", "manufactured"] if stack_by == "class" else [])
    stacks = {g: [0] * n_bins for g in groups}
    for row, idx in zip(rows, indices):
        counts[idx] += 1
        if stack_by == "prefix":
            stacks[row.product[0]][idx] += 1
        elif stack_by == "class":
            key = "primary" if row.product[0] in PRIMARY_PREFIXES else "manufactured"
            stacks[key][idx] += 1
    return Histogram(edges, tuple(counts),
                     {g: tuple(v) for g, v in stacks.items()})


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
