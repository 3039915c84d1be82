"""Inequality and product-complexity measures.

GINI here is the population form, G = sum_ij |x_i - x_j| / (2 n^2 mean),
evaluated through the sorted O(n log n) identity.  Comparative advantage is
the share-normalized form whose column sums equal 1, and product
sophistication is its GDP-per-capita weighted average, hence always a convex
combination of the exporter GDPs.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import AllZero, NoExports, NoMarket, TooFewPoints, ZeroVariance
from .netcore import TradeTable, _cells, _positions, _select


@dataclass(frozen=True)
class ComplexityTable:
    """Country x product export matrix with optional GDP per capita.

    ``exports[c, p]`` is the total export value of country c on product p in
    dollars.  ``gdp_percap`` aligns with ``countries`` and is only required
    for sophistication queries.
    """

    countries: tuple[str, ...]
    products: tuple[str, ...]
    exports: np.ndarray
    gdp_percap: np.ndarray | None = None

    def __post_init__(self):
        exports = np.asarray(self.exports, dtype=float)
        if exports.shape != (len(self.countries), len(self.products)):
            raise ValueError("exports shape does not match country/product lists")
        if np.any(exports < 0) or not np.all(np.isfinite(exports)):
            raise ValueError("exports must be finite and nonnegative")
        exports.flags.writeable = False
        object.__setattr__(self, "exports", exports)
        if self.gdp_percap is not None:
            gdp = np.asarray(self.gdp_percap, dtype=float)
            if gdp.shape != (len(self.countries),):
                raise ValueError("gdp_percap length does not match countries")
            if np.any(gdp <= 0) or not np.all(np.isfinite(gdp)):
                raise ValueError("gdp_percap must be finite and positive")
            gdp.flags.writeable = False
            object.__setattr__(self, "gdp_percap", gdp)

    def country_index(self, code: str) -> int:
        return self.countries.index(code)

    def product_index(self, code: str) -> int:
        return self.products.index(code)


@dataclass(frozen=True)
class InequalityReport:
    """GINI and dominance of an impact vector plus its top-ranked nodes."""

    gini: float
    dominance: float
    topk: tuple[tuple[str, float], ...] = field(default_factory=tuple)


def gini(values) -> float:
    """Population GINI coefficient of a nonnegative vector, in [0, 1 - 1/n].

    Computed via the sorted identity G = 2 sum_i i*x_(i) / (n sum x)
    - (n + 1)/n, which equals the pairwise mean-absolute-difference form.
    """
    x = np.asarray(values, dtype=float)
    if x.ndim != 1 or len(x) < 2:
        raise ValueError("need a vector of at least 2 values")
    if np.any(x < 0) or not np.all(np.isfinite(x)):
        raise ValueError("values must be finite and nonnegative")
    total = float(x.sum())
    if total == 0.0:
        raise AllZero("cannot compute GINI of an all-zero vector")
    n = len(x)
    ranked = np.sort(x)
    weighted = float(np.arange(1, n + 1) @ ranked)
    return 2.0 * weighted / (n * total) - (n + 1.0) / n


def dominance_share(impact) -> float:
    """Share of total impact held by the single largest node."""
    x = np.asarray(impact, dtype=float)
    total = float(x.sum())
    if total <= 0.0:
        raise AllZero("impact vector sums to zero")
    return float(x.max()) / total


def inequality_report(countries: Sequence[str], impact, k: int = 10) -> InequalityReport:
    """GINI, dominance share, and the top-k (country, impact) ranking.

    Ties in impact rank lexicographically by country for determinism.
    """
    x = np.asarray(impact, dtype=float)
    values = x.tolist()
    order = sorted(range(len(countries)), key=lambda i: (-values[i], countries[i]))
    top = tuple((countries[i], values[i]) for i in order[:k])
    return InequalityReport(gini(x), dominance_share(x), top)


def _share_matrix(table: ComplexityTable) -> tuple[np.ndarray, np.ndarray]:
    """Per-country export-basket shares; countries exporting nothing get zero rows."""
    totals = table.exports.sum(axis=1)
    active = totals > 0
    shares = np.zeros_like(table.exports)
    shares[active] = table.exports[active] / totals[active, None]
    return shares, active


def rca(table: ComplexityTable, country: str, product: str) -> float:
    """Share-normalized comparative advantage of one country on one product.

    The country's basket share of the product divided by the sum of that
    share over all exporting countries; for every marketed product the values
    sum to 1 across countries.
    """
    c = table.country_index(country)
    p = table.product_index(product)
    shares, active = _share_matrix(table)
    if not active[c]:
        raise NoExports(f"{country} exports nothing")
    denom = float(shares[:, p].sum())
    if denom == 0.0:
        raise NoMarket(f"no country exports product {product}")
    return float(shares[c, p]) / denom


def _rca_column(shares: np.ndarray, p: int, product: str) -> np.ndarray:
    denom = float(shares[:, p].sum())
    if denom == 0.0:
        raise NoMarket(f"no country exports product {product}")
    return shares[:, p] / denom


def rca_column(table: ComplexityTable, product: str) -> np.ndarray:
    """Comparative advantage of every country on one product (zero rows for
    countries that export nothing overall)."""
    shares, _ = _share_matrix(table)
    return _rca_column(shares, table.product_index(product), product)


def _prody(table: ComplexityTable, shares: np.ndarray, p: int) -> float:
    if table.gdp_percap is None:
        raise ValueError("table has no gdp_percap column")
    return float(table.gdp_percap @ _rca_column(shares, p, table.products[p]))


def prody(table: ComplexityTable, product: str) -> float:
    """GDP-per-capita weighted average comparative advantage of a product.

    A convex combination of the exporter GDPs, so the result always lies in
    [min gdp, max gdp].
    """
    shares, _ = _share_matrix(table)
    return _prody(table, shares, table.product_index(product))


def prody_all(table: ComplexityTable) -> dict[str, float]:
    """Sophistication value for every marketed product, keyed by code."""
    shares, _ = _share_matrix(table)
    marketed = table.exports.sum(axis=0) > 0
    return {code: _prody(table, shares, p)
            for p, code in enumerate(table.products) if marketed[p]}


def pearson(x, y) -> float:
    """Sample Pearson correlation of two equal-length vectors."""
    a = np.asarray(x, dtype=float)
    b = np.asarray(y, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("vectors must share one dimension")
    if len(a) < 3:
        raise TooFewPoints(f"need at least 3 points, have {len(a)}")
    a_dev = a - a.mean()
    b_dev = b - b.mean()
    denom = math.sqrt(float(a_dev @ a_dev) * float(b_dev @ b_dev))
    if denom == 0.0:
        raise ZeroVariance("an argument has zero variance")
    return float(a_dev @ b_dev) / denom


def complexity_table(table: TradeTable, year: int, digit_level: int,
                     gdp: Mapping[str, float] | None = None) -> ComplexityTable:
    """Country x product export matrix of one year's trade at a digit level.

    Rows are exporters only (importers with no exports carry no advantage).
    Self-loop rows are dropped with a counted warning, codes shorter than
    the digit level likewise.  Each cell is an exactly rounded sum, so the
    matrix is independent of row order.  When ``gdp`` is given it must
    cover every exporting country.
    """
    groups, group, exporter, _, value = _select(table, year, digit_level)
    coded = group >= 0
    (exporter, group), totals = _cells([exporter[coded], group[coded]], value[coded])
    country_ids, (row,) = _positions(len(table.countries), exporter)
    product_ids, (column,) = _positions(len(groups), group)
    exports = np.zeros((len(country_ids), len(product_ids)))
    exports[row, column] = totals
    countries = tuple(table.countries[i] for i in country_ids.tolist())
    products = tuple(groups[i] for i in product_ids.tolist())

    gdp_vec = None
    if gdp is not None:
        missing = [c for c in countries if c not in gdp]
        if missing:
            raise ValueError(f"gdp per capita missing for: {', '.join(missing)}")
        gdp_vec = np.array([gdp[c] for c in countries])
    return ComplexityTable(countries, products, exports, gdp_vec)
