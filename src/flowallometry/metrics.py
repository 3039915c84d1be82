"""Inequality and product-complexity measures.

GINI here is the population form, G = sum_ij |x_i - x_j| / (2 n^2 mean),
evaluated through the sorted O(n log n) identity.  Comparative advantage is
the share-normalized form whose column sums equal 1, and product
sophistication is its GDP-per-capita weighted average, hence always a convex
combination of the exporter GDPs.  Each measure is free of its input's scale,
so it first scales the input by a power of two to a largest value near 1,
where no sum overflows.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import AllZero, NoMarket, TooFewPoints, ZeroVariance
from .netcore import TradeTable, _cells, _positions, _select

#: Length of the impact ranking in an ``InequalityReport``.
TOP_K = 10


@dataclass(frozen=True, eq=False)
class ComplexityTable:
    """Country x product export matrix with optional GDP per capita.

    ``exports[c, p]`` is the total export value of country c on product p in
    dollars.  ``gdp_percap`` aligns with ``countries`` and is only required
    for sophistication queries.  Both are read-only copies of the arrays
    given.  Equality and hashing are by identity, as the fields are arrays.
    """

    countries: tuple[str, ...]
    products: tuple[str, ...]
    exports: np.ndarray
    gdp_percap: np.ndarray | None = None

    def __post_init__(self):
        exports = np.array(self.exports, dtype=float)
        if exports.shape != (len(self.countries), len(self.products)):
            raise ValueError("exports shape does not match country/product lists")
        if len(set(self.countries)) != len(self.countries):
            raise ValueError("duplicate countries")
        if len(set(self.products)) != len(self.products):
            raise ValueError("duplicate products")
        if np.any(exports < 0) or not np.all(np.isfinite(exports)):
            raise ValueError("exports must be finite and nonnegative")
        exports.flags.writeable = False
        object.__setattr__(self, "exports", exports)
        if self.gdp_percap is not None:
            gdp = np.array(self.gdp_percap, dtype=float)
            if gdp.shape != (len(self.countries),):
                raise ValueError("gdp_percap length does not match countries")
            if np.any(gdp <= 0) or not np.all(np.isfinite(gdp)):
                raise ValueError("gdp_percap must be finite and positive")
            gdp.flags.writeable = False
            object.__setattr__(self, "gdp_percap", gdp)


@dataclass(frozen=True)
class InequalityReport:
    """GINI and dominance of an impact vector plus its top-ranked nodes."""

    gini: float
    dominance: float
    topk: tuple[tuple[str, float], ...]


def gini(values) -> float:
    """Population GINI coefficient of a nonnegative vector, in [0, 1 - 1/n].

    Computed via the sorted identity G = 2 sum_i i*x_(i) / (n sum x)
    - (n + 1)/n, which equals the pairwise mean-absolute-difference form.
    """
    x = np.asarray(values, dtype=float)
    _check_vector(x)
    x = _near_one(x)
    return _gini(x, np.sort(x))[0]


def _check(x: np.ndarray) -> None:
    if (x < 0).any() or not np.isfinite(x).all():
        raise ValueError("values must be finite and nonnegative")


def _check_vector(x: np.ndarray) -> None:
    """``gini``'s checks of ``x``, in their order."""
    if x.ndim != 1 or len(x) < 2:
        raise ValueError("need a vector of at least 2 values")
    _check(x)


def _gini(x: np.ndarray, ranked: np.ndarray) -> tuple[float, float]:
    """GINI of the checked ``x``, whose values ascending are the contiguous
    ``ranked``, and the sum of ``x``.  AllZero if that sum is zero.  The
    largest value must be below 1, so that no sum overflows."""
    n = len(ranked)
    total, weighted = float(x.sum()), float(np.arange(1, n + 1) @ ranked)
    if total == 0.0:
        raise AllZero("cannot compute GINI of an all-zero vector")
    return 2.0 * weighted / (n * total) - (n + 1.0) / n, total


def dominance_share(impact) -> float:
    """Share of total impact held by the single largest node.  ValueError
    unless ``impact`` is a vector of finite, nonnegative values."""
    x = np.asarray(impact, dtype=float)
    if x.ndim != 1:
        raise ValueError("need a vector of values")
    _check(x)
    x = _near_one(x)
    total = float(x.sum())
    if total <= 0.0:
        raise AllZero("impact vector sums to zero")
    return float(x.max()) / total


def inequality_report(countries: Sequence[str], impact) -> InequalityReport:
    """GINI, dominance share, and the top ``TOP_K`` (country, impact) ranking.

    Ties in impact rank lexicographically by country for determinism.
    """
    x = np.asarray(impact, dtype=float)
    if x.shape != (len(countries),):
        raise ValueError("countries and impact vectors differ in length")
    _check_vector(x)
    # Descending impact, ties by country: a stable sort by impact of the nodes
    # in country order.  Reversed, it is ascending for GINI; equal values such
    # as 0.0 and -0.0 may then sit as np.sort would not, which changes no bit.
    by_name = np.fromiter(sorted(range(len(x)), key=countries.__getitem__), np.intp, len(x))
    order = by_name[(-x[by_name]).argsort(kind="stable")]
    top = order[:TOP_K].tolist()
    values = x[top].tolist()
    # _near_one with the largest value already found: its mantissa is that
    # value scaled.
    largest, exponent = math.frexp(values[0])
    x = np.ldexp(x, -exponent)
    gini_value, total = _gini(x, x[order[::-1]])
    return InequalityReport(gini_value, largest / total,
                            tuple(zip([countries[i] for i in top], values)))


def _share_matrix(table: ComplexityTable) -> np.ndarray:
    """Per-country export-basket shares, countries exporting nothing getting
    zero rows.  Each row is first scaled by the power of two that puts its
    largest value in [0.5, 1), so that no total overflows."""
    exponents = np.frexp(table.exports.max(axis=1, initial=0.0))[1]
    exports = np.ldexp(table.exports, -exponents[:, None])
    totals = exports.sum(axis=1)
    active = totals > 0
    shares = np.zeros_like(exports)
    shares[active] = exports[active] / totals[active, None]
    return shares


def _rca_column(shares: np.ndarray, p: int, product: str) -> np.ndarray:
    denom = float(shares[:, p].sum())
    if denom == 0.0:
        raise NoMarket(f"no country exports product {product}")
    return shares[:, p] / denom


def rca_column(table: ComplexityTable, product: str) -> np.ndarray:
    """Share-normalized comparative advantage of every country on one product.

    Each country's basket share of the product divided by the sum of that
    share over all countries, so the column sums to 1; a country that
    exports nothing overall gets 0.  NoMarket if no country has a nonzero
    share of the product, ValueError if the table has no such product.
    """
    if product not in table.products:
        raise ValueError(f"product {product!r} is not in the table")
    return _rca_column(_share_matrix(table), table.products.index(product), product)


def prody_all(table: ComplexityTable) -> dict[str, float]:
    """Sophistication of every marketed product, keyed by code: the
    GDP-per-capita weighted average of its comparative advantage column.

    A product is marketed when some country has a nonzero basket share of
    it, the rule ``rca_column`` applies; an export too small to register
    beside its country's largest, such as 1e-300 beside 1e300, is a zero
    share.  A convex combination of the exporter GDPs, so each value lies
    in [min gdp, max gdp].
    """
    if table.gdp_percap is None:
        raise ValueError("table has no gdp_percap column")
    shares = _share_matrix(table)
    marketed = shares.any(axis=0)
    return {code: float(table.gdp_percap @ _rca_column(shares, p, code))
            for p, code in enumerate(table.products) if marketed[p]}


def pearson(x, y) -> float:
    """Sample Pearson correlation of two equal-length, finite vectors."""
    a = np.asarray(x, dtype=float)
    b = np.asarray(y, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("vectors must share one dimension")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("vectors must be finite")
    if len(a) < 3:
        raise TooFewPoints(f"need at least 3 points, have {len(a)}")
    # r is scale-invariant: with each largest magnitude near 1, no mean or
    # sum of squares leaves the normal range.
    a, b = _near_one(a), _near_one(b)
    a_dev, b_dev = a - a.mean(), b - b.mean()
    denom = math.sqrt(float(a_dev @ a_dev) * float(b_dev @ b_dev))
    if denom == 0.0:
        raise ZeroVariance("an argument has zero variance")
    return float(a_dev @ b_dev) / denom


def _near_one(x: np.ndarray) -> np.ndarray:
    """``x`` times the power of two that puts its largest magnitude in [0.5, 1),
    or ``x`` if it is empty or all zero.  Exact, so a scale-free statistic
    keeps its bits, unless a value falls below the normal range."""
    return np.ldexp(x, -math.frexp(float(np.abs(x).max(initial=0.0)))[1])


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
