"""Core domain types for weighted directed flow networks.

A flow network is an immutable node roster plus an N x N nonnegative flux
matrix for one product category and year; entry (i, j) is the flow from
node i to node j in US dollars.  Self-flows are excluded and every retained
node carries at least one nonzero incident flow.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass, fields
from itertools import accumulate, pairwise, starmap

import numpy as np

from .errors import EmptySelection, FlowDataWarning, NegativeFlow

#: Sentinel product code for the integrated all-products network.
ALL = "ALL"


#: Strings already checked canonical by ``country_id``, at most a few
#: thousand, so that rebuilding networks over one roster re-checks none.
_CANONICAL: set[str] = set()


def country_id(raw: str) -> str:
    """Normalize a country identifier: uppercased, non-empty, with no
    whitespace, no unprintable character such as NUL, and no ``,`` or
    ``"``, which unquoted CSV and DOT output cannot hold."""
    if type(raw) is str and raw in _CANONICAL:
        return raw
    code = str(raw).upper()
    if not code:
        raise ValueError("empty country code")
    if code.split() != [code]:
        raise ValueError(f"country code contains whitespace: {raw!r}")
    if not code.isprintable():
        raise ValueError(f"country code contains an unprintable character: {raw!r}")
    if "," in code or '"' in code:
        raise ValueError(f"country code contains a comma or a double quote: {raw!r}")
    # A canonical string is returned as given, so networks over one roster share it.
    if type(raw) is str and raw == code:
        if len(_CANONICAL) < 4096:
            _CANONICAL.add(raw)
        return raw
    return code


def product_code(raw: str) -> str:
    """Validate a hierarchical product code: a string of 1 to 4 ASCII digits."""
    code = str(raw)
    if not (1 <= len(code) <= 4) or not (code.isascii() and code.isdigit()):
        raise ValueError(f"product code must be 1-4 decimal digits: {raw!r}")
    return code


class _Roster(dict):
    """Provisional ids of raw strings: ``check(raw)`` of each distinct raw
    string at its first lookup, and each distinct code numbered as first
    seen, so the first bad string in input order is the one that raises."""

    def __init__(self, check: Callable[[str], object]):
        super().__init__()
        self.check = check
        self.codes: dict = {}       # code -> provisional id

    def __missing__(self, raw):
        self[raw] = i = self.codes.setdefault(self.check(raw), len(self.codes))
        return i

    def sorted(self) -> tuple[tuple, np.ndarray]:
        """The sorted codes, and each provisional id's position among them."""
        roster = sorted(self.codes)
        position = {code: i for i, code in enumerate(roster)}
        return tuple(roster), np.array([position[code] for code in self.codes], dtype=np.intp)


def _intern(check: Callable[[str], str],
            *columns: Sequence[str]) -> tuple[tuple[str, ...], list[np.ndarray]]:
    """The sorted distinct codes ``check`` makes of the strings in ``columns``,
    read column by column, and each column as ids into them."""
    roster = _Roster(check)
    ids = [np.fromiter(map(roster.__getitem__, c), np.intp, len(c)) for c in columns]
    codes, position = roster.sorted()
    return codes, [position[i] for i in ids]


def _year_column(years: Sequence) -> np.ndarray:
    """``years`` as int64; ValueError for a year past the 64-bit range or
    one that is not an integer, such as 2000.7."""
    try:
        year = np.array(years, dtype=np.int64)
    except OverflowError:
        raise ValueError("a year is outside the 64-bit integer range") from None
    # The cast truncates 2000.7 and parses "2000"; neither equals its int.
    if year.tolist() != list(years):
        bad = next(y for y, k in zip(years, year.tolist()) if y != k)
        raise ValueError(f"a year is not an integer: {bad!r}")
    return year


def _check_digit_level(digits: int) -> None:
    if digits < 1 or digits > 4:
        raise ValueError(f"digit level must be in 1..4, got {digits}")


def _check_min_flow(min_flow: float) -> None:
    if not min_flow >= 0:
        raise ValueError(f"min_flow must be >= 0, got {min_flow}")


_NOT_FINITE = "aggregated trade value exceeds the float range"


def _totals(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray, bool]:
    """Row and column sums, and whether all are finite; an overflow is inf, silently."""
    with np.errstate(over="ignore", invalid="ignore"):
        outflow, inflow = matrix.sum(axis=1), matrix.sum(axis=0)
    return outflow, inflow, bool(np.isfinite(outflow).all() and np.isfinite(inflow).all())


class FlowNetwork:
    """Immutable flow network: node roster plus nonnegative flux matrix.

    Invariants enforced at construction: the flux matrix is square with a
    zero diagonal, entries are finite and nonnegative, each node's
    ``outflow`` (row sum) and ``inflow`` (column sum), summed here once for
    every analysis, are finite, and nodes without any nonzero incident flow
    are stripped.  Node order is whatever the caller supplies
    (``build_network`` sorts lexicographically).  A float64 C-ordered flux
    is kept as it is, not copied, unless nodes are stripped; any other is
    copied C-ordered.  All three arrays are read-only, so a kept input is
    marked read-only once every check has passed; as with ``TradeTable``
    columns, do not write to it through another view afterwards.  A failed
    construction leaves the input as it was.
    """

    __slots__ = ("nodes", "flux", "outflow", "inflow", "product", "year")

    def __init__(self, nodes: Sequence[str], flux, product: str, year: int):
        # From a list: a tuple built from an iterator grows by reallocation,
        # which fragments the heap over a batch of hundreds of networks.
        nodes = tuple(list(map(country_id, nodes)))
        if len(set(nodes)) != len(nodes):
            raise ValueError("duplicate nodes")
        # A float64 C-ordered input is kept as is; any other is copied
        # C-ordered, so the sums have one set of bits whatever the layout.
        matrix = np.asarray(flux, dtype=float, order="C")
        n = len(nodes)
        if matrix.shape != (n, n):
            raise ValueError(f"flux shape {matrix.shape} does not match {n} nodes")
        outflow, inflow, finite = _totals(matrix)
        if not finite and not np.isfinite(matrix).all():
            raise ValueError("flux entries must be finite")
        # Every entry is finite here, so the least one has the sign to check.
        if n and matrix.min() < 0:
            raise NegativeFlow("flux entries must be nonnegative")
        if matrix.diagonal().any():
            raise ValueError("flux diagonal must be zero (self-trade excluded)")

        # Active nodes have a positive larger total; all are in a built network.
        larger = np.maximum(outflow, inflow)
        if not (n and larger.min() > 0):
            active = larger > 0
            if not active.any():
                raise EmptySelection("network has no nonzero flows")
            keep = np.flatnonzero(active)
            nodes = tuple(nodes[i] for i in keep)
            matrix = matrix[np.ix_(keep, keep)]
            # Summed again: without the zero columns numpy blocks the sums
            # differently, so slices of the first sums would differ in bits.
            outflow, inflow, finite = _totals(matrix)
        if not finite:
            raise ValueError("a node's total flow exceeds the float range")
        for array in (matrix, outflow, inflow):
            array.flags.writeable = False

        self.nodes = nodes
        self.flux = matrix
        self.outflow = outflow
        self.inflow = inflow
        self.product = product
        self.year = int(year)

    @classmethod
    def from_edges(cls, edges, product: str = ALL, year: int = 2000) -> "FlowNetwork":
        """Build a network from ``{(src, dst): weight}`` or ``(src, dst, weight)`` triples.

        Nodes are the sorted endpoints.  Weights of a repeated pair are
        summed as ``build_network`` sums a cell: exactly rounded and
        independent of order; ValueError if a total is not finite.
        """
        if isinstance(edges, Mapping):
            edges = [(s, d, w) for (s, d), w in edges.items()]
        srcs, dsts, weights = list(zip(*edges, strict=True)) or [()] * 3
        nodes, ends = _intern(country_id, srcs, dsts)
        (src, dst), totals = _cells(ends, np.array(weights, dtype=float))
        return _network(nodes, src, dst, totals, product, year, 0.0)

    @property
    def n(self) -> int:
        return len(self.nodes)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FlowNetwork):
            return NotImplemented
        return (self.nodes == other.nodes and self.product == other.product
                and self.year == other.year and np.array_equal(self.flux, other.flux))

    def __repr__(self) -> str:
        edges = int(np.count_nonzero(self.flux))
        return (f"FlowNetwork(product={self.product!r}, year={self.year}, "
                f"n={self.n}, edges={edges})")


@dataclass(frozen=True, eq=False)
class TradeTable:
    """Bilateral trade rows as columns, in row order.  ``exporter`` and
    ``importer`` are ids into the sorted roster ``countries``, ``product``
    ids into the sorted roster ``products``; ``len()`` is the row count.

    Construction raises ValueError naming the column for columns of
    unequal length, an id outside its roster, or a roster that is not
    sorted and distinct; ValueError naming the roster for an entry that
    ``country_id`` or ``product_code`` would reject or change, since
    ``write_trades`` could not write it back; and ValueError or
    NegativeFlow naming the first row whose value is not finite and
    nonnegative.  The columns are then
    marked read-only, so a table cannot change under later analyses.
    """

    countries: tuple[str, ...]
    products: tuple[str, ...]
    year: np.ndarray         # int64
    exporter: np.ndarray     # country id per row
    importer: np.ndarray
    product: np.ndarray      # product id per row
    value: np.ndarray        # float64

    def __post_init__(self):
        for name, check in (("countries", country_id), ("products", product_code)):
            roster = getattr(self, name)
            if any(a >= b for a, b in pairwise(roster)):
                raise ValueError(f"roster {name} is not sorted and distinct")
            for code in roster:
                try:
                    if check(code) != code:
                        raise ValueError(f"{code!r} is not in canonical form")
                except ValueError as exc:
                    raise ValueError(f"roster {name}: {exc}") from None
        rows = len(self.value)
        for name, size in (("year", None), ("exporter", len(self.countries)),
                           ("importer", len(self.countries)), ("product", len(self.products))):
            column = getattr(self, name)
            if len(column) != rows:
                raise ValueError(f"column {name} has {len(column)} rows, value has {rows}")
            if size is not None and rows and not 0 <= column.min() <= column.max() < size:
                raise ValueError(f"column {name} holds an id outside its {size}-entry roster")
        bad = np.flatnonzero(~(np.isfinite(self.value) & (self.value >= 0)))
        if bad.size:
            k = bad[0]
            value = self.value[k].item()
            kind, error = (("negative", NegativeFlow) if math.isfinite(value)
                           else ("non-finite", ValueError))
            src, dst = self.countries[self.exporter[k]], self.countries[self.importer[k]]
            raise error(f"{kind} trade value {value} "
                        f"({src}->{dst}, {self.products[self.product[k]]})")
        for column in (self.year, self.exporter, self.importer, self.product, self.value):
            column.flags.writeable = False

    @classmethod
    def from_rows(cls, rows: Iterable[tuple]) -> TradeTable:
        """The table of ``(year, exporter, importer, product, value)`` rows;
        codes go through ``country_id`` and ``product_code``, and a year
        that is not an integer, such as 2000.7, raises ValueError."""
        years, exporters, importers, codes, values = list(zip(*rows, strict=True)) or [()] * 5
        countries, (exporter, importer) = _intern(country_id, exporters, importers)
        products, (product,) = _intern(product_code, codes)
        return cls(countries, products, _year_column(years), exporter, importer, product,
                   np.array(values, dtype=float))

    @classmethod
    def concat(cls, tables: Sequence[TradeTable]) -> TradeTable:
        """The rows of ``tables`` in order, over the union of their rosters;
        a single table is returned as it is, since tables are immutable."""
        if not tables:
            raise ValueError("no tables to concatenate")
        if len(tables) == 1:
            return tables[0]
        countries, country_ids = _intern(str, *(t.countries for t in tables))
        products, product_ids = _intern(str, *(t.products for t in tables))
        columns = zip(*((t.year, c[t.exporter], c[t.importer], p[t.product], t.value)
                        for t, c, p in zip(tables, country_ids, product_ids)))
        return cls(countries, products, *map(np.concatenate, columns))

    def __len__(self) -> int:
        return len(self.value)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TradeTable):
            return NotImplemented
        return all(np.array_equal(getattr(self, f.name), getattr(other, f.name))
                   for f in fields(self))


def _product_groups(codes: Sequence[str], digit_level: int) -> tuple[list[str], np.ndarray]:
    """Sorted distinct ``codes`` truncated to ``digit_level``, and each
    code's position among them: -1 for a code shorter than the digit level."""
    _check_digit_level(digit_level)
    groups = sorted({c[:digit_level] for c in codes if len(c) >= digit_level})
    index = {g: i for i, g in enumerate(groups)}
    # Every group has digit_level digits, so a shorter code is never a key.
    return groups, np.array([index.get(c[:digit_level], -1) for c in codes], dtype=np.intp)


def enumerate_products(table: TradeTable, digit_level: int) -> list[str]:
    """Distinct product codes truncated to ``digit_level``, sorted ascending.

    Codes shorter than the digit level are excluded with a counted warning
    rather than padded into invented categories.
    """
    groups, position = _product_groups(table.products, digit_level)
    _warn_short(position[table.product], digit_level)
    return groups


def _cells(keys: Sequence[np.ndarray], values: np.ndarray) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """Sum ``values`` per distinct key tuple; ``keys`` are nonnegative
    integer columns, most significant first.

    Returns the distinct keys, in lexicographic order, and each cell's
    exactly rounded total: a one-row cell keeps its value, since
    ``fsum([x]) == x`` (adding 0.0 turns -0.0 into the 0.0 fsum gives), a
    two-row cell is one correctly rounded addition, which is
    ``fsum([x, y])``, and larger cells go through ``math.fsum``.
    ValueError if a total is not finite.
    """
    # One sort of a combined key orders the rows as a lexsort of the columns.
    dims = tuple(int(k.max()) + 1 if len(k) else 1 for k in keys)
    flat = np.ravel_multi_index(keys, dims)
    order = np.argsort(flat)
    flat = flat[order]
    values = values[order]
    first = np.ones(len(flat), dtype=bool)
    first[1:] = flat[1:] != flat[:-1]
    starts = np.flatnonzero(first)
    sizes = np.diff(starts, append=len(flat))
    totals = values[starts] + 0.0
    pair = sizes == 2
    if pair.any():
        head = starts[pair]
        with np.errstate(over="ignore"):        # an overflow is inf, caught below
            totals[pair] = values[head] + values[head + 1] + 0.0
    multi = sizes > 2
    if multi.any():
        # A memoryview yields each value as a float only while fsum reads it,
        # and the maps slice and sum the cells without a Python-level loop.
        members = memoryview(values[np.repeat(multi, sizes)])
        bounds = pairwise(accumulate(sizes[multi].tolist(), initial=0))
        cells = map(members.__getitem__, starmap(slice, bounds))
        try:
            totals[multi] = np.fromiter(map(math.fsum, cells), float, np.count_nonzero(multi))
        except OverflowError:       # fsum's intermediate overflow
            raise ValueError(_NOT_FINITE) from None
    if not np.isfinite(totals).all():
        raise ValueError(_NOT_FINITE)
    return np.unravel_index(flat[starts], dims), totals


def _positions(size: int, *columns: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """The sorted ids, out of ``range(size)``, that occur in ``columns``, and
    each column renumbered to positions among them."""
    present = np.zeros(size, dtype=bool)
    for column in columns:
        present[column] = True
    ids = present.nonzero()[0]
    position = np.empty(size, dtype=np.intp)    # read only at the ids present
    position[ids] = np.arange(len(ids))
    return ids, [position[column] for column in columns]


def _network(countries: Sequence[str], src: np.ndarray, dst: np.ndarray,
             totals: np.ndarray, product: str, year: int,
             min_flow: float) -> FlowNetwork:
    """The network of one product's aggregated cells, nodes in lexicographic
    order; edges below ``min_flow`` are dropped first."""
    if min_flow > 0.0:
        keep = totals >= min_flow
        src, dst, totals = src[keep], dst[keep], totals[keep]
    if not len(totals):
        raise EmptySelection("all matching records were self-loops or filtered out")
    ids, (i, j) = _positions(len(countries), src, dst)
    matrix = np.zeros((len(ids), len(ids)))
    matrix[i, j] = totals
    return FlowNetwork(list(map(countries.__getitem__, ids.tolist())), matrix, product, year)


def _warn_short(group: np.ndarray, digit_level: int, stacklevel: int = 3) -> None:
    """Warn about the rows whose code is shorter than the digit level
    (group id -1).  ``stacklevel`` counts frames from here, as in
    ``warnings.warn``: the default 3 points at the call site of this
    function's caller."""
    count = int(np.count_nonzero(group < 0))
    if count:
        warnings.warn(f"excluded {count} record(s) with codes shorter than "
                      f"{digit_level} digits", FlowDataWarning, stacklevel=stacklevel)


def _select(table: TradeTable, year: int, digit_level: int, product: str | None = None):
    """The one record selection of every analysis: the sorted product codes
    of ``year`` truncated to ``digit_level``, and the rows of that year a
    request draws on, without self-loops, as (position among those codes,
    -1 for a shorter code; exporter id; importer id; value) columns.

    ``product`` is a code of that digit level, ``ALL`` (every row), or None
    (every row, for callers that group by product).  A code or ``ALL``
    matching no row raises EmptySelection, and so does None for a year
    without rows; a year of only self-loops is not empty.  Warns about the
    self-loops among the rows drawn on and, unless the request is ``ALL``,
    about the year's codes shorter than the digit level.
    """
    keep = table.year == year
    exporter, importer, code, value = (column[keep] for column in (
        table.exporter, table.importer, table.product, table.value))
    # Grouped over the year's own codes, so another year's code is no product.
    ids, (code,) = _positions(len(table.products), code)
    groups, position = _product_groups([table.products[i] for i in ids.tolist()], digit_level)
    group = position[code]
    if product is None and not len(value):
        raise EmptySelection(f"no records for year {year}")
    if product is None or product == ALL:
        drawn = np.ones(len(value), dtype=bool)
    elif product in groups:
        drawn = group == groups.index(product)
    else:
        drawn = np.zeros(len(value), dtype=bool)
    if product is not None and not drawn.any():
        raise EmptySelection(
            f"no record matches product={product!r} year={year} at {digit_level} digits")
    if product != ALL:
        _warn_short(group, digit_level, stacklevel=4)
    loop = exporter == importer
    dropped = value[drawn & loop].tolist()
    if dropped:
        # Exactly rounded, as every cell is, so row order cannot change it.
        try:
            total = math.fsum(dropped)
        except OverflowError:
            total = math.inf
        warnings.warn(f"dropped {len(dropped)} self-loop record(s) worth {total}",
                      FlowDataWarning, stacklevel=3)
    take = drawn & ~loop
    return groups, group[take], exporter[take], importer[take], value[take]


def build_network(table: TradeTable, product: str, year: int, digit_level: int,
                  min_flow: float = 0.0) -> FlowNetwork:
    """Aggregate a trade table into the flow network of one product and year.

    Rows matching the year and whose product code, truncated to
    ``digit_level``, equals ``product`` are summed per (exporter, importer)
    ordered pair.  The sentinel ``ALL`` matches every code and yields the
    integrated all-products network.  Self-loops are dropped with a counted
    warning; rows whose code is shorter than the digit level are excluded
    likewise.  Aggregation uses exactly-rounded summation, so the result is
    independent of row order.  Edges below ``min_flow`` (an optional
    post-aggregation filter, off by default, ValueError unless >= 0) are
    removed before nodes with zero total flow are stripped.  Node order is
    lexicographic.

    Raises EmptySelection when nothing matches.
    """
    _check_digit_level(digit_level)
    _check_min_flow(min_flow)
    if product != ALL:
        product = product_code(product)
        if len(product) != digit_level:
            raise ValueError(
                f"product {product!r} does not have digit level {digit_level}")

    _, _, exporter, importer, value = _select(table, year, digit_level, product)
    (src, dst), totals = _cells([exporter, importer], value)
    return _network(table.countries, src, dst, totals, product, year, min_flow)
