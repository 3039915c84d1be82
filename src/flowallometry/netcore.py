"""Core domain types for weighted directed flow networks.

A flow network is an immutable node roster plus an N x N nonnegative flux
matrix for one product category and year; entry (i, j) is the flow from
node i to node j in US dollars.  Self-flows are excluded and every retained
node carries at least one nonzero incident flow.
"""

from __future__ import annotations

import math
import warnings
from collections import defaultdict
from collections.abc import Iterable, Mapping, Sequence

import numpy as np

from .errors import EmptySelection, FlowDataWarning, NegativeFlow

#: Sentinel product code for the integrated all-products network.
ALL = "ALL"


def country_id(raw: str) -> str:
    """Normalize a country identifier: uppercased, non-empty, no whitespace."""
    code = str(raw).upper()
    if not code:
        raise ValueError("empty country code")
    if any(ch.isspace() for ch in code):
        raise ValueError(f"country code contains whitespace: {raw!r}")
    return code


def product_code(raw: str) -> str:
    """Validate a hierarchical product code: a string of 1 to 4 decimal digits."""
    code = str(raw)
    if not (1 <= len(code) <= 4) or not code.isdigit():
        raise ValueError(f"product code must be 1-4 decimal digits: {raw!r}")
    return code


def code_contains(parent: str, child: str) -> bool:
    """True if category `parent` contains `child` (prefix relation, reflexive)."""
    return child.startswith(parent)


def truncate_code(code: str, digits: int) -> str:
    """Leading `digits` digits of a product code; the code must be long enough."""
    if digits < 1 or digits > 4:
        raise ValueError(f"digit level must be in 1..4, got {digits}")
    if len(code) < digits:
        raise ValueError(f"code {code!r} shorter than digit level {digits}")
    return code[:digits]


def cell_total(values: Sequence[float]) -> float:
    """Exactly rounded, order-free sum of one cell; ValueError if not finite."""
    try:
        total = math.fsum(values)
    except OverflowError:
        total = math.inf
    if not math.isfinite(total):
        raise ValueError("aggregated trade value exceeds the float range")
    return total


class FlowNetwork:
    """Immutable flow network: node roster plus nonnegative flux matrix.

    Invariants enforced at construction: the flux matrix is square with a
    zero diagonal, entries are finite and nonnegative, and nodes without any
    nonzero incident flow are stripped.  Node order is whatever the caller
    supplies (``build_network`` sorts lexicographically); the flux array is
    marked read-only, so instances are safe to share across threads.
    """

    __slots__ = ("nodes", "flux", "product", "year", "_index")

    def __init__(self, nodes: Sequence[str], flux, product: str, year: int):
        nodes = tuple(country_id(c) for c in nodes)
        if len(set(nodes)) != len(nodes):
            raise ValueError("duplicate nodes")
        matrix = np.array(flux, dtype=float)
        n = len(nodes)
        if matrix.shape != (n, n):
            raise ValueError(f"flux shape {matrix.shape} does not match {n} nodes")
        if not np.all(np.isfinite(matrix)):
            raise ValueError("flux entries must be finite")
        if np.any(matrix < 0):
            raise NegativeFlow("flux entries must be nonnegative")
        if np.any(np.diagonal(matrix) != 0):
            raise ValueError("flux diagonal must be zero (self-trade excluded)")

        active = (matrix.sum(axis=0) + matrix.sum(axis=1)) > 0
        if not active.any():
            raise EmptySelection("network has no nonzero flows")
        if not active.all():
            keep = np.flatnonzero(active)
            nodes = tuple(nodes[i] for i in keep)
            matrix = matrix[np.ix_(keep, keep)]
        matrix.flags.writeable = False

        self.nodes = nodes
        self.flux = matrix
        self.product = product
        self.year = int(year)
        self._index = {c: i for i, c in enumerate(nodes)}

    @classmethod
    def from_edges(cls, edges, product: str = ALL, year: int = 2000,
                   nodes: Sequence[str] | None = None) -> "FlowNetwork":
        """Build a network from ``{(src, dst): weight}`` or ``(src, dst, weight)`` triples.

        Node order defaults to the sorted set of endpoints.
        """
        if isinstance(edges, Mapping):
            triples = [(s, d, w) for (s, d), w in edges.items()]
        else:
            triples = list(edges)
        if nodes is None:
            nodes = sorted({country_id(s) for s, _, _ in triples}
                           | {country_id(d) for _, d, _ in triples})
        index = {country_id(c): i for i, c in enumerate(nodes)}
        matrix = np.zeros((len(nodes), len(nodes)))
        for src, dst, weight in triples:
            matrix[index[country_id(src)], index[country_id(dst)]] += weight
        return cls(nodes, matrix, product, year)

    @property
    def n(self) -> int:
        return len(self.nodes)

    def index(self, code: str) -> int:
        return self._index[code]

    def __eq__(self, other) -> bool:
        if not isinstance(other, FlowNetwork):
            return NotImplemented
        return (self.nodes == other.nodes and self.product == other.product
                and self.year == other.year and np.array_equal(self.flux, other.flux))

    def __hash__(self):
        return hash((self.nodes, self.product, self.year, self.flux.tobytes()))

    def __repr__(self) -> str:
        edges = int(np.count_nonzero(self.flux))
        return (f"FlowNetwork(product={self.product!r}, year={self.year}, "
                f"n={self.n}, edges={edges})")


def build_network(records: Iterable, product: str, year: int, digit_level: int,
                  min_flow: float = 0.0) -> FlowNetwork:
    """Aggregate trade records into the flow network of one product and year.

    Records matching the year and whose product code, truncated to
    ``digit_level``, equals ``product`` are summed per (exporter, importer)
    ordered pair.  The sentinel ``ALL`` matches every code and yields the
    integrated all-products network.  Self-loops are dropped with a counted
    warning; records whose code is shorter than the digit level are excluded
    likewise.  Aggregation uses exactly-rounded summation, so the result is
    independent of record order.  Edges below ``min_flow`` (an optional
    post-aggregation filter, off by default) are removed before nodes with
    zero total flow are stripped.  Node order is lexicographic.

    Raises EmptySelection when nothing matches and NegativeFlow on any
    negative value.
    """
    if digit_level < 1 or digit_level > 4:
        raise ValueError(f"digit level must be in 1..4, got {digit_level}")
    if product != ALL:
        product = product_code(product)
        if len(product) != digit_level:
            raise ValueError(
                f"product {product!r} does not have digit level {digit_level}")

    cells: dict[tuple[str, str], list[float]] = defaultdict(list)
    matched = 0
    short_codes = 0
    self_loops = 0
    self_loop_value = 0.0
    for rec in records:
        if rec.value < 0:
            raise NegativeFlow(f"negative trade value {rec.value} "
                               f"({rec.exporter}->{rec.importer}, {rec.product})")
        if rec.year != year:
            continue
        if product != ALL:
            if len(rec.product) < digit_level:
                short_codes += 1
                continue
            if rec.product[:digit_level] != product:
                continue
        matched += 1
        if rec.exporter == rec.importer:
            self_loops += 1
            self_loop_value += rec.value
            continue
        cells[(rec.exporter, rec.importer)].append(rec.value)

    if matched == 0:
        raise EmptySelection(
            f"no record matches product={product!r} year={year} at {digit_level} digits")
    if short_codes:
        warnings.warn(f"excluded {short_codes} record(s) with codes shorter than "
                      f"{digit_level} digits", FlowDataWarning, stacklevel=2)
    if self_loops:
        warnings.warn(f"dropped {self_loops} self-loop record(s) worth "
                      f"{self_loop_value}", FlowDataWarning, stacklevel=2)

    totals = {pair: cell_total(values) for pair, values in cells.items()}
    if min_flow > 0.0:
        totals = {pair: v for pair, v in totals.items() if v >= min_flow}

    nodes = sorted({c for pair in totals for c in pair})
    if not nodes:
        raise EmptySelection("all matching records were self-loops or filtered out")
    index = {c: i for i, c in enumerate(nodes)}
    matrix = np.zeros((len(nodes), len(nodes)))
    for (src, dst), value in totals.items():
        matrix[index[src], index[dst]] = value
    return FlowNetwork(nodes, matrix, product, year)
