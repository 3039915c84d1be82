"""Synthetic network generators for tests, bounds validation, and fixtures.

All generators are pure functions of their spec: the random kinds draw from
a seeded PCG64 stream in a fixed order, so identical specs yield identical
networks on every platform.  Node codes are ``N0000``, ``N0001``, ... so the
lexicographic node order matches the construction order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadSpec
from .netcore import (ALL, FlowNetwork, TradeTable, _intern, _year_column, country_id,
                      product_code)

@dataclass(frozen=True)
class SynthSpec:
    """Parameters of one synthetic network.

    ``weight`` is a single positive value or a (low, high) range; ranges are
    only meaningful for the random kinds.  ``density`` is the forward edge
    probability of ``random_flow`` and ``back_density`` the (normally
    smaller) probability of reverse edges that introduce cycles; leave it 0
    for an acyclic network.
    """

    kind: str
    n: int
    weight: float | tuple[float, float] = 1.0
    density: float = 0.3
    back_density: float = 0.0
    seed: int = 0

    def validate(self):
        if self.kind not in KINDS:
            raise BadSpec(f"unknown kind {self.kind!r}; choose from {KINDS}")
        if not isinstance(self.n, (int, np.integer)) or not 2 <= self.n <= 9999:
            raise BadSpec(f"node count n must be an integer in 2..9999, got {self.n!r}")
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise BadSpec(f"seed must be a nonnegative integer, got {self.seed!r}")
        try:
            lo, hi = self.weight_range()
        except (TypeError, ValueError):
            raise BadSpec("weight must be a number or a (low, high) pair, "
                          f"got {self.weight!r}") from None
        if not (0 < lo <= hi) or not np.isfinite(hi):
            raise BadSpec(f"weights must be positive and finite, got {self.weight}")
        if self.kind in ("star", "chain") and lo != hi:
            raise BadSpec(f"{self.kind} takes a single weight, not a range")
        if self.kind == "random_flow" and not 0 < self.density <= 1:
            raise BadSpec(f"density must be in (0, 1], got {self.density}")
        if not 0 <= self.back_density <= 1:
            raise BadSpec(f"back_density must be in [0, 1], got {self.back_density}")

    def weight_range(self) -> tuple[float, float]:
        lo, hi = self.weight if isinstance(self.weight, tuple) else (self.weight,) * 2
        return float(lo), float(hi)


def _codes(n: int) -> list[str]:
    return [f"N{i:04d}" for i in range(n)]


def generate(spec: SynthSpec) -> FlowNetwork:
    """Build the network described by ``spec``, as product ``ALL`` of year
    2000; identical specs yield identical networks."""
    spec.validate()
    return FlowNetwork(_codes(spec.n), _BUILDERS[spec.kind](spec), ALL, 2000)


def star(n: int, weight: float = 1.0) -> FlowNetwork:
    """Root exporting ``weight`` to each of n - 1 leaves."""
    return generate(SynthSpec("star", n, weight))


def chain(n: int, weight: float = 1.0) -> FlowNetwork:
    """Directed path 0 -> 1 -> ... -> n-1 with uniform weight."""
    return generate(SynthSpec("chain", n, weight))


def random_tree(n: int, weight: float | tuple[float, float] = 1.0,
                seed: int = 0) -> FlowNetwork:
    """Uniformly random recursive tree with parent-to-child edges."""
    return generate(SynthSpec("random_tree", n, weight, seed=seed))


def random_flow(n: int, density: float = 0.3,
                weight: float | tuple[float, float] = (1.0, 100.0),
                back_density: float = 0.0, seed: int = 0) -> FlowNetwork:
    """Random weighted flow network; acyclic unless ``back_density`` > 0."""
    return generate(SynthSpec("random_flow", n, weight, density, back_density, seed))


def _star(spec: SynthSpec) -> np.ndarray:
    flux = np.zeros((spec.n, spec.n))
    flux[0, 1:] = spec.weight_range()[0]
    return flux


def _chain(spec: SynthSpec) -> np.ndarray:
    return np.diag(np.full(spec.n - 1, spec.weight_range()[0]), k=1)


def _random_tree(spec: SynthSpec) -> np.ndarray:
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    children = np.arange(1, spec.n)
    # Every parent, then every weight: a single-weight tree's weights are
    # the weight itself, so its structure is the parents' alone.
    parents = rng.integers(0, children)
    flux = np.zeros((spec.n, spec.n))
    flux[parents, children] = rng.uniform(*spec.weight_range(), spec.n - 1)
    return flux


def _random_flow(spec: SynthSpec) -> np.ndarray:
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    n = spec.n
    # The draw order, forward mask, back mask, weights, fixes the stream.
    edges = np.triu(rng.random((n, n)) < spec.density, 1)
    if spec.back_density:
        edges |= np.tril(rng.random((n, n)) < spec.back_density, -1)
    flux = rng.uniform(*spec.weight_range(), (n, n))
    # In place: a masked copy would hold a third n x n array at the peak.
    flux[~edges] = 0.0
    return flux


#: The network kinds ``generate`` builds, each by its function.
_BUILDERS = {"star": _star, "chain": _chain,
             "random_tree": _random_tree, "random_flow": _random_flow}
KINDS = tuple(_BUILDERS)


def to_table(net: FlowNetwork, product: str = "1",
             year: int | None = None) -> TradeTable:
    """The network as a trade table, one row per edge, in row-major edge
    order, built from the flux's nonzero cells; ValueError, as
    ``TradeTable.from_rows`` raises it, for a bad product or year."""
    countries, (position,) = _intern(country_id, net.nodes)
    products = (product_code(product),)
    year = _year_column([net.year if year is None else year])
    src, dst = np.nonzero(net.flux)
    return TradeTable(countries, products, year.repeat(len(src)), position[src],
                      position[dst], np.zeros(len(src), np.intp), net.flux[src, dst])
