"""Sparse visual backbone of a flow network.

This is a local significance filter in the spirit of the nonparametric
backbone literature, with our own concrete rule: at each node, incident
edge weights are normalized to fractions of the network's own totals
(``FlowNetwork.outflow``, ``inflow``), and an edge is kept when, for at
least one endpoint, its fraction reaches the (1 - alpha) quantile of that
endpoint's flow-mass distribution (each fraction weighted by itself), ties
kept.  Equivalently, a node keeps the smallest set of its heaviest edges
that together carry at least an alpha share of its flow in that direction.
The filter runs on the directed network as-is.

Backbones are for visualization only; they never feed the scaling exponent,
GINI, or impact computations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .netcore import FlowNetwork


@dataclass(frozen=True)
class Backbone:
    """The edges kept at level ``alpha``, as (source, target) node pairs."""

    alpha: float
    kept: frozenset[tuple[str, str]]


def _mass_quantiles(fractions: np.ndarray, target: float) -> np.ndarray:
    """Per row, the smallest fraction v with sum of fractions <= v at least
    ``target``.

    Each nonzero row of fractions sums to 1, so it forms a probability
    distribution over its own values; this is that distribution's quantile.
    Ties need no grouping: sorted, they sit side by side, so the first copy
    whose running sum reaches the target names the same value as the whole
    tie group would.  A small slack absorbs cumulative-sum rounding so ties
    stay kept.
    """
    ranked = np.sort(fractions, axis=1)
    below = (np.cumsum(ranked, axis=1) < target - 1e-12).sum(axis=1)
    idx = np.minimum(below, ranked.shape[1] - 1)
    return ranked[np.arange(len(ranked)), idx]


def extract(net: FlowNetwork, alpha: float = 0.05) -> Backbone:
    """Backbone of locally significant edges at level ``alpha`` in (0, 1].

    Larger alpha keeps more: kept sets are nested along alpha, alpha = 1
    keeps every edge, and every node always retains its maximum edge per
    direction.  Deterministic; invariant under uniform flux scaling.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    flux, out_strength, in_strength = net.flux, net.outflow, net.inflow
    # Isolated directions divide by 1: their rows hold no edge to keep.
    out_fraction = flux / np.where(out_strength > 0, out_strength, 1.0)[:, None]
    in_fraction = flux / np.where(in_strength > 0, in_strength, 1.0)
    target = 1.0 - alpha
    keep = (flux > 0) & (
        (out_fraction >= _mass_quantiles(out_fraction, target)[:, None])
        | (in_fraction >= _mass_quantiles(in_fraction.T, target)))
    rows, cols = np.nonzero(keep)
    kept = {(net.nodes[i], net.nodes[j]) for i, j in zip(rows.tolist(), cols.tolist())}
    return Backbone(alpha, frozenset(kept))
