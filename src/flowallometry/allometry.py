"""Allometric scaling fits, hierarchicality classification, and the classical
tree-allometry bounds used to validate them.

The scaling exponent is the slope of log10(impact) against log10(throughflow)
across the nodes of one network.  Slopes above 1 indicate chain-like,
hierarchical flow structure; slopes near 1 a flat, star-like one.  For rooted
directed trees the analogous quantities are the subtree node count and its
subtree sum, whose fitted slope lies between 1 (star) and 2 (long chain).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateFit, NotATree, TooFewPoints
from .netcore import FlowNetwork

HIERARCHICAL = "hierarchical"
NEUTRAL = "neutral"
FLAT = "flat"


@dataclass(frozen=True)
class AllometryFit:
    """Log-log OLS fit of impact against throughflow."""

    eta: float      # slope
    stderr: float   # OLS slope standard error, n - 2 degrees of freedom
    r2: float
    n: int          # points used (strictly positive pairs)
    classification: str


def fit(thru, impact) -> AllometryFit:
    """Ordinary least squares of log10(impact) on log10(throughflow).

    Pairs with a nonpositive member are excluded (flow analysis never
    produces any, but user-supplied vectors may).  Raises TooFewPoints below
    3 usable pairs and DegenerateFit when the regressor has zero variance.
    """
    thru = np.asarray(thru, dtype=float)
    impact = np.asarray(impact, dtype=float)
    if thru.shape != impact.shape:
        raise ValueError("throughflow and impact vectors differ in length")
    positive = (thru > 0) & (impact > 0)
    n = int(positive.sum())
    if n < 3:
        raise TooFewPoints(f"need at least 3 strictly positive pairs, have {n}")
    x = np.log10(thru[positive])
    y = np.log10(impact[positive])

    x_dev = x - x.mean()
    y_dev = y - y.mean()
    sxx = float(x_dev @ x_dev)
    if sxx == 0.0:
        raise DegenerateFit("all throughflow values equal; slope undefined")
    syy = float(y_dev @ y_dev)
    slope = float(x_dev @ y_dev) / sxx
    residual = y_dev - slope * x_dev
    sse = max(float(residual @ residual), 0.0)
    stderr = math.sqrt(sse / (n - 2) / sxx)
    r2 = 1.0 if syy == 0.0 else min(max(1.0 - sse / syy, 0.0), 1.0)
    return AllometryFit(slope, stderr, r2, n, classify(slope, stderr))


def classify(eta: float, stderr: float) -> str:
    """Trichotomy around slope 1 with a +-2 standard error neutral band."""
    if abs(eta - 1.0) <= 2.0 * stderr:
        return NEUTRAL
    return HIERARCHICAL if eta > 1.0 else FLAT


def tree_allometry(tree: FlowNetwork) -> tuple[np.ndarray, np.ndarray]:
    """Subtree node counts and their subtree sums for a rooted directed tree.

    ``tree`` is a FlowNetwork whose nonzero edges point from parent to
    child.  For each node, the first vector holds the number of nodes in the
    subtree rooted there (itself included) and the second the sum of those
    counts over the subtree; both come from a single post-order pass.  Edge
    weights are ignored.  Raises NotATree when the edges have a cycle,
    multiple roots, or a node with several parents.
    """
    children, roots = _tree_structure(tree)
    if len(roots) != 1:
        raise NotATree(f"expected exactly one root, found {len(roots)}")

    n = tree.n
    counts = np.ones(n)
    sums = np.ones(n)
    visited = 0
    # Iterative post-order; chains can be deeper than the recursion limit.
    stack: list[tuple[int, bool]] = [(roots[0], False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            for child in children[node]:
                counts[node] += counts[child]
                sums[node] += sums[child]
            sums[node] += counts[node] - 1.0
            visited += 1
        else:
            stack.append((node, True))
            stack.extend((child, False) for child in children[node])
    if visited != n:
        raise NotATree("edge set contains a cycle")
    return counts, sums


def _tree_structure(tree: FlowNetwork) -> tuple[list[list[int]], list[int]]:
    """Children lists and root candidates of a network's edges."""
    children: list[list[int]] = [[] for _ in range(tree.n)]
    indegree = [0] * tree.n
    srcs, dsts = np.nonzero(tree.flux)
    for src, dst in zip(srcs.tolist(), dsts.tolist()):
        children[src].append(dst)
        indegree[dst] += 1
    if any(d > 1 for d in indegree):
        raise NotATree("a node has more than one parent")
    return children, [i for i in range(tree.n) if indegree[i] == 0]
