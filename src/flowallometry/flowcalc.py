"""Flow calculus: throughflow, sources, flow coefficients, the fundamental
matrix, and node impacts.

Throughflow is the larger of a node's total inflow and outflow.  The source
vector is throughflow minus inflow, i.e. the flow originating at the node.
Row-normalizing the flux by throughflow gives the coefficient matrix M, and
U = (I - M)^-1 accumulates direct and indirect flow paths.  A node's impact
is the total system-wide throughflow lost when the node is hypothetically
extracted; it is computed either in closed form from U or by actually
zeroing the node's inbound coefficients and source and re-solving.

Sign convention: with m_ij = f_ij / T_i, the flow balance that reproduces
throughflow is T_k = S_k + sum_j m_jk T_j, i.e. T = M^T T + S (note the
transpose), equivalently T^T = S^T U.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SingularNetwork
from .netcore import FlowNetwork

#: Condition-number estimate above which I - M is treated as singular.
COND_LIMIT = 1e12


@dataclass(frozen=True)
class FlowAnalysis:
    """Derived vectors and matrices of one network, aligned to its node order."""

    throughflow: np.ndarray   # per-node throughflow, dollars
    source: np.ndarray        # per-node source flow, dollars
    coefficients: np.ndarray  # row-normalized flow shares, rows sum to <= 1
    fundamental: np.ndarray   # (I - coefficients)^-1, dimensionless
    impact: np.ndarray        # per-node extraction impact, dollars

    @property
    def n(self) -> int:
        return len(self.throughflow)


def throughflow(net: FlowNetwork) -> np.ndarray:
    """Per-node throughflow: max of total inflow and total outflow."""
    return np.maximum(net.flux.sum(axis=0), net.flux.sum(axis=1))


def sources(net: FlowNetwork, thru: np.ndarray) -> np.ndarray:
    """Source vector: throughflow minus inflow.  Nonnegative by construction."""
    return thru - net.flux.sum(axis=0)


def coefficients(net: FlowNetwork, thru: np.ndarray) -> np.ndarray:
    """Flow coefficient matrix: flux rows divided by the node's throughflow."""
    return net.flux / thru[:, None]


def _solve(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Pivoted dense solve of ``matrix @ x = rhs``; SingularNetwork if singular."""
    try:
        return np.linalg.solve(matrix, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularNetwork(f"flow balance is singular: {exc}") from exc


def _check_condition(cond: float) -> None:
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise SingularNetwork(
            f"flow balance nearly singular (condition estimate {cond:.3e})")


def fundamental(coeff: np.ndarray) -> np.ndarray:
    """Fundamental matrix U = (I - M)^-1 via a pivoted dense solve.

    Raises SingularNetwork when I - M is singular or its 1-norm condition
    number exceeds ``COND_LIMIT``; that happens exactly when the network
    contains a closed circulation whose every node is throughflow-saturated.
    """
    n = coeff.shape[0]
    matrix = np.eye(n) - coeff
    fund = _solve(matrix, np.eye(n))
    # Equals np.linalg.cond(matrix, 1), which would invert matrix a second time.
    _check_condition(float(np.linalg.norm(matrix, 1))
                     * float(np.linalg.norm(fund, 1)))
    return fund


def impacts_closed_form(source: np.ndarray, fund: np.ndarray) -> np.ndarray:
    """All node impacts from the fundamental matrix in O(N^2).

    impact_i = (sum_j source_j * u_ji) * (sum_k u_ik) / u_ii, evaluated after
    precomputing the column-weighted source vector and the row sums of U.
    """
    diag = np.diagonal(fund)
    if np.any(diag <= 0):
        raise SingularNetwork("fundamental matrix has a nonpositive diagonal")
    return (source @ fund) * fund.sum(axis=1) / diag


def impact_by_extraction(net: FlowNetwork, i: int) -> float:
    """Impact of node ``i`` by brute-force hypothetical extraction.

    Zeroes the node's inbound coefficient column and its source, re-solves
    the flow balance T' = M'^T T' + S' for the reduced throughflow, and
    returns the total reduction.  This path never touches the fundamental
    matrix, so it serves as an independent oracle for the closed form.
    """
    thru = throughflow(net)
    src = sources(net, thru)
    coeff = coefficients(net, thru)
    reduced_coeff = coeff.copy()
    reduced_coeff[:, i] = 0.0
    reduced_src = src.copy()
    reduced_src[i] = 0.0
    matrix = np.eye(net.n) - reduced_coeff.T
    reduced_thru = _solve(matrix, reduced_src)
    _check_condition(np.linalg.cond(matrix, 1))
    return float((thru - reduced_thru).sum())


def analyze(net: FlowNetwork, damping: float = 0.0) -> FlowAnalysis:
    """Full flow analysis of one network; impacts come from the closed form.

    A nonzero ``damping`` shrinks the stored coefficient matrix by
    (1 - damping) before inversion; that trades the exact flow balance for
    solvability on saturated circulations, so leave it 0 unless analyze has
    already raised SingularNetwork.
    """
    if not 0.0 <= damping < 1.0:
        raise ValueError(f"damping must be in [0, 1), got {damping}")
    thru = throughflow(net)
    src = sources(net, thru)
    coeff = coefficients(net, thru)
    if damping:
        coeff = (1.0 - damping) * coeff
    fund = fundamental(coeff)
    impact = impacts_closed_form(src, fund)
    return FlowAnalysis(_frozen(thru), _frozen(src), _frozen(coeff),
                        _frozen(fund), _frozen(impact))


def throughflow_residual(thru: np.ndarray, src: np.ndarray,
                         coeff: np.ndarray) -> float:
    """Relative inf-norm residual of the flow balance T = M^T T + S."""
    return float(np.abs(thru - (coeff.T @ thru + src)).max()
                 / np.abs(thru).max())


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array
