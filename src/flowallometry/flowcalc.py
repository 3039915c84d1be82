"""Flow calculus: throughflow, sources, flow coefficients, the fundamental
matrix, and node impacts.

Throughflow is the larger of a node's total inflow and outflow, the totals
the network summed once (``FlowNetwork.inflow``, ``outflow``).  The source
vector is throughflow minus inflow, i.e. the flow originating at the node.
Row-normalizing the flux by throughflow gives the coefficient matrix M, and
U = (I - M)^-1 accumulates direct and indirect flow paths.  Below 64 nodes U
comes from one LAPACK gesv through ``np.linalg.inv``, with its bits; from 64
nodes on, from a recursive 2 x 2 block elimination whose work is matrix
products (``_invert``).  Both round differently on each BLAS kernel
(ROADMAP item 2).  A ``FlowAnalysis`` keeps no n x n array of its own: it
holds the vectors and shares the network's read-only flux, from which M
(one division) and U (one inverse) are derived on each access with the bits
``analyze`` used.  A node's impact is the total system-wide throughflow
lost when the node is hypothetically extracted; it is computed either in
closed form from U or by inverting the extracted balance with LAPACK and
summing the throughflow the extraction removes.

Sign convention: with m_ij = f_ij / T_i, the flow balance that reproduces
throughflow is T_k = S_k + sum_j m_jk T_j, i.e. T = M^T T + S (note the
transpose), equivalently T^T = S^T U.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SingularNetwork
from .netcore import FlowNetwork

#: Condition-number estimate above which I - M is treated as singular.
COND_LIMIT = 1e12

_NOT_FINITE = "an impact exceeds the float range"

#: Half the size below which ``_invert`` hands a block to LAPACK whole.
_BLOCK = 32


@dataclass(frozen=True, eq=False)
class FlowAnalysis:
    """Derived vectors of one network, aligned to its node order.

    Equality and hashing are by identity, as the fields are arrays.
    """

    throughflow: np.ndarray   # per-node throughflow, dollars
    source: np.ndarray        # per-node source flow, dollars
    impact: np.ndarray        # per-node extraction impact, dollars
    flux: np.ndarray          # the network's read-only flux, shared, not copied

    @property
    def n(self) -> int:
        return len(self.throughflow)

    @property
    def coefficients(self) -> np.ndarray:
        """Row-normalized flow shares, rows sum to <= 1, as inverted.

        Recomputed on each access, so an analysis keeps no n x n array;
        the bits equal those ``analyze`` inverted.
        """
        return _frozen(_shares(self.flux, self.throughflow))

    @property
    def fundamental(self) -> np.ndarray:
        """(I - coefficients)^-1, dimensionless.

        Recomputed on each access at the cost of one inverse, with the bits
        ``analyze`` took the impacts from; bind it once when reading it often.
        Below 64 nodes it has the bits of ``np.linalg.inv``; from 64 nodes on
        it comes from block elimination by matrix products, whose last digits
        differ by about 1e-15 relative (see ``_fundamental``).
        """
        return _frozen(_fundamental(_shares(self.flux, self.throughflow)))


def _balance(net: FlowNetwork) -> tuple[np.ndarray, np.ndarray]:
    """Throughflow, the larger of inflow and outflow, and source, throughflow
    minus inflow (nonnegative by construction), from the network's totals."""
    thru = np.maximum(net.inflow, net.outflow)
    return thru, thru - net.inflow


def _shares(flux: np.ndarray, thru: np.ndarray) -> np.ndarray:
    """M = flux / T row-wise, in one fresh C-ordered array whatever the
    flux's layout, so the 1-norms ``_fundamental`` takes in it sum in the
    order ``np.linalg.norm`` does."""
    return np.divide(flux, thru[:, None], order="C")


def _solve(matrix: np.ndarray) -> np.ndarray:
    """The inverse of ``matrix`` by one pivoted LAPACK gesv
    (``np.linalg.inv``); SingularNetwork if singular."""
    try:
        return np.linalg.inv(matrix)
    except np.linalg.LinAlgError as exc:
        raise SingularNetwork(f"flow balance is singular: {exc}") from exc


def _check_condition(cond: float) -> None:
    if not math.isfinite(cond) or cond > COND_LIMIT:
        raise SingularNetwork(
            f"flow balance nearly singular (condition estimate {cond:.3e})")


def _norm1(matrix: np.ndarray, buf: np.ndarray) -> float:
    """``np.linalg.norm(matrix, 1)``, the largest absolute column sum, with
    ``|matrix|`` written into ``buf`` (which may be ``matrix``)."""
    return float(np.abs(matrix, out=buf).sum(axis=0).max())


def _invert(matrix: np.ndarray, out: np.ndarray) -> None:
    """Write matrix^-1 into ``out`` by 2 x 2 block (Schur-complement)
    elimination, consuming ``matrix``; both may be row-strided views.

    A block of fewer than ``2 * _BLOCK`` rows is inverted whole by
    ``_solve``.  Otherwise, with matrix = [[P, Q], [R, S]], P^-1 goes to
    ``out``'s top-left, X = P^-1 Q to its top-right and Sc = S - R X over S,
    whose inverse goes to the bottom-right; then U12 = -X Sc^-1,
    U21 = -Sc^-1 Y with Y = R P^-1, and U11 = P^-1 - U12 Y.  Every product
    is written into a block of ``matrix`` or ``out`` that is no longer read,
    so no temporary block is made.  With I - M a nonsingular M-matrix, every
    diagonal block and Schur complement is one too, so no pivoting is needed.
    """
    n = len(matrix)
    if n < 2 * _BLOCK:
        out[...] = _solve(matrix)
        return
    h = n // 2
    p, q, r, s = matrix[:h, :h], matrix[:h, h:], matrix[h:, :h], matrix[h:, h:]
    u11, u12, u21, u22 = out[:h, :h], out[:h, h:], out[h:, :h], out[h:, h:]
    _invert(p, u11)
    # A product may overflow as gesv may; a non-finite U fails the
    # condition check.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        x = np.matmul(u11, q, out=u12)
        s -= np.matmul(r, x, out=u22)
        _invert(s, u22)
        minus_u12 = np.matmul(x, u22, out=q)
        np.negative(minus_u12, out=u12)
        y = np.matmul(r, u11, out=u21)
        minus_u21 = np.matmul(u22, y, out=r)
        u11 += np.matmul(minus_u12, y, out=p)
        np.negative(minus_u21, out=u21)


def _fundamental(coeff: np.ndarray) -> np.ndarray:
    """Fundamental matrix U = (I - M)^-1.

    Consumes ``coeff``: I - M is built in its place (``0.0 - m``, then 1.0
    added on the diagonal, the bits of ``eye - coeff``), so pass a fresh
    array.  Below ``2 * _BLOCK`` = 64 nodes U is one ``np.linalg.inv``, a
    LAPACK gesv against an identity it builds itself, so U has the bits of
    ``solve(I - M, I)``.  From 64 nodes on, ``_invert`` builds U by block
    elimination from matrix products, which outrun gesv per flop at these
    sizes; its last digits differ from gesv's by about 1e-15 relative.
    Matrix products, like gesv, round differently on each BLAS kernel
    (ROADMAP item 2).  The 1-norm of I - M is taken before it is consumed,
    that of U through the consumed buffer, and U is the only n x n array
    made here.

    Raises SingularNetwork when I - M is singular or its 1-norm condition
    number exceeds ``COND_LIMIT``; that happens exactly when the network
    contains a closed circulation whose every node is throughflow-saturated.
    """
    matrix = np.subtract(0.0, coeff, out=coeff)
    matrix.reshape(-1)[:: len(matrix) + 1] += 1.0
    fund = np.empty_like(matrix)
    norm = _norm1(matrix, fund)
    _invert(matrix, fund)
    # Equals np.linalg.cond(I - M, 1), which would invert I - M a second time.
    _check_condition(norm * _norm1(fund, matrix))
    return fund


def impact_by_extraction(net: FlowNetwork, i: int) -> float:
    """Impact of node ``i`` by brute-force hypothetical extraction.

    With the node's inbound column of M zeroed in M', the throughflow the
    extraction removes, D = T - T', solves (I - M'^T) D = T_i e_i; the impact
    sums D's nonnegative terms, taken from LAPACK's inverse at every size, so
    this oracle never touches U or ``_invert``.  ValueError on overflow.
    """
    thru, _ = _balance(net)
    coeff = _shares(net.flux, thru)
    coeff[:, i] = 0.0
    matrix = np.eye(net.n) - coeff.T
    inverse = _solve(matrix)
    with np.errstate(over="ignore", invalid="ignore"):
        removed = thru[i] * inverse[:, i]
        # Equals np.linalg.cond(matrix, 1), which would invert a second time.
        _check_condition(_norm1(matrix, matrix) * _norm1(inverse, inverse))
        impact = float(removed.sum())
    if not math.isfinite(impact):
        raise ValueError(_NOT_FINITE)
    return impact


def analyze(net: FlowNetwork) -> FlowAnalysis:
    """Full flow analysis of one network; impacts come from the closed form
    impact_i = (sum_j S_j u_ji) * (sum_k u_ik) / u_ii, in O(N^2) from the
    column-weighted source vector and the row sums of U.  ValueError if an
    impact exceeds the float range.
    """
    thru, src = _balance(net)
    fund = _fundamental(_shares(net.flux, thru))
    diag = fund.diagonal()
    if (diag <= 0).any():
        raise SingularNetwork("fundamental matrix has a nonpositive diagonal")
    with np.errstate(over="ignore", invalid="ignore"):
        impact = (src @ fund) * fund.sum(axis=1) / diag
    if not np.isfinite(impact).all():
        raise ValueError(_NOT_FINITE)
    return FlowAnalysis(_frozen(thru), _frozen(src), _frozen(impact), net.flux)


def throughflow_residual(analysis: FlowAnalysis) -> float:
    """Relative inf-norm residual of T^T = S^T U, max |T - S^T U| / max T, at
    the cost of one inverse (M^T T + S gives T back to an ulp whatever U is).
    T and S are divided by max T first, so no product overflows."""
    scale = analysis.throughflow.max()
    thru, src = analysis.throughflow / scale, analysis.source / scale
    return float(np.abs(thru - src @ analysis.fundamental).max())


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array
