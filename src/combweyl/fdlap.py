"""Finite-difference Dirichlet Laplacian on comb domains, with inertia counting.

The comb is discretized on a uniform grid of spacing delta = 1/(2qs), which
makes the tooth width 1/(2q) exactly s cells and the tooth walls fall on
grid lines.  The tooth height is snapped to the nearest grid line.  The
5-point stencil gives a symmetric positive definite operator on the interior
nodes; eigenvalues at or below a threshold lam are counted by factoring
A - lam*I with SuperLU in symmetric mode (a fill-reducing minimum-degree
ordering of A + A^T, diagonal pivots only), which is an LDL^T factorization
whose negative pivots count the eigenvalues below lam (Sylvester's law of
inertia).  A threshold exactly on an eigenvalue makes that factorization
break down; the count is then taken at the edges of a narrow window around
lam and the few eigenvalues inside it are resolved by ARPACK.  A dense
LAPACK eigensolver (numpy's eigvalsh) and the closed-form rectangle FD
spectrum serve as small-scale oracles; neither shares code with the route
they check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import eigsh, splu

from .analytic import DomainSpec
from .lattice import TIE_TOL, SpectralCount, tie_threshold

# Resource guard: q*s caps the cells per unit length (grid side <= 2*2048).
MAX_QS = 2048

# Dense oracle size cap.
DENSE_MAX_N = 400

# Pivot acceptance floor, relative to ||A||_inf.  When the factorization at
# lambda breaks down, counts are taken at lambda*(1 -/+ step*JITTER_REL):
# JITTER_REL is the relative half-width of the tie window, widened up to
# MAX_JITTER_STEPS times while a window edge still breaks down.
PIVOT_FLOOR_REL = 1e-10
JITTER_REL = 1e-6
MAX_JITTER_STEPS = 3


class FactorizationError(RuntimeError):
    """Inertia counting failed: every tie window broke down, or ARPACK did."""


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CombGrid:
    """Interior grid nodes of a comb domain at spacing delta = 1/(2qs).

    node_index maps lattice coordinates to node ids: node_index[j, i] is the
    id of the node at (i*delta, j*delta), or -1 if that point is not an
    interior node.  Ids are assigned row-major, scanning y upward and x
    rightward, so square rows come first, then the interface row y = 1
    (tooth openings only), then tooth rows.  xi and yi invert the map:
    node k sits at (xi[k]*delta, yi[k]*delta).
    """

    spec: DomainSpec
    s: int
    delta: float
    h_snapped: float
    n: int
    degenerate_teeth: bool
    node_index: np.ndarray
    xi: np.ndarray
    yi: np.ndarray

    def coords(self) -> np.ndarray:
        """Node positions as an (n, 2) float array of (x, y)."""
        return np.column_stack((self.xi * self.delta, self.yi * self.delta))


@dataclass(frozen=True, eq=False)
class DiscreteOperator:
    """Symmetric 5-point stencil operator restricted to interior nodes.

    matrix is CSR with diagonal 4/delta^2 and -1/delta^2 between
    grid-adjacent interior nodes.
    """

    matrix: sp.csr_matrix
    n: int
    delta: float
    norm_inf: float


def build_comb_grid(spec: DomainSpec, s: int) -> CombGrid:
    """Lay out the interior nodes of spec at refinement s (delta = 1/(2qs)).

    Teeth are degenerate when s = 1 (zero interior columns) or when h snaps
    to zero rows; the grid then covers only the square interior and the
    degenerate_teeth flag is set instead of raising.
    """
    if not isinstance(s, int) or isinstance(s, bool) or s < 1:
        raise ValueError(f"s must be an int >= 1, got {s!r}")
    if spec.q * s > MAX_QS:
        raise ValueError(
            f"resource guard: q*s must be <= {MAX_QS}, got {spec.q * s}")
    x_cells = 2 * spec.q * s
    delta = 1.0 / x_cells
    h_rows = int(round(spec.h * x_cells))
    h_snapped = h_rows * delta
    degenerate = (s == 1) or (h_rows == 0)

    mask = np.zeros((x_cells + max(h_rows, 1) + 1, x_cells + 1), dtype=bool)
    mask[1:x_cells, 1:x_cells] = True
    if not degenerate:
        tooth_cols = np.zeros(x_cells + 1, dtype=bool)
        for t in range(spec.q):
            tooth_cols[2 * s * t + 1 : 2 * s * t + s] = True
        # Rows y = 1 (the open tooth mouths) through y = 1 + h_snapped - delta.
        mask[x_cells : x_cells + h_rows, :] = tooth_cols

    yi, xi = np.nonzero(mask)
    n = xi.shape[0]
    node_index = np.full(mask.shape, -1, dtype=np.int64)
    node_index[yi, xi] = np.arange(n, dtype=np.int64)
    return CombGrid(spec=spec, s=s, delta=delta, h_snapped=h_snapped, n=n,
                    degenerate_teeth=degenerate, node_index=node_index,
                    xi=xi, yi=yi)


def _assemble_from_index(node_index: np.ndarray, delta: float) -> DiscreteOperator:
    """5-point stencil assembly over any node_index layout (shared helper)."""
    mask = node_index >= 0
    n = int(mask.sum())
    d2 = 1.0 / (delta * delta)
    yi, xi = np.nonzero(mask)
    rows = [np.arange(n, dtype=np.int64)]
    cols = [np.arange(n, dtype=np.int64)]
    vals = [np.full(n, 4.0 * d2)]
    for dj, di in ((0, 1), (1, 0)):
        has_nb = mask[yi + dj, xi + di]
        a = node_index[yi[has_nb], xi[has_nb]]
        b = node_index[yi[has_nb] + dj, xi[has_nb] + di]
        rows.append(np.concatenate((a, b)))
        cols.append(np.concatenate((b, a)))
        vals.append(np.full(2 * a.shape[0], -d2))
    matrix = sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n))
    norm_inf = float(np.max(np.abs(matrix).sum(axis=1)))
    return DiscreteOperator(matrix=matrix, n=n, delta=delta, norm_inf=norm_inf)


def assemble_dirichlet_operator(grid: CombGrid) -> DiscreteOperator:
    """Assemble the 5-point Dirichlet Laplacian on a comb grid.

    Neighbors outside the domain contribute nothing (homogeneous Dirichlet),
    so the diagonal is uniformly 4/delta^2 and every off-diagonal entry is
    -1/delta^2 between grid-adjacent interior nodes.
    """
    return _assemble_from_index(grid.node_index, grid.delta)


def build_rect_operator(m_cols: int, k_rows: int, delta: float) -> DiscreteOperator:
    """5-point Dirichlet Laplacian on an m_cols x k_rows interior rectangle grid.

    The rectangle has sides (m_cols+1)*delta by (k_rows+1)*delta; nodes are
    ordered row-major by y then x.
    """
    for name, v in (("m_cols", m_cols), ("k_rows", k_rows)):
        if not isinstance(v, int) or isinstance(v, bool) or v < 1:
            raise ValueError(f"{name} must be an int >= 1, got {v!r}")
    if not (isinstance(delta, (int, float)) and math.isfinite(delta)) or delta <= 0.0:
        raise ValueError(f"delta must be finite and > 0, got {delta!r}")
    if m_cols * k_rows > MAX_QS * MAX_QS:
        raise ValueError(
            f"resource guard: m_cols*k_rows must be <= {MAX_QS * MAX_QS}")
    node_index = np.full((k_rows + 2, m_cols + 2), -1, dtype=np.int64)
    ids = np.arange(m_cols * k_rows, dtype=np.int64).reshape(k_rows, m_cols)
    node_index[1 : k_rows + 1, 1 : m_cols + 1] = ids
    return _assemble_from_index(node_index, float(delta))


# ---------------------------------------------------------------------------
# inertia counting
# ---------------------------------------------------------------------------

def _negative_pivots(a: sp.csc_matrix, pivot_floor: float) -> int | None:
    """Negative pivots of a symmetric-mode LU of a, or None on breakdown.

    With only diagonal pivots taken (perm_r == perm_c), P a P^T = L U with
    U = D L^T, so diag(U) is the D of an LDL^T factorization.  An
    off-diagonal pivot, a pivot below pivot_floor in magnitude, or an
    exactly singular factor is a breakdown.
    """
    try:
        lu = splu(a, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                  options={"SymmetricMode": True})
    except RuntimeError:
        return None
    pivots = lu.U.diagonal()
    if (not np.array_equal(lu.perm_r, lu.perm_c)
            or np.min(np.abs(pivots)) < pivot_floor):
        return None
    return int(np.count_nonzero(pivots < 0.0))


def _window_eigs(op: DiscreteOperator, sigma: float, k: int) -> np.ndarray:
    """The k smallest eigenvalues of op above sigma, by ARPACK shift-invert."""
    try:
        if k < op.n:
            return eigsh(op.matrix, k, sigma=sigma, which="LA",
                         return_eigenvectors=False)
        # ARPACK needs k < n; the window then holds the whole spectrum.
        return np.linalg.eigvalsh(op.matrix.toarray())
    except (RuntimeError, np.linalg.LinAlgError) as exc:
        raise FactorizationError(
            f"resolving {k} eigenvalues above {sigma}: {exc}") from exc


def inertia_count(op: DiscreteOperator, lam: float) -> SpectralCount:
    """Count eigenvalues of op at or below lam by negative-pivot counting.

    Factors op - lam*I with symmetric-mode SuperLU; by Sylvester's law the
    number of negative pivots equals the number of eigenvalues below lam.
    A breakdown (see _negative_pivots) means an eigenvalue sits at lam.  The
    counts lo and hi are then taken at lam*(1 -/+ JITTER_REL*step), widening
    the window while an edge breaks down and raising FactorizationError
    after MAX_JITTER_STEPS widenings.  The hi - lo eigenvalues inside the
    window are resolved by ARPACK and counted against tie_threshold(lam),
    the "<=" convention of the lattice and closed-form counts.  tie_tol on
    the result is TIE_TOL when the window was used and 0.0 otherwise.
    """
    if not (isinstance(lam, (int, float)) and math.isfinite(lam)):
        raise ValueError(f"lambda must be finite, got {lam!r}")
    lam = float(lam)
    pivot_floor = PIVOT_FLOOR_REL * op.norm_inf
    # A is symmetric, so its CSR arrays are also its CSC arrays, and a shift
    # only touches the stored diagonal.
    m = op.matrix
    diag = np.flatnonzero(m.indices == np.repeat(np.arange(op.n), np.diff(m.indptr)))
    if diag.size != op.n:
        raise ValueError("operator matrix must store its whole diagonal")

    def negcount(shift: float) -> int | None:
        data = m.data.copy()
        data[diag] -= shift
        return _negative_pivots(
            sp.csc_matrix((data, m.indices, m.indptr), shape=m.shape), pivot_floor)

    count = negcount(lam)
    if count is not None:
        return SpectralCount(lam, count, "fd_inertia", 0.0)
    for step in range(1, MAX_JITTER_STEPS + 1):
        half = abs(lam) * step * JITTER_REL
        lo, hi = negcount(lam - half), negcount(lam + half)
        if lo is None or hi is None:
            continue
        window = _window_eigs(op, lam - half, hi - lo) if hi > lo else np.empty(0)
        count = lo + int(np.count_nonzero(window <= tie_threshold(lam)))
        return SpectralCount(lam, count, "fd_inertia", TIE_TOL)
    raise FactorizationError(
        f"pivot breakdown (floor {pivot_floor:.3e}) at lambda={lam} and at "
        f"every tie window up to {MAX_JITTER_STEPS * JITTER_REL:g} relative")


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def fd_rect_count_closed_form(m_cols: int, k_rows: int, delta: float,
                              lam: float) -> SpectralCount:
    """Exact count of discrete rectangle eigenvalues at or below lam.

    The 5-point Laplacian on an m_cols x k_rows interior grid has eigenvalues
    (4/delta^2) * (sin^2(m*pi/(2*(m_cols+1))) + sin^2(k*pi/(2*(k_rows+1))))
    for 1 <= m <= m_cols, 1 <= k <= k_rows.
    """
    for name, v in (("m_cols", m_cols), ("k_rows", k_rows)):
        if not isinstance(v, int) or isinstance(v, bool) or v < 1:
            raise ValueError(f"{name} must be an int >= 1, got {v!r}")
    if not (isinstance(delta, (int, float)) and math.isfinite(delta)) or delta <= 0.0:
        raise ValueError(f"delta must be finite and > 0, got {delta!r}")
    if not (isinstance(lam, (int, float)) and math.isfinite(lam)):
        raise ValueError(f"lambda must be finite, got {lam!r}")
    lam = float(lam)
    sx = np.sin(np.arange(1, m_cols + 1) * (math.pi / (2.0 * (m_cols + 1)))) ** 2
    sy = np.sin(np.arange(1, k_rows + 1) * (math.pi / (2.0 * (k_rows + 1)))) ** 2
    vals = (4.0 / (delta * delta)) * (sx[:, None] + sy[None, :])
    count = int(np.count_nonzero(vals <= tie_threshold(lam)))
    return SpectralCount(lam, count, "closed_form_fd", TIE_TOL)


def dense_eig_oracle(op: DiscreteOperator) -> np.ndarray:
    """All eigenvalues of op, nondecreasing, via LAPACK (numpy's eigvalsh).

    Limited to n <= DENSE_MAX_N.  The dense symmetric solver is backward
    stable, so each eigenvalue is accurate to a small multiple of
    eps*||A||.  A LAPACK convergence failure is raised as
    FactorizationError.
    """
    if op.n > DENSE_MAX_N:
        raise ValueError(f"dense oracle limited to n <= {DENSE_MAX_N}, got {op.n}")
    try:
        return np.linalg.eigvalsh(op.matrix.toarray())
    except np.linalg.LinAlgError as exc:
        raise FactorizationError(f"dense eigensolver failed: {exc}") from exc


def dense_count(op: DiscreteOperator, lam: float) -> SpectralCount:
    """Eigenvalue count at or below lam taken from the dense LAPACK oracle."""
    if not (isinstance(lam, (int, float)) and math.isfinite(lam)):
        raise ValueError(f"lambda must be finite, got {lam!r}")
    lam = float(lam)
    eigs = dense_eig_oracle(op)
    count = int(np.count_nonzero(eigs <= tie_threshold(lam)))
    return SpectralCount(lam, count, "dense_oracle", TIE_TOL)
