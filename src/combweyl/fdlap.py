"""Finite-difference Dirichlet Laplacian on comb domains, with inertia counting.

The comb is discretized on a uniform grid of spacing delta = 1/(2qs), which
makes the tooth width 1/(2q) exactly s cells and the tooth walls fall on
grid lines.  The tooth height is snapped to the nearest grid line.  The
5-point stencil gives a symmetric positive definite operator on the interior
nodes.

Production counts (comb_inertia_count) never build that grid.  Removing the
mouth row y = 1 leaves the square and q teeth, each a rectangle whose
spectrum separates into DST-I modes in x and a tridiagonal in y, so
Haynsworth inertia additivity gives n_fd(lam) = N_S + q*N_T + neg(Sigma):
continued fractions count the square and tooth eigenvalues below lam, and
one dense LDL^T of the Schur complement Sigma on the q*(s-1) mouth nodes
counts the rest.  When a pivot of either falls below a floor, lam sits on
or next to an eigenvalue, and the count falls back to inertia_count on the
assembled comb.

inertia_count factors A - lam*I of an assembled operator with SuperLU in
symmetric mode (a fill-reducing minimum-degree ordering of A + A^T,
diagonal pivots only), which is an LDL^T factorization whose negative
pivots count the eigenvalues below lam (Sylvester's law of inertia).  A
threshold exactly on an eigenvalue makes that factorization break down; the
count is then taken at the edges of a narrow window around lam and the few
eigenvalues inside it are resolved by ARPACK.  A dense LAPACK eigensolver
(numpy's eigvalsh) and the closed-form rectangle FD spectrum serve as
small-scale oracles; neither shares code with the route they check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import ldl
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


@dataclass(frozen=True)
class CombLayout:
    """Grid shape of a comb at refinement s, shared by the grid and the counter.

    x_cells = 2qs cells span the unit square (delta = 1/x_cells), and the
    tooth height snaps to h_rows cells: row y = 1 holds the tooth mouths and
    h_rows - 1 tooth rows lie above it.
    """

    x_cells: int
    h_rows: int
    delta: float
    h_snapped: float
    degenerate_teeth: bool


def comb_layout(spec: DomainSpec, s: int) -> CombLayout:
    """Check s against the resource guard and snap the tooth height to the grid.

    Teeth are degenerate when s = 1 (zero interior columns) or when h snaps
    to zero rows.
    """
    if not isinstance(s, int) or isinstance(s, bool) or s < 1:
        raise ValueError(f"s must be an int >= 1, got {s!r}")
    if spec.q * s > MAX_QS:
        raise ValueError(
            f"resource guard: q*s must be <= {MAX_QS}, got {spec.q * s}")
    x_cells = 2 * spec.q * s
    delta = 1.0 / x_cells
    h_rows = int(round(spec.h * x_cells))
    return CombLayout(x_cells=x_cells, h_rows=h_rows, delta=delta,
                      h_snapped=h_rows * delta,
                      degenerate_teeth=(s == 1) or (h_rows == 0))


def build_comb_grid(spec: DomainSpec, s: int) -> CombGrid:
    """Lay out the interior nodes of spec at refinement s (delta = 1/(2qs)).

    Teeth are degenerate when s = 1 (zero interior columns) or when h snaps
    to zero rows; the grid then covers only the square interior and the
    degenerate_teeth flag is set instead of raising.
    """
    layout = comb_layout(spec, s)
    x_cells, h_rows, delta = layout.x_cells, layout.h_rows, layout.delta
    degenerate = layout.degenerate_teeth
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
    return CombGrid(spec=spec, s=s, delta=delta, h_snapped=layout.h_snapped, n=n,
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
# interface Schur-complement counting
# ---------------------------------------------------------------------------

def _continued_fraction(a: np.ndarray, rows: int,
                        floor: float) -> tuple[int, np.ndarray] | None:
    """Pivots of tridiag(-1, a_j, -1) with the given rows, for every a_j at once.

    Runs d <- a_j - 1/d, the LDL^T of each tridiagonal from its first row,
    and returns the number of negative pivots over all of them and each
    last pivot d_j, whose inverse is the corner entry of the tridiagonal's
    inverse.  A pivot below floor in magnitude returns None before it is
    divided by.
    """
    d = a
    negative = np.zeros(a.size, dtype=np.int64)
    for _ in range(rows - 1):
        if abs(d).min() < floor:
            return None
        negative += d < 0.0
        d = a - 1.0 / d
    if abs(d).min() < floor:
        return None
    return int(negative.sum()) + int(np.count_nonzero(d < 0.0)), d


def _mode_coupling(cols: np.ndarray, size: int, w: np.ndarray) -> np.ndarray:
    """sum_j w_j*phi_j(x)*phi_j(x') for x, x' in cols, phi_j the DST-I modes.

    phi_j(x) = sqrt(2/size)*sin(pi*x*j/size), j = 1..size-1, are orthonormal
    on the columns 1..size-1.  A product of two sines is a difference of
    cosines, so the sum is c[|x - x'|] - c[x + x'] with
    c[k] = (1/size)*sum_j w_j*cos(pi*k*j/size): one FFT of the even
    extension of w instead of a dense product of mode matrices.
    """
    even = np.zeros(2 * size)
    even[1:size] = w
    even[size + 1:] = w[::-1]
    c = np.fft.fft(even).real / (2 * size)
    return c[abs(cols[:, None] - cols)] - c[cols[:, None] + cols]


def _block_eigenvalues(d: np.ndarray) -> np.ndarray:
    """Eigenvalues of a block diagonal D with 1x1 and 2x2 blocks (Bunch-Kaufman)."""
    eig = np.diag(d).copy()
    off = np.diag(d, 1)
    first = np.flatnonzero(off)
    if first.size:
        blocks = np.empty((first.size, 2, 2))
        blocks[:, 0, 0] = eig[first]
        blocks[:, 1, 1] = eig[first + 1]
        blocks[:, 0, 1] = blocks[:, 1, 0] = off[first]
        pairs = np.linalg.eigvalsh(blocks)
        eig[first], eig[first + 1] = pairs[:, 0], pairs[:, 1]
    return eig


def _schur_split(spec: DomainSpec, s: int,
                 lam: float) -> tuple[int, int, int] | None:
    """(N_S, N_T, neg(Sigma)) at lam, or None where a pivot falls below the floor.

    Removing the mouth row y = 1 leaves the (2qs-1)^2 square and q teeth of
    (s-1) x (h_rows-1) nodes, so Haynsworth inertia additivity gives
    n_fd(lam) = N_S + q*N_T + neg(Sigma) with Sigma the Schur complement on
    the q*(s-1) mouth nodes.  Each block is diagonalised in x by a DST-I and
    left tridiagonal in y; the continued fraction of each mode counts its
    negative pivots and gives the corner entry of its inverse, which is all
    that couples it to the mouth row.  Everything is in units of
    d2 = 1/delta^2; the floor is PIVOT_FLOOR_REL*8*d2, the pivot floor of
    inertia_count on the assembled comb.
    """
    layout = comb_layout(spec, s)
    if not (isinstance(lam, (int, float)) and math.isfinite(lam)):
        raise ValueError(f"lambda must be finite, got {lam!r}")
    n = layout.x_cells
    shift = float(lam) / (n * n)
    floor = PIVOT_FLOOR_REL * 8.0
    j = np.arange(1, n)
    square = _continued_fraction(
        2.0 + 4.0 * np.sin(j * (math.pi / (2 * n))) ** 2 - shift, n - 1, floor)
    if square is None:
        return None
    n_square, square_last = square
    if layout.degenerate_teeth:
        return n_square, 0, 0

    k = np.arange(1, s)
    n_tooth, tooth_block = 0, 0.0
    if layout.h_rows > 1:
        tooth = _continued_fraction(
            2.0 + 4.0 * np.sin(k * (math.pi / (2 * s))) ** 2 - shift,
            layout.h_rows - 1, floor)
        if tooth is None:
            return None
        n_tooth, tooth_last = tooth
        tooth_block = _mode_coupling(k, s, 1.0 / tooth_last)

    cols = (2 * s * np.arange(spec.q)[:, None] + k).ravel()
    sigma = -_mode_coupling(cols, n, 1.0 / square_last)
    sigma[np.diag_indices(cols.size)] += 4.0 - shift
    left = np.flatnonzero(np.diff(cols) == 1)
    sigma[left, left + 1] -= 1.0
    sigma[left + 1, left] -= 1.0
    for t in range(spec.q):
        block = slice(t * (s - 1), (t + 1) * (s - 1))
        sigma[block, block] -= tooth_block
    eig = _block_eigenvalues(ldl(sigma)[1])
    if np.min(np.abs(eig)) < floor:
        return None
    return n_square, n_tooth, int(np.count_nonzero(eig < 0.0))


def comb_inertia_count(spec: DomainSpec, s: int, lam: float) -> SpectralCount:
    """Count FD comb eigenvalues at or below lam without building the grid.

    The count is N_S + q*N_T + neg(Sigma) from _schur_split.  Where a
    continued-fraction pivot or an eigenvalue of a D block of Sigma's LDL^T
    falls below the pivot floor (lam on or next to an eigenvalue of the
    comb, the square or a tooth), the count is inertia_count on the
    assembled comb instead, with its tie window.  The grid checks and their
    messages are those of build_comb_grid.
    """
    split = _schur_split(spec, s, lam)
    if split is None:
        op = assemble_dirichlet_operator(build_comb_grid(spec, s))
        return inertia_count(op, lam)
    n_square, n_tooth, n_sigma = split
    return SpectralCount(float(lam), n_square + spec.q * n_tooth + n_sigma,
                         "fd_schur", 0.0)


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
