"""Finite-difference Dirichlet Laplacian on comb domains, with inertia counting.

The comb is discretized on a uniform grid of spacing delta = 1/(2qs), so
the tooth width 1/(2q) is exactly s cells and the tooth walls fall on grid
lines; the tooth height snaps to the nearest grid line.  The 5-point stencil
gives a symmetric positive definite operator on the interior nodes.

Production counts (comb_inertia_count) never build that grid.  Removing the
mouth row y = 1 leaves the square and q teeth, so Haynsworth inertia
additivity gives n_fd = N_S + q*N_T + neg(Sigma), Sigma the Schur
complement on the q*(s-1) mouth nodes, all counted at theta =
tie_threshold(lam), the "<=" convention of the exact counts.  Each mode's
pivots follow LAPACK's pivmin rule; a mode whose last pivot at theta falls
below a floor is bordered into Sigma by that one row instead; within
rounding of a comb eigenvalue the count raises.

The grid and inertia_count are oracles.  inertia_count factors A - lam*I of
an assembled operator with SuperLU in symmetric mode (minimum-degree
ordering of A + A^T, diagonal pivots only), an LDL^T factorization whose
negative pivots count the eigenvalues below lam (Sylvester's law of
inertia).  A threshold exactly on an eigenvalue breaks it down; the count is
then taken at the edges of a narrow window around lam, and the few
eigenvalues inside are resolved by block inverse iteration with the factor
at the lower edge, from a start block solved once with the broken-down
factor at lam when SuperLU produced one, each counted once a Ritz residual
bound settles it.  Within about 1e-9 relative of an eigenvalue a count is
certified only where that breakdown fires.  Numpy's LAPACK eigvalsh and the
closed-form rectangle FD spectrum serve as small-scale oracles; neither
shares code with the route they check.

SciPy is imported inside the functions that use it (scipy.sparse by the
assembly and inertia_count, LAPACK by the counter), so importing this module,
as every combweyl command does, loads none of it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from ._args import finite_real, positive_int, positive_real
from .analytic import DomainSpec
from .lattice import TIE_TOL, SpectralCount, tie_threshold

if TYPE_CHECKING:
    import scipy.sparse as sp
    from scipy.sparse.linalg import SuperLU

# Resource guard: q*s caps the cells per unit length (grid side <= 2*2048).
MAX_QS = 2048

# Dense oracle size cap.
DENSE_MAX_N = 400

# Pivot acceptance floor, relative to ||A||_inf.  When the factorization at
# lambda breaks down, counts are taken at lambda*(1 -/+ step*JITTER_REL):
# JITTER_REL is the relative half-width of the tie window, widened up to
# MAX_JITTER_STEPS times while a window edge still breaks down.  WINDOW_GUARD
# and WINDOW_ITERATIONS are _window_count's extra columns and step cap.
PIVOT_FLOOR_REL = 1e-10
JITTER_REL = 1e-6
MAX_JITTER_STEPS = 3
WINDOW_GUARD = 2
WINDOW_ITERATIONS = 12


class FactorizationError(RuntimeError):
    """Inertia counting failed: every tie window broke down, or was not resolved."""


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CombGrid:
    """Interior grid nodes of a comb domain at spacing delta = 1/(2qs).

    node_index[j, i] is the id of the node at (i*delta, j*delta), or -1 off
    the interior.  Ids run row-major, y upward and x rightward: square rows,
    then the interface row y = 1 (tooth openings only), then tooth rows,
    so np.nonzero(node_index >= 0) lists the (j, i) of the nodes in id order.
    """

    delta: float
    h_snapped: float
    n: int
    degenerate_teeth: bool
    node_index: np.ndarray


@dataclass(frozen=True, eq=False)
class DiscreteOperator:
    """Symmetric 5-point stencil operator restricted to interior nodes.

    matrix is CSR: 4/delta^2 on the diagonal, -1/delta^2 between grid neighbours.
    """

    matrix: sp.csr_matrix
    n: int
    delta: float
    norm_inf: float

    @cached_property
    def diagonal_positions(self) -> np.ndarray:
        """Positions of the diagonal entries in matrix.data, row by row.

        Raises ValueError (and caches nothing) unless every row stores its
        diagonal exactly once.
        """
        m = self.matrix
        diag = np.flatnonzero(m.indices == np.repeat(np.arange(self.n), np.diff(m.indptr)))
        if diag.size != self.n:
            raise ValueError("operator matrix must store its whole diagonal")
        return diag


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

    Teeth are degenerate when s = 1 (no interior columns) or h snaps to 0 rows.
    """
    s = positive_int("s", s)
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

    With degenerate teeth (see comb_layout) the grid covers only the square
    interior and the degenerate_teeth flag is set instead of raising.
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

    n = int(np.count_nonzero(mask))
    node_index = np.full(mask.shape, -1, dtype=np.int64)
    node_index[mask] = np.arange(n, dtype=np.int64)
    return CombGrid(delta=delta, h_snapped=layout.h_snapped, n=n,
                    degenerate_teeth=degenerate, node_index=node_index)


def _assemble_from_index(node_index: np.ndarray, delta: float) -> DiscreteOperator:
    """5-point stencil assembly over any node_index layout (shared helper).

    Precondition: the ids run row-major (0..n-1 in np.nonzero order) and no
    node lies on the border of node_index.  A node's neighbours then come as
    below < left < self < right < above, so each CSR row is written sorted.
    """
    import scipy.sparse as sp

    yi, xi = np.nonzero(node_index >= 0)
    n = yi.shape[0]
    d2 = 1.0 / (delta * delta)
    stencil = np.column_stack((node_index[yi - 1, xi], node_index[yi, xi - 1],
                               np.arange(n, dtype=np.int64),
                               node_index[yi, xi + 1], node_index[yi + 1, xi]))
    stored = stencil >= 0
    data = np.broadcast_to(np.array([-d2, -d2, 4.0 * d2, -d2, -d2]), stencil.shape)[stored]
    indptr = np.concatenate(([0], np.cumsum(np.count_nonzero(stored, axis=1))))
    matrix = sp.csr_matrix((data, stencil[stored], indptr), shape=(n, n))
    norm_inf = float(np.max(np.add.reduceat(abs(data), indptr[:-1])))
    return DiscreteOperator(matrix=matrix, n=n, delta=delta, norm_inf=norm_inf)


def assemble_dirichlet_operator(grid: CombGrid) -> DiscreteOperator:
    """Assemble the 5-point Dirichlet Laplacian on a comb grid.

    Neighbors outside the domain contribute nothing (homogeneous Dirichlet).
    """
    return _assemble_from_index(grid.node_index, grid.delta)


def build_rect_operator(m_cols: int, k_rows: int, delta: float) -> DiscreteOperator:
    """5-point Dirichlet Laplacian on an m_cols x k_rows interior rectangle grid.

    The rectangle has sides (m_cols+1)*delta by (k_rows+1)*delta; nodes are
    ordered row-major by y then x.
    """
    positive_int("m_cols", m_cols)
    positive_int("k_rows", k_rows)
    positive_real("delta", delta)
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

def _negative_pivots(a: sp.csc_matrix,
                     pivot_floor: float) -> tuple[int | None, SuperLU | None]:
    """Negative pivots and symmetric-mode LU of a; the count is None on breakdown.

    With only diagonal pivots taken (perm_r == perm_c), P a P^T = L U with
    U = D L^T, so diag(U) is the D of an LDL^T factorization.  An off-diagonal
    pivot, a pivot below pivot_floor or an exactly singular factor is a
    breakdown.  The LU is returned whenever SuperLU produced one, breakdown
    or not, and is None only when SuperLU raised.
    """
    from scipy.sparse.linalg import splu

    try:
        lu = splu(a, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                  options={"SymmetricMode": True})
    except RuntimeError:
        return None, None
    pivots = lu.U.diagonal()
    if (not np.array_equal(lu.perm_r, lu.perm_c)
            or np.min(np.abs(pivots)) < pivot_floor):
        return None, lu
    return int(np.count_nonzero(pivots < 0.0)), lu


def _window_count(op: DiscreteOperator, lu: SuperLU, lower: float, upper: float,
                  k: int, threshold: float, seed: SuperLU | None) -> int:
    """How many of the k eigenvalues of op in (lower, upper) are <= threshold.

    lu factors op - lower*I, and seed, unless None, op - lam*I at the window's
    centre, broken down or not.  Block inverse iteration with lu (one
    refinement step per solve; WINDOW_GUARD extra columns take eigenvalues
    just below lower) starts from a fixed pseudo-random block solved once
    with seed: a shift on an eigenvalue all but finds its eigenvectors in one
    solve (a seeded block that overflows is dropped).  The seed only moves
    where the iteration starts.  Each step ends in Rayleigh-Ritz (qr, eigh).
    k distinct eigenvalues lie within ||R||_F plus rounding of k Ritz values
    with residual R (Kahan); once those intervals lie in the window and leave
    threshold out, they settle the count, else FactorizationError follows
    WINDOW_ITERATIONS steps.  k itself comes from the edge factorizations,
    uncertified within ~1e-9 relative of an eigenvalue.
    """
    x = np.random.default_rng(0).standard_normal((op.n, min(op.n, k + WINDOW_GUARD)))
    if seed is not None:
        seeded = seed.solve(x)
        if np.isfinite(seeded).all():
            x = seeded
    for _ in range(WINDOW_ITERATIONS):
        y = lu.solve(x)
        y += lu.solve(x - (op.matrix @ y - lower * y))
        q = np.linalg.qr(y)[0]
        aq = op.matrix @ q
        ritz, v = np.linalg.eigh(q.T @ aq)
        x, inside = q @ v, (ritz > lower) & (ritz < upper)
        theta = ritz[inside]
        radius = (np.linalg.norm(aq @ v[:, inside] - x[:, inside] * theta)
                  + 8.0 * np.finfo(float).eps * op.norm_inf)
        if theta.size == k and radius < np.min(
                abs(np.subtract.outer(theta, (lower, upper, threshold)))):
            return int(np.count_nonzero(theta <= threshold))
    raise FactorizationError(f"{k} eigenvalues in the tie window ({lower}, {upper}) "
                             f"not resolved against {threshold}")


def inertia_count(op: DiscreteOperator, lam: float) -> SpectralCount:
    """Count eigenvalues of op at or below lam by negative-pivot counting.

    By Sylvester's law the negative pivots of a symmetric-mode SuperLU
    factorization of op - lam*I count the eigenvalues below lam.  A breakdown
    (see _negative_pivots) means an eigenvalue sits at lam: the counts lo and
    hi are then taken at lam*(1 -/+ JITTER_REL*step), widening the window
    while an edge breaks down (FactorizationError after MAX_JITTER_STEPS),
    and _window_count counts the hi - lo eigenvalues inside against
    tie_threshold(lam), the "<=" convention of the exact counts, starting
    from a block solved with the broken-down factor at lam when SuperLU
    produced one.  tie_tol is TIE_TOL when the window was used, else 0.0.
    Not certified: lam within about 1e-9 relative of an eigenvalue, where a
    factorization can pass the pivot floor with the wrong inertia (lam on
    one can then miss the breakdown).  The diagonal positions are found once
    per operator (DiscreteOperator.diagonal_positions).
    """
    import scipy.sparse as sp

    lam = finite_real("lambda", lam)
    pivot_floor = PIVOT_FLOOR_REL * op.norm_inf
    # A is symmetric, so its CSR arrays serve as CSC; shifts edit one copy's diagonal.
    m, diag = op.matrix, op.diagonal_positions
    shifted = sp.csc_matrix((m.data.copy(), m.indices, m.indptr), shape=m.shape)

    def factor(shift: float) -> tuple[int | None, SuperLU | None]:
        shifted.data[diag] = m.data[diag] - shift
        return _negative_pivots(shifted, pivot_floor)

    count, at_lam = factor(lam)
    if count is not None:
        return SpectralCount(lam, count, "fd_inertia", 0.0)
    for step in range(1, MAX_JITTER_STEPS + 1):
        half = abs(lam) * step * JITTER_REL
        (lo, lu), hi = factor(lam - half), factor(lam + half)[0]
        if lo is None or hi is None:
            continue
        if hi > lo:
            lo += _window_count(op, lu, lam - half, lam + half, hi - lo,
                                tie_threshold(lam), at_lam)
        return SpectralCount(lam, lo, "fd_inertia", TIE_TOL)
    raise FactorizationError(
        f"pivot breakdown (floor {pivot_floor:.3e}) at lambda={lam} and at "
        f"every tie window up to {MAX_JITTER_STEPS * JITTER_REL:g} relative")


# ---------------------------------------------------------------------------
# interface Schur-complement counting
# ---------------------------------------------------------------------------

def _continued_fraction(a: np.ndarray, rows: int, floor: float
                        ) -> tuple[int, np.ndarray, list[tuple[int, float]]]:
    """Pivots of tridiag(-1, a_j, -1) with the given rows, for every a_j at once.

    Runs d <- a_j - 1/d, the LDL^T of each tridiagonal from its first row.
    A pivot short of the last row with |d| < tiny, the smallest normal
    float, is taken as -tiny (LAPACK dstebz's pivmin rule, off-diagonal 1):
    that moves a_j by under 2*tiny at that row, a zero pivot counts as
    negative, and 1/d never overflows.  Only a last pivot d_j below floor
    breaks its mode.  Returns the negative pivots, less the broken modes'
    last ones; the last pivots d_j (1/d_j is the corner entry of the
    inverse), a broken mode's parked at inf so that it adds no corner entry;
    and the broken modes as (j, d_j).
    """
    tiny = sys.float_info.min
    d = a
    negative = np.zeros(a.size, dtype=np.int64)
    for _ in range(rows - 1):
        if abs(d).min() < tiny:
            d = np.where(abs(d) < tiny, -tiny, d)
        negative += d < 0.0
        d = a - 1.0 / d
    broken = []
    if abs(d).min() < floor:
        broken = [(int(j), float(d[j])) for j in np.flatnonzero(abs(d) < floor)]
        d = np.where(abs(d) < floor, np.inf, d)
    return int(negative.sum()) + int(np.count_nonzero(d < 0.0)), d, broken


def _mode_coupling(cols: np.ndarray, size: int, w: np.ndarray) -> np.ndarray:
    """sum_j w_j*phi_j(x)*phi_j(x') for x, x' in cols, phi_j the DST-I modes.

    phi_j(x) = sqrt(2/size)*sin(pi*x*j/size), j = 1..size-1, are orthonormal
    on the columns 1..size-1.  A product of two sines is a difference of
    cosines, so the sum is c[|x - x'|] - c[x + x'] with c[k] =
    (1/size)*sum_j w_j*cos(pi*k*j/size), one FFT of the even extension of w.
    """
    even = np.zeros(2 * size)
    even[1:size] = w
    even[size + 1:] = w[::-1]
    c = np.fft.fft(even).real / (2 * size)
    coupling = c[abs(cols[:, None] - cols)]
    coupling -= c[cols[:, None] + cols]
    return coupling


def _block_eigenvalues(a: np.ndarray) -> np.ndarray:
    """Eigenvalues of D in the Bunch-Kaufman LDL^T of the symmetric a.

    LAPACK dsytrf factors a in place when a is Fortran-ordered, blocked by
    the workspace size that dsytrf_lwork returns (several times faster than
    its default).  With lower = 1, D's diagonal is ldu's, and a 2x2 block at
    (k, k+1) has ipiv[k] = ipiv[k+1] < 0 and off-diagonal ldu[k+1, k].
    Negative entries come only in such pairs, so a block starts at each even
    offset into a run of them.
    """
    from scipy.linalg.lapack import dsytrf, dsytrf_lwork

    lwork = int(dsytrf_lwork(a.shape[0], lower=1)[0])
    ldu, ipiv, info = dsytrf(a, lower=1, lwork=lwork, overwrite_a=1)
    if info < 0:
        raise ValueError(f"dsytrf: illegal value in argument {-info}")
    eig = np.diagonal(ldu).copy()
    idx = np.arange(ipiv.size)
    paired = ipiv < 0
    run_start = np.maximum.accumulate(np.where(paired, 0, idx + 1))
    first = np.flatnonzero(paired & ((idx - run_start) % 2 == 0))
    if first.size:
        blocks = np.empty((first.size, 2, 2))
        blocks[:, 0, 0] = eig[first]
        blocks[:, 1, 1] = eig[first + 1]
        blocks[:, 0, 1] = blocks[:, 1, 0] = ldu[first + 1, first]
        pairs = np.linalg.eigvalsh(blocks)
        eig[first], eig[first + 1] = pairs[:, 0], pairs[:, 1]
    return eig


def _bordered(sigma: np.ndarray, kept: list[tuple[float, np.ndarray]]) -> np.ndarray:
    """[[sigma, -B^T], [-B, diag(d)]]: sigma bordered by one row per broken mode.

    Each (d, border) in kept is a broken mode's last pivot and its row of B,
    the mode's coupling to the mouth nodes.
    """
    diag, border = zip(*kept)
    b = np.array(border)
    return np.block([[sigma, -b.T], [-b, np.diag(diag)]])


def _schur_split(spec: DomainSpec, s: int, lam: float) -> tuple[int, int, int]:
    """(N_S, N_T, neg(Sigma)) at theta = tie_threshold(lam), not at lam.

    The square has (2qs-1)^2 nodes and each tooth (s-1) x (h_rows-1).  Each
    block is diagonalised in x by a DST-I and left tridiagonal in y; the
    continued fraction of each mode counts its negative pivots and gives the
    corner entry of its inverse, all that couples it to the mouth row.  A
    mode whose last pivot falls below the floor keeps that one row in Sigma,
    bordered by -phi_j on the mouth nodes (square mode j) or by -psi_k on one
    tooth's (tooth mode k, per tooth); N_S and N_T then count only the rows
    before it.  So Sigma has at most q(s-1) + (2qs-1) + q(s-1) = 4qs - 2q - 1
    rows.  One dense LDL^T of Sigma (LAPACK dsytrf, Bunch-Kaufman) counts
    the rest.  A D-block eigenvalue below the floor puts theta within
    rounding of a comb eigenvalue: FactorizationError.  Units are
    d2 = 1/delta^2, so the floor PIVOT_FLOOR_REL*8*d2 is inertia_count's.
    """
    layout = comb_layout(spec, s)
    n = layout.x_cells
    theta = tie_threshold(finite_real("lambda", lam))
    shift = theta / (n * n)
    floor = PIVOT_FLOOR_REL * 8.0
    j = np.arange(1, n)
    n_square, square_last, square_broken = _continued_fraction(
        2.0 + 4.0 * np.sin(j * (math.pi / (2 * n))) ** 2 - shift, n - 1, floor)
    if layout.degenerate_teeth and not square_broken:
        return n_square, 0, 0
    k = np.arange(1, s)
    teeth = 0 if layout.degenerate_teeth else spec.q  # no mouth row without teeth
    cols = (2 * s * np.arange(teeth)[:, None] + k).ravel()
    kept = [(d, math.sqrt(2.0 / n) * np.sin((i + 1) * (math.pi / n) * cols))
            for i, d in square_broken]

    n_tooth, tooth_block = 0, 0.0
    if layout.h_rows > 1 and cols.size:
        n_tooth, tooth_last, tooth_broken = _continued_fraction(
            2.0 + 4.0 * np.sin(k * (math.pi / (2 * s))) ** 2 - shift,
            layout.h_rows - 1, floor)
        tooth_block = _mode_coupling(k, s, 1.0 / tooth_last)
        for i, d in tooth_broken:
            psi = math.sqrt(2.0 / s) * np.sin((i + 1) * (math.pi / s) * k)
            kept += [(d, np.kron(unit, psi)) for unit in np.eye(spec.q)]

    sigma = _mode_coupling(cols, n, 1.0 / square_last)
    np.negative(sigma, out=sigma)
    sigma[np.diag_indices(cols.size)] += 4.0 - shift
    left = np.flatnonzero(np.diff(cols) == 1)
    sigma[left, left + 1] -= 1.0
    sigma[left + 1, left] -= 1.0
    for t in range(spec.q):
        block = slice(t * (s - 1), (t + 1) * (s - 1))
        sigma[block, block] -= tooth_block
    if kept:
        sigma = _bordered(sigma, kept)
    # Sigma is exactly symmetric: its Fortran-ordered transpose is factored in place.
    eig = _block_eigenvalues(sigma.T)
    if np.min(np.abs(eig)) < floor:
        raise FactorizationError(
            f"theta = {theta!r} (lambda = {float(lam)!r}) is within rounding "
            "of a comb eigenvalue: no count is certified")
    return n_square, n_tooth, int(np.count_nonzero(eig < 0.0))


def comb_inertia_count(spec: DomainSpec, s: int, lam: float) -> SpectralCount:
    """Count FD comb eigenvalues at or below tie_threshold(lam) without the grid.

    The count is N_S + q*N_T + neg(Sigma) from _schur_split, with tie_tol
    TIE_TOL like the record's exact counts.  Where theta lies within
    rounding of a comb eigenvalue, FactorizationError follows.  The grid
    checks and their messages are those of build_comb_grid.
    """
    n_square, n_tooth, n_sigma = _schur_split(spec, s, lam)
    return SpectralCount(float(lam), n_square + spec.q * n_tooth + n_sigma,
                         "fd_schur", TIE_TOL)


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
    positive_int("m_cols", m_cols)
    positive_int("k_rows", k_rows)
    positive_real("delta", delta)
    lam = finite_real("lambda", lam)
    sx = np.sin(np.arange(1, m_cols + 1) * (math.pi / (2.0 * (m_cols + 1)))) ** 2
    sy = np.sin(np.arange(1, k_rows + 1) * (math.pi / (2.0 * (k_rows + 1)))) ** 2
    vals = (4.0 / (delta * delta)) * (sx[:, None] + sy[None, :])
    count = int(np.count_nonzero(vals <= tie_threshold(lam)))
    return SpectralCount(lam, count, "closed_form_fd", TIE_TOL)


def dense_eig_oracle(op: DiscreteOperator) -> np.ndarray:
    """All eigenvalues of op, nondecreasing, via LAPACK (numpy's eigvalsh).

    Limited to n <= DENSE_MAX_N.  The solver is backward stable: each
    eigenvalue is within a small multiple of eps*||A||.  A LAPACK
    convergence failure is raised as FactorizationError.
    """
    if op.n > DENSE_MAX_N:
        raise ValueError(f"dense oracle limited to n <= {DENSE_MAX_N}, got {op.n}")
    try:
        return np.linalg.eigvalsh(op.matrix.toarray())
    except np.linalg.LinAlgError as exc:
        raise FactorizationError(f"dense eigensolver failed: {exc}") from exc


def dense_count(op: DiscreteOperator, lam: float) -> SpectralCount:
    """Eigenvalue count at or below lam taken from the dense LAPACK oracle."""
    lam = finite_real("lambda", lam)
    eigs = dense_eig_oracle(op)
    count = int(np.count_nonzero(eigs <= tie_threshold(lam)))
    return SpectralCount(lam, count, "dense_oracle", TIE_TOL)
