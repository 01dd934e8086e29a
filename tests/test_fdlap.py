"""Tests for the FD comb Laplacian, inertia counting, and its oracles."""

import itertools
import math

import numpy as np
import pytest
import scipy.linalg.lapack
import scipy.sparse as sp
from scipy.linalg import ldl

from combweyl import DomainSpec, dtn, fdlap
from combweyl.checks import gap_midpoints, random_small_operator
from combweyl.fdlap import (DENSE_MAX_N, PIVOT_FLOOR_REL, DiscreteOperator,
                            FactorizationError, MAX_QS,
                            assemble_dirichlet_operator, build_comb_grid,
                            build_rect_operator, comb_inertia_count,
                            comb_layout, dense_count, dense_eig_oracle,
                            fd_rect_count_closed_form, inertia_count)
from combweyl.lattice import TIE_TOL, tie_threshold
from helpers import comb_membership_nodes, exact_comb_count


def _rect_eig(m_cols, k_rows, delta, i, j):
    """Closed-form FD eigenvalue (i, j) of an m_cols x k_rows rectangle."""
    sx = math.sin(i * math.pi / (2.0 * (m_cols + 1))) ** 2
    sy = math.sin(j * math.pi / (2.0 * (k_rows + 1))) ** 2
    return (4.0 / (delta * delta)) * (sx + sy)


def _grid_nodes(grid):
    """(yi, xi) of the grid's nodes in id order, read from node_index."""
    yi, xi = np.nonzero(grid.node_index >= 0)
    np.testing.assert_array_equal(grid.node_index[yi, xi], np.arange(grid.n))
    return yi, xi


class TestCombGrid:
    def test_thirteen_node_example(self):
        grid = build_comb_grid(DomainSpec(1, 1.0), 2)
        assert grid.n == 13
        assert grid.delta == 0.25
        assert grid.h_snapped == 1.0
        assert not grid.degenerate_teeth
        yi, xi = _grid_nodes(grid)
        coords = np.column_stack((xi, yi)) * grid.delta
        # 9 square-interior nodes, then the interface node at (0.25, 1),
        # then 3 tooth nodes straight above it.
        assert coords.shape == (13, 2)
        np.testing.assert_allclose(
            coords[9:], [[0.25, 1.0], [0.25, 1.25], [0.25, 1.5], [0.25, 1.75]])
        assert all(coords[i, 1] <= coords[i + 1, 1] for i in range(12))

    def test_row_major_ordering(self):
        yi, xi = _grid_nodes(build_comb_grid(DomainSpec(2, 0.9), 3))
        order = list(zip(yi.tolist(), xi.tolist()))
        assert order == sorted(order)

    def test_matches_membership_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            q = int(rng.integers(1, 5))
            s = int(rng.integers(1, 7))
            h = float(rng.uniform(0.05, 2.5))
            grid = build_comb_grid(DomainSpec(q, h), s)
            oracle = comb_membership_nodes(q, h, s)
            assert grid.n == len(oracle)
            yi, xi = _grid_nodes(grid)
            assert list(zip(yi.tolist(), xi.tolist())) == oracle

    def test_node_count_formula(self):
        for q, s, h in ((1, 2, 1.0), (2, 2, 1.0), (3, 4, 0.7), (2, 5, 1.3)):
            grid = build_comb_grid(DomainSpec(q, h), s)
            x_cells = 2 * q * s
            h_rows = round(h * x_cells)
            assert grid.n == (x_cells - 1) ** 2 + q * (s - 1) * h_rows

    def test_interface_row_is_interior(self):
        # Nodes at y = 1 exist exactly over the open tooth mouths.
        yi, xi = _grid_nodes(build_comb_grid(DomainSpec(2, 1.0), 2))
        at_interface = xi[yi == 8]  # y = 1 is row 8 when delta = 1/8
        assert at_interface.tolist() == [1, 5]

    def test_h_snapping(self):
        rng = np.random.default_rng(32)
        for _ in range(30):
            q = int(rng.integers(1, 5))
            s = int(rng.integers(1, 7))
            h = float(rng.uniform(0.05, 2.5))
            grid = build_comb_grid(DomainSpec(q, h), s)
            assert abs(grid.h_snapped - h) <= grid.delta / 2.0 + 1e-15
            assert grid.h_snapped == round(h / grid.delta) * grid.delta

    def test_degenerate_at_s1(self):
        grid = build_comb_grid(DomainSpec(1, 1.0), 1)
        assert grid.degenerate_teeth
        assert grid.delta == 0.5
        assert grid.n == 1
        yi, xi = _grid_nodes(grid)
        np.testing.assert_allclose(np.column_stack((xi, yi)) * grid.delta, [[0.5, 0.5]])

    def test_degenerate_at_tiny_h(self):
        # h below delta/2 snaps to zero tooth rows.
        grid = build_comb_grid(DomainSpec(1, 0.05), 2)
        assert grid.degenerate_teeth
        assert grid.h_snapped == 0.0
        assert grid.n == 9

    def test_resource_guard(self):
        with pytest.raises(ValueError):
            build_comb_grid(DomainSpec(64, 1.0), MAX_QS // 64 + 1)
        with pytest.raises(ValueError):
            build_comb_grid(DomainSpec(1, 1.0), 0)
        with pytest.raises(ValueError):
            build_comb_grid(DomainSpec(1, 1.0), 2.0)


class TestOperator:
    def test_thirteen_node_entries(self):
        grid = build_comb_grid(DomainSpec(1, 1.0), 2)
        op = assemble_dirichlet_operator(grid)
        dense = op.matrix.toarray()
        assert np.all(np.diag(dense) == 64.0)
        off = dense[~np.eye(13, dtype=bool)]
        assert set(np.unique(off)) <= {0.0, -16.0}
        assert op.norm_inf == 128.0

    def test_symmetry(self):
        grid = build_comb_grid(DomainSpec(2, 1.0), 2)
        op = assemble_dirichlet_operator(grid)
        assert (op.matrix - op.matrix.T).nnz == 0

    def test_single_unknown(self):
        grid = build_comb_grid(DomainSpec(1, 1.0), 1)
        op = assemble_dirichlet_operator(grid)
        assert op.n == 1
        assert op.matrix.toarray().tolist() == [[16.0]]

    def test_row_sums_reflect_boundary_deficit(self):
        rng = np.random.default_rng(33)
        for _ in range(8):
            op, _ = random_small_operator(rng)
            dense = op.matrix.toarray()
            d2 = 1.0 / (op.delta * op.delta)
            neighbor_counts = (dense < 0.0).sum(axis=1)
            row_sums = dense.sum(axis=1)
            np.testing.assert_allclose(
                row_sums, (4.0 - neighbor_counts) * d2, rtol=1e-12, atol=1e-9)
            assert np.all(row_sums >= -1e-9)
            interior = neighbor_counts == 4
            assert np.all(np.abs(row_sums[interior]) <= 1e-9)
            assert np.all(row_sums[~interior] > 0.5 * d2)

    def test_positive_definite(self):
        rng = np.random.default_rng(34)
        for _ in range(8):
            op, label = random_small_operator(rng)
            assert inertia_count(op, 0.0).count == 0, label

    def test_rect_operator_validation(self):
        with pytest.raises(ValueError):
            build_rect_operator(0, 3, 0.1)
        with pytest.raises(ValueError):
            build_rect_operator(3, 3, -0.1)
        with pytest.raises(ValueError):
            build_rect_operator(3000, 3000, 0.001)

    @staticmethod
    def coo_reference(node_index, delta):
        """The stencil as COO triplets summed into CSR by SciPy, and its row-sum norm."""
        mask = node_index >= 0
        yi, xi = np.nonzero(mask)
        n, d2 = yi.size, 1.0 / (delta * delta)
        rows, cols, vals = [np.arange(n)], [np.arange(n)], [np.full(n, 4.0 * d2)]
        for dj, di in ((0, 1), (1, 0)):
            has_nb = mask[yi + dj, xi + di]
            a = node_index[yi[has_nb], xi[has_nb]]
            b = node_index[yi[has_nb] + dj, xi[has_nb] + di]
            rows.append(np.concatenate((a, b)))
            cols.append(np.concatenate((b, a)))
            vals.append(np.full(2 * a.size, -d2))
        matrix = sp.coo_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(n, n)).tocsr()
        return matrix, float(np.max(abs(matrix).sum(axis=1)))

    @staticmethod
    def assert_bit_equal(op, ref, norm_inf):
        for name in ("data", "indices", "indptr"):
            got, want = getattr(op.matrix, name), getattr(ref, name)
            assert got.dtype == want.dtype and np.array_equal(got, want), name
        assert op.norm_inf == norm_inf

    def test_rect_assembly_matches_coo_reference(self):
        for m, k, delta in ((1, 1, 0.5), (1, 7, 0.3), (7, 1, 0.11), (2, 2, 0.25),
                            (6, 6, 0.497301), (5, 9, 0.07), (13, 3, 1.7)):
            node_index = np.full((k + 2, m + 2), -1, dtype=np.int64)
            node_index[1:-1, 1:-1] = np.arange(m * k).reshape(k, m)
            self.assert_bit_equal(build_rect_operator(m, k, delta),
                                  *self.coo_reference(node_index, delta))

    def test_comb_assembly_matches_coo_reference(self):
        # h = 0.01 snaps to no tooth rows and s = 1 leaves no tooth columns.
        for q in (1, 2, 3):
            for s in range(1, 6):
                for h in (0.01, 0.3, 1.0, 1.7):
                    grid = build_comb_grid(DomainSpec(q, h), s)
                    self.assert_bit_equal(assemble_dirichlet_operator(grid),
                                          *self.coo_reference(grid.node_index,
                                                              grid.delta))


class TestInertia:
    def test_rect_3x3_spot_values(self):
        op = build_rect_operator(3, 3, 0.25)
        assert inertia_count(op, 18.0).count == 0
        assert inertia_count(op, 19.0).count == 1
        assert inertia_count(op, 100.0).count == 8

    def test_matches_closed_form_battery(self):
        for m, k in ((1, 1), (3, 3), (2, 7), (5, 4), (8, 2)):
            for delta in (0.5, 0.25, 0.1):
                op = build_rect_operator(m, k, delta)
                for lam in (0.0, 10.0, 18.0, 19.0, 100.0, 500.0, 2000.0):
                    got = inertia_count(op, lam).count
                    want = fd_rect_count_closed_form(m, k, delta, lam).count
                    assert got == want, (m, k, delta, lam)

    def test_exact_eigenvalue_counted_via_jitter(self):
        # The sole FD eigenvalue of the 1x1 grid at delta = 0.5 is 16; a
        # threshold exactly there must count it (the "<=" convention).
        op = build_rect_operator(1, 1, 0.5)
        hit = inertia_count(op, 16.0)
        assert hit.count == 1
        assert hit.tie_tol == pytest.approx(1e-9)
        miss = inertia_count(op, 16.0 * (1.0 - 1e-6))
        assert miss.count == 0
        assert miss.tie_tol == 0.0
        above = inertia_count(op, 17.0)
        assert above.count == 1
        assert above.tie_tol == 0.0

    def test_exact_double_eigenvalue(self):
        # The (1,3)/(3,1) pair of the 6x6 grid: a shift 1e-9 above it passes
        # the pivot floor, yet unpivoted elimination there gives one negative
        # pivot too few.
        lam = _rect_eig(6, 6, 0.497301, 1, 3)
        op = build_rect_operator(6, 6, 0.497301)
        hit = inertia_count(op, lam)
        assert hit.count == fd_rect_count_closed_form(6, 6, 0.497301, lam).count
        assert hit.count == 6
        assert hit.tie_tol > 0.0

    def test_exact_tie_battery(self):
        # Closed-form eigenvalues as thresholds: double ones (i != j) on
        # square grids, single ones on rectangles.
        rng = np.random.default_rng(44)
        for _ in range(40):
            m = int(rng.integers(2, 13))
            square = rng.random() < 0.5
            k = m if square else int(rng.integers(2, 13))
            delta = float(rng.uniform(0.04, 0.6))
            op = build_rect_operator(m, k, delta)
            for _ in range(5):
                i, j = int(rng.integers(1, m + 1)), int(rng.integers(1, k + 1))
                if square and i == j:
                    j = j % m + 1
                lam = _rect_eig(m, k, delta, i, j)
                want = fd_rect_count_closed_form(m, k, delta, lam).count
                assert inertia_count(op, lam).count == want, (m, k, delta, i, j)

    @pytest.mark.parametrize("m", [6, 9, 12])
    def test_large_tie_window(self, m, monkeypatch):
        # 4/delta^2 is an m-fold eigenvalue of the m x m grid, from the pairs
        # (i, m+1-i); the eigenvalues at or below it are those with i + j <= m+1.
        delta = 1.0 / (m + 1)
        lam = 4.0 / (delta * delta)
        op = build_rect_operator(m, m, delta)
        got = inertia_count(op, lam)
        assert got.count == fd_rect_count_closed_form(m, m, delta, lam).count
        assert got.count == m * (m + 1) // 2
        assert got.tie_tol > 0.0
        # A threshold just below the tie leaves the whole window out.
        monkeypatch.setattr(fdlap, "tie_threshold", lambda lam: lam * (1.0 - 1e-8))
        assert inertia_count(op, lam).count == m * (m - 1) // 2

    def test_unresolved_window_is_factorization_error(self, monkeypatch):
        monkeypatch.setattr(fdlap, "WINDOW_ITERATIONS", 0)
        lam = _rect_eig(6, 6, 0.497301, 1, 3)
        with pytest.raises(FactorizationError, match="not resolved"):
            inertia_count(build_rect_operator(6, 6, 0.497301), lam)

    def test_tie_window_seeded_from_factor_at_lambda(self, monkeypatch):
        # One solve with the broken-down factor at the tie all but finds its
        # eigenvectors, so a single refined step settles the (1,3)/(3,1) pair.
        monkeypatch.setattr(fdlap, "WINDOW_ITERATIONS", 1)
        lam = _rect_eig(6, 6, 0.497301, 1, 3)
        got = inertia_count(build_rect_operator(6, 6, 0.497301), lam)
        assert got.count == 6 and got.tie_tol > 0.0

    def test_window_straddling_threshold_is_factorization_error(self, monkeypatch):
        # With no tie tolerance the threshold sits on the 12-fold eigenvalue,
        # inside the Ritz intervals however far the iteration runs.
        monkeypatch.setattr(fdlap, "tie_threshold", lambda lam: lam)
        with pytest.raises(FactorizationError, match="not resolved"):
            inertia_count(build_rect_operator(12, 12, 1.0 / 13), 4.0 * 13 * 13)

    def test_window_resolves_to_rounding_level(self, monkeypatch):
        # A threshold 1e-11 relative above the 18-fold eigenvalue 4/delta^2:
        # the refined solves bring the Ritz residuals far below that gap.
        monkeypatch.setattr(fdlap, "tie_threshold", lambda lam: lam * (1.0 + 1e-11))
        op = build_rect_operator(18, 18, 1.0 / 19)
        assert inertia_count(op, 4.0 * 19 * 19).count == 171

    def test_eigenvalue_just_below_window(self):
        # The tie at 10 lies 1e-5 above the window's lower edge and another
        # eigenvalue 5e-6 below that edge: inverse iteration from the edge
        # favours the outsider, which the guard columns must take.
        vals = np.array([1.0, 5.0, 10.0 - 1.5e-5, 10.0, 20.0])
        op = DiscreteOperator(matrix=sp.csr_matrix(np.diag(vals)), n=5, delta=1.0,
                              norm_inf=20.0)
        got = inertia_count(op, 10.0)
        assert got.count == 4 and got.tie_tol > 0.0

    def test_window_holding_fewer_eigenvalues_is_unresolved(self):
        vals = np.array([1.0, 5.0, 10.0, 20.0])
        op = DiscreteOperator(matrix=sp.csr_matrix(np.diag(vals)), n=4, delta=1.0,
                              norm_inf=20.0)
        lower, upper, threshold = 10.0 - 1e-5, 10.0 + 1e-5, 10.0 * (1.0 + 1e-9)
        lu = fdlap._negative_pivots(sp.csc_matrix(np.diag(vals - lower)), 0.0)[1]
        assert fdlap._window_count(op, lu, lower, upper, 1, threshold, None) == 1
        with pytest.raises(FactorizationError, match="not resolved"):
            fdlap._window_count(op, lu, lower, upper, 2, threshold, None)

    def test_breakdown_after_retries(self):
        # An absurd norm_inf makes the pivot floor reject every tie window.
        matrix = sp.csr_matrix(np.array([[16.0]]))
        corrupt = DiscreteOperator(matrix=matrix, n=1, delta=0.5, norm_inf=1e12)
        with pytest.raises(FactorizationError):
            inertia_count(corrupt, 16.0)

    def test_lambda_validation(self):
        op = build_rect_operator(2, 2, 0.25)
        with pytest.raises(ValueError):
            inertia_count(op, math.nan)

    def test_unstored_diagonal_rejected(self):
        # Shifts are applied at the stored diagonal; a CSR built from a dense
        # array drops zero diagonal entries.
        matrix = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        op = DiscreteOperator(matrix=matrix, n=2, delta=1.0, norm_inf=1.0)
        with pytest.raises(ValueError):
            inertia_count(op, 0.5)

    def test_agrees_with_dense_oracle(self):
        rng = np.random.default_rng(35)
        for _ in range(12):
            op, label = random_small_operator(rng)
            eigs = dense_eig_oracle(op)
            for lam, want in gap_midpoints(eigs, rng, 4):
                assert inertia_count(op, lam).count == want, (label, lam)
                assert dense_count(op, lam).count == want, (label, lam)


def _block_ties(rng, spec, s):
    """A random eigenvalue of the square block, and of a tooth block when it has rows."""
    layout = comb_layout(spec, s)
    cells, rows = layout.x_cells, layout.h_rows
    ties = [_rect_eig(cells - 1, cells - 1, layout.delta,
                      int(rng.integers(1, cells)), int(rng.integers(1, cells)))]
    if rows >= 2:
        ties.append(_rect_eig(s - 1, rows - 1, layout.delta,
                              int(rng.integers(1, s)), int(rng.integers(1, rows))))
    return ties


def _sparse_count(spec, s, lam):
    return inertia_count(assemble_dirichlet_operator(build_comb_grid(spec, s)), lam)


def _tridiagonal(a, rows):
    return a * np.eye(rows) - np.eye(rows, k=1) - np.eye(rows, k=-1)


def _ldl_block_eigenvalues(a):
    """Eigenvalues of ldl(a)'s block diagonal d, and the first index of each 2x2 block."""
    d = ldl(a)[1]
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
    return eig, first


@pytest.fixture
def bordered(monkeypatch):
    """The kept rows that each call of fdlap._bordered receives."""
    calls = []
    real = fdlap._bordered
    monkeypatch.setattr(fdlap, "_bordered",
                        lambda sigma, kept: calls.append(kept) or real(sigma, kept))
    return calls


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestCombInertiaCount:
    """The mouth-row Schur counter against inertia_count on the assembled comb."""

    def check_split(self, spec, s, lam):
        """Counter equals inertia_count; its parts obey the exact identities."""
        got = comb_inertia_count(spec, s, lam)
        assert got.count == _sparse_count(spec, s, lam).count, (spec, s, lam)
        assert got.method == "fd_schur" and got.tie_tol == TIE_TOL
        layout = comb_layout(spec, s)
        n_square, n_tooth, n_sigma = fdlap._schur_split(spec, s, lam)
        cells = layout.x_cells
        assert n_square == fd_rect_count_closed_form(
            cells - 1, cells - 1, layout.delta, lam).count
        if layout.degenerate_teeth or layout.h_rows == 1:
            assert n_tooth == 0
        else:
            assert n_tooth == fd_rect_count_closed_form(
                s - 1, layout.h_rows - 1, layout.delta, lam).count
        assert 0 <= n_sigma <= spec.q * (s - 1)
        if layout.degenerate_teeth:
            assert n_sigma == 0
        return n_sigma

    def test_random_battery(self):
        rng = np.random.default_rng(61)
        sigma_counts = []
        for _ in range(60):
            q = int(rng.integers(1, 33))
            s = int(rng.integers(1, min(30, 60 // q) + 1))
            spec = DomainSpec(q, float(rng.uniform(0.02, 2.5)))
            lam = float(rng.uniform(1.0, 400.0)) * q * q
            sigma_counts.append(self.check_split(spec, s, lam))
        assert max(sigma_counts) > 0

    def test_acceptance_grids(self):
        for q, s in ((2, 15), (6, 30)):
            self.check_split(DomainSpec(q, 1.0), s, 100.0 * q * q)

    def test_degenerate_teeth(self):
        rng = np.random.default_rng(62)
        for _ in range(12):
            q = int(rng.integers(1, 7))
            s = int(rng.integers(1, 8))
            cells = 2 * q * s
            lam = float(rng.uniform(1.0, 400.0)) * q * q
            # s = 1, then h snapping to zero rows, then to the mouth row alone.
            self.check_split(DomainSpec(q, float(rng.uniform(0.1, 2.0))), 1, lam)
            for rows in (0, 1):
                h = (rows + float(rng.uniform(-0.4, 0.4))) / cells
                if h > 0.0:
                    assert comb_layout(DomainSpec(q, h), s).h_rows == rows
                    self.check_split(DomainSpec(q, h), s, lam)

    def test_clear_zone_battery(self, bordered):
        # theta within 3 ulps of an eigenvalue lam0 of the square block or of
        # a tooth block, with no comb eigenvalue within 1e-12 relative: a
        # pivot at theta is below the floor, its mode is bordered into Sigma,
        # and the count is #(eigvalsh <= theta).
        rng = np.random.default_rng(63)
        engaged = compared = 0
        for _ in range(25):
            while True:
                q, s = int(rng.integers(1, 5)), int(rng.integers(2, 6))
                spec = DomainSpec(q, float(rng.uniform(0.1, 1.5)))
                grid = build_comb_grid(spec, s)
                if grid.n <= DENSE_MAX_N:
                    break
            eigs = dense_eig_oracle(assemble_dirichlet_operator(grid))
            for tie in _block_ties(rng, spec, s):
                lam = tie / (1.0 + TIE_TOL)
                for ulps in range(-3, 4):
                    lam_u = lam + ulps * np.spacing(lam)
                    theta = tie_threshold(lam_u)
                    if np.min(abs(eigs - theta)) <= 1e-12 * theta:
                        continue
                    del bordered[:]
                    got = comb_inertia_count(spec, s, lam_u)
                    assert got.count == np.count_nonzero(eigs <= theta), (spec, s, lam_u)
                    engaged += bool(bordered)
                    compared += 1
        assert engaged >= 30, (engaged, compared)

    def test_early_breaks_keep_one_row(self, bordered):
        # theta on the eigenvalue 2 - 2cos(pi/(r+1)) of the leading r x r
        # block of mode j of the square (size n, n - 1 rows) or of a tooth
        # (size s, h_rows - 1 rows) puts a pivot near zero at row r.  Short of
        # the last row the recurrence runs on through it; at the last row
        # the mode is bordered into Sigma by that one row (other modes may
        # break too).  With degenerate teeth Sigma is those rows alone.
        # Cases within 1e-12 relative of a comb eigenvalue are left out.
        compared = 0
        for q, s, h in ((2, 1, 1.0), (3, 2, 0.01), (1, 3, 0.5), (2, 2, 0.4)):
            spec = DomainSpec(q, h)
            eigs = dense_eig_oracle(assemble_dirichlet_operator(build_comb_grid(spec, s)))
            layout = comb_layout(spec, s)
            n = layout.x_cells
            mouth = 0 if layout.degenerate_teeth else q * (s - 1)
            for size, rows in ((n, n - 1), (s, layout.h_rows - 1)):
                for j, r in itertools.product(range(1, size), range(1, rows + 1)):
                    lam = n * n * (2.0 + 4.0 * math.sin(j * math.pi / (2 * size)) ** 2
                                   - 2.0 * math.cos(math.pi / (r + 1))) / (1.0 + TIE_TOL)
                    theta = tie_threshold(lam)
                    if np.min(abs(eigs - theta)) <= 1e-12 * theta:
                        continue
                    del bordered[:]
                    got = comb_inertia_count(spec, s, lam).count
                    assert got == np.count_nonzero(eigs <= theta), (spec, s, lam)
                    kept = [entry for call in bordered for entry in call]
                    assert r < rows or kept, (spec, s, j, r)
                    for d, border in kept:
                        assert np.ndim(d) == 0 and np.shape(border) == (mouth,)
                    compared += 1
        assert compared >= 100, compared

    def test_kept_rows_bounded_at_four_over_delta_squared(self, bordered):
        # theta = 4/delta^2 at (q, s) = (16, 16) is an eigenvalue of every
        # square mode's tridiagonal and of many leading blocks of the tooth
        # modes.  Each broken mode keeps one row, so Sigma stays within
        # 4qs - 2q - 1 rows, and theta on a comb eigenvalue raises.
        spec, s = DomainSpec(16, 1.0), 16
        with pytest.raises(FactorizationError, match=r"theta = 1048576\.0 "):
            comb_inertia_count(spec, s, 4 * 512 ** 2 / (1.0 + TIE_TOL))
        (kept,) = bordered
        assert all(np.ndim(d) == 0 for d, _ in kept)
        assert 16 * (s - 1) + len(kept) <= 4 * 16 * s - 2 * 16 - 1

    def test_tooth_tie_keeps_one_row_per_tooth(self, bordered):
        # theta on the tooth eigenvalue (k, j) = (8, 170) at (16, 16): the
        # 255-row leading block shares it, so the pivot at row 255 is
        # near zero, and the mode breaks only at its last row, one row per
        # tooth.  theta is within rounding of a comb eigenvalue: it raises.
        spec, s = DomainSpec(16, 1.0), 16
        tie = 512 ** 2 * 4.0 * (math.sin(8 * math.pi / 32) ** 2
                                + math.sin(170 * math.pi / 1024) ** 2)
        with pytest.raises(FactorizationError, match="within rounding"):
            comb_inertia_count(spec, s, tie / (1.0 + TIE_TOL))
        (kept,) = bordered
        assert 0 < sum(np.size(d) for d, _ in kept) <= 2 * spec.q

    def test_theta_on_shared_eigenvalue_is_factorization_error(self):
        # 1024 = 4/delta^2 at q = 2, s = 4 is a 15-fold eigenvalue of the
        # square block and of the comb.  With theta on it the bordered Sigma
        # is singular, and no count is certified.
        spec, s = DomainSpec(2, 1.0), 4
        op = assemble_dirichlet_operator(build_comb_grid(spec, s))
        assert np.count_nonzero(abs(dense_eig_oracle(op) - 1024.0) <= 1e-9) == 15
        with pytest.raises(FactorizationError,
                           match=r"theta = 1024\.0 \(lambda = .*\) is within rounding"):
            comb_inertia_count(spec, s, 1024.0 / (1.0 + TIE_TOL))
        assert comb_inertia_count(spec, s, 1024.0).count == dense_count(op, 1024.0).count

    def test_ambiguous_zone_battery(self):
        # theta within 1e-10 relative of a comb eigenvalue, on combs small
        # enough for the exact rational count: every count the Schur route
        # returns is the exact one, and the rest raise FactorizationError.
        rng = np.random.default_rng(64)
        counted = raised = 0
        for q, s in ((1, 2), (1, 2), (1, 3), (2, 2), (1, 3), (1, 2)):
            spec = DomainSpec(q, float(rng.uniform(0.2, 0.8)))
            eigs = dense_eig_oracle(assemble_dirichlet_operator(build_comb_grid(spec, s)))
            for tie in rng.choice(eigs, 2, replace=False):
                for rel in (-1e-10, -1e-12, 0.0, 1e-12, 1e-10):
                    lam = float(tie) * (1.0 + rel) / (1.0 + TIE_TOL)
                    try:
                        got = comb_inertia_count(spec, s, lam).count
                    except FactorizationError:
                        raised += 1
                        continue
                    assert got == exact_comb_count(q, spec.h, s, tie_threshold(lam)), (
                        spec, s, lam)
                    counted += 1
        assert counted and raised, (counted, raised)

    def test_counts_at_theta_battery(self):
        # Thresholds at and around two comb eigenvalues and one eigenvalue of
        # the square and of a tooth block each, on 60 combs small enough for
        # the dense oracle: every count is #(eigvalsh <= theta).
        rng = np.random.default_rng(8)
        compared = 0
        for _ in range(60):
            while True:
                q, s = int(rng.integers(1, 6)), int(rng.integers(2, 7))
                spec = DomainSpec(q, float(rng.uniform(0.3, 1.5)))
                grid = build_comb_grid(spec, s)
                if grid.n <= DENSE_MAX_N:
                    break
            op = assemble_dirichlet_operator(grid)
            eigs = dense_eig_oracle(op)
            for tie in [float(x) for x in rng.choice(eigs, 2)] + _block_ties(rng, spec, s):
                for rel in (-1e-12, 0.0, 1e-12, -3e-9, 3e-9):
                    lam = tie * (1.0 + rel)
                    want = np.count_nonzero(eigs <= tie_threshold(lam))
                    assert comb_inertia_count(spec, s, lam).count == want, (spec, s, lam)
                    compared += 1
        assert compared >= 1000

    def test_intermediate_pivots_follow_pivmin(self):
        # A pivot below the smallest normal float is taken as -tiny (LAPACK's
        # pivmin rule); no row short of the last breaks its mode.  Counting
        # a broken mode's last pivot by its sign, the pivots count the
        # eigenvalues <= 0.  Exact zero pivots: a = 0 at its first row,
        # 1 - 1/1 at the second row of a = 1, and a first pivot of -0.0 in
        # 3 rows, whose zero eigenvalue counts only through -tiny.  a = 5e-301
        # and -5e-21 reach pivots 1e-300 and -1e-20 at the third row, which
        # are used as they are: the last pivots are then -1/(2a).
        floor = 8.0 * PIVOT_FLOOR_REL
        for a, rows, broken_modes in (([3.0, 0.0], 4, []), ([1.0, -2.0], 3, []),
                                      ([-0.0], 3, [0]), ([5e-301, -5e-21], 4, [])):
            a = np.array(a)
            negative, last, broken = fdlap._continued_fraction(a, rows, floor)
            # The only eigenvalue within 0.4 of zero is an exact zero.
            want = sum(np.count_nonzero(np.linalg.eigvalsh(_tridiagonal(x, rows)) < 1e-9)
                       for x in a)
            assert negative + sum(d < 0.0 for _, d in broken) == want, (a, rows)
            assert [j for j, _ in broken] == broken_modes
            assert np.isfinite([d for _, d in broken]).all()
            assert np.isfinite(last).sum() == a.size - len(broken)
        np.testing.assert_allclose(last, -0.5 / a, rtol=1e-15)

    def test_block_eigenvalues_match_ldl(self):
        # _block_eigenvalues reads D from the dsytrf call, with the lwork,
        # that scipy.linalg.ldl makes, so it must equal ldl's bit for bit.
        # Small diagonals force 2x2 pivots, often several in a row.
        rng = np.random.default_rng(16)
        adjacent_pairs = 0
        for n in (1, 2, 3, 8, 65, 200):
            for _ in range(4):
                a = rng.standard_normal((n, n))
                a += a.T
                a[np.diag_indices(n)] *= 1e-3
                want, first = _ldl_block_eigenvalues(a)
                adjacent_pairs += np.count_nonzero(np.diff(first) == 2)
                got = fdlap._block_eigenvalues(np.asfortranarray(a))
                np.testing.assert_array_equal(got, want)
        assert adjacent_pairs > 0

    def test_singular_sigma_is_factorization_error(self, monkeypatch):
        spec, s, lam = DomainSpec(3, 1.0), 4, 900.0
        assert comb_inertia_count(spec, s, lam).count == _sparse_count(spec, s, lam).count

        def singular_dsytrf(a, lower=0, lwork=0, overwrite_a=0):
            # A zero D, as LAPACK reports it: info = n, D(n, n) exactly zero.
            return np.zeros_like(a), np.arange(1, len(a) + 1, dtype=np.int32), len(a)

        monkeypatch.setattr(scipy.linalg.lapack, "dsytrf", singular_dsytrf)
        with pytest.raises(FactorizationError, match="within rounding of a comb eigenvalue"):
            comb_inertia_count(spec, s, lam)

    def test_validation_matches_grid(self):
        for s in (0, 2.0, True, MAX_QS // 64 + 1):
            with pytest.raises(ValueError) as grid_err:
                build_comb_grid(DomainSpec(64, 1.0), s)
            with pytest.raises(ValueError) as count_err:
                comb_inertia_count(DomainSpec(64, 1.0), s, 100.0)
            assert str(count_err.value) == str(grid_err.value)
        for lam in (math.nan, math.inf):
            with pytest.raises(ValueError, match="lambda must be finite"):
                comb_inertia_count(DomainSpec(1, 1.0), 2, lam)

    @staticmethod
    def discrete_dtn(q, h, s, lam, j):
        """N*(1 - N^2*g_j): the one-sided difference at the mouth of tooth mode j.

        g_j = 1/(N^2*e_j) is the corner entry of the inverse of the tooth
        mode's y-tridiagonal, e_j its last continued-fraction pivot in units
        of N^2.
        """
        layout = comb_layout(DomainSpec(q, h), s)
        cells = layout.x_cells
        a = np.array([2.0 + 4.0 * math.sin(math.pi * j / (2 * s)) ** 2
                      - lam / cells ** 2])
        _, last, _ = fdlap._continued_fraction(a, layout.h_rows - 1,
                                               8.0 * PIVOT_FLOOR_REL)
        return cells * (1.0 - 1.0 / last[0]), layout.h_snapped

    @pytest.mark.parametrize("mu", [100.0, 30.0])
    def test_tooth_dtn_converges_first_order(self, mu):
        errors = []
        for s in (32, 64, 128):
            value, h_snapped = self.discrete_dtn(1, 1.0, s, mu, 1)
            errors.append(abs(value - dtn._rho(1, 1, h_snapped, mu)))
        for coarse, fine in zip(errors, errors[1:]):
            assert 1.7 <= coarse / fine <= 2.3, errors
        assert errors[-1] < 0.15


class TestClosedFormRect:
    def test_spot_values(self):
        assert fd_rect_count_closed_form(3, 3, 0.25, 19.0).count == 1
        assert fd_rect_count_closed_form(3, 3, 0.25, 18.0).count == 0
        # Exact tie: the sole eigenvalue is 16 up to rounding.
        assert fd_rect_count_closed_form(1, 1, 0.5, 16.0).count == 1

    def test_total_count(self):
        assert fd_rect_count_closed_form(4, 6, 0.1, 1.0e9).count == 24

    def test_validation(self):
        # The rectangle checks and their messages are build_rect_operator's.
        for m, k, delta, message in (
                (0, 1, 0.5, "m_cols must be an int >= 1, got 0"),
                (2, 1.0, 0.5, "k_rows must be an int >= 1, got 1.0"),
                (True, 1, 0.5, "m_cols must be an int >= 1, got True"),
                (1, 1, 0.0, "delta must be finite and > 0, got 0.0"),
                (1, 1, math.nan, "delta must be finite and > 0, got nan"),
                (1, 1, "0.5", "delta must be finite and > 0, got '0.5'")):
            with pytest.raises(ValueError) as op_err:
                build_rect_operator(m, k, delta)
            with pytest.raises(ValueError) as count_err:
                fd_rect_count_closed_form(m, k, delta, 10.0)
            assert str(op_err.value) == str(count_err.value) == message
        with pytest.raises(ValueError):
            fd_rect_count_closed_form(1, 1, 0.5, math.inf)


class TestDenseOracle:
    def test_single_entry(self):
        op = build_rect_operator(1, 1, 0.5)
        np.testing.assert_allclose(dense_eig_oracle(op), [16.0])

    def test_rect_3x3_against_closed_form(self):
        op = build_rect_operator(3, 3, 0.25)
        closed = sorted(
            64.0 * (math.sin(m * math.pi / 8.0) ** 2 + math.sin(k * math.pi / 8.0) ** 2)
            for m in (1, 2, 3) for k in (1, 2, 3))
        np.testing.assert_allclose(dense_eig_oracle(op), closed, atol=1e-9)

    def test_comb_13_counts(self):
        grid = build_comb_grid(DomainSpec(1, 1.0), 2)
        op = assemble_dirichlet_operator(grid)
        for lam in (18.0, 19.0, 100.0):
            assert inertia_count(op, lam).count == dense_count(op, lam).count

    def test_lapack_failure_is_factorization_error(self, monkeypatch):
        def no_convergence(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", no_convergence)
        with pytest.raises(FactorizationError):
            dense_eig_oracle(build_rect_operator(3, 3, 0.25))

    def test_size_guard(self):
        op = build_rect_operator(21, 20, 0.04)  # n = 420
        assert op.n > DENSE_MAX_N
        with pytest.raises(ValueError):
            dense_eig_oracle(op)


class TestExactCount:
    """The rational arbiter of tests/helpers.py against the dense oracle."""

    def test_matches_eigvalsh_away_from_ties(self):
        rng = np.random.default_rng(65)
        for q, s, h in ((1, 2, 1.0), (1, 3, 0.6), (2, 2, 0.4), (1, 4, 0.3)):
            op = assemble_dirichlet_operator(build_comb_grid(DomainSpec(q, h), s))
            for lam, want in gap_midpoints(dense_eig_oracle(op), rng, 4):
                assert exact_comb_count(q, h, s, lam) == want, (q, s, h, lam)

    def test_eigenvalue_on_threshold_counts(self):
        # 64 = 4*d2 at q = 1, s = 2 is a triple comb eigenvalue, and K - 4I
        # has a zero diagonal, so the first pivot is an exact zero.
        eigs = dense_eig_oracle(assemble_dirichlet_operator(
            build_comb_grid(DomainSpec(1, 1.0), 2)))
        assert np.count_nonzero(abs(eigs - 64.0) < 1e-9) == 3
        below = np.count_nonzero(eigs < 64.0 - 1e-9)
        assert exact_comb_count(1, 1.0, 2, 64.0 * (1.0 - 1e-9)) == below
        assert exact_comb_count(1, 1.0, 2, 64.0) == below + 3

    def test_size_cap(self):
        with pytest.raises(ValueError, match="exact count limited"):
            exact_comb_count(2, 1.0, 3, 100.0)


class TestConvergence:
    def test_unit_square_count_converges_to_six(self):
        for cells in (16, 32):
            op = build_rect_operator(cells - 1, cells - 1, 1.0 / cells)
            assert inertia_count(op, 100.0).count == 6

    def test_mesh_refinement_stability(self):
        # delta*q*sqrt(mu) <= 0.35 at mu = 100 needs s >= 15; doubling the
        # refinement must move the count by at most 2%.
        for q, want in ((2, 36), (3, 85)):
            counts = {}
            for s in (15, 30):
                grid = build_comb_grid(DomainSpec(q, 1.0), s)
                op = assemble_dirichlet_operator(grid)
                counts[s] = inertia_count(op, 100.0 * q * q).count
            assert counts[30] == want
            assert abs(counts[15] - counts[30]) <= max(1.0, 0.02 * counts[30])
