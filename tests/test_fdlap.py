"""Tests for the FD comb Laplacian, inertia counting, and its oracles."""

import math

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackNoConvergence

from combweyl import DomainSpec, fdlap
from combweyl.cli import _gap_midpoints as gap_midpoints
from combweyl.fdlap import (DENSE_MAX_N, DiscreteOperator, FactorizationError,
                            MAX_QS, assemble_dirichlet_operator,
                            build_comb_grid, build_rect_operator, dense_count,
                            dense_eig_oracle, fd_rect_count_closed_form,
                            inertia_count)
from helpers import comb_membership_nodes, random_small_operator


class TestCombGrid:
    def test_thirteen_node_example(self):
        grid = build_comb_grid(DomainSpec(1, 1.0), 2)
        assert grid.n == 13
        assert grid.delta == 0.25
        assert grid.h_snapped == 1.0
        assert not grid.degenerate_teeth
        coords = grid.coords()
        # 9 square-interior nodes, then the interface node at (0.25, 1),
        # then 3 tooth nodes straight above it.
        assert coords.shape == (13, 2)
        np.testing.assert_allclose(
            coords[9:], [[0.25, 1.0], [0.25, 1.25], [0.25, 1.5], [0.25, 1.75]])
        assert all(coords[i, 1] <= coords[i + 1, 1] for i in range(12))

    def test_row_major_ordering(self):
        grid = build_comb_grid(DomainSpec(2, 0.9), 3)
        order = list(zip(grid.yi.tolist(), grid.xi.tolist()))
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
            assert list(zip(grid.yi.tolist(), grid.xi.tolist())) == oracle

    def test_node_count_formula(self):
        for q, s, h in ((1, 2, 1.0), (2, 2, 1.0), (3, 4, 0.7), (2, 5, 1.3)):
            grid = build_comb_grid(DomainSpec(q, h), s)
            x_cells = 2 * q * s
            h_rows = round(h * x_cells)
            assert grid.n == (x_cells - 1) ** 2 + q * (s - 1) * h_rows

    def test_interface_row_is_interior(self):
        # Nodes at y = 1 exist exactly over the open tooth mouths.
        grid = build_comb_grid(DomainSpec(2, 1.0), 2)
        at_interface = grid.xi[grid.yi == 8]  # y = 1 is row 8 when delta = 1/8
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
        np.testing.assert_allclose(grid.coords(), [[0.5, 0.5]])

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

    @staticmethod
    def _rect_eig(m_cols, k_rows, delta, i, j):
        """Closed-form FD eigenvalue (i, j) of an m_cols x k_rows rectangle."""
        sx = math.sin(i * math.pi / (2.0 * (m_cols + 1))) ** 2
        sy = math.sin(j * math.pi / (2.0 * (k_rows + 1))) ** 2
        return (4.0 / (delta * delta)) * (sx + sy)

    def test_exact_double_eigenvalue(self):
        # The (1,3)/(3,1) pair of the 6x6 grid: a shift 1e-9 above it passes
        # the pivot floor, yet unpivoted elimination there gives one negative
        # pivot too few.
        lam = self._rect_eig(6, 6, 0.497301, 1, 3)
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
                lam = self._rect_eig(m, k, delta, i, j)
                want = fd_rect_count_closed_form(m, k, delta, lam).count
                assert inertia_count(op, lam).count == want, (m, k, delta, i, j)

    def test_arpack_failure_is_factorization_error(self, monkeypatch):
        def no_convergence(*args, **kwargs):
            raise ArpackNoConvergence("ARPACK error -1: No convergence", [], [])

        monkeypatch.setattr(fdlap, "eigsh", no_convergence)
        lam = self._rect_eig(6, 6, 0.497301, 1, 3)
        with pytest.raises(FactorizationError):
            inertia_count(build_rect_operator(6, 6, 0.497301), lam)

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


class TestClosedFormRect:
    def test_spot_values(self):
        assert fd_rect_count_closed_form(3, 3, 0.25, 19.0).count == 1
        assert fd_rect_count_closed_form(3, 3, 0.25, 18.0).count == 0
        # Exact tie: the sole eigenvalue is 16 up to rounding.
        assert fd_rect_count_closed_form(1, 1, 0.5, 16.0).count == 1

    def test_total_count(self):
        assert fd_rect_count_closed_form(4, 6, 0.1, 1.0e9).count == 24

    def test_validation(self):
        with pytest.raises(ValueError):
            fd_rect_count_closed_form(0, 1, 0.5, 10.0)
        with pytest.raises(ValueError):
            fd_rect_count_closed_form(1, 1, 0.0, 10.0)
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
