"""Acceptance battery: ten end-to-end checks, one printed line each.

Each test exercises one advertised guarantee at its stated tolerance and
runtime budget and prints a single "PASS criterion N" line (visible under
pytest -s; failures raise with full detail).  Criteria 9 and 10 share one
comb sweep, provided by a module-scoped fixture.
"""

import math
from time import perf_counter

import numpy as np
import pytest

from combweyl import (DomainSpec, ExperimentConfig, build_rect_operator,
                      count_nonpositive_tooth, count_rect_dirichlet,
                      count_rect_neumann, count_tooth, crossover_scan,
                      em_decomposition, enumerate_rect_eigs, fit_constant,
                      inertia_count, run_sweep, square_mixed_gap,
                      theorem_constant, tooth_mode_eigenvalue, weyl_constant)
from combweyl.analytic import FOUR_PI_SQ, mode_cutoff
from combweyl.asymptotics import defect_series
from combweyl.cli import _gap_midpoints as gap_midpoints
from combweyl.dtn import DirichletPoleError
from combweyl.fdlap import dense_eig_oracle, fd_rect_count_closed_form
from combweyl.lattice import UNIT_SQUARE, RectSpec
from helpers import random_small_operator


def _report(criterion: int, detail: str) -> None:
    print(f"PASS criterion {criterion}: {detail}")


@pytest.fixture(scope="module")
def comb_sweep():
    config = ExperimentConfig(mu_list=(100.0,), h=1.0, q_list=(2, 3, 4, 5, 6),
                              s_list=(15, 30))
    t0 = perf_counter()
    records = run_sweep(config)
    return records, perf_counter() - t0


def test_criterion_1_crossover_exactness():
    t0 = perf_counter()
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        mu = float(rng.uniform(1e-6, FOUR_PI_SQ * (1.0 - 1e-9)))
        h = float(rng.uniform(1e-3, 4.0))
        closed = (h / (8.0 * math.pi)) * (4.0 * math.sqrt(mu) - mu)
        delta = theorem_constant(mu, h) - weyl_constant(mu, h)
        err = abs(delta - closed) / max(abs(closed), 1e-15)
        worst = max(worst, err)
        assert err <= 1e-12, (mu, h, delta, closed)
    for h in (0.25, 1.0, 3.0):
        assert abs(theorem_constant(16.0, h) - weyl_constant(16.0, h)) <= 1e-12
    signs = {mu: sign for mu, _, sign in crossover_scan([4.0, 36.0], 1.0)}
    assert signs[4.0] == 1 and signs[36.0] == -1
    elapsed = perf_counter() - t0
    assert elapsed < 1.0
    _report(1, f"closed-form delta below 4pi^2, worst rel err {worst:.2e}, "
               f"delta(16,h)=0, signs +/- at mu=4/36 ({elapsed:.2f}s)")


def test_criterion_2_euler_maclaurin_identity():
    t0 = perf_counter()
    worst = 0.0
    for mu in (50.0, 100.0, 400.0, 1000.0):
        for h in (0.5, 1.0, 2.0):
            rep = em_decomposition(mu, h)
            err = abs(rep.em_delta - rep.delta)
            worst = max(worst, err)
            assert err <= 1e-8, (mu, h, rep.em_delta, rep.delta)
    elapsed = perf_counter() - t0
    assert elapsed < 1.0
    _report(2, f"em split equals direct delta on 12 (mu,h), worst abs err "
               f"{worst:.2e} ({elapsed:.2f}s)")


def test_criterion_3_sign_at_mu_100():
    t0 = perf_counter()
    direct = theorem_constant(100.0, 1.0) - weyl_constant(100.0, 1.0)
    rep = em_decomposition(100.0, 1.0)
    for label, value in (("direct", direct), ("euler-maclaurin", rep.em_delta)):
        assert abs(value - 0.0890) <= 1e-3, (label, value)
        assert value > 0.0, (label, value)
    elapsed = perf_counter() - t0
    assert elapsed < 1.0
    _report(3, f"delta(100,1) positive by both routes: direct "
               f"{direct:+.6f}, em {rep.em_delta:+.6f} ({elapsed:.2f}s)")


def test_criterion_4_lattice_oracle_equivalence():
    t0 = perf_counter()
    rng = np.random.default_rng(1042)
    for _ in range(200):
        rect = RectSpec(float(rng.uniform(0.2, 3.0)), float(rng.uniform(0.2, 3.0)))
        lam = float(rng.uniform(0.0, 600.0))
        fast = count_rect_dirichlet(rect, lam).count
        slow = len(enumerate_rect_eigs(rect, lam))
        assert fast == slow, (rect, lam, fast, slow)
    assert count_rect_dirichlet(UNIT_SQUARE, 100.0).count == 6
    assert count_rect_dirichlet(UNIT_SQUARE, 2.0 * math.pi ** 2).count == 1
    assert count_rect_neumann(UNIT_SQUARE, 100.0).count == 13
    assert square_mixed_gap(100.0) == 7
    elapsed = perf_counter() - t0
    assert elapsed < 5.0
    _report(4, f"200 counts match enumeration; N_Q(100)=6, N_Q(2pi^2)=1, "
               f"Neumann(100)=13, gap(100)=7 ({elapsed:.2f}s)")


def test_criterion_5_tooth_count():
    t0 = perf_counter()
    assert count_tooth(DomainSpec(2, 1.0), 400.0).count == 4
    rng = np.random.default_rng(1052)
    for _ in range(100):
        q = int(rng.integers(1, 7))
        h = float(rng.uniform(0.3, 2.5))
        lam = float(rng.uniform(0.0, 400.0 * q * q))
        tooth = count_tooth(DomainSpec(q, h), lam).count
        rect = count_rect_dirichlet(RectSpec(1.0 / (2.0 * q), h), lam).count
        assert tooth == rect, (q, h, lam, tooth, rect)
    elapsed = perf_counter() - t0
    assert elapsed < 1.0
    _report(5, f"count_tooth(2,1,400)=4 and 100 draws equal the rectangle "
               f"count ({elapsed:.2f}s)")


def test_criterion_6_dtn_positivity():
    t0 = perf_counter()
    rng = np.random.default_rng(1062)
    for _ in range(1000):
        q = int(rng.integers(1, 5))
        h = float(rng.uniform(0.2, 3.0))
        lam = float(rng.uniform(0.5, 900.0))
        k = mode_cutoff(lam / (q * q)) + 1 + int(rng.integers(0, 4))
        try:
            rho = tooth_mode_eigenvalue(k, q, h, lam)
        except DirichletPoleError:  # pragma: no cover - measure-zero draw
            continue
        assert rho > 0.0, (k, q, h, lam, rho)
    assert count_nonpositive_tooth(1, 1.0, 45.0) == 1
    assert count_nonpositive_tooth(1, 1.0, 100.0) == 0
    elapsed = perf_counter() - t0
    assert elapsed < 1.0
    _report(6, f"1000 super-cutoff modes positive; nonpositive counts 1/0 at "
               f"lam=45/100 ({elapsed:.2f}s)")


def test_criterion_7_inertia_correctness():
    t0 = perf_counter()
    rng = np.random.default_rng(1072)
    checked = 0
    for _ in range(50):
        op, label = random_small_operator(rng)
        eigs = dense_eig_oracle(op)
        for lam, want in gap_midpoints(eigs, rng, 5):
            got = inertia_count(op, lam).count
            assert got == want, (label, lam, got, want)
            checked += 1
    for m, k in ((1, 1), (3, 3), (2, 7), (5, 4), (8, 2)):
        for delta in (0.5, 0.25, 0.1):
            op = build_rect_operator(m, k, delta)
            for lam in (0.0, 18.0, 19.0, 100.0, 500.0, 2000.0):
                got = inertia_count(op, lam).count
                want = fd_rect_count_closed_form(m, k, delta, lam).count
                assert got == want, (m, k, delta, lam, got, want)
    elapsed = perf_counter() - t0
    assert elapsed < 60.0
    _report(7, f"50 grids x 5 thresholds match the dense oracle "
               f"({checked} comparisons) and the closed-form rectangle "
               f"battery ({elapsed:.2f}s)")


def test_criterion_8_continuum_convergence():
    t0 = perf_counter()
    for cells in (32, 64):
        op = build_rect_operator(cells - 1, cells - 1, 1.0 / cells)
        got = inertia_count(op, 100.0).count
        assert got == 6, (cells, got)
    elapsed = perf_counter() - t0
    assert elapsed < 10.0
    _report(8, f"unit-square count at lam=100 is 6 at delta=1/32 and 1/64 "
               f"({elapsed:.2f}s)")


def test_criterion_9_theorem_at_desk_scale(comb_sweep):
    records, sweep_time = comb_sweep
    assert all(r.error is None for r in records), [r.error for r in records]
    fine = [r for r in records if r.s == 30]
    fit = fit_constant(fine)
    c_ref = theorem_constant(100.0, 1.0)
    assert abs(fit.c_hat - c_ref) <= 0.3, (fit.c_hat, c_ref)
    assert fit.residual_max <= 0.15 * 36, fit.residual_max
    coarse = {r.q: r.n_fd for r in records if r.s == 15}
    for r in fine:
        drift = abs(coarse[r.q] - r.n_fd)
        assert drift <= max(1.0, 0.02 * r.n_fd), (r.q, coarse[r.q], r.n_fd)
    assert sweep_time < 600.0
    _report(9, f"c_hat {fit.c_hat:.4f} vs analytic {c_ref:.4f} "
               f"(|err| {abs(fit.c_hat - c_ref):.4f} <= 0.3), residual_max "
               f"{fit.residual_max:.3f} <= 5.4, refinement drift <= 2% "
               f"({sweep_time:.1f}s sweep)")


def test_criterion_10_defect_behavior(comb_sweep):
    records, _ = comb_sweep
    t0 = perf_counter()
    worst_ratio = -math.inf
    for s in (15, 30):
        subset = [r for r in records if r.s == s]
        by_q = {r.q: r for r in subset}
        for q, defect, bound in defect_series(subset):
            n_fd = by_q[q].n_fd
            assert defect >= -0.02 * n_fd, (s, q, defect, n_fd)
            ratio = defect / q
            assert ratio <= bound / q + 2.0, (s, q, defect, bound)
            worst_ratio = max(worst_ratio, ratio - bound / q)
    elapsed = perf_counter() - t0
    _report(10, f"defects within -2% of n_fd and defect/q within bound/q + 2 "
                f"for q=2..6 at s=15 and 30 (worst margin {worst_ratio:+.2f}, "
                f"{elapsed:.2f}s analysis)")
