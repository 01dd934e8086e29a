"""Acceptance battery: ten end-to-end checks, one printed line each.

Each test exercises one advertised guarantee at its stated tolerance and
runtime budget and prints a single "PASS criterion N" line (visible under
pytest -s; failures raise with full detail).  Criteria 9 and 10 share one
comb sweep, provided by a module-scoped fixture.
"""

import math
from time import perf_counter

import pytest

from combweyl import (DomainSpec, ExperimentConfig, count_rect_dirichlet,
                      count_rect_neumann, count_tooth, em_decomposition,
                      fit_constant, run_sweep, square_mixed_gap,
                      theorem_constant, weyl_constant)
from combweyl import checks
from combweyl.asymptotics import defect_series
from combweyl.lattice import UNIT_SQUARE


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
    assert checks.closed_form_delta(42, 100) is None
    assert checks.crossover_signs([0.25, 1.0, 3.0]) is None
    elapsed = perf_counter() - t0
    assert elapsed < 1.0
    _report(1, f"closed-form delta below 4pi^2 on 100 draws, |delta(16,h)| "
               f"<= 1e-12 and signs +/- at mu=4/36 for 3 h ({elapsed:.2f}s)")


def test_criterion_2_euler_maclaurin_identity():
    t0 = perf_counter()
    pairs = [(mu, h) for mu in (50.0, 100.0, 400.0, 1000.0) for h in (0.5, 1.0, 2.0)]
    assert checks.em_identity(pairs) is None
    elapsed = perf_counter() - t0
    assert elapsed < 1.0
    _report(2, f"em split equals direct delta on 12 (mu,h) ({elapsed:.2f}s)")


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
    assert checks.lattice_vs_enumeration(1042, 200) is None
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
    assert checks.tooth_vs_rect(1052, 100) is None
    elapsed = perf_counter() - t0
    assert elapsed < 1.0
    _report(5, f"count_tooth(2,1,400)=4 and 100 draws equal the rectangle "
               f"count ({elapsed:.2f}s)")


def test_criterion_6_dtn_positivity():
    t0 = perf_counter()
    assert checks.dtn_positivity(1062, 1000) is None
    assert checks.dtn_counts() is None
    elapsed = perf_counter() - t0
    assert elapsed < 1.0
    _report(6, f"1000 super-cutoff modes positive; nonpositive counts 1/0 at "
               f"lam=45/100 ({elapsed:.2f}s)")


def test_criterion_7_inertia_correctness():
    t0 = perf_counter()
    assert checks.inertia_vs_dense(1072, 50, 5) is None
    assert checks.inertia_vs_closed_form(
        [(1, 1), (3, 3), (2, 7), (5, 4), (8, 2)], [0.5, 0.25, 0.1],
        [0.0, 18.0, 19.0, 100.0, 500.0, 2000.0]) is None
    elapsed = perf_counter() - t0
    assert elapsed < 60.0
    _report(7, f"50 grids x 5 thresholds match the dense oracle and the "
               f"closed-form rectangle battery ({elapsed:.2f}s)")


def test_criterion_8_continuum_convergence():
    t0 = perf_counter()
    assert checks.square_convergence([32, 64]) is None
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
