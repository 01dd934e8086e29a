"""Tests for the closed-form count coefficients and their Euler-Maclaurin split."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from combweyl import analytic
from combweyl.analytic import (DomainSpec, EulerMaclaurinTerms, FOUR_PI_SQ,
                               constant_report, crossover_scan,
                               em_decomposition, mode_cutoff,
                               theorem_constant, weyl_constant)

# Frozen spot values, precomputed at 50-digit precision and rounded to double.
C_100_1 = 10.434058597897846
C_WEYL_100_1 = 10.345071300973197
DELTA_100_1 = 0.088987296924648742
DELTA_1000_1 = -0.31303163451218886
EM_100_1 = (0.388978091914065, 0.320380582439663, -0.0406413256462727)
EM_1000_1 = (0.0570954461648741, 0.00250784555749191, -0.0856860046378598)


class TestDomainSpec:
    def test_area_and_perimeter(self):
        spec = DomainSpec(4, 0.5)
        assert spec.area == pytest.approx(1.25, rel=1e-15)
        assert spec.perimeter == pytest.approx(8.0, rel=1e-15)

    def test_rejects_bad_q(self):
        with pytest.raises(ValueError):
            DomainSpec(0, 1.0)
        with pytest.raises(ValueError):
            DomainSpec(-2, 1.0)
        with pytest.raises(ValueError):
            DomainSpec(2.0, 1.0)

    def test_rejects_bad_h(self):
        for h in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                DomainSpec(1, h)


class TestModeCutoff:
    def test_exact_thresholds(self):
        # sqrt(4*pi^2*l^2)/(2*pi) lands exactly on l in double precision.
        assert mode_cutoff(FOUR_PI_SQ) == 1
        assert mode_cutoff(4.0 * FOUR_PI_SQ) == 2
        assert mode_cutoff(9.0 * FOUR_PI_SQ) == 3

    def test_below_first_mode(self):
        assert mode_cutoff(16.0) == 0
        assert mode_cutoff(39.0) == 0
        assert mode_cutoff(40.0) == 1

    def test_large(self):
        assert mode_cutoff(1.0e6) == int(1000.0 / (2.0 * math.pi))

    def test_rejects_nonpositive(self):
        for mu in (0.0, -4.0, math.nan):
            with pytest.raises(ValueError):
                mode_cutoff(mu)


class TestConstants:
    def test_frozen_values_at_100(self):
        assert theorem_constant(100.0, 1.0) == pytest.approx(C_100_1, rel=1e-13)
        assert weyl_constant(100.0, 1.0) == pytest.approx(C_WEYL_100_1, rel=1e-13)
        rep = constant_report(100.0, 1.0)
        assert rep.cutoff_m == 1
        assert rep.delta == pytest.approx(DELTA_100_1, rel=1e-12)

    def test_frozen_delta_at_1000(self):
        rep = constant_report(1000.0, 1.0)
        assert rep.cutoff_m == 5
        assert rep.delta == pytest.approx(DELTA_1000_1, rel=1e-12)

    def test_value_at_crossover(self):
        # At mu = 16 both coefficients equal 4/pi for every h, exactly.
        for h in (0.5, 1.0, 2.0, 3.7):
            c = theorem_constant(16.0, h)
            cw = weyl_constant(16.0, h)
            assert c == cw
            assert c == pytest.approx(4.0 / math.pi, rel=1e-15)

    def test_no_modes_means_pure_bulk(self):
        mu = FOUR_PI_SQ * 0.99
        assert theorem_constant(mu, 1.7) == mu / (4.0 * math.pi)

    def test_weyl_grouping_matches_naive_formula(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            mu = float(rng.uniform(0.1, 2000.0))
            h = float(rng.uniform(0.05, 4.0))
            naive = (2.0 + h) * mu / (8.0 * math.pi) - h * math.sqrt(mu) / (2.0 * math.pi)
            scale = max(1.0, (2.0 + h) * mu / (8.0 * math.pi))
            assert abs(weyl_constant(mu, h) - naive) <= 5e-12 * scale

    def test_closed_form_delta_below_first_mode(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            mu = float(rng.uniform(0.0, FOUR_PI_SQ))
            h = float(rng.uniform(0.0, 4.0))
            if mu <= 0.0 or h <= 0.0:
                continue
            expect = h * (4.0 * math.sqrt(mu) - mu) / (8.0 * math.pi)
            got = theorem_constant(mu, h) - weyl_constant(mu, h)
            assert got == pytest.approx(expect, rel=1e-12, abs=1e-15)

    def test_continuity_across_mode_cutoffs(self):
        # A new mode enters the sum with value zero, so c is continuous there.
        for l in range(1, 6):
            mu = FOUR_PI_SQ * l * l
            below = theorem_constant(mu * (1.0 - 1e-9), 1.0)
            above = theorem_constant(mu * (1.0 + 1e-9), 1.0)
            assert abs(above - below) < 1e-3

    def test_rejects_bad_arguments(self):
        for fn in (theorem_constant, weyl_constant, em_decomposition):
            with pytest.raises(ValueError):
                fn(-1.0, 1.0)
            with pytest.raises(ValueError):
                fn(100.0, 0.0)
            with pytest.raises(ValueError):
                fn(math.inf, 1.0)


class TestEulerMaclaurin:
    def test_identity_battery(self):
        for mu in (50.0, 100.0, 400.0, 1000.0):
            for h in (0.5, 1.0, 2.0):
                rep = em_decomposition(mu, h)
                assert rep.em_delta == pytest.approx(rep.delta, abs=1e-8)

    def test_frozen_terms_at_100(self):
        rep = em_decomposition(100.0, 1.0)
        assert rep.em_terms.endpoint == pytest.approx(EM_100_1[0], rel=1e-11)
        assert rep.em_terms.tail == pytest.approx(EM_100_1[1], rel=1e-11)
        assert rep.em_terms.periodic == pytest.approx(EM_100_1[2], rel=1e-11)

    def test_frozen_terms_at_1000(self):
        rep = em_decomposition(1000.0, 1.0)
        assert rep.em_terms.endpoint == pytest.approx(EM_1000_1[0], rel=1e-11)
        assert rep.em_terms.tail == pytest.approx(EM_1000_1[1], rel=1e-11)
        assert rep.em_terms.periodic == pytest.approx(EM_1000_1[2], rel=1e-11)

    def test_exact_mode_threshold(self):
        # At mu = 4*pi^2 the integrand's endpoint is singular; in the theta
        # substitution the closed form stays finite (f(m) = 0, asin(1) = pi/2)
        # and delta = 1 - pi/2.
        rep = em_decomposition(FOUR_PI_SQ, 1.0)
        assert rep.em_terms.endpoint == 0.0
        assert rep.em_terms.tail == pytest.approx(0.0, abs=1e-15)
        assert rep.em_delta == pytest.approx(1.0 - math.pi / 2.0, rel=1e-10)
        assert rep.delta == pytest.approx(1.0 - math.pi / 2.0, rel=1e-10)

    def test_identity_at_exact_higher_cutoffs(self):
        for l in (2, 3):
            rep = em_decomposition(FOUR_PI_SQ * l * l, 1.3)
            assert rep.em_delta == pytest.approx(rep.delta, abs=1e-8)

    def test_periodic_part_matches_quadrature(self):
        # Oracle: the per-interval theta integral the closed form replaces,
        # integrated numerically with scipy's adaptive quadrature.
        def quad_periodic(a, m):
            total = 0.0
            for l in range(1, m + 1):
                th_lo = math.asin((l - 1) / a)
                th_hi = math.asin(min(l / a, 1.0))

                def integrand(theta, shift=(l - 1) + 0.5):
                    return -(a * math.sin(theta) - shift) * math.sin(theta)

                val, _ = quad(integrand, th_lo, th_hi, epsabs=1e-12,
                              epsrel=1e-12, limit=200)
                total += val
            return total

        mus = list(np.geomspace(FOUR_PI_SQ * (1.0 + 1e-9), 1e7, 200))
        mus += [FOUR_PI_SQ * l * l for l in range(1, 51)]
        for mu in mus:
            m = mode_cutoff(float(mu))
            a = math.sqrt(mu) / (2.0 * math.pi)
            diff = analytic._periodic_part(a, m) - quad_periodic(a, m)
            assert abs(diff) <= 1e-11, (mu, diff)

    def test_below_threshold_raises(self):
        with pytest.raises(ValueError):
            em_decomposition(16.0, 1.0)

    def test_report_without_terms(self):
        rep = constant_report(100.0, 1.0)
        assert rep.em_terms is None
        assert rep.em_delta is None


class TestCrossoverScan:
    def test_signs_at_4_16_36(self):
        scan = crossover_scan([4.0, 16.0, 36.0], 1.0)
        assert [sign for _, _, sign in scan] == [1, 0, -1]
        assert scan[0][1] > 0.0
        assert scan[1][1] == 0.0
        assert scan[2][1] < 0.0

    def test_values_match_direct_evaluation(self):
        grid = [10.0, 50.0, 100.0, 500.0]
        scan = crossover_scan(grid, 0.8)
        for (mu, delta, _), mu_in in zip(scan, grid):
            assert mu == mu_in
            direct = theorem_constant(mu, 0.8) - weyl_constant(mu, 0.8)
            assert delta == direct

    def test_positive_sign_above_16(self):
        # The sign does NOT stay negative for mu > 16 once modes propagate;
        # mu = 100 is a positive-delta witness.
        scan = crossover_scan([17.0, 100.0], 1.0)
        assert scan[0][2] == -1
        assert scan[1][2] == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            crossover_scan([], 1.0)
        with pytest.raises(ValueError):
            crossover_scan([4.0, 4.0], 1.0)
        with pytest.raises(ValueError):
            crossover_scan([16.0, 4.0], 1.0)
        with pytest.raises(ValueError):
            crossover_scan([-1.0, 4.0], 1.0)


def test_euler_maclaurin_terms_is_value_object():
    t = EulerMaclaurinTerms(0.1, 0.2, 0.3)
    assert t == EulerMaclaurinTerms(0.1, 0.2, 0.3)
    rep = analytic.ConstantReport(mu=100.0, h=1.0, cutoff_m=1, c=1.0,
                                  c_weyl=0.5, delta=0.5, em_terms=t)
    assert rep.em_delta == pytest.approx(
        (1.0 / math.pi) * 10.0 * (0.1 - 0.2 + 0.3), rel=1e-15)
