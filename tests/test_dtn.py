"""Tests for tooth Dirichlet-to-Neumann modes against a shooting oracle."""

import math

import numpy as np
import pytest

from combweyl.analytic import FOUR_PI_SQ, mode_cutoff
from combweyl.dtn import (DirichletPoleError, count_nonpositive_tooth,
                          square_mixed_gap, tooth_mode_eigenvalue)
from helpers import rho_shooting

# Frozen values, precomputed at 50-digit precision.
RHO_K1_LAM100 = 0.580024582692019
RHO_K2_LAM100 = 7.61010691614634
RHO_K1_LAM45 = -2.31996576275784


class TestSpotValues:
    def test_frozen_oscillatory(self):
        assert tooth_mode_eigenvalue(1, 1, 1.0, 100.0) == pytest.approx(
            RHO_K1_LAM100, rel=1e-12)
        assert tooth_mode_eigenvalue(1, 1, 1.0, 45.0) == pytest.approx(
            RHO_K1_LAM45, rel=1e-12)

    def test_frozen_evanescent(self):
        assert tooth_mode_eigenvalue(2, 1, 1.0, 100.0) == pytest.approx(
            RHO_K2_LAM100, rel=1e-12)

    def test_frozen_values_match_shooting(self):
        for k, lam, want in ((1, 100.0, RHO_K1_LAM100),
                             (2, 100.0, RHO_K2_LAM100),
                             (1, 45.0, RHO_K1_LAM45)):
            assert rho_shooting(k, 1, 1.0, lam) == pytest.approx(want, rel=1e-7)

    def test_zero_coefficient_branch(self):
        lam = FOUR_PI_SQ * 4.0  # s = 0 exactly for k = 1, q = 2
        assert tooth_mode_eigenvalue(1, 2, 0.8, lam) == pytest.approx(
            1.0 / 0.8, rel=1e-15)


class TestShootingAgreement:
    def test_random_modes(self):
        rng = np.random.default_rng(21)
        checked = 0
        while checked < 40:
            k = int(rng.integers(1, 5))
            q = int(rng.integers(1, 4))
            h = float(rng.uniform(0.2, 2.0))
            lam = float(rng.uniform(0.5, 1.5) * FOUR_PI_SQ * (k * q) ** 2
                        + rng.uniform(-30.0, 30.0))
            s = lam - FOUR_PI_SQ * (k * q) ** 2
            if abs(s) > 2000.0 or math.sqrt(abs(s)) * h > 40.0:
                continue
            if s > 0.0 and abs(math.sin(math.sqrt(s) * h)) < 0.05:
                continue  # too close to a pole for a fair numeric comparison
            rho = tooth_mode_eigenvalue(k, q, h, lam)
            assert rho == pytest.approx(rho_shooting(k, q, h, lam),
                                        rel=1e-5, abs=1e-5), (k, q, h, lam)
            checked += 1


class TestBranchStructure:
    def test_continuity_at_zero_coefficient(self):
        # The cot and coth branches both limit to 1/h as s -> 0.
        k, q, h = 1, 1, 0.7
        lam0 = FOUR_PI_SQ * (k * q) ** 2
        below = tooth_mode_eigenvalue(k, q, h, lam0 - 1e-8)
        above = tooth_mode_eigenvalue(k, q, h, lam0 + 1e-8)
        assert below == pytest.approx(1.0 / h, rel=1e-6)
        assert above == pytest.approx(1.0 / h, rel=1e-6)

    def test_strictly_decreasing_between_poles(self):
        # Sample pole-free lambda intervals constructively: omega*h confined
        # to one branch of cot, or any interval on the coth side.
        rng = np.random.default_rng(22)
        intervals = 0
        while intervals < 100:
            k = int(rng.integers(1, 4))
            q = int(rng.integers(1, 4))
            h = float(rng.uniform(0.3, 1.5))
            base = FOUR_PI_SQ * (k * q) ** 2
            if rng.random() < 0.3:
                # evanescent side: any interval below the cutoff is pole-free
                lo = base - float(rng.uniform(5.0, 400.0))
                hi = base - float(rng.uniform(0.5, 4.0))
                if hi <= lo:
                    continue
            else:
                branch = int(rng.integers(0, 4))
                wh_lo = (branch + 0.06) * math.pi
                wh_hi = (branch + 0.94) * math.pi
                lo = base + (wh_lo / h) ** 2
                hi = base + (wh_hi / h) ** 2
            lams = np.sort(rng.uniform(lo, hi, size=12))
            rhos = [tooth_mode_eigenvalue(k, q, h, float(l)) for l in lams]
            assert all(a > b for a, b in zip(rhos, rhos[1:])), (k, q, h, lo, hi)
            intervals += 1

    def test_supercutoff_modes_positive(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            q = int(rng.integers(1, 5))
            h = float(rng.uniform(0.2, 3.0))
            lam = float(rng.uniform(0.5, 900.0))
            k = mode_cutoff(lam / (q * q)) + 1 + int(rng.integers(0, 4))
            assert tooth_mode_eigenvalue(k, q, h, lam) > 0.0


class TestPoles:
    def test_pole_raises(self):
        # omega*h = pi exactly: lam = 4*pi^2 + pi^2 with h = 1.
        lam = FOUR_PI_SQ + math.pi ** 2
        with pytest.raises(DirichletPoleError):
            tooth_mode_eigenvalue(1, 1, 1.0, lam)

    def test_pole_propagates_through_count(self):
        lam = FOUR_PI_SQ + math.pi ** 2
        with pytest.raises(DirichletPoleError):
            count_nonpositive_tooth(1, 1.0, lam)


class TestNonpositiveCount:
    def test_frozen_counts(self):
        assert count_nonpositive_tooth(1, 1.0, 45.0) == 1
        assert count_nonpositive_tooth(1, 1.0, 100.0) == 0

    def test_matches_direct_scan(self):
        rng = np.random.default_rng(24)
        done = 0
        while done < 50:
            q = int(rng.integers(1, 4))
            h = float(rng.uniform(0.3, 2.0))
            lam = float(rng.uniform(10.0, 2000.0 * q * q))
            cutoff = mode_cutoff(lam / (q * q)) if lam > 0 else 0
            try:
                direct = sum(
                    1 for k in range(1, cutoff + 1)
                    if tooth_mode_eigenvalue(k, q, h, lam) <= 0.0)
            except DirichletPoleError:
                continue
            assert count_nonpositive_tooth(q, h, lam) == direct
            done += 1

    def test_zero_below_cutoff(self):
        assert count_nonpositive_tooth(3, 1.0, 0.0) == 0
        assert count_nonpositive_tooth(3, 1.0, -5.0) == 0
        assert count_nonpositive_tooth(1, 1.0, 30.0) == 0  # no propagating modes

    def test_bounded_by_cutoff(self):
        rng = np.random.default_rng(25)
        for _ in range(40):
            q = int(rng.integers(1, 5))
            h = float(rng.uniform(0.3, 2.0))
            mu = float(rng.uniform(50.0, 4000.0))
            lam = mu * q * q
            try:
                n = count_nonpositive_tooth(q, h, lam)
            except DirichletPoleError:
                continue
            assert 0 <= n <= mode_cutoff(mu)


class TestSquareMixedGap:
    def test_frozen_value(self):
        assert square_mixed_gap(100.0) == 7

    def test_nonnegative(self):
        rng = np.random.default_rng(26)
        for _ in range(40):
            assert square_mixed_gap(float(rng.uniform(-10.0, 3000.0))) >= 0

    def test_growth_like_sqrt(self):
        # The gap is a boundary term: ~ 2*sqrt(lambda)/pi + O(1).  This is
        # what makes the defect bound O(q) at lambda = mu*q^2.
        mu = 100.0
        for q in (1, 2, 4, 8, 16, 32):
            gap = square_mixed_gap(mu * q * q)
            assert gap <= 2.0 * math.sqrt(mu) * q


def test_argument_validation():
    with pytest.raises(ValueError):
        tooth_mode_eigenvalue(0, 1, 1.0, 50.0)
    with pytest.raises(ValueError):
        tooth_mode_eigenvalue(1, 0, 1.0, 50.0)
    with pytest.raises(ValueError):
        tooth_mode_eigenvalue(1, 1, -1.0, 50.0)
    with pytest.raises(ValueError):
        tooth_mode_eigenvalue(1, 1, 1.0, math.nan)
    with pytest.raises(ValueError):
        count_nonpositive_tooth(1, 1.0, math.inf)
    # h is checked once up front, even when no mode propagates.
    for lam in (-5.0, 30.0):
        with pytest.raises(ValueError):
            count_nonpositive_tooth(1, 0.0, lam)
