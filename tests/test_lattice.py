"""Tests for exact lattice eigenvalue counting on rectangles and teeth."""

import math

import numpy as np
import pytest

from combweyl import DomainSpec, lattice
from combweyl.lattice import (TIE_TOL, RectSpec, SpectralCount, UNIT_SQUARE,
                              count_rect_dirichlet, count_rect_neumann,
                              count_tooth, enumerate_rect_eigs, tie_threshold)
from helpers import loop_rect_dirichlet, loop_rect_neumann, loop_tooth

PI_SQ = math.pi ** 2


class TestRectSpec:
    def test_rejects_bad_sides(self):
        for a, b in ((0.0, 1.0), (1.0, -2.0), (math.inf, 1.0), (1.0, math.nan)):
            with pytest.raises(ValueError):
                RectSpec(a, b)


class TestSpectralCount:
    def test_rejects_negative_count(self):
        with pytest.raises(ValueError):
            SpectralCount(1.0, -1, "lattice", 1e-9)


class TestSquareCounts:
    def test_frozen_dirichlet_values(self):
        assert count_rect_dirichlet(UNIT_SQUARE, 100.0).count == 6
        assert count_rect_dirichlet(UNIT_SQUARE, 2.0 * PI_SQ).count == 1
        assert count_rect_dirichlet(UNIT_SQUARE, 19.0).count == 0

    def test_frozen_neumann_value(self):
        assert count_rect_neumann(UNIT_SQUARE, 100.0).count == 13

    def test_neumann_zero_mode(self):
        # (0, 0) gives eigenvalue 0, so the count at lambda = 0 is 1.
        assert count_rect_neumann(UNIT_SQUARE, 0.0).count == 1
        assert count_rect_neumann(UNIT_SQUARE, -1.0).count == 0

    def test_tie_at_degenerate_eigenvalue(self):
        # 5*pi^2 carries the (1,2)/(2,1) pair; the tie fuzz keeps both.
        assert count_rect_dirichlet(UNIT_SQUARE, 5.0 * PI_SQ).count == 3

    def test_below_first_eigenvalue(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            rect = RectSpec(float(rng.uniform(0.2, 3.0)),
                            float(rng.uniform(0.2, 3.0)))
            first = PI_SQ * (1.0 / rect.a ** 2 + 1.0 / rect.b ** 2)
            assert count_rect_dirichlet(rect, 0.999 * first).count == 0
            assert count_rect_dirichlet(rect, -5.0).count == 0

    def test_monotone_in_lambda(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            rect = RectSpec(float(rng.uniform(0.3, 2.5)),
                            float(rng.uniform(0.3, 2.5)))
            lams = np.sort(rng.uniform(-10.0, 500.0, size=25))
            counts = [count_rect_dirichlet(rect, float(l)).count for l in lams]
            assert counts == sorted(counts)
            neu = [count_rect_neumann(rect, float(l)).count for l in lams]
            assert neu == sorted(neu)

    def test_neumann_dominates_dirichlet(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            rect = RectSpec(float(rng.uniform(0.3, 2.5)),
                            float(rng.uniform(0.3, 2.5)))
            lam = float(rng.uniform(0.0, 500.0))
            assert (count_rect_neumann(rect, lam).count
                    >= count_rect_dirichlet(rect, lam).count)


class TestEnumerationOracle:
    def test_small_exact_values(self):
        eigs = enumerate_rect_eigs(UNIT_SQUARE, 50.0)
        expect = [2.0 * PI_SQ, 5.0 * PI_SQ, 5.0 * PI_SQ]
        assert len(eigs) == 3
        for got, want in zip(eigs, expect):
            assert got == pytest.approx(want, rel=1e-15)

    def test_matches_closed_form_counts(self):
        rng = np.random.default_rng(14)
        for _ in range(60):
            rect = RectSpec(float(rng.uniform(0.2, 3.0)),
                            float(rng.uniform(0.2, 3.0)))
            lam = float(rng.uniform(-20.0, 600.0))
            assert (len(enumerate_rect_eigs(rect, lam))
                    == count_rect_dirichlet(rect, lam).count)

    def test_all_values_below_fuzzed_threshold(self):
        eigs = enumerate_rect_eigs(RectSpec(1.3, 0.7), 300.0)
        assert eigs == sorted(eigs)
        assert all(v <= tie_threshold(300.0) for v in eigs)

    def test_guard_on_huge_enumerations(self):
        with pytest.raises(ValueError):
            enumerate_rect_eigs(UNIT_SQUARE, 1.0e5, max_count=100)

    def test_nonpositive_lambda_empty(self):
        assert enumerate_rect_eigs(UNIT_SQUARE, 0.0) == []
        assert enumerate_rect_eigs(UNIT_SQUARE, -3.0) == []


class TestToothCount:
    def test_frozen_value(self):
        assert count_tooth(DomainSpec(2, 1.0), 400.0).count == 4

    def test_below_first_tooth_eigenvalue(self):
        spec = DomainSpec(2, 1.0)
        first = 4.0 * PI_SQ * 4.0 + PI_SQ  # l = k = 1
        assert count_tooth(spec, 0.999 * first).count == 0
        assert count_tooth(spec, -1.0).count == 0

    def test_exact_floor_boundary(self):
        # mu - 4*pi^2 evaluates to exactly 9.0 here, so the k = 3 mode sits
        # exactly on the threshold and the floor guard must keep it.
        spec = DomainSpec(1, math.pi)
        lam = 4.0 * PI_SQ + 9.0
        assert count_tooth(spec, lam).count == 3

    def test_equals_rectangle_count(self):
        # A tooth is a (1/(2q)) x h rectangle; counts must agree.
        rng = np.random.default_rng(15)
        for _ in range(100):
            q = int(rng.integers(1, 7))
            h = float(rng.uniform(0.3, 2.5))
            lam = float(rng.uniform(0.0, 400.0 * q * q))
            tooth = count_tooth(DomainSpec(q, h), lam).count
            rect = count_rect_dirichlet(RectSpec(1.0 / (2.0 * q), h), lam).count
            assert tooth == rect, (q, h, lam)

    def test_monotone_in_lambda(self):
        spec = DomainSpec(3, 0.8)
        lams = np.linspace(0.0, 3000.0, 80)
        counts = [count_tooth(spec, float(l)).count for l in lams]
        assert counts == sorted(counts)


class TestColumnLoopEquivalence:
    """The numpy column counts equal a scalar column loop, count for count."""

    @staticmethod
    def check_rect(a, b, lam):
        rect = RectSpec(a, b)
        assert count_rect_dirichlet(rect, lam).count == loop_rect_dirichlet(a, b, lam)
        assert count_rect_neumann(rect, lam).count == loop_rect_neumann(a, b, lam)
        if lam >= 0.0:
            # The top column lies strictly past the Neumann cut (so also
            # past the Dirichlet one): no column the loop accepts is missing.
            lam_eff = tie_threshold(lam)
            top = lattice._columns(0, a, lam_eff)[-1]
            assert lam_eff - PI_SQ * top * top / (a * a) < 0.0, (a, lam)

    def test_random_rectangles(self):
        rng = np.random.default_rng(16)
        for i in range(300):
            a, b = ((1.0, 1.0) if i % 3 == 0
                    else (float(x) for x in rng.uniform(0.05, 3.0, 2)))
            lam = float(np.exp(rng.uniform(0.0, math.log(9e7))))
            self.check_rect(a, b, lam)

    def test_exact_square_ties(self):
        for i in range(40):
            for j in range(40):
                self.check_rect(1.0, 1.0, PI_SQ * (i * i + j * j))

    def test_column_boundary_ties(self):
        # lam_eff lands on pi^2*k^2/a^2, where a column's remainder is zero
        # up to rounding: the Neumann (k, 0) mode and the column margin meet.
        rng = np.random.default_rng(17)
        for i in range(200):
            a = 1.0 if i % 3 == 0 else float(rng.uniform(0.05, 3.0))
            k = int(rng.integers(1, 1000))
            lam = PI_SQ * k * k / (a * a)
            for x in (lam, lam / (1.0 + TIE_TOL)):
                self.check_rect(a, float(rng.uniform(0.05, 3.0)), x)
                self.check_rect(a, 1.0, float(np.nextafter(x, math.inf)))
                self.check_rect(a, 1.0, float(np.nextafter(x, 0.0)))

    def test_nonpositive_lambda(self):
        for lam in (0.0, -0.0, -1e-300, -5.0, -1e8):
            self.check_rect(1.0, 1.0, lam)
            assert count_tooth(DomainSpec(2, 1.0), lam).count == loop_tooth(2, 1.0, lam)

    def test_teeth(self):
        rng = np.random.default_rng(18)
        for i in range(400):
            q = int(rng.integers(1, 7))
            h = float(rng.uniform(0.05, 4.0))
            if i % 4 == 0:
                # A tooth cross-mode cutoff: mu - 4*pi^2*l^2 is zero up to rounding.
                lam = 4.0 * PI_SQ * float(rng.integers(1, 600)) ** 2 * q * q
            else:
                lam = float(np.exp(rng.uniform(0.0, math.log(9e7))))
            assert count_tooth(DomainSpec(q, h), lam).count == loop_tooth(q, h, lam)
            top = lattice._columns(1, 1.0 / (2.0 * q), lam)[-1]
            assert lam / (q * q) - 4.0 * PI_SQ * top * top <= 0.0, (q, lam)


def test_lambda_validation():
    for fn in (lambda l: count_rect_dirichlet(UNIT_SQUARE, l),
               lambda l: count_rect_neumann(UNIT_SQUARE, l),
               lambda l: count_tooth(DomainSpec(1, 1.0), l),
               lambda l: enumerate_rect_eigs(UNIT_SQUARE, l)):
        with pytest.raises(ValueError):
            fn(math.nan)
        with pytest.raises(ValueError):
            fn(math.inf)
