"""Tests for the sweep harness: configs, records, fits, and report files."""

import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import combweyl
from combweyl.asymptotics import (CSV_HEADER, ExperimentConfig, FitResult,
                                  SweepRecord, defect_series, fit_constant,
                                  fmt17, run_sweep, write_report)
from combweyl.dtn import count_nonpositive_tooth, square_mixed_gap
from combweyl.fdlap import FactorizationError
from combweyl.lattice import UNIT_SQUARE, count_rect_dirichlet, count_tooth
from combweyl.analytic import DomainSpec, constant_report
from helpers import exact_quadratic_fit


def _mk_record(q, n_fd, mu=100.0, h=1.0, s=4, error=None):
    lam = mu * q * q
    n_square = count_rect_dirichlet(UNIT_SQUARE, lam).count
    n_teeth = q * count_tooth(DomainSpec(q, h), lam).count
    if error is not None:
        return SweepRecord(mu=mu, h=h, q=q, s=s, lam=lam, n_fd=None,
                           n_square=n_square, n_teeth=n_teeth, defect=None,
                           h_snapped=None, wall_time_s=0.0, error=error)
    return SweepRecord(mu=mu, h=h, q=q, s=s, lam=lam, n_fd=n_fd,
                       n_square=n_square, n_teeth=n_teeth,
                       defect=n_fd - n_square - n_teeth, h_snapped=h,
                       wall_time_s=0.0, error=None)


class TestExperimentConfig:
    def test_normalization(self):
        cfg = ExperimentConfig(mu_list=(100, 50.0, 100.0), h=1,
                               q_list=(3, 1, 3), s_list=(4, 2, 4, 2))
        assert cfg.mu_list == (50.0, 100.0)
        assert isinstance(cfg.mu_list[0], float)
        assert cfg.h == 1.0 and isinstance(cfg.h, float)
        assert cfg.q_list == (1, 3)
        assert cfg.s_list == (2, 4)
        assert cfg.out_path == ""

    def test_empty_lists_allowed(self):
        cfg = ExperimentConfig(mu_list=(), h=1.0, q_list=(), s_list=())
        assert cfg.mu_list == () and cfg.q_list == () and cfg.s_list == ()

    @pytest.mark.parametrize("bad,msg", [
        ((-1.0,), "mu_list[0]"), ((float("nan"),), "mu_list[0]"),
        ((100.0, 0.0), "mu_list[1]"), ((True,), "mu_list[0]"),
    ])
    def test_bad_mu(self, bad, msg):
        with pytest.raises(ValueError, match=r"mu_list\[\d\]"):
            ExperimentConfig(mu_list=bad, h=1.0, q_list=(1,), s_list=(2,))

    def test_bad_h(self):
        for h in (0.0, -1.0, float("inf"), "1"):
            with pytest.raises(ValueError, match="h must"):
                ExperimentConfig(mu_list=(100.0,), h=h, q_list=(1,), s_list=(2,))

    def test_bad_q_and_s(self):
        with pytest.raises(ValueError, match=r"q_list\[1\]"):
            ExperimentConfig(mu_list=(100.0,), h=1.0, q_list=(1, 0), s_list=(2,))
        with pytest.raises(ValueError, match=r"s_list\[0\]"):
            ExperimentConfig(mu_list=(100.0,), h=1.0, q_list=(1,), s_list=(2.0,))

    def test_bad_out_path(self):
        with pytest.raises(ValueError, match="out_path"):
            ExperimentConfig(mu_list=(100.0,), h=1.0, q_list=(1,), s_list=(2,),
                             out_path=7)

    def test_grid_guard(self):
        with pytest.raises(ValueError, match="guard"):
            ExperimentConfig(mu_list=(100.0,), h=1.0, q_list=(64,), s_list=(33,))


class TestRunSweep:
    def test_basic_records(self):
        cfg = ExperimentConfig(mu_list=(100.0,), h=1.0, q_list=(2,), s_list=(4, 2))
        records = run_sweep(cfg)
        assert [(r.q, r.s) for r in records] == [(2, 2), (2, 4)]
        for r in records:
            assert r.mu == 100.0 and r.h == 1.0 and r.lam == 400.0
            assert r.error is None
            assert r.n_square == count_rect_dirichlet(UNIT_SQUARE, 400.0).count
            assert r.n_teeth == 2 * count_tooth(DomainSpec(2, 1.0), 400.0).count
            assert r.defect == r.n_fd - r.n_square - r.n_teeth
            assert r.h_snapped == 1.0
            assert r.wall_time_s >= 0.0

    def test_empty_config(self):
        cfg = ExperimentConfig(mu_list=(100.0,), h=1.0, q_list=(), s_list=(2,))
        assert run_sweep(cfg) == []

    def test_counts_stabilize_with_refinement(self):
        # Coarse grids overcount; the FD count falls monotonically toward
        # the continuum value as s doubles.
        cfg = ExperimentConfig(mu_list=(100.0,), h=1.0, q_list=(2,),
                               s_list=(2, 4, 8))
        counts = [r.n_fd for r in run_sweep(cfg)]
        assert counts == [59, 39, 38]

    def test_deterministic_modulo_wall_time(self):
        cfg = ExperimentConfig(mu_list=(100.0,), h=1.0, q_list=(1, 2),
                               s_list=(2, 3))
        strip = lambda rs: [dataclasses.replace(r, wall_time_s=0.0) for r in rs]
        first = strip(run_sweep(cfg))
        second = strip(run_sweep(cfg))
        assert first == second

    def test_lapack_loaded_before_first_record(self):
        # In a fresh interpreter, the one-off LAPACK import must not fall inside
        # the first record's wall_time_s.
        code = """
import json, sys
from combweyl import asymptotics
seen, sweep_one = [], asymptotics._sweep_one
def probe(*args):
    seen.append("scipy.linalg.lapack" in sys.modules)
    return sweep_one(*args)
asymptotics._sweep_one = probe
asymptotics.run_sweep(asymptotics.ExperimentConfig((100.0,), 1.0, (2, 3), (3,)))
print(json.dumps(seen))
"""
        src = os.path.dirname(os.path.dirname(os.path.abspath(combweyl.__file__)))
        out = subprocess.run([sys.executable, "-c", code],
                             env=dict(os.environ, PYTHONPATH=src), check=True,
                             capture_output=True, text=True, timeout=120).stdout
        assert json.loads(out) == [True, True]

    def test_fd_failure_is_recorded_not_raised(self, monkeypatch):
        import combweyl.asymptotics as mod

        real = mod.comb_inertia_count

        def flaky(spec, s, lam):
            if lam == 900.0:
                raise FactorizationError("synthetic pivot breakdown")
            return real(spec, s, lam)

        monkeypatch.setattr(mod, "comb_inertia_count", flaky)
        cfg = ExperimentConfig(mu_list=(100.0,), h=1.0, q_list=(1, 3),
                               s_list=(2,))
        records = run_sweep(cfg)
        ok = next(r for r in records if r.q == 1)
        bad = next(r for r in records if r.q == 3)
        assert ok.error is None and ok.n_fd is not None
        assert bad.error == "FactorizationError: synthetic pivot breakdown"
        assert bad.n_fd is None and bad.defect is None
        # Exact lattice counts are independent of the FD solve.
        assert bad.n_square == count_rect_dirichlet(UNIT_SQUARE, 900.0).count
        assert bad.n_teeth == 3 * count_tooth(DomainSpec(3, 1.0), 900.0).count


    def test_tie_with_many_broken_modes_is_recorded(self):
        # theta = 4/delta^2 at (q, s) = (16, 16) breaks every square mode and
        # is a comb eigenvalue: the record carries the error.
        cfg = ExperimentConfig((4095.9999959039997,), 1.0, (16,), (16,))
        (record,) = run_sweep(cfg)
        assert record.error.startswith("FactorizationError: theta = 1048576.0 ")
        assert record.n_fd is None and record.n_square is not None


class TestFitConstant:
    def test_exact_quadratic_model(self):
        records = [_mk_record(q, 10 * q * q + 3 * q) for q in (2, 3, 4, 5)]
        fit = fit_constant(records)
        assert fit.c_hat == pytest.approx(10.0, rel=1e-12)
        assert fit.beta_hat == pytest.approx(3.0, rel=1e-12)
        assert fit.residual_max < 1e-9
        assert fit.q_range == (2, 5)

    def test_matches_rational_normal_equations(self):
        # Data off the model by +1 leaves a nonzero residual; the lstsq
        # solution must match the exact Fraction solve of the same problem.
        qs = [2, 3, 4]
        counts = [10 * q * q + 3 * q + 1 for q in qs]
        fit = fit_constant([_mk_record(q, n) for q, n in zip(qs, counts)])
        c, beta = exact_quadratic_fit(qs, counts)
        assert fit.c_hat == pytest.approx(float(c), rel=1e-12)
        assert fit.beta_hat == pytest.approx(float(beta), rel=1e-12)
        resid = max(abs(n - float(c) * q * q - float(beta) * q)
                    for q, n in zip(qs, counts))
        assert fit.residual_max == pytest.approx(resid, rel=1e-9)

    def test_random_data_matches_rational_fit(self):
        rng = np.random.default_rng(51)
        for _ in range(10):
            qs = sorted(rng.choice(np.arange(2, 12), size=5, replace=False).tolist())
            counts = [int(10 * q * q + rng.integers(-2 * q, 2 * q + 1))
                      for q in qs]
            fit = fit_constant([_mk_record(int(q), n) for q, n in zip(qs, counts)])
            c, beta = exact_quadratic_fit([int(q) for q in qs], counts)
            assert fit.c_hat == pytest.approx(float(c), rel=1e-10)
            assert fit.beta_hat == pytest.approx(float(beta), rel=1e-10)

    def test_requires_three_distinct_q(self):
        records = [_mk_record(q, 10 * q * q) for q in (2, 3)]
        with pytest.raises(ValueError, match="3 distinct q"):
            fit_constant(records)

    def test_rejects_mixed_parameters(self):
        records = [_mk_record(2, 40, s=2), _mk_record(3, 90, s=4),
                   _mk_record(4, 160, s=2)]
        with pytest.raises(ValueError, match="mixed"):
            fit_constant(records)

    def test_excludes_errored_records(self):
        clean = [_mk_record(q, 10 * q * q + 3 * q) for q in (2, 3, 4)]
        noisy = clean + [_mk_record(5, None, error="FactorizationError: x")]
        fit = fit_constant(noisy)
        assert fit.c_hat == pytest.approx(10.0, rel=1e-12)
        assert fit.q_range == (2, 4)
        with pytest.raises(ValueError, match="error-free"):
            fit_constant([_mk_record(5, None, error="FactorizationError: x")])

    def test_fit_result_validation(self):
        with pytest.raises(ValueError):
            FitResult(c_hat=1.0, beta_hat=0.0, residual_max=-1.0, q_range=(2, 4))


class TestDefectSeries:
    def test_structure_and_bound(self):
        cfg = ExperimentConfig(mu_list=(100.0,), h=1.0, q_list=(1, 2),
                               s_list=(4,))
        records = run_sweep(cfg)
        series = defect_series(records)
        assert [q for q, _, _ in series] == [1, 2]
        for q, defect, bound in series:
            r = next(rec for rec in records if rec.q == q)
            assert defect == r.defect
            want = square_mixed_gap(r.lam) + q * count_nonpositive_tooth(q, 1.0, r.lam)
            assert bound == want

    def test_rejects_mixed_s(self):
        records = [_mk_record(2, 40, s=2), _mk_record(3, 90, s=4)]
        with pytest.raises(ValueError, match="mixed"):
            defect_series(records)

    def test_skips_errored(self):
        records = [_mk_record(2, 40), _mk_record(3, None, error="boom")]
        series = defect_series(records)
        assert [q for q, _, _ in series] == [2]


class TestFmt17:
    def test_round_trip(self):
        rng = np.random.default_rng(52)
        for _ in range(200):
            x = float(rng.normal()) * 10.0 ** int(rng.integers(-12, 13))
            assert float(fmt17(x)) == x

    def test_negative_zero_normalized(self):
        assert fmt17(-0.0) == fmt17(0.0)
        assert not fmt17(-0.0).startswith("-")

    def test_plain_values(self):
        assert fmt17(100.0) == "100"
        assert float(fmt17(0.1)) == 0.1


class TestWriteReport:
    def _small_report(self, tmp_path, records=None):
        cfg = ExperimentConfig(mu_list=(100.0,), h=1.0, q_list=(2, 3, 4),
                               s_list=(2,), out_path=str(tmp_path / "sweep"))
        if records is None:
            records = run_sweep(cfg)
        fits = {100.0: fit_constant(records)}
        constants = {100.0: constant_report(100.0, 1.0)}
        return cfg, records, fits, constants

    def test_files_and_schema(self, tmp_path):
        cfg, records, fits, constants = self._small_report(tmp_path)
        csv_path, json_path = write_report(cfg, records, fits, constants)
        assert csv_path.endswith("sweep.csv") and json_path.endswith("sweep.json")

        lines = open(csv_path, encoding="utf-8").read().splitlines()
        assert lines[0] == "mu,h,q,s,lambda,n_fd,n_square,n_teeth,defect," \
                           "h_snapped,wall_time_s,error"
        assert len(lines) == 1 + len(records)
        first = lines[1].split(",")
        assert float(first[0]) == 100.0
        assert int(first[2]) == 2 and int(first[3]) == 2
        assert float(first[4]) == 400.0
        assert int(first[5]) == records[0].n_fd

        doc = json.loads(open(json_path, encoding="utf-8").read())
        assert set(doc) == {"config", "records", "fits", "constants"}
        assert doc["config"]["mu_list"] == [100.0]
        assert len(doc["records"]) == len(records)
        assert doc["records"][0]["n_fd"] == records[0].n_fd
        assert doc["fits"]["100"]["c_hat"] == pytest.approx(fits[100.0].c_hat)
        assert doc["constants"]["100"]["c"] == pytest.approx(
            constants[100.0].c, rel=1e-15)
        assert doc["constants"]["100"]["cutoff_m"] == 1

    def test_idempotent_bytes(self, tmp_path):
        cfg, records, fits, constants = self._small_report(tmp_path)
        write_report(cfg, records, fits, constants)
        blob_csv = open(str(tmp_path / "sweep.csv"), "rb").read()
        blob_json = open(str(tmp_path / "sweep.json"), "rb").read()
        write_report(cfg, records, fits, constants)
        assert open(str(tmp_path / "sweep.csv"), "rb").read() == blob_csv
        assert open(str(tmp_path / "sweep.json"), "rb").read() == blob_json

    def test_errored_record_cells(self, tmp_path):
        records = [_mk_record(2, 40, s=2),
                   _mk_record(3, None, s=2, error="FactorizationError: x")]
        cfg = ExperimentConfig(mu_list=(100.0,), h=1.0, q_list=(2, 3),
                               s_list=(2,), out_path=str(tmp_path / "r"))
        csv_path, json_path = write_report(cfg, records, {}, {})
        lines = open(csv_path, encoding="utf-8").read().splitlines()
        bad = lines[2].split(",")
        assert bad[5] == "" and bad[8] == "" and bad[9] == ""
        assert bad[11] == "FactorizationError: x"
        doc = json.loads(open(json_path, encoding="utf-8").read())
        assert doc["records"][1]["n_fd"] is None
        assert doc["records"][1]["error"] == "FactorizationError: x"
        assert doc["fits"] == {} and doc["constants"] == {}

    def test_out_base_overrides_config(self, tmp_path):
        cfg, records, fits, constants = self._small_report(tmp_path)
        base = str(tmp_path / "other")
        csv_path, json_path = write_report(cfg, records, fits, constants,
                                           out_base=base)
        assert csv_path == base + ".csv" and json_path == base + ".json"

    def test_missing_base_raises(self, tmp_path):
        cfg = ExperimentConfig(mu_list=(100.0,), h=1.0, q_list=(2,), s_list=(2,))
        with pytest.raises(ValueError, match="output path"):
            write_report(cfg, [], {}, {})

    def test_unwritable_path_names_base(self, tmp_path):
        cfg, records, fits, constants = self._small_report(tmp_path)
        base = str(tmp_path / "no" / "such" / "dir" / "x")
        with pytest.raises(OSError, match="no/such"):
            write_report(cfg, records, fits, constants, out_base=base)

    def test_floats_round_trip_through_csv(self, tmp_path):
        cfg, records, fits, constants = self._small_report(tmp_path)
        csv_path, _ = write_report(cfg, records, fits, constants)
        lines = open(csv_path, encoding="utf-8").read().splitlines()[1:]
        for line, r in zip(lines, records):
            cells = line.split(",")
            assert float(cells[0]) == r.mu
            assert float(cells[1]) == r.h
            assert float(cells[4]) == r.lam
            assert float(cells[9]) == r.h_snapped
            assert float(cells[10]) == r.wall_time_s
