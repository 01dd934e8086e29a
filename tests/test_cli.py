"""End-to-end tests of the command-line interface and its exit codes."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import combweyl
from combweyl import analytic, dtn
from combweyl.asymptotics import fmt17
from combweyl.cli import main


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_kv(out):
    pairs = {}
    for line in out.splitlines():
        key, _, value = line.partition(" = ")
        pairs[key] = value
    return pairs


def test_import_skips_quadrature_modules():
    # The closed forms need no quadrature or special functions, and only the
    # FD counters need SciPy, whose import would dominate start-up.  One fresh
    # interpreter imports combweyl, runs the analytic commands, then comb
    # counts on the Schur route (LAPACK only, no sparse assembly), one of
    # them with theta on a square-block eigenvalue, and last the selftest,
    # whose oracles do assemble the grid.
    src = os.path.dirname(os.path.dirname(os.path.abspath(combweyl.__file__)))
    code = """
import contextlib, io, json, sys
import combweyl
from combweyl.cli import main

def loaded(prefix):
    return sorted(m for m in sys.modules if m == prefix or m.startswith(prefix + "."))

seen = {"import": loaded("scipy")}
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(["constants", "--mu", "100", "--h", "1"]),
             main(["count", "rect", "--a", "1", "--b", "1", "--lambda", "1e4"]),
             main(["dtn", "--q", "3", "--h", "1", "--lambda", "900"])]
    seen["analytic commands"] = loaded("scipy")
    codes.append(main(["count", "comb", "--q", "3", "--h", "1", "--mu", "100",
                       "--refine", "4"]))
    codes.append(main(["count", "comb", "--q", "2", "--h", "1",
                       "--mu", "46.68172474863997", "--refine", "1"]))
    seen["count comb"] = loaded("scipy.sparse")
    codes.append(main(["selftest"]))
seen["selftest"] = "scipy.sparse" in sys.modules
print(json.dumps({"codes": codes, "seen": seen}))
"""
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    assert json.loads(out) == {
        "codes": [0, 0, 0, 0, 0, 0],
        "seen": {"import": [], "analytic commands": [], "count comb": [],
                 "selftest": True}}


class TestConstants:
    def test_below_first_cutoff(self, capsys):
        code, out, err = run(capsys, ["constants", "--mu", "16", "--h", "1"])
        assert code == 0 and err == ""
        kv = parse_kv(out)
        assert kv["mu"] == "16"
        assert kv["cutoff_m"] == "0"
        assert kv["delta"] == "0"
        assert float(kv["c"]) == analytic.theorem_constant(16.0, 1.0)
        assert float(kv["c"]) == float(kv["c_weyl"])
        assert "em_endpoint" not in kv

    def test_propagating_modes_include_em_split(self, capsys):
        code, out, err = run(capsys, ["constants", "--mu", "100", "--h", "1"])
        assert code == 0
        kv = parse_kv(out)
        assert kv["cutoff_m"] == "1"
        assert kv["c"] == fmt17(analytic.theorem_constant(100.0, 1.0))
        assert kv["c_weyl"] == fmt17(analytic.weyl_constant(100.0, 1.0))
        rep = analytic.em_decomposition(100.0, 1.0)
        assert kv["delta"] == fmt17(rep.delta)
        assert kv["em_endpoint"] == fmt17(rep.em_terms.endpoint)
        assert kv["em_tail"] == fmt17(rep.em_terms.tail)
        assert kv["em_periodic"] == fmt17(rep.em_terms.periodic)
        assert kv["em_delta"] == fmt17(rep.em_delta)

    def test_invalid_domain_is_computation_error(self, capsys):
        code, out, err = run(capsys, ["constants", "--mu", "-5", "--h", "1"])
        assert code == 1
        assert err.startswith("error:")


class TestCount:
    def test_rect_dirichlet(self, capsys):
        code, out, _ = run(capsys, ["count", "rect", "--a", "1", "--b", "1",
                                    "--lambda", "100"])
        assert code == 0
        assert out.strip() == "6"

    def test_rect_neumann(self, capsys):
        code, out, _ = run(capsys, ["count", "rect", "--a", "1", "--b", "1",
                                    "--lambda", "100", "--neumann"])
        assert code == 0
        assert out.strip() == "13"

    def test_comb_refine_one(self, capsys):
        code, out, err = run(capsys, ["count", "comb", "--q", "1", "--mu", "100",
                                      "--h", "1", "--refine", "1"])
        assert code == 0 and err == ""
        assert out.strip() == "12"

    def test_comb_refine_zero_warns_degenerate(self, capsys):
        code, out, err = run(capsys, ["count", "comb", "--q", "1", "--mu", "100",
                                      "--h", "1", "--refine", "0"])
        assert code == 0
        assert out.strip() == "1"
        assert "degenerate" in err

    def test_rect_bad_side_is_computation_error(self, capsys):
        code, _, err = run(capsys, ["count", "rect", "--a", "-1", "--b", "1",
                                    "--lambda", "100"])
        assert code == 1
        assert err.startswith("error:")


class TestDtn:
    def test_single_mode(self, capsys):
        code, out, _ = run(capsys, ["dtn", "--q", "1", "--h", "1",
                                    "--lambda", "100", "--k", "1"])
        assert code == 0
        want = dtn.tooth_mode_eigenvalue(1, 1, 1.0, 100.0)
        assert out.strip() == f"k = 1 rho = {fmt17(want)}"

    def test_all_modes_with_count(self, capsys):
        code, out, _ = run(capsys, ["dtn", "--q", "1", "--h", "1",
                                    "--lambda", "100"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("k = 1 rho = ")
        assert lines[-1] == "count_nonpositive = 0"
        assert len(lines) == 2

    def test_pole_prints_for_single_mode(self, capsys):
        lam = repr(5.0 * math.pi ** 2)
        code, out, _ = run(capsys, ["dtn", "--q", "1", "--h", "1",
                                    "--lambda", lam, "--k", "1"])
        assert code == 0
        assert out.strip() == "k = 1 rho = pole"

    def test_pole_fails_count(self, capsys):
        lam = repr(5.0 * math.pi ** 2)
        code, _, err = run(capsys, ["dtn", "--q", "1", "--h", "1",
                                    "--lambda", lam])
        assert code == 1
        assert err.startswith("error:")


class TestSweep:
    def write_config(self, tmp_path, body=None):
        body = body if body is not None else {
            "mu_list": [100.0], "h": 1.0, "q_list": [1, 2, 3], "s_list": [2]}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(body), encoding="utf-8")
        return str(path)

    def test_end_to_end(self, capsys, tmp_path):
        cfg = self.write_config(tmp_path)
        out_base = str(tmp_path / "report")
        code, out, err = run(capsys, ["sweep", "--config", cfg, "--out", out_base])
        assert code == 0, err
        assert f"wrote {out_base}.csv" in out
        assert f"wrote {out_base}.json" in out
        assert "records = 3, failed = 0" in out

        lines = open(out_base + ".csv", encoding="utf-8").read().splitlines()
        assert lines[0] == ("mu,h,q,s,lambda,n_fd,n_square,n_teeth,defect,"
                            "h_snapped,wall_time_s,error")
        assert len(lines) == 4

        doc = json.loads(open(out_base + ".json", encoding="utf-8").read())
        assert doc["config"]["q_list"] == [1, 2, 3]
        assert doc["constants"]["100"]["c"] == pytest.approx(
            analytic.theorem_constant(100.0, 1.0), rel=1e-16, abs=0.0)
        assert "100" in doc["fits"]
        assert doc["fits"]["100"]["c_hat"] == pytest.approx(
            doc["records"][-1]["n_fd"] / 9.0, rel=0.5)

    def test_bad_configs_exit_2_without_partial_files(self, capsys, tmp_path):
        out_base = str(tmp_path / "report")
        bodies = [
            None,  # missing file handled below
            "not json",
            json.dumps([1, 2, 3]),
            json.dumps({"mu_list": [100.0], "h": 1.0, "q_list": [1],
                        "s_list": [2], "bogus": 1}),
            json.dumps({"mu_list": [100.0], "h": 1.0, "q_list": [1]}),
            json.dumps({"mu_list": [], "h": 1.0, "q_list": [1], "s_list": [2]}),
            json.dumps({"mu_list": [-5.0], "h": 1.0, "q_list": [1],
                        "s_list": [2]}),
            json.dumps({"mu_list": [100.0], "h": 1.0, "q_list": [1],
                        "s_list": "2"}),
        ]
        for i, body in enumerate(bodies):
            if body is None:
                cfg = str(tmp_path / "missing.json")
            else:
                cfg = str(tmp_path / f"config{i}.json")
                open(cfg, "w", encoding="utf-8").write(body)
            code, _, err = run(capsys, ["sweep", "--config", cfg,
                                        "--out", out_base])
            assert code == 2, body
            assert err.startswith("config error:"), body
        assert not os.path.exists(out_base + ".csv")
        assert not os.path.exists(out_base + ".json")


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        [],
        ["bogus"],
        ["count"],
        ["count", "rect", "--a", "1", "--b", "1"],
        ["count", "comb", "--q", "1", "--mu", "100", "--h", "1",
         "--refine", "-1"],
        ["dtn", "--q", "0", "--h", "1", "--lambda", "100"],
    ])
    def test_argparse_rejects(self, argv):
        with pytest.raises(SystemExit) as exc_info:
            main(argv)
        assert exc_info.value.code == 2


class TestSelftest:
    def test_battery_passes(self, capsys):
        code, out, _ = run(capsys, ["selftest"])
        assert code == 0, out
        lines = out.splitlines()
        assert sum(1 for line in lines if line.startswith("PASS ")) == 10
        assert not any(line.startswith("FAIL ") for line in lines)
        assert lines[-1] == "all 10 selftest checks passed"

    def test_oracle_failure_exits_1(self, capsys, monkeypatch):
        def no_convergence(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", no_convergence)
        code, _, err = run(capsys, ["selftest"])
        assert code == 1
        assert err.startswith("error: dense eigensolver failed")
        assert "Traceback" not in err
