"""Regenerate the golden CLI fixtures in this directory.

From the repository root:

    PYTHONPATH=src python tests/golden/regen.py

Every case runs combweyl.cli.main(argv) in process, as tests/test_golden.py
does, and records its exit code, stdout and stderr.  cli.json holds the
argument-list cases; sweep.csv and sweep.json hold the acceptance sweep's
report files with the timing column masked.  A change that alters a
fixture reruns this script and names each changed line.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import re
import sys
import tempfile

GOLDEN_DIR = os.path.dirname(os.path.abspath(__file__))

# lambda = 41.37...: an eigenvalue of the 3 x 3 square block at q = 1, s = 2.
SQUARE_BLOCK_TIE = "41.372583002030474"

COUNT_COMB = [
    ["--q", "1", "--mu", "100", "--h", "1", "--refine", "0"],       # s = 1: degenerate
    ["--q", "3", "--mu", "100", "--h", "0.01", "--refine", "2"],    # h snaps to 0 rows
    ["--q", "1", "--mu", "100", "--h", "1", "--refine", "1"],
    ["--q", "2", "--mu", "100", "--h", "1", "--refine", "2"],
    ["--q", "3", "--mu", "100", "--h", "1", "--refine", "4"],
    ["--q", "2", "--mu", "250", "--h", "0.75", "--refine", "3"],
    ["--q", "1", "--mu", "0", "--h", "1", "--refine", "2"],
    ["--q", "1", "--mu", SQUARE_BLOCK_TIE, "--h", "1", "--refine", "1"],
    # theta on a square-block eigenvalue, no comb eigenvalue within 1e-2
    ["--q", "2", "--mu", "46.68172474863997", "--h", "1", "--refine", "1"],
    # theta within 2e-16 relative of a comb eigenvalue: no count is certified
    ["--q", "1", "--mu", "41.37258296065789", "--h", "1", "--refine", "1"],
    # theta = 4/delta^2 breaks every square mode at its last pivot
    ["--q", "16", "--mu", "4095.9999959039997", "--h", "1", "--refine", "4"],
    ["--q", "1", "--mu", "nan", "--h", "1", "--refine", "2"],
    ["--q", "1", "--mu", "inf", "--h", "1", "--refine", "2"],
    ["--q", "1", "--mu=-inf", "--h", "1", "--refine", "2"],
    ["--q", "64", "--mu", "100", "--h", "1", "--refine", "6"],      # q*s > MAX_QS
    ["--q", "1", "--mu", "100", "--h", "0", "--refine", "2"],
    ["--q", "1", "--mu", "100", "--h", "-1", "--refine", "2"],
    ["--q", "1", "--mu", "100", "--h", "nan", "--refine", "2"],
    ["--q", "0", "--mu", "100", "--h", "1", "--refine", "2"],
    ["--q", "1", "--mu", "100", "--h", "1", "--refine", "-1"],
    ["--q", "x", "--mu", "100", "--h", "1", "--refine", "2"],
    ["--q", "1", "--mu", "100", "--refine", "2"],                   # --h missing
]

CASES = ([["count", "comb", *args] for args in COUNT_COMB] + [
    ["constants", "--mu", "100", "--h", "1"],
    ["constants", "--mu", "1000", "--h", "1"],
    ["constants", "--mu", "0", "--h", "1"],
    ["constants", "--mu", "100", "--h", "nan"],
    ["count", "rect", "--a", "1", "--b", "1", "--lambda", "100"],
    ["count", "rect", "--a", "1", "--b", "2.5", "--lambda", "1000", "--neumann"],
    ["count", "rect", "--a", "-1", "--b", "1", "--lambda", "10"],
    ["count", "rect", "--a", "1", "--b", "inf", "--lambda", "10"],
    ["count", "rect", "--a", "1", "--b", "1", "--lambda", "nan"],
    ["dtn", "--q", "1", "--h", "1", "--lambda", "45"],
    ["dtn", "--q", "3", "--h", "1", "--lambda", "900"],
    ["dtn", "--q", "2", "--h", "0.7", "--lambda", "800", "--k", "1"],
    ["dtn", "--q", "1", "--h", "0", "--lambda", "45"],
    ["dtn", "--q", "1", "--h", "1", "--lambda", "inf"],
    ["dtn", "--q", "1", "--h", "1", "--lambda", "nan", "--k", "1"],
    ["selftest"],
])

SWEEP_CONFIG = {"mu_list": [100.0], "h": 1.0, "q_list": [2, 3, 4, 5, 6],
                "s_list": [15, 30]}


def call(argv: list[str]) -> int:
    """cli.main(argv), with an argparse exit turned into its exit code."""
    from combweyl.cli import main

    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def record(argv: list[str], code: int, out: str, err: str) -> dict:
    """One fixture entry; output is stored line by line so that diffs name lines."""
    return {"argv": argv, "code": code,
            "stdout": out.split("\n"), "stderr": err.split("\n")}


def mask_csv(text: str) -> str:
    """The report CSV with every wall_time_s cell replaced by '*'."""
    rows = list(csv.reader(io.StringIO(text)))
    col = rows[0].index("wall_time_s")
    for row in rows[1:]:
        row[col] = "*"
    return "".join(",".join(row) + "\n" for row in rows)


def mask_json(text: str) -> str:
    """The report JSON with every wall_time_s value replaced by '*'."""
    return re.sub(r'("wall_time_s": )[^,\n]+', r'\1"*"', text)


def sweep_files(workdir: str, out: str) -> dict[str, str]:
    """The masked report files and stdout of the sweep just run into workdir."""
    base = os.path.join(workdir, "report")
    with open(base + ".csv", encoding="utf-8") as f:
        csv_text = mask_csv(f.read())
    with open(base + ".json", encoding="utf-8") as f:
        json_text = mask_json(f.read())
    return {"sweep.csv": csv_text, "sweep.json": json_text,
            "stdout": out.replace(base, "<out>")}


def sweep_argv(workdir: str) -> list[str]:
    """Write the acceptance sweep's config into workdir; the argv that runs it."""
    config = os.path.join(workdir, "config.json")
    with open(config, "w", encoding="utf-8") as f:
        json.dump(SWEEP_CONFIG, f)
    return ["sweep", "--config", config, "--out", os.path.join(workdir, "report")]


def regenerate() -> None:
    results = []
    for argv in CASES:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = call(argv)
        results.append(record(argv, code, out.getvalue(), err.getvalue()))
    with tempfile.TemporaryDirectory() as workdir:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = call(sweep_argv(workdir))
        files = sweep_files(workdir, out.getvalue())
    results.append(record(["sweep"], code, files.pop("stdout"), ""))
    for name, text in files.items():
        with open(os.path.join(GOLDEN_DIR, name), "w", encoding="utf-8") as f:
            f.write(text)
    with open(os.path.join(GOLDEN_DIR, "cli.json"), "w", encoding="utf-8") as f:
        f.write(json.dumps(results, indent=1) + "\n")


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(GOLDEN_DIR)), "src"))
    regenerate()
