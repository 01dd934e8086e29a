"""Layered benchmark for combweyl.

    python3 perfbench/run.py --workload fd_sweep --seed 1 --seconds 20 --trace 0

Run from the repository root.  Workloads: fd_sweep, analytic_scan,
oracle_battery (see workloads.py and BENCHMARK.json for why each exists).

With --trace 0 the benchmark measures set-up several times in fresh
interpreters (setup_s is their median), then runs the workload's passes in
one worker process for about --seconds and reports the end-to-end metrics.
The pass times are in reference seconds: each pass is rescaled by a
calibration loop timed right before and after it (calib.py), because the
host's own speed swings by more than the bounds allow.  The unscaled
medians are printed on the line before the result.  setup_s is not
rescaled: import time hardly follows those swings.
With --trace 1 it runs a fixed number of passes untraced and then traced,
and reports the per-layer metrics summed over the traced calls.  Either way
every operation is checked against independent references outside timing.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The lines before it name every metric with
its unit and record the environment.  The exit code is 0 only when a result
was printed.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("fd_sweep", "analytic_scan", "oracle_battery")
SETUP_SAMPLES = 7
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    pass


def spawn(args: argparse.Namespace, out_dir: str, deadline: float, probe: bool) -> dict:
    """Start worker.py in a fresh interpreter and return its JSON result."""
    started = time.monotonic()
    cmd = [sys.executable, WORKER, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--started", repr(started),
           "--out-dir", out_dir] + (["--probe"] if probe else [])
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired:
        raise BenchError("worker did not finish before the deadline")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def source_identity() -> dict:
    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        res = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             text=True, timeout=30)
        sha = res.stdout.strip() or None
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "combweyl", "*.py"))):
        with open(path, "rb") as f:
            h.update(f.read())
    return {"git_sha": sha, "src_sha256": h.hexdigest()[:16]}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S
    if not os.path.isfile(os.path.join(ROOT, "src", "combweyl", "__init__.py")):
        print(f"no combweyl sources under {ROOT}/src", file=sys.stderr)
        return 2
    out_dir = os.path.join(ROOT, ".perfbench_tmp", str(os.getpid()))
    os.makedirs(out_dir, exist_ok=True)
    try:
        probes = [spawn(args, out_dir, deadline, probe=True) for _ in range(SETUP_SAMPLES)]
        res = spawn(args, out_dir, deadline, probe=False)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(out_dir))
        except OSError:
            pass

    metrics = dict(res["metrics"])
    if args.trace:
        metrics["cli.import_s"] = (statistics.median(p["import_s"] for p in probes), "s")
    else:
        metrics["setup_s"] = (statistics.median(p["setup_s"] for p in probes), "s")
    env = dict(res["env"], **source_identity())
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}: {res['passes']} passes, {res['attempted']} operations")
    print("env " + json.dumps(env, sort_keys=True))
    print(f"digest {res['digest']}")
    print("failure kinds " + json.dumps(res["fail_kinds"], sort_keys=True))
    for problem in res["problems"]:
        print(f"PROBLEM {problem}")
    for name in sorted(metrics):
        value, unit = metrics[name]
        print(f"{name} = {value!r} {unit}")
    if not args.trace:
        print("unscaled (host seconds) " + json.dumps(res["unscaled"], sort_keys=True))
    print(json.dumps({
        "correct": not res["problems"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
