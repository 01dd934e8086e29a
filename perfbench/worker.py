"""One workload process: set up, run the timed passes, check, report JSON.

run.py starts this script in a fresh interpreter.  It prints one JSON object
as its last line of standard output.  With --probe it stops after set-up and
reports only the set-up time, which run.py samples several times.

Only the standard library is imported before combweyl, so the measured
import time is combweyl's with its dependencies.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from array import array
from time import perf_counter

from spans import Off, Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--started", type=float, required=True,
                    help="time.monotonic() when the parent started this process")
    ap.add_argument("--out-dir", required=True)
    ap.add_argument("--probe", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, SRC)
    t = perf_counter()
    import combweyl
    import_s = perf_counter() - t
    if not os.path.abspath(combweyl.__file__).startswith(SRC + os.sep):
        print(f"combweyl imported from {combweyl.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads
    wl = workloads.WORKLOADS[args.workload]()
    first = wl.inputs(args.seed, 0)
    setup_s = time.monotonic() - args.started
    if args.probe:
        print(json.dumps({"setup_s": setup_s, "import_s": import_s}))
        return 0
    if args.trace:
        out = traced_run(wl, args, first)
    else:
        out = timed_run(wl, args, first)
    out["env"] = environment()
    print(json.dumps(out))
    return 0


def environment() -> dict:
    import importlib.util
    import platform

    import numpy
    import scipy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "numba": importlib.util.find_spec("numba") is not None,
            "nproc": len(os.sched_getaffinity(0)),
            "run_sweep_workers": os.cpu_count() or 1}


def timed_run(wl, args, first) -> dict:
    """Run the timed passes; report end-to-end figures.

    Passes repeat until their timed sections add up to --seconds, or, for a
    workload that fixes its pass count (passes_for), that many passes run.
    Each pass is checked as soon as it ends, outside its timed section, and
    only its latencies, failure tally and (for pass 0) digest are kept, so
    the worker's memory does not grow with the number of passes.  The
    calibration loop runs right before and right after each pass, and the
    pass's times are reported in reference seconds (calib.py).
    """
    from calib import calibrate, factor

    n_fixed = wl.passes_for(args.seconds) if hasattr(wl, "passes_for") else None
    off = Off()
    tally = Tally()
    walls: list[float] = []
    raw_walls: list[float] = []
    latencies, raw_latencies = array("d"), array("d")
    peak_rss_mb = 0.0
    timed_s = 0.0
    while True:
        index = len(walls)
        inp = first if index == 0 else wl.inputs(args.seed, index)
        before = calibrate()
        p = wl.run(inp, off, os.path.join(args.out_dir, f"pass{index}"))
        f = factor(before, calibrate())
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        timed_s += p.wall_s
        raw_walls.append(p.wall_s)
        walls.append(p.wall_s / f)
        raw_latencies.extend(op.latency_s * 1e3 for op in p.ops)
        latencies.extend(op.latency_s * 1e3 / f for op in p.ops)
        tally.check(wl, inp, p)
        if len(walls) == n_fixed or (n_fixed is None and timed_s + p.wall_s > args.seconds):
            break
    again = wl.run(first, off, os.path.join(args.out_dir, "again"))
    if digest(again) != tally.digest:
        tally.problems.append(f"pass 0 digest {tally.digest} did not repeat "
                              f"({digest(again)})")
    out = tally.result()
    out["metrics"] = {
        "wall_s": (statistics.median(walls), "s"),
        "op_p50_ms": (statistics.median(latencies), "ms"),
        "op_p90_ms": (statistics.quantiles(latencies, n=10)[8], "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    out["unscaled"] = {
        "wall_s": statistics.median(raw_walls),
        "op_p50_ms": statistics.median(raw_latencies),
        "op_p90_ms": statistics.quantiles(raw_latencies, n=10)[8],
    }
    out["passes"] = len(walls)
    return out


def traced_run(wl, args, first) -> dict:
    """The same passes untraced and then traced; per-layer figures from the tracer."""
    n = wl.passes_for(args.seconds) if hasattr(wl, "passes_for") else wl.trace_passes
    inputs = [first] + [wl.inputs(args.seed, i) for i in range(1, n)]
    off, tr = Off(), Tracer()
    plain = [wl.run(inp, off, os.path.join(args.out_dir, f"plain{i}"))
             for i, inp in enumerate(inputs)]
    traced = [wl.run(inp, tr, os.path.join(args.out_dir, f"traced{i}"))
              for i, inp in enumerate(inputs)]
    tally = Tally()
    replay_s = sweep_s = 0.0
    if hasattr(wl, "replay"):
        for p in traced:
            seconds, bad = wl.replay(p, tr)
            replay_s += seconds
            sweep_s += p.extra["sweep_s"]
            tally.problems += bad
    for i, (inp, a, b) in enumerate(zip(inputs, plain, traced)):
        tally.check(wl, inp, b)
        if digest(a) != digest(b):
            tally.problems.append(f"pass {i}: traced digest differs from untraced")
    out = tally.result()
    out["metrics"] = layer_metrics(tr, out["fail_kinds"])
    out["metrics"]["asymptotics.pool_speedup"] = (
        replay_s / sweep_s if sweep_s > 0.0 else 0.0, "ratio")
    out["metrics"]["trace.overhead_s"] = (
        statistics.median(p.wall_s for p in traced)
        - statistics.median(p.wall_s for p in plain), "s")
    out["metrics"]["fail_ratio"] = (out["failed"] / out["attempted"], "ratio")
    out["passes"] = len(inputs)
    return out


def digest(p) -> str:
    from workloads import digest as pass_digest

    return pass_digest(p)


class Tally:
    """Failures and problems over the checked passes, and pass 0's digest."""

    def __init__(self) -> None:
        self.cache: dict = {}  # reference spectra, shared by the passes
        self.attempted = self.failed = 0
        self.kinds: dict[str, int] = {}
        self.problems: list[str] = []
        self.digest = None

    def check(self, wl, inp, p) -> None:
        """Check every operation of one pass against the references."""
        fails, bad = wl.check(inp, p, self.cache)
        self.problems += bad
        self.attempted += len(fails)
        for kinds in fails:
            self.failed += bool(kinds)
            for k in kinds:
                self.kinds[k] = self.kinds.get(k, 0) + 1
        if self.digest is None:
            self.digest = digest(p)

    def result(self) -> dict:
        from workloads import KNOWN_DEFECTS

        unexpected = sorted(set(self.kinds) - KNOWN_DEFECTS)
        if unexpected:
            self.problems.append(f"unexpected failure kinds: {unexpected}")
        return {"attempted": self.attempted, "failed": self.failed,
                "fail_kinds": self.kinds, "problems": self.problems,
                "digest": self.digest}


def layer_metrics(tr, fail_kinds: dict) -> dict:
    """Per-layer totals over the traced passes (and the fd_sweep replay)."""
    c = tr.counts
    m = {}
    for name in ("analytic.em", "lattice", "dtn", "fdlap.inertia", "fdlap.oracle"):
        m[f"{name}.calls"] = (tr.calls.get(name, 0), "count")
        m[f"{name}.busy_s"] = (tr.busy.get(name, 0.0), "s")
    for name in ("analytic.report", "analytic.scan", "fdlap.grid", "fdlap.assemble",
                 "fdlap.closed_form", "asymptotics.sweep", "asymptotics.fit",
                 "asymptotics.defect", "asymptotics.report"):
        m[f"{name}.busy_s"] = (tr.busy.get(name, 0.0), "s")
    m["analytic.em.modes"] = (c.get("analytic.em.modes", 0), "count")
    m["lattice.columns"] = (c.get("lattice.columns", 0), "count.computed")
    m["dtn.modes"] = (c.get("dtn.modes", 0), "count.computed")
    m["fdlap.inertia.unknowns"] = (c.get("fdlap.inertia.unknowns", 0), "count")
    m["fdlap.inertia.band_work"] = (c.get("fdlap.inertia.band_work", 0), "count.computed")
    m["fdlap.inertia.retried"] = (c.get("fdlap.inertia.retried", 0), "count")
    # Inertia counts that raised or disagreed with the references, from the
    # checks alone (on fd_sweep the replay must match the checked records).
    m["fdlap.inertia.fail"] = (fail_kinds.get("inertia", 0) + fail_kinds.get("tie", 0),
                               "count")
    m["fdlap.oracle.fail"] = (fail_kinds.get("stall", 0) + fail_kinds.get("oracle", 0),
                              "count")
    m["asymptotics.report.bytes"] = (c.get("asymptotics.report.bytes", 0), "B")
    return m


if __name__ == "__main__":
    sys.exit(main())
