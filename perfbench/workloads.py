"""The three benchmark workloads, each driving the public combweyl API.

A workload turns (seed, pass index) into plain inputs, runs one pass of
operations on them, and afterwards checks every operation against the
references in refs.py.  Passes differ only in their seeded draws; the
shapes and sizes in a pass are fixed, so every pass costs about the same.

Failure kinds: "stall" (dense Jacobi oracle stalled) and "tie" (inertia
count wrong, or FactorizationError, at a threshold exactly on an eigenvalue)
are defects known at the time the benchmark was written.  They count as
failed operations.  Any other kind also fails the operation and, being
unexpected, makes the run incorrect.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import combweyl as cw
import refs

KNOWN_DEFECTS = frozenset({"stall", "tie"})


@dataclass(slots=True)
class Op:
    """One timed operation: its latency, outputs and any raised errors."""

    key: tuple
    latency_s: float = 0.0
    counts: list = field(default_factory=list)  # folded into the digest
    data: dict = field(default_factory=dict)    # checked after timing
    errors: list = field(default_factory=list)  # (kind, message)


@dataclass
class Pass:
    ops: list
    wall_s: float
    extra: dict = field(default_factory=dict)


def digest(p: Pass) -> str:
    text = json.dumps([[list(op.key), op.counts] for op in p.ops])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _attempt(op: Op, kind: str, fn, *args):
    """Run one check of an operation, recording an exception as a failure."""
    try:
        return fn(*args)
    except Exception as exc:  # any raise fails the operation, never the run
        op.errors.append((kind, f"{type(exc).__name__}: {exc}"))
        return None


# ---------------------------------------------------------------------------
# fd_sweep: the paper's experiment, as `combweyl sweep` runs it
# ---------------------------------------------------------------------------

class FdSweep:
    """run_sweep over one mu near 100, h = 1, q = 2..6, s = 3; fit and report.

    One operation is one sweep record; its latency is the record's own
    wall_time_s.  run_sweep uses its default worker count.  Per mu the pass
    then runs fit_constant, constant_report and defect_series, and one
    write_report covers the sweep, as `combweyl sweep` does.
    """

    name = "fd_sweep"
    H = 1.0
    Q_LIST = (2, 3, 4, 5, 6)
    # One mu per pass at s = 3 (n up to 1657) rather than a finer level:
    # with the default thread pool a record's wall time depends on which
    # record shares the interpreter lock with it, so a steady run needs many
    # records (at least 100 for op_p90_ms), and a pass must stay short
    # (about 0.4 s) for the host-speed calibration around it to hold.
    N_MU = 1
    S = 3
    trace_passes = 4

    def inputs(self, seed: int, index: int) -> dict:
        rng = np.random.default_rng([seed, index])
        return {"mus": sorted(float(mu) for mu in rng.uniform(90.0, 110.0, self.N_MU))}

    def run(self, inp: dict, tr, out_base: str) -> Pass:
        config = cw.ExperimentConfig(mu_list=tuple(inp["mus"]), h=self.H,
                                     q_list=self.Q_LIST, s_list=(self.S,))
        t0 = perf_counter()
        records = tr.call("asymptotics.sweep", cw.run_sweep, config)
        sweep_s = perf_counter() - t0
        fits, constants, defects = {}, {}, {}
        for mu in config.mu_list:
            at_mu = [r for r in records if r.mu == mu]
            clean = [r for r in at_mu if r.error is None]
            if len({r.q for r in clean}) >= 3:
                fits[mu] = tr.call("asymptotics.fit", cw.fit_constant, clean)
            constants[mu] = tr.call("analytic.report", cw.constant_report, mu, self.H)
            defects[mu] = tr.call("asymptotics.defect", cw.defect_series, at_mu)
        paths = tr.call("asymptotics.report", cw.write_report, config, records,
                        fits, constants, out_base)
        wall = perf_counter() - t0
        if tr.enabled:
            tr.count("asymptotics.report.bytes", sum(os.path.getsize(x) for x in paths))
        ops = []
        for r in records:
            op = Op(key=(r.mu, r.q, r.s), latency_s=r.wall_time_s,
                    counts=[r.n_fd, r.n_square, r.n_teeth],
                    data={"record": r})
            if r.error is not None:
                op.errors.append(("sweep", r.error))
            ops.append(op)
        return Pass(ops, wall, {"mus": config.mu_list, "fits": fits,
                                "constants": constants, "defects": defects,
                                "paths": paths, "sweep_s": sweep_s})

    def replay(self, p: Pass, tr) -> tuple[float, list[str]]:
        """Recount every record serially through the layers, traced.

        Returns the replay's wall time and the records whose counts differ
        from run_sweep's.
        """
        problems = []
        t0 = perf_counter()
        for op in p.ops:
            r = op.data["record"]
            spec = cw.DomainSpec(r.q, r.h)
            grid = tr.call("fdlap.grid", cw.build_comb_grid, spec, r.s)
            mat = tr.call("fdlap.assemble", cw.assemble_dirichlet_operator, grid)
            try:
                res = tr.call("fdlap.inertia", cw.inertia_count, mat, r.lam)
            except cw.FactorizationError as exc:
                problems.append(f"replay q={r.q}: {exc}")
                res = None
            n_sq = tr.call("lattice", cw.count_rect_dirichlet,
                           cw.RectSpec(1.0, 1.0), r.lam).count
            n_t = tr.call("lattice", cw.count_tooth, spec, r.lam).count
            p_band = 2 * r.q * r.s
            tr.count("fdlap.inertia.unknowns", mat.n)
            tr.count("fdlap.inertia.band_work", mat.n * p_band * p_band)
            tr.count("lattice.columns", _columns(1.0, r.lam) + _columns(0.5 / r.q, r.lam))
            if res is not None and res.tie_tol > 0.0:
                tr.count("fdlap.inertia.retried", 1)
            got = (None if res is None else res.count, n_sq, r.q * n_t)
            if got != (r.n_fd, r.n_square, r.n_teeth):
                problems.append(f"replay q={r.q} s={r.s}: {got} != "
                                f"{(r.n_fd, r.n_square, r.n_teeth)}")
        return perf_counter() - t0, problems

    def check(self, inp: dict, p: Pass, cache: dict) -> tuple[list[list[str]], list[str]]:
        fails = []
        for op in p.ops:
            kinds = [k for k, _ in op.errors]
            r = op.data["record"]
            if r.error is None:
                kinds += self._check_record(r, cache)
            fails.append(kinds)
        return fails, self._check_pass(inp, p)

    def _check_record(self, r, cache: dict) -> list[str]:
        lam = r.lam
        bad = []
        n_sq = refs.dirichlet_count(1.0, 1.0, lam)
        n_t = refs.tooth_count(r.q, r.h, lam)
        lo, hi = refs.interlacing_bracket(r.q, r.h, r.s, lam)
        cells = 2 * r.q * r.s
        key = (r.q, r.h, r.s)
        if key not in cache:
            cache[key] = refs.comb_fd_eigs_apart(*key)
        if (r.n_square, r.n_teeth) != (n_sq, r.q * n_t):
            bad.append("lattice")
        if not lo <= r.n_fd <= hi or r.n_fd != refs.count_le(cache[key], lam):
            bad.append("inertia")
        if r.defect != r.n_fd - r.n_square - r.n_teeth \
                or abs(r.h_snapped - round(r.h * cells) / cells) > 1e-12:
            bad.append("sweep")
        return bad

    def _check_pass(self, inp: dict, p: Pass) -> list[str]:
        h = self.H
        out = []
        records = [op.data["record"] for op in p.ops]
        for mu in p.extra["mus"]:
            clean = [r for r in records if r.mu == mu and r.error is None]
            fit = p.extra["fits"].get(mu)
            if fit is None:
                out.append(f"mu={mu}: no fit")
            else:
                design = np.array([[r.q * r.q, r.q] for r in clean], dtype=float)
                counts = np.array([r.n_fd for r in clean], dtype=float)
                coef = np.linalg.lstsq(design, counts, rcond=None)[0]
                if not np.allclose([fit.c_hat, fit.beta_hat], coef, rtol=1e-9, atol=1e-9):
                    out.append(f"mu={mu}: fit {fit.c_hat, fit.beta_hat} != {tuple(coef)}")
            m, c = refs.theorem_c(mu, h)
            rep = p.extra["constants"][mu]
            if rep.cutoff_m != m or abs(rep.c - c) > 1e-12 * c:
                out.append(f"mu={mu}: constant_report c={rep.c} != {c}")
            want = []
            for r in sorted(clean, key=lambda r: r.q):
                gap = (refs.neumann_count(1.0, 1.0, r.lam)
                       - refs.dirichlet_count(1.0, 1.0, r.lam))
                want.append((r.q, r.defect, gap + r.q * refs.dtn_nonpositive(r.q, h, r.lam)))
            if [tuple(x) for x in p.extra["defects"][mu]] != want:
                out.append(f"mu={mu}: defect_series {p.extra['defects'][mu]} != {want}")
        csv_path, json_path = p.extra["paths"]
        with open(json_path, encoding="utf-8") as f:
            report = json.load(f)
        with open(csv_path, encoding="utf-8", newline="") as f:
            rows = list(csv.reader(f))
        if [x["n_fd"] for x in report["records"]] != [r.n_fd for r in records] \
                or len(rows) != len(records) + 1:
            out.append("report files disagree with the records")
        return out


def _columns(width: float, lam: float) -> int:
    """Lattice columns a count visits: floor(width*sqrt(lam)/pi), computed."""
    return int(width * math.sqrt(lam) / math.pi) if lam > 0.0 else 0


# ---------------------------------------------------------------------------
# analytic_scan: closed-form constants, lattice counts and DtN modes
# ---------------------------------------------------------------------------

class AnalyticScan:
    """A log-spaced mu grid from just above 4*pi^2 to 1e7 over three h.

    Each operation evaluates the constants, the Euler-Maclaurin split, the
    unit-square Dirichlet and Neumann counts, the tooth count, the DtN
    nonpositive count and the square's mixed gap at lambda = mu*q^2; one
    crossover_scan over the pass's mu grid closes the pass.
    """

    name = "analytic_scan"
    N_MU = 24
    MU_LO = 4.0 * math.pi ** 2 * 1.001
    MU_HI = 1e7
    H_LO, H_HI = 0.25, 4.0
    N_H = 3
    trace_passes = 40

    def inputs(self, seed: int, index: int) -> dict:
        rng = np.random.default_rng([seed, index])
        edges = np.linspace(math.log(self.MU_LO), math.log(self.MU_HI), self.N_MU + 1)
        mus = np.exp(edges[:-1] + rng.uniform(0.0, 1.0, self.N_MU) * np.diff(edges))
        h_edges = np.linspace(math.log(self.H_LO), math.log(self.H_HI), self.N_H + 1)
        hs = np.exp(h_edges[:-1] + rng.uniform(0.0, 1.0, self.N_H) * np.diff(h_edges))
        ops = [(float(mu), float(h), 1 + (j + i) % 3)
               for i, h in enumerate(hs) for j, mu in enumerate(mus)]
        return {"ops": ops, "mus": [float(m) for m in mus], "scan_h": float(hs[0])}

    def run(self, inp: dict, tr, out_base: str) -> Pass:
        ops = []
        t0 = perf_counter()
        for i, (mu, h, q) in enumerate(inp["ops"]):
            op = Op(key=(i,))
            lam = mu * q * q
            t = perf_counter()
            rep = _attempt(op, "analytic", tr.call, "analytic.report",
                           cw.constant_report, mu, h)
            em = _attempt(op, "analytic", tr.call, "analytic.em",
                          cw.em_decomposition, mu, h)
            square = cw.RectSpec(1.0, 1.0)
            d = _attempt(op, "lattice", tr.call, "lattice",
                         cw.count_rect_dirichlet, square, lam)
            nn = _attempt(op, "lattice", tr.call, "lattice",
                          cw.count_rect_neumann, square, lam)
            tooth = _attempt(op, "lattice", tr.call, "lattice",
                             cw.count_tooth, cw.DomainSpec(q, h), lam)
            z = _attempt(op, "dtn", tr.call, "dtn",
                         cw.count_nonpositive_tooth, q, h, lam)
            gap = _attempt(op, "dtn", tr.call, "dtn", cw.square_mixed_gap, lam)
            op.latency_s = perf_counter() - t
            op.data = {"rep": rep, "em": em}
            op.counts = [None if x is None else x.count for x in (d, nn, tooth)] + [z, gap]
            if tr.enabled:
                tr.count("analytic.em.modes", em.cutoff_m if em else 0)
                tr.count("lattice.columns", 2 * _columns(1.0, lam) + _columns(0.5 / q, lam))
                tr.count("dtn.modes", _columns(0.5, mu))
            ops.append(op)
        op = Op(key=("scan",))
        t = perf_counter()
        scan = _attempt(op, "analytic", tr.call, "analytic.scan",
                        cw.crossover_scan, inp["mus"], inp["scan_h"])
        op.latency_s = perf_counter() - t
        op.counts = [] if scan is None else [sign for _, _, sign in scan]
        op.data = {"scan": scan}
        ops.append(op)
        return Pass(ops, perf_counter() - t0)

    def check(self, inp: dict, p: Pass, cache: dict) -> tuple[list[list[str]], list[str]]:
        fails = []
        for (mu, h, q), op in zip(inp["ops"], p.ops):
            kinds = [k for k, _ in op.errors]
            if not op.errors:
                kinds += self._check_op(mu, h, q, op)
            fails.append(kinds)
        scan_op = p.ops[-1]
        kinds = [k for k, _ in scan_op.errors]
        if not kinds:
            for mu, (got_mu, d, sign) in zip(inp["mus"], scan_op.data["scan"]):
                want = refs.theorem_c(mu, inp["scan_h"])[1] - refs.weyl_c(mu, inp["scan_h"])
                if got_mu != mu or abs(d - want) > 1e-9 * mu or sign != _sign(want):
                    kinds.append("analytic")
                    break
        fails.append(kinds)
        return fails, self._identities(sorted({h for _, h, _ in inp["ops"]}))

    def _identities(self, h_values: list[float]) -> list[str]:
        """c(16,h) = c_weyl(16,h) and the crossover signs at mu = 4/16/36."""
        out = []
        for h in h_values:
            c16, w16 = cw.theorem_constant(16.0, h), cw.weyl_constant(16.0, h)
            if abs(c16 - w16) > 1e-12 * c16:
                out.append(f"c(16,{h}) = {c16} != c_weyl = {w16}")
            signs = [s for _, _, s in cw.crossover_scan([4.0, 16.0, 36.0], h)]
            if signs != [1, 0, -1]:
                out.append(f"crossover signs at h={h}: {signs} != [1, 0, -1]")
        return out

    def _check_op(self, mu: float, h: float, q: int, op: Op) -> list[str]:
        lam = mu * q * q
        rep, em = op.data["rep"], op.data["em"]
        cutoff, c_got, cw_got, delta = rep.cutoff_m, rep.c, rep.c_weyl, rep.delta
        em_cutoff, em_delta = em.cutoff_m, em.em_delta
        d, nn, tooth, z, gap = op.counts
        bad = []
        m, c = refs.theorem_c(mu, h)
        cw_ref = refs.weyl_c(mu, h)
        scale = (h / math.pi) * math.sqrt(mu)
        if cutoff != m or em_cutoff != m or abs(c_got - c) > 1e-12 * c \
                or abs(cw_got - cw_ref) > 1e-12 * c \
                or abs(delta - (c - cw_ref)) > 1e-11 * c \
                or abs(em_delta - delta) > refs.EM_REL_TOL * scale:
            bad.append("analytic")
        if (d, nn, tooth) != (refs.dirichlet_count(1.0, 1.0, lam),
                              refs.neumann_count(1.0, 1.0, lam),
                              refs.tooth_count(q, h, lam)):
            bad.append("lattice")
        if z != refs.dtn_nonpositive(q, h, lam) or gap != nn - d:
            bad.append("dtn")
        return bad


def _sign(x: float) -> int:
    return 0 if abs(x) <= 1e-12 else (1 if x > 0.0 else -1)


# ---------------------------------------------------------------------------
# oracle_battery: many tiny operators through the verification route
# ---------------------------------------------------------------------------

class OracleBattery:
    """Small rectangle and comb operators, six checks each.

    Per operator: build it, run the dense oracle, count by inertia at gap
    midpoints of the oracle's spectrum, count by inertia at thresholds
    exactly on an eigenvalue (rectangles), evaluate the closed-form FD count
    (the rectangle, or the comb's square and tooth blocks), and compare
    count_rect_dirichlet with enumerate_rect_eigs.  Square grids such as
    6 x 6 carry double eigenvalues, where the tie defect shows most, so on a
    square every double eigenvalue is a tie threshold; other rectangles get
    N_TIES eigenvalues drawn at random.  About 3 % of the square's double
    eigenvalues are miscounted at the seed.
    """

    name = "oracle_battery"
    # Every operator has 36 to 51 nodes, so latencies form one cluster (and a
    # second one of stalled oracles): the quantiles then fall inside a
    # cluster rather than between clusters of very different sizes.
    RECTS = ((6, 6), (4, 9), (9, 4), (5, 8), (8, 5), (6, 7), (7, 6), (3, 13),
             (13, 3))
    COMBS = ((1, 3), (1, 3), (2, 2))  # (q, s)
    N_GAPS = 3
    N_TIES = 2
    N_PROBES = 2
    GAP_REL = 1e-7  # smallest relative gap a midpoint may sit in
    CATALOGUE_SEED = 20240123
    # Pass i takes group i % GROUPS: three of RECTS and one of COMBS, so a
    # pass is short enough for the host-speed calibration around it to hold.
    GROUPS = 3
    # A pass's time on a 2-vCPU x86-64 host, in reference seconds.
    PASS_S = 0.6

    def passes_for(self, seconds: float) -> int:
        """A fixed number of passes, whole rounds of the groups, for about seconds.

        A fixed count rather than passes until time runs out: the operators
        of pass i do not depend on the seed, so attempted and failed then
        repeat exactly from run to run.  The traced run runs the same passes,
        so its fail_ratio is the timed run's failed / attempted.
        """
        return self.GROUPS * max(1, round(seconds / (self.GROUPS * self.PASS_S)))

    def inputs(self, seed: int, index: int) -> dict:
        """The operators of pass `index`, with thresholds and order from `seed`.

        The operators themselves (shapes, spacings, tooth heights and the
        eigenvalues used as tie thresholds) come from the fixed
        CATALOGUE_SEED, so a run's set of operators, and with it the number
        of operations that hit the known defects, is the same for every
        seed.  The seed draws the probe thresholds, the gap picks and the
        order of the operators.
        """
        geo = np.random.default_rng([self.CATALOGUE_SEED, index])
        rng = np.random.default_rng([seed, index])
        ops = []
        group = index % self.GROUPS
        n_rects = len(self.RECTS) // self.GROUPS
        for m, k in self.RECTS[group * n_rects:(group + 1) * n_rects]:
            delta = float(geo.uniform(0.05, 0.6))
            if m == k:  # every double eigenvalue of the square
                ties = [(i, j) for i in range(1, m + 1) for j in range(i + 1, m + 1)]
            else:
                ties = [(int(geo.integers(1, m + 1)), int(geo.integers(1, k + 1)))
                        for _ in range(self.N_TIES)]
            ops.append({"kind": "rect", "m": m, "k": k, "delta": delta,
                        "ties": [refs.rect_fd_eig(m, k, delta, i, j) for i, j in ties],
                        "probes": self._probes(rng, delta),
                        "gap_seed": int(rng.integers(2 ** 32))})
        for q, s in self.COMBS[group:group + 1]:
            # 6 to 8 tooth rows for q = 1 (n = 37..41), one for q = 2 (n = 51).
            h = float(geo.uniform(1.0, 1.3) if q == 1 else geo.uniform(0.07, 0.18))
            delta = 1.0 / (2 * q * s)
            ops.append({"kind": "comb", "q": q, "s": s, "h": h, "delta": delta,
                        "probes": self._probes(rng, delta),
                        "gap_seed": int(rng.integers(2 ** 32))})
        order = rng.permutation(len(ops))
        return {"ops": [ops[i] for i in order]}

    def _probes(self, rng, delta: float) -> list[float]:
        """Thresholds spread over the FD spectral range (0, 8/delta^2)."""
        return [float(u) * 8.0 / delta ** 2 for u in rng.uniform(0.02, 1.0, self.N_PROBES)]

    def run(self, inp: dict, tr, out_base: str) -> Pass:
        ops = []
        t0 = perf_counter()
        for i, spec in enumerate(inp["ops"]):
            op = Op(key=(i, spec["kind"]))
            t = perf_counter()
            self._run_op(spec, op, tr)
            op.latency_s = perf_counter() - t
            ops.append(op)
        return Pass(ops, perf_counter() - t0)

    def _run_op(self, spec: dict, op: Op, tr) -> None:
        data = op.data
        delta = spec["delta"]
        if spec["kind"] == "rect":
            m, k = spec["m"], spec["k"]
            mat = _attempt(op, "build", tr.call, "fdlap.assemble",
                           cw.build_rect_operator, m, k, delta)
            blocks = [(m, k)]
            conts = [cw.RectSpec((m + 1) * delta, (k + 1) * delta)]
            p_band = m
        else:
            q, s, h = spec["q"], spec["s"], spec["h"]
            cdom = cw.DomainSpec(q, h)
            grid = _attempt(op, "build", tr.call, "fdlap.grid", cw.build_comb_grid, cdom, s)
            mat = grid and _attempt(op, "build", tr.call, "fdlap.assemble",
                                    cw.assemble_dirichlet_operator, grid)
            h_rows = round(h * 2 * q * s)
            blocks = [(2 * q * s - 1, 2 * q * s - 1)]
            if s > 1 and h_rows > 1:
                blocks.append((s - 1, h_rows - 1))
            conts = [cw.RectSpec(1.0, 1.0), cw.RectSpec(0.5 / q, h)]
            p_band = 2 * q * s
        data["blocks"] = blocks
        if mat is None:
            return
        try:
            eigs = tr.call("fdlap.oracle", cw.dense_eig_oracle, mat)
        except cw.FactorizationError as exc:
            kind = "stall" if "stalled" in str(exc) else "oracle"
            op.errors.append((kind, str(exc)))
            eigs = None
        except Exception as exc:
            op.errors.append(("oracle", f"{type(exc).__name__}: {exc}"))
            eigs = None
        data["eigs"] = eigs
        gaps = [] if eigs is None else self._gap_midpoints(eigs, spec["gap_seed"])
        data["gaps"] = gaps
        # Combs also get inertia at the probes; rectangles at exact ties.
        ties = spec.get("ties", [])
        probe_lams = spec["probes"] if spec["kind"] == "comb" else []
        data["gap_counts"] = [self._inertia(op, False, tr, mat, lam) for lam, _ in gaps]
        data["tie_counts"] = [self._inertia(op, True, tr, mat, lam) for lam in ties]
        data["probe_counts"] = [self._inertia(op, False, tr, mat, lam) for lam in probe_lams]
        if tr.enabled:
            calls = len(gaps) + len(ties) + len(probe_lams)
            tr.count("fdlap.inertia.unknowns", calls * mat.n)
            tr.count("fdlap.inertia.band_work", calls * mat.n * p_band * p_band)
        data["cf_counts"] = [
            [_count(_attempt(op, "closed_form", tr.call, "fdlap.closed_form",
                             cw.fd_rect_count_closed_form, bm, bk, delta, lam))
             for lam in spec["probes"] + ties]
            for bm, bk in blocks]
        lat = []
        for rect in conts:
            for lam in spec["probes"]:
                fast = _count(_attempt(op, "lattice", tr.call, "lattice",
                                       cw.count_rect_dirichlet, rect, lam))
                slow = _attempt(op, "lattice", tr.call, "lattice",
                                cw.enumerate_rect_eigs, rect, lam)
                lat.append((fast, None if slow is None else len(slow)))
                if tr.enabled:
                    tr.count("lattice.columns", 2 * _columns(rect.a, lam))
        data["lattice"] = lat
        op.counts = [data["gap_counts"], data["tie_counts"], data["probe_counts"],
                     data["cf_counts"], lat]

    def _inertia(self, op: Op, tie: bool, tr, mat, lam: float):
        """inertia_count at lam; tie marks a threshold exactly on an eigenvalue.

        A FactorizationError at a tie is the known tie defect; any other
        raise is an unexpected inertia failure.
        """
        try:
            res = tr.call("fdlap.inertia", cw.inertia_count, mat, lam)
        except Exception as exc:
            kind = "tie" if tie and isinstance(exc, cw.FactorizationError) else "inertia"
            op.errors.append((kind, f"{type(exc).__name__}: {exc}"))
            return None
        if tr.enabled and res.tie_tol > 0.0:
            tr.count("fdlap.inertia.retried", 1)
        return res.count

    def _gap_midpoints(self, eigs: np.ndarray, seed: int) -> list[tuple[float, int]]:
        """N_GAPS thresholds in well-separated gaps of eigs, with their counts."""
        rng = np.random.default_rng(seed)
        n = len(eigs)
        scale = max(1.0, float(abs(eigs[-1])))
        picks = []
        for _ in range(60 * self.N_GAPS):
            if len(picks) == self.N_GAPS:
                break
            i = int(rng.integers(-1, n))
            if i < 0:
                picks.append((float(eigs[0]) - 1.0, 0))
            elif i == n - 1:
                picks.append((float(eigs[-1]) + 1.0, n))
            elif eigs[i + 1] - eigs[i] > self.GAP_REL * scale:
                picks.append((float(0.5 * (eigs[i] + eigs[i + 1])), i + 1))
        return picks

    def check(self, inp: dict, p: Pass, cache: dict) -> tuple[list[list[str]], list[str]]:
        fails = []
        for spec, op in zip(inp["ops"], p.ops):
            kinds = [k for k, _ in op.errors]
            if "eigs" in op.data:
                kinds += self._check_op(spec, op, cache)
            fails.append(kinds)
        return fails, []

    def _check_op(self, spec: dict, op: Op, cache: dict) -> list[str]:
        data = op.data
        delta = spec["delta"]
        if spec["kind"] == "rect":
            ref = refs.rect_fd_eigs(spec["m"], spec["k"], delta)
        else:
            q, s = spec["q"], spec["s"]
            key = (q, s, round(spec["h"] * 2 * q * s))  # the grid sees only snapped h
            if key not in cache:
                cache[key] = refs.comb_fd_eigs(q, spec["h"], s)
            ref = cache[key]
        bad = []
        eigs = data["eigs"]
        if eigs is not None and (len(eigs) != len(ref) or np.max(np.abs(eigs - ref))
                                 > refs.EIG_REL_TOL * float(ref[-1])):
            bad.append("oracle")
        for (lam, want), got in zip(data["gaps"], data["gap_counts"]):
            if got is not None and (got != want or got != refs.count_le(ref, lam)):
                bad.append("inertia")
        for lam, got in zip(spec.get("ties", []), data["tie_counts"]):
            if got is not None and got != refs.count_le(ref, lam):
                bad.append("tie")
        probe_lams = spec["probes"] if spec["kind"] == "comb" else []
        for lam, got in zip(probe_lams, data["probe_counts"]):
            if got is not None and got != refs.count_le(ref, lam):
                bad.append("inertia")
        lams = spec["probes"] + spec.get("ties", [])
        for (bm, bk), counts in zip(data["blocks"], data["cf_counts"]):
            block = refs.rect_fd_eigs(bm, bk, delta)
            if counts != [refs.count_le(block, lam) for lam in lams]:
                bad.append("closed_form")
        if spec["kind"] == "rect":
            conts = [((spec["m"] + 1) * delta, (spec["k"] + 1) * delta)]
        else:
            conts = [(1.0, 1.0), (0.5 / spec["q"], spec["h"])]
        want = [refs.dirichlet_count(a, b, lam) for a, b in conts for lam in spec["probes"]]
        if any(fast != w or slow != w for (fast, slow), w in zip(data["lattice"], want)):
            bad.append("lattice")
        return bad


def _count(res):
    return None if res is None else res.count


WORKLOADS = {w.name: w for w in (FdSweep, AnalyticScan, OracleBattery)}
