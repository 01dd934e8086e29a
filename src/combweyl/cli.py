"""Command-line front end: constants, exact counts, FD counts, DtN, sweeps.

Exit codes: 0 on success, 2 on usage or config errors (including malformed
config files, which never leave partial output behind), 1 on computation
errors such as factorization breakdown or domain violations.  All numeric
output is printed with 17 significant digits so runs can be diffed.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import analytic, dtn, fdlap, lattice
from .analytic import DomainSpec
from .asymptotics import ExperimentConfig, fit_constant, fmt17, run_sweep, write_report


class ConfigError(Exception):
    """Bad sweep config; reported as a usage error (exit 2)."""


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _nonneg_int(text: str) -> int:
    try:
        v = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if v < 0:
        raise argparse.ArgumentTypeError(f"expected >= 0, got {v}")
    return v


def _pos_int(text: str) -> int:
    v = _nonneg_int(text)
    if v < 1:
        raise argparse.ArgumentTypeError(f"expected >= 1, got {v}")
    return v


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="combweyl",
        description="Eigenvalue counting and two-term spectral asymptotics "
                    "for comb domains.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "constants",
        help="count coefficients c, c_weyl, delta at (mu, h), with the "
             "Euler-Maclaurin split when modes propagate")
    p.add_argument("--mu", type=float, required=True, help="scaled threshold")
    p.add_argument("--h", type=float, required=True, help="tooth height")

    p = sub.add_parser("count", help="exact and finite-difference eigenvalue counts")
    target = p.add_subparsers(dest="target", required=True)

    rect = target.add_parser("rect", help="exact lattice count on a rectangle")
    rect.add_argument("--a", type=float, required=True, help="side along x")
    rect.add_argument("--b", type=float, required=True, help="side along y")
    rect.add_argument("--lambda", dest="lam", type=float, required=True,
                      help="threshold")
    rect.add_argument("--neumann", action="store_true",
                      help="count Neumann instead of Dirichlet eigenvalues")

    comb = target.add_parser("comb", help="FD inertia count on the comb at lambda = mu*q^2")
    comb.add_argument("--q", type=_pos_int, required=True, help="number of teeth")
    comb.add_argument("--mu", type=float, required=True, help="scaled threshold")
    comb.add_argument("--h", type=float, required=True, help="tooth height")
    comb.add_argument("--refine", type=_nonneg_int, required=True,
                      help="refinement level: grid spacing 1/(2q*2^refine)")

    p = sub.add_parser("dtn", help="tooth Dirichlet-to-Neumann mode values")
    p.add_argument("--q", type=_pos_int, required=True, help="number of teeth")
    p.add_argument("--h", type=float, required=True, help="tooth height")
    p.add_argument("--lambda", dest="lam", type=float, required=True,
                   help="threshold")
    p.add_argument("--k", type=_pos_int, default=None,
                   help="single transverse mode (default: all below cutoff)")

    p = sub.add_parser("sweep", help="run a config-driven sweep and write reports")
    p.add_argument("--config", required=True, help="JSON config path")
    p.add_argument("--out", required=True,
                   help="output base path (writes <out>.csv and <out>.json)")

    sub.add_parser("selftest", help="run the built-in oracle cross-check suites")
    return parser


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_constants(args: argparse.Namespace) -> int:
    rep = analytic.constant_report(args.mu, args.h)
    print(f"mu = {fmt17(rep.mu)}")
    print(f"h = {fmt17(rep.h)}")
    print(f"cutoff_m = {rep.cutoff_m}")
    print(f"c = {fmt17(rep.c)}")
    print(f"c_weyl = {fmt17(rep.c_weyl)}")
    print(f"delta = {fmt17(rep.delta)}")
    if rep.cutoff_m >= 1:
        em = analytic.em_decomposition(args.mu, args.h)
        print(f"em_endpoint = {fmt17(em.em_terms.endpoint)}")
        print(f"em_tail = {fmt17(em.em_terms.tail)}")
        print(f"em_periodic = {fmt17(em.em_terms.periodic)}")
        print(f"em_delta = {fmt17(em.em_delta)}")
    return 0


def _cmd_count_rect(args: argparse.Namespace) -> int:
    rect = lattice.RectSpec(args.a, args.b)
    if args.neumann:
        result = lattice.count_rect_neumann(rect, args.lam)
    else:
        result = lattice.count_rect_dirichlet(rect, args.lam)
    print(result.count)
    return 0


def _cmd_count_comb(args: argparse.Namespace) -> int:
    spec = DomainSpec(args.q, args.h)
    s = 2 ** args.refine
    if fdlap.comb_layout(spec, s).degenerate_teeth:
        print("warning: teeth degenerate at this refinement "
              "(no interior tooth nodes)", file=sys.stderr)
    lam = args.mu * args.q * args.q
    print(fdlap.comb_inertia_count(spec, s, lam).count)
    return 0


def _cmd_dtn(args: argparse.Namespace) -> int:
    if args.k is not None:
        mode = dtn.tooth_mode(args.k, args.q, args.h, args.lam)
        if mode.is_pole:
            print(f"k = {args.k} rho = pole")
        else:
            print(f"k = {args.k} rho = {fmt17(mode.rho)}")
        return 0
    mu = args.lam / (args.q * args.q)
    cutoff = analytic.mode_cutoff(mu) if mu > 0 else 0
    for k in range(1, cutoff + 1):
        mode = dtn.tooth_mode(k, args.q, args.h, args.lam)
        rho_text = "pole" if mode.is_pole else fmt17(mode.rho)
        print(f"k = {k} rho = {rho_text}")
    print(f"count_nonpositive = {dtn.count_nonpositive_tooth(args.q, args.h, args.lam)}")
    return 0


def _load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as f:
            raw = json.load(f)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}")
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path!r}: top level must be a JSON object")
    known = {"mu_list", "h", "q_list", "s_list", "out_path"}
    unknown = sorted(set(raw) - known)
    if unknown:
        raise ConfigError(f"config {path!r}: unknown field {unknown[0]!r}")
    for field in ("mu_list", "h", "q_list", "s_list"):
        if field not in raw:
            raise ConfigError(f"config {path!r}: missing field {field!r}")
    for field in ("mu_list", "q_list", "s_list"):
        if not isinstance(raw[field], list):
            raise ConfigError(f"config {path!r}: field {field!r} must be a list")
        if not raw[field]:
            raise ConfigError(f"config {path!r}: field {field!r} must be nonempty")
    try:
        return ExperimentConfig(
            mu_list=tuple(raw["mu_list"]), h=raw["h"],
            q_list=tuple(raw["q_list"]), s_list=tuple(raw["s_list"]),
            out_path=raw.get("out_path", ""))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config {path!r}: {exc}")


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    records = run_sweep(config)
    finest = max(config.s_list)
    fits = {}
    constants = {}
    for mu in config.mu_list:
        constants[mu] = analytic.constant_report(mu, config.h)
        at_finest = [r for r in records
                     if r.mu == mu and r.s == finest and r.error is None]
        if len({r.q for r in at_finest}) >= 3:
            fits[mu] = fit_constant(at_finest)
    csv_path, json_path = write_report(config, records, fits, constants,
                                       out_base=args.out)
    failed = sum(1 for r in records if r.error is not None)
    print(f"wrote {csv_path}")
    print(f"wrote {json_path}")
    print(f"records = {len(records)}, failed = {failed}")
    return 0


# ---------------------------------------------------------------------------
# selftest battery
# ---------------------------------------------------------------------------

def _check_lattice_vs_enumeration() -> str | None:
    rng = np.random.default_rng(1001)
    for _ in range(60):
        rect = lattice.RectSpec(float(rng.uniform(0.2, 3.0)),
                                float(rng.uniform(0.2, 3.0)))
        lam = float(rng.uniform(0.0, 600.0))
        fast = lattice.count_rect_dirichlet(rect, lam).count
        slow = len(lattice.enumerate_rect_eigs(rect, lam))
        if fast != slow:
            return f"rect {rect} lam={lam}: closed-form {fast} != enumerated {slow}"
    return None


def _check_tooth_vs_rect() -> str | None:
    rng = np.random.default_rng(1002)
    for _ in range(100):
        q = int(rng.integers(1, 7))
        h = float(rng.uniform(0.3, 2.5))
        spec = DomainSpec(q, h)
        lam = float(rng.uniform(0.0, 400.0 * q * q))
        tooth = lattice.count_tooth(spec, lam).count
        rect = lattice.count_rect_dirichlet(
            lattice.RectSpec(1.0 / (2.0 * q), h), lam).count
        if tooth != rect:
            return f"q={q} h={h} lam={lam}: tooth {tooth} != rect {rect}"
    return None


def _check_em_identity() -> str | None:
    for mu, h in ((50.0, 0.5), (100.0, 1.0), (400.0, 2.0), (1000.0, 1.0)):
        rep = analytic.em_decomposition(mu, h)
        if abs(rep.em_delta - rep.delta) > 1e-8:
            return f"mu={mu} h={h}: em {rep.em_delta} vs direct {rep.delta}"
    return None


def _check_crossover_signs() -> str | None:
    scan = analytic.crossover_scan([4.0, 16.0, 36.0], 1.0)
    signs = [sign for _, _, sign in scan]
    if signs != [1, 0, -1]:
        return f"signs at mu=4,16,36: {signs} != [1, 0, -1]"
    return None


def _check_closed_form_delta() -> str | None:
    rng = np.random.default_rng(1003)
    for _ in range(20):
        mu = float(rng.uniform(0.5, analytic.FOUR_PI_SQ * 0.999))
        h = float(rng.uniform(0.1, 4.0))
        expect = h * (4.0 * math.sqrt(mu) - mu) / (8.0 * math.pi)
        got = analytic.theorem_constant(mu, h) - analytic.weyl_constant(mu, h)
        scale = max(1e-30, abs(expect))
        if abs(got - expect) > 1e-12 * scale + 1e-15:
            return f"mu={mu} h={h}: delta {got} vs closed form {expect}"
    return None


def _check_dtn_positivity() -> str | None:
    rng = np.random.default_rng(1004)
    for _ in range(300):
        q = int(rng.integers(1, 5))
        h = float(rng.uniform(0.2, 3.0))
        lam = float(rng.uniform(0.5, 900.0))
        cutoff = analytic.mode_cutoff(lam / (q * q))
        k = cutoff + 1 + int(rng.integers(0, 4))
        rho = dtn.tooth_mode_eigenvalue(k, q, h, lam)
        if rho <= 0.0:
            return f"super-cutoff mode k={k} q={q} h={h} lam={lam}: rho={rho}"
    return None


def _check_dtn_counts() -> str | None:
    low = dtn.count_nonpositive_tooth(1, 1.0, 45.0)
    high = dtn.count_nonpositive_tooth(1, 1.0, 100.0)
    if (low, high) != (1, 0):
        return f"count_nonpositive_tooth at 45, 100: {(low, high)} != (1, 0)"
    return None


def _check_inertia_vs_dense() -> str | None:
    rng = np.random.default_rng(1005)
    for trial in range(6):
        if trial % 2 == 0:
            m = int(rng.integers(2, 12))
            k = int(rng.integers(2, 12))
            op = fdlap.build_rect_operator(m, k, float(rng.uniform(0.05, 0.5)))
        else:
            q = int(rng.integers(1, 4))
            s = int(rng.integers(2, 5))
            grid = fdlap.build_comb_grid(DomainSpec(q, float(rng.uniform(0.4, 1.6))), s)
            if grid.n > fdlap.DENSE_MAX_N:
                continue
            op = fdlap.assemble_dirichlet_operator(grid)
        eigs = fdlap.dense_eig_oracle(op)
        for lam, want in _gap_midpoints(eigs, rng, 3):
            got = fdlap.inertia_count(op, lam).count
            if got != want:
                return f"n={op.n} lam={lam}: inertia {got} != dense {want}"
    return None


def _gap_midpoints(eigs: np.ndarray, rng: np.random.Generator,
                   count: int) -> list[tuple[float, int]]:
    """Thresholds in well-separated spectral gaps, with the expected count.

    Comb spectra carry q-fold degenerate tooth modes, and the dense oracle
    resolves such clusters only to its rounding noise; a threshold inside a
    cluster would make the count ill-defined.  Requiring a relative gap of
    1e-7 keeps every threshold several orders above the oracle's error.
    """
    n = len(eigs)
    scale = max(1.0, float(abs(eigs[-1])))
    picks: list[tuple[float, int]] = []
    attempts = 0
    while len(picks) < count and attempts < 60 * count:
        attempts += 1
        i = int(rng.integers(-1, n))
        if i < 0:
            picks.append((float(eigs[0] - 1.0), 0))
        elif i == n - 1:
            picks.append((float(eigs[-1] + 1.0), n))
        elif eigs[i + 1] - eigs[i] > 1e-7 * scale:
            picks.append((float(0.5 * (eigs[i] + eigs[i + 1])), i + 1))
    return picks


def _check_inertia_vs_closed_form() -> str | None:
    for m, k in ((1, 1), (3, 3), (2, 7), (5, 4)):
        for delta in (0.5, 0.25, 0.1):
            op = fdlap.build_rect_operator(m, k, delta)
            for lam in (0.0, 18.0, 19.0, 100.0, 500.0):
                got = fdlap.inertia_count(op, lam).count
                want = fdlap.fd_rect_count_closed_form(m, k, delta, lam).count
                if got != want:
                    return (f"M={m} K={k} delta={delta} lam={lam}: "
                            f"inertia {got} != closed form {want}")
    return None


def _check_square_convergence() -> str | None:
    op = fdlap.build_rect_operator(31, 31, 1.0 / 32.0)
    got = fdlap.inertia_count(op, 100.0).count
    if got != 6:
        return f"unit square at delta=1/32: count {got} != 6"
    return None


def _cmd_selftest(_args: argparse.Namespace) -> int:
    checks = [
        ("lattice count vs enumeration", _check_lattice_vs_enumeration),
        ("tooth count vs rectangle count", _check_tooth_vs_rect),
        ("euler-maclaurin identity", _check_em_identity),
        ("crossover signs at 4/16/36", _check_crossover_signs),
        ("closed-form delta below first cutoff", _check_closed_form_delta),
        ("dtn positivity above cutoff", _check_dtn_positivity),
        ("dtn nonpositive counts at 45/100", _check_dtn_counts),
        ("inertia vs dense lapack oracle", _check_inertia_vs_dense),
        ("inertia vs closed-form fd rectangle", _check_inertia_vs_closed_form),
        ("unit square convergence at delta=1/32", _check_square_convergence),
    ]
    failures = 0
    for name, fn in checks:
        detail = fn()
        if detail is None:
            print(f"PASS {name}")
        else:
            failures += 1
            print(f"FAIL {name}: {detail}")
    if failures:
        print(f"{failures} of {len(checks)} selftest checks failed")
        return 1
    print(f"all {len(checks)} selftest checks passed")
    return 0


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "constants": _cmd_constants,
        "dtn": _cmd_dtn,
        "sweep": _cmd_sweep,
        "selftest": _cmd_selftest,
    }
    try:
        if args.command == "count":
            handler = _cmd_count_rect if args.target == "rect" else _cmd_count_comb
            return handler(args)
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, fdlap.FactorizationError, dtn.DirichletPoleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
