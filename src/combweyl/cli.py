"""Command-line front end: constants, exact counts, FD counts, DtN, sweeps.

Exit codes: 0 on success, 2 on usage or config errors (including malformed
config files, which never leave partial output behind), 1 on computation
errors such as factorization breakdown or domain violations.  All numeric
output is printed with 17 significant digits so runs can be diffed.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import analytic, checks, dtn, fdlap, lattice
from ._args import finite_real
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
    finite_real("lambda", args.lam)
    if args.k is not None:
        ks = [args.k]
    else:
        mu = args.lam / (args.q * args.q)
        ks = range(1, (analytic.mode_cutoff(mu) if mu > 0 else 0) + 1)
    for k in ks:
        try:
            rho_text = fmt17(dtn.tooth_mode_eigenvalue(k, args.q, args.h, args.lam))
        except dtn.DirichletPoleError:
            rho_text = "pole"
        print(f"k = {k} rho = {rho_text}")
    if args.k is None:
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

def _cmd_selftest(_args: argparse.Namespace) -> int:
    battery = [
        ("lattice count vs enumeration", checks.lattice_vs_enumeration, (1001, 60)),
        ("tooth count vs rectangle count", checks.tooth_vs_rect, (1002, 100)),
        ("euler-maclaurin identity", checks.em_identity,
         ([(50.0, 0.5), (100.0, 1.0), (400.0, 2.0), (1000.0, 1.0)],)),
        ("crossover signs at 4/16/36", checks.crossover_signs, ([1.0],)),
        ("closed-form delta below first cutoff", checks.closed_form_delta, (1003, 20)),
        ("dtn positivity above cutoff", checks.dtn_positivity, (1004, 300)),
        ("dtn nonpositive counts at 45/100", checks.dtn_counts, ()),
        ("inertia vs dense lapack oracle", checks.inertia_vs_dense, (1005, 6, 3)),
        ("inertia vs closed-form fd rectangle", checks.inertia_vs_closed_form,
         ([(1, 1), (3, 3), (2, 7), (5, 4)], [0.5, 0.25, 0.1],
          [0.0, 18.0, 19.0, 100.0, 500.0])),
        ("unit square convergence at delta=1/32", checks.square_convergence, ([32],)),
    ]
    failures = 0
    for name, check, sample in battery:
        detail = check(*sample)
        if detail is None:
            print(f"PASS {name}")
        else:
            failures += 1
            print(f"FAIL {name}: {detail}")
    if failures:
        print(f"{failures} of {len(battery)} selftest checks failed")
        return 1
    print(f"all {len(battery)} selftest checks passed")
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
