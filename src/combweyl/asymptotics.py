"""Sweep harness verifying N(mu*q^2) = c(mu)*q^2 + O(q) at desk scale.

For each (mu, q, s) the harness counts comb eigenvalues three ways: the FD
count of the comb (fdlap.comb_inertia_count, from the square, tooth and
mouth-row Schur complement inertias), the exact lattice count on the unit
square, and the exact per-tooth lattice count times q.  Records are
computed serially: each takes milliseconds.  The defect

    defect = n_fd - n_square - n_teeth

measures the interface coupling term, which the decoupling argument bounds
by O(q).  Fitting n_fd against c*q^2 + beta*q over several q recovers the
count coefficient c(mu).  Reports are emitted as CSV plus JSON with floats
at 17 significant digits, so reruns diff cleanly.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from operator import attrgetter
from time import perf_counter

import numpy as np

from ._args import positive_int, positive_real
from .analytic import ConstantReport, DomainSpec
from .dtn import count_nonpositive_tooth, square_mixed_gap
from .fdlap import MAX_QS, FactorizationError, comb_inertia_count, comb_layout
from .lattice import UNIT_SQUARE, count_rect_dirichlet, count_tooth

# Report columns in order, as (CSV header and JSON key, SweepRecord attribute).
_FIELDS = (("mu", "mu"), ("h", "h"), ("q", "q"), ("s", "s"), ("lambda", "lam"),
           ("n_fd", "n_fd"), ("n_square", "n_square"), ("n_teeth", "n_teeth"),
           ("defect", "defect"), ("h_snapped", "h_snapped"),
           ("wall_time_s", "wall_time_s"), ("error", "error"))
CSV_HEADER = [key for key, _ in _FIELDS]
_record_values = attrgetter(*(attr for _, attr in _FIELDS))


def fmt17(x: float) -> str:
    """Format a float with 17 significant digits; round-trips through float()."""
    x = float(x)
    if x == 0.0:
        x = 0.0  # normalize -0.0 so reruns serialize identically
    return format(x, ".17g")


# ---------------------------------------------------------------------------
# configuration and records
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentConfig:
    """Sweep parameters: thresholds mu_list at tooth height h, over q and s grids.

    Lists are normalized to sorted tuples with duplicates dropped, so a
    config determines exactly one record per (mu, q, s).  Empty lists are
    allowed and simply produce an empty sweep.
    """

    mu_list: tuple[float, ...]
    h: float
    q_list: tuple[int, ...]
    s_list: tuple[int, ...]
    out_path: str = ""

    def __post_init__(self) -> None:
        mu_norm = [positive_real(f"mu_list[{i}]", mu) for i, mu in enumerate(self.mu_list)]
        h = positive_real("h", self.h)
        q_norm = [positive_int(f"q_list[{i}]", q) for i, q in enumerate(self.q_list)]
        s_norm = [positive_int(f"s_list[{i}]", s) for i, s in enumerate(self.s_list)]
        if not isinstance(self.out_path, str):
            raise ValueError(f"out_path must be a string, got {self.out_path!r}")
        if q_norm and s_norm:
            worst = max(q_norm) * max(s_norm)
            if worst > MAX_QS:
                raise ValueError(
                    f"q_list/s_list exceed the grid guard: max(q)*max(s) = "
                    f"{worst} > {MAX_QS}")
        object.__setattr__(self, "mu_list", tuple(sorted(set(mu_norm))))
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "q_list", tuple(sorted(set(q_norm))))
        object.__setattr__(self, "s_list", tuple(sorted(set(s_norm))))


@dataclass(frozen=True)
class SweepRecord:
    """One sweep row.  n_teeth already includes the factor q (q tooth copies).

    On an FD failure, n_fd, defect, and possibly h_snapped are None and
    error holds the message; the exact lattice counts are still filled in.
    """

    mu: float
    h: float
    q: int
    s: int
    lam: float
    n_fd: int | None
    n_square: int | None
    n_teeth: int | None
    defect: int | None
    h_snapped: float | None
    wall_time_s: float
    error: str | None = None


@dataclass(frozen=True)
class FitResult:
    """Least-squares fit of n_fd = c_hat*q^2 + beta_hat*q over a q range."""

    c_hat: float
    beta_hat: float
    residual_max: float
    q_range: tuple[int, int]

    def __post_init__(self) -> None:
        if self.residual_max < 0.0:
            raise ValueError("residual_max must be >= 0")


# ---------------------------------------------------------------------------
# sweep execution
# ---------------------------------------------------------------------------

def _sweep_one(mu: float, h: float, q: int, s: int) -> SweepRecord:
    t0 = perf_counter()
    spec = DomainSpec(q, h)
    lam = mu * (q * q)
    n_square = count_rect_dirichlet(UNIT_SQUARE, lam).count
    n_teeth = q * count_tooth(spec, lam).count
    n_fd = defect = h_snapped = error = None
    try:
        h_snapped = comb_layout(spec, s).h_snapped
        n_fd = comb_inertia_count(spec, s, lam).count
        defect = n_fd - n_square - n_teeth
    except (FactorizationError, ValueError) as exc:
        error = f"{type(exc).__name__}: {exc}"
    return SweepRecord(mu=float(mu), h=float(h), q=q, s=s, lam=lam,
                       n_fd=n_fd, n_square=n_square, n_teeth=n_teeth,
                       defect=defect, h_snapped=h_snapped,
                       wall_time_s=perf_counter() - t0, error=error)


def run_sweep(config: ExperimentConfig) -> list[SweepRecord]:
    """Compute one SweepRecord per (mu, q, s), sorted by (mu, q, s).

    FD failures are captured per record via the error field; the sweep never
    aborts.  Records are computed one after another in that order.  LAPACK,
    which the comb counter loads on first use, is imported before the first
    record is timed, so no wall_time_s carries that one-off cost.
    """
    import scipy.linalg.lapack  # noqa: F401

    return [_sweep_one(mu, config.h, q, s)
            for mu in config.mu_list
            for q in config.q_list
            for s in config.s_list]


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------

def _shared_params(records: list[SweepRecord], caller: str) -> None:
    if len({(r.mu, r.h, r.s) for r in records}) > 1:
        raise ValueError(f"{caller} requires records sharing (mu, h, s); got "
                         f"mixed parameters")


def fit_constant(records: list[SweepRecord]) -> FitResult:
    """Fit n_fd = c_hat*q^2 + beta_hat*q by least squares.

    Records must share (mu, h, s) and cover at least 3 distinct q; errored
    records are excluded first.  The explicit beta*q term absorbs the O(q)
    remainder instead of forcing it into c_hat.
    """
    clean = [r for r in records if r.error is None and r.n_fd is not None]
    if not clean:
        raise ValueError("fit_constant needs at least one error-free record")
    _shared_params(clean, "fit_constant")
    qs = sorted({r.q for r in clean})
    if len(qs) < 3:
        raise ValueError(f"fit requires >= 3 distinct q values, got {len(qs)}")
    design = np.array([[r.q * r.q, r.q] for r in clean], dtype=np.float64)
    counts = np.array([r.n_fd for r in clean], dtype=np.float64)
    coef, *_ = np.linalg.lstsq(design, counts, rcond=None)
    residual = counts - design @ coef
    return FitResult(c_hat=float(coef[0]), beta_hat=float(coef[1]),
                     residual_max=float(np.max(np.abs(residual))),
                     q_range=(qs[0], qs[-1]))


def defect_series(records: list[SweepRecord]) -> list[tuple[int, int, int]]:
    """Pair each measured defect with its computable bound, sorted by q.

    The bound square_mixed_gap(lam) + q*count_nonpositive_tooth(q, h, lam)
    dominates the interface term in the decoupling argument.  Records must
    share (mu, h, s); errored records are skipped.
    """
    clean = [r for r in records if r.error is None and r.defect is not None]
    _shared_params(clean, "defect_series")
    out = []
    for r in sorted(clean, key=lambda r: r.q):
        bound = square_mixed_gap(r.lam) + r.q * count_nonpositive_tooth(r.q, r.h, r.lam)
        out.append((r.q, r.defect, bound))
    return out


# ---------------------------------------------------------------------------
# report files
# ---------------------------------------------------------------------------

def _cell(v: object) -> str:
    """A CSV cell: None is empty, a float has 17 significant digits."""
    if v is None:
        return ""
    return fmt17(v) if isinstance(v, float) else str(v)


def _render_json(value, level: int = 0) -> str:
    """Serialize to JSON with floats at 17 significant digits.

    json.dump would use repr's shortest form; rendering by hand keeps float
    formatting byte-stable and identical to the CSV and console output.
    """
    pad = "  " * (level + 1)
    close = "  " * level
    if isinstance(value, dict):
        if not value:
            return "{}"
        parts = [f"{pad}{json.dumps(str(k))}: {_render_json(v, level + 1)}"
                 for k, v in value.items()]
        return "{\n" + ",\n".join(parts) + "\n" + close + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        parts = [f"{pad}{_render_json(v, level + 1)}" for v in value]
        return "[\n" + ",\n".join(parts) + "\n" + close + "]"
    if isinstance(value, str):
        return json.dumps(value)
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return fmt17(value)
    raise TypeError(f"cannot serialize {type(value).__name__}")


def write_report(config: ExperimentConfig, records: list[SweepRecord],
                 fits: dict[float, FitResult],
                 constants: dict[float, ConstantReport],
                 out_base: str | None = None) -> tuple[str, str]:
    """Write <base>.csv and <base>.json; returns the two paths.

    base comes from out_base or, if omitted, config.out_path.  fits and
    constants are keyed by mu; keys become 17-significant-digit strings in
    the JSON.  Output is idempotent: identical inputs give identical bytes.
    """
    base = config.out_path if out_base is None else out_base
    if not base:
        raise ValueError("no output path: set config.out_path or pass out_base")
    csv_path = base + ".csv"
    json_path = base + ".json"

    report = {
        "config": {"mu_list": list(config.mu_list), "h": config.h,
                   "q_list": list(config.q_list), "s_list": list(config.s_list),
                   "out_path": config.out_path},
        "records": [dict(zip(CSV_HEADER, _record_values(r))) for r in records],
        "fits": {fmt17(mu): {"c_hat": f.c_hat, "beta_hat": f.beta_hat,
                             "residual_max": f.residual_max}
                 for mu, f in sorted(fits.items())},
        "constants": {fmt17(mu): {"c": c.c, "c_weyl": c.c_weyl,
                                  "delta": c.delta, "cutoff_m": c.cutoff_m}
                      for mu, c in sorted(constants.items())},
    }
    try:
        with open(csv_path, "w", newline="", encoding="utf-8") as f:
            writer = csv.writer(f, lineterminator="\n")
            writer.writerow(CSV_HEADER)
            for r in records:
                writer.writerow([_cell(v) for v in _record_values(r)])
        with open(json_path, "w", newline="", encoding="utf-8") as f:
            f.write(_render_json(report) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write report files at base {base!r}: {exc}") from exc
    return csv_path, json_path
