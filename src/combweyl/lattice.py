"""Exact eigenvalue counting for rectangles via lattice-point enumeration.

Dirichlet eigenvalues of an a x b rectangle are pi^2*(m^2/a^2 + n^2/b^2)
with m, n >= 1; Neumann eigenvalues take m, n >= 0.  Counting those at or
below a threshold lambda is a lattice-point count inside an ellipse, done
here in O(sqrt(lambda)*a) time with a closed-form inner count per column.
The column counts are vectorised with numpy: the columns up to just past
the cut are evaluated in chunks of COLUMN_CHUNK, with the float expressions
of a scalar column loop in the same order, so every count is bit-for-bit
the loop's and memory stays bounded for any threshold.  The
enumeration oracle enumerate_rect_eigs is not vectorised; it stays a plain
double loop, independent of the column counts it cross-checks.

Thresholds are fuzzed multiplicatively by tie_tol so that eigenvalues
landing exactly on lambda (up to rounding) are counted as inside.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Literal

import numpy as np

from .analytic import DomainSpec

# Relative fuzz applied to the threshold: eigenvalues in
# [lambda, lambda*(1+TIE_TOL)] count as below threshold.
TIE_TOL = 1e-9

# Relative guard on floor arguments in the tooth mode-count sum, so values
# that are integers up to rounding do not drop a mode.
FLOOR_GUARD = 1e-12

# Columns per numpy chunk in the column counts, so that their memory stays
# at a few MB whatever the threshold.
COLUMN_CHUNK = 1 << 16

CountMethod = Literal["lattice", "fd_inertia", "fd_schur", "closed_form_fd",
                      "dense_oracle"]


@dataclass(frozen=True)
class RectSpec:
    """Axis-aligned rectangle (0, a) x (0, b)."""

    a: float
    b: float

    def __post_init__(self) -> None:
        for name, v in (("a", self.a), ("b", self.b)):
            if not (isinstance(v, (int, float)) and math.isfinite(v)) or v <= 0.0:
                raise ValueError(f"{name} must be finite and > 0, got {v!r}")


@dataclass(frozen=True)
class SpectralCount:
    """An eigenvalue count at threshold lam, tagged with how it was computed."""

    lam: float
    count: int
    method: CountMethod
    tie_tol: float

    def __post_init__(self) -> None:
        if self.count < 0:
            raise ValueError(f"count must be >= 0, got {self.count}")


UNIT_SQUARE = RectSpec(1.0, 1.0)


def _check_lam(lam: float) -> float:
    if not (isinstance(lam, (int, float)) and math.isfinite(lam)):
        raise ValueError(f"lambda must be finite, got {lam!r}")
    return float(lam)


def tie_threshold(lam: float) -> float:
    """Threshold with the tie fuzz applied (only meaningful for lam > 0)."""
    return lam * (1.0 + TIE_TOL) if lam > 0.0 else lam


# ---------------------------------------------------------------------------
# closed-form column counts
# ---------------------------------------------------------------------------

def _columns(start: int, width: float, lam: float) -> range:
    """Column indices start..floor(width*sqrt(lam)/pi) + 2.

    The last index lies past the cut pi^2*m^2/width^2 = lam, so the range
    holds every column a scalar loop would accept.  The margin is 2, not 1,
    because at an exact tie the floor can land one short of the column that
    sits on the cut.
    """
    top = math.floor(width * math.sqrt(lam) / math.pi) + 2
    return range(start, top + 1)


def _chunks(cols: range) -> Iterable[np.ndarray]:
    """cols as float arrays of at most COLUMN_CHUNK consecutive indices.

    Float indices make each product with m bitwise equal to the loop's
    float-times-int arithmetic; the counts summed over chunks are exact
    integer sums, so chunking changes no count.  A single chunk, the usual
    case, is returned in a tuple: a generator costs about 1 us per count.
    """
    if len(cols) <= COLUMN_CHUNK:
        return (np.arange(cols.start, cols.stop, dtype=np.float64),)
    return (np.arange(lo, min(lo + COLUMN_CHUNK, cols.stop), dtype=np.float64)
            for lo in range(cols.start, cols.stop, COLUMN_CHUNK))


def count_rect_dirichlet(rect: RectSpec, lam: float) -> SpectralCount:
    """Count Dirichlet eigenvalues of rect at or below lam.

    For each m >= 1 with pi^2*m^2/a^2 below the fuzzed threshold, the number
    of admissible n >= 1 is floor(b*sqrt(remainder)/pi).
    """
    lam = _check_lam(lam)
    if lam <= 0.0:
        return SpectralCount(lam, 0, "lattice", TIE_TOL)
    lam_eff = tie_threshold(lam)
    pi_sq = math.pi ** 2
    a_sq = rect.a * rect.a
    b_over_pi = rect.b / math.pi
    count = 0
    for m in _chunks(_columns(1, rect.a, lam_eff)):
        rem = lam_eff - pi_sq * m * m / a_sq
        rem = rem[rem > 0.0]
        count += int((b_over_pi * np.sqrt(rem)).astype(np.int64).sum())
    return SpectralCount(lam, count, "lattice", TIE_TOL)


def count_rect_neumann(rect: RectSpec, lam: float) -> SpectralCount:
    """Count Neumann eigenvalues of rect at or below lam (indices m, n >= 0)."""
    lam = _check_lam(lam)
    if lam < 0.0:
        return SpectralCount(lam, 0, "lattice", TIE_TOL)
    lam_eff = tie_threshold(lam)
    pi_sq = math.pi ** 2
    a_sq = rect.a * rect.a
    b_over_pi = rect.b / math.pi
    count = 0
    for m in _chunks(_columns(0, rect.a, lam_eff)):
        rem = lam_eff - pi_sq * m * m / a_sq
        rem = rem[rem >= 0.0]
        # n = 0 always qualifies once m does; positive n add floor(b*sqrt(rem)/pi).
        count += rem.size + int((b_over_pi * np.sqrt(rem)).astype(np.int64).sum())
    return SpectralCount(lam, count, "lattice", TIE_TOL)


def count_tooth(spec: DomainSpec, lam: float) -> SpectralCount:
    """Count Dirichlet eigenvalues of one tooth of spec at or below lam.

    A tooth is a (1/(2q)) x h rectangle, so its eigenvalues are
    4*pi^2*l^2*q^2 + pi^2*k^2/h^2 with l, k >= 1, and the count is the sum
    over propagating l of floor((q*h/pi)*sqrt(mu - 4*pi^2*l^2)) at mu = lam/q^2.
    Floor arguments are expanded by FLOOR_GUARD before truncation.
    """
    lam = _check_lam(lam)
    if lam <= 0.0:
        return SpectralCount(lam, 0, "lattice", FLOOR_GUARD)
    mu = lam / (spec.q * spec.q)
    scale = spec.q * spec.h / math.pi
    count = 0
    for l in _chunks(_columns(1, 1.0 / (2.0 * spec.q), lam)):
        rem = mu - 4.0 * math.pi ** 2 * l * l
        rem = rem[rem > 0.0]
        count += int((scale * np.sqrt(rem) * (1.0 + FLOOR_GUARD)).astype(np.int64).sum())
    return SpectralCount(lam, count, "lattice", FLOOR_GUARD)


# ---------------------------------------------------------------------------
# brute-force enumeration (oracle route)
# ---------------------------------------------------------------------------

def enumerate_rect_eigs(rect: RectSpec, lam: float, max_count: int = 1_000_000) -> list[float]:
    """List all Dirichlet eigenvalues of rect at or below lam, sorted ascending.

    Deliberately a plain double loop with a per-eigenvalue comparison, kept
    independent of the closed-form column counts so the two can cross-check
    each other.  Raises if more than max_count eigenvalues qualify.
    """
    lam = _check_lam(lam)
    if lam <= 0.0:
        return []
    lam_eff = tie_threshold(lam)
    pi_sq = math.pi ** 2
    a_sq = rect.a * rect.a
    b_sq = rect.b * rect.b
    out: list[float] = []
    m = 1
    while pi_sq * m * m / a_sq <= lam_eff:
        n = 1
        while True:
            val = pi_sq * (m * m / a_sq + n * n / b_sq)
            if val > lam_eff:
                break
            out.append(val)
            if len(out) > max_count:
                raise ValueError(
                    f"more than {max_count} eigenvalues at or below {lam}")
            n += 1
        m += 1
    out.sort()
    return out
