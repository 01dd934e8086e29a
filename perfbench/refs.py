"""Independent reference values for checking combweyl's outputs.

Nothing here imports combweyl: spectra come from the sine formula or from
LAPACK (np.linalg.eigvalsh) on a Laplacian this module assembles from the
comb geometry itself, and lattice counts come from a vectorised column
count corrected by exact membership tests.  These routines run only outside
the timed sections and outside set-up.
"""

from __future__ import annotations

import io
import math
import os
import subprocess
import sys

import numpy as np

# The "<=" convention: a value within TIE_REL of the threshold counts as
# inside.  It matches the relative tie fuzz combweyl documents.
TIE_REL = 1e-9

# Relative guard on the tooth count's floor arguments, as combweyl documents.
TOOTH_GUARD = 1e-12

# |em_delta - delta| bound, relative to (h/pi)*sqrt(mu).  The seed stays
# below 1e-13 for mu <= 1e7.
EM_REL_TOL = 1e-10

# Oracle eigenvalues may differ from LAPACK's by this much, relative to the
# largest eigenvalue.
EIG_REL_TOL = 1e-9

def fuzzed(lam: float) -> float:
    return lam * (1.0 + TIE_REL) if lam > 0.0 else lam


def count_le(eigs: np.ndarray, lam: float) -> int:
    return int(np.count_nonzero(eigs <= fuzzed(lam)))


# ---------------------------------------------------------------------------
# discrete spectra
# ---------------------------------------------------------------------------

def rect_fd_eigs(m_cols: int, k_rows: int, delta: float) -> np.ndarray:
    """Sorted 5-point Dirichlet spectrum on an m_cols x k_rows interior grid."""
    sx = np.sin(np.arange(1, m_cols + 1) * math.pi / (2 * (m_cols + 1))) ** 2
    sy = np.sin(np.arange(1, k_rows + 1) * math.pi / (2 * (k_rows + 1))) ** 2
    return np.sort(((4.0 / delta ** 2) * (sx[:, None] + sy[None, :])).ravel())


def rect_fd_eig(m_cols: int, k_rows: int, delta: float, i: int, j: int) -> float:
    """The (i, j) eigenvalue of the same grid, 1 <= i <= m_cols, 1 <= j <= k_rows."""
    return (4.0 / delta ** 2) * (math.sin(i * math.pi / (2 * (m_cols + 1))) ** 2
                                 + math.sin(j * math.pi / (2 * (k_rows + 1))) ** 2)


def comb_mask(q: int, h: float, s: int) -> np.ndarray:
    """Interior-node mask of the comb grid at spacing 1/(2qs), rows = y.

    Square interior, then the tooth rows from the mouth y = 1 up to the row
    below the snapped tooth top round(h*2qs)*delta.
    """
    cells = 2 * q * s
    h_rows = round(h * cells)
    mask = np.zeros((cells + h_rows + 1, cells + 1), dtype=bool)
    mask[1:cells, 1:cells] = True
    if s > 1 and h_rows > 0:
        for t in range(q):
            mask[cells:cells + h_rows, 2 * s * t + 1:2 * s * t + s] = True
    return mask


def dense_laplacian(mask: np.ndarray, delta: float) -> np.ndarray:
    """5-point Dirichlet Laplacian on the True nodes of mask, row-major order."""
    ids = -np.ones(mask.shape, dtype=np.int64)
    ys, xs = np.nonzero(mask)
    n = ys.size
    ids[ys, xs] = np.arange(n)
    a = np.eye(n) * (4.0 / delta ** 2)
    for dy, dx in ((0, 1), (1, 0)):
        nb = ids[ys + dy, xs + dx]
        ok = nb >= 0
        a[np.arange(n)[ok], nb[ok]] = -1.0 / delta ** 2
        a[nb[ok], np.arange(n)[ok]] = -1.0 / delta ** 2
    return a


def comb_fd_eigs(q: int, h: float, s: int) -> np.ndarray:
    return np.linalg.eigvalsh(dense_laplacian(comb_mask(q, h, s), 1.0 / (2 * q * s)))


def comb_fd_eigs_apart(q: int, h: float, s: int) -> np.ndarray:
    """comb_fd_eigs computed in a child interpreter.

    The dense matrix has n^2 doubles (22 MB at n = 1657).  Built in a child,
    it never adds to the peak RSS of the process that measures combweyl.
    """
    out = subprocess.run([sys.executable, os.path.abspath(__file__), str(q), repr(h), str(s)],
                         stdout=subprocess.PIPE, check=True, timeout=120)
    return np.load(io.BytesIO(out.stdout))


def interlacing_bracket(q: int, h: float, s: int, lam: float) -> tuple[int, int]:
    """Exact bounds on the comb FD count from Cauchy interlacing.

    Deleting the q*(s-1) mouth nodes leaves the (2qs-1)^2 square grid and q
    tooth grids of (s-1) x (h_rows-1) nodes, whose spectra are closed-form.
    Then N_S + q*N_T <= n_fd <= N_S + q*N_T + q*(s-1).
    """
    cells = 2 * q * s
    delta = 1.0 / cells
    h_rows = round(h * cells)
    base = count_le(rect_fd_eigs(cells - 1, cells - 1, delta), lam)
    if s > 1 and h_rows > 1:
        base += q * count_le(rect_fd_eigs(s - 1, h_rows - 1, delta), lam)
    mouth = q * (s - 1) if h_rows > 0 else 0
    return base, base + mouth


# ---------------------------------------------------------------------------
# continuum lattice counts
# ---------------------------------------------------------------------------

def _lattice_count(a: float, b: float, lam: float, first: int) -> int:
    """Pairs (m, n) >= first with pi^2*(m^2/a^2 + n^2/b^2) <= fuzzed(lam)."""
    lim = fuzzed(lam)
    if lim < 0.0:
        return 0
    m = np.arange(first, int(a * math.sqrt(lim) / math.pi) + 2, dtype=np.float64)
    rem = lim - math.pi ** 2 * m ** 2 / a ** 2
    m, rem = m[rem >= 0.0], rem[rem >= 0.0]
    n = np.floor(b * np.sqrt(rem) / math.pi)

    def inside(nv: np.ndarray) -> np.ndarray:
        return math.pi ** 2 * (m ** 2 / a ** 2 + nv ** 2 / b ** 2) <= lim

    n = np.where(inside(n + 1.0), n + 1.0, n)
    n = np.where((n >= first) & ~inside(n), n - 1.0, n)
    return int(np.sum(n - first + 1.0))


def dirichlet_count(a: float, b: float, lam: float) -> int:
    return _lattice_count(a, b, lam, 1)


def neumann_count(a: float, b: float, lam: float) -> int:
    return _lattice_count(a, b, lam, 0)


def tooth_count(q: int, h: float, lam: float) -> int:
    """Dirichlet count of one (1/(2q)) x h tooth, with the tooth's tie rule.

    count_tooth fuzzes its floor arguments by TOOTH_GUARD instead of fuzzing
    lambda by TIE_REL, so this reference does the same.
    """
    mu = lam / (q * q)
    l = np.arange(1, int(math.sqrt(max(mu, 0.0)) / (2.0 * math.pi)) + 2, dtype=np.float64)
    rem = mu - 4.0 * math.pi ** 2 * l ** 2
    rem = rem[rem > 0.0]
    return int(np.sum(np.floor((q * h / math.pi) * np.sqrt(rem) * (1.0 + TOOTH_GUARD))))


# ---------------------------------------------------------------------------
# analytic constants and DtN modes
# ---------------------------------------------------------------------------

def theorem_c(mu: float, h: float) -> tuple[int, float]:
    """(cutoff m, c(mu)) from the closed form, by direct summation."""
    m = 0
    while 4.0 * math.pi ** 2 * (m + 1) ** 2 <= mu:
        m += 1
    terms = [math.sqrt(max(0.0, 1.0 - 4.0 * math.pi ** 2 * l * l / mu))
             for l in range(1, m + 1)]
    return m, mu / (4.0 * math.pi) + (h / math.pi) * math.sqrt(mu) * math.fsum(terms)


def weyl_c(mu: float, h: float) -> float:
    return (2.0 + h) * mu / (8.0 * math.pi) - h * math.sqrt(mu) / (2.0 * math.pi)


def dtn_nonpositive(q: int, h: float, lam: float) -> int:
    """Propagating tooth modes k with omega*cot(omega*h) <= 0."""
    count = 0
    k = 1
    while lam - 4.0 * math.pi ** 2 * (k * q) ** 2 > 0.0:
        w = math.sqrt(lam - 4.0 * math.pi ** 2 * (k * q) ** 2)
        if w * math.cos(w * h) / math.sin(w * h) <= 0.0:
            count += 1
        k += 1
    return count


if __name__ == "__main__":
    # python3 refs.py Q H S: the comb's FD spectrum, as .npy on standard output
    np.save(sys.stdout.buffer, comb_fd_eigs(int(sys.argv[1]), float(sys.argv[2]),
                                            int(sys.argv[3])))
