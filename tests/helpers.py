"""Shared oracle helpers for the tests.

Everything here recomputes quantities by routes independent of the library
implementation (RK4 shooting, geometric membership scans, exact rational
least squares, scalar column loops), so agreement is meaningful evidence
rather than tautology.
"""

from __future__ import annotations

import math
from fractions import Fraction

from combweyl.lattice import FLOOR_GUARD, tie_threshold


def rho_shooting(k: int, q: int, h: float, lam: float, steps: int = 20000) -> float:
    """Dirichlet-to-Neumann value of a tooth mode by RK4 shooting.

    Integrates v'' + (lam - 4*pi^2*k^2*q^2) v = 0 from v(h) = 0, v'(h) = -1
    backward to x = 0 with fixed-step RK4, then returns -v'(0)/v(0).
    """
    s = lam - 4.0 * math.pi ** 2 * (k * q) ** 2
    dx = -h / steps
    v, w = 0.0, -1.0
    for _ in range(steps):
        k1v, k1w = w, -s * v
        v2, w2 = v + 0.5 * dx * k1v, w + 0.5 * dx * k1w
        k2v, k2w = w2, -s * v2
        v3, w3 = v + 0.5 * dx * k2v, w + 0.5 * dx * k2w
        k3v, k3w = w3, -s * v3
        v4, w4 = v + dx * k3v, w + dx * k3w
        k4v, k4w = w4, -s * v4
        v += dx * (k1v + 2.0 * k2v + 2.0 * k3v + k4v) / 6.0
        w += dx * (k1w + 2.0 * k2w + 2.0 * k3w + k4w) / 6.0
    return -w / v


def comb_membership_nodes(q: int, h: float, s: int) -> list[tuple[int, int]]:
    """Interior lattice nodes of the comb by a pointwise geometric test.

    Scans every lattice point (i*delta, j*delta) with delta = 1/(2qs) and
    keeps those strictly inside the domain (square interior, or strictly
    inside a tooth column between the opening at y = 1 and the snapped top).
    Returns (j, i) pairs in row-major order, matching the grid's node ids.
    """
    x_cells = 2 * q * s
    h_rows = round(h * x_cells)
    nodes = []
    for j in range(0, x_cells + h_rows + 1):
        for i in range(0, x_cells + 1):
            if 0 < j < x_cells:
                inside = 0 < i < x_cells
            elif x_cells <= j < x_cells + h_rows:
                t = i // (2 * s)
                inside = 2 * s * t < i < 2 * s * t + s
            else:
                inside = False
            if inside:
                nodes.append((j, i))
    return nodes


def exact_quadratic_fit(qs: list[int], counts: list[int]) -> tuple[Fraction, Fraction]:
    """Solve the normal equations of N = c*q^2 + beta*q in exact rationals."""
    s4 = sum(Fraction(q) ** 4 for q in qs)
    s3 = sum(Fraction(q) ** 3 for q in qs)
    s2 = sum(Fraction(q) ** 2 for q in qs)
    b1 = sum(Fraction(n) * q * q for n, q in zip(counts, qs))
    b2 = sum(Fraction(n) * q for n, q in zip(counts, qs))
    det = s4 * s2 - s3 * s3
    c = (b1 * s2 - s3 * b2) / det
    beta = (s4 * b2 - s3 * b1) / det
    return c, beta


def loop_rect_dirichlet(a: float, b: float, lam: float) -> int:
    """Scalar column loop for the Dirichlet count of an a x b rectangle.

    The reference for lattice.count_rect_dirichlet: the same fuzzed threshold
    and float expressions, one column at a time until the first m whose
    remainder is not positive.
    """
    if lam <= 0.0:
        return 0
    lam_eff = tie_threshold(lam)
    pi_sq = math.pi ** 2
    a_sq = a * a
    b_over_pi = b / math.pi
    count = 0
    m = 1
    while True:
        rem = lam_eff - pi_sq * m * m / a_sq
        if rem <= 0.0:
            return count
        count += int(b_over_pi * math.sqrt(rem))
        m += 1


def loop_rect_neumann(a: float, b: float, lam: float) -> int:
    """Scalar column loop for the Neumann count (m, n >= 0) of an a x b rectangle."""
    if lam < 0.0:
        return 0
    lam_eff = tie_threshold(lam)
    pi_sq = math.pi ** 2
    a_sq = a * a
    b_over_pi = b / math.pi
    count = 0
    m = 0
    while True:
        rem = lam_eff - pi_sq * m * m / a_sq
        if rem < 0.0:
            return count
        count += 1 + int(b_over_pi * math.sqrt(rem))
        m += 1


def loop_tooth(q: int, h: float, lam: float) -> int:
    """Scalar mode loop for the Dirichlet count of one (1/(2q)) x h tooth."""
    if lam <= 0.0:
        return 0
    mu = lam / (q * q)
    scale = q * h / math.pi
    count = 0
    l = 1
    while True:
        rem = mu - 4.0 * math.pi ** 2 * l * l
        if rem <= 0.0:
            return count
        count += int(scale * math.sqrt(rem) * (1.0 + FLOOR_GUARD))
        l += 1


# Largest comb that exact_comb_count takes: its fractions grow with the
# elimination, so its cost climbs steeply with n (about 0.15 s at n = 85
# and 0.9 s at n = 121 on a 2-vCPU x86 host).
EXACT_MAX_N = 100


def exact_comb_count(q: int, h: float, s: int, theta: float) -> int:
    """#(FD comb eigenvalues <= theta), decided in rationals with no rounding.

    The FD comb operator is d2*K with d2 = (2qs)^2 and K the integer 5-point
    stencil (4 on the diagonal, -1 between neighbours) on the nodes of
    comb_membership_nodes.  A float theta is a rational, so with
    t = Fraction(theta)/d2 the count is neg(K - tI) + null(K - tI)
    (Sylvester's law), read off a symmetric elimination in Fraction.  An
    exact zero pivot is paired with the first nonzero entry b of its row
    into a 2x2 pivot [[0, b], [b, c]], whose determinant -b^2 < 0 gives one
    negative and one positive eigenvalue; a zero pivot whose row is zero is
    a null direction.  Limited to n <= EXACT_MAX_N.
    """
    nodes = comb_membership_nodes(q, h, s)
    if len(nodes) > EXACT_MAX_N:
        raise ValueError(f"exact count limited to n <= {EXACT_MAX_N}, got {len(nodes)}")
    ids = {node: i for i, node in enumerate(nodes)}
    t = Fraction(theta) / (2 * q * s) ** 2
    rows = [{i: 4 - t} for i in range(len(nodes))]
    for (y, x), i in ids.items():
        for nb in ((y - 1, x), (y, x - 1), (y, x + 1), (y + 1, x)):
            if nb in ids:
                rows[i][ids[nb]] = Fraction(-1)
    negative = null = 0
    done = set()
    for k in range(len(rows)):
        if k in done:
            continue
        partners = [j for j in rows[k] if j != k]
        if rows[k].get(k, 0):
            block = [k]
            negative += rows[k][k] < 0
        elif partners:
            block = [k, min(partners)]
            negative += 1
        else:
            null += 1
            done.add(k)
            continue
        _eliminate(rows, block)
        done.update(block)
    return negative + null


def _eliminate(rows: list[dict[int, Fraction]], block: list[int]) -> None:
    """Replace the rows coupled to block by their Schur complement against it.

    rows holds the nonzero entries of a symmetric matrix, row by row; the
    block's own rows are left as they are and dropped from every other row.
    """
    b = [[rows[r].get(c, 0) for c in block] for r in block]
    if len(block) == 1:
        inv = [[1 / b[0][0]]]
    else:
        det = b[0][0] * b[1][1] - b[0][1] * b[1][0]
        inv = [[b[1][1] / det, -b[0][1] / det], [-b[1][0] / det, b[0][0] / det]]
    coupled = sorted({i for r in block for i in rows[r]} - set(block))
    # w[a][l] = (B^-1 * rows[block])[a][l] for each l coupled to the block.
    w = [{l: sum(inv[a][c] * rows[r].get(l, 0) for c, r in enumerate(block))
          for l in coupled} for a in range(len(block))]
    for i in coupled:
        left = [rows[i].pop(r, 0) for r in block]
        for l in coupled:
            v = rows[i].get(l, 0) - sum(left[a] * w[a][l] for a in range(len(block)))
            if v:
                rows[i][l] = v
            else:
                rows[i].pop(l, None)
