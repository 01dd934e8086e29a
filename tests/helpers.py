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
