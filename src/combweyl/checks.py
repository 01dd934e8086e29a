"""Cross-checks of the counters against routes that share no code with them.

`combweyl selftest` and the acceptance tests run these same checks on
samples of different sizes: each check takes its seed, draw count or grid
lists as arguments and returns None when it passes, else a one-line
description of the first failure.  `import combweyl` does not load this
module, and it loads no SciPy module itself.
"""

from __future__ import annotations

import math

import numpy as np

from . import analytic, dtn, fdlap, lattice
from .analytic import DomainSpec


def lattice_vs_enumeration(seed: int, draws: int) -> str | None:
    """Closed-form rectangle counts equal a brute-force enumeration."""
    rng = np.random.default_rng(seed)
    for _ in range(draws):
        rect = lattice.RectSpec(float(rng.uniform(0.2, 3.0)),
                                float(rng.uniform(0.2, 3.0)))
        lam = float(rng.uniform(0.0, 600.0))
        fast = lattice.count_rect_dirichlet(rect, lam).count
        slow = len(lattice.enumerate_rect_eigs(rect, lam))
        if fast != slow:
            return f"rect {rect} lam={lam}: closed-form {fast} != enumerated {slow}"
    return None


def tooth_vs_rect(seed: int, draws: int) -> str | None:
    """The tooth count equals the Dirichlet count of its (1/(2q)) x h rectangle."""
    rng = np.random.default_rng(seed)
    for _ in range(draws):
        q = int(rng.integers(1, 7))
        h = float(rng.uniform(0.3, 2.5))
        lam = float(rng.uniform(0.0, 400.0 * q * q))
        tooth = lattice.count_tooth(DomainSpec(q, h), lam).count
        rect = lattice.count_rect_dirichlet(
            lattice.RectSpec(1.0 / (2.0 * q), h), lam).count
        if tooth != rect:
            return f"q={q} h={h} lam={lam}: tooth {tooth} != rect {rect}"
    return None


def em_identity(pairs: list[tuple[float, float]]) -> str | None:
    """The Euler-Maclaurin split sums to c - c_weyl within 1e-8 at each (mu, h)."""
    for mu, h in pairs:
        rep = analytic.em_decomposition(mu, h)
        if abs(rep.em_delta - rep.delta) > 1e-8:
            return f"mu={mu} h={h}: em {rep.em_delta} vs direct {rep.delta}"
    return None


def crossover_signs(hs: list[float]) -> str | None:
    """c - c_weyl is positive at mu = 4, within 1e-12 of 0 at 16, negative at 36."""
    for h in hs:
        signs = [sign for _, _, sign in analytic.crossover_scan([4.0, 16.0, 36.0], h)]
        if signs != [1, 0, -1]:
            return f"h={h}: signs at mu=4,16,36: {signs} != [1, 0, -1]"
    return None


def closed_form_delta(seed: int, draws: int) -> str | None:
    """Below the first cutoff, c - c_weyl = h*(4*sqrt(mu) - mu)/(8*pi) to 1e-12 relative."""
    rng = np.random.default_rng(seed)
    for _ in range(draws):
        mu = float(rng.uniform(1e-6, analytic.FOUR_PI_SQ * (1.0 - 1e-9)))
        h = float(rng.uniform(1e-3, 4.0))
        expect = h * (4.0 * math.sqrt(mu) - mu) / (8.0 * math.pi)
        got = analytic.theorem_constant(mu, h) - analytic.weyl_constant(mu, h)
        if abs(got - expect) > 1e-12 * max(abs(expect), 1e-15):
            return f"mu={mu} h={h}: delta {got} vs closed form {expect}"
    return None


def dtn_positivity(seed: int, draws: int) -> str | None:
    """Tooth DtN values of modes above the cutoff are positive.

    A draw on a Dirichlet pole raises DirichletPoleError rather than being
    skipped.
    """
    rng = np.random.default_rng(seed)
    for _ in range(draws):
        q = int(rng.integers(1, 5))
        h = float(rng.uniform(0.2, 3.0))
        lam = float(rng.uniform(0.5, 900.0))
        k = analytic.mode_cutoff(lam / (q * q)) + 1 + int(rng.integers(0, 4))
        rho = dtn.tooth_mode_eigenvalue(k, q, h, lam)
        if rho <= 0.0:
            return f"super-cutoff mode k={k} q={q} h={h} lam={lam}: rho={rho}"
    return None


def dtn_counts() -> str | None:
    """One nonpositive tooth mode at (q, h, lam) = (1, 1, 45), none at lam = 100."""
    low = dtn.count_nonpositive_tooth(1, 1.0, 45.0)
    high = dtn.count_nonpositive_tooth(1, 1.0, 100.0)
    if (low, high) != (1, 0):
        return f"count_nonpositive_tooth at 45, 100: {(low, high)} != (1, 0)"
    return None


def random_small_operator(rng: np.random.Generator) -> tuple[fdlap.DiscreteOperator, str]:
    """A random rectangle or comb operator within the dense oracle's size cap, and a label."""
    if rng.random() < 0.5:
        m = int(rng.integers(1, 17))
        k = int(rng.integers(1, 17))
        delta = float(rng.uniform(0.04, 0.6))
        return (fdlap.build_rect_operator(m, k, delta),
                f"rect(m={m},k={k},delta={delta:.4f})")
    while True:
        q = int(rng.integers(1, 4))
        s = int(rng.integers(1, 5))
        h = float(rng.uniform(0.2, 2.0))
        grid = fdlap.build_comb_grid(DomainSpec(q, h), s)
        if grid.n <= fdlap.DENSE_MAX_N:
            return (fdlap.assemble_dirichlet_operator(grid),
                    f"comb(q={q},s={s},h={h:.4f})")


def gap_midpoints(eigs: np.ndarray, rng: np.random.Generator,
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


def inertia_vs_dense(seed: int, operators: int, thresholds: int) -> str | None:
    """inertia_count equals the dense LAPACK count in spectral gaps of random operators."""
    rng = np.random.default_rng(seed)
    for _ in range(operators):
        op, label = random_small_operator(rng)
        eigs = fdlap.dense_eig_oracle(op)
        for lam, want in gap_midpoints(eigs, rng, thresholds):
            got = fdlap.inertia_count(op, lam).count
            if got != want:
                return f"{label} lam={lam}: inertia {got} != dense {want}"
    return None


def inertia_vs_closed_form(shapes: list[tuple[int, int]], deltas: list[float],
                           lams: list[float]) -> str | None:
    """inertia_count equals the closed-form FD rectangle count on every grid and lam."""
    for m, k in shapes:
        for delta in deltas:
            op = fdlap.build_rect_operator(m, k, delta)
            for lam in lams:
                got = fdlap.inertia_count(op, lam).count
                want = fdlap.fd_rect_count_closed_form(m, k, delta, lam).count
                if got != want:
                    return (f"M={m} K={k} delta={delta} lam={lam}: "
                            f"inertia {got} != closed form {want}")
    return None


def square_convergence(cells: list[int]) -> str | None:
    """The FD unit square at delta = 1/c counts the continuum's 6 eigenvalues <= 100."""
    for c in cells:
        got = fdlap.inertia_count(fdlap.build_rect_operator(c - 1, c - 1, 1.0 / c),
                                  100.0).count
        if got != 6:
            return f"unit square at delta=1/{c}: count {got} != 6"
    return None
