"""Closed-form eigenvalue-count coefficients for comb domains.

A comb domain is the open unit square with q rectangular teeth attached
along its top edge.  Each tooth has width 1/(2q) and height h, and the
tooth openings start at the left edge, so tooth t occupies
[t/q, t/q + 1/(2q)] x [1, 1+h] for t = 0, ..., q-1.

Counting Dirichlet eigenvalues below the scaled threshold lambda = mu*q^2
gives N(mu*q^2) = c(mu)*q^2 + O(q), where

    c(mu) = mu/(4*pi) + (h/pi)*sqrt(mu) * sum_{l=1}^{m} sqrt(1 - 4*pi^2*l^2/mu)

and m = floor(sqrt(mu)/(2*pi)) counts the tooth cross-modes that propagate
at threshold mu.  The naive two-term Weyl expansion, fed the comb's area
1 + h/2 and perimeter 4 + 2*h*q, predicts a different coefficient

    c_weyl(mu) = (2+h)*mu/(8*pi) - h*sqrt(mu)/(2*pi).

This module evaluates both coefficients, their difference delta, and an
Euler-Maclaurin decomposition of delta that separates the endpoint, tail,
and oscillatory contributions of the mode sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._args import finite_real, positive_int, positive_real

TWO_PI = 2.0 * math.pi
FOUR_PI_SQ = 4.0 * math.pi ** 2

# Below this magnitude a computed delta is reported as sign 0.
SIGN_ZERO_TOL = 1e-12


# ---------------------------------------------------------------------------
# domain description
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DomainSpec:
    """Comb domain with q teeth of width 1/(2q) and height h on the unit square."""

    q: int
    h: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "q", positive_int("q", self.q))
        finite_real("h", self.h)
        if self.h <= 0.0:
            raise ValueError(f"h must be > 0, got {self.h}")

    @property
    def area(self) -> float:
        """Total area: unit square plus q teeth of size (1/(2q)) x h."""
        return 1.0 + self.h / 2.0

    @property
    def perimeter(self) -> float:
        """Boundary length: 4 for the square outline plus 2h per tooth wall pair."""
        return 4.0 + 2.0 * self.h * self.q


@dataclass(frozen=True)
class EulerMaclaurinTerms:
    """Endpoint, tail, and periodic-part contributions to the mode-sum defect.

    All three are dimensionless; the defect c - c_weyl equals
    (h/pi)*sqrt(mu) * (endpoint - tail + periodic).
    """

    endpoint: float
    tail: float
    periodic: float


@dataclass(frozen=True)
class ConstantReport:
    """Evaluated count coefficients at a single (mu, h)."""

    mu: float
    h: float
    cutoff_m: int
    c: float
    c_weyl: float
    delta: float
    em_terms: EulerMaclaurinTerms | None = None

    @property
    def em_delta(self) -> float | None:
        """Delta reassembled from the Euler-Maclaurin terms, or None if absent."""
        if self.em_terms is None:
            return None
        t = self.em_terms
        return (self.h / math.pi) * math.sqrt(self.mu) * (t.endpoint - t.tail + t.periodic)


# ---------------------------------------------------------------------------
# coefficient formulas
# ---------------------------------------------------------------------------

def mode_cutoff(mu: float) -> int:
    """Number of tooth cross-modes below threshold: floor(sqrt(mu)/(2*pi)).

    This is the largest integer l with 4*pi^2*l^2 <= mu, i.e. the number of
    transverse tooth modes whose cutoff lies at or below mu.
    """
    positive_real("mu", mu)
    return int(math.floor(math.sqrt(mu) / TWO_PI))


def weyl_constant(mu: float, h: float) -> float:
    """Two-term Weyl prediction for the count coefficient.

    Equals (2+h)*mu/(8*pi) - h*sqrt(mu)/(2*pi), but is evaluated grouped as
    mu/(4*pi) + h*(mu - 4*sqrt(mu))/(8*pi).  The grouping is algebraically
    identical and shares its leading term with theorem_constant, so the
    difference of the two stays fully accurate near its zero at mu = 16.
    """
    positive_real("mu", mu)
    positive_real("h", h)
    return mu / (4.0 * math.pi) + h * (mu - 4.0 * math.sqrt(mu)) / (8.0 * math.pi)


def _theorem_constant_and_cutoff(mu: float, h: float) -> tuple[float, int]:
    """(theorem_constant(mu, h), mode_cutoff(mu)), checking mu before h."""
    m = mode_cutoff(mu)
    positive_real("h", h)
    terms = []
    for l in range(1, m + 1):
        r = 1.0 - FOUR_PI_SQ * l * l / mu
        # Clip the tiny negative that floor-boundary rounding can produce.
        terms.append(math.sqrt(r) if r > 0.0 else 0.0)
    return mu / (4.0 * math.pi) + (h / math.pi) * math.sqrt(mu) * math.fsum(terms), m


def theorem_constant(mu: float, h: float) -> float:
    """True count coefficient: bulk term plus one term per propagating tooth mode.

    c(mu) = mu/(4*pi) + (h/pi)*sqrt(mu) * sum_{l=1}^{m} sqrt(1 - 4*pi^2*l^2/mu)
    with m = mode_cutoff(mu).  The sum is accumulated with math.fsum.
    """
    return _theorem_constant_and_cutoff(mu, h)[0]


def constant_report(mu: float, h: float) -> ConstantReport:
    """Evaluate c, c_weyl, and delta = c - c_weyl at one (mu, h)."""
    c, m = _theorem_constant_and_cutoff(mu, h)
    cw = weyl_constant(mu, h)
    return ConstantReport(mu=float(mu), h=float(h), cutoff_m=m,
                          c=c, c_weyl=cw, delta=c - cw)


# ---------------------------------------------------------------------------
# Euler-Maclaurin decomposition of delta
# ---------------------------------------------------------------------------

def _segment_integral(a: float, m: int) -> float:
    """Integral of sqrt(1 - x^2/a^2) from m to a, in closed form.

    With t = x/a this is a * integral_{m/a}^{1} sqrt(1-t^2) dt, a circular
    segment with antiderivative (t*sqrt(1-t^2) + asin(t))/2.
    """
    t0 = min(m / a, 1.0)
    seg = (math.pi / 4.0) - 0.5 * (t0 * math.sqrt(max(0.0, 1.0 - t0 * t0)) + math.asin(t0))
    return a * seg


def _periodic_part(a: float, m: int) -> float:
    """Integral of ({x} - 1/2) * f'(x) over [0, m] for f(x) = sqrt(1 - x^2/a^2).

    Evaluated in closed form.  On the unit interval [l-1, l] the substitution x = a*sin(theta) turns the
    integrand into -(a*sin(theta) - shift)*sin(theta) with shift = l - 1/2,
    which stays smooth even where f' blows up at x = a.  Its antiderivative is

        F(theta) = -a*(theta/2 - sin(2*theta)/4) - shift*cos(theta),

    and the sum of F(theta_l) - F(theta_{l-1}) over l = 1..m, with
    sin(theta_l) = l/a, telescopes to

        sum_{l=1}^{m-1} f(l) + (1 - m)*f(m)/2 + 1/2 - (a/2)*asin(m/a),

    which is accumulated with math.fsum.
    """
    t = min(m / a, 1.0)
    terms = [math.sqrt(1.0 - l * l / (a * a)) for l in range(1, m)]
    terms += [0.5 * (1 - m) * math.sqrt(max(0.0, 1.0 - t * t)), 0.5,
              -0.5 * a * math.asin(t)]
    return math.fsum(terms)


def em_decomposition(mu: float, h: float) -> ConstantReport:
    """Split delta = c - c_weyl into Euler-Maclaurin endpoint, tail, and periodic parts.

    Writing f(x) = sqrt(1 - 4*pi^2*x^2/mu) and a = sqrt(mu)/(2*pi), the mode
    sum over l = 1..m differs from the integral of f over [0, a] (which is the
    Weyl perimeter correction) by

        endpoint = f(m)/2
        tail     = integral of f from m to a      (closed-form circular segment)
        periodic = integral of ({x} - 1/2) f'(x) over [0, m]   (closed form)

    and delta = (h/pi)*sqrt(mu) * (endpoint - tail + periodic).  Requires
    mu >= 4*pi^2 so that at least one mode propagates; below that threshold
    delta reduces to the elementary closed form h*(4*sqrt(mu) - mu)/(8*pi).
    """
    base = constant_report(mu, h)
    m = base.cutoff_m
    if m < 1:
        raise ValueError(
            f"em_decomposition requires mu >= 4*pi^2 (~{FOUR_PI_SQ:.6f}), got {mu!r}")
    a = math.sqrt(mu) / TWO_PI
    fm_sq = 1.0 - m * m / (a * a)
    endpoint = 0.5 * math.sqrt(max(0.0, fm_sq))
    tail = _segment_integral(a, m)
    periodic = _periodic_part(a, m)
    return ConstantReport(mu=base.mu, h=base.h, cutoff_m=m, c=base.c,
                          c_weyl=base.c_weyl, delta=base.delta,
                          em_terms=EulerMaclaurinTerms(endpoint, tail, periodic))


# ---------------------------------------------------------------------------
# sign scan
# ---------------------------------------------------------------------------

def crossover_scan(mu_grid: list[float], h: float) -> list[tuple[float, float, int]]:
    """Tabulate (mu, delta, sign) over a grid of thresholds.

    The sign is -1, 0, or +1, with |delta| <= 1e-12 reported as 0 so that the
    exact root of delta at mu = 16 (for any h) lands on sign 0 when sampled.
    The grid must be nonempty, strictly increasing, and positive.
    """
    if len(mu_grid) == 0:
        raise ValueError("mu_grid must be nonempty")
    prev = 0.0
    for mu in mu_grid:
        if not (isinstance(mu, (int, float)) and math.isfinite(mu)) or mu <= prev:
            raise ValueError(f"mu_grid must be strictly increasing and positive, got {mu!r}")
        prev = mu
    out = []
    for mu in mu_grid:
        d = theorem_constant(mu, h) - weyl_constant(mu, h)
        sign = 0 if abs(d) <= SIGN_ZERO_TOL else (1 if d > 0.0 else -1)
        out.append((float(mu), d, sign))
    return out
