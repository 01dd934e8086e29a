"""Dirichlet-to-Neumann analysis of single tooth modes.

Separating variables in one tooth (width 1/(2q), height h, Dirichlet on the
walls and the far end) reduces each transverse mode k to a 1-D problem on
[0, h]: v'' + (lam - 4*pi^2*k^2*q^2) v = 0 with v(h) = 0.  The mode's
Dirichlet-to-Neumann value at the tooth opening is rho = -v'(0)/v(0).

Counting the modes with rho <= 0 bounds how far the comb's eigenvalue count
can exceed the decoupled square-plus-teeth count; square_mixed_gap supplies
the square's own contribution to that bound by comparing Neumann and
Dirichlet counts on the unit square.
"""

from __future__ import annotations

import math

from ._args import finite_real, positive_int, positive_real
from .analytic import FOUR_PI_SQ, mode_cutoff
from .lattice import UNIT_SQUARE, count_rect_dirichlet, count_rect_neumann

# A propagating mode hits a pole of rho when sin(omega*h) vanishes; the test
# is relative to max(1, omega*h) so large arguments are judged fairly.
POLE_TOL = 1e-12


class DirichletPoleError(ValueError):
    """Raised when lam sits on a Dirichlet eigenvalue of the tooth mode, where rho blows up."""


def _rho(k: int, q: int, h: float, lam: float) -> float:
    """rho for transverse mode k at lam; the caller has checked the arguments."""
    s = lam - FOUR_PI_SQ * (k * q) ** 2
    if s > 0.0:
        omega = math.sqrt(s)
        wh = omega * h
        sn = math.sin(wh)
        if abs(sn) < POLE_TOL * max(1.0, wh):
            raise DirichletPoleError(
                f"lambda={lam} is a Dirichlet eigenvalue of tooth mode k={k} "
                f"(omega*h = {wh} is a multiple of pi)")
        return omega * math.cos(wh) / sn
    if s < 0.0:
        kappa = math.sqrt(-s)
        # tanh saturates to 1 for large arguments, so this never overflows.
        return kappa / math.tanh(kappa * h)
    return 1.0 / h


def tooth_mode_eigenvalue(k: int, q: int, h: float, lam: float) -> float:
    """Dirichlet-to-Neumann value rho = -v'(0)/v(0) for transverse mode k.

    With s = lam - 4*pi^2*k^2*q^2 the solution vanishing at h gives

        s > 0:  rho = omega * cot(omega*h),   omega = sqrt(s)
        s = 0:  rho = 1/h
        s < 0:  rho = kappa * coth(kappa*h),  kappa = sqrt(-s)

    Raises DirichletPoleError when sin(omega*h) vanishes to POLE_TOL
    (relative to max(1, omega*h)), i.e. at a pole of rho.
    """
    positive_int("k", k)
    positive_int("q", q)
    positive_real("h", h)
    finite_real("lambda", lam)
    return _rho(k, q, h, lam)


def count_nonpositive_tooth(q: int, h: float, lam: float) -> int:
    """Number of propagating modes k <= floor(sqrt(lam/q^2)/(2*pi)) with rho <= 0.

    Modes above the cutoff have rho > 0 and never contribute.  The arguments
    are checked once, h included even when no mode propagates; a pole inside
    the range propagates as DirichletPoleError.
    """
    positive_int("q", q)
    positive_real("h", h)
    finite_real("lambda", lam)
    if lam <= 0.0:
        return 0
    cutoff = mode_cutoff(lam / (q * q))
    return sum(1 for k in range(1, cutoff + 1) if _rho(k, q, h, lam) <= 0.0)


def square_mixed_gap(lam: float) -> int:
    """Neumann minus Dirichlet eigenvalue count of the unit square at lam.

    Nonnegative for every lam; grows like the square's boundary term,
    about sqrt(lam) to leading order.
    """
    neu = count_rect_neumann(UNIT_SQUARE, lam).count
    dir_ = count_rect_dirichlet(UNIT_SQUARE, lam).count
    return neu - dir_
