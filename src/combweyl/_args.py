"""The three argument rules of the public entry points, one function each.

Each check takes the argument's name and value and raises ValueError with
a message naming both.  A real is an int or a float (numpy's float64
included); bool is rejected although it is an int.
"""

from __future__ import annotations

import math


def _is_real(v: object) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def finite_real(name: str, v: float) -> float:
    """v as a float, or ValueError unless v is a finite real."""
    if not _is_real(v):
        raise ValueError(f"{name} must be finite, got {v!r}")
    return float(v)


def positive_real(name: str, v: float) -> float:
    """v as a float, or ValueError unless v is a finite real > 0."""
    if not _is_real(v) or v <= 0.0:
        raise ValueError(f"{name} must be finite and > 0, got {v!r}")
    return float(v)


def positive_int(name: str, v: int) -> int:
    """v, or ValueError unless v is an int >= 1."""
    if not isinstance(v, int) or isinstance(v, bool) or v < 1:
        raise ValueError(f"{name} must be an int >= 1, got {v!r}")
    return v
