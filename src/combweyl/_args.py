"""The three argument rules of the public entry points, one function each.

Each check takes the argument's name and value and raises ValueError with
a message naming both.  A real is an int or a float (numpy's float64
included), and an int anything operator.index takes (numpy's integers
included); bool is rejected as either, although it is an int.
"""

from __future__ import annotations

import math
import operator


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
    """v as a plain int, or ValueError unless v is an int >= 1 (see above)."""
    try:
        i = operator.index(v)
    except TypeError:
        i = 0
    if isinstance(v, bool) or i < 1:
        raise ValueError(f"{name} must be an int >= 1, got {v!r}")
    return i
