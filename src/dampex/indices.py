"""Multi-index helpers.

A multi-index is a tuple of nonnegative integers, one entry per space
dimension.  Enumeration order is lexicographic with the first component
decreasing, which keeps every consumer deterministic.
"""

from __future__ import annotations

import math

Alpha = tuple[int, ...]


def degree(alpha: Alpha) -> int:
    return sum(alpha)


def multi_factorial(alpha: Alpha) -> int:
    out = 1
    for a in alpha:
        out *= math.factorial(a)
    return out


def indices_of_degree(dimension: int, deg: int) -> tuple[Alpha, ...]:
    """All multi-indices of the given dimension with |alpha| == deg."""
    if dimension < 1:
        raise ValueError("dimension must be >= 1")
    if deg < 0:
        return ()
    if dimension == 1:
        return ((deg,),)
    out = []
    for first in range(deg, -1, -1):
        for rest in indices_of_degree(dimension - 1, deg - first):
            out.append((first,) + rest)
    return tuple(out)


def indices_up_to(dimension: int, deg: int) -> tuple[Alpha, ...]:
    """All multi-indices with |alpha| <= deg, grouped by increasing degree."""
    out = []
    for d in range(deg + 1):
        out.extend(indices_of_degree(dimension, d))
    return tuple(out)


def i_power(k: int) -> complex:
    """i**k computed exactly (no rounding in the unit factors)."""
    return (1 + 0j, 1j, -1 + 0j, -1j)[k % 4]
