"""Chebyshev polynomials of the first kind, evaluated stably on the whole
real line for the broad-spectrum proof chain."""

from __future__ import annotations

import math


def chebyshev_T_recurrence(j: int, x: float) -> float:
    """Three-term recurrence T_{j+1} = 2x T_j - T_{j-1}; reference route."""
    if j < 0:
        raise ValueError(f"order must be non-negative, got {j}")
    if j == 0:
        return 1.0
    t_prev, t = 1.0, float(x)
    for _ in range(j - 1):
        t_prev, t = t, 2.0 * x * t - t_prev
    return t


def chebyshev_T(j: int, x: float) -> float:
    """Chebyshev polynomial of the first kind, stable on the whole real line.

    At x = +-1 the value is (+-1)^j, which the recurrence also gives exactly,
    without the j steps. Inside (-1, 1) the recurrence is used directly. For
    x > 1 the closed form ((x + sqrt(x^2-1))^j + (x - sqrt(x^2-1))^j) / 2 is
    evaluated with the second term as a reciprocal power, avoiding the
    subtractive cancellation; past the float range it is inf.
    x < -1 reduces by parity T_j(-x) = (-1)^j T_j(x).
    """
    if j < 0:
        raise ValueError(f"order must be non-negative, got {j}")
    if x == 1.0:
        return 1.0
    if x == -1.0:
        return -1.0 if j % 2 else 1.0
    if x > 1.0:
        u = x + math.sqrt(x * x - 1.0)
        try:
            return 0.5 * (u**j + u**-j)
        except OverflowError:  # u**j is past the float range
            return math.inf
    if x < -1.0:
        value = chebyshev_T(j, -x)
        return -value if j % 2 else value
    return chebyshev_T_recurrence(j, x)
