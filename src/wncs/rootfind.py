"""Monotone scalar root finding for the shared-actuator design.

The two SNR allocators have closed-form multipliers; the shared-actuator
design (``optimize_identical_actuator``) does not, and its budget-tight
regime reduces to one scalar equation: a budget residual that is continuous
and strictly decreasing in a positive Lagrange multiplier.  Bisection with a
deterministic geometric bracket is plenty — no derivatives, no library
solver state, bit-reproducible.
"""
from __future__ import annotations

from typing import Callable


def bisect_decreasing(
    residual: Callable[[float], float],
    start: float = 1.0,
    rel_tol: float = 1e-12,
    max_expand: int = 1100,
    max_iter: int = 400,
) -> float:
    """Root of a decreasing ``residual`` on (0, inf).

    ``residual`` must be continuous, strictly decreasing, positive for small
    arguments and negative for large ones, and already normalized so that
    ``rel_tol`` is meaningful (callers pass budget mismatch / budget).  The
    bracket grows/shrinks geometrically from ``start`` (doubling/halving), then
    plain bisection runs until the residual magnitude drops under ``rel_tol``
    or the bracket collapses to machine resolution.
    """
    lo = hi = float(start)
    r_lo = residual(lo)
    if r_lo >= 0.0:
        r_hi = r_lo
        for _ in range(max_expand):
            hi *= 2.0
            r_hi = residual(hi)
            if r_hi < 0.0:
                break
        else:
            raise RuntimeError("bisect_decreasing: no sign change while expanding up")
    else:
        for _ in range(max_expand):
            lo /= 2.0
            r_lo = residual(lo)
            if r_lo >= 0.0:
                break
        else:
            raise RuntimeError("bisect_decreasing: no sign change while expanding down")

    best_x, best_r = lo, abs(r_lo)
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if not (lo < mid < hi):  # bracket collapsed to adjacent floats
            break
        r = residual(mid)
        if abs(r) < best_r:
            best_x, best_r = mid, abs(r)
        if abs(r) <= rel_tol:
            return mid
        if r > 0.0:
            lo = mid
        else:
            hi = mid
    return best_x
