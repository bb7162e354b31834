"""Fixed-step RK4 integration of delay differential systems.

``step_rk4`` is the one RK4 step; it hands each stage its entry of
``stages``, so a right-hand side receives its delayed operands as an
argument.  A scenario run calls it once per step, and the delays are whole
multiples of the step, so every delayed value is a row of the states
already stored (``lagged``, ``delayed``), whole or in a delay line that
keeps the last of them, one row per step of the delay and one more.  At
the RK4 midpoint the read is the mean of its two rows, linear
interpolation on the grid; acceptance test_08 checks that read, and its
second order, on a scalar delay equation stepped the same way.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

# Times within this fraction of a step of a grid point count as on it.
GRID_TOL = 1e-9


def lagged(rows: np.ndarray, start: int, stop: int, lag: int) -> np.ndarray:
    """``rows[k - lag]`` for k in [start, stop), gathered; row 0 is the
    constant pre-history, so it stands in for every k below ``lag``.

    ``rows`` may be a delay line, which keeps run row j at slot
    j mod ``len(rows)``: it reads the run's rows as long as it holds every
    row from ``lag`` before ``start`` on, and slot 0 the pre-history while
    any k is below ``lag``.  A whole history is the line no index wraps."""
    return rows.take(np.maximum(np.arange(start, stop) - lag, 0) % len(rows), axis=0)


def delayed(rows: np.ndarray, start: int, stop: int, lag: int):
    """Values ``lag`` rows back at the start, midpoint and end of steps
    ``start`` to ``stop - 1``: rows ``k - lag`` and ``k - lag + 1`` and, at
    the RK4 midpoint, their mean, the linear interpolant halfway between
    the two."""
    lo = lagged(rows, start, stop, lag)
    hi = lagged(rows, start + 1, stop + 1, lag)
    return lo, 0.5 * (lo + hi), hi


def step_rk4(f: Callable, t: float, y: np.ndarray, h: float, stages: Sequence) -> np.ndarray:
    """One classical RK4 step of size ``h`` from ``y`` at time ``t``.

    ``f(t, y, s)`` is evaluated at the step's start, its midpoint twice and
    its end, and gets that stage's entry ``s`` of the four ``stages``.  A
    stage's result needs to stay valid only until this call returns, so
    ``f`` may write the four into buffers it reuses on the next step.
    """
    s1, s2, s3, s4 = stages
    k1 = f(t, y, s1)
    k2 = f(t + 0.5 * h, y + (0.5 * h) * k1, s2)
    k3 = f(t + 0.5 * h, y + (0.5 * h) * k2, s3)
    k4 = f(t + h, y + h * k3, s4)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
