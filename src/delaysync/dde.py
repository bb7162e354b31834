"""Fixed-step RK4 integration of delay differential systems.

``step_rk4`` is the one RK4 step.  It works in place, in a ``(6, size)``
array its caller owns and reuses: the state, the four slopes and the stage
state, each stage state and the update one product of fixed weights with
the rows before it, so a step forms no array.  It hands each stage its
entry of ``stages``, so a right-hand side receives its delayed operands as
an argument.  A scenario run calls it once per step, and the delays are
whole multiples of the step, so every delayed value is a row of the states
already stored (``lagged``, ``delayed``), whole or in a delay line that
keeps the last of them, one row per step of the delay and one more.  At
the RK4 midpoint the read is the mean of its two rows, linear
interpolation on the grid; acceptance test_08 checks that read, and its
second order, on a scalar delay equation stepped the same way.
"""

from __future__ import annotations

from functools import lru_cache
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


@lru_cache(maxsize=16)
def _rk4_weights(h: float) -> tuple[np.ndarray, ...]:
    """The weights of the rows ``[y; k1; ...]`` that form RK4's second,
    third and fourth stage states and its update, for step ``h``."""
    w = np.array([
        [1.0, 0.5 * h, 0.0, 0.0, 0.0],
        [1.0, 0.0, 0.5 * h, 0.0, 0.0],
        [1.0, 0.0, 0.0, h, 0.0],
        [1.0, h / 6.0, h / 3.0, h / 3.0, h / 6.0],
    ])
    w.flags.writeable = False
    return w[0, :2], w[1, :3], w[2, :4], w[3]


def step_rk4(f: Callable, t: float, h: float, work: np.ndarray, stages: Sequence) -> None:
    """One classical RK4 step of size ``h`` at time ``t``, in place.

    ``work`` is a C-contiguous (6, size) array the caller owns: row 0 holds
    the state y, and the state after the step on return; rows 1 to 4 take
    the slopes k1 to k4 and row 5 the stage states.  ``f(t, z, out, s)``
    writes the slope at stage state ``z`` into ``out``.  It is evaluated
    at the step's start, its midpoint twice and its end, gets that stage's
    entry ``s`` of the four ``stages``, and is handed row 0 and row 1 at
    the first stage and row 5 and row ``1 + j`` at stage j after it.  Each
    stage state, and the update, is one ``np.dot`` of fixed weights with
    rows 0 to j, so the step allocates nothing.
    """
    w2, w3, w4, update = _rk4_weights(h)
    s1, s2, s3, s4 = stages
    y, k1, k2, k3, k4, z = work
    f(t, y, k1, s1)
    np.dot(w2, work[:2], out=z)
    f(t + 0.5 * h, z, k2, s2)
    np.dot(w3, work[:3], out=z)
    f(t + 0.5 * h, z, k3, s3)
    np.dot(w4, work[:4], out=z)
    f(t + h, z, k4, s4)
    np.dot(update, work[:5], out=z)
    np.copyto(y, z)
