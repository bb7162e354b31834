"""Distributed adaptive tracking controller with delay compensation.

Each agent feeds back a regressor of its current state, its state one
state-delay ago, and the reference one input-delay ago, through adaptive
gains.  Because the input takes ``tau_u`` seconds to reach the plant, the
commanded value is computed against the leader regressor predicted
``tau_u`` ahead; the prediction is exact up to integration error since the
leader model and the reference are known, so a run reads it as the row of
its leader table ``tau_u`` ahead.  A mismatch signal between the
current virtual input and the actually applied one drives an auxiliary
compensator so that the gain adaptation sees a delay-free error system.

The signal functions here (``regressor``, ``delayed_regressor``,
``control``, ``applied_input``) accept any leading axes in front of the
per-agent ones.  They read delayed or leader values only, so a run
evaluates them over a block of steps and RK4 stages at once, and the
commanded input over the whole trace.  What needs the current state, the
mismatch, the auxiliary input, the graph error and the adaptation laws, is
evaluated per RK4 stage in the fixed buffers of ``harness._StageKernel``,
the one implementation of the closed loop.

The adaptation rates, the signs of the ideal reference gains and the
leader's Lyapunov block are not held here: ``harness.Scenario`` checks the
rates and signs once, and the kernel reads them with the block that
validation solved, a rate at or below ``harness.WEIGHT_TOL`` as 0, as the
energy monitor weighs it (``harness._live_rates``).  The controller
touches the leader model alone; no follower dynamics enter.
"""

from __future__ import annotations

import numpy as np

from .dde import GRID_TOL
from .errors import DimensionMismatch


def regressor(x_now, x_delayed, r_delayed) -> np.ndarray:
    """Stack ``[x(t); x(t - tau_x); r(t - tau_u)]`` along the last axis.

    ``x_now`` and ``x_delayed`` share a shape (..., n); ``r_delayed``
    (..., p) broadcasts against their leading axes, so one reference value
    serves a whole fleet.
    """
    x_now = np.asarray(x_now, dtype=float)
    x_delayed = np.asarray(x_delayed, dtype=float)
    r_delayed = np.asarray(r_delayed, dtype=float)
    if x_now.shape != x_delayed.shape:
        raise DimensionMismatch(
            f"current state shape {x_now.shape} differs from delayed {x_delayed.shape}"
        )
    return np.concatenate((x_now, delayed_regressor(x_delayed, r_delayed)), axis=-1)


def delayed_regressor(x_delayed: np.ndarray, r_delayed) -> np.ndarray:
    """The delayed entries ``[x(t - tau_x); r(t - tau_u)]`` of the regressor,
    (..., n + p); ``r_delayed`` broadcasts as in :func:`regressor`.

    They are stored values only, so a run evaluates them for a block of
    steps and stages at once and puts the current state in front per stage.
    """
    r = np.broadcast_to(r_delayed, x_delayed.shape[:-1] + np.shape(r_delayed)[-1:])
    return np.concatenate((x_delayed, r), axis=-1)


def control(theta: np.ndarray, eta_m: np.ndarray) -> np.ndarray:
    """Inputs ``u_i = theta_i^T eta_m`` from gains (..., l, q, p) and one
    leader regressor (..., q) shared by every agent; shape (..., l, p)."""
    return (eta_m[..., None, None, :] @ theta)[..., 0, :]


def applied_input(theta_delayed, eta_m, t, tau_u: float) -> np.ndarray:
    """Input reaching the plant at time ``t`` (scalar or (...,) array).

    What was commanded ``tau_u`` ago against the predicted leader regressor
    equals, by construction of the predictor, the delayed gains applied to
    the current leader regressor: ``theta_i(t - tau_u)^T eta_m(t)``.  Before
    ``tau_u`` nothing commanded has arrived and the input is zero.
    """
    u = control(theta_delayed, eta_m)
    return u * (np.asarray(t) >= tau_u - GRID_TOL)[..., None, None]
