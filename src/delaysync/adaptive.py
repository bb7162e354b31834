"""Distributed adaptive tracking controller with delay compensation.

Each agent feeds back a regressor of its current state, its state one
state-delay ago, and the reference one input-delay ago, through adaptive
gains.  Because the input takes ``tau_u`` seconds to reach the plant, the
commanded value is computed against the leader regressor predicted
``tau_u`` ahead; the prediction is exact up to integration error since the
leader model and the reference are known.  A mismatch signal between the
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

from typing import Callable

import numpy as np

from .dde import GRID_TOL, step_rk4
from .errors import DimensionMismatch, ValidationError
from .plant import LeaderModel


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


def leader_block_derivative(m: LeaderModel, x_m: np.ndarray, r_value: np.ndarray) -> np.ndarray:
    """Single leader block derivative ``a_m x_m + b_m r``, as the predictor
    integrates it through ``step_rk4``; a run steps the leader by
    ``LeaderModel.rk4_matrices``, the same RK4 step written as matrices."""
    return m.a_m @ x_m + m.b_m @ r_value


def predict_leader_regressor(
    m: LeaderModel,
    x_m_now: np.ndarray,
    r_of: Callable[[float], np.ndarray],
    t: float,
    tau_u: float,
    tau_x: float,
    h: float,
    hold_reference: bool = False,
) -> np.ndarray:
    """Leader regressor predicted ``tau_u`` ahead of ``t``.

    Integrates ``dx_m/ds = a_m x_m + b_m r(s - tau_u)`` forward from
    ``x_m(t)`` with step ``h``; every reference value needed lies in
    ``(t - tau_u, t]`` and is exactly known, so the returned
    ``[x_m(t + tau_u); x_m(t + tau_u - tau_x); r(t)]`` matches the future
    regressor up to integration error.

    With ``hold_reference`` the input is sampled once per step (at the
    step's left endpoint) and held through the RK4 stages.  A square wave
    whose edges land on the grid is constant on every half-open step
    interval, so the hold reproduces it exactly; stage-time evaluation
    would instead let the final stage read the value from beyond the edge.
    Leave it off for smooth references, where stage-time evaluation keeps
    the full fourth-order accuracy.
    """
    for name, delay in (("tau_u", tau_u), ("tau_x", tau_x)):
        ratio = delay / h
        if abs(ratio - round(ratio)) > GRID_TOL:
            raise ValidationError(f"step {h} does not divide {name}={delay}")
    if tau_x > tau_u:
        raise ValidationError(f"tau_x={tau_x} exceeds tau_u={tau_u}")
    steps = int(round(tau_u / h))
    mid = steps - int(round(tau_x / h))

    f = lambda _, yy, r: leader_block_derivative(m, yy, r)
    y = np.asarray(x_m_now, dtype=float).copy()
    x_mid = y.copy() if mid == 0 else None
    for j in range(steps):
        s = t + j * h
        if hold_reference:
            r_in = (r_of(s - tau_u),) * 4
        else:
            r_mid = r_of(s + 0.5 * h - tau_u)
            r_in = (r_of(s - tau_u), r_mid, r_mid, r_of(s + h - tau_u))
        y = step_rk4(f, s, y, h, r_in)
        if j + 1 == mid:
            x_mid = y.copy()
    return np.concatenate([y, x_mid, np.asarray(r_of(t), dtype=float).reshape(-1)])


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
