"""Distributed adaptive tracking controller with delay compensation.

Each agent feeds back a regressor of its current state, its state one
state-delay ago, and the reference one input-delay ago, through adaptive
gains.  Because the input takes ``tau_u`` seconds to reach the plant, the
commanded value is computed against the leader regressor predicted
``tau_u`` ahead; the prediction is exact up to integration error since the
leader model and the reference are known.  A mismatch signal between the
current virtual input and the actually applied one drives an auxiliary
compensator so that the gain adaptation sees a delay-free error system.

The signal functions (``regressor``, ``control``, ``applied_input``,
``mismatch``, ``auxiliary_input``, ``augmented_error``) accept any leading
axes in front of the per-agent ones.  The parts that read delayed or leader
values only (``delayed_regressor``, ``applied_input``, ``leader_pinning``)
are split from the ones that need the current state (``mismatch``,
``auxiliary_input``, ``pinned_error``), so a run evaluates the first over a
block of steps and RK4 stages at once and the second per stage, and the
trace recording evaluates both over blocks of rows.

The controller only ever touches the leader model, the graph matrices, and
the signs of the reference-matching gains; no follower dynamics enter.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from . import linalg
from .dde import GRID_TOL, rk4_ode_step
from .errors import DimensionMismatch, ValidationError
from .plant import LeaderModel
from .topology import TopologyMatrices

# Rate matrices may dip this far below zero in their smallest eigenvalue
# and still count as positive semidefinite.
PSD_TOL = 1e-10


@dataclass(frozen=True)
class ControllerConfig:
    """Static controller data shared by the whole fleet.

    ``gamma_theta`` / ``gamma_phi`` are the (l, l) adaptation rate
    matrices (symmetric positive semidefinite; zero freezes adaptation),
    ``p_matrix`` the (n, n) positive definite block ``P`` from the leader
    Lyapunov equation (the fleet weight is ``I_l (x) P``, applied block by
    block and never formed), and ``r_sign`` the per-agent signs of the
    ideal reference gains.
    """

    gamma_theta: np.ndarray
    gamma_phi: np.ndarray
    p_matrix: np.ndarray
    r_sign: np.ndarray

    def __post_init__(self):
        gt = np.asarray(self.gamma_theta, dtype=float)
        gp = np.asarray(self.gamma_phi, dtype=float)
        pm = np.asarray(self.p_matrix, dtype=float)
        rs = np.asarray(self.r_sign, dtype=float)
        ell = gt.shape[0] if gt.ndim == 2 else 0
        if gt.shape != (ell, ell) or gp.shape != (ell, ell):
            raise DimensionMismatch("rate matrices must be square and equally sized")
        if rs.shape != (ell,):
            raise DimensionMismatch(f"r_sign shape {rs.shape}, expected {(ell,)}")
        if np.any(np.abs(rs) != 1.0):
            raise ValidationError("r_sign entries must be +1 or -1")
        for name, g in (("gamma_theta", gt), ("gamma_phi", gp)):
            eigs = linalg.symmetric_eigenvalues(g)
            if eigs[0] < -PSD_TOL:
                raise ValidationError(f"{name} must be positive semidefinite, min eig {eigs[0]:.3e}")
        if pm.ndim != 2 or pm.shape[0] != pm.shape[1]:
            raise DimensionMismatch(f"p_matrix must be a square block, got shape {pm.shape}")
        linalg.cholesky(pm)
        object.__setattr__(self, "gamma_theta", gt)
        object.__setattr__(self, "gamma_phi", gp)
        object.__setattr__(self, "p_matrix", pm)
        object.__setattr__(self, "r_sign", rs)

    @property
    def num_agents(self) -> int:
        return self.gamma_theta.shape[0]

    @cached_property
    def signed_rates(self) -> np.ndarray:
        """``[-sign(theta_r*) Gamma_theta; -Gamma_phi]`` stacked (2l, l): one
        product with the projected error gives both adaptation drives, their
        signs included (negating and flipping rows by +-1 is exact)."""
        return -np.vstack([self.r_sign[:, None] * self.gamma_theta, self.gamma_phi])


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
    integrates it; a run steps the leader by ``LeaderModel.rk4_matrices``,
    the same RK4 step written as matrices."""
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

    y = np.asarray(x_m_now, dtype=float).copy()
    x_mid = y.copy() if mid == 0 else None
    for j in range(steps):
        if hold_reference:
            r_j = r_of(t + j * h - tau_u)
            f = lambda s, yy, r=r_j: leader_block_derivative(m, yy, r)
        else:
            f = lambda s, yy: leader_block_derivative(m, yy, r_of(s - tau_u))
        y = rk4_ode_step(f, t + j * h, y, h)
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
    if isinstance(t, np.ndarray):
        return u * (t >= tau_u - GRID_TOL)[..., None, None]
    return u if t >= tau_u - GRID_TOL else np.zeros_like(u)


def mismatch(theta: np.ndarray, eta: np.ndarray, u_applied: np.ndarray) -> np.ndarray:
    """Input mismatch ``theta_i(t)^T eta_i(t) - u_i``: the virtual input of
    the current gains minus the applied one; shape (..., l, p)."""
    return (eta[..., None, :] @ theta)[..., 0, :] - u_applied


def auxiliary_input(phi_phi: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Auxiliary drive ``phi_phi_i @ phi_i`` per agent, shape (..., l, p)."""
    return (phi_phi @ phi[..., None])[..., 0]


def augmented_error(topo_m: TopologyMatrices, x, x_m, x_a) -> np.ndarray:
    """Graph tracking error plus auxiliary state, ``L x_i - g_i x_m + x_a_i``.

    ``x`` and ``x_a`` are fleet states (..., l, n), ``x_m`` the single
    leader block (..., n); no lifted block matrices are formed.
    """
    if x.shape != x_a.shape or x.shape[-1:] != x_m.shape[-1:]:
        raise DimensionMismatch(
            f"fleet {x.shape}, auxiliary {x_a.shape} and leader {x_m.shape} states disagree"
        )
    return pinned_error(topo_m, x, leader_pinning(topo_m, x_m), x_a)


def leader_pinning(topo_m: TopologyMatrices, x_m) -> np.ndarray:
    """The leader's term ``g_i x_m`` of every agent's graph error, (..., l, n)."""
    return topo_m.pinning * x_m[..., None, :]


def pinned_error(topo_m: TopologyMatrices, x, pinned, x_a) -> np.ndarray:
    """:func:`augmented_error` with the leader term ``pinned`` from
    :func:`leader_pinning` given: ``L x_i - pinned_i + x_a_i``."""
    return topo_m.laplacian_like @ x - pinned + x_a


def gain_derivatives(
    cfg: ControllerConfig,
    topo_m: TopologyMatrices,
    p_b: np.ndarray,
    e_a: np.ndarray,
    eta: np.ndarray,
    phi: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Adaptation laws, block-diagonal projection.

    With ``s_i = b_m^T [(L (x) I)^T (I (x) P) e_a]_i`` the updates are

        d theta_i  = -sign(theta_r_i*) (Gamma_theta s)_i eta_i^T
        d phi_phi_i = -(Gamma_phi s)_i phi_i^T

    ``p_b`` is the (n, p) product ``P b_m``, ``e_a`` the (l, n) augmented
    errors; returns arrays shaped like ``theta`` (l, q, p) and ``phi_phi``
    (l, p, p).
    """
    s = topo_m.laplacian_like.T @ (e_a @ p_b)
    g = cfg.signed_rates @ s
    ell = eta.shape[0]
    return eta[:, :, None] * g[:ell, None, :], g[ell:, :, None] * phi[:, None, :]
