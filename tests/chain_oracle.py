"""Reference formulas of the closed loop's signal chain, for the tests.

A run evaluates these inside ``harness._StageKernel``, in fixed buffers;
here each is written once, as an array function that takes any leading
axes in front of the per-agent ones, so the tests can check the kernel and
the recorded traces against them.  Beside them are the float-time
references of what a run reads by row: a stored history sampled at any
time (``sample``) and the leader regressor forecast ``tau_u`` ahead by
stepping the leader block (``predict_leader_regressor``), each step one
``step_rk4`` call on a right-hand side that returns its slope (``rk4``).
"""

import math

import numpy as np

from delaysync.dde import GRID_TOL, step_rk4
from delaysync.errors import DimensionMismatch, ValidationError


def sample(rows, h: float, t: float) -> np.ndarray:
    """Value at time ``t`` of ``rows`` stored at times ``k h``: the stored
    row within ``GRID_TOL`` of a step of a grid point, linear interpolation
    between rows off the grid, and row 0, the pre-history, before t = 0."""
    k_float = t / h
    if k_float < -GRID_TOL:
        return rows[0]
    k = round(k_float)
    if abs(k_float - k) <= GRID_TOL:
        return rows[k]
    j = math.floor(k_float)
    w = k_float - j
    return (1.0 - w) * rows[j] + w * rows[j + 1]


def rk4(f, t: float, y, h: float, stages) -> np.ndarray:
    """The state after one :func:`delaysync.dde.step_rk4` step of size
    ``h`` from ``y`` at time ``t``, for a right-hand side ``f(t, y, s)``
    that returns its slope rather than writing it into a row."""
    y = np.asarray(y, dtype=float)
    work = np.empty((6, y.size))
    work[0] = y.ravel()

    def write(tt, z, out, s):
        out[:] = np.ravel(f(tt, z.reshape(y.shape), s))

    step_rk4(write, t, h, work, stages)
    return work[0].reshape(y.shape)


def leader_block_derivative(m, x_m: np.ndarray, r_value: np.ndarray) -> np.ndarray:
    """Single leader block derivative ``a_m x_m + b_m r`` of the
    ``LeaderModel`` ``m``, as :func:`predict_leader_regressor` integrates
    it through :func:`rk4`; a run steps the leader by
    ``LeaderModel.rk4_matrices``, the same RK4 step written as matrices."""
    return m.a_m @ x_m + m.b_m @ r_value


def predict_leader_regressor(m, x_m_now, r_of, t, tau_u, tau_x, h, hold_reference=False):
    """Leader regressor predicted ``tau_u`` ahead of ``t``.

    Integrates ``dx_m/ds = a_m x_m + b_m r(s - tau_u)`` forward from
    ``x_m(t)`` with step ``h``; every reference value needed lies in
    ``(t - tau_u, t]`` and is exactly known, so the returned
    ``[x_m(t + tau_u); x_m(t + tau_u - tau_x); r(t)]`` matches the future
    regressor up to integration error.  The input of step j after ``t =
    k h`` is read on the step grid, as a run reads it: at ``(k + j - du) h
    + c h`` for stage offset c, with du = tau_u / h a whole number of steps,
    so the first commanded step reads r(0) wherever the float time
    ``t + j h - tau_u`` rounds.

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
    k = round(t / h)

    f = lambda _, yy, r: leader_block_derivative(m, yy, r)
    y = np.asarray(x_m_now, dtype=float).copy()
    x_mid = y.copy() if mid == 0 else None
    for j in range(steps):
        s = (k + j - steps) * h  # the input's time, whole steps of it
        if hold_reference:
            r_in = (r_of(s),) * 4
        else:
            r_mid = r_of(s + 0.5 * h)
            r_in = (r_of(s), r_mid, r_mid, r_of(s + h))
        y = rk4(f, (k + j) * h, y, h, r_in)
        if j + 1 == mid:
            x_mid = y.copy()
    return np.concatenate([y, x_mid, np.asarray(r_of(t), dtype=float).reshape(-1)])


def mismatch(theta: np.ndarray, eta: np.ndarray, u_applied: np.ndarray) -> np.ndarray:
    """Input mismatch ``theta_i(t)^T eta_i(t) - u_i``: the virtual input of
    the current gains minus the applied one; shape (..., l, p)."""
    return (eta[..., None, :] @ theta)[..., 0, :] - u_applied


def auxiliary_input(phi_phi: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Auxiliary drive ``phi_phi_i @ phi_i`` per agent, shape (..., l, p)."""
    return (phi_phi @ phi[..., None])[..., 0]


def augmented_error(topo_m, x, x_m, x_a) -> np.ndarray:
    """Graph tracking error plus auxiliary state, ``L x_i - g_i x_m + x_a_i``.

    ``x`` and ``x_a`` are fleet states (..., l, n), ``x_m`` the single
    leader block (..., n); no lifted block matrices are formed.
    """
    if x.shape != x_a.shape or x.shape[-1:] != x_m.shape[-1:]:
        raise DimensionMismatch(
            f"fleet {x.shape}, auxiliary {x_a.shape} and leader {x_m.shape} states disagree"
        )
    return pinned_error(topo_m, x, leader_pinning(topo_m, x_m), x_a)


def leader_pinning(topo_m, x_m) -> np.ndarray:
    """The leader's term ``g_i x_m`` of every agent's graph error, (..., l, n)."""
    return topo_m.pinning * x_m[..., None, :]


def pinned_error(topo_m, x, pinned, x_a) -> np.ndarray:
    """:func:`augmented_error` with the leader term ``pinned`` from
    :func:`leader_pinning` given: ``L x_i - pinned_i + x_a_i``."""
    return topo_m.laplacian_like @ x - pinned + x_a


def gain_derivatives(
    gamma_theta, gamma_phi, r_signs, topo_m, p_b, e_a, eta, phi
) -> tuple[np.ndarray, np.ndarray]:
    """Adaptation laws, block-diagonal projection.

    With ``s_i = b_m^T [(L (x) I)^T (I (x) P) e_a]_i`` the updates are

        d theta_i  = -sign(theta_r_i*) (Gamma_theta s)_i eta_i^T
        d phi_phi_i = -(Gamma_phi s)_i phi_i^T

    ``gamma_theta`` and ``gamma_phi`` are the (l, l) adaptation rates,
    ``r_signs`` the (l,) signs of the ideal reference gains, ``p_b`` the
    (n, p) product ``P b_m``, ``e_a`` the (l, n) augmented errors; returns
    arrays shaped like ``theta`` (l, q, p) and ``phi_phi`` (l, p, p).
    """
    s = topo_m.laplacian_like.T @ (e_a @ p_b)
    signed_rates = -np.vstack([r_signs[:, None] * gamma_theta, gamma_phi])
    g = signed_rates @ s
    ell = eta.shape[0]
    return eta[:, :, None] * g[:ell, None, :], g[ell:, :, None] * phi[:, None, :]


def fleet_derivative(fleet, x_now: np.ndarray, drive: np.ndarray) -> np.ndarray:
    """Blockwise fleet derivative ``a x(t) + drive`` of a ``FleetDynamics``,
    with ``drive`` from its ``delayed_drive``; both (..., l, n)."""
    return (fleet.a @ x_now[..., None])[..., 0] + drive


def aux_derivative(m, topo_m, x_a, u_a) -> np.ndarray:
    """Auxiliary compensator derivative: leader-shaped dynamics driven
    through the follower graph, ``a_m x_a_i + b_m (L u_a)_i`` blockwise;
    ``m`` is the ``LeaderModel``, ``x_a`` (..., l, n), ``u_a`` (..., l, p)."""
    return x_a @ m.a_m.T + (topo_m.laplacian_like @ u_a) @ m.b_m.T
