"""Reference formulas of the closed loop's signal chain, for the tests.

A run evaluates these inside ``harness._StageKernel``, in fixed buffers;
here each is written once, as an array function that takes any leading
axes in front of the per-agent ones, so the tests can check the kernel and
the recorded traces against them.
"""

import numpy as np

from delaysync.errors import DimensionMismatch


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
