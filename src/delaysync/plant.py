"""Agent and leader dynamics, and the ideal gain set that matches them.

Every follower is linear with a delayed-state coupling term and a delayed
input,

    dx_i/dt = a x_i(t) + a_zeta x_i(t - tau_x) + b u_i(t - tau_u),

while the leader is the delay-free reference system all agents should
converge to.  ``matching_gains`` computes, per agent, the stationary gains
that would make the closed loop equal the leader exactly; they exist only
when the agent's input matrix spans the required corrections.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import DimensionMismatch, NoMatchingSolution
from .topology import TopologyMatrices

# Largest acceptable residual when substituting candidate gains back into
# the matching conditions.
MATCHING_TOL = 1e-9


@dataclass(frozen=True)
class AgentDynamics:
    """One follower: instantaneous ``a``, delayed-state ``a_zeta``, input ``b``."""

    a: np.ndarray
    a_zeta: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        az = np.asarray(self.a_zeta, dtype=float)
        b = np.asarray(self.b, dtype=float)
        n = a.shape[0] if a.ndim == 2 else 0
        if a.ndim != 2 or a.shape != (n, n):
            raise DimensionMismatch(f"a must be square, got {a.shape}")
        if az.shape != (n, n):
            raise DimensionMismatch(f"a_zeta shape {az.shape}, expected {(n, n)}")
        if b.ndim != 2 or b.shape[0] != n:
            raise DimensionMismatch(f"b shape {b.shape}, expected ({n}, p)")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "a_zeta", az)
        object.__setattr__(self, "b", b)

    @property
    def state_dim(self) -> int:
        return self.a.shape[0]

    @property
    def input_dim(self) -> int:
        return self.b.shape[1]


@dataclass(frozen=True)
class LeaderModel:
    """Reference system ``dx_m/dt = a_m x_m + b_m r(t - tau_u)``.

    ``a_m`` must be Hurwitz; callers verify this at scenario load by
    solving a Lyapunov equation and Cholesky-factoring the result.
    """

    a_m: np.ndarray
    b_m: np.ndarray

    def __post_init__(self):
        a_m = np.asarray(self.a_m, dtype=float)
        b_m = np.asarray(self.b_m, dtype=float)
        n = a_m.shape[0] if a_m.ndim == 2 else 0
        if a_m.ndim != 2 or a_m.shape != (n, n):
            raise DimensionMismatch(f"a_m must be square, got {a_m.shape}")
        if b_m.ndim != 2 or b_m.shape[0] != n:
            raise DimensionMismatch(f"b_m shape {b_m.shape}, expected ({n}, p)")
        object.__setattr__(self, "a_m", a_m)
        object.__setattr__(self, "b_m", b_m)

    @property
    def state_dim(self) -> int:
        return self.a_m.shape[0]

    @property
    def input_dim(self) -> int:
        return self.b_m.shape[1]

    def rk4_matrices(self, h: float) -> tuple[np.ndarray, np.ndarray]:
        """One classical RK4 step of size ``h`` of this linear system, as
        matrices acting on ``[x_m; r_1; r_2; r_3; r_4]``: the state at the
        step's start and the input at each of its four stages.

        Returns the step matrix (n, n + 4p), whose product with that vector
        is the state after the step, and the stage matrices (4, n, n + 4p),
        whose products are the states at which the four stages evaluate
        ``a_m x_m + b_m r``.  They are :func:`delaysync.dde.rk4_ode_step`'s
        stages carried out on the unit vectors, so a product agrees with a
        per-step ``rk4_ode_step`` to rounding.
        """
        n, p = self.state_dim, self.input_dim
        basis = np.eye(n + 4 * p)
        y, r = basis[:n], basis[n:].reshape(4, p, n + 4 * p)
        k1 = self.a_m @ y + self.b_m @ r[0]
        y2 = y + (0.5 * h) * k1
        k2 = self.a_m @ y2 + self.b_m @ r[1]
        y3 = y + (0.5 * h) * k2
        k3 = self.a_m @ y3 + self.b_m @ r[2]
        y4 = y + h * k3
        k4 = self.a_m @ y4 + self.b_m @ r[3]
        step = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        return step, np.stack([y, y2, y3, y4])


@dataclass(frozen=True)
class MatchingGains:
    """Per-agent ideal gains.

    ``theta_x[i]`` is (n, p), ``theta_zeta[i]`` is (n, p), ``theta_r[i]``
    and ``theta_phi[i]`` are (p, p); stationary values satisfying

        a_i + b_i theta_x_i^T = a_m,      a_zeta_i + b_i theta_zeta_i^T = 0,
        b_i theta_r_i = b_m,              b_m theta_phi_i = b_i.
    """

    theta_x: tuple[np.ndarray, ...]
    theta_zeta: tuple[np.ndarray, ...]
    theta_r: tuple[np.ndarray, ...]
    theta_phi: tuple[np.ndarray, ...]

    def stacked_regressor_gain(self, i: int) -> np.ndarray:
        """Ideal gain block for agent ``i`` ordered like the regressor: (2n+p, p)."""
        return np.vstack([self.theta_x[i], self.theta_zeta[i], self.theta_r[i]])


class FleetDynamics:
    """Stacked array form of a follower fleet for blockwise evaluation.

    ``a``, ``a_zeta`` and ``b`` stack the agents' matrices, (l, n, n),
    (l, n, n) and (l, n, p); ``delayed`` is ``[a_zeta | b]`` per agent,
    (l, n, n+p), so one product evaluates the delayed drive.
    """

    def __init__(self, fleet: list[AgentDynamics] | tuple[AgentDynamics, ...]):
        if not fleet:
            raise DimensionMismatch("fleet must contain at least one agent")
        n = fleet[0].state_dim
        p = fleet[0].input_dim
        for idx, agent in enumerate(fleet):
            if agent.state_dim != n or agent.input_dim != p:
                raise DimensionMismatch(f"agent {idx + 1} dimensions differ from agent 1")
        self.agents = tuple(fleet)
        self.num_agents = len(fleet)
        self.state_dim = n
        self.input_dim = p
        self.a = np.stack([ag.a for ag in fleet])
        self.a_zeta = np.stack([ag.a_zeta for ag in fleet])
        self.b = np.stack([ag.b for ag in fleet])
        self.delayed = np.concatenate([self.a_zeta, self.b], axis=2)

    def __iter__(self):
        return iter(self.agents)

    def __len__(self) -> int:
        return self.num_agents

    def delayed_drive(self, x_delayed: np.ndarray, u_delayed: np.ndarray) -> np.ndarray:
        """The delayed part ``a_zeta x(t - tau_x) + b u(t - tau_u)`` of the
        fleet derivative, blockwise; states (..., l, n), inputs (..., l, p).

        It reads stored values only, so a run evaluates it for a block of
        steps and stages at once and :meth:`derivative` adds it per stage.
        """
        operand = np.concatenate((x_delayed, u_delayed), axis=-1)
        return (self.delayed @ operand[..., None])[..., 0]

    def derivative(self, x_now: np.ndarray, drive: np.ndarray) -> np.ndarray:
        """Blockwise fleet derivative ``a x(t) + drive``, with ``drive`` from
        :meth:`delayed_drive`; both (..., l, n)."""
        return (self.a @ x_now[..., None])[..., 0] + drive


def aux_derivative(m: LeaderModel, topo_m: TopologyMatrices, x_a, u_a) -> np.ndarray:
    """Auxiliary compensator derivative: leader-shaped dynamics driven
    through the follower graph, ``a_m x_a_i + b_m (L u_a)_i`` blockwise;
    ``x_a`` is (..., l, n), ``u_a`` (..., l, p)."""
    return x_a @ m.a_m.T + (topo_m.laplacian_like @ u_a) @ m.b_m.T


def matching_gains(fleet, leader: LeaderModel) -> MatchingGains:
    """Least-squares ideal gains per agent, verified to 1e-9 residuals.

    Each condition reduces to a normal-equation solve against the agent's
    (or leader's) input matrix; a residual above tolerance on any condition
    raises :class:`NoMatchingSolution`.
    """
    agents = list(fleet)
    theta_x, theta_zeta, theta_r, theta_phi = [], [], [], []
    for idx, ag in enumerate(agents):
        if ag.state_dim != leader.state_dim or ag.input_dim != leader.input_dim:
            raise DimensionMismatch(f"agent {idx + 1} dimensions differ from the leader")
        tx = _lstsq_columns(ag.b, leader.a_m - ag.a, idx, "state matching")
        tz = _lstsq_columns(ag.b, -ag.a_zeta, idx, "delayed-state matching")
        tr = _lstsq_columns(ag.b, leader.b_m, idx, "reference matching")
        tp = _lstsq_columns(leader.b_m, ag.b, idx, "input-scale matching")
        theta_x.append(tx.T.copy())
        theta_zeta.append(tz.T.copy())
        theta_r.append(tr)
        theta_phi.append(tp)
    return MatchingGains(
        theta_x=tuple(theta_x),
        theta_zeta=tuple(theta_zeta),
        theta_r=tuple(theta_r),
        theta_phi=tuple(theta_phi),
    )


def _lstsq_columns(basis: np.ndarray, target: np.ndarray, idx: int, label: str) -> np.ndarray:
    """Solve ``basis @ coeff = target`` column by column via normal equations."""
    gram = basis.T @ basis
    coeff = np.empty((basis.shape[1], target.shape[1]))
    for j in range(target.shape[1]):
        coeff[:, j] = linalg.solve_linear(gram, basis.T @ target[:, j])
    residual = np.max(np.abs(basis @ coeff - target))
    if residual > MATCHING_TOL:
        raise NoMatchingSolution(
            f"agent {idx + 1}: {label} residual {residual:.3e} exceeds {MATCHING_TOL}"
        )
    return coeff

