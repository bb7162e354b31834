"""Agent and leader dynamics, and the ideal gain set that matches them.

Every follower is linear with a delayed-state coupling term and a delayed
input,

    dx_i/dt = a x_i(t) + a_zeta x_i(t - tau_x) + b u_i(t - tau_u),

while the leader is the delay-free reference system all agents should
converge to.  ``matching_gains`` computes, for the whole fleet at once, the
stationary gains that would make each closed loop equal the leader exactly;
they exist only when the agent's input matrix spans the required corrections.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dde import step_rk4
from .errors import DimensionMismatch, NoMatchingSolution

# Largest acceptable residual when substituting candidate gains back into
# the matching conditions.
MATCHING_TOL = 1e-9

# Largest ideal gain whose square, which the energy monitor weighs, is finite.
MAX_GAIN = float(np.sqrt(np.finfo(float).max))


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
    solving a Lyapunov equation and checking that the solution is positive
    definite.
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
        ``a_m x_m + b_m r``.  They are :func:`delaysync.dde.step_rk4` run on
        the unit vectors, so a product agrees with a per-step ``step_rk4``
        to rounding.
        """
        n, p = self.state_dim, self.input_dim
        basis = np.eye(n + 4 * p)
        stages = []

        def f(_, y, r):
            stages.append(y)
            return self.a_m @ y + self.b_m @ r

        step = step_rk4(f, 0.0, basis[:n], h, basis[n:].reshape(4, p, n + 4 * p))
        return step, np.stack(stages)


@dataclass(frozen=True)
class MatchingGains:
    """Ideal gains of the whole fleet, stacked along a leading agent axis.

    ``theta_x`` and ``theta_zeta`` are (l, n, p), ``theta_r`` and
    ``theta_phi`` (l, p, p); agent i's slices are stationary values satisfying

        a_i + b_i theta_x_i^T = a_m,      a_zeta_i + b_i theta_zeta_i^T = 0,
        b_i theta_r_i = b_m,              b_m theta_phi_i = b_i.
    """

    theta_x: np.ndarray
    theta_zeta: np.ndarray
    theta_r: np.ndarray
    theta_phi: np.ndarray

    def stacked_regressor_gain(self, i=slice(None)) -> np.ndarray:
        """Ideal gain block ordered like the regressor: (2n+p, p) for agent
        ``i``, or (l, 2n+p, p) for the whole fleet by default."""
        return np.concatenate((self.theta_x[i], self.theta_zeta[i], self.theta_r[i]), axis=-2)


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

    def delayed_drive(self, x_delayed: np.ndarray, u_delayed: np.ndarray) -> np.ndarray:
        """The delayed part ``a_zeta x(t - tau_x) + b u(t - tau_u)`` of the
        fleet derivative, blockwise; states (..., l, n), inputs (..., l, p).

        It reads stored values only, so a run evaluates it for a block of
        steps and stages at once and adds it per stage to ``a x(t)``.
        """
        operand = np.concatenate((x_delayed, u_delayed), axis=-1)
        return (self.delayed @ operand[..., None])[..., 0]


def matching_gains(fleet, leader: LeaderModel) -> MatchingGains:
    """Least-squares ideal gains of the whole fleet, verified to 1e-9 residuals.

    Each condition is solved for all agents at once with the LAPACK
    pseudo-inverse of the agents' (or the leader's) input matrix.  The first
    agent with a condition whose residual exceeds the tolerance, or whose
    gain exceeds ``MAX_GAIN``, raises :class:`NoMatchingSolution`.
    """
    if not isinstance(fleet, FleetDynamics):
        fleet = FleetDynamics(fleet)
    if (fleet.state_dim, fleet.input_dim) != (leader.state_dim, leader.input_dim):
        raise DimensionMismatch("fleet dimensions differ from the leader's")
    b, b_m = fleet.b, leader.b_m
    # Nearly zero input matrices overflow the pseudo-inverse: refused below, unwarned.
    with np.errstate(all="ignore"):
        try:
            pinv_b, pinv_m = np.linalg.pinv(b), np.linalg.pinv(b_m)
        except np.linalg.LinAlgError as exc:
            raise NoMatchingSolution(f"input matrix pseudo-inverse failed: {exc}") from exc
        conditions = (  # name, basis, its pseudo-inverse, target
            ("state matching", b, pinv_b, leader.a_m - fleet.a),
            ("delayed-state matching", b, pinv_b, -fleet.a_zeta),
            ("reference matching", b, pinv_b, b_m),
            ("input-scale matching", b_m, pinv_m, b),
        )
        gains = [inv @ target for _, _, inv, target in conditions]
        fits = [basis @ g - target for (_, basis, _, target), g in zip(conditions, gains)]
        residual = np.stack([np.max(np.abs(f), axis=(1, 2)) for f in fits], axis=1)
        size = np.stack([np.max(np.abs(g), axis=(1, 2)) for g in gains], axis=1)
    failed = np.argwhere(~((residual <= MATCHING_TOL) & (size <= MAX_GAIN)))
    if failed.size:
        i, k = failed[0]
        where = f"agent {i + 1}: {conditions[k][0]}"
        if not size[i, k] <= MAX_GAIN:
            raise NoMatchingSolution(f"{where} gain {size[i, k]:.3e} squares past the float range")
        raise NoMatchingSolution(f"{where} residual {residual[i, k]:.3e} exceeds {MATCHING_TOL}")
    theta_x, theta_zeta, theta_r, theta_phi = gains
    return MatchingGains(np.swapaxes(theta_x, 1, 2), np.swapaxes(theta_zeta, 1, 2), theta_r, theta_phi)
