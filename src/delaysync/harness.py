"""Closed-loop assembly: scenario data, validation, integration, diagnostics.

A Scenario bundles the follower fleet, the leader, the graph, the adaptation
settings, and the run geometry.  run_scenario validates everything, then
integrates one coupled delay system whose state stacks

    [fleet states; auxiliary states; gains; aux gains]

The leader is driven by the reference alone, so it stays outside that
state.  It is linear and time-invariant, so its RK4 step is a matrix
(``LeaderModel.rk4_matrices``): the pass over [0, duration + tau_u] costs
one matrix-vector product per row, and runs a block of steps ahead of the
loop.  The delays are whole multiples of the step, so every delayed value
the loop reads is a row of the states it has already stored: ``tau_x`` or
``tau_u`` rows back at a step's first and last stage, the mean of two
neighbouring rows at its midpoint stages, and row 0 standing in as the
constant pre-history.

The controller's signal chain is written once, in ``adaptive`` and
``plant``, as array functions that take any leading axes, and is split in
two halves.  ``_delay_half`` forms what reads stored values only: the
applied input (the gains one input-delay back against the leader
regressor, zero before the first command arrives), the regressor's delayed
entries and the leader term of the graph error; the fleet's delayed drive
``a_zeta x(t - tau_x) + b u(t - tau_u)`` joins them.  All of these are
precomputed for a block of steps and their four RK4 stages at once
(``_stage_operands``); a block is at most ``tau_x`` long, so every row it
reads is stored before it starts, and holds about OPERAND_VALUES values.
``_stage_half`` forms what needs the current state: the regressor, the
input mismatch, the auxiliary input and the augmented graph error.  The
RK4 right-hand side calls it on each stage state and feeds the result to
the fleet, auxiliary and gain derivatives.  The loop stores only the state
after each step; the recorded signals come afterwards from the same two
halves over blocks of stored rows, with delayed values read ``tau_x`` and
``tau_u`` rows back.

The commanded input recorded in the trace is computed against the leader
rows ``tau_u`` ahead, so no per-step forward prediction is needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import adaptive, linalg
from .adaptive import (
    ControllerConfig,
    applied_input,
    auxiliary_input,
    control,
    delayed_regressor,
    leader_pinning,
    mismatch,
    pinned_error,
    regressor,
)
from .dde import GRID_TOL, DdeState, step_rk4
from .errors import (
    DimensionMismatch,
    DivergenceDetected,
    EmptyTrace,
    NotHurwitz,
    NotPositiveDefinite,
    NotSymmetric,
    SingularMatrix,
    SingularWeight,
    TraceTooLarge,
    ValidationError,
)
from .plant import FleetDynamics, LeaderModel, MatchingGains, aux_derivative, matching_gains
from .topology import (
    Topology,
    build_matrices,
    check_balanced,
    check_threshold,
    leader_reachable,
)

# Integrated states (fleet, leader, auxiliary, gains) beyond this magnitude
# abort the run as divergence.
DIVERGENCE_LIMIT = 1e6
# Runs whose recorded arrays (trace, leader table) would exceed this many
# bytes are refused before anything is allocated.
MAX_RUN_BYTES = 2**30
# Reference-gain magnitudes and adaptation rates below this cannot be
# inverted for the energy monitor.
WEIGHT_TOL = 1e-12
# The loop forms the stage operands of a block of steps at once, and the
# recording the signals of a block of stored rows; a block holds about this
# many values with its temporaries (see _block_values).
OPERAND_VALUES = 2**16

REFERENCE_KINDS = ("constant", "sine", "square")


@dataclass(frozen=True)
class ReferenceSignal:
    """Scalar excitation for the leader; zero before time zero.

    kind is one of constant, sine, square.  The square wave snaps arguments
    within a 1e-9 half-period fraction of a switching instant onto the
    post-switch value, so times that differ only by float rounding of the
    same grid point always read the same level.
    """

    kind: str = "square"
    amplitude: float = 1.0
    period: float = 40.0
    offset: float = 0.0

    def __post_init__(self):
        if self.kind not in REFERENCE_KINDS:
            raise ValidationError(
                f"unknown reference kind {self.kind!r}, expected one of {REFERENCE_KINDS}"
            )
        if self.kind != "constant" and not self.period > 0.0:
            raise ValidationError(f"period must be positive for kind {self.kind!r}")

    def __call__(self, t: float) -> float:
        if t < 0.0:
            return 0.0
        if self.kind == "constant":
            return self.offset + self.amplitude
        if self.kind == "sine":
            return self.offset + self.amplitude * math.sin(2.0 * math.pi * t / self.period)
        half = math.floor(t / (0.5 * self.period) + GRID_TOL)
        return self.offset + (self.amplitude if half % 2 == 0 else -self.amplitude)

    @property
    def piecewise_constant(self) -> bool:
        """True when the signal is flat between jumps, so a sample taken at
        a step boundary and held across the step reproduces it exactly
        (edges permitting; see run_scenario)."""
        return self.kind in ("constant", "square")


@dataclass(frozen=True)
class Scenario:
    """Everything one closed-loop run needs.

    fleet may be given as a list of AgentDynamics or a prebuilt
    FleetDynamics.  theta0 is (l, 2n+p, p), phi_phi0 (l, p, p), r_signs (l,)
    of +-1, x0 and xa0 stacked fleet vectors (l*n), xm0 the leader state (n).
    q_tilde is the positive definite weight whose Lyapunov solution supplies
    the error metric of the adaptation laws.
    """

    fleet: FleetDynamics
    leader: LeaderModel
    topology: Topology
    gamma_theta: np.ndarray
    gamma_phi: np.ndarray
    q_tilde: np.ndarray
    theta0: np.ndarray
    phi_phi0: np.ndarray
    r_signs: np.ndarray
    tau_x: float
    tau_u: float
    step: float
    duration: float
    reference: ReferenceSignal
    x0: np.ndarray
    xm0: np.ndarray
    xa0: np.ndarray
    name: str = "scenario"

    def __post_init__(self):
        fleet = self.fleet
        if not isinstance(fleet, FleetDynamics):
            fleet = FleetDynamics(fleet)
        object.__setattr__(self, "fleet", fleet)
        ell = fleet.num_agents
        n = fleet.state_dim
        p = fleet.input_dim
        q = 2 * n + p
        if self.leader.state_dim != n or self.leader.input_dim != p:
            raise DimensionMismatch("leader dimensions differ from the fleet's")
        if self.topology.num_agents != ell:
            raise DimensionMismatch(
                f"topology has {self.topology.num_agents} agents, fleet has {ell}"
            )
        shapes = {
            "gamma_theta": (self.gamma_theta, (ell, ell)),
            "gamma_phi": (self.gamma_phi, (ell, ell)),
            "q_tilde": (self.q_tilde, (n, n)),
            "theta0": (self.theta0, (ell, q, p)),
            "phi_phi0": (self.phi_phi0, (ell, p, p)),
            "r_signs": (self.r_signs, (ell,)),
            "x0": (self.x0, (ell * n,)),
            "xm0": (self.xm0, (n,)),
            "xa0": (self.xa0, (ell * n,)),
        }
        for field_name, (value, want) in shapes.items():
            arr = np.asarray(value, dtype=float)
            if arr.shape != want:
                raise DimensionMismatch(f"{field_name} shape {arr.shape}, expected {want}")
            object.__setattr__(self, field_name, arr)
        ref = self.reference
        numbers = [(name, getattr(self, name)) for name in shapes] + [
            ("fleet", fleet.a), ("fleet", fleet.a_zeta), ("fleet", fleet.b),
            ("leader", self.leader.a_m), ("leader", self.leader.b_m),
            ("topology", self.topology.follower_weights),
            ("topology", self.topology.leader_weights),
            ("reference", (ref.amplitude, ref.period, ref.offset)),
            ("tau_x", self.tau_x), ("tau_u", self.tau_u),
            ("step", self.step), ("duration", self.duration),
        ]
        if not np.isfinite(np.concatenate([np.ravel(v) for _, v in numbers])).all():
            bad = [name for name, value in numbers if not np.all(np.isfinite(value))]
            raise ValidationError(f"non-finite values in {', '.join(dict.fromkeys(bad))}")
        if not self.step > 0.0:
            raise ValidationError(f"step must be positive, got {self.step}")
        if self.duration < 0.0:
            raise ValidationError(f"duration must be nonnegative, got {self.duration}")
        if not 0.0 < self.tau_x <= self.tau_u:
            raise ValidationError(
                f"delays must satisfy 0 < tau_x <= tau_u, got {self.tau_x} and {self.tau_u}"
            )
        for label, value in (("tau_x", self.tau_x), ("tau_u", self.tau_u), ("duration", self.duration)):
            ratio = value / self.step
            if abs(ratio - round(ratio)) > GRID_TOL:
                raise ValidationError(f"step {self.step} does not divide {label}={value}")
        if np.any(np.abs(self.r_signs) != 1.0):
            raise ValidationError("r_signs entries must be +1 or -1")

    @property
    def num_agents(self) -> int:
        return self.fleet.num_agents

    @property
    def state_dim(self) -> int:
        return self.fleet.state_dim

    @property
    def input_dim(self) -> int:
        return self.fleet.input_dim

    @property
    def regressor_dim(self) -> int:
        return 2 * self.state_dim + self.input_dim


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass
class SimTrace:
    """Per-step record of one run; t runs down axis 0 everywhere.

    x (t, l, n) fleet states, x_m (t, n) leader, x_a (t, l, n) auxiliary,
    e the graph synchronization errors (neighbour-weighted state minus
    leader-weighted reference, per agent), e_a = e + x_a the augmented
    errors, u (t, l, p) commanded inputs, u_aux auxiliary inputs, phi input
    mismatches, theta (t, l, 2n+p, p) and phi_phi (t, l, p, p) gains, v_d
    the scalar energy monitor.
    """

    times: np.ndarray
    x: np.ndarray
    x_m: np.ndarray
    x_a: np.ndarray
    e: np.ndarray
    e_a: np.ndarray
    u: np.ndarray
    u_aux: np.ndarray
    phi: np.ndarray
    theta: np.ndarray
    phi_phi: np.ndarray
    v_d: np.ndarray
    tau_x: float
    tau_u: float

    @property
    def num_rows(self) -> int:
        return self.times.shape[0]


@dataclass(frozen=True)
class TraceMetrics:
    """Summary numbers pulled from one trace.

    peak_error and final_window_mean are on the Euclidean norm of the
    stacked synchronization error; the window is the final 10% of the run.
    settling_time is the first time after which that norm stays below 5%
    of its peak (inf if it never does).  max_vd_slope is the largest
    finite-difference slope of v_d between consecutive steps from
    2*tau_u onward (delayed terms are pre-history driven before that).
    """

    peak_error: float
    final_window_mean: float
    settling_time: float
    max_vd_slope: float
    theta_final: np.ndarray
    phi_phi_final: np.ndarray


def validate_scenario(sc: Scenario) -> list[CheckResult]:
    """Run the five structural checks; failures are reported, not raised."""
    m = build_matrices(sc.topology)
    out = []

    ok = check_balanced(m)
    out.append(
        CheckResult(
            "balanced",
            ok,
            "graph row sums match leader pinning"
            if ok
            else "graph minus pinning does not annihilate the ones vector",
        )
    )

    rep = check_threshold(m, sc.topology.threshold)
    bits = []
    if rep.min_nonzero_eigenvalue is not None:
        bits.append(f"min nonzero eigenvalue {rep.min_nonzero_eigenvalue:.6g}")
    if rep.min_nonzero_leader_weight is not None:
        bits.append(f"min leader weight {rep.min_nonzero_leader_weight:.6g}")
    if rep.zero_leader_weights:
        bits.append(f"agents without leader link: {list(rep.zero_leader_weights)}")
    out.append(
        CheckResult(f"threshold({sc.topology.threshold:g})", rep.passed, ", ".join(bits))
    )

    ok = leader_reachable(sc.topology)
    out.append(
        CheckResult(
            "reachable",
            ok,
            "every agent sees the leader through the graph"
            if ok
            else "some agent has no path from a leader-pinned agent",
        )
    )

    try:
        linalg.cholesky(sc.q_tilde)
        p_block = linalg.solve_lyapunov(sc.leader.a_m, sc.q_tilde)
        try:
            linalg.cholesky(p_block)
        except NotPositiveDefinite as exc:
            # A sign-indefinite solution for a positive definite weight
            # means the leader matrix has spectrum in the right half plane.
            raise NotHurwitz(f"leader matrix is not Hurwitz: {exc}") from exc
        res = float(
            np.max(np.abs(sc.leader.a_m.T @ p_block + p_block @ sc.leader.a_m + sc.q_tilde))
        )
        out.append(
            CheckResult("lyapunov_residual", res <= 1e-9, f"substitution residual {res:.3e}")
        )
    except (NotSymmetric, NotPositiveDefinite, SingularMatrix, NotHurwitz) as exc:
        out.append(CheckResult("lyapunov_residual", False, str(exc)))

    try:
        gains = matching_gains(sc.fleet, sc.leader)
    except Exception as exc:  # NoMatchingSolution or dimension trouble
        out.append(CheckResult("matching", False, str(exc)))
    else:
        if sc.input_dim == 1:
            signs = np.array([math.copysign(1.0, g[0, 0]) for g in gains.theta_r])
            if np.array_equal(signs, sc.r_signs):
                out.append(
                    CheckResult("matching", True, "gains solvable, declared signs agree")
                )
            else:
                out.append(
                    CheckResult(
                        "matching",
                        False,
                        f"declared r_signs {sc.r_signs.tolist()} but computed {signs.tolist()}",
                    )
                )
        else:
            out.append(CheckResult("matching", True, "gains solvable (signs unchecked for p>1)"))
    return out


def _rate_weights(gamma: np.ndarray) -> np.ndarray:
    """Diagonal of the inverse rate matrix; zero diagonal entries map to inf
    (meaning: only admissible when the matching gain error is exactly zero)."""
    off = gamma - np.diag(np.diag(gamma))
    if np.max(np.abs(off), initial=0.0) <= 1e-14:
        d = np.diag(gamma)
        safe = np.where(d > WEIGHT_TOL, d, 1.0)
        return np.where(d > WEIGHT_TOL, 1.0 / safe, np.inf)
    ell = gamma.shape[0]
    cols = np.empty(ell)
    eye = np.eye(ell)
    for i in range(ell):
        cols[i] = linalg.solve_linear(gamma, eye[:, i])[i]
    return cols


def _gain_energy(
    weights: np.ndarray, squares: np.ndarray, label: str
) -> np.ndarray:
    """Weighted per-agent squared gain errors, summed; squares is (..., l)."""
    finite = np.isfinite(weights)
    if not np.all(finite):
        frozen = ~finite
        worst = np.max(squares[..., frozen], initial=0.0)
        if worst > WEIGHT_TOL**2:
            raise SingularWeight(
                f"{label} adaptation is frozen (zero rate) but its gain error is nonzero"
            )
        squares = squares[..., finite]
        weights = weights[finite]
    return squares @ weights


def _energy_series(
    cfg: ControllerConfig,
    gains: MatchingGains,
    e_a: np.ndarray,
    theta: np.ndarray,
    phi_phi: np.ndarray,
) -> np.ndarray:
    """Energy monitor ``V_d`` over trace rows, given the matching gains.

    ``e_a`` is (t, l, n), ``theta`` (t, l, 2n+p, p), ``phi_phi`` (t, l, p, p).
    ``V_d`` is the quadratic graph-error term ``sum_i e_a_i^T P e_a_i`` plus
    the gain errors weighted by the inverse adaptation rates, the theta term
    also by the inverse magnitude of the ideal reference gain.  Raises
    SingularWeight when an ideal reference gain is below 1e-12, or when a
    frozen (zero-rate) adaptation channel carries a nonzero gain error.

    For fleets with more than one input channel the reference-gain weight
    is matrix-valued and not implemented; the quadratic term alone is
    returned then.
    """
    quad = np.einsum("tin,nm,tim->t", e_a, cfg.p_matrix, e_a)
    if theta.shape[-1] != 1:
        return quad
    ell = cfg.num_agents
    r_star = np.array([gains.theta_r[i][0, 0] for i in range(ell)])
    if np.any(np.abs(r_star) < WEIGHT_TOL):
        raise SingularWeight("an ideal reference gain is numerically zero")
    theta_star = np.stack([gains.stacked_regressor_gain(i) for i in range(ell)])
    phi_star = (1.0 / r_star)[:, None, None]
    w_theta = _rate_weights(cfg.gamma_theta) / np.abs(r_star)
    w_phi = _rate_weights(cfg.gamma_phi)
    dth = theta - theta_star[None]
    dph = phi_phi - phi_star[None]
    sq_theta = np.einsum("tiqp,tiqp->ti", dth, dth)
    sq_phi = np.einsum("tipj,tipj->ti", dph, dph)
    return quad + _gain_energy(w_theta, sq_theta, "theta") + _gain_energy(
        w_phi, sq_phi, "phi_phi"
    )


def _delay_half(matrices, tau_u, t, x_del, theta_del, eta_m):
    """The signals that read stored values only: delayed states and gains
    and the leader regressor.

    ``eta_m`` is the leader regressor ``[x_m(t); x_m(t - tau_x);
    r(t - tau_u)]``, which also supplies the current leader state and the
    delayed reference.  Leading axes pass through: a block of steps and RK4
    stages in a run, a block of stored rows in the recording (``t`` holds
    their times).  Returns the applied input, the regressor's delayed
    entries and the leader term of the graph error, the operands of
    :func:`_stage_half`.
    """
    n = x_del.shape[-1]
    u_app = applied_input(theta_del, eta_m, t, tau_u)
    eta_del = delayed_regressor(x_del, eta_m[..., None, 2 * n:])
    return u_app, eta_del, leader_pinning(matrices, eta_m[..., :n])


def _stage_half(matrices, x, x_a, theta, phi_phi, u_app, eta_del, pinned):
    """The signals that need the current state, given the operands from
    :func:`_delay_half`: one RK4 stage in a run, a block of rows in the
    recording.  Returns the fleet regressor, the mismatch, the auxiliary
    input and the augmented error.
    """
    eta = np.concatenate((x, eta_del), axis=-1)
    phi = mismatch(theta, eta, u_app)
    return eta, phi, auxiliary_input(phi_phi, phi), pinned_error(matrices, x, pinned, x_a)


def _lagged(rows: np.ndarray, start: int, stop: int, lag: int) -> np.ndarray:
    """``rows[k - lag]`` for k in [start, stop); row 0 is the constant
    pre-history, so it stands in for every k below ``lag``."""
    if start >= lag:
        return rows[start - lag:stop - lag]
    return rows[np.maximum(np.arange(start, stop) - lag, 0)]


def _delayed(rows: np.ndarray, k, lag: int):
    """Values ``lag`` steps back at the start, midpoint and end of step ``k``.

    ``rows`` holds one sample per grid point.  The delays are whole steps,
    so the start and end read rows ``k - lag`` and ``k - lag + 1`` and the
    RK4 midpoint reads their mean, the linear interpolant halfway.  Row 0 is
    the constant pre-history and stands in for every negative row, as in
    :func:`_lagged`.  ``k`` is one step or an integer array of steps.
    """
    lo = rows[np.maximum(k - lag, 0)]
    hi = rows[np.maximum(k - lag + 1, 0)]
    return lo, 0.5 * (lo + hi), hi


def _levels(ref: ReferenceSignal, times: np.ndarray, p: int) -> np.ndarray:
    """Reference levels at ``times``, one row of ``p`` equal channels each."""
    values = np.fromiter(map(ref, times.ravel()), float, times.size)
    return np.repeat(values.reshape(times.shape + (1,)), p, axis=-1)


def _diverged(worst: float, t: float) -> DivergenceDetected:
    return DivergenceDetected(
        f"state magnitude {worst:.3e} at t={t:.6g} exceeds {DIVERGENCE_LIMIT:.0e}", time=t
    )


def _stage_inputs(ref: ReferenceSignal, start: int, stop: int, h: float, tau_u: float,
                  p: int) -> np.ndarray:
    """The leader's input ``r(t - tau_u)`` at the four RK4 stages of steps
    ``start`` to ``stop - 1``, (stop - start, 4, p).

    Piecewise-constant references are sampled at the step boundary and
    held through the RK4 stages.  The final stage lands exactly on the next
    boundary, where a square wave may have just switched; evaluated there
    it would feed the post-edge level into a step whose true vector field
    uses the pre-edge level throughout, and that one inconsistent stage is
    what shows up as spurious upticks in the energy monitor.  Held at the
    left sample the wave is reproduced exactly on every half-open step
    interval.  Smooth references keep stage-time evaluation and with it the
    integrator's full order.
    """
    starts = np.arange(start, stop) * h
    if ref.piecewise_constant:
        held = _levels(ref, starts - tau_u, p)[:, None, :]
        return np.repeat(held, 4, axis=1)
    mids = starts + 0.5 * h
    return _levels(ref, np.stack([starts, mids, mids, starts + h], axis=1) - tau_u, p)


def _leader_pass(step: np.ndarray, r_in: np.ndarray, table: np.ndarray, start: int,
                 stop: int) -> None:
    """Integrate the leader from ``table[start]`` into rows ``start + 1``
    to ``stop`` of ``table``, one RK4 step per row.

    ``step`` is the step matrix of :meth:`LeaderModel.rk4_matrices` and
    ``r_in`` the stage inputs from :func:`_stage_inputs`.  The leader is
    driven by the reference alone, so it needs nothing from the closed loop
    and runs just ahead of it.  Overflow is left silent: the run reports a
    leader that passes DIVERGENCE_LIMIT from the rows written here.
    """
    n = table.shape[1]
    free = step[:, :n]
    with np.errstate(over="ignore", invalid="ignore"):
        driven = r_in.reshape(stop - start, -1) @ step[:, n:].T
        for j in range(start, stop):
            table[j + 1] = free @ table[j] + driven[j - start]


def _block_values(ell: int, n: int, p: int) -> int:
    """Values :func:`_stage_operands` holds at most per step of a block.

    Per agent, the delayed gains and states are read at a step's start,
    midpoint and end and copied to its four stages, 7 (qp + n) values, and
    the four operands with their temporaries take 4 (3n + 2p); the leader's
    stage states and regressors add 16 q per step.  A recorded row, one
    time instead of four stages, needs fewer.
    """
    q = 2 * n + p
    return ell * (7 * (q * p + n) + 4 * (3 * n + 2 * p)) + 16 * q


def _stage_operands(sc: Scenario, matrices, stages: np.ndarray, r_in: np.ndarray,
                    table: np.ndarray, x_arr: np.ndarray, th_arr: np.ndarray, start: int,
                    stop: int) -> tuple[np.ndarray, ...]:
    """Operands of every RK4 stage of steps ``start`` to ``stop - 1`` that
    read stored rows only: the applied input, the fleet's delayed drive,
    the regressor's delayed entries and the leader term of the graph error.

    ``stages`` are the leader's stage matrices from
    :meth:`LeaderModel.rk4_matrices` and ``r_in`` the steps' stage inputs.
    Delayed states and gains are read as :func:`_delayed` reads them, so
    ``stop - start`` may not exceed the state delay in steps: every row read
    must already be stored.  Each operand is (4 (stop - start), l, ...), one
    entry per stage in the order ``step_rk4`` evaluates them.
    """
    h = sc.step
    n = sc.state_dim
    steps = np.arange(start, stop)

    def staged(rows, lag):
        lo, mid, hi = _delayed(rows, steps, lag)
        return np.stack((lo, mid, mid, hi), axis=1)

    t = steps * h
    mid = t + 0.5 * h
    times = np.stack((t, mid, mid, t + h), axis=1)
    operand = np.concatenate((table[start:stop], r_in.reshape(stop - start, -1)), axis=1)
    leader = (operand @ stages.reshape(4 * n, -1).T).reshape(stop - start, 4, n)
    dx = int(round(sc.tau_x / h))
    eta_m = regressor(leader, staged(table, dx), r_in)
    x_del = staged(x_arr, dx)
    th_del = staged(th_arr, int(round(sc.tau_u / h)))
    u_app, eta_del, pinned = _delay_half(matrices, sc.tau_u, times, x_del, th_del, eta_m)
    del th_del  # the largest temporary: gone before the drive is formed
    drive = sc.fleet.delayed_drive(x_del, u_app)
    return tuple(v.reshape((-1,) + v.shape[2:]) for v in (u_app, drive, eta_del, pinned))


def run_scenario(sc: Scenario) -> SimTrace:
    """Validate, integrate, and record one closed-loop run.

    Raises ValidationError when a structural check fails; its message lists
    them and its ``failed`` attribute carries the failed CheckResults.
    Raises TraceTooLarge before any allocation when the recorded arrays
    would pass MAX_RUN_BYTES, DivergenceDetected (with the offending time)
    if any integrated state (fleet, leader, auxiliary, gains) passes 1e6 in
    magnitude, the leader rows read ``tau_u`` past the last step included,
    and propagates integrator errors.
    """
    failed = [c for c in validate_scenario(sc) if not c.passed]
    if failed:
        raise ValidationError(
            "scenario checks failed: "
            + "; ".join(f"{c.name} ({c.detail})" for c in failed),
            failed=failed,
        )

    ell, n, p = sc.num_agents, sc.state_dim, sc.input_dim
    q = 2 * n + p
    ln = ell * n
    h = sc.step
    m = sc.leader
    fleet = sc.fleet
    matrices = build_matrices(sc.topology)
    p_block = linalg.solve_lyapunov(m.a_m, sc.q_tilde)
    p_b = p_block @ m.b_m
    gains = matching_gains(fleet, m)
    cfg = ControllerConfig(sc.gamma_theta, sc.gamma_phi, p_block, sc.r_signs)
    ref = sc.reference
    tau_x, tau_u = sc.tau_x, sc.tau_u

    total = int(round(sc.duration / h))
    du = int(round(tau_u / h))
    dx = int(round(tau_x / h))
    lead = total + du  # leader steps: the commanded input looks tau_u ahead
    # Trace rows (one CSV row each; the leader columns are the table's) and
    # the leader table.
    row_width = 2 + n + 4 * ln + ell * (3 * p + q * p + p * p)
    floats = (total + 1) * (row_width - n) + (lead + 1) * n
    if 8 * floats > MAX_RUN_BYTES:
        raise TraceTooLarge(
            f"run would record {8 * floats / 2**30:.3g} GiB "
            f"({total + 1} rows of {row_width} values), over the "
            f"{MAX_RUN_BYTES / 2**30:g} GiB limit"
        )

    table = np.empty((lead + 1, n))
    table[0] = sc.xm0
    leader_step, leader_stages = m.rk4_matrices(h)

    i_xa = ln
    i_th = i_xa + ln
    i_ph = i_th + ell * q * p
    z0 = np.concatenate([sc.x0, sc.xa0, sc.theta0.reshape(-1), sc.phi_phi0.reshape(-1)])
    states = np.empty((total + 1, z0.shape[0]))
    x_arr = states[:, :ln].reshape(-1, ell, n)
    th_arr = states[:, i_th:i_ph].reshape(-1, ell, q, p)
    # A block's stage operands (_stage_operands); `stage` indexes them.
    u_app = drive = eta_del = pinned = None
    stage = 0

    def rhs(t: float, y: np.ndarray, hist) -> np.ndarray:
        nonlocal stage
        i = stage
        stage += 1  # step_rk4 evaluates its four stages in order
        x = y[:ln].reshape(ell, n)
        xa = y[i_xa:i_th].reshape(ell, n)
        eta, phi, u_aux, e_a = _stage_half(
            matrices, x, xa, y[i_th:i_ph].reshape(ell, q, p), y[i_ph:].reshape(ell, p, p),
            u_app[i], eta_del[i], pinned[i],
        )
        d_th, d_ph = adaptive.gain_derivatives(cfg, matrices, p_b, e_a, eta, phi)
        d_x = fleet.derivative(x, drive[i])
        d_xa = aux_derivative(m, matrices, xa, u_aux)
        return np.concatenate((d_x.ravel(), d_xa.ravel(), d_th.ravel(), d_ph.ravel()))

    def check_divergence(values: np.ndarray, k: int) -> None:
        worst = float(np.abs(values).max())
        if not worst <= DIVERGENCE_LIMIT:
            raise _diverged(worst, k * h)

    check_divergence(np.append(z0, table[0]), 0)
    state = DdeState(state=z0, histories={}, recorders=(), step=h)
    states[0] = z0
    # A block holds about OPERAND_VALUES values; in the loop it is also at
    # most tau_x steps long, so that it reads only rows stored before it.
    per_block = max(1, OPERAND_VALUES // _block_values(ell, n, p))
    span = min(dx, per_block)
    for a in range(0, lead, span):
        b = min(a + span, lead)
        r_in = _stage_inputs(ref, a, b, h, tau_u, p)
        _leader_pass(leader_step, r_in, table, a, b)
        # The first leader row past the limit ends the run at its time, the
        # rows read tau_u past the last step included; the fleet steps up to
        # it, so no step reads a diverged leader and a fleet that diverges
        # earlier is reported first.
        worst = np.abs(table[a + 1:b + 1]).max(axis=1)
        bad = np.flatnonzero(~(worst <= DIVERGENCE_LIMIT))
        stop = min(a + int(bad[0]) if bad.size else b, total)
        if a < stop:
            u_app, drive, eta_del, pinned = _stage_operands(
                sc, matrices, leader_stages, r_in[:stop - a], table, x_arr, th_arr, a, stop
            )
            for k in range(a, stop):
                stage = 4 * (k - a)
                state = step_rk4(rhs, state)
                check_divergence(state.state, k + 1)
                states[k + 1] = state.state
        if bad.size:
            raise _diverged(float(worst[bad[0]]), (a + 1 + int(bad[0])) * h)

    times = np.arange(total + 1) * h
    xm_arr = table[:total + 1]
    xa_arr = states[:, i_xa:i_th].reshape(-1, ell, n)
    ph_arr = states[:, i_ph:].reshape(-1, ell, p, p)
    # Rows read the right-continuous reference level at their own time.
    r_del = _levels(ref, times - tau_u, p)
    r_now = _levels(ref, times, p)
    e_arr = np.empty((total + 1, ell, n))
    ea_arr = np.empty((total + 1, ell, n))
    u_arr = np.empty((total + 1, ell, p))
    uaux_arr = np.empty((total + 1, ell, p))
    phi_arr = np.empty((total + 1, ell, p))
    for a in range(0, total + 1, per_block):
        b = min(a + per_block, total + 1)
        xa = xa_arr[a:b]
        eta_m_rows = regressor(xm_arr[a:b], _lagged(xm_arr, a, b, dx), r_del[a:b])
        operands = _delay_half(
            matrices, tau_u, times[a:b], _lagged(x_arr, a, b, dx), _lagged(th_arr, a, b, du),
            eta_m_rows,
        )
        _, phi, u_aux, e_a = _stage_half(
            matrices, x_arr[a:b], xa, th_arr[a:b], ph_arr[a:b], *operands
        )
        e_arr[a:b] = e_a - xa
        ea_arr[a:b] = e_a
        phi_arr[a:b] = phi
        uaux_arr[a:b] = u_aux
        # commanded input: current gains against the leader regressor tau_u ahead
        eta_pred = regressor(table[a + du:b + du], table[a + du - dx:b + du - dx], r_now[a:b])
        u_arr[a:b] = control(th_arr[a:b], eta_pred)

    v_d = _energy_series(cfg, gains, ea_arr, th_arr, ph_arr)
    return SimTrace(
        times=times,
        x=x_arr,
        x_m=xm_arr,
        x_a=xa_arr,
        e=e_arr,
        e_a=ea_arr,
        u=u_arr,
        u_aux=uaux_arr,
        phi=phi_arr,
        theta=th_arr,
        phi_phi=ph_arr,
        v_d=v_d,
        tau_x=tau_x,
        tau_u=tau_u,
    )


def metrics(trace: SimTrace) -> TraceMetrics:
    """Headline numbers for one trace; raises EmptyTrace on zero rows."""
    if trace.times.shape[0] == 0:
        raise EmptyTrace("trace has no rows")
    norms = np.sqrt(np.einsum("tin,tin->t", trace.e, trace.e))
    peak = float(np.max(norms))
    span = float(trace.times[-1] - trace.times[0])
    window_start = trace.times[-1] - 0.1 * span
    in_window = trace.times >= window_start - GRID_TOL
    final_mean = float(np.mean(norms[in_window]))

    if peak == 0.0:
        settling = 0.0
    else:
        above = np.nonzero(norms >= 0.05 * peak)[0]
        last = int(above[-1])
        settling = math.inf if last == norms.shape[0] - 1 else float(trace.times[last + 1])

    start = 2.0 * trace.tau_u
    tail = np.nonzero(trace.times >= start - GRID_TOL)[0]
    if tail.shape[0] >= 2:
        seg_t = trace.times[tail]
        seg_v = trace.v_d[tail]
        max_slope = float(np.max(np.diff(seg_v) / np.diff(seg_t)))
    else:
        max_slope = 0.0

    return TraceMetrics(
        peak_error=peak,
        final_window_mean=final_mean,
        settling_time=settling,
        max_vd_slope=max_slope,
        theta_final=trace.theta[-1].copy(),
        phi_phi_final=trace.phi_phi[-1].copy(),
    )
