"""Closed-loop assembly: scenario data, validation, integration, diagnostics.

A Scenario bundles the follower fleet, the leader, the graph, the adaptation
settings, and the run geometry, and checks each of them once, when it is
built: shapes, finite values, delays the step divides (the state delay
at least one step), +-1 signs, and one nonnegative adaptation rate per
agent.  run_blocks runs the five structural checks of validate_scenario,
then integrates one coupled delay system whose state stacks

    [fleet states; auxiliary states; gains; aux gains]

and yields the trace a block of rows at a time; run_scenario joins the
blocks into one SimTrace.

The leader is driven by the reference alone, so it stays outside that
state.  It is linear and time-invariant, so its RK4 step is a matrix
(``LeaderModel.rk4_matrices``) and row k of the leader table is its
operand, ``[x_m; r at step k's four stages]``: the pass over [0, duration
+ tau_u] fills and steps it a chunk of rows at a time, before the loop.  The
delays are whole multiples of the step, so every delayed value the loop
reads is a row of the states it has already stored (``dde.delayed``):
``tau_x`` or ``tau_u`` rows back at a step's first and last stage, the mean
of two neighbouring rows at its midpoint stages, and row 0 standing in as
the constant pre-history.  Only the fleet states are read ``tau_x`` back and
only the gains ``tau_u`` back, so the loop keeps each in a delay line of
``tau_x + 1`` or ``tau_u + 1`` rows, which holds run row j at slot j mod its
length and takes a block's new rows after the block; slot 0 keeps row 0
until no step reads the pre-history.  The whole states are kept only for
the block being stepped.

The loop precomputes the operands that read stored values only for a
block of steps and their four RK4 stages at once (``_StageKernel.load``),
one row of a run-long array per stage: the applied input (the gains one
input-delay back against the leader regressor, zero before the first
command arrives), the regressor's delayed entries, the fleet's delayed
drive ``a_zeta x(t - tau_x) + b u(t - tau_u)`` and the leader's projected
state ``x_m P b_m``.  A block is at most ``tau_x`` long, so every row it
reads is stored before it starts, and holds about OPERAND_VALUES values.
Each step is one ``dde.step_rk4`` call in the kernel's work rows, which
forms no array and hands every stage the index of its operand row.  The
right-hand side is ``_StageKernel.stage``, the one evaluation of the
controller's signals: it forms the mismatch, the auxiliary input and the
adaptation drive, then the fleet, auxiliary and gain derivatives, in
buffers made once per run.  Fleet rows are checked for divergence once
per block.

Stage 0 of step k evaluates at row k's state with row k's operands, so the
loop records row k's mismatch and auxiliary input from it after the step;
the last row, which starts no step, gets one kernel call of its own.  Each
block's steps write its whole states into rows of its own, and right after
it is stepped its rows are recorded as one SimTrace and yielded: the
augmented error ``(L x - g x_m) + x_a``, the commanded input against the
leader rows ``tau_u`` ahead (so no per-step forward prediction is needed)
and ``V_d``, each formed per row, so the rows of a block equal those of
the whole trace bit for bit.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from . import linalg
from .adaptive import applied_input, control, delayed_regressor, regressor
from .dde import GRID_TOL, delayed, step_rk4
from .errors import (
    DelaySyncError,
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
from .plant import FleetDynamics, LeaderModel, MatchingGains, matching_gains
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
# Runs whose trace rows and leader table ((lead + 1) (n + 4p) values), which
# grow with the horizon plus tau_u, would exceed this many bytes together are
# refused before anything is allocated.  What a run holds of the closed
# loop at once is not counted: delay lines of the fleet states and gains,
# tau_x and tau_u long, and one block of rows.
MAX_RUN_BYTES = 2**30
# Reference-gain magnitudes below this cannot be inverted for the energy
# monitor, and an adaptation rate at or below it freezes its channel: the
# kernel adapts it at rate 0 and the monitor weighs it 0 (_live_rates).
WEIGHT_TOL = 1e-12
# The loop forms the stage operands of a block of steps at once; a block
# holds about this many values with its temporaries (see _block_values).
OPERAND_VALUES = 2**16

REFERENCE_KINDS = ("constant", "sine", "square")
# The SimTrace fields with a row axis, in field order (trace.csv's order),
# and the prefix of each one's trace.csv column names.
ROW_FIELDS = {
    "times": "t", "x": "x", "x_m": "xm", "x_a": "xa", "e": "e", "e_a": "ea", "u": "u",
    "u_aux": "ua", "phi": "phi", "theta": "theta", "phi_phi": "phi_phi", "v_d": "V_d",
}


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

    fleet is the followers' FleetDynamics, stacked (l, ...) arrays; any
    other value raises a ValidationError naming it.  theta0 is (l, 2n+p, p),
    phi_phi0 (l, p, p), r_signs (l,) of +-1, x0 and xa0 stacked fleet
    vectors (l*n), xm0 the leader state (n).
    q_tilde is the positive definite weight whose Lyapunov solution supplies
    the error metric of the adaptation laws.  The (l, l) adaptation rates
    gamma_theta and gamma_phi are diagonal, one nonnegative rate per agent,
    since each agent adapts at its own rate and the energy monitor weights
    its gain errors by the inverse; a rate at or below WEIGHT_TOL freezes
    that agent's channel.  tau_x is at least one step.  Every field is
    checked here, and a bad one raises a ValidationError or DimensionMismatch
    naming it.
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
            raise ValidationError(f"fleet must be a FleetDynamics, got {type(fleet).__name__}")
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
        # the loop steps in blocks of at most tau_x, and of at least one step
        if not (1.0 - GRID_TOL) * self.step <= self.tau_x <= self.tau_u:
            raise ValidationError(
                f"delays must satisfy step <= tau_x <= tau_u, "
                f"got step={self.step}, tau_x={self.tau_x}, tau_u={self.tau_u}"
            )
        for label, value in (("tau_x", self.tau_x), ("tau_u", self.tau_u), ("duration", self.duration)):
            ratio = value / self.step
            # a ratio too large to represent counts as not dividing
            if not math.isfinite(ratio) or abs(ratio - round(ratio)) > GRID_TOL:
                raise ValidationError(f"step {self.step} does not divide {label}={value}")
        try:  # read up to the duration, tau_u to spare, its phase must be finite
            ref(self.duration + self.tau_u)
        except (ArithmeticError, ValueError):
            raise ValidationError(
                f"reference period {ref.period} is too short: the phase at "
                f"duration + tau_u = {self.duration + self.tau_u} is not finite"
            ) from None
        if np.any(np.abs(self.r_signs) != 1.0):
            raise ValidationError("r_signs entries must be +1 or -1")
        for label in ("gamma_theta", "gamma_phi"):
            rates = getattr(self, label)
            coupled = np.argwhere(rates != np.diag(np.diag(rates)))
            if coupled.size:
                i, j = coupled[0]
                raise ValidationError(
                    f"{label} must be diagonal (one rate per agent), "
                    f"entry ({i + 1}, {j + 1}) is {rates[i, j]:.3g}"
                )
            negative = np.flatnonzero(np.diag(rates) < 0.0)
            if negative.size:
                i = negative[0]
                raise ValidationError(
                    f"{label} must be positive semidefinite, "
                    f"entry ({i + 1}, {i + 1}) is {rates[i, i]:.3g}"
                )

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
    # What the check solved, for run_scenario to reuse (see _solved).
    solved: object = field(default=None, repr=False, compare=False)


@dataclass
class SimTrace:
    """Per-step record of one run; t runs down axis 0 everywhere.

    x (t, l, n) fleet states, x_m (t, n) leader, x_a (t, l, n) auxiliary,
    e the graph synchronization errors (neighbour-weighted state minus
    leader-weighted reference, per agent), e_a = e + x_a the augmented
    errors, u (t, l, p) commanded inputs, u_aux auxiliary inputs, phi input
    mismatches, theta (t, l, 2n+p, p) and phi_phi (t, l, p, p) gains, v_d
    the scalar energy monitor.  run_blocks yields a run as SimTraces of a
    block of consecutive rows each; ROW_FIELDS names the fields with a row
    axis.  tau_u is the run's input delay, after twice which metrics reads
    the slope of v_d.
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
    """Run the five structural checks; failures are reported, not raised.

    The checks that solve something carry it in ``solved``, the matching
    check the energy monitor it builds from the ideal gains, so that
    run_scenario reuses them instead of solving again.
    """
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
            m,
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
        linalg.require_positive_definite(sc.q_tilde, "q_tilde")
        p_block = linalg.solve_lyapunov(sc.leader.a_m, sc.q_tilde)
        try:
            linalg.require_positive_definite(p_block, "P")
        except NotPositiveDefinite as exc:
            # A sign-indefinite solution for a positive definite weight
            # means the leader matrix has spectrum in the right half plane.
            raise NotHurwitz(f"leader matrix is not Hurwitz: {exc}") from exc
        # solve_lyapunov has refused a substitution residual above 1e-9
        out.append(
            CheckResult("lyapunov_residual", True, "substitution residual within 1e-9", p_block)
        )
    except (NotSymmetric, NotPositiveDefinite, SingularMatrix, NotHurwitz) as exc:
        out.append(CheckResult("lyapunov_residual", False, str(exc)))

    try:
        gains = matching_gains(sc.fleet, sc.leader)
        # the Lyapunov check's block, None when it could not be solved
        energy = _EnergyMonitor(out[-1].solved, sc, gains)
    except DelaySyncError as exc:
        out.append(CheckResult("matching", False, str(exc)))
    else:
        detail = ("gains solvable, declared signs agree" if sc.input_dim == 1
                  else "gains solvable (signs unchecked for p>1)")
        out.append(CheckResult("matching", True, detail, energy))
    return out


def _solved(checks: list[CheckResult]):
    """The topology matrices, Lyapunov block and energy monitor that the
    passed checks of validate_scenario solved for."""
    solved = {c.name: c.solved for c in checks}
    return solved["balanced"], solved["lyapunov_residual"], solved["matching"]


def _live_rates(sc: Scenario) -> np.ndarray:
    """Each agent's theta and phi_phi adaptation rates, (2, l), with a rate
    at or below WEIGHT_TOL as 0.  The kernel adapts by these and the energy
    monitor weighs by their inverses, so a channel one sees as frozen the
    other does too."""
    rates = np.stack([np.diag(sc.gamma_theta), np.diag(sc.gamma_phi)])
    return np.where(rates > WEIGHT_TOL, rates, 0.0)


class _EnergyMonitor:
    """The energy monitor ``V_d`` of one scenario over rows of a trace: the
    one place that decides its weights, formed and checked once, by the
    matching check of validate_scenario.

    ``p_block`` is the leader's (n, n) Lyapunov block ``P`` and ``gains``
    the ideal gains.  ``V_d`` is the quadratic graph-error term ``sum_i
    e_a_i^T P e_a_i`` plus each agent's gain errors weighted by its inverse
    live rates (:func:`_live_rates`), the theta term also by the inverse
    magnitude of the ideal reference gain; a frozen channel weighs 0.
    Building it raises, in this order, SingularWeight for an ideal
    reference gain below WEIGHT_TOL, ValidationError for declared r_signs
    that differ from its signs, and SingularWeight for a frozen channel
    whose initial gains, which it keeps bit for bit, are not the ideal
    ones.  Each row is reduced on its own, so any block of rows gets the
    values of the whole trace.

    For fleets with more than one input channel the reference-gain weight
    is matrix-valued and not implemented; the quadratic term alone is
    returned then, and nothing is checked.
    """

    def __init__(self, p_block, sc: Scenario, gains: MatchingGains):
        self.p_block = p_block
        self.single_input = sc.input_dim == 1
        if not self.single_input:
            return
        r_star = gains.theta_r[:, 0, 0]
        tiny = np.flatnonzero(np.abs(r_star) < WEIGHT_TOL)
        if tiny.size:
            i = tiny[0]
            raise SingularWeight(
                f"agent {i + 1}: ideal reference gain {r_star[i]:.3e} is numerically zero")
        signs = np.copysign(1.0, r_star)
        if not np.array_equal(signs, sc.r_signs):
            raise ValidationError(
                f"declared r_signs {sc.r_signs.tolist()} but computed {signs.tolist()}")
        self.theta_star = gains.stacked_regressor_gain()[None]
        self.phi_star = (1.0 / r_star)[None, :, None, None]
        rates = _live_rates(sc)
        weights = np.divide(1.0, rates, out=np.zeros_like(rates), where=rates > 0.0)
        self.w_theta = weights[0] / np.abs(r_star)
        self.w_phi = weights[1]
        if rates.all():  # no frozen channel to check
            return
        squares = self._squares(sc.theta0[None], sc.phi_phi0[None])
        for label, live, sq in zip(("theta", "phi_phi"), rates, squares):
            bad = np.flatnonzero((live == 0.0) & (sq[0] > WEIGHT_TOL**2))
            if bad.size:
                raise SingularWeight(
                    f"agent {bad[0] + 1}: {label} adaptation is frozen (rate at or below "
                    f"{WEIGHT_TOL:g}) but its gain error is nonzero"
                )

    def _squares(self, theta: np.ndarray, phi_phi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each row's per-agent squared theta and phi_phi errors, (t, l)
        each, over rows of gains (t, l, 2n+p, 1) and (t, l, 1, 1)."""
        dth = theta - self.theta_star
        dph = phi_phi - self.phi_star
        return np.einsum("tiqp,tiqp->ti", dth, dth), np.einsum("tipj,tipj->ti", dph, dph)

    def __call__(self, e_a: np.ndarray, theta: np.ndarray, phi_phi: np.ndarray) -> np.ndarray:
        """``V_d`` over rows of ``e_a`` (t, l, n), ``theta`` (t, l, 2n+p, p)
        and ``phi_phi`` (t, l, p, p)."""
        quad = np.einsum("tin,nm,tim->t", e_a, self.p_block, e_a)
        if not self.single_input:
            return quad
        sq_theta, sq_phi = self._squares(theta, phi_phi)
        return (quad + np.einsum("ti,i->t", sq_theta, self.w_theta)
                + np.einsum("ti,i->t", sq_phi, self.w_phi))


class _StageKernel:
    """The run's right-hand side: one RK4 stage of the coupled state
    ``[x; x_a; theta; phi_phi]``, evaluated in buffers made once per run.

    ``stage(t, z, out, i)`` is what the loop hands ``dde.step_rk4``.  It
    forms the regressor, the mismatch phi and the auxiliary input u_aux,
    and from them the fleet, auxiliary and gain derivatives, with every
    product written into a fixed buffer through ``out=``, because the
    arrays are small enough that each fresh array, reshape or concatenate
    costs more than its arithmetic; the buffers are bound as locals of the
    function.  It works in ``work``, the (6, size) array of ``step_rk4``,
    through views made once: stage ``i & 3 == 0`` reads the state in row 0
    and the others the stage state in row 5, and stage ``i & 3`` writes its
    derivative into row ``1 + (i & 3)``, the rows ``step_rk4`` hands it as
    ``z`` and ``out``.  It writes phi and u_aux into ``signals[i & 3]``:
    the four stages of a step get four, and a result stays valid until the
    same stage of the next step.  Stage 0 of step k evaluates at row k's
    state with row k's delayed operands, so its signals are row k's
    recorded ones.  The tests compare it against the reference formulas in
    ``tests/chain_oracle.py``.

    :meth:`load` writes each stage's delay-only operands into its row
    ``i`` of ``operands``, which holds ``steps`` steps and lives for the
    run, and the stage copies that row into one work row whose views it
    reads: the regressor, whose current state it copies in, the applied
    input, the fleet's delayed drive and the projected errors.  The
    adaptation drive of the projected error ``(L x - g x_m + x_a) P b_m``
    is one product ``K [x P b_m; x_a P b_m; x_m P b_m]`` with
    ``K = [R L | R | -R g]``, formed once, R the signed rates times
    ``L^T`` and g the pinning column, and the auxiliary drive
    ``(L u_aux) b_m^T`` one product with ``kron(L, b_m)``.  The
    adaptation rates are the scenario's live ones (:func:`_live_rates`) and
    the signs its declared ones; ``p_block`` is the leader's Lyapunov
    block ``P`` that validation solved.
    """

    # Slots, not an instance dict: CPython shrinks a class's shared-key dict
    # over its first instances, which a tracemalloc peak would count.
    __slots__ = ("sc", "leader_step", "stages", "p_b", "operands", "eta_ops", "u_app_ops",
                 "drive_ops", "leader_ops", "work", "signals", "stage")

    def __init__(self, sc: Scenario, matrices, p_block: np.ndarray, steps: int):
        ell, n, p = sc.num_agents, sc.state_dim, sc.input_dim
        q = 2 * n + p
        ln = ell * n
        laplacian = matrices.laplacian_like
        self.sc = sc
        self.leader_step, self.stages = sc.leader.rk4_matrices(sc.step)
        self.p_b = p_block @ sc.leader.b_m
        # R (2l, l) = [-sign(theta_r*) Gamma_theta; -Gamma_phi] L^T: the
        # rows of [L^T; L^T] scaled by each agent's signed rate
        theta_rates, phi_rates = _live_rates(sc)
        signed_rates = -np.concatenate([sc.r_signs * theta_rates, phi_rates])
        rates_l = signed_rates[:, None] * np.vstack([laplacian.T, laplacian.T])
        drive_gain = np.hstack([rates_l @ laplacian, rates_l, -(rates_l @ matrices.pinning)])
        aux_gain = np.kron(laplacian, sc.leader.b_m)
        a, a_m_t, p_b = sc.fleet.a, sc.leader.a_m.T, self.p_b

        # A stage's operands, one row: [eta | u_app | drive | projected].
        # The current state's part of eta and the fleet's part of the
        # projected errors are written per stage.  The cuts are Python ints:
        # np.cumsum of a list allocates through numpy's caches, so whether
        # its objects count in a tracemalloc peak depended on earlier calls.
        cuts = list(itertools.accumulate((ell * q, ell * p, ln)))
        width = cuts[-1] + (2 * ell + 1) * p

        def operand_views(rows):
            lead = rows.shape[:-1]
            return (rows[..., :cuts[0]].reshape(lead + (ell, q)),
                    rows[..., cuts[0]:cuts[1]].reshape(lead + (ell, p)),
                    rows[..., cuts[1]:cuts[2]].reshape(lead + (ell, n)),
                    rows[..., cuts[2]:].reshape(lead + (2 * ell + 1, p)))

        self.operands = operands = np.zeros((4 * steps, width))
        self.eta_ops, self.u_app_ops, self.drive_ops, projected_ops = operand_views(operands)
        self.leader_ops = projected_ops[:, -1]
        row = np.empty(width)
        eta, u_app, drive, projected = operand_views(row)
        eta_x, eta_row, eta_col = eta[:, :n], eta[:, None, :], eta[:, :, None]
        projected_fleet = projected[:2 * ell]
        aux_drive = np.empty(ln)
        aux_drive_rows = aux_drive.reshape(ell, n)
        g = np.empty((2 * ell, p))
        g_theta, g_phi = g[:ell, None, :], g[ell:, :, None]

        def split(flat):
            return (flat[:ln].reshape(ell, n), flat[ln:2 * ln].reshape(ell, n),
                    flat[2 * ln:2 * ln + ell * q * p].reshape(ell, q, p),
                    flat[2 * ln + ell * q * p:].reshape(ell, p, p))

        self.work = work = np.empty((6, 2 * ln + ell * (q * p + p * p)))
        self.signals = np.empty((4, 2, ell, p))
        views = []
        for j in range(4):
            state = work[0 if j == 0 else 5]
            x, x_a, theta, phi_phi = split(state)
            dx, dx_a, d_theta, d_phi_phi = split(work[1 + j])
            phi, u_aux = self.signals[j]
            views.append((x, x[:, :, None], state[:2 * ln].reshape(2 * ell, n), x_a, theta,
                          phi_phi, dx, dx[:, :, None], dx_a, d_theta, d_phi_phi, phi,
                          phi[:, None, :], phi[:, :, None], u_aux.reshape(-1), u_aux[:, :, None]))

        def stage(t, z, out, i):
            (x, x_col, fleet, x_a, theta, phi_phi, dx, dx_col, dx_a, d_theta, d_phi_phi, phi,
             phi_row, phi_col, u_aux, u_aux_col) = views[i & 3]
            np.copyto(row, operands[i])
            np.copyto(eta_x, x)
            # mismatch theta^T eta - u_app, and the auxiliary input phi_phi phi
            np.matmul(eta_row, theta, out=phi_row)
            np.subtract(phi, u_app, out=phi)
            np.matmul(phi_phi, phi_col, out=u_aux_col)
            # fleet a x + drive, auxiliary x_a a_m^T + (L u_aux) b_m^T
            np.matmul(a, x_col, out=dx_col)
            np.add(dx, drive, out=dx)
            np.dot(x_a, a_m_t, out=dx_a)
            np.dot(aux_gain, u_aux, out=aux_drive)
            np.add(dx_a, aux_drive_rows, out=dx_a)
            # adaptation drive K [x P b_m; x_a P b_m; x_m P b_m], then the laws
            np.dot(fleet, p_b, out=projected_fleet)
            np.dot(drive_gain, projected, out=g)
            np.multiply(eta_col, g_theta, out=d_theta)
            np.multiply(g_phi, phi_row, out=d_phi_phi)

        self.stage = stage

    def load(self, table: np.ndarray, x_line: np.ndarray, th_line: np.ndarray,
             start: int, stop: int) -> None:
        """Write the operands of every RK4 stage of steps ``start`` to
        ``stop - 1`` that read stored rows only into rows ``0`` to
        ``4 (stop - start) - 1`` of ``operands``, one row a stage, which
        stage i reads at row i: start, midpoint, midpoint, end of each
        step.  They are the regressor's delayed entries (``eta_ops``), the
        applied input (``u_app_ops``), the fleet's delayed drive
        (``drive_ops``) and the leader's projected state ``x_m P b_m``
        (``leader_ops``).

        Delayed values are gathered by :func:`delaysync.dde.delayed`, so
        ``stop - start`` may not exceed the state delay in steps, nor the
        ``steps`` the kernel was made for: every row read must already be
        stored.  ``table`` is the leader table, whose rows
        (:func:`_leader_pass`) give the leader's stage states and
        regressors' reference entries and are gathered whole; ``x_line``
        and ``th_line`` hold the fleet states and gains, whole or as delay
        lines that keep run row j at slot j mod their length, at least the
        state and input delay in steps plus one.
        """
        sc = self.sc
        h = sc.step
        n = sc.state_dim
        steps = stop - start
        m = 4 * steps

        def staged(rows, lag):
            lo, mid, hi = delayed(rows, start, stop, lag)
            return np.stack((lo, mid, mid, hi), axis=1)

        def block(ops):
            return ops[:m].reshape((steps, 4) + ops.shape[1:])

        t = np.arange(start, stop) * h
        mid = t + 0.5 * h
        times = np.stack((t, mid, mid, t + h), axis=1)
        operand = table[start:stop]
        leader = (operand @ self.stages.reshape(4 * n, -1).T).reshape(steps, 4, n)
        np.matmul(leader, self.p_b, out=block(self.leader_ops))
        dx = int(round(sc.tau_x / h))
        r = operand[:, n:].reshape(steps, 4, -1)
        eta_m = regressor(leader, staged(table, dx)[..., :n], r)
        th_del = staged(th_line, int(round(sc.tau_u / h)))
        u_app = block(self.u_app_ops)
        u_app[...] = applied_input(th_del, eta_m, times, sc.tau_u)
        del th_del  # the largest temporary: gone before the drive is formed
        x_del = staged(x_line, dx)
        block(self.eta_ops)[..., n:] = delayed_regressor(x_del, r[:, :, None, :])
        block(self.drive_ops)[...] = sc.fleet.delayed_drive(x_del, u_app)


def _diverged(rows: np.ndarray, start: int, h: float):
    """The earliest of ``rows``, run row ``start`` onward, past
    DIVERGENCE_LIMIT: its run row and its DivergenceDetected, or None."""
    worst = np.abs(rows).max(axis=1)
    bad = np.flatnonzero(~(worst <= DIVERGENCE_LIMIT))
    if not bad.size:
        return None
    row, value = start + int(bad[0]), float(worst[bad[0]])
    t = row * h
    if not math.isfinite(value):
        return row, DivergenceDetected(f"non-finite state at t={t:.6g}", time=t)
    return row, DivergenceDetected(
        f"state magnitude {value:.3e} at t={t:.6g} exceeds {DIVERGENCE_LIMIT:.0e}", time=t
    )


def _stage_inputs(ref: ReferenceSignal, inputs: np.ndarray, du: int, h: float) -> None:
    """Fill ``inputs`` (rows, 4p), the leader table's input columns, with
    the leader's input ``r(t - tau_u)`` at the four RK4 stages of step k,
    ``r((k - du) h + c h)`` at stage offset c, in p equal channels.  The
    whole number of steps k - du makes a time before the first command
    exactly negative and its start exactly 0, so that step reads r(0).

    Piecewise-constant references are sampled at the step boundary and
    held through the RK4 stages.  The final stage lands exactly on the next
    boundary, where a square wave may have just switched; evaluated there
    it would feed the post-edge level into a step whose true vector field
    uses the pre-edge level throughout, and that one inconsistent stage is
    what shows up as spurious upticks in the energy monitor.  Held at the
    left sample the wave is reproduced exactly on every half-open step
    interval.  Smooth references keep stage-time evaluation and with it the
    integrator's full order.

    Rows are filled about OPERAND_VALUES values and a stage column at a
    time, a stage at the time of the one before it copied from it.
    """
    stages = inputs.reshape(len(inputs), 4, -1)
    offsets = (0.0,) * 4 if ref.piecewise_constant else (0.0, 0.5 * h, 0.5 * h, h)
    chunk = max(1, OPERAND_VALUES // inputs.shape[1])
    for a in range(0, len(inputs), chunk):
        rows = stages[a:a + chunk]
        for j, offset in enumerate(offsets):
            if j and offset == offsets[j - 1]:
                rows[:, j] = rows[:, j - 1]
                continue
            levels = (ref(m * h + offset) for m in range(a - du, a - du + len(rows)))
            rows[:, j] = np.fromiter(levels, float, len(rows))[:, None]


def _leader_pass(step: np.ndarray, table: np.ndarray, h: float):
    """Integrate the leader's x_m columns from ``table[0]`` into the rows
    after it, one RK4 step per row, and return the first row past
    DIVERGENCE_LIMIT as :func:`_diverged` does, or None.

    Row k of ``table`` is ``[x_m(kh); stage inputs of step k]``
    (:func:`_stage_inputs`), the operand of ``step``, the step matrix of
    :meth:`LeaderModel.rk4_matrices`.  The leader is driven by the
    reference alone, so it runs, whole, before the loop.  Each chunk of
    about OPERAND_VALUES values is stepped as ``free @ x_m + chunk @
    drive`` and its x_m columns checked (its inputs hold r itself); rows
    after a chunk with a row past the limit are not written.
    """
    n = step.shape[0]
    free, drive = step[:, :n], step[:, n:].T
    chunk = max(1, OPERAND_VALUES // table.shape[1])
    for a in range(0, len(table) - 1, chunk):
        rows = table[a:a + chunk + 1]
        for j, driven in enumerate(rows[:-1, n:] @ drive):
            rows[j + 1, :n] = free @ rows[j, :n] + driven
        bad = _diverged(rows[1:, :n], a + 1, h)
        if bad:
            return bad
    return None


def _block_values(ell: int, n: int, p: int) -> int:
    """Values a loop block holds at most per step: the operand rows of
    :class:`_StageKernel` and what :meth:`_StageKernel.load` forms to fill
    them.

    The operands of a step's four stages take 4 (3n + 4p) values per agent
    and 4p more, the projected errors counting two values per input
    channel and agent and the leader's one.  Per agent, the delayed gains
    and states are gathered at a step's start and end, their mean forms
    its midpoint, and the three are copied to its four stages, 7 (qp + n)
    values.  The leader's table rows, gathered the same way, take
    7 (n + 4p), and its stage states and regressors 4 (n + q).
    """
    q = 2 * n + p
    return (ell * (7 * (q * p + n) + 4 * (3 * n + 4 * p)) + 4 * p
            + 7 * (n + 4 * p) + 4 * (n + q))


def run_blocks(sc: Scenario) -> Iterator[SimTrace]:
    """Validate one closed-loop run, then integrate and record it a block of
    rows at a time.

    This call validates and sizes the run before it returns: it raises
    ValidationError when a structural check fails (its message lists them
    and its ``failed`` attribute carries the failed CheckResults), and
    TraceTooLarge when the rows the run records, with the leader's stage
    inputs, would pass MAX_RUN_BYTES, before anything is allocated.  The
    iterator it returns integrates as it is read and yields the trace's
    rows in order: one SimTrace per loop block (at most ``tau_x`` steps,
    about OPERAND_VALUES operand values), then the last row alone.
    Reading on raises DivergenceDetected (with the offending time) when any
    integrated state (fleet, leader, auxiliary, gains) passes 1e6 in
    magnitude, the leader rows read ``tau_u`` past the last step included,
    and propagates integrator errors.
    """
    checks = validate_scenario(sc)
    failed = [c for c in checks if not c.passed]
    if failed:
        raise ValidationError(
            "scenario checks failed: "
            + "; ".join(f"{c.name} ({c.detail})" for c in failed),
            failed=failed,
        )
    ell, n, p = sc.num_agents, sc.state_dim, sc.input_dim
    q = 2 * n + p
    total = int(round(sc.duration / sc.step))
    lead = total + int(round(sc.tau_u / sc.step))
    # Trace rows (one CSV row each; the leader columns are the table's) and
    # the leader table (n states and 4 p stage inputs a row).
    row_width = 2 + n + 4 * ell * n + ell * (3 * p + q * p + p * p)
    floats = (total + 1) * (row_width - n) + (lead + 1) * (n + 4 * p)
    if 8 * floats > MAX_RUN_BYTES:
        raise TraceTooLarge(
            f"run would record {8 * floats / 2**30:.3g} GiB "
            f"({total + 1} trace rows of {row_width} values, and {lead + 1} leader "
            f"rows of {n} states and {4 * p} stage inputs), over the "
            f"{MAX_RUN_BYTES / 2**30:g} GiB limit"
        )
    return _blocks(sc, *_solved(checks), total)


def _blocks(sc: Scenario, matrices, p_block: np.ndarray, energy: _EnergyMonitor,
            total: int) -> Iterator[SimTrace]:
    """The loop of :func:`run_blocks` over ``total`` steps, given what
    validation solved."""
    ell, n, p = sc.num_agents, sc.state_dim, sc.input_dim
    q = 2 * n + p
    ln = ell * n
    h = sc.step
    du = int(round(sc.tau_u / h))
    dx = int(round(sc.tau_x / h))
    lead = total + du  # leader steps: the commanded input looks tau_u ahead
    i_th = 2 * ln
    i_ph = i_th + ell * q * p
    # A block holds about OPERAND_VALUES values and is at most tau_x steps
    # long, so that it reads only rows stored before it.
    span = min(dx, max(1, OPERAND_VALUES // _block_values(ell, n, p)))
    kernel = _StageKernel(sc, matrices, p_block, span)
    work, stage = kernel.work, kernel.stage
    y, stage0_signals = work[0], kernel.signals[0]

    def record(a: int, stop: int, states: np.ndarray, signals: np.ndarray) -> SimTrace:
        """Rows ``a`` to ``stop - 1`` of the trace from their states and the
        phi and u_aux that stage 0 of their steps evaluated."""
        x = states[:, :ln].reshape(-1, ell, n)
        x_m = table[a:stop, :n]
        x_a = states[:, ln:i_th].reshape(-1, ell, n)
        theta = states[:, i_th:i_ph].reshape(-1, ell, q, p)
        phi_phi = states[:, i_ph:].reshape(-1, ell, p, p)
        # e_a = (L x - g x_m) + x_a; e holds the leader term first
        e_a = matrices.laplacian_like @ x
        e = np.multiply(matrices.pinning, x_m[:, None, :])
        np.subtract(e_a, e, out=e_a)
        np.add(e_a, x_a, out=e_a)
        np.subtract(e_a, x_a, out=e)
        times = np.arange(a, stop) * h
        # commanded input: current gains against the leader regressor tau_u
        # ahead; r(kh) is the first stage input of row k + du
        ahead = table[a + du:stop + du]
        u = control(theta, regressor(ahead[:, :n], table[a + du - dx:stop + du - dx, :n],
                                     ahead[:, n:n + p]))
        return SimTrace(
            times=times,
            x=x,
            x_m=x_m,
            x_a=x_a,
            e=e,
            e_a=e_a,
            u=u,
            u_aux=signals[:, 1],
            phi=signals[:, 0],
            theta=theta,
            phi_phi=phi_phi,
            v_d=energy(e_a, theta, phi_phi),
            tau_u=sc.tau_u,
        )

    z0 = np.concatenate([sc.x0, sc.xa0, sc.theta0.reshape(-1), sc.phi_phi0.reshape(-1)])
    start_bad = _diverged(np.append(z0, sc.xm0)[None], 0, h)
    if start_bad:
        raise start_bad[1]
    # The leader table, whole: row k is step k's operand [x_m; stage
    # inputs], and row k's commanded input reads row k + du.  Overflow is
    # left silent here and in the loop: the divergence check reports it,
    # non-finite values included, at the time of the step that produced it.
    table = np.empty((lead + 1, n + 4 * p))
    table[0, :n] = sc.xm0
    with np.errstate(over="ignore", invalid="ignore"):
        _stage_inputs(sc.reference, table[:, n:], du, h)
        leader_bad = _leader_pass(kernel.leader_step, table, h)
    # The first leader row past the limit, the rows read tau_u past the last
    # step included, ends the run at its time.  The fleet steps up to row
    # `end`, the one before it, so no step reads a diverged leader and an
    # earlier fleet row is reported first; no row is yielded.
    end = min(leader_bad[0] - 1, total) if leader_bad else total

    # Delay lines: run row j of the fleet states and of the gains sits at
    # slot j mod (lag + 1).  A block's operands, formed before its steps,
    # read rows up to its first (it is at most dx steps long); its new rows
    # go in after it, over rows older than any later block reads.  Slot 0
    # keeps row 0, the pre-history, until no step reads it.
    x_line = np.empty((min(total, dx) + 1, ell, n))
    th_line = np.empty((min(total, du) + 1, ell, q, p))
    x_line[0] = sc.x0.reshape(ell, n)
    th_line[0] = sc.theta0
    # Each block's whole states, the first the last of the block before;
    # row k's phi and u_aux, as stage 0 of step k evaluates them, go in
    # signals[k - a].  y, row 0 of the kernel's work rows, holds the state
    # the next step starts from.
    y[:] = z0
    for a in range(0, end, span):
        stop = min(a + span, end)
        states = np.empty((stop - a + 1, z0.shape[0]))
        states[0] = y
        signals = np.empty((stop - a,) + stage0_signals.shape)
        with np.errstate(over="ignore", invalid="ignore"):
            kernel.load(table, x_line, th_line, a, stop)
            for k in range(a, stop):
                i = 4 * (k - a)
                step_rk4(stage, k * h, h, work, range(i, i + 4))
                states[k + 1 - a] = y
                signals[k - a] = stage0_signals
            fleet_bad = _diverged(states[1:], a + 1, h)
        if fleet_bad:
            raise fleet_bad[1]
        rows = np.arange(a + 1, stop + 1)
        x_line[rows % len(x_line)] = states[1:, :ln].reshape(-1, ell, n)
        th_line[rows % len(th_line)] = states[1:, i_th:i_ph].reshape(-1, ell, q, p)
        if not leader_bad:
            yield record(a, stop, states[:-1], signals)
    if leader_bad:
        raise leader_bad[1]
    # The last row starts no step: evaluate stage 0 of step total alone.
    with np.errstate(over="ignore", invalid="ignore"):
        kernel.load(table, x_line, th_line, total, total + 1)
        stage(total * h, y, work[1], 0)
    yield record(total, total + 1, y[None].copy(), stage0_signals[None].copy())


def run_scenario(sc: Scenario) -> SimTrace:
    """Validate, integrate, and record one closed-loop run: the blocks of
    :func:`run_blocks` joined into one trace.  Raises as run_blocks does."""
    blocks = list(run_blocks(sc))
    return SimTrace(
        **{name: np.concatenate([getattr(b, name) for b in blocks]) for name in ROW_FIELDS},
        tau_u=sc.tau_u,
    )


class TraceTally:
    """What :func:`metrics` reads of a trace, kept block by block as the
    blocks pass: their times, each row's norm of the stacked
    synchronization error, ``V_d``, and the last row's gains."""

    def __init__(self, tau_u: float):
        self.tau_u = tau_u
        self.parts: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self.theta_final = self.phi_phi_final = None

    def add(self, block: SimTrace) -> SimTrace:
        """Keep what metrics reads of ``block``'s rows; returns ``block``."""
        norms = np.sqrt(np.einsum("tin,tin->t", block.e, block.e))
        self.parts.append((block.times, norms, block.v_d))
        if block.num_rows:
            self.theta_final = block.theta[-1].copy()
            self.phi_phi_final = block.phi_phi[-1].copy()
        return block

    @property
    def num_rows(self) -> int:
        return sum(part[0].shape[0] for part in self.parts)


def metrics(trace: SimTrace | TraceTally) -> TraceMetrics:
    """Headline numbers for one trace, whole or tallied block by block as
    it was written; raises EmptyTrace on zero rows."""
    tally = trace
    if isinstance(trace, SimTrace):
        tally = TraceTally(trace.tau_u)
        tally.add(trace)
    if tally.num_rows == 0:
        raise EmptyTrace("trace has no rows")
    times, norms, v_d = (np.concatenate(part) for part in zip(*tally.parts))
    peak = float(np.max(norms))
    span = float(times[-1] - times[0])
    window_start = times[-1] - 0.1 * span
    in_window = times >= window_start - GRID_TOL
    final_mean = float(np.mean(norms[in_window]))

    if peak == 0.0:
        settling = 0.0
    else:
        above = np.nonzero(norms >= 0.05 * peak)[0]
        last = int(above[-1])
        settling = math.inf if last == norms.shape[0] - 1 else float(times[last + 1])

    start = 2.0 * tally.tau_u
    tail = np.nonzero(times >= start - GRID_TOL)[0]
    if tail.shape[0] >= 2:
        seg_t = times[tail]
        seg_v = v_d[tail]
        max_slope = float(np.max(np.diff(seg_v) / np.diff(seg_t)))
    else:
        max_slope = 0.0

    return TraceMetrics(
        peak_error=peak,
        final_window_mean=final_mean,
        settling_time=settling,
        max_vd_slope=max_slope,
        theta_final=tally.theta_final,
        phi_phi_final=tally.phi_phi_final,
    )
