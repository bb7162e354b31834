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
(``LeaderModel.rk4_matrices``): the pass over [0, duration + tau_u] costs
one matrix-vector product per row and runs, whole, before the loop.  The
delays are whole multiples of the step, so every delayed value the loop
reads is a row of the states it has already stored (``dde.delayed``):
``tau_x`` or ``tau_u`` rows back at a step's first and last stage, the mean
of two neighbouring rows at its midpoint stages, and row 0 standing in as
the constant pre-history.  Only the fleet states are read ``tau_x`` back and
only the gains ``tau_u`` back, so the loop keeps each in a delay line of
``tau_x + 1`` or ``tau_u + 1`` rows, which holds run row j at slot j mod its
length and takes a block's new rows after the block; slot 0 keeps row 0
until no step reads the pre-history.  The whole states are kept only for
the rows not yet recorded.

The loop precomputes the operands that read stored values only for a
block of steps and their four RK4 stages at once (``_stage_operands``):
the applied input (the gains one input-delay back against the leader
regressor, zero before the first command arrives), the regressor's delayed
entries, the fleet's delayed drive ``a_zeta x(t - tau_x) + b u(t - tau_u)``
and the leader's part of the adaptation drive.  A block is at most
``tau_x`` long, so every row it reads is stored before it starts, and holds
about OPERAND_VALUES values.  Each step is one ``dde.step_rk4`` call, which
hands every stage the index of its operands.  The right-hand side is
``_StageKernel``, the one evaluation of the controller's signals: it forms
the mismatch, the auxiliary input and the graph term ``L x``, then the
fleet, auxiliary and gain derivatives, in buffers made once per run.
Fleet rows are checked for divergence once per block.

Stage 0 of step k evaluates at row k's state with row k's operands, so the
loop records row k's mismatch, auxiliary input and ``L x`` from it after
the step; the last row, which starts no step, gets one kernel call of its
own.  The steps write the whole states into the rows of a record block;
once a few loop blocks fill it with about RECORD_VALUES trace values (and
at most ``tau_u`` steps), its rows are recorded as one SimTrace and
yielded: the augmented error ``(L x - g x_m) + x_a``, the commanded input
against the leader rows ``tau_u`` ahead (so no per-step forward prediction
is needed) and ``V_d``, each formed per row, so the rows of a block equal
those of the whole trace bit for bit.
"""

from __future__ import annotations

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
# Runs whose trace rows, leader table and leader stage inputs, which grow
# with the horizon plus tau_u, would exceed this many bytes together are
# refused before anything is allocated.  What a run holds of the closed
# loop at once is not counted: delay lines of the fleet states and gains,
# tau_x and tau_u long, and one block of rows.
MAX_RUN_BYTES = 2**30
# Reference-gain magnitudes and per-agent adaptation rates below this
# cannot be inverted for the energy monitor; such a rate freezes its channel.
WEIGHT_TOL = 1e-12
# The loop forms the stage operands of a block of steps at once; a block
# holds about this many values with its temporaries (see _block_values).
OPERAND_VALUES = 2**16
# A run yields its trace in blocks of whole loop blocks that hold about this
# many trace values, so that the recording and trace.csv's formatter pay
# their fixed costs per call on tens of rows or more, not on a loop block
# of a few (6 rows on a 128-agent ring).
RECORD_VALUES = 2**17

REFERENCE_KINDS = ("constant", "sine", "square")
# The SimTrace fields with a row axis, in field order (trace.csv's order).
ROW_FIELDS = (
    "times", "x", "x_m", "x_a", "e", "e_a", "u", "u_aux", "phi", "theta", "phi_phi", "v_d",
)


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
    the error metric of the adaptation laws.  The (l, l) adaptation rates
    gamma_theta and gamma_phi are diagonal, one nonnegative rate per agent,
    since each agent adapts at its own rate and the energy monitor weights
    its gain errors by the inverse; a zero rate freezes that agent's
    channel.  tau_x is at least one step.  Every field is checked here,
    and a bad one raises a ValidationError or DimensionMismatch naming it.
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
        # the loop steps in blocks of at most tau_x, and of at least one step
        if not (1.0 - GRID_TOL) * self.step <= self.tau_x <= self.tau_u:
            raise ValidationError(
                f"delays must satisfy step <= tau_x <= tau_u, "
                f"got step={self.step}, tau_x={self.tau_x}, tau_u={self.tau_u}"
            )
        for label, value in (("tau_x", self.tau_x), ("tau_u", self.tau_u), ("duration", self.duration)):
            ratio = value / self.step
            if abs(ratio - round(ratio)) > GRID_TOL:
                raise ValidationError(f"step {self.step} does not divide {label}={value}")
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
    axis.
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
    """Run the five structural checks; failures are reported, not raised.

    The checks that solve something carry it in ``solved``, so that
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
        res = float(
            np.max(np.abs(sc.leader.a_m.T @ p_block + p_block @ sc.leader.a_m + sc.q_tilde))
        )
        out.append(
            CheckResult(
                "lyapunov_residual", res <= 1e-9, f"substitution residual {res:.3e}", p_block
            )
        )
    except (NotSymmetric, NotPositiveDefinite, SingularMatrix, NotHurwitz) as exc:
        out.append(CheckResult("lyapunov_residual", False, str(exc)))

    try:
        gains = matching_gains(sc.fleet, sc.leader)
    except DelaySyncError as exc:
        out.append(CheckResult("matching", False, str(exc)))
    else:
        fault = None
        if sc.input_dim == 1:
            r_star = gains.theta_r[:, 0, 0]
            signs = np.copysign(1.0, r_star)
            tiny = np.flatnonzero(np.abs(r_star) < WEIGHT_TOL)
            if tiny.size:
                # the energy monitor weights each gain error by 1 / |r*|
                i = tiny[0]
                fault = f"agent {i + 1}: ideal reference gain {r_star[i]:.3e} is numerically zero"
            elif not np.array_equal(signs, sc.r_signs):
                fault = f"declared r_signs {sc.r_signs.tolist()} but computed {signs.tolist()}"
            elif min(np.diag(sc.gamma_theta).min(), np.diag(sc.gamma_phi).min()) <= WEIGHT_TOL:
                # A frozen channel's gains stay at their initial values bit
                # for bit, so the energy monitor's check fails on them now
                # or never.
                try:
                    _EnergyMonitor(None, sc.gamma_theta, sc.gamma_phi, gains).gain_terms(
                        sc.theta0[None], sc.phi_phi0[None]
                    )
                except SingularWeight as exc:
                    fault = str(exc)
            detail = "gains solvable, declared signs agree"
        else:
            detail = "gains solvable (signs unchecked for p>1)"
        if fault is None:
            out.append(CheckResult("matching", True, detail, gains))
        else:
            out.append(CheckResult("matching", False, fault))
    return out


def _solved(checks: list[CheckResult]):
    """The topology matrices, Lyapunov block and matching gains that the
    passed checks of validate_scenario solved for."""
    solved = {c.name: c.solved for c in checks}
    return solved["balanced"], solved["lyapunov_residual"], solved["matching"]


def _gain_energy(
    weights: np.ndarray, squares: np.ndarray, label: str
) -> np.ndarray:
    """Weighted per-agent squared gain errors, summed; squares is (..., l).

    The sum is an einsum, which adds each row's terms in the same order
    however many rows it is given, so a block of rows gets the values of
    the whole trace.  Raises SingularWeight naming the first agent whose
    channel is frozen (infinite weight) but carries a gain error.
    """
    finite = np.isfinite(weights)
    if not np.all(finite):
        frozen = np.flatnonzero(~finite)
        worst = squares[..., frozen].reshape(-1, frozen.size).max(axis=0, initial=0.0)
        bad = frozen[worst > WEIGHT_TOL**2]
        if bad.size:
            raise SingularWeight(
                f"agent {bad[0] + 1}: {label} adaptation is frozen (zero rate) "
                "but its gain error is nonzero"
            )
        squares = squares[..., finite]
        weights = weights[finite]
    return np.einsum("...i,i->...", squares, weights)


class _EnergyMonitor:
    """The energy monitor ``V_d`` of one scenario over rows of a trace, its
    weights formed once.

    ``p_block`` is the leader's (n, n) Lyapunov block ``P`` and
    ``gamma_theta`` and ``gamma_phi`` the diagonal (l, l) adaptation rates.
    ``V_d`` is the quadratic graph-error term ``sum_i e_a_i^T P e_a_i`` plus
    each agent's gain errors weighted by its inverse rates, the theta term
    also by the inverse magnitude of the ideal reference gain.  Building it
    raises SingularWeight when an ideal reference gain is below 1e-12, and
    a call when a frozen (zero-rate) adaptation channel carries a nonzero
    gain error.  Each row is reduced on its own, so any block of rows gets
    the values of the whole trace.

    For fleets with more than one input channel the reference-gain weight
    is matrix-valued and not implemented; the quadratic term alone is
    returned then.
    """

    def __init__(self, p_block, gamma_theta: np.ndarray, gamma_phi: np.ndarray,
                 gains: MatchingGains):
        self.p_block = p_block
        self.single_input = gains.theta_r.shape[-1] == 1
        if not self.single_input:
            return
        r_star = gains.theta_r[:, 0, 0]
        if np.any(np.abs(r_star) < WEIGHT_TOL):
            raise SingularWeight("an ideal reference gain is numerically zero")
        self.theta_star = gains.stacked_regressor_gain()[None]
        self.phi_star = (1.0 / r_star)[None, :, None, None]
        rates = np.stack([np.diag(gamma_theta), np.diag(gamma_phi)])
        with np.errstate(divide="ignore"):  # a frozen channel (zero rate) weighs inf
            weights = 1.0 / np.where(rates > WEIGHT_TOL, rates, 0.0)
        self.w_theta = weights[0] / np.abs(r_star)
        self.w_phi = weights[1]

    def gain_terms(self, theta: np.ndarray, phi_phi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The theta and phi_phi terms over rows of gains, (t, l, 2n+p, 1)
        and (t, l, 1, 1)."""
        dth = theta - self.theta_star
        dph = phi_phi - self.phi_star
        sq_theta = np.einsum("tiqp,tiqp->ti", dth, dth)
        sq_phi = np.einsum("tipj,tipj->ti", dph, dph)
        return (_gain_energy(self.w_theta, sq_theta, "theta"),
                _gain_energy(self.w_phi, sq_phi, "phi_phi"))

    def __call__(self, e_a: np.ndarray, theta: np.ndarray, phi_phi: np.ndarray) -> np.ndarray:
        """``V_d`` over rows of ``e_a`` (t, l, n), ``theta`` (t, l, 2n+p, p)
        and ``phi_phi`` (t, l, p, p)."""
        quad = np.einsum("tin,nm,tim->t", e_a, self.p_block, e_a)
        if not self.single_input:
            return quad
        theta_term, phi_term = self.gain_terms(theta, phi_phi)
        return quad + theta_term + phi_term


def _signal_views(flat: np.ndarray, ell: int, n: int, p: int):
    """The mismatch phi (..., l, p), auxiliary input u_aux (..., l, p) and
    graph term ``L x`` (..., l, n) laid out in ``flat`` (..., l (2p + n)),
    one row of the signals a stage evaluates."""
    lead = flat.shape[:-1]
    lp = ell * p
    return (flat[..., :lp].reshape(lead + (ell, p)),
            flat[..., lp:2 * lp].reshape(lead + (ell, p)),
            flat[..., 2 * lp:].reshape(lead + (ell, n)))


class _StageKernel:
    """The run's right-hand side: one RK4 stage of the coupled state
    ``[x; x_a; theta; phi_phi]``, evaluated in buffers made once per run.

    It forms the regressor, the mismatch phi, the auxiliary input u_aux,
    the graph term ``L x`` and from them the fleet, auxiliary and gain
    derivatives, with every product written into a fixed buffer through
    ``out=``, because the arrays are small enough that each fresh array,
    reshape or concatenate costs more than its arithmetic.  The tests
    compare it against the reference formulas in ``tests/chain_oracle.py``.
    The leader term enters the adaptation drive as the delay-only operand
    ``g_off`` (:meth:`leader_offset`), so the augmented error itself is not
    formed here.  A call copies ``y`` into the stage-state buffer and writes
    the derivative into output buffer ``i & 3`` and phi, u_aux and ``L x``
    into signal buffer ``i & 3`` (:func:`_signal_views`): the four stages of
    a step get four of each, and a result stays valid until the same stage
    of the next step.  Stage 0 of step k evaluates at row k's state with
    row k's delayed operands, so its signals are row k's recorded ones.
    The adaptation rates and signs are the scenario's; ``p_block`` is the
    leader's Lyapunov block ``P`` that validation solved.
    """

    def __init__(self, sc: Scenario, matrices, p_block: np.ndarray):
        ell, n, p = sc.num_agents, sc.state_dim, sc.input_dim
        q = 2 * n + p
        ln = ell * n
        size = 2 * ln + ell * (q * p + p * p)
        laplacian = matrices.laplacian_like
        self.a = sc.fleet.a
        self.a_m_t = sc.leader.a_m.T
        self.b_m_t = sc.leader.b_m.T
        self.laplacian = laplacian
        self.p_b = p_block @ sc.leader.b_m
        # (2l, l): [-sign(theta_r*) Gamma_theta; -Gamma_phi] L^T, the
        # adaptation drives of a projected error, signs included: the rows
        # of [L^T; L^T] scaled by each agent's signed rate, in C order (BLAS
        # rounds the per-stage product differently on a transposed operand)
        signed_rates = -np.concatenate([sc.r_signs * np.diag(sc.gamma_theta),
                                        np.diag(sc.gamma_phi)])
        self.rates_l = np.ascontiguousarray(
            signed_rates[:, None] * np.vstack([laplacian.T, laplacian.T])
        )
        # (2l, 1): the drives of the leader's projected term, g_i x_m P b_m
        self.leader_rates = -(self.rates_l @ matrices.pinning)

        def split(flat):
            return (flat[:ln].reshape(ell, n), flat[ln:2 * ln].reshape(ell, n),
                    flat[2 * ln:2 * ln + ell * q * p].reshape(ell, q, p),
                    flat[2 * ln + ell * q * p:].reshape(ell, p, p))

        self.y = np.empty(size)
        self.x, self.x_a, self.theta, self.phi_phi = split(self.y)
        self.x_col = self.x[:, :, None]
        self.eta = np.empty((ell, q))
        self.eta_x, self.eta_tail = self.eta[:, :n], self.eta[:, n:]
        self.eta_row, self.eta_col = self.eta[:, None, :], self.eta[:, :, None]
        self.l_u_aux = np.empty((ell, p))
        self.aux_drive = np.empty((ell, n))
        self.e = np.empty((ell, n))
        self.s = np.empty((ell, p))
        self.g = np.empty((2 * ell, p))
        self.g_theta, self.g_phi = self.g[:ell, None, :], self.g[ell:, :, None]
        self.out = []
        self.signals = []
        for _ in range(4):
            flat = np.empty(size)
            dx, dx_a, d_theta, d_phi_phi = split(flat)
            signals = np.empty(ell * (2 * p + n))
            phi, u_aux, l_x = _signal_views(signals, ell, n, p)
            self.signals.append(signals)
            self.out.append((flat, dx, dx[:, :, None], dx_a, d_theta, d_phi_phi, phi,
                             phi[:, None, :], phi[:, :, None], u_aux, u_aux[:, :, None], l_x))
        # A block's stage operands (_stage_operands); stage i reads entry i.
        self.u_app = self.drive = self.eta_del = self.g_off = None

    def leader_offset(self, x_m: np.ndarray) -> np.ndarray:
        """The leader's part of the adaptation drive for leader states
        (..., n): ``-(signed rates) L^T (pinned P b_m)`` with ``pinned`` the
        leader term ``g_i x_m``, (..., 2l, p)."""
        return self.leader_rates * (x_m @ self.p_b)[..., None, :]

    def __call__(self, t: float, y: np.ndarray, i: int) -> np.ndarray:
        np.copyto(self.y, y)
        np.copyto(self.eta_x, self.x)
        np.copyto(self.eta_tail, self.eta_del[i])
        (flat, dx, dx_col, dx_a, d_theta, d_phi_phi, phi, phi_row, phi_col, u_aux, u_aux_col,
         l_x) = self.out[i & 3]
        # mismatch theta^T eta - u_app, and the auxiliary input phi_phi phi
        np.matmul(self.eta_row, self.theta, out=phi_row)
        np.subtract(phi, self.u_app[i], out=phi)
        np.matmul(self.phi_phi, phi_col, out=u_aux_col)
        # fleet a x + drive, auxiliary x_a a_m^T + (L u_aux) b_m^T
        np.matmul(self.a, self.x_col, out=dx_col)
        np.add(dx, self.drive[i], out=dx)
        np.dot(self.x_a, self.a_m_t, out=dx_a)
        np.dot(self.laplacian, u_aux, out=self.l_u_aux)
        np.dot(self.l_u_aux, self.b_m_t, out=self.aux_drive)
        np.add(dx_a, self.aux_drive, out=dx_a)
        # adaptation drive of the projected error (L x + x_a) P b_m, then the laws
        np.dot(self.laplacian, self.x, out=l_x)
        np.add(l_x, self.x_a, out=self.e)
        np.dot(self.e, self.p_b, out=self.s)
        np.dot(self.rates_l, self.s, out=self.g)
        np.add(self.g, self.g_off[i], out=self.g)
        np.multiply(self.eta_col, self.g_theta, out=d_theta)
        np.multiply(self.g_phi, phi_row, out=d_phi_phi)
        return flat


def _levels(ref: ReferenceSignal, times: np.ndarray, p: int) -> np.ndarray:
    """Reference levels at ``times``, one row of ``p`` equal channels each."""
    values = np.fromiter(map(ref, times.ravel()), float, times.size)
    return np.repeat(values.reshape(times.shape + (1,)), p, axis=-1)


def _diverged(worst: float, t: float) -> DivergenceDetected:
    if not math.isfinite(worst):
        return DivergenceDetected(f"non-finite state at t={t:.6g}", time=t)
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
    and runs, whole, before it.  The run reports a leader that passes
    DIVERGENCE_LIMIT from the rows written here.
    """
    n = table.shape[1]
    free = step[:, :n]
    driven = r_in.reshape(stop - start, -1) @ step[:, n:].T
    for j in range(start, stop):
        table[j + 1] = free @ table[j] + driven[j - start]


def _block_values(ell: int, n: int, p: int) -> int:
    """Values :func:`_stage_operands` holds at most per step of a block.

    Per agent, the delayed gains and states are gathered at a step's start
    and end, their mean forms its midpoint, and the three are copied to its
    four stages, 7 (qp + n) values; the four operands with their
    temporaries take 4 (2n + 4p), the leader's adaptation drive counting
    two values per input channel; the leader's stage states and regressors add 16 q per
    step.
    """
    q = 2 * n + p
    return ell * (7 * (q * p + n) + 4 * (2 * n + 4 * p)) + 16 * q


def _stage_operands(sc: Scenario, kernel: _StageKernel, stages: np.ndarray, r_in: np.ndarray,
                    table: np.ndarray, x_line: np.ndarray, th_line: np.ndarray, start: int,
                    stop: int) -> tuple[np.ndarray, ...]:
    """Operands of every RK4 stage of steps ``start`` to ``stop - 1`` that
    read stored rows only: the applied input, the fleet's delayed drive,
    the regressor's delayed entries and the leader's part of the adaptation
    drive (:meth:`_StageKernel.leader_offset`).

    ``stages`` are the leader's stage matrices from
    :meth:`LeaderModel.rk4_matrices` and ``r_in`` the steps' stage inputs.
    Delayed states and gains are gathered by :func:`delaysync.dde.delayed`,
    so ``stop - start`` may not exceed the state delay in steps: every row
    read must already be stored.  ``table`` holds every leader row;
    ``x_line`` and ``th_line`` hold the fleet states and gains, whole or as
    delay lines that keep run row j at slot j mod their length, at least
    the state and input delay in steps plus one.  Each operand is
    (4 (stop - start), l, ...) or, the leader's drive, (4 (stop - start),
    2l, p), one entry per stage: start, midpoint, midpoint, end of each
    step.
    """
    h = sc.step
    n = sc.state_dim

    def staged(rows, lag):
        lo, mid, hi = delayed(rows, start, stop, lag)
        return np.stack((lo, mid, mid, hi), axis=1)

    t = np.arange(start, stop) * h
    mid = t + 0.5 * h
    times = np.stack((t, mid, mid, t + h), axis=1)
    operand = np.concatenate((table[start:stop], r_in.reshape(stop - start, -1)), axis=1)
    leader = (operand @ stages.reshape(4 * n, -1).T).reshape(stop - start, 4, n)
    dx = int(round(sc.tau_x / h))
    eta_m = regressor(leader, staged(table, dx), r_in)
    x_del = staged(x_line, dx)
    th_del = staged(th_line, int(round(sc.tau_u / h)))
    u_app = applied_input(th_del, eta_m, times, sc.tau_u)
    eta_del = delayed_regressor(x_del, eta_m[..., None, 2 * n:])
    del th_del  # the largest temporary: gone before the drive is formed
    drive = sc.fleet.delayed_drive(x_del, u_app)
    g_off = kernel.leader_offset(leader)
    return tuple(v.reshape((-1,) + v.shape[2:]) for v in (u_app, drive, eta_del, g_off))


def run_blocks(sc: Scenario) -> Iterator[SimTrace]:
    """Validate one closed-loop run, then integrate and record it a block of
    rows at a time.

    This call validates and sizes the run before it returns: it raises
    ValidationError when a structural check fails (its message lists them
    and its ``failed`` attribute carries the failed CheckResults), and
    TraceTooLarge when the rows the run records, with the leader's stage
    inputs, would pass MAX_RUN_BYTES, before anything is allocated.  The
    iterator it returns integrates as it is read and yields the trace's
    rows in order: one SimTrace per few loop blocks (about RECORD_VALUES
    values, at most ``tau_u`` steps), then the last row alone.  Reading on
    raises DivergenceDetected (with the offending time) when any integrated state (fleet, leader,
    auxiliary, gains) passes 1e6 in magnitude, the leader rows read
    ``tau_u`` past the last step included, and propagates integrator
    errors.
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
    # Trace rows (one CSV row each; the leader columns are the table's), the
    # leader table and the leader's stage inputs (4 p per leader step).
    row_width = 2 + n + 4 * ell * n + ell * (3 * p + q * p + p * p)
    floats = (total + 1) * (row_width - n) + (lead + 1) * n + lead * 4 * p
    if 8 * floats > MAX_RUN_BYTES:
        raise TraceTooLarge(
            f"run would record {8 * floats / 2**30:.3g} GiB "
            f"({total + 1} trace rows of {row_width} values, and {lead} leader "
            f"steps of {n} states and {4 * p} stage inputs), over the "
            f"{MAX_RUN_BYTES / 2**30:g} GiB limit"
        )
    return _blocks(sc, *_solved(checks), total, row_width)


def _blocks(sc: Scenario, matrices, p_block: np.ndarray, gains: MatchingGains,
            total: int, row_width: int) -> Iterator[SimTrace]:
    """The loop of :func:`run_blocks` over ``total`` steps, given what
    validation solved and the values in a trace row."""
    ell, n, p = sc.num_agents, sc.state_dim, sc.input_dim
    q = 2 * n + p
    ln = ell * n
    h = sc.step
    ref = sc.reference
    du = int(round(sc.tau_u / h))
    dx = int(round(sc.tau_x / h))
    lead = total + du  # leader steps: the commanded input looks tau_u ahead
    leader_step, leader_stages = sc.leader.rk4_matrices(h)
    kernel = _StageKernel(sc, matrices, p_block)
    energy = _EnergyMonitor(p_block, sc.gamma_theta, sc.gamma_phi, gains)
    i_th = 2 * ln
    i_ph = i_th + ell * q * p
    # A block holds about OPERAND_VALUES values and is at most tau_x steps
    # long, so that it reads only rows stored before it.
    span = min(dx, max(1, OPERAND_VALUES // _block_values(ell, n, p)))
    # Rows yielded at once: whole blocks, about RECORD_VALUES trace values
    # and at most du rows.
    per_record = span * max(1, min(du, RECORD_VALUES // row_width) // span)

    def diverged(rows: np.ndarray, start: int):
        """The earliest of ``rows``, run row ``start`` onward, past the
        limit: its offset in ``rows`` and its DivergenceDetected, or None."""
        worst = np.abs(rows).max(axis=1)
        bad = np.flatnonzero(~(worst <= DIVERGENCE_LIMIT))
        if not bad.size:
            return None
        j = int(bad[0])
        return j, _diverged(float(worst[j]), (start + j) * h)

    def record(a: int, stop: int, states: np.ndarray, signals: np.ndarray) -> SimTrace:
        """Rows ``a`` to ``stop - 1`` of the trace from their states and the
        phi, u_aux and ``L x`` that stage 0 of their steps evaluated."""
        x_m = table[a:stop]
        x_a = states[:, ln:i_th].reshape(-1, ell, n)
        theta = states[:, i_th:i_ph].reshape(-1, ell, q, p)
        phi_phi = states[:, i_ph:].reshape(-1, ell, p, p)
        phi, u_aux, e_a = _signal_views(signals, ell, n, p)
        # e_a = (L x - g x_m) + x_a, written over L x; e holds the leader term first
        e = np.multiply(matrices.pinning, x_m[:, None, :])
        np.subtract(e_a, e, out=e_a)
        np.add(e_a, x_a, out=e_a)
        np.subtract(e_a, x_a, out=e)
        times = np.arange(a, stop) * h
        # commanded input: current gains against the leader regressor tau_u ahead
        u = control(theta, regressor(table[a + du:stop + du], table[a + du - dx:stop + du - dx],
                                     _levels(ref, times, p)))
        return SimTrace(
            times=times,
            x=states[:, :ln].reshape(-1, ell, n),
            x_m=x_m,
            x_a=x_a,
            e=e,
            e_a=e_a,
            u=u,
            u_aux=u_aux,
            phi=phi,
            theta=theta,
            phi_phi=phi_phi,
            v_d=energy(e_a, theta, phi_phi),
            tau_x=sc.tau_x,
            tau_u=sc.tau_u,
        )

    z0 = np.concatenate([sc.x0, sc.xa0, sc.theta0.reshape(-1), sc.phi_phi0.reshape(-1)])
    start_bad = diverged(np.append(z0, sc.xm0)[None], 0)
    if start_bad:
        raise start_bad[1]
    # The leader table, whole: row k's commanded input reads row k + du.
    # Overflow is left silent here and in the loop: the divergence check
    # reports it, non-finite values included, at the time of the step that
    # produced it.
    table = np.empty((lead + 1, n))
    table[0] = sc.xm0
    r_in = np.empty((lead, 4, p))
    end, leader_bad = total, None  # the fleet steps up to row `end`
    with np.errstate(over="ignore", invalid="ignore"):
        for a in range(0, lead, span):
            b = min(a + span, lead)
            r_in[a:b] = _stage_inputs(ref, a, b, h, sc.tau_u, p)
            _leader_pass(leader_step, r_in[a:b], table, a, b)
            leader_bad = diverged(table[a + 1:b + 1], a + 1)
            if leader_bad:
                # The first leader row past the limit ends the run at its
                # time, the rows read tau_u past the last step included.
                # The fleet steps up to it, so no step reads a diverged
                # leader, and its rows, checked once per block, are earlier
                # and reported first.  Rows that would read the leader past
                # the limit are not recorded: none is yielded.
                end = min(a + leader_bad[0], total)
                break

    # Delay lines: run row j of the fleet states and of the gains sits at
    # slot j mod (lag + 1).  A block's operands, formed before its steps,
    # read rows up to its first (it is at most dx steps long); its new rows
    # go in after it, over rows older than any later block reads.  Slot 0
    # keeps row 0, the pre-history, until no step reads it.
    x_line = np.empty((min(total, dx) + 1, ell, n))
    th_line = np.empty((min(total, du) + 1, ell, q, p))
    x_line[0] = sc.x0.reshape(ell, n)
    th_line[0] = sc.theta0
    # The whole states of rows `done` onward, as the steps write them, until
    # they are yielded; row k's phi, u_aux and L x, as stage 0 of step k
    # evaluates them, wait in signals[k - done].
    done = 0
    states = np.empty((min(total, per_record) + 1, z0.shape[0]))
    states[0] = z0
    signals = np.empty((per_record, ell * (2 * p + n)))
    for a in range(0, end, span):
        stop = min(a + span, end)
        with np.errstate(over="ignore", invalid="ignore"):
            kernel.u_app, kernel.drive, kernel.eta_del, kernel.g_off = _stage_operands(
                sc, kernel, leader_stages, r_in[a:stop], table, x_line, th_line, a, stop
            )
            for k in range(a, stop):
                i = 4 * (k - a)
                states[k + 1 - done] = step_rk4(kernel, k * h, states[k - done], h,
                                                range(i, i + 4))
                signals[k - done] = kernel.signals[0]
            new = states[a + 1 - done:stop + 1 - done]
            fleet_bad = diverged(new, a + 1)
        if fleet_bad:
            raise fleet_bad[1]
        rows = np.arange(a + 1, stop + 1)
        x_line[rows % len(x_line)] = new[:, :ln].reshape(-1, ell, n)
        th_line[rows % len(th_line)] = new[:, i_th:i_ph].reshape(-1, ell, q, p)
        if stop - done == per_record or stop == end:
            if not leader_bad:
                yield record(done, stop, states[:stop - done], signals[:stop - done])
            # the yielded block keeps its rows; its last row seeds the next
            states = np.empty_like(states)
            states[0] = new[-1]
            done = stop
            signals = np.empty_like(signals)
    if leader_bad:
        raise leader_bad[1]
    # The last row starts no step: evaluate stage 0 of step total alone.
    with np.errstate(over="ignore", invalid="ignore"):
        kernel.u_app, kernel.drive, kernel.eta_del, kernel.g_off = _stage_operands(
            sc, kernel, leader_stages, r_in[total:total + 1], table, x_line, th_line, total,
            total + 1
        )
        kernel(total * h, states[0], 0)
    yield record(total, total + 1, states[:1], kernel.signals[0][None].copy())


def run_scenario(sc: Scenario) -> SimTrace:
    """Validate, integrate, and record one closed-loop run: the blocks of
    :func:`run_blocks` joined into one trace.  Raises as run_blocks does."""
    blocks = list(run_blocks(sc))
    return SimTrace(
        **{name: np.concatenate([getattr(b, name) for b in blocks]) for name in ROW_FIELDS},
        tau_x=sc.tau_x,
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
