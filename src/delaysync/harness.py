"""Closed-loop assembly: scenario data, validation, integration, diagnostics.

A Scenario bundles the follower fleet, the leader, the graph, the adaptation
settings, and the run geometry, and checks each of them once, when it is
built: shapes, finite values, delays the step divides, +-1 signs, and
adaptation rates the energy monitor can weight by.  run_scenario runs the
five structural checks of validate_scenario, then integrates one coupled
delay system whose state stacks

    [fleet states; auxiliary states; gains; aux gains]

The leader is driven by the reference alone, so it stays outside that
state.  It is linear and time-invariant, so its RK4 step is a matrix
(``LeaderModel.rk4_matrices``): the pass over [0, duration + tau_u] costs
one matrix-vector product per row, and runs a block of steps ahead of the
loop.  The delays are whole multiples of the step, so every delayed value
the loop reads is a row of the states it has already stored
(``dde.delayed``): ``tau_x`` or ``tau_u`` rows back at a step's first and
last stage, the mean of two neighbouring rows at its midpoint stages, and
row 0 standing in as the constant pre-history.

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
own.  The augmented error is ``(L x - g x_m) + x_a`` over the whole trace,
and the commanded input is computed against the leader rows ``tau_u``
ahead, so no per-step forward prediction is needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
# Runs whose recorded arrays (trace, leader table) would exceed this many
# bytes are refused before anything is allocated.
MAX_RUN_BYTES = 2**30
# Reference-gain magnitudes and adaptation rates below this cannot be
# inverted for the energy monitor.
WEIGHT_TOL = 1e-12
# Rate matrices may dip this far below zero in their smallest eigenvalue
# and still count as positive semidefinite.
PSD_TOL = 1e-10
# The loop forms the stage operands of a block of steps at once; a block
# holds about this many values with its temporaries (see _block_values).
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
    the error metric of the adaptation laws.  The (l, l) adaptation rates
    gamma_theta and gamma_phi are symmetric positive semidefinite, and
    invertible when they have off-diagonal entries, since the energy
    monitor weights the gain errors by their inverses; a zero on a diagonal
    rate matrix freezes that agent's channel.  Every field is checked here,
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
        for label in ("gamma_theta", "gamma_phi"):
            rates = getattr(self, label)
            skew = np.max(np.abs(rates - rates.T))
            if skew > linalg.SYMMETRY_TOL:
                raise ValidationError(f"{label} must be symmetric, max asymmetry {skew:.3e}")
            coupled = _coupled(rates)
            # a diagonal matrix's spectrum is its diagonal
            low = linalg.symmetric_eigenvalues(rates)[0] if coupled else np.min(np.diag(rates))
            if low < -PSD_TOL:
                raise ValidationError(f"{label} must be positive semidefinite, min eig {low:.3e}")
            if coupled:
                try:  # elimination alone finds the singularity, whatever the right side
                    linalg.solve_linear(rates, np.zeros(ell))
                except SingularMatrix as exc:
                    raise ValidationError(
                        f"{label} has off-diagonal entries and is singular: {exc}"
                    ) from exc

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
        linalg.cholesky(sc.q_tilde, "q_tilde")
        p_block = linalg.solve_lyapunov(sc.leader.a_m, sc.q_tilde)
        try:
            linalg.cholesky(p_block, "P")
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
        if sc.input_dim == 1:
            signs = np.copysign(1.0, gains.theta_r[:, 0, 0])
            if np.array_equal(signs, sc.r_signs):
                out.append(
                    CheckResult("matching", True, "gains solvable, declared signs agree", gains)
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
            out.append(
                CheckResult("matching", True, "gains solvable (signs unchecked for p>1)", gains)
            )
    return out


def _solved(checks: list[CheckResult]):
    """The topology matrices, Lyapunov block and matching gains that the
    passed checks of validate_scenario solved for."""
    solved = {c.name: c.solved for c in checks}
    return solved["balanced"], solved["lyapunov_residual"], solved["matching"]


def _coupled(gamma: np.ndarray) -> bool:
    """True when a rate matrix has off-diagonal entries, so that the energy
    monitor inverts it whole."""
    off = gamma - np.diag(np.diag(gamma))
    return bool(np.max(np.abs(off), initial=0.0) > 1e-14)


def _rate_weights(gamma: np.ndarray) -> np.ndarray:
    """Diagonal of the inverse rate matrix; zero diagonal entries map to inf
    (meaning: only admissible when the matching gain error is exactly zero)."""
    if not _coupled(gamma):
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
    p_block: np.ndarray,
    gamma_theta: np.ndarray,
    gamma_phi: np.ndarray,
    gains: MatchingGains,
    e_a: np.ndarray,
    theta: np.ndarray,
    phi_phi: np.ndarray,
) -> np.ndarray:
    """Energy monitor ``V_d`` over trace rows, given the matching gains.

    ``p_block`` is the leader's (n, n) Lyapunov block ``P``, ``gamma_theta``
    and ``gamma_phi`` the (l, l) adaptation rates, ``e_a`` (t, l, n),
    ``theta`` (t, l, 2n+p, p) and ``phi_phi`` (t, l, p, p).
    ``V_d`` is the quadratic graph-error term ``sum_i e_a_i^T P e_a_i`` plus
    the gain errors weighted by the inverse adaptation rates, the theta term
    also by the inverse magnitude of the ideal reference gain.  Raises
    SingularWeight when an ideal reference gain is below 1e-12, or when a
    frozen (zero-rate) adaptation channel carries a nonzero gain error.

    For fleets with more than one input channel the reference-gain weight
    is matrix-valued and not implemented; the quadratic term alone is
    returned then.
    """
    quad = np.einsum("tin,nm,tim->t", e_a, p_block, e_a)
    if theta.shape[-1] != 1:
        return quad
    r_star = gains.theta_r[:, 0, 0]
    if np.any(np.abs(r_star) < WEIGHT_TOL):
        raise SingularWeight("an ideal reference gain is numerically zero")
    theta_star = gains.stacked_regressor_gain()
    phi_star = (1.0 / r_star)[:, None, None]
    w_theta = _rate_weights(gamma_theta) / np.abs(r_star)
    w_phi = _rate_weights(gamma_phi)
    dth = theta - theta_star[None]
    dph = phi_phi - phi_star[None]
    sq_theta = np.einsum("tiqp,tiqp->ti", dth, dth)
    sq_phi = np.einsum("tipj,tipj->ti", dph, dph)
    return quad + _gain_energy(w_theta, sq_theta, "theta") + _gain_energy(
        w_phi, sq_phi, "phi_phi"
    )


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
        # adaptation drives of a projected error, signs included
        signed_rates = -np.vstack([sc.r_signs[:, None] * sc.gamma_theta, sc.gamma_phi])
        self.rates_l = signed_rates @ laplacian.T
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
    and runs just ahead of it.  The run reports a leader that passes
    DIVERGENCE_LIMIT from the rows written here.
    """
    n = table.shape[1]
    free = step[:, :n]
    driven = r_in.reshape(stop - start, -1) @ step[:, n:].T
    for j in range(start, stop):
        table[j + 1] = free @ table[j] + driven[j - start]


def _block_values(ell: int, n: int, p: int) -> int:
    """Values :func:`_stage_operands` holds at most per step of a block.

    Per agent, the delayed gains and states are read at a step's start,
    midpoint and end and copied to its four stages, 7 (qp + n) values (the
    first ``lag`` steps gather their start and end rows; later blocks read
    them as slices), and the four operands with their temporaries take
    4 (2n + 4p), the leader's adaptation drive counting two values per
    input channel; the leader's stage states and regressors add 16 q per
    step.
    """
    q = 2 * n + p
    return ell * (7 * (q * p + n) + 4 * (2 * n + 4 * p)) + 16 * q


def _stage_operands(sc: Scenario, kernel: _StageKernel, stages: np.ndarray, r_in: np.ndarray,
                    table: np.ndarray, x_arr: np.ndarray, th_arr: np.ndarray, start: int,
                    stop: int) -> tuple[np.ndarray, ...]:
    """Operands of every RK4 stage of steps ``start`` to ``stop - 1`` that
    read stored rows only: the applied input, the fleet's delayed drive,
    the regressor's delayed entries and the leader's part of the adaptation
    drive (:meth:`_StageKernel.leader_offset`).

    ``stages`` are the leader's stage matrices from
    :meth:`LeaderModel.rk4_matrices` and ``r_in`` the steps' stage inputs.
    Delayed states and gains are read by :func:`delaysync.dde.delayed`, so
    ``stop - start`` may not exceed the state delay in steps: every row read
    must already be stored.  Each operand is (4 (stop - start), l, ...) or,
    the leader's drive, (4 (stop - start), 2l, p), one entry per stage:
    start, midpoint, midpoint, end of each step.
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
    x_del = staged(x_arr, dx)
    th_del = staged(th_arr, int(round(sc.tau_u / h)))
    u_app = applied_input(th_del, eta_m, times, sc.tau_u)
    eta_del = delayed_regressor(x_del, eta_m[..., None, 2 * n:])
    del th_del  # the largest temporary: gone before the drive is formed
    drive = sc.fleet.delayed_drive(x_del, u_app)
    g_off = kernel.leader_offset(leader)
    return tuple(v.reshape((-1,) + v.shape[2:]) for v in (u_app, drive, eta_del, g_off))


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
    ln = ell * n
    h = sc.step
    matrices, p_block, gains = _solved(checks)
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
    leader_step, leader_stages = sc.leader.rk4_matrices(h)

    i_xa = ln
    i_th = i_xa + ln
    i_ph = i_th + ell * q * p
    z0 = np.concatenate([sc.x0, sc.xa0, sc.theta0.reshape(-1), sc.phi_phi0.reshape(-1)])
    states = np.empty((total + 1, z0.shape[0]))
    x_arr = states[:, :ln].reshape(-1, ell, n)
    th_arr = states[:, i_th:i_ph].reshape(-1, ell, q, p)
    kernel = _StageKernel(sc, matrices, p_block)

    def diverged(rows: np.ndarray, first: int):
        """The earliest of ``rows``, row ``first`` onward, past the limit:
        its offset in ``rows`` and its DivergenceDetected, or None."""
        worst = np.abs(rows).max(axis=1)
        bad = np.flatnonzero(~(worst <= DIVERGENCE_LIMIT))
        if not bad.size:
            return None
        j = int(bad[0])
        return j, _diverged(float(worst[j]), (first + j) * h)

    start_bad = diverged(np.append(z0, table[0])[None], 0)
    if start_bad:
        raise start_bad[1]
    states[0] = z0
    # Row k's phi, u_aux and L x, as stage 0 of step k evaluates them.
    signals = np.empty((total + 1, ell * (2 * p + n)))
    # A block holds about OPERAND_VALUES values and is at most tau_x steps
    # long, so that it reads only rows stored before it.
    span = min(dx, max(1, OPERAND_VALUES // _block_values(ell, n, p)))
    # Overflow is left silent: the divergence check reports it, non-finite
    # values included, at the time of the step that produced it.
    with np.errstate(over="ignore", invalid="ignore"):
        for a in range(0, lead, span):
            b = min(a + span, lead)
            r_in = _stage_inputs(ref, a, b, h, tau_u, p)
            _leader_pass(leader_step, r_in, table, a, b)
            # The first leader row past the limit ends the run at its time,
            # the rows read tau_u past the last step included.  The fleet
            # steps up to it, so no step reads a diverged leader, and its
            # rows, checked once per block, are earlier and reported first.
            leader_bad = diverged(table[a + 1:b + 1], a + 1)
            stop = min(a + leader_bad[0] if leader_bad else b, total)
            if a < stop:
                kernel.u_app, kernel.drive, kernel.eta_del, kernel.g_off = _stage_operands(
                    sc, kernel, leader_stages, r_in[:stop - a], table, x_arr, th_arr, a, stop
                )
                for k in range(a, stop):
                    i = 4 * (k - a)
                    states[k + 1] = step_rk4(kernel, k * h, states[k], h, range(i, i + 4))
                    signals[k] = kernel.signals[0]
                fleet_bad = diverged(states[a + 1:stop + 1], a + 1)
                if fleet_bad:
                    raise fleet_bad[1]
            if leader_bad:
                raise leader_bad[1]
        # The last row starts no step: evaluate stage 0 of step total alone.
        kernel.u_app, kernel.drive, kernel.eta_del, kernel.g_off = _stage_operands(
            sc, kernel, leader_stages, _stage_inputs(ref, total, total + 1, h, tau_u, p), table,
            x_arr, th_arr, total, total + 1
        )
        kernel(total * h, states[total], 0)
        signals[total] = kernel.signals[0]

    times = np.arange(total + 1) * h
    xm_arr = table[:total + 1]
    xa_arr = states[:, i_xa:i_th].reshape(-1, ell, n)
    ph_arr = states[:, i_ph:].reshape(-1, ell, p, p)
    phi_arr, uaux_arr, ea_arr = _signal_views(signals, ell, n, p)
    # e_a = (L x - g x_m) + x_a, written over L x; e holds the leader term first
    e_arr = np.multiply(matrices.pinning, xm_arr[:, None, :])
    np.subtract(ea_arr, e_arr, out=ea_arr)
    np.add(ea_arr, xa_arr, out=ea_arr)
    np.subtract(ea_arr, xa_arr, out=e_arr)
    # commanded input: current gains against the leader regressor tau_u ahead
    u_arr = control(
        th_arr, regressor(table[du:], table[du - dx:lead + 1 - dx], _levels(ref, times, p))
    )

    v_d = _energy_series(p_block, sc.gamma_theta, sc.gamma_phi, gains, ea_arr, th_arr, ph_arr)
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
