"""Closed-loop harness: reference signals, scenario checks, runs, metrics."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from delaysync.errors import (
    DimensionMismatch,
    DivergenceDetected,
    EmptyTrace,
    SingularWeight,
    ValidationError,
)
from delaysync.adaptive import (
    ControllerConfig,
    applied_input,
    augmented_error,
    auxiliary_input,
    control,
    leader_block_derivative,
    mismatch,
    regressor,
)
from delaysync.cli import load_scenario
from delaysync.dde import HistoryBuffer, rk4_ode_step
from delaysync.harness import (
    OPERAND_VALUES,
    ReferenceSignal,
    Scenario,
    SimTrace,
    _block_values,
    _delayed,
    _energy_series,
    _stage_inputs,
    _stage_operands,
    metrics,
    run_scenario,
    validate_scenario,
)
from delaysync.plant import AgentDynamics, LeaderModel, MatchingGains
from delaysync.topology import Topology, build_matrices

P_BLOCK = np.array([[0.25, 0.05], [0.05, 0.05]])


def tiny_scenario(**over):
    """One scalar agent pinned to a scalar leader; cheap enough to run in
    a fraction of a second."""
    base = dict(
        fleet=[AgentDynamics(a=[[-2.0]], a_zeta=[[0.1]], b=[[1.0]])],
        leader=LeaderModel(a_m=[[-1.0]], b_m=[[1.0]]),
        topology=Topology(1, np.zeros((1, 1)), np.ones(1), 0.1),
        gamma_theta=np.eye(1),
        gamma_phi=np.eye(1),
        q_tilde=np.eye(1),
        theta0=np.zeros((1, 3, 1)),
        phi_phi0=np.zeros((1, 1, 1)),
        r_signs=np.array([1.0]),
        tau_x=1.0,
        tau_u=2.0,
        step=0.01,
        duration=5.0,
        reference=ReferenceSignal(kind="constant"),
        x0=np.zeros(1),
        xm0=np.zeros(1),
        xa0=np.zeros(1),
        name="tiny",
    )
    base.update(over)
    return Scenario(**base)


# The ideal gains of the tiny plant, solvable by hand: a + b*tx = a_m gives
# tx = 1, tz = -0.1, tr = 1, and the input scale is 1.
TINY_THETA_STAR = np.array([[[1.0], [-0.1], [1.0]]])
TINY_PHI_STAR = np.ones((1, 1, 1))


# ------------------------------------------------------------------ signals


def test_reference_is_zero_before_start():
    for kind in ("constant", "sine", "square"):
        assert ReferenceSignal(kind=kind)(-0.001) == 0.0


def test_reference_constant_level():
    r = ReferenceSignal(kind="constant", amplitude=2.0, offset=-0.5)
    assert r(0.0) == 1.5
    assert r(1000.0) == 1.5


def test_reference_sine_values():
    r = ReferenceSignal(kind="sine", amplitude=2.0, period=8.0)
    assert abs(r(2.0) - 2.0) < 1e-12
    assert abs(r(4.0)) < 1e-12
    assert abs(r(6.0) + 2.0) < 1e-12


def test_reference_square_levels():
    r = ReferenceSignal(kind="square", amplitude=1.0, period=40.0)
    assert r(0.0) == 1.0
    assert r(19.99) == 1.0
    assert r(20.0) == -1.0
    assert r(39.0) == -1.0
    assert r(40.0) == 1.0


def test_reference_square_snaps_rounded_edges():
    """Arguments a float-rounding away from a switching instant must read
    the post-switch level, exactly like the instant itself."""
    r = ReferenceSignal(kind="square", amplitude=1.0, period=40.0)
    assert r(20.0 - 1e-10) == -1.0
    assert r(20.0 + 1e-10) == -1.0
    assert r(19.9999) == 1.0


def test_reference_flatness_flags():
    assert ReferenceSignal(kind="constant").piecewise_constant
    assert ReferenceSignal(kind="square").piecewise_constant
    assert not ReferenceSignal(kind="sine").piecewise_constant


def test_reference_validation():
    with pytest.raises(ValidationError):
        ReferenceSignal(kind="triangle")
    with pytest.raises(ValidationError):
        ReferenceSignal(kind="square", period=0.0)
    ReferenceSignal(kind="constant", period=0.0)  # period unused, accepted


# --------------------------------------------------------------- validation


def test_scenario_rejects_delay_disorder():
    with pytest.raises(ValidationError):
        tiny_scenario(tau_x=3.0, tau_u=2.0)


def test_scenario_rejects_non_dividing_step():
    with pytest.raises(ValidationError):
        tiny_scenario(step=0.3)


def test_scenario_rejects_fractional_signs():
    with pytest.raises(ValidationError):
        tiny_scenario(r_signs=np.array([0.5]))


def test_scenario_rejects_wrong_gain_shape():
    with pytest.raises(DimensionMismatch):
        tiny_scenario(theta0=np.zeros((1, 4, 1)))


def _nan_topology():
    """A topology whose weights turned NaN after construction (the
    constructor itself refuses NaN weights)."""
    topo = load_scenario("example2").topology
    w = topo.follower_weights.copy()
    w[0, 1] = math.nan
    object.__setattr__(topo, "follower_weights", w)
    return topo


@pytest.mark.parametrize(
    "field, value",
    [
        ("tau_u", math.inf),
        ("duration", math.nan),
        ("step", math.inf),
        ("x0", np.array([math.nan] + [0.0] * 7)),
        ("theta0", np.full((4, 5, 1), math.inf)),
        ("gamma_theta", np.full((4, 4), math.nan)),
        ("reference", ReferenceSignal(kind="sine", amplitude=math.inf)),
        ("leader", LeaderModel(a_m=[[0.0, 1.0], [-2.0, math.nan]], b_m=[[0.0], [-2.0]])),
        ("topology", _nan_topology()),
    ],
)
def test_scenario_rejects_non_finite_fields(field, value):
    """Python-API scenarios get the parser's guarantee: no NaN or inf
    reaches a run, and the refusal is a ValidationError."""
    with pytest.raises(ValidationError, match=f"non-finite values in {field}"):
        dataclasses.replace(load_scenario("example2"), **{field: value})


def test_validator_names_and_results():
    checks = validate_scenario(tiny_scenario())
    assert [c.name for c in checks] == [
        "balanced",
        "threshold(0.1)",
        "reachable",
        "lyapunov_residual",
        "matching",
    ]
    assert all(c.passed for c in checks)


def test_validator_catches_declared_sign_conflict():
    sc = tiny_scenario(r_signs=np.array([-1.0]))
    failed = {c.name for c in validate_scenario(sc) if not c.passed}
    assert failed == {"matching"}
    with pytest.raises(ValidationError) as info:
        run_scenario(sc)
    assert [c.name for c in info.value.failed] == ["matching"]


def test_validator_reports_unstable_leader():
    sc = tiny_scenario(leader=LeaderModel(a_m=[[1.0]], b_m=[[1.0]]))
    bad = [c for c in validate_scenario(sc) if not c.passed]
    assert any(c.name == "lyapunov_residual" and "Hurwitz" in c.detail for c in bad)


def test_validator_applies_connectivity_threshold():
    sc = tiny_scenario(topology=Topology(1, np.zeros((1, 1)), np.ones(1), 2.0))
    failed = {c.name for c in validate_scenario(sc) if not c.passed}
    assert failed == {"threshold(2)"}


# --------------------------------------------------------------------- runs


def test_quiescent_scenario_stays_identically_zero():
    """No excitation, zero initial data: every dynamic signal is exactly
    zero and the (nonzero) gains never move."""
    theta0 = np.full((1, 3, 1), 0.5)
    sc = tiny_scenario(reference=ReferenceSignal(kind="constant", amplitude=0.0), theta0=theta0)
    trace = run_scenario(sc)
    for field in (trace.x, trace.x_m, trace.x_a, trace.e, trace.e_a, trace.u, trace.u_aux, trace.phi):
        assert np.array_equal(field, np.zeros_like(field))
    assert np.array_equal(trace.theta, np.broadcast_to(theta0, trace.theta.shape))
    assert np.array_equal(trace.phi_phi, np.zeros_like(trace.phi_phi))
    assert np.all(trace.v_d == trace.v_d[0])


def test_matched_gains_keep_zero_error():
    sc = tiny_scenario(
        theta0=TINY_THETA_STAR,
        phi_phi0=TINY_PHI_STAR,
        reference=ReferenceSignal(kind="square", amplitude=1.0, period=4.0),
        duration=8.0,
    )
    trace = run_scenario(sc)
    assert np.max(np.abs(trace.x - trace.x_m[:, None, :])) < 1e-9
    assert np.max(np.abs(trace.e_a)) < 1e-9
    assert np.max(np.abs(trace.theta - TINY_THETA_STAR[None])) < 1e-9


def test_trace_internal_consistency():
    sc = tiny_scenario(duration=4.0)
    trace = run_scenario(sc)
    rows = trace.num_rows
    assert rows == 401
    assert np.array_equal(trace.times, np.arange(rows) * sc.step)
    assert np.array_equal(trace.e, trace.e_a - trace.x_a)
    assert np.array_equal(trace.u_aux, np.einsum("tipj,tij->tip", trace.phi_phi, trace.phi))
    for field in (trace.x, trace.theta, trace.v_d):
        assert np.all(np.isfinite(field))


def test_reruns_match_bitwise():
    sc = tiny_scenario(reference=ReferenceSignal(kind="square", amplitude=1.0, period=4.0))
    a = run_scenario(sc)
    b = run_scenario(dataclasses.replace(sc))
    for name in ("times", "x", "x_m", "x_a", "e", "e_a", "u", "u_aux", "phi", "theta", "phi_phi", "v_d"):
        assert np.array_equal(getattr(a, name), getattr(b, name))


def test_divergence_reports_offending_time():
    # the applied input switches on at tau_u; large frozen gains (below the
    # limit themselves, since gains are checked too) then drive the fleet past it
    sc = tiny_scenario(
        theta0=np.full((1, 3, 1), 9e5),
        gamma_theta=np.zeros((1, 1)),
        gamma_phi=np.zeros((1, 1)),
        duration=5.0,
    )
    with pytest.raises(DivergenceDetected) as info:
        run_scenario(sc)
    assert info.value.time is not None
    assert info.value.time >= sc.tau_u


def test_divergence_catches_bad_initial_state():
    with pytest.raises(DivergenceDetected) as info:
        run_scenario(tiny_scenario(x0=np.array([2e6])))
    assert info.value.time == 0.0


def test_divergence_covers_gains_and_auxiliary_states():
    for over in ({"theta0": np.full((1, 3, 1), 2e6)}, {"xa0": np.array([-2e6])}):
        with pytest.raises(DivergenceDetected) as info:
            run_scenario(tiny_scenario(**over))
        assert info.value.time == 0.0


# ------------------------------------------------- recording matches the RHS


def test_recorded_signals_match_the_chain_functions():
    """The trace's signals, recorded in blocks after the loop, equal the
    public chain functions evaluated one row at a time, as the right-hand
    side evaluates them, on the trace's own state rows: before tau_x,
    between the delays, after tau_u, and on both sides of square edges."""
    two = AgentDynamics(a=[[-1.0]], a_zeta=[[0.2]], b=[[2.0]])
    sc = tiny_scenario(
        fleet=[AgentDynamics(a=[[-2.0]], a_zeta=[[0.1]], b=[[1.0]]), two],
        topology=Topology(2, np.array([[0.0, 0.5], [0.5, 0.0]]), np.full(2, 0.5), 0.1),
        gamma_theta=np.eye(2),
        gamma_phi=np.eye(2),
        theta0=np.full((2, 3, 1), 0.1),
        phi_phi0=np.full((2, 1, 1), -0.5),
        r_signs=np.ones(2),
        x0=np.array([0.5, -0.3]),
        xm0=np.array([0.4]),
        xa0=np.array([0.2, 0.1]),
        reference=ReferenceSignal(kind="square", amplitude=1.0, period=4.0),
        duration=7.0,
    )
    trace = run_scenario(sc)
    matrices = build_matrices(sc.topology)
    h = sc.step
    dx, du = round(sc.tau_x / h), round(sc.tau_u / h)
    # t = 0.5 (< tau_x), 1.5 (between), 3 (> tau_u); r(t) flips at t = 2,
    # r(t - tau_u) at t = 4
    for k in (0, 50, 150, 199, 200, 300, 399, 400, 500):
        t = trace.times[k]
        r_del = np.array([sc.reference(t - sc.tau_u)])
        eta = regressor(trace.x[k], trace.x[max(k - dx, 0)], r_del)
        eta_m = regressor(trace.x_m[k], trace.x_m[max(k - dx, 0)], r_del)
        u_app = applied_input(trace.theta[max(k - du, 0)], eta_m, t, sc.tau_u)
        phi = mismatch(trace.theta[k], eta, u_app)
        e_a = augmented_error(matrices, trace.x[k], trace.x_m[k], trace.x_a[k])
        eta_pred = regressor(trace.x_m[k + du], trace.x_m[k + du - dx], [sc.reference(t)])
        assert np.array_equal(trace.phi[k], phi)
        assert np.array_equal(trace.u_aux[k], auxiliary_input(trace.phi_phi[k], phi))
        assert np.array_equal(trace.e_a[k], e_a)
        assert np.array_equal(trace.e[k], e_a - trace.x_a[k])
        assert np.array_equal(trace.u[k], control(trace.theta[k], eta_pred))
    assert np.any(trace.phi[:du] != 0.0) and np.any(trace.u[:du] != 0.0)


# ------------------------------------------------------ delays as row offsets


def test_delayed_rows_match_the_history_buffer():
    """A delay of whole steps, read as rows back, agrees with the
    interpolating history buffer fed the same rows at every RK4 stage time
    of every step: exactly at the step's start and end, to 1e-15 at its
    midpoint, with row 0 as the pre-history (steps with k - lag = -1 and 0)
    and through the first steps after tau_x and tau_u."""
    h, tau_x, tau_u = 0.005, 0.05, 0.1
    t = np.arange(60) * h
    rows = np.stack([np.sin(3.0 * t), np.cos(2.0 * t) - 0.5, 0.2 * t], axis=1)
    for tau in (tau_x, tau_u):
        lag = round(tau / h)
        buf = HistoryBuffer(h, 0.0, rows[0], tau)
        for k in range(len(rows) - 1):
            start = k * h  # stage times as step_rk4 forms them
            lo, mid, hi = _delayed(rows, k, lag)
            assert np.array_equal(lo, buf.sample(start - tau))
            assert np.max(np.abs(mid - buf.sample(start + 0.5 * h - tau))) <= 1e-15
            assert np.array_equal(hi, buf.sample(start + h - tau))
            buf.append(rows[k + 1])
        assert all(np.array_equal(v, rows[0]) for v in _delayed(rows, lag - 1, lag))
        assert np.array_equal(_delayed(rows, lag, lag)[2], rows[1])
        # the leader pass reads a block of steps at once, with the same values
        steps = np.arange(len(rows) - 1)
        for whole, k in zip(zip(*_delayed(rows, steps, lag)), steps):
            for a, b in zip(whole, _delayed(rows, int(k), lag)):
                assert np.array_equal(a, b)


# Samples of 12 s runs of example1 and of example2 with a sine reference,
# recorded when the delayed values were still read through interpolating
# history buffers and the leader was integrated inside the coupled state.
RECORDED = {
    ("example1", "square"): {
        ("x", (1100, 0, 0)): -0.002317316707043964,
        ("x", (1500, 1, 1)): 0.0012559689100280424,
        ("x", (2000, 2, 0)): 0.006183937401497623,
        ("x", (2400, 3, 1)): -0.08172387021997382,
        ("theta", (1200, 0, 0, 0)): -0.012345374473529886,
        ("theta", (1600, 1, 4, 0)): -0.25212600323160245,
        ("theta", (2000, 2, 1, 0)): -0.0081793101222864,
        ("theta", (2400, 3, 2, 0)): -0.004813446819115242,
        ("v_d", (1100,)): 23.25719295362556,
        ("v_d", (1600,)): 22.207260576044778,
        ("v_d", (2000,)): 20.90924101086144,
        ("v_d", (2400,)): 19.73898005551207,
    },
    ("example2", "sine"): {
        ("x", (1100, 0, 0)): -7.349155101861151e-05,
        ("x", (1500, 1, 1)): -6.552183957937679e-05,
        ("x", (2000, 2, 0)): 0.0003832166647340699,
        ("x", (2400, 3, 1)): 0.0003631706396453147,
        ("theta", (1200, 0, 0, 0)): -0.012499901009816967,
        ("theta", (1600, 1, 4, 0)): -0.012607211636998772,
        ("theta", (2000, 2, 1, 0)): -0.0075074886895462245,
        ("theta", (2400, 3, 2, 0)): -0.004988681386150242,
        ("v_d", (1100,)): 23.303991122204508,
        ("v_d", (1600,)): 23.295668454915482,
        ("v_d", (2000,)): 23.252086660904443,
        ("v_d", (2400,)): 23.14367824156036,
    },
}


# Lags of one row: tau_x = step with tau_u = step and 3 steps, so that a
# block of steps is one step long.  Recorded when every RK4 stage read its
# delayed operands and the leader was stepped by rk4_ode_step.
RECORDED.update({
    ("example1", "square", "tau_x=0.005", "tau_u=0.005"): {
        ("x", (3, 0, 1)): -0.0003667143158083768,
        ("x", (20, 1, 1)): -0.002811691076183078,
        ("x", (600, 2, 0)): -0.17193998929292234,
        ("x", (2400, 3, 1)): -0.03347410336340127,
        ("x_m", (3, 1)): -0.019702320881634393,
        ("x_m", (1100, 0)): -0.991802356624359,
        ("x_m", (2400, 1)): -1.2349944430780603e-05,
        ("theta", (3, 0, 4, 0)): -0.012509747803091213,
        ("theta", (20, 1, 0, 0)): -0.009999936622644904,
        ("theta", (1200, 2, 1, 0)): 0.024033266570099156,
        ("theta", (2400, 3, 2, 0)): 0.14945532661280994,
        ("phi_phi", (3, 0, 0, 0)): -0.4000000021135353,
        ("phi_phi", (20, 1, 0, 0)): -0.3000018897373485,
        ("phi_phi", (1600, 2, 0, 0)): -0.19192445059289379,
        ("phi_phi", (2400, 3, 0, 0)): -0.08719167502901852,
        ("v_d", (3,)): 23.303998994161624,
        ("v_d", (20,)): 23.30328288159486,
        ("v_d", (2000,)): 20.974705073662445,
        ("v_d", (2400,)): 20.928419596482392,
    },
    ("example2", "sine", "tau_x=0.005", "tau_u=0.015"): {
        ("x", (20, 1, 1)): -1.880026052345455e-05,
        ("x", (600, 2, 0)): 0.0010935701770455612,
        ("x", (2400, 3, 1)): -0.014865759193231168,
        ("x_m", (5, 1)): -1.5551793051399325e-05,
        ("x_m", (1100, 0)): -0.5794181397947354,
        ("x_m", (2400, 1)): 0.011997347044144338,
        ("theta", (20, 1, 0, 0)): -0.009999999999862627,
        ("theta", (1200, 2, 1, 0)): -0.007426464728878925,
        ("theta", (2400, 3, 2, 0)): -0.0008757682420181131,
        ("phi_phi", (20, 1, 0, 0)): -0.3000000000057105,
        ("phi_phi", (1600, 2, 0, 0)): -0.20059667049562752,
        ("phi_phi", (2400, 3, 0, 0)): -0.10071750525130357,
        ("v_d", (20,)): 23.30399999764407,
        ("v_d", (2000,)): 22.880331337977125,
        ("v_d", (2400,)): 22.674533278151756,
    },
})


@pytest.mark.parametrize("case", list(RECORDED), ids="-".join)
def test_runs_reproduce_recorded_samples(case):
    """A change to how the loop is evaluated keeps the traces within 1e-12
    of the recorded samples: after tau_u, around 2 tau_u and at the end."""
    builtin, kind, *delays = case
    overrides = ("simulation.duration=12", f"reference.kind={kind}")
    sc = load_scenario(builtin, overrides + tuple(f"simulation.{d}" for d in delays))
    trace = run_scenario(sc)
    assert trace.num_rows == 2401
    for (field, index), value in RECORDED[case].items():
        assert abs(getattr(trace, field)[index] - value) <= 1e-12, (field, index)


# ------------------------------------------------------- the loop's operands


@pytest.mark.parametrize("kind", ["square", "sine"])
def test_leader_steps_by_its_rk4_matrices(kind):
    """The leader's RK4 matrices reproduce rk4_ode_step on a_m x_m + b_m r
    with held (square) and stage-varying (sine) inputs: the step to 1e-14
    relative and the states its four stages evaluate at; a run's leader rows
    stay within 1e-12 of that per-step recurrence."""
    sc = load_scenario("example2", ("simulation.duration=12", f"reference.kind={kind}"))
    m, h, tau_u = sc.leader, sc.step, sc.tau_u
    step, stages = m.rk4_matrices(h)
    n = m.state_dim
    trace = run_scenario(sc)
    steps = trace.num_rows - 1
    r_in = _stage_inputs(sc.reference, 0, steps, h, tau_u, 1)
    assert np.all(r_in[:, :, 0] == r_in[:, :1, 0]) == (kind == "square")
    rng = np.random.default_rng(3)
    y = sc.xm0
    for k in range(steps):
        r = r_in[k]
        seen = []
        inputs = iter(r)

        def f(t, yy):
            seen.append(yy)  # rk4_ode_step evaluates its four stages in order
            return leader_block_derivative(m, yy, next(inputs))

        y = rk4_ode_step(f, k * h, y, h)
        assert np.max(np.abs(y - trace.x_m[k + 1])) <= 1e-12
        if k % 200 == 0:
            z = rng.normal(size=n)
            operand = np.concatenate((z, r.ravel()))
            inputs = iter(r)
            seen.clear()
            want = rk4_ode_step(f, k * h, z, h)
            assert np.max(np.abs(step @ operand - want)) <= 1e-14 * np.max(np.abs(want))
            for got, ref in zip(stages @ operand, seen):
                assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_stage_operands_stay_within_their_budget():
    """On a 128-agent ring the delayed stage operands of one block of steps,
    with every temporary formed on the way, stay within OPERAND_VALUES
    doubles, and the budget rather than the delay sets the block length."""
    ell, n, p = 128, 2, 1
    q = 2 * n + p
    ring = np.zeros((ell, ell))
    for i in range(ell):
        ring[i, i - 1] = ring[i, (i + 1) % ell] = 0.3
    agent = AgentDynamics(
        a=[[0.0, 1.0], [-4.0, -3.0]], a_zeta=[[0.0, 0.0], [0.4, 0.2]], b=[[0.0], [4.0]]
    )
    sc = tiny_scenario(
        fleet=[agent] * ell,
        leader=LeaderModel(a_m=[[0.0, 1.0], [-2.0, -3.0]], b_m=[[0.0], [-2.0]]),
        topology=Topology(ell, ring, np.full(ell, 0.4), 0.1),
        gamma_theta=np.eye(ell),
        gamma_phi=np.eye(ell),
        q_tilde=0.2 * np.eye(2),
        theta0=np.full((ell, q, p), -0.01),
        phi_phi0=np.full((ell, p, p), -0.2),
        r_signs=-np.ones(ell),
        tau_x=3.0,
        tau_u=5.0,
        step=0.01,
        duration=1.0,
        reference=ReferenceSignal(kind="square"),
        x0=np.zeros(ell * n),
        xm0=np.zeros(n),
        xa0=np.zeros(ell * n),
    )
    dx, du = 300, 500
    span = OPERAND_VALUES // _block_values(ell, n, p)
    assert 1 < span < dx
    rng = np.random.default_rng(11)
    rows = du + span + 1
    table = rng.normal(size=(rows, n))
    x_arr = rng.normal(size=(rows, ell, n))
    th_arr = rng.normal(size=(rows, ell, q, p))
    _, stages = sc.leader.rk4_matrices(sc.step)
    matrices = build_matrices(sc.topology)
    for a in (0, du):  # reads of the pre-history row, and of stored rows
        r_in = _stage_inputs(sc.reference, a, a + span, sc.step, sc.tau_u, p)
        tracemalloc.start()
        try:
            operands = _stage_operands(
                sc, matrices, stages, r_in, table, x_arr, th_arr, a, a + span
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert [o.shape[0] for o in operands] == [4 * span] * 4
        assert peak <= 8 * OPERAND_VALUES


# ------------------------------------------------------------------ monitor


def monitor_config(gamma_theta=np.eye(1)):
    return ControllerConfig(
        gamma_theta=gamma_theta,
        gamma_phi=np.eye(1),
        p_matrix=P_BLOCK,
        r_sign=np.array([-1.0]),
    )


def monitor_gains(r_star=-2.0 / 3.0):
    """Ideal gains of agent 1 of the builtin fleets (n = 2, p = 1)."""
    return MatchingGains(
        theta_x=(np.array([[1.0 / 3.0], [-1.0 / 3.0]]),),
        theta_zeta=(np.array([[-0.1], [-0.05]]),),
        theta_r=(np.array([[r_star]]),),
        theta_phi=(np.array([[-1.5]]),),
    )


def monitor(cfg, gains, e_a=np.zeros(2), theta_err=np.zeros((5, 1)), phi_err=0.0):
    """V_d of a one-row, one-agent trace whose gains sit the given errors
    away from the ideal ones (theta*, and 1/r* for the input scale)."""
    theta = gains.stacked_regressor_gain(0) + theta_err
    phi_phi = np.full((1, 1), 1.0 / gains.theta_r[0][0, 0] + phi_err)
    v_d = _energy_series(cfg, gains, np.reshape(e_a, (1, 1, 2)), theta[None, None], phi_phi[None, None])
    return float(v_d[0])


def test_monitor_zero_at_equilibrium():
    assert monitor(monitor_config(), monitor_gains()) == 0.0


def test_monitor_weights_gain_error_by_inverse_reference_gain():
    theta_err = np.zeros((5, 1))
    theta_err[4, 0] = 1.0
    v = monitor(monitor_config(), monitor_gains(), theta_err=theta_err)
    assert abs(v - 1.5) < 1e-12


def test_monitor_quadratic_term():
    assert monitor(monitor_config(), monitor_gains(), e_a=np.array([1.0, 0.0])) == 0.25


def test_monitor_rejects_vanishing_weight():
    gains = monitor_gains(r_star=0.0)
    rows = (np.zeros((1, 1, 2)), np.zeros((1, 1, 5, 1)), np.zeros((1, 1, 1, 1)))
    with pytest.raises(SingularWeight):
        _energy_series(monitor_config(), gains, *rows)


def test_monitor_frozen_channel_must_carry_no_error():
    cfg = monitor_config(gamma_theta=np.zeros((1, 1)))
    assert monitor(cfg, monitor_gains()) == 0.0
    bad = np.zeros((5, 1))
    bad[1, 0] = 0.1
    with pytest.raises(SingularWeight):
        monitor(cfg, monitor_gains(), theta_err=bad)


# ------------------------------------------------------------------ metrics


def synthetic_trace(norms, times, tau_u=1.0):
    rows = times.shape[0]
    zeros_ln = np.zeros((rows, 1, 1))
    return SimTrace(
        times=times,
        x=zeros_ln.copy(),
        x_m=np.zeros((rows, 1)),
        x_a=zeros_ln.copy(),
        e=norms.reshape(rows, 1, 1),
        e_a=norms.reshape(rows, 1, 1),
        u=zeros_ln.copy(),
        u_aux=zeros_ln.copy(),
        phi=np.zeros((rows, 1)).reshape(rows, 1, 1),
        theta=np.zeros((rows, 1, 3, 1)),
        phi_phi=np.zeros((rows, 1, 1, 1)),
        v_d=norms**2,
        tau_x=0.5,
        tau_u=tau_u,
    )


def test_metrics_of_quiescent_run_are_zero():
    sc = tiny_scenario(reference=ReferenceSignal(kind="constant", amplitude=0.0))
    m = metrics(run_scenario(sc))
    assert m.peak_error == 0.0
    assert m.final_window_mean == 0.0
    assert m.settling_time == 0.0
    assert m.max_vd_slope == 0.0


def test_metrics_settling_time_of_exponential_decay():
    times = np.arange(1001) * 0.01
    m = metrics(synthetic_trace(np.exp(-times), times))
    assert m.peak_error == 1.0
    # crosses 5% of peak at ln(20) ~ 2.9957; first grid time past that is 3.0
    assert abs(m.settling_time - 3.0) < 1e-12
    assert m.settling_time - math.log(20.0) < 0.01
    assert m.final_window_mean < 1e-3
    assert m.max_vd_slope <= 0.0


def test_metrics_settling_never_reached_is_infinite():
    times = np.arange(101) * 0.01
    m = metrics(synthetic_trace(np.ones(101), times))
    assert m.settling_time == math.inf


def test_metrics_reject_empty_trace():
    with pytest.raises(EmptyTrace):
        metrics(synthetic_trace(np.zeros(0), np.zeros(0)))


def test_metrics_expose_final_gains():
    sc = tiny_scenario(duration=3.0)
    trace = run_scenario(sc)
    m = metrics(trace)
    assert np.array_equal(m.theta_final, trace.theta[-1])
    assert np.array_equal(m.phi_phi_final, trace.phi_phi[-1])
