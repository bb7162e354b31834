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
from chain_oracle import (
    aux_derivative,
    augmented_error,
    auxiliary_input,
    fleet_derivative,
    gain_derivatives,
    leader_pinning,
    mismatch,
    pinned_error,
)
from delaysync.adaptive import (
    applied_input,
    control,
    leader_block_derivative,
    regressor,
)
from delaysync.cli import load_scenario
from delaysync.dde import HistoryBuffer, delayed, step_rk4
from delaysync.harness import (
    OPERAND_VALUES,
    ReferenceSignal,
    Scenario,
    SimTrace,
    _block_values,
    _energy_series,
    _stage_inputs,
    _stage_operands,
    _StageKernel,
    metrics,
    run_scenario,
    validate_scenario,
)
from delaysync.linalg import solve_lyapunov
from delaysync.plant import AgentDynamics, LeaderModel, MatchingGains, matching_gains
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


def test_scenario_rejects_indefinite_rates():
    with pytest.raises(ValidationError):
        tiny_scenario(gamma_theta=-np.eye(1))


def test_scenario_accepts_zero_rates():
    sc = tiny_scenario(gamma_theta=np.zeros((1, 1)), gamma_phi=np.zeros((1, 1)))
    assert sc.num_agents == 1


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


def test_run_solves_topology_lyapunov_and_matching_gains_once(monkeypatch):
    """run_scenario reuses what its validation solved."""
    from delaysync import harness, linalg

    calls = {}

    def counting(module, name):
        fn = getattr(module, name)

        def wrapped(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapped)

    for module, name in (
        (harness, "validate_scenario"),
        (harness, "build_matrices"),
        (harness, "matching_gains"),
        (linalg, "solve_lyapunov"),
    ):
        counting(module, name)
    run_scenario(dataclasses.replace(load_scenario("example2"), duration=1.0))
    assert calls == {
        "validate_scenario": 1, "build_matrices": 1, "matching_gains": 1, "solve_lyapunov": 1
    }


def test_validation_solves_one_linear_system(monkeypatch):
    """The matching conditions take no elimination: the one solve_linear
    call of validating example1 is the Lyapunov equation's."""
    from delaysync import linalg

    calls = []
    solve = linalg.solve_linear
    monkeypatch.setattr(linalg, "solve_linear", lambda *a: calls.append(1) or solve(*a))
    assert all(c.passed for c in validate_scenario(load_scenario("example1")))
    assert len(calls) == 1


def test_validation_lets_a_defect_in_matching_gains_raise(monkeypatch):
    """Only the package's own errors become a failed matching check."""
    from delaysync import harness

    def broken(fleet, leader):
        raise TypeError("defect")

    monkeypatch.setattr(harness, "matching_gains", broken)
    with pytest.raises(TypeError, match="defect"):
        validate_scenario(tiny_scenario())


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


def test_divergence_is_reported_at_the_step_that_crossed_mid_block():
    """Fleet rows are checked once per block of steps; a state that passes
    the limit inside a block is reported at the step that crossed it, with
    that row's magnitude.  With no input and frozen gains the fleet is
    x' = x, so row k is the RK4 growth factor to the k."""
    sc = tiny_scenario(
        fleet=[AgentDynamics(a=[[1.0]], a_zeta=[[0.0]], b=[[1.0]])],
        gamma_theta=np.zeros((1, 1)),
        gamma_phi=np.zeros((1, 1)),
        x0=np.ones(1),
        duration=20.0,
    )
    h = sc.step
    growth = 1.0 + h + h**2 / 2 + h**3 / 6 + h**4 / 24
    k = math.ceil(math.log(1e6) / math.log(growth))
    assert k % round(sc.tau_x / h) not in (0, 1)  # blocks are tau_x long here
    with pytest.raises(DivergenceDetected) as info:
        run_scenario(sc)
    assert info.value.time == k * h
    assert str(info.value) == f"state magnitude {growth**k:.3e} at t={k * h:.6g} exceeds 1e+06"


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
    """The trace's signals, recorded from the loop's own stage-0 kernel
    evaluations and, for the last row, one kernel call of its own, equal
    the reference chain functions evaluated one row at a time on the
    trace's own state rows: before tau_x, between the delays, after tau_u,
    on both sides of square edges, at the final row, and in a run of one
    row.  The commanded input reads leader rows tau_u past the row, so it
    is checked where those rows are in the trace."""
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
    matrices = build_matrices(sc.topology)
    h = sc.step
    dx, du = round(sc.tau_x / h), round(sc.tau_u / h)

    def check(trace, k):
        t = trace.times[k]
        r_del = np.array([sc.reference(t - sc.tau_u)])
        eta = regressor(trace.x[k], trace.x[max(k - dx, 0)], r_del)
        eta_m = regressor(trace.x_m[k], trace.x_m[max(k - dx, 0)], r_del)
        u_app = applied_input(trace.theta[max(k - du, 0)], eta_m, t, sc.tau_u)
        phi = mismatch(trace.theta[k], eta, u_app)
        e_a = augmented_error(matrices, trace.x[k], trace.x_m[k], trace.x_a[k])
        assert np.array_equal(trace.phi[k], phi)
        assert np.array_equal(trace.u_aux[k], auxiliary_input(trace.phi_phi[k], phi))
        assert np.array_equal(trace.e_a[k], e_a)
        assert np.array_equal(trace.e[k], e_a - trace.x_a[k])
        if k + du < trace.num_rows:
            eta_pred = regressor(trace.x_m[k + du], trace.x_m[k + du - dx], [sc.reference(t)])
            assert np.array_equal(trace.u[k], control(trace.theta[k], eta_pred))

    trace = run_scenario(sc)
    assert trace.num_rows == 701
    # t = 0.5 (< tau_x), 1.5 (between), 3 (> tau_u); r(t) flips at t = 2,
    # r(t - tau_u) at t = 4; row 700 is the last
    for k in (0, 50, 150, 199, 200, 300, 399, 400, 500, 700):
        check(trace, k)
    assert np.any(trace.phi[:du] != 0.0) and np.any(trace.u[:du] != 0.0)
    one_row = run_scenario(dataclasses.replace(sc, duration=0.0))
    assert one_row.num_rows == 1
    check(one_row, 0)


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
            lo, mid, hi = (v[0] for v in delayed(rows, k, k + 1, lag))
            assert np.array_equal(lo, buf.sample(start - tau))
            assert np.max(np.abs(mid - buf.sample(start + 0.5 * h - tau))) <= 1e-15
            assert np.array_equal(hi, buf.sample(start + h - tau))
            buf.append(rows[k + 1])
        assert all(np.array_equal(v[0], rows[0]) for v in delayed(rows, lag - 1, lag, lag))
        assert np.array_equal(delayed(rows, lag, lag + 1, lag)[2][0], rows[1])
        # a run reads a block of steps at once, with the same values
        steps = range(len(rows) - 1)
        for whole, k in zip(zip(*delayed(rows, 0, len(rows) - 1, lag)), steps):
            for a, b in zip(whole, delayed(rows, k, k + 1, lag)):
                assert np.array_equal(a, b[0])


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
# delayed operands and the leader was stepped by a separate plain-ODE RK4 step.
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


def random_fleet_scenario(rng, ell, p, n=2):
    """A scenario of ``ell`` random agents on a random weighted graph, for
    evaluating the loop's pieces, not for running (it is not validated)."""
    w = rng.uniform(size=(ell, ell))
    np.fill_diagonal(w, 0.0)
    g = rng.uniform(0.2, 1.0, size=ell)
    total = w.sum(axis=1) + g
    rates = [np.eye(ell) + 0.1 * x @ x.T / ell for x in rng.normal(size=(2, ell, ell))]
    return tiny_scenario(
        fleet=[
            AgentDynamics(a=rng.normal(size=(n, n)), a_zeta=rng.normal(size=(n, n)),
                          b=rng.normal(size=(n, p)))
            for _ in range(ell)
        ],
        leader=LeaderModel(a_m=rng.normal(size=(n, n)), b_m=rng.normal(size=(n, p))),
        topology=Topology(ell, w / total[:, None], g / total, 0.1),
        gamma_theta=rates[0],
        gamma_phi=rates[1],
        q_tilde=np.eye(n),
        theta0=np.zeros((ell, 2 * n + p, p)),
        phi_phi0=np.zeros((ell, p, p)),
        r_signs=rng.choice([-1.0, 1.0], size=ell),
        x0=np.zeros(ell * n),
        xm0=np.zeros(n),
        xa0=np.zeros(ell * n),
    )


@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("ell", [1, 4, 128])
def test_stage_kernel_matches_the_chain_functions(ell, p):
    """The run's right-hand side equals the reference chain functions on
    random stage states and operands, at every stage index of a block of
    two steps, to 1e-13 relative, and so do the mismatch, auxiliary input
    and graph term ``L x`` it records; and the four results of a step's
    stages, derivatives and signals, all keep their values until the step
    is taken."""
    rng = np.random.default_rng(10 * ell + p)
    sc = random_fleet_scenario(rng, ell, p)
    n, q = sc.state_dim, sc.regressor_dim
    ln = ell * n
    matrices = build_matrices(sc.topology)
    kernel = _StageKernel(sc, matrices, P_BLOCK)
    stages = 8
    u_app = rng.normal(size=(stages, ell, p))
    drive = rng.normal(size=(stages, ell, n))
    eta_del = rng.normal(size=(stages, ell, n + p))
    x_m = rng.normal(size=(stages, n))
    kernel.u_app, kernel.drive, kernel.eta_del = u_app, drive, eta_del
    kernel.g_off = kernel.leader_offset(x_m)
    for step in range(0, stages, 4):
        results = []
        for i in range(step, step + 4):
            y = rng.normal(size=2 * ln + ell * (q * p + p * p))
            x, x_a = y[:ln].reshape(ell, n), y[ln:2 * ln].reshape(ell, n)
            theta = y[2 * ln:2 * ln + ell * q * p].reshape(ell, q, p)
            phi_phi = y[2 * ln + ell * q * p:].reshape(ell, p, p)
            eta = np.concatenate((x, eta_del[i]), axis=-1)
            phi = mismatch(theta, eta, u_app[i])
            u_aux = auxiliary_input(phi_phi, phi)
            e_a = pinned_error(matrices, x, leader_pinning(matrices, x_m[i]), x_a)
            d_theta, d_phi_phi = gain_derivatives(
                sc.gamma_theta, sc.gamma_phi, sc.r_signs, matrices, P_BLOCK @ sc.leader.b_m, e_a,
                eta, phi,
            )
            want = np.concatenate([
                fleet_derivative(sc.fleet, x, drive[i]).ravel(),
                aux_derivative(sc.leader, matrices, x_a, u_aux).ravel(),
                d_theta.ravel(),
                d_phi_phi.ravel(),
            ])
            got = kernel(0.0, y, i)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), i
            signals = kernel.signals[i & 3]
            want = np.concatenate([phi.ravel(), u_aux.ravel(), (matrices.laplacian_like @ x).ravel()])
            assert np.max(np.abs(signals - want)) <= 1e-13 * np.max(np.abs(want)), i
            results += [(got, got.copy()), (signals, signals.copy())]
        for got, kept in results:
            assert np.array_equal(got, kept)


def per_step_oracle(sc: Scenario) -> np.ndarray:
    """Integrate the closed loop of ``sc`` by one step_rk4 call per step on
    the stacked state [x; x_a; theta; phi_phi; x_m], with every delayed
    value read from an interpolating HistoryBuffer at its stage time and
    the right-hand side assembled per stage from the reference chain
    functions.  Returns the stored rows."""
    ell, n, p = sc.num_agents, sc.state_dim, sc.input_dim
    q = 2 * n + p
    h, tau_x, tau_u = sc.step, sc.tau_x, sc.tau_u
    matrices = build_matrices(sc.topology)
    p_block = solve_lyapunov(sc.leader.a_m, sc.q_tilde)
    cuts = np.cumsum([ell * n, ell * n, ell * q * p, ell * p * p])
    shapes = ((ell, n), (ell, n), (ell, q, p), (ell, p, p), (n,))

    def split(v):
        return [part.reshape(shape) for part, shape in zip(np.split(v, cuts), shapes)]

    y = np.concatenate([sc.x0, sc.xa0, sc.theta0.ravel(), sc.phi_phi0.ravel(), sc.xm0])
    history = HistoryBuffer(h, 0.0, y, tau_u)

    def rhs(t, v, _):
        x, x_a, theta, phi_phi, x_m = split(v)
        x_del, _, _, _, xm_del = split(history.sample(t - tau_x))
        theta_del = split(history.sample(t - tau_u))[2]
        r_del = np.full(p, sc.reference(t - tau_u))
        u_app = applied_input(theta_del, regressor(x_m, xm_del, r_del), t, tau_u)
        eta = regressor(x, x_del, r_del)
        phi = mismatch(theta, eta, u_app)
        u_aux = auxiliary_input(phi_phi, phi)
        e_a = augmented_error(matrices, x, x_m, x_a)
        d_theta, d_phi_phi = gain_derivatives(
            sc.gamma_theta, sc.gamma_phi, sc.r_signs, matrices, p_block @ sc.leader.b_m, e_a, eta,
            phi,
        )
        parts = (
            fleet_derivative(sc.fleet, x, sc.fleet.delayed_drive(x_del, u_app)),
            aux_derivative(sc.leader, matrices, x_a, u_aux),
            d_theta,
            d_phi_phi,
            leader_block_derivative(sc.leader, x_m, r_del),
        )
        return np.concatenate([d.ravel() for d in parts])

    rows = [y]
    for k in range(round(sc.duration / h)):
        y = step_rk4(rhs, k * h, y, h, (None,) * 4)
        history.append(y)
        rows.append(y)
    return np.array(rows)


# A two-input fleet of three agents, a shape no builtin has.
TWO_INPUT_AGENTS = [
    AgentDynamics(a=[[0.0, 1.0], [-1.0 - 0.2 * i, -1.0]], a_zeta=[[0.0, 0.1], [0.2, -0.1 * i]],
                  b=[[1.0, 0.2 * i], [0.1, 1.5]])
    for i in range(3)
]
TWO_INPUT_LEADER = LeaderModel(a_m=[[0.0, 1.0], [-2.0, -3.0]], b_m=[[1.0, 0.0], [0.0, -2.0]])


def test_matching_gains_agree_with_per_agent_least_squares():
    """The fleet-wide solve gives each agent of the two-input fleet the
    gains of its own least-squares solve of each condition, to 1e-14."""
    g = matching_gains(TWO_INPUT_AGENTS, TWO_INPUT_LEADER)
    a_m, b_m = TWO_INPUT_LEADER.a_m, TWO_INPUT_LEADER.b_m
    for i, ag in enumerate(TWO_INPUT_AGENTS):
        for got, basis, target in (
            (g.theta_x[i].T, ag.b, a_m - ag.a),
            (g.theta_zeta[i].T, ag.b, -ag.a_zeta),
            (g.theta_r[i], ag.b, b_m),
            (g.theta_phi[i], b_m, ag.b),
        ):
            want = np.linalg.lstsq(basis, target, rcond=None)[0]
            assert np.max(np.abs(got - want)) <= 1e-14


def test_run_matches_a_per_step_oracle_with_two_inputs():
    """The two-input fleet with a sine reference runs within 1e-12 of the
    per-step oracle built from the reference chain functions: fleet,
    auxiliary, gain and leader states."""
    ell, n, p = 3, 2, 2
    sc = tiny_scenario(
        fleet=TWO_INPUT_AGENTS,
        leader=TWO_INPUT_LEADER,
        topology=Topology(
            ell, np.array([[0.0, 0.3, 0.2], [0.25, 0.0, 0.25], [0.2, 0.3, 0.0]]),
            np.full(ell, 0.5), 0.1,
        ),
        gamma_theta=0.5 * np.eye(ell),
        gamma_phi=0.5 * np.eye(ell),
        q_tilde=np.eye(n),
        theta0=np.random.default_rng(5).normal(scale=0.1, size=(ell, 2 * n + p, p)),
        phi_phi0=np.tile(0.3 * np.eye(p), (ell, 1, 1)),
        r_signs=np.ones(ell),
        tau_x=0.1,
        tau_u=0.3,
        step=0.01,
        duration=2.0,
        reference=ReferenceSignal(kind="sine", amplitude=1.0, period=1.5),
        x0=np.array([0.5, -0.3, 0.1, 0.2, -0.4, 0.0]),
        xm0=np.array([0.2, -0.1]),
        xa0=np.array([0.05, 0.0, -0.05, 0.1, 0.0, 0.02]),
    )
    assert all(c.passed for c in validate_scenario(sc))
    trace = run_scenario(sc)
    rows = per_step_oracle(sc)
    ln = ell * n
    got = np.concatenate([
        trace.x.reshape(-1, ln), trace.x_a.reshape(-1, ln), trace.theta.reshape(trace.num_rows, -1),
        trace.phi_phi.reshape(trace.num_rows, -1), trace.x_m,
    ], axis=1)
    assert got.shape == rows.shape == (201, rows.shape[1])
    assert np.max(np.abs(got - rows)) <= 1e-12
    assert np.max(np.abs(trace.theta[-1] - trace.theta[0])) > 1e-3  # the gains adapted


@pytest.mark.parametrize("kind", ["square", "sine"])
def test_leader_steps_by_its_rk4_matrices(kind):
    """The leader's RK4 matrices reproduce step_rk4 on a_m x_m + b_m r
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
    seen = []

    def f(t, yy, r):
        seen.append(yy)
        return leader_block_derivative(m, yy, r)

    for k in range(steps):
        r = r_in[k]
        y = step_rk4(f, k * h, y, h, r)
        assert np.max(np.abs(y - trace.x_m[k + 1])) <= 1e-12
        if k % 200 == 0:
            z = rng.normal(size=n)
            operand = np.concatenate((z, r.ravel()))
            seen.clear()
            want = step_rk4(f, k * h, z, h, r)
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
    kernel = _StageKernel(sc, build_matrices(sc.topology), P_BLOCK)
    for a in (0, du):  # reads of the pre-history row, and of stored rows
        r_in = _stage_inputs(sc.reference, a, a + span, sc.step, sc.tau_u, p)
        tracemalloc.start()
        try:
            operands = _stage_operands(
                sc, kernel, stages, r_in, table, x_arr, th_arr, a, a + span
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert [o.shape[0] for o in operands] == [4 * span] * 4
        assert peak <= 8 * OPERAND_VALUES


# ------------------------------------------------------------------ monitor


def monitor_gains(r_star=-2.0 / 3.0):
    """Ideal gains of agent 1 of the builtin fleets (n = 2, p = 1)."""
    return MatchingGains(
        theta_x=np.array([[[1.0 / 3.0], [-1.0 / 3.0]]]),
        theta_zeta=np.array([[[-0.1], [-0.05]]]),
        theta_r=np.array([[[r_star]]]),
        theta_phi=np.array([[[-1.5]]]),
    )


def monitor(gains, gamma_theta=np.eye(1), e_a=np.zeros(2), theta_err=np.zeros((5, 1)),
            phi_err=0.0):
    """V_d of a one-row, one-agent trace whose gains sit the given errors
    away from the ideal ones (theta*, and 1/r* for the input scale), with
    unit gamma_phi."""
    theta = gains.stacked_regressor_gain(0) + theta_err
    phi_phi = np.full((1, 1), 1.0 / gains.theta_r[0][0, 0] + phi_err)
    v_d = _energy_series(P_BLOCK, gamma_theta, np.eye(1), gains, np.reshape(e_a, (1, 1, 2)),
                         theta[None, None], phi_phi[None, None])
    return float(v_d[0])


def test_monitor_zero_at_equilibrium():
    assert monitor(monitor_gains()) == 0.0


def test_monitor_weights_gain_error_by_inverse_reference_gain():
    theta_err = np.zeros((5, 1))
    theta_err[4, 0] = 1.0
    v = monitor(monitor_gains(), theta_err=theta_err)
    assert abs(v - 1.5) < 1e-12


def test_monitor_quadratic_term():
    assert monitor(monitor_gains(), e_a=np.array([1.0, 0.0])) == 0.25


def test_monitor_rejects_vanishing_weight():
    gains = monitor_gains(r_star=0.0)
    rows = (np.zeros((1, 1, 2)), np.zeros((1, 1, 5, 1)), np.zeros((1, 1, 1, 1)))
    with pytest.raises(SingularWeight):
        _energy_series(P_BLOCK, np.eye(1), np.eye(1), gains, *rows)


def test_monitor_frozen_channel_must_carry_no_error():
    frozen = np.zeros((1, 1))
    assert monitor(monitor_gains(), gamma_theta=frozen) == 0.0
    bad = np.zeros((5, 1))
    bad[1, 0] = 0.1
    with pytest.raises(SingularWeight):
        monitor(monitor_gains(), gamma_theta=frozen, theta_err=bad)


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
