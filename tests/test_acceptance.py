"""End-to-end acceptance gate.

Ten checks, one test each, run against the two bundled scenarios.  Every
test prints the measured quantity next to the bound it is held to, so a
failure in the -v listing can be read without rerunning anything.  The
heavy simulations come from the session fixtures in conftest.py.
"""

import dataclasses
import time

import numpy as np

from chain_oracle import predict_leader_regressor
from delaysync.dde import delayed, step_rk4
from delaysync.harness import metrics, run_scenario, validate_scenario
from delaysync.linalg import solve_lyapunov
from delaysync.plant import matching_gains
from delaysync.topology import build_matrices, check_threshold
from delaysync.cli import write_trace_csv

TRACK_RATIO = 0.05      # final-window mean over peak, per run
GAIN_FLAT = 0.01        # final-window gain range over total excursion
SLOPE_BOUND = 1e-6      # largest admissible energy slope after startup


def _gain_flatness(trace, window=20.0):
    """Worst final-window range over whole-run excursion across every
    adaptive gain entry (constant entries are skipped: 0 over 0)."""
    series = np.concatenate(
        [
            trace.theta.reshape(trace.theta.shape[0], -1),
            trace.phi_phi.reshape(trace.phi_phi.shape[0], -1),
        ],
        axis=1,
    )
    tail = trace.times >= trace.times[-1] - window - 1e-9
    excursion = series.max(axis=0) - series.min(axis=0)
    final = series[tail].max(axis=0) - series[tail].min(axis=0)
    live = excursion > 0.0
    ratios = np.zeros_like(excursion)
    ratios[live] = final[live] / excursion[live]
    return float(ratios.max()), int(np.sum(ratios > GAIN_FLAT)), ratios.shape[0]


def test_01_ideal_gain_solver_matches_hand_values(ex1):
    """Closed-form gains for agent 1 plus residuals for the whole fleet."""
    sc, _, _ = ex1
    t0 = time.perf_counter()
    g = matching_gains(sc.fleet, sc.leader)
    elapsed = time.perf_counter() - t0

    a_m, b_m = sc.leader.a_m, sc.leader.b_m
    a, a_zeta, b = sc.fleet.a, sc.fleet.a_zeta, sc.fleet.b
    worst = max(
        np.max(np.abs(a + b @ np.swapaxes(g.theta_x, 1, 2) - a_m)),
        np.max(np.abs(a_zeta + b @ np.swapaxes(g.theta_zeta, 1, 2))),
        np.max(np.abs(b @ g.theta_r - b_m)),
        np.max(np.abs(b_m @ g.theta_phi - b)),
    )
    print(f"worst matching residual {worst:.3e} (bound 1e-9), solve took {elapsed:.4f}s")

    assert np.allclose(g.theta_x[0].ravel(), [1.0 / 3.0, -1.0 / 3.0], atol=1e-9, rtol=0.0)
    assert np.allclose(g.theta_zeta[0].ravel(), [-0.1, -0.05], atol=1e-9, rtol=0.0)
    assert abs(g.theta_r[0][0, 0] - (-2.0 / 3.0)) <= 1e-9
    assert abs(g.theta_phi[0][0, 0] - (-1.5)) <= 1e-9
    assert worst <= 1e-9
    assert elapsed < 1.0


def test_02_frozen_ideal_gains_track_exactly(ex1):
    """With adaptation off and gains at their ideal values the fleet must
    reproduce the leader to solver precision."""
    sc, _, _ = ex1
    g = matching_gains(sc.fleet, sc.leader)
    ell = sc.topology.num_agents
    frozen = dataclasses.replace(
        sc,
        name="matched",
        theta0=np.stack([g.stacked_regressor_gain(i) for i in range(ell)]),
        phi_phi0=np.stack(g.theta_phi),
        gamma_theta=np.zeros((ell, ell)),
        gamma_phi=np.zeros((ell, ell)),
    )
    t0 = time.perf_counter()
    trace = run_scenario(frozen)
    elapsed = time.perf_counter() - t0
    gap = float(np.max(np.abs(trace.x - trace.x_m[:, None, :])))
    print(f"max |x - x_m| = {gap:.3e} (bound 1e-6), run took {elapsed:.1f}s (bound 30s)")
    assert gap <= 1e-6
    assert elapsed < 30.0


def test_03_fully_pinned_run_settles_and_gains_flatten(ex1):
    """Leader-only graph: tracking error must collapse and every adaptive
    gain must be flat over the final window."""
    _, trace, elapsed = ex1
    m = metrics(trace)
    ratio = m.final_window_mean / m.peak_error
    worst, over, total = _gain_flatness(trace)
    print(
        f"error ratio {ratio:.4f} (bound {TRACK_RATIO}); "
        f"gain flatness worst {worst:.4f} with {over}/{total} entries over "
        f"{GAIN_FLAT}; run took {elapsed:.1f}s (bound 60s)"
    )
    assert elapsed < 60.0
    assert ratio <= TRACK_RATIO
    assert worst <= GAIN_FLAT


def test_04_ring_run_tracks_and_settles_slower(ex1, ex2):
    """Sparser ring graph: same tracking bar, and settling must come later
    than in the fully pinned run."""
    _, trace1, _ = ex1
    _, trace2, elapsed = ex2
    m1 = metrics(trace1)
    m2 = metrics(trace2)
    ratio = m2.final_window_mean / m2.peak_error
    print(
        f"error ratio {ratio:.4f} (bound {TRACK_RATIO}); settling "
        f"{m2.settling_time} vs {m1.settling_time:.1f}s on the pinned graph; "
        f"run took {elapsed:.1f}s (bound 60s)"
    )
    assert elapsed < 60.0
    assert m2.settling_time > m1.settling_time
    assert ratio <= TRACK_RATIO


def test_05_energy_monitor_never_climbs(ex1, ex2):
    """After the delayed terms leave pre-history (two input delays in) the
    finite-difference slope of the energy must stay at or below zero, up to
    integration noise."""
    _, trace1, _ = ex1
    _, trace2, _ = ex2
    s1 = metrics(trace1).max_vd_slope
    s2 = metrics(trace2).max_vd_slope
    print(f"max dV_d/dt after startup: {s1:.3e} (pinned), {s2:.3e} (ring); bound {SLOPE_BOUND}")
    assert s1 <= SLOPE_BOUND
    assert s2 <= SLOPE_BOUND


def test_06_lyapunov_solver_oracle():
    """Hand-checkable solve plus a probe that pins down which side the
    weight enters on (a solver absorbing a factor of two would pass the
    first check with a different matrix)."""
    a = np.array([[0.0, 1.0], [-2.0, -3.0]])
    q = 0.2 * np.eye(2)
    p = solve_lyapunov(a, q)
    expected = np.array([[0.25, 0.05], [0.05, 0.05]])
    gap = float(np.max(np.abs(p - expected)))

    p2 = solve_lyapunov(a, 2.0 * q)
    linearity = float(np.max(np.abs(p2 - 2.0 * p)))
    # Substituting the doubled weight against the original solution must
    # leave exactly the weight itself as residual.
    residual = float(np.max(np.abs(a.T @ p + p @ a + 2.0 * q)))
    print(
        f"|P - expected| = {gap:.3e} (bound 1e-9); doubling linearity "
        f"{linearity:.3e}; off-by-two residual {residual:.6f} (expected 0.2)"
    )
    assert gap <= 1e-9
    assert linearity <= 1e-12
    assert abs(residual - 0.2) <= 1e-12


def test_07_topology_checks_and_ring_spectrum(ex1, ex2):
    """Both bundled graphs pass every structural check and the ring's
    smallest nonzero symmetric-part eigenvalue sits at 0.4."""
    sc1, _, _ = ex1
    sc2, _, _ = ex2
    for sc in (sc1, sc2):
        checks = validate_scenario(sc)
        failed = [c.name for c in checks if not c.passed]
        print(f"{sc.name}: {len(checks)} checks, failed: {failed or 'none'}")
        assert len(checks) == 5
        assert not failed

    m = build_matrices(sc2.topology)
    rep = check_threshold(m, sc2.topology.threshold)
    print(f"ring min nonzero eigenvalue {rep.min_nonzero_eigenvalue!r} (expected 0.4)")
    assert abs(rep.min_nonzero_eigenvalue - 0.4) <= 1e-9


def delayed_decay(h, t_end):
    """Integrate dx/dt = -x(t-1) with unit pre-history; analytic values are
    polynomial on unit intervals (0 at t=1, -1/2 at t=2, -1/6 at t=3).

    It is stepped as a run steps its closed loop: one ``step_rk4`` call per
    step in one reused work array, the lag read as rows back by
    ``dde.delayed`` (start, midpoint twice, end), with row 0 as the
    pre-history."""
    lag, steps = round(1.0 / h), round(t_end / h)
    rows = np.ones((steps + 1, 1))
    work = np.empty((6, 1))
    work[0] = rows[0]
    for k in range(steps):
        lo, mid, hi = delayed(rows, k, k + 1, lag)
        step_rk4(lambda t, z, out, x_lag: np.negative(x_lag[0], out=out), k * h, h, work,
                 (lo, mid, mid, hi))
        rows[k + 1] = work[0]
    return rows[-1, 0]


def test_08_delay_integrator_oracle():
    """Scalar delayed-decay values at two horizons, plus the halving check
    on the t=3 error.

    Through t=2 the history the stepper reads is linear, so the linear
    interpolant and RK4 reproduce x(1)=0 and x(2)=-1/2 at roundoff for any
    step; a halving probe there only compares roundoff.  From t=2 on the
    history is curved, so the t=3 error (against -1/6) is a real
    discretization error and must shrink by at least 3.5 when h halves.
    A first-order history read (sample-and-hold) gives a ratio of about 2
    there and fails.
    """
    x1 = delayed_decay(0.01, 1.0)
    e2 = abs(delayed_decay(0.01, 2.0) + 0.5)
    e3_coarse = abs(delayed_decay(0.01, 3.0) + 1.0 / 6.0)
    e3_fine = abs(delayed_decay(0.005, 3.0) + 1.0 / 6.0)
    print(
        f"x(1) = {x1:.3e} (bound 1e-6); x(2) error vs -1/2 {e2:.3e} (bound 1e-5); "
        f"x(3) error vs -1/6, h=0.01 -> 0.005: {e3_coarse:.3e} -> {e3_fine:.3e} "
        f"(need factor >= 3.5)"
    )
    assert abs(x1) <= 1e-6
    assert e2 <= 1e-5
    assert e3_fine <= e3_coarse / 3.5


def test_09_leader_prediction_matches_realized_future(ex1):
    """The regressor predicted one input delay ahead must coincide with the
    regressor the leader actually realizes."""
    sc, trace, _ = ex1
    h = sc.step
    du = int(round(sc.tau_u / h))
    dx = int(round(sc.tau_x / h))
    r_of = lambda s: np.array([sc.reference(s)])
    hold = sc.reference.piecewise_constant

    last = trace.num_rows - 1 - du
    probes = set(range(0, last + 1, 199))
    # Edge-straddling windows: prediction spans (t, t + tau_u], so indices
    # just below each reference switch and just below switch + delay both
    # exercise the held input.
    half = int(round(sc.reference.period / 2.0 / h))
    for edge in range(half, last + du, half):
        for d in (-du - 1, -du, -du + 1, -1, 0, 1):
            k = edge + d
            if 0 <= k <= last:
                probes.add(k)

    worst = 0.0
    for k in sorted(probes):
        t = trace.times[k]
        pred = predict_leader_regressor(
            sc.leader, trace.x_m[k], r_of, t, sc.tau_u, sc.tau_x, h, hold_reference=hold
        )
        realized = np.concatenate([trace.x_m[k + du], trace.x_m[k + du - dx], r_of(t)])
        worst = max(worst, float(np.max(np.abs(pred - realized))))
    print(f"worst prediction error over {len(probes)} probes: {worst:.3e} (bound 1e-6)")
    assert worst <= 1e-6


def test_10_reruns_are_bit_identical(ex2, tmp_path):
    """The integrator takes no input besides the scenario, so a repeat run
    must reproduce the trace file byte for byte."""
    sc, trace, _ = ex2
    again = run_scenario(dataclasses.replace(sc))
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    write_trace_csv(trace, first)
    write_trace_csv(again, second)
    same = first.read_bytes() == second.read_bytes()
    print(f"trace files identical: {same} ({first.stat().st_size} bytes)")
    assert same
