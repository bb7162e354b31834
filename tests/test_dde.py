"""History buffers and the fixed-step delay integrator."""

import numpy as np
import pytest

from delaysync.dde import DdeState, HistoryBuffer, rk4_ode_step, run, step_rk4
from delaysync.errors import FutureQuery, NonFiniteState, StaleQuery, ValidationError


def delayed_decay(h, t_end):
    """dx/dt = -x(t - 1) with x == 1 for t <= 0.

    The solution is polynomial on unit intervals: 1 - t on [0, 1], then
    x(2) = -1/2 and x(3) = -1/6.
    """
    buf = HistoryBuffer(h, 0.0, np.array([1.0]), 1.0)
    state = DdeState(
        state=np.array([1.0]),
        histories={"x": buf},
        recorders=(("x", lambda t, y: y),),
        step=h,
    )
    deriv = lambda t, y, hist: -hist["x"].sample(t - 1.0)
    return run(deriv, state, t_end).state[0]


# ------------------------------------------------------------ HistoryBuffer


def test_buffer_interpolates_midpoint():
    buf = HistoryBuffer(0.1, 0.0, np.array([0.0]), 0.2)
    buf.append(np.array([2.0]))
    assert buf.sample(0.05)[0] == 1.0


def test_buffer_interpolates_quadratic_samples():
    buf = HistoryBuffer(0.01, 0.0, np.array([0.0]), 0.05)
    for k in range(1, 4):
        t = k * 0.01
        buf.append(np.array([t * t]))
    # between 0.0001 and 0.0004, halfway
    assert abs(buf.sample(0.015)[0] - 0.00025) < 1e-18


def test_buffer_constant_before_start():
    buf = HistoryBuffer(0.1, 5.0, np.array([2.0, -1.0]), 0.3)
    assert np.array_equal(buf.sample(4.0), [2.0, -1.0])
    assert np.array_equal(buf.sample(-100.0), [2.0, -1.0])


def test_buffer_start_sample_is_seeded():
    buf = HistoryBuffer(0.1, 5.0, np.array([2.0]), 0.3)
    assert buf.sample(5.0)[0] == 2.0
    assert buf.latest_time == 5.0


def test_buffer_grid_queries_return_stored_values():
    buf = HistoryBuffer(0.1, 0.0, np.array([1.0]), 0.2)
    buf.append(np.array([3.0]))
    # on-grid within tolerance, no interpolation contamination
    assert buf.sample(0.1 + 1e-11)[0] == 3.0
    assert buf.sample(0.1 - 1e-11)[0] == 3.0


def test_buffer_samples_are_copies():
    buf = HistoryBuffer(0.1, 0.0, np.array([1.0]), 0.2)
    out = buf.sample(0.0)
    out[0] = 99.0
    assert buf.sample(0.0)[0] == 1.0


def test_buffer_future_query_raises():
    buf = HistoryBuffer(0.1, 0.0, np.array([1.0]), 0.2)
    with pytest.raises(FutureQuery):
        buf.sample(0.05)


def test_buffer_stale_query_raises():
    # max_delay 0.2 at period 0.1 retains 4 samples; after many appends the
    # early grid points have been overwritten
    buf = HistoryBuffer(0.1, 0.0, np.array([0.0]), 0.2)
    for k in range(1, 11):
        buf.append(np.array([float(k)]))
    assert buf.sample(1.0)[0] == 10.0
    assert buf.sample(0.8)[0] == 8.0
    with pytest.raises(StaleQuery):
        buf.sample(0.3)


def test_buffer_validation():
    with pytest.raises(ValidationError):
        HistoryBuffer(0.0, 0.0, np.array([1.0]), 0.1)
    with pytest.raises(ValidationError):
        HistoryBuffer(0.1, 0.0, np.array([1.0]), -1.0)
    with pytest.raises(ValidationError):
        HistoryBuffer(0.1, 0.0, np.array([1.0]), 0.15)  # not a multiple
    with pytest.raises(ValidationError):
        HistoryBuffer(0.1, 0.0, np.array([[1.0]]), 0.1)  # not a vector
    buf = HistoryBuffer(0.1, 0.0, np.array([1.0, 2.0]), 0.1)
    with pytest.raises(ValidationError):
        buf.append(np.array([1.0]))


# -------------------------------------------------------------- integration


def test_rk4_matches_exponential():
    y = np.array([1.0])
    f = lambda t, yy: -yy
    for k in range(100):
        y = rk4_ode_step(f, k * 0.01, y, 0.01)
    assert abs(y[0] - np.exp(-1.0)) < 1e-10


def test_ode_step_and_dde_step_agree_bitwise():
    """A history-free system stepped through both entry points must give
    identical floats, not merely close ones."""
    f_ode = lambda t, y: np.array([np.sin(t) - 0.5 * y[0]])
    f_dde = lambda t, y, hist: f_ode(t, y)
    state = DdeState(state=np.array([0.3]), histories={}, recorders=(), step=0.02)
    y = np.array([0.3])
    for _ in range(50):
        y = rk4_ode_step(f_ode, state.time, y, state.step)
        state = step_rk4(f_dde, state)
        assert np.array_equal(state.state, y)


def test_delayed_decay_hits_polynomial_values():
    # integrand is polynomial through t = 2 and the interpolant is exact on
    # linear data, so these come back at roundoff level
    assert abs(delayed_decay(0.01, 1.0)) < 1e-12
    assert abs(delayed_decay(0.01, 2.0) + 0.5) < 1e-12


def test_delayed_decay_is_second_order_past_quadratic_history():
    """From t = 2 on, the history being interpolated is curved, so the
    interpolation error dominates at second order; halving the step must
    shrink the t = 3 error by about four."""
    coarse = abs(delayed_decay(0.02, 3.0) + 1.0 / 6.0)
    fine = abs(delayed_decay(0.01, 3.0) + 1.0 / 6.0)
    assert coarse < 1e-4
    assert fine <= coarse / 3.5


def test_step_rejects_non_finite_states():
    state = DdeState(state=np.array([1.0]), histories={}, recorders=(), step=0.1)
    blow_up = lambda t, y, hist: np.array([np.inf])
    with pytest.raises(NonFiniteState):
        step_rk4(blow_up, state)


def test_recorders_append_after_each_step():
    buf = HistoryBuffer(0.1, 0.0, np.array([1.0]), 0.5)
    state = DdeState(
        state=np.array([1.0]),
        histories={"y": buf},
        recorders=(("y", lambda t, y: 2.0 * y),),
        step=0.1,
    )
    state = step_rk4(lambda t, y, hist: np.zeros(1), state)
    assert buf.latest_index == 1
    assert buf.sample(0.1)[0] == 2.0


def test_run_time_grid_is_exact():
    state = DdeState(state=np.array([0.0]), histories={}, recorders=(), step=0.1)
    seen = []
    final = run(lambda t, y, hist: np.zeros(1), state, 0.5, observer=lambda s: seen.append(s.time))
    assert final.index == 5
    assert final.time == 0.5  # origin + index * step, no accumulation drift
    assert seen == [pytest.approx(0.1 * k, abs=0) for k in range(1, 6)]


def test_run_with_past_end_time_does_nothing():
    state = DdeState(state=np.array([4.0]), histories={}, recorders=(), step=0.1)
    final = run(lambda t, y, hist: np.ones(1), state, 0.0)
    assert final.index == 0
    assert final.state[0] == 4.0


def test_run_overshoots_off_grid_end_time():
    state = DdeState(state=np.array([0.0]), histories={}, recorders=(), step=0.1)
    final = run(lambda t, y, hist: np.zeros(1), state, 0.51)
    assert final.index == 6
