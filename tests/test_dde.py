"""History buffers and the fixed-step delay integrator."""

import numpy as np
import pytest

from delaysync.dde import DdeState, HistoryBuffer, run, step_rk4
from delaysync.errors import ExpiredQuery, FutureQuery, NonFiniteState, ValidationError


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


def test_buffer_keeps_max_delay_of_samples():
    """A buffer keeps max_delay / sample_period + 1 samples; a query that
    needs an older one raises, while the pre-history stays served."""
    buf = HistoryBuffer(0.1, 0.0, np.array([0.0]), 0.2)
    for k in range(1, 6):
        buf.append(np.array([float(k)]))
    assert buf.sample(0.3)[0] == 3.0  # the oldest kept sample
    assert buf.sample(0.35)[0] == pytest.approx(3.5, abs=1e-12)
    assert buf.sample(-1.0)[0] == 0.0
    for t in (0.0, 0.2, 0.25):
        with pytest.raises(ExpiredQuery):
            buf.sample(t)


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
    f = lambda t, yy, s: -yy
    for k in range(100):
        y = step_rk4(f, k * 0.01, y, 0.01, (None,) * 4)
    assert abs(y[0] - np.exp(-1.0)) < 1e-10


def test_step_passes_each_stage_its_argument():
    """Each stage gets its own entry of ``stages``, at the step's start,
    midpoint (twice) and end, in that order."""
    seen = []

    def f(t, y, s):
        seen.append((t, s))
        return -y

    t, h = 0.3, 0.1
    step_rk4(f, t, np.array([1.0]), h, ("a", "b", "c", "d"))
    assert seen == [(t, "a"), (t + h / 2, "b"), (t + h / 2, "c"), (t + h, "d")]


def test_ode_step_and_dde_step_agree_bitwise():
    """A history-free system stepped by ``run`` and by repeated
    ``step_rk4`` calls must give identical floats, not merely close ones."""
    f = lambda t, y, s: np.array([np.sin(t) - 0.5 * y[0]])
    buf = HistoryBuffer(0.02, 0.0, np.array([0.3]), 1.0)  # keeps every sample read below
    state = DdeState(
        state=np.array([0.3]), histories={"y": buf}, recorders=(("y", lambda t, y: y),), step=0.02
    )
    final = run(f, state, 1.0)
    assert final.index == 50
    y = np.array([0.3])
    for k in range(50):
        y = step_rk4(f, k * 0.02, y, 0.02, (None,) * 4)
        assert np.array_equal(buf.sample((k + 1) * 0.02), y)
    assert np.array_equal(final.state, y)


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
        run(blow_up, state, 0.1)


def test_recorders_append_after_each_step():
    buf = HistoryBuffer(0.1, 0.0, np.array([1.0]), 0.5)
    state = DdeState(
        state=np.array([1.0]),
        histories={"y": buf},
        recorders=(("y", lambda t, y: 2.0 * y),),
        step=0.1,
    )
    state = run(lambda t, y, hist: np.zeros(1), state, 0.1)
    assert buf.latest_index == 1
    assert buf.sample(0.1)[0] == 2.0


def test_run_time_grid_is_exact():
    buf = HistoryBuffer(0.1, 0.0, np.array([0.0]), 0.5)  # keeps every sample read below
    state = DdeState(
        state=np.array([0.0]), histories={"t": buf}, recorders=(("t", lambda t, y: [t]),), step=0.1
    )
    final = run(lambda t, y, hist: np.zeros(1), state, 0.5)
    assert final.index == 5
    assert final.time == 0.5  # index * step, no accumulation drift
    seen = [buf.sample(0.1 * k)[0] for k in range(1, 6)]
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
