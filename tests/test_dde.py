"""The RK4 step and the delayed reads a run makes through it."""

import numpy as np

from delaysync.dde import step_rk4
from test_acceptance import delayed_decay


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


def test_delayed_decay_hits_polynomial_values():
    # integrand is polynomial through t = 2 and the midpoint read is exact
    # on linear data, so these come back at roundoff level
    assert abs(delayed_decay(0.01, 1.0)) < 1e-12
    assert abs(delayed_decay(0.01, 2.0) + 0.5) < 1e-12


def test_delayed_decay_is_second_order_past_quadratic_history():
    """From t = 2 on, the history being read is curved, so the midpoint
    read's interpolation error dominates at second order; halving the step
    must shrink the t = 3 error by about four."""
    coarse = abs(delayed_decay(0.02, 3.0) + 1.0 / 6.0)
    fine = abs(delayed_decay(0.01, 3.0) + 1.0 / 6.0)
    assert coarse < 1e-4
    assert fine <= coarse / 3.5
