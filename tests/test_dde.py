"""The RK4 step and the delayed reads a run makes through it."""

import tracemalloc

import numpy as np

from delaysync.dde import step_rk4
from test_acceptance import delayed_decay


def test_rk4_matches_exponential():
    work = np.empty((6, 1))
    work[0] = 1.0
    f = lambda t, z, out, s: np.negative(z, out=out)
    for k in range(100):
        step_rk4(f, k * 0.01, 0.01, work, (None,) * 4)
    assert abs(work[0, 0] - np.exp(-1.0)) < 1e-10


def test_step_passes_each_stage_its_argument():
    """Each stage gets its own entry of ``stages``, at the step's start,
    midpoint (twice) and end, in that order, and the rows of ``work`` the
    buffered contract names: row 0 and row 1 at the first stage, then the
    stage state in row 5 and slope row 1 + j."""
    seen = []
    work = np.empty((6, 1))
    work[0] = 1.0

    def row(v):
        return (v.ctypes.data - work.ctypes.data) // work.strides[0]

    def f(t, z, out, s):
        seen.append((t, s, row(z), row(out)))
        np.negative(z, out=out)

    t, h = 0.3, 0.1
    step_rk4(f, t, h, work, ("a", "b", "c", "d"))
    assert seen == [(t, "a", 0, 1), (t + h / 2, "b", 5, 2), (t + h / 2, "c", 5, 3),
                    (t + h, "d", 5, 4)]


def test_step_matches_the_classical_combination():
    """On a nonlinear system the step leaves ``y + h/6 (k1 + 2 k2 + 2 k3 +
    k4)`` in row 0, to 1e-15 relative, with the slopes taken at the
    classical stage states, and the slopes in rows 1 to 4."""
    rng = np.random.default_rng(4)
    a = rng.normal(size=(7, 7))
    g = lambda t, y: np.sin(a @ y) + t * y
    y = rng.normal(size=7)
    t, h = 0.4, 0.05
    k1 = g(t, y)
    k2 = g(t + h / 2, y + h / 2 * k1)
    k3 = g(t + h / 2, y + h / 2 * k2)
    k4 = g(t + h, y + h * k3)
    want = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    work = np.empty((6, 7))
    work[0] = y
    step_rk4(lambda tt, z, out, s: np.copyto(out, g(tt, z)), t, h, work, (None,) * 4)
    assert np.max(np.abs(work[0] - want)) <= 1e-15 * np.max(np.abs(want))
    for got, slope in zip(work[1:5], (k1, k2, k3, k4)):
        assert np.max(np.abs(got - slope)) <= 1e-15 * np.max(np.abs(slope))


def test_step_allocates_nothing():
    """100 steps of a 10 000-value linear system, whose right-hand side
    writes in place, raise the tracemalloc peak by under 1 KiB: the stage
    states and the update are formed in the caller's rows."""
    size = 10_000
    decay = -np.linspace(0.5, 2.0, size)
    work = np.empty((6, size))
    work[0] = 1.0
    f = lambda t, z, out, s: np.multiply(decay, z, out=out)
    step_rk4(f, 0.0, 0.01, work, (None,) * 4)  # first-call costs out of the measurement
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for k in range(100):
            step_rk4(f, k * 0.01, 0.01, work, (None,) * 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - base < 1024
    assert np.max(np.abs(work[0] - np.exp(decay * 1.01))) < 1e-9


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
