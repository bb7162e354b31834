"""The input channel acts five seconds late, so the controller steers
toward where the leader will be, not where it is.  Every reference value
the forecast needs is already in the past, which makes the prediction
exact up to integration error.  Here the leader is stepped ahead from a
handful of times by its own RK4 step matrix, the one a run builds its
leader table with, and the forecast is checked against the leader state
actually reached later in the same run.
"""

import numpy as np

from delaysync import run_scenario
from delaysync.cli import load_scenario

sc = load_scenario("example1")
trace = run_scenario(sc)

h = sc.step
d_u = round(sc.tau_u / h)
d_x = round(sc.tau_x / h)
step, _ = sc.leader.rk4_matrices(h)
# a square wave is sampled at the step's start and held through its four
# stages, a smooth reference is read at the stage times
offsets = (0.0,) * 4 if sc.reference.piecewise_constant else (0.0, 0.5, 0.5, 1.0)


def forecast(x_m, t):
    """[x_m(t + tau_u); x_m(t + tau_u - tau_x); r(t)], stepping the leader
    d_u steps on the reference read tau_u back."""
    path = [x_m]
    for j in range(d_u):
        s = t + j * h - sc.tau_u
        r_in = [np.full(sc.input_dim, sc.reference(s + c * h)) for c in offsets]
        path.append(step @ np.concatenate([path[-1], *r_in]))
    return np.concatenate([path[d_u], path[d_u - d_x], [sc.reference(t)]])


print("forecast horizon %.0f s, lag read %.0f s behind it" % (sc.tau_u, sc.tau_x))
print("time     |forecast - realized|")
worst = 0.0
for k in range(0, trace.num_rows - d_u, 2500):
    t = trace.times[k]
    realized = np.concatenate([trace.x_m[k + d_u], trace.x_m[k + d_u - d_x], [sc.reference(t)]])
    err = np.max(np.abs(forecast(trace.x_m[k], t) - realized))
    worst = max(worst, err)
    print("t=%6.1f  %.3e" % (t, err))
print("worst over the probes: %.3e" % worst)
