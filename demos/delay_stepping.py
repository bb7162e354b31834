"""Fixed-step integration against a lagged state.

The probe equation is dx/dt = -x(t - 1) with x = 1 on t <= 0.  Stepping
through it by hand: on [0, 1] the lag still reads the pre-history, so
x(t) = 1 - t; on [1, 2] the lag reads 1 - (t - 1) and integrating gives
x(2) = -1/2; one interval later x(3) = -1/6.  The lag is read the way a
scenario run reads its delays: as stored rows one delay back, with their
mean at the RK4 midpoint.  Over the first two intervals the lagged reads
are constant or linear, which that read reproduces exactly, so x(1) and
x(2) come out at roundoff for any grid-aligned step.  From t = 2 on the
lag reads a curved segment through a linear midpoint and ordinary
step-size error returns.
"""

import numpy as np

from delaysync.dde import delayed, step_rk4


def lagged_decay(h, t_end):
    lag, steps = round(1.0 / h), round(t_end / h)
    rows = np.ones((steps + 1, 1))  # row 0 is the pre-history
    work = np.empty((6, 1))  # the state, four slopes and the stage state
    work[0] = rows[0]
    for k in range(steps):
        lo, mid, hi = delayed(rows, k, k + 1, lag)
        step_rk4(lambda t, z, out, x_lag: np.negative(x_lag[0], out=out), k * h, h, work,
                 (lo, mid, mid, hi))
        rows[k + 1] = work[0]
    return rows[-1, 0]


print("value at t=1 (exact 0):      % .3e" % lagged_decay(0.01, 1.0))
print("value at t=2 (exact -1/2):   % .17g" % lagged_decay(0.01, 2.0))
print("value at t=3 (exact -1/6):   % .17g" % lagged_decay(0.01, 3.0))

# past t=2 the solution is no longer captured exactly and the usual
# order-of-accuracy story returns; halving the step shrinks the error
print("\nerror at t=3 under step halving:")
for h in (0.02, 0.01, 0.005, 0.0025):
    err = abs(lagged_decay(h, 3.0) - (-1.0 / 6.0))
    print("  h=%.4f  error=%.3e" % (h, err))
