"""Fixed-step integration against a lagged state.

The probe equation is dx/dt = -x(t - 1) with x = 1 on t <= 0.  Stepping
through it by hand: on [0, 1] the lag still reads the pre-history, so
x(t) = 1 - t; on [1, 2] the lag reads 1 - (t - 1) and integrating gives
x(2) = -1/2; one interval later x(3) = -1/6.  Over the first two
intervals the lagged reads are constant or linear, which the history
lookup reproduces exactly, so x(1) and x(2) come out at roundoff for any
grid-aligned step.  From t = 2 on the lag reads a curved segment through
a linear lookup and ordinary step-size error returns.
"""

import numpy as np

from delaysync import DdeState, HistoryBuffer, run


def lagged_decay(h, t_end):
    buf = HistoryBuffer(h, 0.0, np.array([1.0]), 1.0)
    state = DdeState(
        state=np.array([1.0]),
        histories={"x": buf},
        recorders=(("x", lambda t, y: y),),
        step=h,
    )
    return run(lambda t, y, hist: -hist["x"].sample(t - 1.0), state, t_end).state[0]


print("value at t=1 (exact 0):      % .3e" % lagged_decay(0.01, 1.0))
print("value at t=2 (exact -1/2):   % .17g" % lagged_decay(0.01, 2.0))
print("value at t=3 (exact -1/6):   % .17g" % lagged_decay(0.01, 3.0))

# past t=2 the solution is no longer captured exactly and the usual
# order-of-accuracy story returns; halving the step shrinks the error
print("\nerror at t=3 under step halving:")
for h in (0.02, 0.01, 0.005, 0.0025):
    err = abs(lagged_decay(h, 3.0) - (-1.0 / 6.0))
    print("  h=%.4f  error=%.3e" % (h, err))

# the history buffer itself: values land on a grid, queries off the grid
# interpolate linearly, queries before the start read the pre-history, and
# queries past the newest sample raise
buf = HistoryBuffer(0.1, 0.0, np.array([0.0]), 0.3)
for k in range(1, 4):
    buf.append(np.array([float(k)]))
print("\nstored 0,1,2,3 on a 0.1 grid; sample(0.25) =", buf.sample(0.25)[0])
