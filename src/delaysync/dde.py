"""Fixed-step RK4 integration of delay differential systems.

State histories live on a uniform time grid in ring buffers and are read
back with linear interpolation; before the start time a buffer reports a
constant pre-history.  The step size must divide every delay exactly, so
all delayed stage queries land at or before the newest stored sample and
the method never extrapolates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import FutureQuery, NonFiniteState, StaleQuery, ValidationError

# Queries within this fraction of a step of a grid point return the stored
# sample; queries further past the newest sample than this raise.
GRID_TOL = 1e-9


class HistoryBuffer:
    """Uniform-grid ring buffer of vector samples with linear interpolation.

    Parameters
    ----------
    sample_period : float
        Grid spacing; sample ``k`` sits at ``start_time + k * sample_period``.
    start_time : float
        Time of the first sample.  Queries earlier than this return the
        constant ``pre_history``.
    pre_history : (dim,) array
        Value reported for all times before ``start_time``.
    max_delay : float
        Largest lookback the buffer must serve; must be an integer multiple
        of ``sample_period`` (within 1e-9 relative).  The ring retains
        ``ceil(max_delay / sample_period) + 2`` samples.
    """

    def __init__(self, sample_period: float, start_time: float, pre_history, max_delay: float):
        if not sample_period > 0.0:
            raise ValidationError(f"sample_period must be positive, got {sample_period}")
        if max_delay < 0.0:
            raise ValidationError(f"max_delay must be nonnegative, got {max_delay}")
        steps = max_delay / sample_period
        if abs(steps - round(steps)) > GRID_TOL:
            raise ValidationError(
                f"sample_period {sample_period} does not divide delay {max_delay} "
                f"(ratio {steps} is not an integer within {GRID_TOL})"
            )
        self.sample_period = float(sample_period)
        self.start_time = float(start_time)
        self.pre_history = np.array(pre_history, dtype=float)
        if self.pre_history.ndim != 1:
            raise ValidationError("pre_history must be a 1-d vector")
        self.dim = self.pre_history.shape[0]
        self.capacity = int(round(steps)) + 2
        self._ring = np.empty((self.capacity, self.dim))
        self._count = 0
        # The constant pre-history doubles as the sample at start_time, so
        # queries exactly on the start grid point are answerable immediately.
        self.append(self.pre_history)

    @property
    def latest_index(self) -> int:
        return self._count - 1

    @property
    def latest_time(self) -> float:
        return self.start_time + self.latest_index * self.sample_period

    def append(self, value) -> None:
        """Store the sample for grid index ``count`` (time advances one period)."""
        value = np.asarray(value, dtype=float)
        if value.shape != (self.dim,):
            raise ValidationError(f"sample shape {value.shape}, expected {(self.dim,)}")
        self._ring[self._count % self.capacity] = value
        self._count += 1

    def _stored(self, k: int) -> np.ndarray:
        if k > self.latest_index:
            raise FutureQuery(
                f"grid index {k} past newest stored index {self.latest_index}"
            )
        if k < self._count - self.capacity:
            raise StaleQuery(
                f"grid index {k} older than retained window (oldest {self._count - self.capacity})"
            )
        return self._ring[k % self.capacity]

    def sample(self, t: float) -> np.ndarray:
        """Value at time ``t``: stored sample on-grid, linear interpolation off-grid."""
        k_float = (t - self.start_time) / self.sample_period
        if k_float < -GRID_TOL:
            return self.pre_history.copy()
        k_round = round(k_float)
        if abs(k_float - k_round) <= GRID_TOL:
            return self._stored(k_round).copy()
        if k_float - self.latest_index > GRID_TOL:
            raise FutureQuery(
                f"query at t={t!r} exceeds newest sample t={self.latest_time!r}"
            )
        j = math.floor(k_float)
        w = k_float - j
        lo = self._stored(j)
        hi = self._stored(j + 1)
        return (1.0 - w) * lo + w * hi


# A recorder maps (time, state) to the vector appended to its named history
# after every accepted step.
Recorder = tuple[str, Callable[[float, np.ndarray], np.ndarray]]
Derivative = Callable[[float, np.ndarray, dict], np.ndarray]


@dataclass
class DdeState:
    """Integration state: current time, state vector, and named histories.

    ``recorders`` are (name, extractor) pairs evaluated after each step to
    append that step's sample to the named history; seed each history with
    its value at the start time before integrating.  Time is tracked as
    ``origin + index * step`` so grids stay exact over long runs.
    """

    state: np.ndarray
    histories: dict[str, HistoryBuffer]
    recorders: tuple[Recorder, ...]
    step: float
    origin: float = 0.0
    index: int = 0

    @property
    def time(self) -> float:
        return self.origin + self.index * self.step


def step_rk4(derivative: Derivative, s: DdeState) -> DdeState:
    """Advance one classical RK4 step of size ``s.step``.

    The derivative is evaluated at the usual four stages; delayed values are
    read through ``s.histories``, which hold samples up to the step's start
    time (delays of at least one step keep every stage query in the past).
    After the step each recorder's sample at the new time is appended.
    """
    h = s.step
    t = s.time
    y = s.state
    hist = s.histories
    k1 = derivative(t, y, hist)
    k2 = derivative(t + 0.5 * h, y + (0.5 * h) * k1, hist)
    k3 = derivative(t + 0.5 * h, y + (0.5 * h) * k2, hist)
    k4 = derivative(t + h, y + h * k3, hist)
    y_new = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    if not np.isfinite(y_new).all():
        raise NonFiniteState(f"non-finite state after step to t={t + h!r}")

    out = DdeState(y_new, hist, s.recorders, h, s.origin, s.index + 1)
    t_new = out.time
    for name, extract in s.recorders:
        hist[name].append(extract(t_new, y_new))
    return out


def rk4_ode_step(
    f: Callable[[float, np.ndarray], np.ndarray], t: float, y: np.ndarray, h: float
) -> np.ndarray:
    """One classical RK4 step for a plain ODE (no history reads).

    The stage and combination arithmetic is kept textually identical to
    :func:`step_rk4` so that re-integrating a self-contained subsystem of a
    larger run reproduces that slice of the trajectory bit for bit.
    """
    k1 = f(t, y)
    k2 = f(t + 0.5 * h, y + (0.5 * h) * k1)
    k3 = f(t + 0.5 * h, y + (0.5 * h) * k2)
    k4 = f(t + h, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def run(
    derivative: Derivative,
    initial: DdeState,
    t_end: float,
    observer: Callable[[DdeState], None] | None = None,
) -> DdeState:
    """Step from ``initial`` until the state time reaches ``t_end - 1e-9``.

    The observer, when given, runs after every accepted step.  A ``t_end``
    at or before the initial time performs no steps.  When ``t_end`` is not
    a multiple of the step past the origin, the last step overshoots it.
    """
    if t_end < initial.time - GRID_TOL:
        raise ValidationError(f"t_end {t_end} precedes initial time {initial.time}")
    s = initial
    while s.time < t_end - GRID_TOL:
        s = step_rk4(derivative, s)
        if observer is not None:
            observer(s)
    return s
