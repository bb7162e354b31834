"""Fixed-step RK4 integration of delay differential systems.

``step_rk4`` is the one RK4 step; it hands each stage its entry of
``stages``, so a right-hand side receives its delayed operands as an
argument.  A scenario run calls it once per step, and the delays are whole
multiples of the step, so every delayed value is a row of the states
already stored (``lagged``, ``delayed``), whole or in a delay line that
keeps the last of them, one row per step of the delay and one more.
``HistoryBuffer`` is the float-time reference for those reads, linear
interpolation on a uniform grid with a constant pre-history, which keeps
the samples its largest delay reaches back to; it serves ``run`` and the
delay integrator oracle (acceptance test_08).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ExpiredQuery, FutureQuery, NonFiniteState, ValidationError

# Queries within this fraction of a step of a grid point return the stored
# sample; queries further past the newest sample than this raise.
GRID_TOL = 1e-9


class HistoryBuffer:
    """Uniform-grid history of vector samples with linear interpolation.

    Sample ``k`` sits at ``start_time + k * sample_period``; queries before
    ``start_time`` return the constant ``pre_history`` (dim,), which is also
    the first sample.  ``max_delay``, the largest lookback served, must be
    an integer multiple of ``sample_period`` (within 1e-9 relative), and
    sizes the buffer: it keeps the newest ``max_delay / sample_period + 1``
    samples, and a query after ``start_time`` that needs an older one
    raises ExpiredQuery.
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
        self._samples: deque[np.ndarray] = deque(maxlen=round(steps) + 1)
        self._appended = 0
        self.append(self.pre_history)

    @property
    def latest_index(self) -> int:
        return self._appended - 1

    @property
    def latest_time(self) -> float:
        return self.start_time + self.latest_index * self.sample_period

    def append(self, value) -> None:
        """Store the sample for the next grid index (time advances one period)."""
        value = np.array(value, dtype=float)
        if value.shape != (self.dim,):
            raise ValidationError(f"sample shape {value.shape}, expected {(self.dim,)}")
        self._samples.append(value)
        self._appended += 1

    def sample(self, t: float) -> np.ndarray:
        """Value at time ``t``: stored sample on-grid, linear interpolation off-grid."""
        k_float = (t - self.start_time) / self.sample_period
        if k_float < -GRID_TOL:
            return self.pre_history.copy()
        if k_float - self.latest_index > GRID_TOL:
            raise FutureQuery(f"query at t={t!r} exceeds newest sample t={self.latest_time!r}")
        k_round = round(k_float)
        on_grid = abs(k_float - k_round) <= GRID_TOL
        j = k_round if on_grid else math.floor(k_float)
        oldest = self._appended - len(self._samples)
        if j < oldest:
            raise ExpiredQuery(
                f"query at t={t!r} precedes the oldest kept sample "
                f"t={self.start_time + oldest * self.sample_period!r} "
                f"({self._samples.maxlen} kept)"
            )
        if on_grid:
            return self._samples[j - oldest].copy()
        w = k_float - j
        return (1.0 - w) * self._samples[j - oldest] + w * self._samples[j + 1 - oldest]


def lagged(rows: np.ndarray, start: int, stop: int, lag: int) -> np.ndarray:
    """``rows[k - lag]`` for k in [start, stop), gathered; row 0 is the
    constant pre-history, so it stands in for every k below ``lag``.

    ``rows`` may be a delay line, which keeps run row j at slot
    j mod ``len(rows)``: it reads the run's rows as long as it holds every
    row from ``lag`` before ``start`` on, and slot 0 the pre-history while
    any k is below ``lag``.  A whole history is the line no index wraps."""
    return rows.take(np.maximum(np.arange(start, stop) - lag, 0) % len(rows), axis=0)


def delayed(rows: np.ndarray, start: int, stop: int, lag: int):
    """Values ``lag`` rows back at the start, midpoint and end of steps
    ``start`` to ``stop - 1``: rows ``k - lag`` and ``k - lag + 1`` and, at
    the RK4 midpoint, their mean, as :meth:`HistoryBuffer.sample` reads
    halfway between grid points."""
    lo = lagged(rows, start, stop, lag)
    hi = lagged(rows, start + 1, stop + 1, lag)
    return lo, 0.5 * (lo + hi), hi


def step_rk4(f: Callable, t: float, y: np.ndarray, h: float, stages: Sequence) -> np.ndarray:
    """One classical RK4 step of size ``h`` from ``y`` at time ``t``.

    ``f(t, y, s)`` is evaluated at the step's start, its midpoint twice and
    its end, and gets that stage's entry ``s`` of the four ``stages``.  A
    stage's result needs to stay valid only until this call returns, so
    ``f`` may write the four into buffers it reuses on the next step.
    """
    s1, s2, s3, s4 = stages
    k1 = f(t, y, s1)
    k2 = f(t + 0.5 * h, y + (0.5 * h) * k1, s2)
    k3 = f(t + 0.5 * h, y + (0.5 * h) * k2, s3)
    k4 = f(t + h, y + h * k3, s4)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


@dataclass
class DdeState:
    """Integration state for :func:`run`.

    ``recorders`` are (name, extractor) pairs: after each step
    ``extractor(time, state)`` is appended to the named history.  Time is
    tracked as ``index * step`` so grids stay exact over long runs.
    """

    state: np.ndarray
    histories: dict[str, HistoryBuffer]
    recorders: tuple[tuple[str, Callable[[float, np.ndarray], np.ndarray]], ...]
    step: float
    index: int = 0

    @property
    def time(self) -> float:
        return self.index * self.step


def run(derivative: Callable, initial: DdeState, t_end: float) -> DdeState:
    """Step from ``initial`` until the state time reaches ``t_end - 1e-9``;
    the last step overshoots an off-grid ``t_end``.

    Every stage calls ``derivative(t, y, histories)``.  After each step a
    NaN or Inf raises NonFiniteState, and the recorders append.
    """
    if t_end < initial.time - GRID_TOL:
        raise ValidationError(f"t_end {t_end} precedes initial time {initial.time}")
    s = initial
    hist = s.histories
    while s.time < t_end - GRID_TOL:
        y = step_rk4(derivative, s.time, s.state, s.step, (hist,) * 4)
        s = DdeState(y, hist, s.recorders, s.step, s.index + 1)
        if not np.isfinite(y).all():
            raise NonFiniteState(f"non-finite state after step to t={s.time!r}")
        for name, extract in s.recorders:
            hist[name].append(extract(s.time, y))
    return s
