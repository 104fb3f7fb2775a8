"""Footfall detection on accelerometer magnitude with adaptive jerk/pace thresholds.

A step candidate is a local peak paired with the next local valley (a peak of
the negated signal) on the smoothed magnitude signal, each of prominence at
least ``min_prominence``. A peak is the middle sample, rounded down, of a run of
equal samples higher than the runs on either side and touching no edge, and its
prominence is its height over the higher of the lowest samples on each side up
to the first higher or NaN sample or the edge, as in SciPy's ``find_peaks``.
Candidates are accepted when both the jerk (peak-to-valley magnitude drop) and
the pace (time since the previous accepted step's peak) clear the current
thresholds. Accepted (jerk, pace) pairs feed a bounded FIFO buffer, and each
threshold tracks ``update_ratio * mean(buffer)`` clamped to its configured floor
(and ceiling, for pace), so the detector adapts to the signal energy of the
current carrier/placement.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import reduce
from operator import add

import numpy as np

from .logio import SensorStream


@dataclass(frozen=True)
class StepConfig:
    """Detector defaults; every field but ``min_prominence`` has a ``step.*`` config key."""

    jerk_init: float = 1.0      # m/s^2
    jerk_floor: float = 0.6     # m/s^2
    pace_init: float = 0.25     # s
    pace_floor: float = 0.2     # s
    pace_ceiling: float = 2.0   # s
    buffer_capacity: int = 10
    update_ratio: float = 0.5
    smooth_window: int = 5      # samples
    min_prominence: float = 0.2  # m/s^2, suppresses quantization chatter


@dataclass
class AdaptiveThresholds:
    """Mutable detector state: current thresholds plus the (jerk, pace) buffer."""

    cfg: StepConfig
    jerk_threshold: float
    pace_threshold: float
    buffer: deque  # bounded by cfg.buffer_capacity

    @classmethod
    def from_config(cls, cfg: StepConfig) -> "AdaptiveThresholds":
        return cls(cfg, cfg.jerk_init, cfg.pace_init, deque(maxlen=cfg.buffer_capacity))

    def accept(self, jerk: float, pace: float) -> None:
        """Push an accepted step's stats and re-derive both thresholds."""
        cfg = self.cfg
        self.buffer.append((jerk, pace))
        jerks = [j for j, _ in self.buffer]
        paces = [p for _, p in self.buffer]
        # added left to right from 0.0: the built-in sum() of floats is compensated since Python 3.12
        self.jerk_threshold = max(cfg.jerk_floor, cfg.update_ratio * reduce(add, jerks, 0.0) / len(jerks))
        self.pace_threshold = min(
            cfg.pace_ceiling,
            max(cfg.pace_floor, cfg.update_ratio * reduce(add, paces, 0.0) / len(paces)),
        )


@dataclass
class StrideFeatures:
    stride_duration: float   # s
    accel_variance: float    # (m/s^2)^2
    accel_peak: float        # m/s^2
    accel_rms: float         # m/s^2

    def as_vector(self) -> np.ndarray:
        return np.array(
            [self.stride_duration, self.accel_variance, self.accel_peak, self.accel_rms]
        )


@dataclass
class Step:
    """One detected footfall. stride/heading/features are filled downstream."""

    peak_index: int
    valley_index: int
    peak_time: float
    valley_time: float
    jerk: float
    pace: float
    features: StrideFeatures | None = None
    stride_m: float | None = None
    heading_rad: float | None = None


def fixed_dot(x, w):
    """``x[0]*w[0] + x[1]*w[1] + ...``, added left to right: of Python floats,
    or of columns (an (n, d) array passed as ``rows.T``), so a column and its
    per-row value have the same bits. Outputs take no dot product from BLAS,
    whose rounding depends on the kernel it picks for the CPU."""
    total = x[0] * w[0]
    for xj, wj in zip(x[1:], w[1:]):
        total = total + xj * wj
    return total


def window_rows(starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """The row indices of every window ``[starts[i], stops[i])`` back to back,
    each window ``stops[i] - starts[i] >= 0`` rows long."""
    lengths = np.asarray(stops) - starts
    offsets = np.cumsum(lengths) - lengths
    return np.repeat(starts - offsets, lengths) + np.arange(lengths.sum())


def moving_average(values: np.ndarray, window: int) -> np.ndarray:
    """Centered moving average with shrinking edge windows (constant-preserving).

    Averages along axis 0, so an ``(n, 3)`` input smooths each column.
    """
    values = np.asarray(values, dtype=float)
    if window <= 1:
        return values.copy()
    n = len(values)
    half = window // 2
    csum = np.concatenate([np.zeros((1,) + values.shape[1:]), np.cumsum(values, axis=0)])
    lo = np.maximum(np.arange(n) - half, 0)
    hi = np.minimum(np.arange(n) + half + 1, n)
    counts = (hi - lo).reshape((n,) + (1,) * (values.ndim - 1))
    return (csum[hi] - csum[lo]) / counts


def magnitude_series(
    accel: SensorStream, smooth_window: int = 5
) -> tuple[np.ndarray, np.ndarray]:
    """Euclidean norm of each accel sample, low-pass smoothed by moving average.

    Returns (times, magnitudes), same length and order as the input stream.
    """
    if not accel:
        raise ValueError("accel stream is empty")
    mags = np.linalg.norm(accel.values, axis=1)
    return accel.app_timestamp, moving_average(mags, smooth_window)


def _prominent_peaks(x: np.ndarray, min_prominence: float) -> np.ndarray:
    """SciPy's ``find_peaks(x, prominence=min_prominence)[0]``, bit for bit.

    Both scans run leftwards, in ``x`` and in its reverse, each led by NaN so
    that an edge stops a scan as NaN does. Peaks and NaN cut the samples into
    segments that fall and then rise to their end, so a scan's lowest sample is
    the lowest of the segments after the nearest higher peak or NaN."""
    starts = np.flatnonzero(x[1:] != x[:-1]) + 1  # of the runs of equal samples but the first; NaN != NaN
    s, e = starts[:-1], starts[1:]  # the runs x[s:e] touching no edge
    top = (x[s] > x[s - 1]) & (x[s] > x[e])
    peaks = (s[top] + e[top] - 1) // 2
    y = np.concatenate(([np.nan], x, [np.nan], x[::-1]))
    at = np.concatenate((peaks + 1, 2 * len(x) + 1 - peaks))
    ends = np.sort(np.concatenate((at, np.flatnonzero(np.isnan(y)))))
    hi = [y[ends]]
    lo = [np.minimum.reduceat(y[: ends[-1] + 1], np.concatenate(([0], ends[:-1] + 1)))]
    while 2 ** len(hi) <= len(ends):  # level k: max / min over 2**k segments in a row
        h = 2 ** (len(hi) - 1)
        hi.append(np.maximum(hi[-1][:-h], hi[-1][h:]))
        lo.append(np.minimum(lo[-1][:-h], lo[-1][h:]))
    v = y[at]
    first = np.searchsorted(ends, at)  # the peak's own segment
    low = lo[0][first]
    for k in reversed(range(len(hi))):
        b = np.maximum(first - 2**k, 0)  # a block from 0 ends at the leading NaN and fails
        passed = hi[k][b] <= v
        low = np.where(passed, np.minimum(low, lo[k][b]), low)
        first = np.where(passed, b, first)
    return peaks[x[peaks] - np.maximum(low[: len(peaks)], low[len(peaks) :]) >= min_prominence]


def detect_steps(
    times: np.ndarray,
    magnitudes: np.ndarray,
    cfg: StepConfig = StepConfig(),
) -> list[Step]:
    """Detect steps on a smoothed (time, magnitude) series.

    Peak/valley candidates come from local extrema with a minimum prominence of
    ``cfg.min_prominence``; acceptance and threshold adaptation follow the
    jerk/pace buffer scheme described in the module docstring. Deterministic:
    identical input and config give identical output.
    """
    times = np.asarray(times, dtype=float)
    magnitudes = np.asarray(magnitudes, dtype=float)
    if len(times) == 0:
        return []
    state = AdaptiveThresholds.from_config(cfg)

    peaks = _prominent_peaks(magnitudes, cfg.min_prominence)
    valleys = _prominent_peaks(-magnitudes, cfg.min_prominence)

    steps: list[Step] = []
    last_valley = -1
    last_peak_time: float | None = None
    for p, vi in zip(peaks, np.searchsorted(valleys, peaks, side="right")):
        if p <= last_valley:
            continue  # keeps accepted steps non-overlapping
        if vi >= len(valleys):
            break
        v = valleys[vi]
        jerk = magnitudes[p] - magnitudes[v]
        if last_peak_time is None:
            pace = times[v] - times[p]
        else:
            pace = times[p] - last_peak_time
        if jerk <= 0 or pace <= 0:
            continue
        if jerk >= state.jerk_threshold and pace >= state.pace_threshold:
            steps.append(
                Step(
                    peak_index=int(p),
                    valley_index=int(v),
                    peak_time=float(times[p]),
                    valley_time=float(times[v]),
                    jerk=float(jerk),
                    pace=float(pace),
                )
            )
            state.accept(float(jerk), float(pace))
            last_valley = v
            last_peak_time = times[p]
    return steps
