import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import find_peaks

from streams import stream
from trackforge.stepdetect import (
    AdaptiveThresholds,
    Step,
    StepConfig,
    _prominent_peaks,
    detect_steps,
    magnitude_series,
    moving_average,
)


def sinusoid(freq=2.0, amp=3.0, dur=10.0, rate=100.0, base=9.81):
    t = np.arange(0, dur, 1.0 / rate)
    return t, base + amp * np.sin(2 * math.pi * freq * t)


def analytic_pair_count(freq, dur):
    # oracle: peaks of base + A*sin(2*pi*f*t) at t = (k + 0.25)/f, each followed
    # by a valley at (k + 0.75)/f; count pairs fully inside [0, dur)
    k = 0
    while (k + 0.75) / freq < dur:
        k += 1
    return k


class TestMagnitudeSeries:
    def test_axis_aligned(self):
        t, m = magnitude_series(stream([0.0], [(0.0, 0.0, 9.81)]))
        assert m[0] == pytest.approx(9.81)

    def test_345(self):
        _, m = magnitude_series(stream([0.0], [(3.0, 4.0, 0.0)]))
        assert m[0] == pytest.approx(5.0)

    @pytest.mark.parametrize("n", [1, 4, 50])
    def test_constant_in_constant_out(self, n):
        samples = stream(0.01 * np.arange(n), [(0.0, 0.0, 9.81)] * n)
        _, m = magnitude_series(samples)
        assert np.allclose(m, 9.81)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            magnitude_series(stream([]))


class TestMovingAverage:
    def test_window_one_is_identity(self):
        x = np.array([1.0, 5.0, 2.0])
        assert np.array_equal(moving_average(x, 1), x)

    def test_preserves_constants_at_edges(self):
        x = np.full(20, 7.5)
        assert np.array_equal(moving_average(x, 5), x)

    def test_smooths_spike(self):
        x = np.zeros(11)
        x[5] = 5.0
        sm = moving_average(x, 5)
        assert sm[5] == pytest.approx(1.0)

    @pytest.mark.parametrize("n,window", [(0, 5), (1, 5), (7, 3), (40, 1), (40, 5), (40, 51)])
    def test_columns_match_one_dimensional_bitwise(self, n, window):
        x = np.random.default_rng(n + window).normal(size=(n, 3))
        sm = moving_average(x, window)
        assert sm.shape == (n, 3)
        for c in range(3):
            assert np.array_equal(sm[:, c], moving_average(x[:, c], window))


class TestDetectSteps:
    def test_constant_signal_no_steps(self):
        t = np.arange(0, 10, 0.01)
        assert detect_steps(t, np.full_like(t, 9.81)) == []

    def test_sinusoid_count_matches_oracle(self):
        t, mag = sinusoid()
        expected = analytic_pair_count(2.0, 10.0)
        steps = detect_steps(t, moving_average(mag, 5))
        assert expected == 20
        assert abs(len(steps) - expected) <= 1

    def test_below_jerk_floor_detects_nothing(self):
        t, mag = sinusoid(amp=0.05)
        assert detect_steps(t, moving_average(mag, 5)) == []

    def test_steps_never_overlap(self):
        t, mag = sinusoid(freq=1.7, dur=20.0)
        steps = detect_steps(t, moving_average(mag, 5))
        for a, b in zip(steps, steps[1:]):
            assert a.valley_index < b.peak_index
            assert a.peak_time < b.peak_time

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        t, mag = sinusoid(dur=15.0)
        mag = mag + rng.normal(0, 0.4, len(mag))
        sm = moving_average(mag, 5)
        first = [(s.peak_index, s.valley_index) for s in detect_steps(t, sm)]
        second = [(s.peak_index, s.valley_index) for s in detect_steps(t, sm)]
        assert first == second

    def test_raising_jerk_floor_monotone(self):
        rng = np.random.default_rng(11)
        t, mag = sinusoid(freq=1.9, amp=2.5, dur=30.0)
        mag = mag + rng.normal(0, 0.5, len(mag))
        sm = moving_average(mag, 5)
        counts = []
        for floor in [0.3, 0.6, 1.0, 1.5, 2.5, 4.0]:
            cfg = StepConfig(jerk_init=max(1.0, floor), jerk_floor=floor)
            counts.append(len(detect_steps(t, sm, cfg)))
        assert counts == sorted(counts, reverse=True)

    def test_jerk_and_pace_populated(self):
        t, mag = sinusoid()
        steps = detect_steps(t, moving_average(mag, 5))
        assert all(s.jerk > 0 and s.pace > 0 for s in steps)
        # steady cadence: every pace after the first equals the period
        assert all(abs(s.pace - 0.5) < 0.03 for s in steps[1:])


class TestAdaptiveThresholds:
    def test_thresholds_respect_floors(self):
        st = AdaptiveThresholds.from_config(StepConfig())
        for _ in range(20):
            st.accept(0.01, 0.01)
        assert st.jerk_threshold == pytest.approx(0.6)   # jerk floor
        assert st.pace_threshold == pytest.approx(0.2)   # pace floor

    def test_pace_ceiling(self):
        st = AdaptiveThresholds.from_config(StepConfig())
        for _ in range(20):
            st.accept(5.0, 100.0)
        assert st.pace_threshold == pytest.approx(2.0)

    def test_buffer_bounded(self):
        cfg = StepConfig(buffer_capacity=3)
        st = AdaptiveThresholds.from_config(cfg)
        for k in range(10):
            st.accept(1.0 + k, 0.5)
        assert len(st.buffer) == 3

    def test_update_tracks_buffer_mean(self):
        st = AdaptiveThresholds.from_config(StepConfig())
        st.accept(6.0, 0.9)
        assert st.jerk_threshold == pytest.approx(3.0)
        assert st.pace_threshold == pytest.approx(0.45)

    def test_buffer_mean_adds_left_to_right(self):
        """Ten values of 0.1 add up to 0.9999999999999999 one after the other,
        on every Python; the compensated sum() of Python 3.12 gives 1.0."""
        cfg = StepConfig(jerk_floor=0.0, pace_floor=0.0, update_ratio=1.0)
        st = AdaptiveThresholds.from_config(cfg)
        for _ in range(10):
            st.accept(0.1, 0.1)
        assert st.jerk_threshold == st.pace_threshold == 0.9999999999999999 / 10


@st.composite
def tied_signals(draw):
    """Up to 200 samples drawn as runs from at most five values, NaN and
    +-inf among them: heavy ties, plateaus at either edge, equal-height peaks."""
    special = st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 1.0])
    values = draw(st.lists(st.one_of(special, st.floats(width=64)), min_size=1, max_size=5))
    runs = draw(st.lists(st.tuples(st.sampled_from(values), st.integers(1, 6)), max_size=60))
    return np.array([v for v, count in runs for _ in range(count)][:200], dtype=float)


def _ref_detect_steps(times, magnitudes, cfg=StepConfig()):
    """detect_steps with SciPy's find_peaks and a scan for each peak's next valley."""
    state = AdaptiveThresholds.from_config(cfg)
    peaks, _ = find_peaks(magnitudes, prominence=cfg.min_prominence)
    valleys, _ = find_peaks(-magnitudes, prominence=cfg.min_prominence)
    steps, last_valley, last_peak_time, vi = [], -1, None, 0
    for p in peaks:
        if p <= last_valley:
            continue
        while vi < len(valleys) and valleys[vi] <= p:
            vi += 1
        if vi >= len(valleys):
            break
        v = valleys[vi]
        jerk = magnitudes[p] - magnitudes[v]
        pace = times[v] - times[p] if last_peak_time is None else times[p] - last_peak_time
        if jerk > 0 and pace > 0 and jerk >= state.jerk_threshold and pace >= state.pace_threshold:
            steps.append(Step(int(p), int(v), float(times[p]), float(times[v]), float(jerk), float(pace)))
            state.accept(float(jerk), float(pace))
            last_valley, last_peak_time = v, times[p]
    return steps


class TestProminentPeaks:
    """scipy.signal.find_peaks is the oracle, index for index."""

    @given(
        tied_signals(),
        st.one_of(st.floats(min_value=0.0, max_value=1e300), st.sampled_from([0.0, 0.2, math.inf])),
    )
    @settings(max_examples=600, deadline=None)
    def test_matches_find_peaks(self, x, min_prominence):
        expected = find_peaks(x, prominence=min_prominence)[0]
        assert np.array_equal(_prominent_peaks(x, min_prominence), expected)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("phone", range(3))
    def test_default_corpus_matches_find_peaks(self, default_corpus, phone, sign):
        _, log, _ = default_corpus[phone]
        x = sign * magnitude_series(log.accel, StepConfig().smooth_window)[1]
        assert np.array_equal(_prominent_peaks(x, 0.2), find_peaks(x, prominence=0.2)[0])

    def test_default_corpus_steps_match_reference(self, default_corpus):
        for _, log, _ in default_corpus:
            times, mags = magnitude_series(log.accel)
            assert detect_steps(times, mags) == _ref_detect_steps(times, mags)
