import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trackforge.stepdetect import StrideFeatures
from trackforge.stride import (
    DEFAULT_STRIDE_TABLE,
    Gait,
    GaitModel,
    GaitModelError,
    GaitTrainingError,
    classify_gait,
    classify_gaits,
    default_gait_model,
    extract_features,
    load_gait_model,
    save_gait_model,
    step_features,
    stride_length,
    train_gait_model,
)


class TestExtractFeatures:
    def test_constant_window(self):
        t = np.arange(0, 0.51, 0.01)
        m = np.full_like(t, 9.81)
        f = extract_features(t, m)
        assert f.stride_duration == pytest.approx(0.5)
        assert f.accel_variance == pytest.approx(0.0)
        assert f.accel_peak == pytest.approx(9.81)
        assert f.accel_rms == pytest.approx(9.81)

    def test_two_sample_closed_form(self):
        f = extract_features(np.array([0.0, 1.0]), np.array([8.0, 12.0]))
        assert f.stride_duration == pytest.approx(1.0)
        assert f.accel_peak == pytest.approx(12.0)
        assert f.accel_rms == pytest.approx(math.sqrt((64 + 144) / 2))

    def test_sinusoid_variance(self):
        t = np.arange(0, 1.0, 0.001)
        amp = 2.5
        m = 9.81 + amp * np.sin(2 * math.pi * 2.0 * t)
        f = extract_features(t, m)
        assert f.accel_variance == pytest.approx(amp**2 / 2, rel=0.05)

    def test_time_translation_invariance(self):
        t = np.arange(0, 0.6, 0.01)
        m = 9.81 + np.sin(10 * t)
        a = extract_features(t, m)
        b = extract_features(t + 1234.5, m)
        assert b.stride_duration == pytest.approx(a.stride_duration, abs=1e-9)
        assert (b.accel_variance, b.accel_peak, b.accel_rms) == \
            (a.accel_variance, a.accel_peak, a.accel_rms)


    @given(st.lists(st.floats(0.0, 50.0), min_size=1, max_size=300), st.floats(0.0, 1e5))
    @settings(max_examples=200, deadline=None)
    def test_library_forms(self, mags, t0):
        # np.var, np.max and the root mean square within 1e-12 of the window's
        # mean square; only the order of the sums differs
        m = np.array(mags)
        f = extract_features(t0 + 0.01 * np.arange(len(m)), m)
        scale = 1e-12 * float(np.mean(m * m)) + 1e-300
        assert abs(f.accel_variance - float(np.var(m))) <= scale
        assert f.accel_peak == float(np.max(m))
        assert f.accel_rms == pytest.approx(math.sqrt(float(np.mean(m * m))), rel=1e-12, abs=1e-300)

    @given(
        st.lists(st.tuples(st.integers(0, 400), st.integers(1, 120)), min_size=1, max_size=30),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_windows_together_have_their_bits_alone(self, windows, seed):
        # overlapping windows in no order, as process_log passes them
        rng = np.random.default_rng(seed)
        times = np.cumsum(rng.uniform(0.005, 0.015, 520))
        mags = 9.8 + rng.normal(0, 2.0, 520)
        starts = np.array([a for a, _ in windows])
        stops = starts + [n for _, n in windows]
        rows = step_features(times, mags, starts, stops).tolist()
        for row, lo, hi in zip(rows, starts.tolist(), stops.tolist()):
            alone = extract_features(times[lo:hi], mags[lo:hi])
            assert repr(row) == repr(alone.as_vector().tolist())


class TestClassifyGait:
    def test_boundary_goes_to_branch(self):
        # score exactly 0 at level 1 must land in {normal, fast}, and exactly 0
        # at level 2 must land in fast (larger-stride side both times)
        model = GaitModel((0.0, 0.0, 0.0, 0.0), 0.0, (0.0, 0.0, 0.0, 0.0), 0.0,
                          dict(DEFAULT_STRIDE_TABLE))
        f = StrideFeatures(0.5, 1.0, 10.0, 9.9)
        assert classify_gait(f, model) is Gait.FAST

    def test_default_model_on_gait_statistics(self):
        model = default_gait_model()
        slow = StrideFeatures(0.77, 1.2, 11.3, 9.9)
        normal = StrideFeatures(0.556, 3.1, 12.3, 10.0)
        fast = StrideFeatures(0.476, 8.0, 13.8, 10.2)
        assert classify_gait(slow, model) is Gait.SLOW
        assert classify_gait(normal, model) is Gait.NORMAL
        assert classify_gait(fast, model) is Gait.FAST

    def test_missing_model_is_config_error(self):
        with pytest.raises(GaitModelError):
            classify_gait(StrideFeatures(0.5, 1.0, 10.0, 9.9), None)

    @given(st.floats(min_value=0.01, max_value=100.0))
    @settings(max_examples=30, deadline=None)
    def test_scale_invariance(self, scale):
        base = default_gait_model()
        scaled = GaitModel(
            tuple(w * scale for w in base.l1_weights), base.l1_bias * scale,
            tuple(w * scale for w in base.l2_weights), base.l2_bias * scale,
            base.stride_table,
        )
        for f in (StrideFeatures(0.77, 1.2, 11.3, 9.9),
                  StrideFeatures(0.556, 3.1, 12.3, 10.0),
                  StrideFeatures(0.476, 8.0, 13.8, 10.2)):
            assert classify_gait(f, base) is classify_gait(f, scaled)


    @given(
        st.lists(st.tuples(*[st.floats(-20.0, 20.0)] * 4), min_size=1, max_size=30),
        st.tuples(*[st.floats(-10.0, 10.0)] * 5),
    )
    @settings(max_examples=200, deadline=None)
    def test_rows_together_classify_as_alone(self, rows, weights):
        *w, b = weights
        model = GaitModel(tuple(w), b, tuple(reversed(w)), -b, dict(DEFAULT_STRIDE_TABLE))
        together = classify_gaits(np.array(rows), model)
        assert together == [classify_gait(StrideFeatures(*row), model) for row in rows]

    @pytest.mark.parametrize("features,weights,bias", [
        # (1e16 + 1) rounds to 1e16, so the score is 0 - 0.5, not 1 - 0.5
        ((1e16, 1.0, 1e16, 0.0), (1.0, 1.0, -1.0, 0.0), -0.5),
        # (1 + 2**-30)**2 rounds to 1 + 2**-29 before it is added, so the
        # score is -2**-61, not a fused multiply-add's 2**-60 - 2**-61
        ((-1.0 - 2.0**-29, 1.0 + 2.0**-30, 0.0, 0.0), (1.0, 1.0 + 2.0**-30, 0.0, 0.0), -(2.0**-61)),
    ])
    def test_score_is_summed_in_feature_order(self, features, weights, bias):
        # each product is rounded, then added left to right, then the bias
        model = GaitModel(weights, bias, (0.0,) * 4, 0.0, dict(DEFAULT_STRIDE_TABLE))
        assert classify_gait(StrideFeatures(*features), model) is Gait.SLOW
        assert classify_gaits(np.array([features]), model) == [Gait.SLOW]


class TestStrideLength:
    @pytest.mark.parametrize("gait,expected", [(Gait.SLOW, 0.50), (Gait.NORMAL, 0.70), (Gait.FAST, 0.90)])
    def test_default_table(self, gait, expected):
        assert stride_length(gait, default_gait_model()) == pytest.approx(expected)

    def test_all_lengths_in_range(self):
        model = default_gait_model()
        for gait in Gait:
            assert 0.0 < stride_length(gait, model) <= 2.0


def _cluster(rng, center, n, spread=0.05):
    out = []
    for _ in range(n):
        d, v, p, r = center
        out.append(StrideFeatures(
            d + rng.normal(0, spread * d),
            v + rng.normal(0, spread * v),
            p + rng.normal(0, spread * p),
            r + rng.normal(0, spread * r),
        ))
    return out


class TestTraining:
    def test_separable_two_cluster(self):
        rng = np.random.default_rng(0)
        slow = [(f, Gait.SLOW) for f in _cluster(rng, (0.8, 0.7, 11.0, 9.9), 40)]
        fast = [(f, Gait.FAST) for f in _cluster(rng, (0.4, 8.0, 13.8, 10.2), 40)]
        report = train_gait_model(slow + fast)
        assert report.accuracy == 1.0

    def test_conflicting_identical_labels(self):
        f = StrideFeatures(0.5, 1.0, 10.0, 9.9)
        report = train_gait_model([(f, Gait.SLOW), (f, Gait.FAST)] * 5)
        assert report.accuracy == pytest.approx(0.5)

    def test_three_class_synthetic_corpus(self):
        rng = np.random.default_rng(1)
        labeled = (
            [(f, Gait.SLOW) for f in _cluster(rng, (0.77, 1.2, 11.3, 9.9), 100)]
            + [(f, Gait.NORMAL) for f in _cluster(rng, (0.556, 3.1, 12.3, 10.0), 100)]
            + [(f, Gait.FAST) for f in _cluster(rng, (0.476, 8.0, 13.8, 10.2), 100)]
        )
        report = train_gait_model(labeled)
        assert report.n_samples == 300
        assert report.accuracy >= 0.95

    def test_single_class_rejected(self):
        rng = np.random.default_rng(2)
        only = [(f, Gait.NORMAL) for f in _cluster(rng, (0.556, 3.1, 12.3, 10.0), 10)]
        with pytest.raises(GaitTrainingError):
            train_gait_model(only)

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        labeled = (
            [(f, Gait.SLOW) for f in _cluster(rng, (0.8, 0.7, 11.0, 9.9), 30)]
            + [(f, Gait.FAST) for f in _cluster(rng, (0.4, 8.0, 13.8, 10.2), 30)]
        )
        a = train_gait_model(labeled).model
        b = train_gait_model(labeled).model
        assert a == b


class TestModelFile:
    def test_round_trip(self, tmp_path):
        model = default_gait_model()
        path = tmp_path / "gait.model"
        save_gait_model(model, path)
        assert load_gait_model(path) == model

    def test_missing_key(self, tmp_path):
        path = tmp_path / "bad.model"
        path.write_text("l1.weights = 1 2 3 4\n")
        with pytest.raises(GaitModelError):
            load_gait_model(path)

    def test_bad_table_value(self, tmp_path):
        model = default_gait_model()
        path = tmp_path / "gait.model"
        save_gait_model(model, path)
        text = path.read_text().replace("table.slow = 0.5", "table.slow = -1.0")
        path.write_text(text)
        with pytest.raises(GaitModelError):
            load_gait_model(path)

    def test_line_without_equals_names_file_and_line(self, tmp_path):
        path = tmp_path / "gait.model"
        save_gait_model(default_gait_model(), path)
        path.write_text(path.read_text() + "table.fast 1.2\n")
        with pytest.raises(GaitModelError) as excinfo:
            load_gait_model(path)
        assert f"{path}:8: expected 'key = value'" in str(excinfo.value)

    def test_unreadable_path(self, tmp_path):
        with pytest.raises(GaitModelError):
            load_gait_model(tmp_path / "absent.model")
