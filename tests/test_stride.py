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
    default_gait_model,
    extract_features,
    load_gait_model,
    save_gait_model,
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
