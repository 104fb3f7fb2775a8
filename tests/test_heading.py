import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trackforge.heading import (
    GRAVITY,
    HeadingConfig,
    motion_direction,
    rotate_by_gyro,
    tilt_compensated_yaw,
    track_attitude,
    wrap_angle,
)
from trackforge.logio import SensorSample


def imu_stream(times, rows):
    return tuple(SensorSample(float(t), float(t), tuple(v), 3) for t, v in zip(times, rows))


FLAT = np.array([0.0, 0.0, 1.0])


class TestWrap:
    @given(st.floats(min_value=-50, max_value=50))
    @settings(max_examples=100, deadline=None)
    def test_idempotent_and_in_range(self, x):
        w = wrap_angle(x)
        assert -math.pi <= w <= math.pi
        assert wrap_angle(w) == pytest.approx(w, abs=1e-12)


class TestTrackAttitude:
    def test_static_flat(self):
        t = np.arange(0, 1, 0.01)
        accel = imu_stream(t, [(0.0, 0.0, GRAVITY)] * len(t))
        gyro = imu_stream(t, [(0.0, 0.0, 0.0)] * len(t))
        magn = imu_stream(t, [(0.0, 25.0, 40.0)] * len(t))
        states = track_attitude(accel, gyro, magn)
        last = states[-1]
        assert np.allclose(last.gravity_vec, FLAT, atol=1e-9)
        assert last.roll == pytest.approx(0.0)
        assert last.pitch == pytest.approx(0.0)
        assert last.yaw == pytest.approx(0.0)

    def test_gravity_along_x(self):
        t = np.arange(0, 0.5, 0.01)
        accel = imu_stream(t, [(GRAVITY, 0.0, 0.0)] * len(t))
        states = track_attitude(accel, (), ())
        assert abs(states[-1].pitch) == pytest.approx(math.pi / 2)

    def test_slow_rotation_keeps_mag_trust(self):
        t = np.arange(0, 5, 0.01)
        yaw = 0.5 * np.sin(0.8 * t)
        rate = 0.4 * np.cos(0.8 * t)
        accel = imu_stream(t, [(0.0, 0.0, GRAVITY)] * len(t))
        gyro = imu_stream(t, np.column_stack([np.zeros_like(t), np.zeros_like(t), rate]))
        magn = imu_stream(t, np.column_stack([25 * np.sin(yaw), 25 * np.cos(yaw), np.full_like(t, 40.0)]))
        states = track_attitude(accel, gyro, magn)
        assert all(s.mag_trust for s in states)
        errs = [abs(wrap_angle(s.yaw - y)) for s, y in zip(states, yaw)]
        assert max(errs) < 0.02

    def test_missing_gyro_degrades_gracefully(self):
        t = np.arange(0, 1, 0.01)
        accel = imu_stream(t, [(0.0, 0.0, GRAVITY)] * len(t))
        states = track_attitude(accel, (), ())
        assert np.allclose(states[-1].gravity_vec, FLAT, atol=1e-9)

    def test_empty_accel_rejected(self):
        with pytest.raises(ValueError):
            track_attitude((), (), ())


class TestTiltCompensatedYaw:
    def test_flat_north(self):
        assert tilt_compensated_yaw(FLAT, np.array([0.0, 25.0, 0.0])) == pytest.approx(0.0)

    def test_flat_east_positive(self):
        assert tilt_compensated_yaw(FLAT, np.array([25.0, 0.0, 0.0])) == pytest.approx(math.pi / 2)

    @pytest.mark.parametrize("roll_deg", [5, 15, 30])
    def test_roll_matches_flat_case(self, roll_deg):
        ang = math.radians(roll_deg)
        R = np.array([
            [1, 0, 0],
            [0, math.cos(ang), -math.sin(ang)],
            [0, math.sin(ang), math.cos(ang)],
        ])
        field = np.array([25 * math.sin(0.8), 25 * math.cos(0.8), 40.0])
        flat = tilt_compensated_yaw(FLAT, field)
        tilted = tilt_compensated_yaw(R @ FLAT, R @ field)
        assert tilted == pytest.approx(flat, abs=1e-6)

    def test_zero_field_rejected(self):
        assert tilt_compensated_yaw(FLAT, np.zeros(3)) is None

    @given(st.floats(min_value=-math.pi, max_value=math.pi))
    @settings(max_examples=60, deadline=None)
    def test_vertical_rotation_shifts_yaw_exactly(self, delta):
        field = np.array([25 * math.sin(0.3), 25 * math.cos(0.3), 40.0])
        c, s = math.cos(delta), math.sin(delta)
        rotated = np.array([field[0] * c + field[1] * s, -field[0] * s + field[1] * c, field[2]])
        base = tilt_compensated_yaw(FLAT, field)
        shifted = tilt_compensated_yaw(FLAT, rotated)
        assert wrap_angle(shifted - base - delta) == pytest.approx(0.0, abs=1e-9)


class TestMotionDirection:
    def _osc(self, heading, n=60, amp=2.0):
        a = amp * np.sin(0.35 * np.arange(n))
        return np.column_stack([a * math.cos(heading), a * math.sin(heading)])

    def test_aligned_axis(self):
        est = motion_direction(self._osc(0.0), 0.0)
        assert est.motion_heading == pytest.approx(0.0, abs=1e-9)
        assert not est.low_confidence

    def test_obtuse_yaw_flips_direction(self):
        est = motion_direction(self._osc(0.0), 3.0)
        assert abs(est.motion_heading) == pytest.approx(math.pi, abs=1e-9)

    def test_noisy_direction_recovered(self):
        rng = np.random.default_rng(5)
        w = self._osc(0.7, n=200)
        w = w + rng.normal(0, 0.1 * w.std(), w.shape)
        est = motion_direction(w, 0.7)
        assert est.motion_heading == pytest.approx(0.7, abs=0.05)
        assert est.pca_confidence >= 1.0

    @given(st.floats(min_value=0.01, max_value=50.0))
    @settings(max_examples=40, deadline=None)
    def test_scale_invariant(self, scale):
        w = self._osc(1.1)
        a = motion_direction(w, 1.0).motion_heading
        b = motion_direction(w * scale, 1.0).motion_heading
        assert a == pytest.approx(b, abs=1e-9)

    def test_degenerate_covariance_falls_back(self):
        rng = np.random.default_rng(6)
        w = rng.normal(0, 1.0, (100, 2))  # isotropic
        est = motion_direction(w, 0.4, HeadingConfig(pca_min_ratio=1.5))
        assert est.low_confidence
        assert est.motion_heading == pytest.approx(0.4)

    def test_too_few_samples(self):
        est = motion_direction(np.zeros((3, 2)), 0.2)
        assert est.low_confidence


class TestGravityRotation:
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=-3, max_value=3),
                st.floats(min_value=-3, max_value=3),
                st.floats(min_value=-3, max_value=3),
            ),
            min_size=1,
            max_size=50,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_norm_preserved(self, omegas):
        v = FLAT.copy()
        for w in omegas:
            v = rotate_by_gyro(v, np.array(w), 0.02)
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-9)

    def test_rotation_consistency_with_snap(self):
        # rotating the phone about x tips measured gravity toward +y
        v = rotate_by_gyro(FLAT.copy(), np.array([0.5, 0.0, 0.0]), 0.1)
        assert v[1] > 0
