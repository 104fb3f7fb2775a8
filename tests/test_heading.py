import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from trackforge import heading
from trackforge.heading import (
    ATTITUDE_DTYPE,
    GRAVITY,
    PCA_MIN_SAMPLES,
    HeadingConfig,
    _cross,
    _gyro_rotations,
    _increment_correlation,
    _rotate,
    earth_horizontal,
    motion_direction,
    roll_pitch,
    step_headings,
    tilt_compensated_yaw,
    track_attitude,
    wrap_angle,
)
from trackforge.config import PipelineConfig
from trackforge.logio import SensorLog, SensorStream, nearest_index
from trackforge.pipeline import process_log
from trackforge.stepdetect import Step, detect_steps, fixed_dot, magnitude_series, moving_average
from trackforge.stride import Gait, default_gait_model
from trackforge.synth import WalkScript, WalkSegmentSpec, generate
from streams import stream

NO_SAMPLES = stream([])

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
        accel = stream(t, [(0.0, 0.0, GRAVITY)] * len(t))
        gyro = stream(t, [(0.0, 0.0, 0.0)] * len(t))
        magn = stream(t, [(0.0, 25.0, 40.0)] * len(t))
        att = track_attitude(accel, gyro, magn)
        assert np.allclose(att.gravity[-1], FLAT, atol=1e-9)
        roll, pitch = roll_pitch(att.gravity[-1])
        assert roll == pytest.approx(0.0)
        assert pitch == pytest.approx(0.0)
        assert att.yaw[-1] == pytest.approx(0.0)

    def test_gravity_along_x(self):
        t = np.arange(0, 0.5, 0.01)
        accel = stream(t, [(GRAVITY, 0.0, 0.0)] * len(t))
        att = track_attitude(accel, NO_SAMPLES, NO_SAMPLES)
        assert abs(roll_pitch(att.gravity[-1])[1]) == pytest.approx(math.pi / 2)

    def test_slow_rotation_keeps_mag_trust(self):
        t = np.arange(0, 5, 0.01)
        yaw = 0.5 * np.sin(0.8 * t)
        rate = 0.4 * np.cos(0.8 * t)
        accel = stream(t, [(0.0, 0.0, GRAVITY)] * len(t))
        gyro = stream(t, np.column_stack([np.zeros_like(t), np.zeros_like(t), rate]))
        magn = stream(t, np.column_stack([25 * np.sin(yaw), 25 * np.cos(yaw), np.full_like(t, 40.0)]))
        att = track_attitude(accel, gyro, magn)
        assert att.mag_trust.all()
        errs = [abs(wrap_angle(a - y)) for a, y in zip(att.yaw.tolist(), yaw)]
        assert max(errs) < 0.02

    def test_missing_gyro_degrades_gracefully(self):
        t = np.arange(0, 1, 0.01)
        accel = stream(t, [(0.0, 0.0, GRAVITY)] * len(t))
        att = track_attitude(accel, NO_SAMPLES, NO_SAMPLES)
        assert np.allclose(att.gravity[-1], FLAT, atol=1e-9)

    def test_empty_accel_rejected(self):
        with pytest.raises(ValueError):
            track_attitude(NO_SAMPLES, NO_SAMPLES, NO_SAMPLES)


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


def _gyro_step(v, omega, dt):
    """One gyro sample of track_attitude's gravity loop: ``_gyro_rotations``
    of the one row, then ``_rotate`` of v when the row spins."""
    angle, spins, axis = _gyro_rotations(np.reshape(omega, (1, 3)), dt)
    if not spins[0]:
        return v
    return np.array(_rotate(np.asarray(v, dtype=float).tolist(), axis[0].tolist(), float(angle[0])))


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
            v = _gyro_step(v, np.array(w), 0.02)
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-9)

    def test_rotation_consistency_with_snap(self):
        # rotating the phone about x tips measured gravity toward +y
        v = _gyro_step(FLAT.copy(), np.array([0.5, 0.0, 0.0]), 0.1)
        assert v[1] > 0


# -- reference: the per-sample NumPy attitude loop that track_attitude replaced --

def _normalized(v):
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _ref_smoothed_gravity(grav, times):
    """The whole log's low-passed gravity in one pass: ``moving_average`` at
    ``_smoothing_window``, normalized, or the rows themselves at a window of
    1. A row too short to normalize is kept as it is."""
    window = heading._smoothing_window(times)
    if window <= 1:
        return np.asarray(grav, dtype=float)
    smoothed = moving_average(grav, window)
    norms = np.linalg.norm(smoothed, axis=1, keepdims=True)
    norms[norms < 1e-12] = 1.0
    return smoothed / norms


def _smoothed(grav, times):
    """``_smoothed_gravity``'s blocks, back to back."""
    blocks = list(heading._smoothed_gravity(grav, heading._smoothing_window(times)))
    assert [len(b) for b in blocks[:-1]] == [heading._BLOCK] * (len(blocks) - 1)
    return np.concatenate(blocks)


class TestSmoothedGravity:
    """The half-second window behind linear-acceleration extraction."""

    @staticmethod
    def _gravity(n, seed=0):
        return _normalized(np.random.default_rng(seed).normal(0, 0.1, (n, 3)) + FLAT)

    def test_window_from_median_spacing(self):
        grav = self._gravity(300)
        times = np.arange(300) * 0.01
        assert heading._smoothing_window(times) == 51
        assert _smoothed(grav, times).tobytes() == _normalized(moving_average(grav, 51)).tobytes()

    def test_attitude_column_smooths_like_a_contiguous_copy(self):
        # track_attitude's gravity column is a strided view into its records
        accel, gyro, magn = _turning_phone(2)
        att = track_attitude(accel, gyro, magn)
        times = accel.app_timestamp
        assert _smoothed(att.gravity, times).tobytes() == _smoothed(att.gravity.copy(), times).tobytes()

    def test_duplicated_records_use_the_mean_spacing(self):
        grav = self._gravity(600)
        times = np.repeat(np.arange(300) * 0.01, 2)  # median spacing 0
        window = int(round(0.5 / (times[-1] / 599))) | 1
        assert heading._smoothing_window(times) == window
        assert _smoothed(grav, times).tobytes() == _normalized(moving_average(grav, window)).tobytes()

    def test_one_shared_time_is_not_smoothed(self):
        grav = self._gravity(20)
        assert _smoothed(grav, np.full(20, 4.0)).tobytes() == grav.tobytes()

    @given(st.lists(
        st.one_of(st.sampled_from([0.0, -0.0, 0.01, -0.01, 0.02, math.nan]), st.floats(width=64)),
        min_size=1, max_size=41,
    ))
    @settings(max_examples=300, deadline=None)
    def test_median_is_numpys(self, gaps):
        # odd and even counts, ties, zero and negative gaps, NaN and the float
        # range; the sign of a zero median follows where sort or partition puts
        # tied zeros, and _smoothing_window takes any zero spacing alike
        gaps = np.array(gaps)
        with np.errstate(invalid="ignore", over="ignore"):  # -inf + inf, or two huge middle values
            ours, numpys = heading._median(gaps), np.median(gaps)
        if np.isnan(numpys) or numpys == 0:
            assert ours == numpys or np.isnan(ours) and np.isnan(numpys)
        else:
            assert np.float64(ours).tobytes() == numpys.tobytes()

    def test_tiny_spacing_averages_the_whole_log(self):
        grav = self._gravity(20)
        times = np.arange(20) * 5e-324  # 0.5 / spacing overflows to inf
        assert heading._smoothing_window(times) == 41
        assert np.allclose(_smoothed(grav, times), _normalized(grav.mean(axis=0, keepdims=True)), atol=1e-15)

    @pytest.mark.parametrize("block", [1, 7, 997, 4096])
    @pytest.mark.parametrize("spacing", [0.01, 0.0004, 1e-6], ids=["100-hz", "window-past-a-block", "whole-log"])
    def test_blocks_continue_the_whole_log_prefix_sums(self, block, spacing, monkeypatch):
        """Each block's prefix sums continue np.cumsum from the row carried
        over from the block before, and have the whole log's bits, also
        when the window (51, 1251 or, capped, 2n + 1 rows) reaches past
        neighbouring blocks. At 100 Hz the first smoothed rows average only
        the leading rows of -0.0, and stay -0.0: moving_average's leading
        zero row must not turn them into +0.0."""
        grav = self._gravity(3000, seed=block)
        grav[:60] = -0.0
        grav[1500] = 0.0  # a row too short to normalize
        times = np.arange(3000) * spacing
        expected = _ref_smoothed_gravity(grav, times)
        monkeypatch.setattr(heading, "_BLOCK", block)
        assert _smoothed(grav, times).tobytes() == expected.tobytes()


# The oracles below compute per sample on Python floats. Every dot product,
# cross product and norm is written out in one order, a0*b0 + a1*b1 + a2*b2,
# as heading.py declares it; np.linalg.norm and np.cross, whose dot products
# may go to BLAS, are only compared within a tolerance (TestLibraryForms).

def _dot3(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _cross3(a, b):
    return [a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]]


def _norm3(v):
    return math.sqrt(_dot3(v, v))


def _ref_rotate_by_gyro(v, omega, dt):
    """Rodrigues rotation by -|omega| dt; a result too short to square has
    no direction (NaN)."""
    omega = np.asarray(omega).tolist()
    rate = _norm3(omega)
    angle = rate * dt
    if angle < 1e-15:
        return v
    axis = [w / rate for w in omega]
    vs = np.asarray(v).tolist()
    c, s = math.cos(-angle), math.sin(-angle)
    d = _dot3(axis, vs)
    x = _cross3(axis, vs)
    rotated = [vs[i] * c + x[i] * s + axis[i] * d * (1.0 - c) for i in range(3)]
    norm = _norm3(rotated)
    if norm == 0.0:
        norm = math.nan
    return np.array([r / norm for r in rotated])


def _ref_tilt_compensated_yaw(gravity, mag):
    g, m = np.asarray(gravity).tolist(), np.asarray(mag).tolist()
    if _norm3(m) < 1e-12:
        return None
    basis = _ref_horizontal_basis(gravity)
    if basis is None:
        return None
    e1, e2 = basis
    c = _dot3(m, e1.tolist())
    s = _dot3(m, e2.tolist())
    if math.hypot(c, s) < 1e-12:
        return None
    return math.atan2(s, c)


def _ref_horizontal_basis(gravity):
    """(e1, e2) of one gravity row, or None when gravity is along phone +y."""
    g = np.asarray(gravity).tolist()
    f = [0.0 - g[1] * g[0], 1.0 - g[1] * g[1], 0.0 - g[1] * g[2]]
    norm = _norm3(f)
    if norm < 1e-9:
        return None
    e1 = [x / norm for x in f]
    return np.array(e1), np.array(_cross3(e1, g))


def _ref_earth_horizontal(vec, gravity, yaw):
    basis = _ref_horizontal_basis(gravity)
    if basis is None:
        return None
    e1, e2 = basis
    v = np.asarray(vec).tolist()
    c = _dot3(v, e1.tolist())
    s = _dot3(v, e2.tolist())
    cy, sy = math.cos(yaw), math.sin(yaw)
    return np.array([cy * c - sy * (-s), sy * c + cy * (-s)])


def _ref_step_headings(steps, log, cfg=HeadingConfig(), windows=None):
    """step_headings with one projection per sample, cached across the step
    windows that share it."""
    att = _ref_track_attitude(log.accel, log.gyro, log.magn, cfg)
    times, accel_v = log.accel.app_timestamp, log.accel.values
    grav = _ref_smoothed_gravity(att["gravity"], times)
    yaw = att["yaw"].tolist()
    projected = {}
    prev_heading = None
    for step in steps:
        lookback = min(step.pace, 2.5 * max(step.valley_time - step.peak_time, 1e-3))
        lo = int(np.searchsorted(times, step.peak_time - lookback, side="right"))
        hi = int(np.searchsorted(times, step.valley_time, side="right"))
        projected = {k: xy for k, xy in projected.items() if lo <= k < hi}
        window = []
        for k in range(lo, hi):
            if k not in projected:
                projected[k] = _ref_earth_horizontal(accel_v[k] - GRAVITY * grav[k], grav[k], yaw[k])
            if projected[k] is not None:
                window.append(projected[k])
        window = np.array(window) if window else np.empty((0, 2))
        if windows is not None:
            windows.append((window.shape, window.tobytes()))
        est = motion_direction(window, yaw[step.peak_index], cfg)
        if est.low_confidence:
            step.heading_rad = prev_heading if prev_heading is not None else est.phone_yaw
        else:
            step.heading_rad = est.motion_heading
        prev_heading = step.heading_rad


def _ref_increment_correlation(a, b):
    """Pearson correlation with degenerate-window conventions: two flat series
    agree (1.0), one flat against one moving disagrees (0.0). The covariances
    are NumPy sums of products over one window, in np.corrcoef's order of
    steps, clipped to [-1, 1]."""
    if len(a) < 3:
        return 1.0
    sa, sb = float(np.std(a)), float(np.std(b))
    flat = heading._FLAT_STD
    if sa < flat and sb < flat:
        return 1.0
    if sa < flat or sb < flat:
        return 0.0
    n = len(a)
    xa, xb = a - a.sum() / n, b - b.sum() / n
    scale = 1 / (n - 1)
    corr = (xa * xb).sum() * scale / math.sqrt((xa * xa).sum() * scale) / math.sqrt((xb * xb).sum() * scale)
    return min(max(float(corr), -1.0), 1.0)


def _ref_track_attitude(accel, gyro, magn, cfg=HeadingConfig(), windows=None):
    times = accel.app_timestamp
    accel_v = accel.values
    gyro_v = None
    if gyro:
        gyro_v = gyro.values
        gyro_idx = nearest_index(gyro.app_timestamp, times)
    magn_v = None
    if magn:
        magn_v = magn.values
        magn_idx = nearest_index(magn.app_timestamp, times)

    norm0 = _norm3(accel_v[0].tolist())
    gravity = accel_v[0] / norm0 if norm0 > 1e-9 else np.array([0.0, 0.0, 1.0])
    yaw = 0.0
    mag_trust = True
    history = []
    prev_mag_yaw = None
    rows = []
    for k, t in enumerate(times):
        dt = float(t - times[k - 1]) if k > 0 else 0.0
        omega = gyro_v[gyro_idx[k]] if gyro_v is not None else np.zeros(3)
        if dt > 0 and gyro_v is not None:
            gravity = _ref_rotate_by_gyro(gravity, omega, dt)
        a = accel_v[k]
        norm = _norm3(a.tolist())
        if abs(norm - GRAVITY) <= cfg.g_tol and norm > 1e-9:
            gravity = a / norm
        gyro_rate = _dot3(omega.tolist(), gravity.tolist())
        mag_yaw = None
        if magn_v is not None:
            mag_yaw = _ref_tilt_compensated_yaw(gravity, magn_v[magn_idx[k]])
        if mag_yaw is not None:
            mag_inc = wrap_angle(mag_yaw - prev_mag_yaw) if prev_mag_yaw is not None else 0.0
            history.append((float(t), gyro_rate * dt, mag_inc))
            prev_mag_yaw = mag_yaw
            while history and history[0][0] < t - cfg.corr_window_s:
                history.pop(0)
            if len(history) >= 3:
                a, b = np.array([h[1] for h in history]), np.array([h[2] for h in history])
                if windows is not None:
                    windows.append((a.tobytes(), b.tobytes()))
                corr = _ref_increment_correlation(a, b)
                mag_trust = corr > cfg.corr_gate
        if mag_trust and mag_yaw is not None:
            yaw = mag_yaw
        else:
            yaw = wrap_angle(yaw + gyro_rate * dt)
        roll, pitch = roll_pitch(gravity)
        rows.append((gravity.copy(), roll, pitch, yaw, mag_trust))
    gravities, rolls, pitches, yaws, trusts = zip(*rows)
    return {"gravity": np.array(gravities), "roll": np.array(rolls), "pitch": np.array(pitches),
            "yaw": np.array(yaws), "mag_trust": np.array(trusts)}


def _assert_columns_equal(att, ref):
    """Bitwise, column by column; roll and pitch as roll_pitch(gravity)."""
    assert att.dtype == ATTITUDE_DTYPE
    assert att.gravity.tobytes() == ref["gravity"].tobytes()
    roll, pitch = np.array([roll_pitch(g) for g in att.gravity.tolist()]).T
    assert roll.tobytes() == ref["roll"].tobytes()
    assert pitch.tobytes() == ref["pitch"].tobytes()
    assert att.yaw.tobytes() == ref["yaw"].tobytes()
    assert att.mag_trust.tolist() == ref["mag_trust"].tolist()


def _turning_phone(seed, n=600, gimbal=False, dyadic=False):
    """A tilted, turning phone at jittered 100 Hz (or exactly 128 Hz, where a
    fix can lie exactly one correlation window back): accel near g (some
    samples snap, some do not), gyro and magnetometer on their own clocks, a
    compass that follows the gyro for the first half and wanders for the
    second, and a few zero-field magnetometer samples."""
    rng = np.random.default_rng(seed)
    t = np.arange(1, n + 1) / 128.0 if dyadic else np.cumsum(rng.uniform(0.008, 0.012, n))
    rate = 0.8 * np.sin(0.9 * t) + rng.normal(0, 0.05, n)
    psi = np.concatenate([[0.0], np.cumsum(rate[1:] * np.diff(t))])
    psi[n // 2:] += rng.normal(0, 0.3, n - n // 2)
    if gimbal:
        accel = np.tile([0.0, GRAVITY, 0.0], (n, 1))
    else:
        tilt = np.column_stack([0.2 * np.sin(0.5 * t), 0.3 * np.cos(0.4 * t), np.ones(n)])
        tilt /= np.linalg.norm(tilt, axis=1, keepdims=True)
        accel = tilt * (GRAVITY + rng.normal(0, 0.4, (n, 1)))
    gyro = np.column_stack([rng.normal(0, 0.05, n), rng.normal(0, 0.05, n), rate])
    magn = np.column_stack([-25 * np.sin(psi), 25 * np.cos(psi), np.full(n, 40.0)])
    magn[rng.choice(n, 5, replace=False)] = 0.0
    t_gyro = t + rng.uniform(-0.004, 0.004, n)
    t_magn = t[::2] if dyadic else t[::2] + 0.003
    return stream(t, accel), stream(t_gyro, gyro), stream(t_magn, magn[::2])


def _in_fix_order(windows):
    """Gate windows, as (gyro bytes, compass bytes) pairs, sorted by their last
    fix. Each window is a run of consecutive fixes, so the neighbouring
    columns of all windows chain the fixes in order; that needs every fix's
    (gyro, compass) column to be distinct, and one unbroken chain."""
    columns = [list(zip(np.frombuffer(a).tolist(), np.frombuffer(b).tolist())) for a, b in windows]
    after = {}
    for cols in columns:
        for col, nxt in zip(cols, cols[1:]):
            assert after.setdefault(col, nxt) == nxt
    [col] = set(after) - set(after.values())
    position = {}
    while col is not None:
        position[col] = len(position)
        col = after.get(col)
    order = sorted(range(len(windows)), key=lambda i: position[columns[i][-1]])
    return [windows[i] for i in order]


def _certify_nothing(incs, starts, stops, gate):
    """A ``_gate_filter`` that sends every window to the exact kernel."""
    return np.zeros(len(starts), dtype=bool), np.zeros(len(starts), dtype=bool)


class TestAttitudeReference:
    """track_attitude gives bit-for-bit the states of the per-sample loop."""

    @pytest.mark.parametrize("mode", ["gyro+magn", "no-gyro", "no-magn", "gimbal-lock"])
    @pytest.mark.parametrize("seed,dyadic", [(3, False), (8, True)])
    def test_bitwise_equal_to_reference(self, mode, seed, dyadic):
        accel, gyro, magn = _turning_phone(seed, gimbal=mode == "gimbal-lock", dyadic=dyadic)
        if mode == "no-gyro":
            gyro = NO_SAMPLES
        if mode == "no-magn":
            magn = NO_SAMPLES
        ref = _ref_track_attitude(accel, gyro, magn)
        new = track_attitude(accel, gyro, magn)
        assert len(new) == len(ref["yaw"])
        _assert_columns_equal(new, ref)
        if mode == "gyro+magn":
            trusted = sum(s.mag_trust for s in new)
            assert 0 < trusted < len(new)  # the gate decided both ways

    @pytest.mark.parametrize("dyadic", [False, True])
    def test_gate_sees_the_reference_windows(self, dyadic, monkeypatch):
        accel, gyro, magn = _turning_phone(4, n=900, dyadic=dyadic)
        calls = []
        correlation = heading._increment_correlation

        def recording(w):
            calls.append((w[0].tobytes(), w[1].tobytes()))
            return correlation(w)

        monkeypatch.setattr(heading, "_increment_correlation", recording)
        monkeypatch.setattr(heading, "_gate_filter", _certify_nothing)
        track_attitude(accel, gyro, magn)
        seen = _in_fix_order(calls)
        expected = []
        _ref_track_attitude(accel, gyro, magn, windows=expected)
        assert len(seen) > 800
        assert seen == expected

    @pytest.mark.parametrize("dyadic", [False, True])
    def test_trust_gate_gets_the_reference_windows(self, dyadic, monkeypatch):
        accel, gyro, magn = _turning_phone(4, n=900, dyadic=dyadic)
        windows = []
        trust_gate = heading._trust_gate

        def recording(incs, starts, stops, gate):
            windows.extend((incs[0, a:b].tobytes(), incs[1, a:b].tobytes()) for a, b in zip(starts, stops))
            return trust_gate(incs, starts, stops, gate)

        monkeypatch.setattr(heading, "_trust_gate", recording)
        track_attitude(accel, gyro, magn)
        expected = []
        _ref_track_attitude(accel, gyro, magn, windows=expected)
        assert len(windows) > 800
        assert windows == expected

    def test_window_keeps_a_fix_exactly_one_window_back(self):
        # three compass fixes, the first exactly corr_window_s before the last:
        # a full window against a flat (gyro-less) series, so trust is lost
        t = np.arange(1, 131) / 128.0
        accel = stream(t, [(0.0, 0.0, GRAVITY)] * len(t))
        field = np.zeros((len(t), 3))
        for k, yaw in ((0, 0.0), (64, 0.3), (128, 0.9)):
            field[k] = (25 * math.sin(yaw), 25 * math.cos(yaw), 40.0)
        magn = stream(t, field)
        att = track_attitude(accel, NO_SAMPLES, magn)
        assert att.mag_trust[126:].tolist() == [True, True, False, False]
        _assert_columns_equal(att, _ref_track_attitude(accel, NO_SAMPLES, magn))

    @pytest.mark.parametrize("case", ["all-snap", "no-snap", "zero-first-accel", "zero-gyro", "repeated-times"])
    def test_gravity_edge_cases_equal_reference(self, case):
        accel, gyro, magn = _turning_phone(6)
        t, a = accel.app_timestamp, accel.values.copy()
        unit = a / np.linalg.norm(a, axis=1, keepdims=True)
        if case == "all-snap":
            a = unit * GRAVITY
        elif case == "no-snap":
            a = unit * (GRAVITY + 1.0)
        elif case == "zero-first-accel":
            a[0] = 0.0
        elif case == "zero-gyro":
            gyro = stream(gyro.app_timestamp, np.zeros_like(gyro.values))
        else:
            # each record written twice; the copy (dt = 0) snaps at even
            # samples and not at odd ones, whatever the first did
            t, a = np.repeat(t, 2), np.repeat(a, 2, axis=0)
            a[1::2] = unit * (GRAVITY + np.arange(len(unit))[:, None] % 2)
        accel = stream(t, a)
        _assert_columns_equal(track_attitude(accel, gyro, magn), _ref_track_attitude(accel, gyro, magn))

    @pytest.mark.parametrize("block", [1, 7])
    @pytest.mark.parametrize("mode", ["gyro+magn", "no-gyro", "all-snap", "no-snap"])
    def test_gravity_blocks_give_the_same_bits(self, block, mode, monkeypatch):
        # blocks of 1 or 7 samples split the gravity chains at every place;
        # each block's first chain continues from the gravity carried over,
        # in lockstep rounds or per value
        accel, gyro, magn = _turning_phone(9)
        unit = accel.values / np.linalg.norm(accel.values, axis=1, keepdims=True)
        if mode == "no-gyro":
            gyro = NO_SAMPLES
        elif mode != "gyro+magn":
            accel = stream(accel.app_timestamp, unit * (GRAVITY + (mode == "no-snap")))
        monkeypatch.setattr(heading, "_BLOCK", len(accel))
        expected = track_attitude(accel, gyro, magn).tobytes()
        monkeypatch.setattr(heading, "_BLOCK", block)
        for cutover in (1, math.inf):
            monkeypatch.setattr(heading, "_LOCKSTEP_CHAINS", cutover)
            assert track_attitude(accel, gyro, magn).tobytes() == expected

    def test_default_corpus_log_in_blocks_equals_one_block(self, default_corpus, monkeypatch):
        # blocks of _BLOCK samples or one block of the whole log, the gravity
        # chains in lockstep rounds or per value throughout: the same bits
        _, log, _ = default_corpus[0]
        assert len(log.accel) > 3 * heading._BLOCK
        expected = track_attitude(log.accel, log.gyro, log.magn)
        monkeypatch.setattr(heading, "_BLOCK", len(log.accel))
        assert track_attitude(log.accel, log.gyro, log.magn).tobytes() == expected.tobytes()
        monkeypatch.setattr(heading, "_LOCKSTEP_CHAINS", math.inf)
        assert track_attitude(log.accel, log.gyro, log.magn).tobytes() == expected.tobytes()
        monkeypatch.undo()
        monkeypatch.setattr(heading, "_LOCKSTEP_CHAINS", math.inf)
        assert track_attitude(log.accel, log.gyro, log.magn).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("cutover", [1, math.inf], ids=["lockstep", "per-value"])
    @pytest.mark.parametrize("case", ["gyro+magn", "no-snap", "all-snap", "snap-at-0", "no-snap-at-0",
                                      "zero-norm", "repeated-times"])
    def test_gravity_chains_equal_reference(self, case, cutover, monkeypatch):
        """Every chain in lockstep rounds, or every chain per value: the
        reference's bits. no-snap is one chain from sample 0; all-snap has
        no rotation; snap-at-0 starts the first chain at a snap of sample 0;
        zero-norm starts it at a zero vector (an overflowing first sample),
        so each of its rotations is NaN; repeated-times writes each record
        twice (dt = 0)."""
        accel, gyro, magn = _turning_phone(6)
        t, a = accel.app_timestamp, accel.values.copy()
        unit = a / np.linalg.norm(a, axis=1, keepdims=True)
        if case == "no-snap":
            a = unit * (GRAVITY + 1.0)
        elif case == "all-snap":
            a = unit * GRAVITY
        elif case in ("snap-at-0", "no-snap-at-0"):
            a[:40] = unit[:40] * (GRAVITY + 1.0)
            a[0] = unit[0] * (GRAVITY if case == "snap-at-0" else GRAVITY + 1.0)
        elif case == "zero-norm":
            a[:40] = unit[:40] * (GRAVITY + 1.0)
            a[0] = (1e200, 1e200, 0.0)  # its norm overflows to inf, so it normalizes to (0, 0, 0)
        elif case == "repeated-times":
            t, a = np.repeat(t, 2), np.repeat(a, 2, axis=0)
        accel = stream(t, a)
        monkeypatch.setattr(heading, "_LOCKSTEP_CHAINS", cutover)
        with np.errstate(over="ignore"):  # the zero-norm case's squares
            att = track_attitude(accel, gyro, magn)
            _assert_columns_equal(att, _ref_track_attitude(accel, gyro, magn))
        if case == "zero-norm":
            assert att.gravity[0].tolist() == [0.0, 0.0, 0.0]
            assert np.isnan(att.gravity[1:40]).all() and not np.isnan(att.gravity[-1]).any()

    @pytest.mark.parametrize("window", [0.05, 1.0, 30.0])
    def test_default_corpus_slice_equals_reference(self, window, default_corpus):
        # 20 s of a 100 Hz phone: about 100 fixes per 1 s window, so many
        # batches per length; 30 s windows grow past the slice, one length each
        _, log, _ = default_corpus[0]
        lo, hi = np.searchsorted(log.accel.app_timestamp, log.accel.app_timestamp[0] + np.array([40.0, 60.0]))
        accel = stream(log.accel.app_timestamp[lo:hi], log.accel.values[lo:hi])
        cfg = HeadingConfig(corr_window_s=window)
        ref = _ref_track_attitude(accel, log.gyro, log.magn, cfg)
        _assert_columns_equal(track_attitude(accel, log.gyro, log.magn, cfg), ref)

    @given(
        st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3), st.booleans()), min_size=3, max_size=60),
        st.floats(0.05, 2.0),
        st.booleans(),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=300, deadline=None)
    def test_repeated_timestamps_and_sparse_fixes(self, records, window, has_gyro, seed):
        # one accel and one magnetometer record about every 80 ms, each
        # written 1-3 times, so times repeat; a magnetometer record that is
        # not live reads a zero field, so fixes are sparse, some windows hold
        # fewer than 3 of them, and some logs have no, 1 or 2 fixes
        accel_copies, magn_copies, live = zip(*records)
        accel, gyro, magn = _turning_phone(seed, n=2 * len(records))
        field = magn.values * np.array(live)[:, None]
        accel = stream(*(np.repeat(c[::2], accel_copies, axis=0) for c in (4 * accel.app_timestamp, accel.values)))
        magn = stream(np.repeat(4 * magn.app_timestamp, magn_copies), np.repeat(field, magn_copies, axis=0))
        gyro = stream(4 * gyro.app_timestamp, gyro.values) if has_gyro else NO_SAMPLES
        cfg = HeadingConfig(corr_window_s=window)
        _assert_columns_equal(track_attitude(accel, gyro, magn, cfg), _ref_track_attitude(accel, gyro, magn, cfg))

    @given(
        st.lists(st.floats(-1e3, 1e3), min_size=3, max_size=3),
        st.lists(st.floats(-10, 10), min_size=3, max_size=3),
        st.floats(0.0, 0.05),
    )
    @settings(max_examples=200, deadline=None)
    def test_rotate_by_gyro_bitwise(self, v, omega, dt):
        v, omega = np.array(v), np.array(omega)
        with np.errstate(divide="ignore", invalid="ignore"):  # v = 0 gives NaN on both sides
            new, ref = _gyro_step(v, omega, dt), _ref_rotate_by_gyro(v, omega, dt)
        assert new.tobytes() == ref.tobytes()

    @given(
        st.lists(st.floats(-1, 1), min_size=3, max_size=3),
        st.lists(st.floats(-60, 60), min_size=3, max_size=3),
    )
    @settings(max_examples=200, deadline=None)
    def test_tilt_compensated_yaw_bitwise(self, g, mag):
        g, mag = np.array(g), np.array(mag)
        assert repr(tilt_compensated_yaw(g, mag)) == repr(_ref_tilt_compensated_yaw(g, mag))

    @given(st.lists(st.floats(-1e6, 1e6), min_size=6, max_size=6))
    @settings(max_examples=300, deadline=None)
    def test_scalar_cross_bitwise(self, xs):
        a, b = np.array(xs[:3]), np.array(xs[3:])
        assert np.array(_cross(a.tolist(), b.tolist())).tobytes() == np.cross(a, b).tobytes()


def _steps(times):
    """Steps every 0.4 s whose windows (0.525 s) overlap, plus one window too
    short for PCA, which reuses the previous heading."""
    steps = []
    for peak_time in np.arange(times[0] + 0.6, times[-1] - 0.2, 0.4).tolist():
        valley_time = peak_time + (0.0 if len(steps) == 4 else 0.15)
        peak = int(np.searchsorted(times, peak_time))
        steps.append(Step(peak, peak, peak_time, valley_time, jerk=1.0, pace=0.6))
    return steps


_COORD = st.floats(-1.0, 1.0)
_GRAVITY_ROW = st.one_of(
    st.tuples(_COORD, _COORD, _COORD),
    st.sampled_from([(0.0, 1.0, 0.0), (0.0, -1.0, 0.0), (1e-200, 1.0, 0.0), (math.nan, 0.5, 0.5)]),
)
_FIELD_ROW = st.one_of(st.tuples(*[st.floats(-60.0, 60.0)] * 3), st.just((0.0, 0.0, 0.0)))


class TestHorizontalPlane:
    """The columnar plane, compass yaw and projection have the bits of the
    per-sample code."""

    @pytest.mark.parametrize("mode", ["gyro+magn", "no-gyro", "no-magn", "gimbal-lock", "dyadic"])
    def test_step_headings_equal_reference(self, mode, monkeypatch):
        accel, gyro, magn = _turning_phone(5, gimbal=mode == "gimbal-lock", dyadic=mode == "dyadic")
        log = SensorLog(accel=accel, gyro=NO_SAMPLES if mode == "no-gyro" else gyro,
                        magn=NO_SAMPLES if mode == "no-magn" else magn)
        seen = []
        motion_directions = heading._motion_directions

        def recording(xy, counts, phone_yaws, cfg):
            seen.extend((w.shape, w.tobytes()) for w in np.split(xy, np.cumsum(counts)[:-1]))
            return motion_directions(xy, counts, phone_yaws, cfg)

        monkeypatch.setattr(heading, "_motion_directions", recording)
        new, ref = _steps(accel.app_timestamp), _steps(accel.app_timestamp)
        step_headings(new, log)
        monkeypatch.undo()  # the reference's motion_direction calls go unrecorded
        expected = []
        _ref_step_headings(ref, log, windows=expected)
        assert len(new) >= 10
        assert seen == expected
        assert repr([s.heading_rad for s in new]) == repr([s.heading_rad for s in ref])

    @given(st.lists(st.tuples(_GRAVITY_ROW, _FIELD_ROW, st.floats(-4.0, 4.0)), min_size=1, max_size=12))
    @settings(max_examples=300, deadline=None)
    def test_rows_equal_scalar_reference(self, rows):
        gravity = np.array([r[0] for r in rows])
        field = np.array([r[1] for r in rows])
        yaw = np.array([r[2] for r in rows])
        e1, e2, defined = heading._horizontal_basis(gravity)
        xy, xy_defined = earth_horizontal(field, gravity, yaw)
        fixes, fix_yaws = heading._compass_yaws(gravity, field)
        yaws = [None] * len(rows)
        for k, y in zip(fixes.tolist(), fix_yaws.tolist()):
            yaws[k] = y
        assert xy_defined.tolist() == defined.tolist()
        for k in range(len(rows)):
            basis = _ref_horizontal_basis(gravity[k])
            assert defined[k] == (basis is not None)
            if basis is not None:
                assert repr((e1[k].tolist(), e2[k].tolist())) == repr((basis[0].tolist(), basis[1].tolist()))
                ref_xy = _ref_earth_horizontal(field[k], gravity[k], yaw[k])
                assert repr(xy[k].tolist()) == repr(ref_xy.tolist())
            assert repr(yaws[k]) == repr(_ref_tilt_compensated_yaw(gravity[k], field[k]))


    def test_short_horizontal_fields_take_the_exact_hypot(self):
        # flat phone: the field's horizontal components are its x and y. A
        # larger component of 2e-12 or more passes without math.hypot; the
        # rest, around the 1e-12 cut, NaN and inf included, go through it
        field = np.array([(2e-12, 0.0), (1.999e-12, 0.0), (1e-12, 0.0), (9.999e-13, 0.0), (7.1e-13, 7.1e-13),
                          (7.07e-13, 7.07e-13), (0.0, -1e-12), (math.nan, 0.0), (math.inf, math.nan), (0.0, 0.0)])
        field = np.column_stack((field, np.full(len(field), 40.0)))
        gravity = np.tile(FLAT, (len(field), 1))
        with np.errstate(invalid="ignore"):  # inf times a zero component
            rows, yaws = heading._compass_yaws(gravity, field)
        expected = [_ref_tilt_compensated_yaw(g, m) for g, m in zip(gravity, field)]
        assert rows.tolist() == [k for k, y in enumerate(expected) if y is not None] == [0, 1, 2, 4, 6, 7, 8]
        assert repr(yaws.tolist()) == repr([y for y in expected if y is not None])


_WINDOW_KINDS = ["flat", "one-flat", "near-flat", "near-gate"]


def _window_pair(kind, n, seed, gate, offset):
    """(gyro increments, magnetometer increments) of one trust-gate window."""
    rng = np.random.default_rng(seed)
    base = rng.uniform(-0.05, 0.05, 2)
    if kind == "flat":
        return np.full(n, base[0]), np.full(n, base[1])
    if kind == "one-flat":
        return np.full(n, base[0]), base[1] + rng.normal(0, 0.01, n)
    if kind == "near-flat":
        std = 10.0 ** rng.uniform(-13, -11)
        return base[0] + rng.normal(0, std, n), base[1] + rng.normal(0, 10.0 ** rng.uniform(-13, -1), n)
    # near the gate: correlation gate + offset, offset within 1e-12
    x = rng.normal(0, 1, n)
    x -= x.mean()
    y = rng.normal(0, 1, n)
    y -= y.mean()
    y -= (x @ y) / (x @ x) * x
    r = min(max(gate + offset, -1.0), 1.0)
    b = r * x / np.linalg.norm(x) + math.sqrt(1.0 - r * r) * y / np.linalg.norm(y)
    return 0.01 * x + base[0], 0.02 * b + base[1]


class TestTrustGate:
    """The gate's correlation has the bits of a per-window computation in
    np.std's and np.corrcoef's order of steps."""

    @staticmethod
    def _assert_same_value(a, b):
        assert repr(_increment_correlation(np.array((a, b)))) == repr(_ref_increment_correlation(a, b))

    def test_two_flat_series_agree(self):
        a, b = np.full(10, 0.01), np.zeros(10)
        assert _increment_correlation(np.array((a, b))) == 1.0
        self._assert_same_value(a, b)

    def test_one_flat_series_disagrees(self):
        a, b = np.zeros(10), np.sin(np.arange(10.0))
        assert _increment_correlation(np.array((a, b))) == 0.0
        assert _increment_correlation(np.array((b, a))) == 0.0
        self._assert_same_value(a, b)

    @given(
        st.sampled_from(_WINDOW_KINDS),
        st.integers(3, 150),
        st.integers(0, 2**32 - 1),
        st.floats(-1.0, 1.0),
        st.floats(-1e-12, 1e-12),
        st.booleans(),
    )
    @settings(max_examples=400, deadline=None)
    def test_same_value_as_reference(self, kind, n, seed, gate, offset, swap):
        a, b = _window_pair(kind, n, seed, gate, offset)
        if swap:
            a, b = b, a
        self._assert_same_value(a, b)

    @given(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0), st.integers(3, 150))
    @settings(max_examples=200, deadline=None)
    def test_all_equal_windows_match_reference(self, x, y, n):
        self._assert_same_value(np.full(n, x), np.full(n, y))

    @pytest.mark.parametrize("r", [1.0, -1.0])
    def test_perfect_correlation_is_clipped(self, r):
        # unclipped, this window's correlation rounds one ulp beyond r
        a, b = _window_pair("near-gate", 20, 0, r, 0.0)
        assert _increment_correlation(np.array((a, b))) == r
        self._assert_same_value(a, b)

    @pytest.mark.parametrize("kind", _WINDOW_KINDS)
    def test_window_longer_than_the_reduction_buffer(self, kind):
        # NumPy reduces in blocks of 8192 elements
        a, b = _window_pair(kind, 8192 + 1000, 11, 0.8, 0.0)
        self._assert_same_value(a, b)

    @pytest.mark.parametrize("kind", _WINDOW_KINDS)
    def test_strided_rows_of_a_fix_buffer(self, kind):
        # a window that is not contiguous, rows 1 and 2 of a (3, k) buffer,
        # has the value of its contiguous copy
        a, b = _window_pair(kind, 57, 12, 0.8, 0.0)
        fixes = np.random.default_rng(13).normal(size=(3, 100))
        fixes[1:3, 20:77] = a, b
        window = fixes[1:3, 20:77]
        assert not window.flags.c_contiguous
        assert repr(_increment_correlation(window)) == repr(_ref_increment_correlation(a, b))


def _gate_piece(kind, n, rng, gate):
    """(2, n) increments: a ``_WINDOW_KINDS`` pair, noise far from zero, noise
    with one NaN or infinite entry, or rows each of exact zeros ("zero") or
    of noise 2**-4 to 2**4 times ``_FLAT_STD`` ("scaled"), else of noise far
    from flat."""
    if kind == "offset":
        offset = rng.choice([-1.0, 1.0], (2, 1)) * 10.0 ** rng.uniform(0, 8, (2, 1))
        noise = rng.normal(0, 1, (2, n))
        return offset + noise + [[0.0], [rng.uniform(-1, 1)]] * noise[0]
    if kind == "non-finite":
        piece = rng.normal(0, 0.01, (2, n))
        piece[rng.integers(2), rng.integers(n)] = rng.choice([np.nan, np.inf, -np.inf])
        return piece
    if kind in ("zero", "scaled"):
        near_flat = heading._FLAT_STD * 2.0 ** rng.uniform(-4, 4, (2, 1)) if kind == "scaled" else 0.0
        return rng.normal(0, 1, (2, n)) * np.where(rng.random((2, 1)) < 0.75, near_flat, 0.01)
    return np.array(_window_pair(kind, n, int(rng.integers(2**32)), gate, float(rng.uniform(-1e-12, 1e-12))))


def _kernel_decisions(incs, starts, stops, gate):
    """``_increment_correlation(window) > gate`` of each window, one at a time."""
    with np.errstate(all="ignore"):  # NaN and inf windows warn in the kernel
        return [_increment_correlation(incs[:, a:b]) > gate for a, b in zip(starts.tolist(), stops.tolist())]


# gates on both sides of 0 and of 1, the values of windows with a flat row
_GATES = st.one_of(st.floats(-1.0, 1.0), st.floats(-2.0, 2.0),
                   st.sampled_from([-1e-300, -0.0, 0.0, 1e-300, 1.0 - 2.0**-53, 1.0, 1.0 + 2.0**-52]))


class TestGateFilter:
    """``_trust_gate`` decides every window as ``_increment_correlation(window)
    > gate``; ``_gate_filter`` certifies only windows whose decision it can
    prove."""

    @given(
        st.lists(st.tuples(st.sampled_from(_WINDOW_KINDS + ["offset", "non-finite", "zero", "scaled"]),
                           st.integers(3, 60)), min_size=1, max_size=12),
        st.integers(3, 80),
        st.integers(0, 2**32 - 1),
        _GATES,
        st.sampled_from([1, 7, heading._BLOCK]),
    )
    @settings(max_examples=300, deadline=None)
    def test_decisions_equal_the_kernels(self, pieces, longest, seed, gate, block):
        # a window ends at every column past the second and reaches back 3
        # to `longest` columns, across the pieces' borders
        rng = np.random.default_rng(seed)
        incs = np.concatenate([_gate_piece(kind, n, rng, gate) for kind, n in pieces], axis=1)
        stops = np.arange(3, incs.shape[1] + 1)
        starts = np.maximum(0, stops - rng.integers(3, longest + 1, len(stops)))
        expected = _kernel_decisions(incs, starts, stops, gate)
        with np.errstate(all="ignore"), pytest.MonkeyPatch.context() as mp:
            mp.setattr(heading, "_BLOCK", block)
            assert heading._trust_gate(incs, starts, stops, gate).tolist() == expected

    def test_only_at_gate_windows_reach_the_kernel(self, monkeypatch):
        # at-gate windows, then flat and one-flat windows of exact zeros, as
        # in a log without a gyro, then windows whose correlation lies far
        # from the gate, side by side. One window per block: a zero row's
        # prefix sums then hold only zeros, whatever the rows before it hold.
        pairs = [_window_pair("near-gate", n, seed, 0.8, 0.0) for n, seed in ((3, 0), (20, 1), (97, 2))]
        unsure = len(pairs)
        moving = [np.sin(np.arange(n) + seed) for n, seed in ((3, 5), (20, 6), (97, 7))]
        pairs += [(np.zeros(len(b)), b) for b in moving] + [(b, np.zeros(len(b))) for b in moving]
        pairs += [(np.zeros(n), np.zeros(n)) for n in (3, 20, 97)]
        pairs += [_window_pair("near-gate", n, seed, r, 0.0) for r in (-0.5, 0.2, 0.95) for n, seed in ((5, 3), (60, 4))]
        incs = np.concatenate([np.array(pair) for pair in pairs], axis=1)
        stops = np.cumsum([len(a) for a, _ in pairs])
        starts = stops - [len(a) for a, _ in pairs]
        calls = []
        correlation = heading._increment_correlation

        def recording(w):
            calls.append(w.tobytes())
            return correlation(w)

        monkeypatch.setattr(heading, "_increment_correlation", recording)
        monkeypatch.setattr(heading, "_BLOCK", 1)
        passed = heading._trust_gate(incs, starts, stops, 0.8)
        assert calls == [incs[:, a:b].tobytes() for a, b in zip(starts[:unsure], stops[:unsure])]
        assert passed.tolist() == _kernel_decisions(incs, starts, stops, 0.8)
        assert passed[unsure:].tolist() == [False] * 6 + [True] * 3 + [False] * 4 + [True] * 2

    @pytest.mark.parametrize("block", [1, 7, heading._BLOCK])
    def test_default_corpus_log_in_blocks_equals_the_kernel(self, block, default_corpus, monkeypatch):
        # the kernel alone decides every window when the filter certifies
        # none; the filter's prefix sums start afresh in every block, over
        # the fixes carried into it. A block costs about half a millisecond
        # however short it is, so blocks of 1 take the log's first 20 s.
        log = default_corpus[0][1] if block > 1 else _first_seconds(default_corpus[0][1], 20.0)
        monkeypatch.setattr(heading, "_gate_filter", _certify_nothing)
        expected = track_attitude(log.accel, log.gyro, log.magn)
        monkeypatch.undo()
        monkeypatch.setattr(heading, "_BLOCK", block)
        assert track_attitude(log.accel, log.gyro, log.magn).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("has_gyro", [True, False])
    def test_walk_attitude_equals_the_kernels(self, has_gyro, monkeypatch):
        # a 20 Hz walk, where the gate trusts the compass about half the time;
        # without a gyro every window has a flat (zero) gyro row
        log, _ = generate(WalkScript(source_id="w", seed=5, imu_rate_hz=20.0, segments=[
            WalkSegmentSpec(floor=1, gait=Gait.NORMAL, heading_rad=0.7 * k, steps=40) for k in range(4)]))
        gyro = log.gyro if has_gyro else NO_SAMPLES
        filtered = track_attitude(log.accel, gyro, log.magn)
        if has_gyro:
            assert 0.2 < filtered.mag_trust.mean() < 0.8
        monkeypatch.setattr(heading, "_gate_filter", _certify_nothing)
        assert track_attitude(log.accel, gyro, log.magn).tobytes() == filtered.tobytes()

    def test_default_corpus_log_certifies_every_window(self, default_corpus, monkeypatch):
        # with its gyro stream and without: then every window has a zero gyro row
        _, log, _ = default_corpus[0]
        calls = []
        correlation = heading._increment_correlation
        monkeypatch.setattr(heading, "_increment_correlation", lambda w: calls.append(w.shape) or correlation(w))
        decided = []
        gate_filter = heading._gate_filter
        monkeypatch.setattr(heading, "_gate_filter", lambda *args: decided.append(len(args[1])) or gate_filter(*args))
        for gyro in (log.gyro, NO_SAMPLES):
            decided.clear()
            track_attitude(log.accel, gyro, log.magn)
            assert calls == []
            assert sum(decided) > 10000

    def test_log_without_a_deciding_fix(self, monkeypatch):
        # samples 8-12 ms apart and a 5 ms window: each window holds one fix,
        # so the gate gets no window and the compass is trusted throughout
        accel, gyro, magn = _turning_phone(5, n=600)
        cfg = HeadingConfig(corr_window_s=0.005)
        calls = []
        trust_gate = heading._trust_gate

        def recording(incs, starts, stops, gate):
            calls.append(len(starts))
            return trust_gate(incs, starts, stops, gate)

        monkeypatch.setattr(heading, "_trust_gate", recording)
        att = track_attitude(accel, gyro, magn, cfg)
        assert calls == [0]
        assert att.mag_trust.all()
        _assert_columns_equal(att, _ref_track_attitude(accel, gyro, magn, cfg))


def _eigh_heading(window, yaw):
    """Motion heading and eigenvalue ratio of a window from np.linalg.eigh
    of its covariance, the half-axis taken at an acute angle to yaw."""
    centered = window - window.mean(axis=0)
    vals, vecs = np.linalg.eigh(centered.T @ centered / len(window))
    heading = math.atan2(vecs[1, 1], vecs[0, 1])
    if abs(wrap_angle(heading - yaw)) > math.pi / 2:
        heading = wrap_angle(heading + math.pi)
    return heading, vals[1] / max(vals[0], 1e-18)


_VECTOR = st.lists(st.floats(-1e6, 1e6), min_size=3, max_size=3)


class TestLibraryForms:
    """The fixed-order arithmetic of heading.py and of the oracles above
    agrees with NumPy's library forms within 1e-12, relative to the scale of
    the inputs. The library forms may go through BLAS, so only a tolerance
    holds."""

    @given(_VECTOR)
    @settings(max_examples=300, deadline=None)
    def test_norm(self, v):
        ref = float(np.linalg.norm(v))
        assert _norm3(v) == pytest.approx(ref, rel=1e-12, abs=1e-300)
        assert math.sqrt(fixed_dot(v, v)) == pytest.approx(ref, rel=1e-12, abs=1e-300)

    @given(_VECTOR, _VECTOR)
    @settings(max_examples=300, deadline=None)
    def test_cross(self, a, b):
        scale = float(np.linalg.norm(a) * np.linalg.norm(b))
        ref = np.cross(a, b)
        assert np.abs(np.array(_cross3(a, b)) - ref).max() <= 1e-12 * scale
        assert np.abs(np.array(heading._cross(a, b)) - ref).max() <= 1e-12 * scale

    @given(st.lists(st.tuples(_VECTOR, _VECTOR), min_size=1, max_size=20))
    @settings(max_examples=100, deadline=None)
    def test_columns_have_the_per_row_bits(self, pairs):
        a = np.array([p for p, _ in pairs])
        b = np.array([q for _, q in pairs])
        dots = fixed_dot(a.T, b.T)
        crosses = np.column_stack(heading._cross(a.T, b.T))
        for k, (p, q) in enumerate(pairs):
            assert repr(dots[k].item()) == repr(_dot3(p, q))
            assert repr(crosses[k].tolist()) == repr(_cross3(p, q))

    @given(
        st.sampled_from(["random", "near-gate"]),
        st.integers(3, 150),
        st.integers(0, 2**32 - 1),
        st.floats(-1.0, 1.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_correlation(self, kind, n, seed, gate):
        if kind == "random":
            a, b = np.random.default_rng(seed).normal(0, 0.01, (2, n))
        else:
            a, b = _window_pair(kind, n, seed, gate, 0.0)
        assert _increment_correlation(np.array((a, b))) == pytest.approx(float(np.corrcoef(a, b)[0, 1]), abs=1e-12)

    @given(
        st.integers(PCA_MIN_SAMPLES, 200),
        st.integers(0, 2**32 - 1),
        st.floats(-math.pi, math.pi),
        st.floats(0.05, 0.8),
        st.floats(1e-3, 1e3),
    )
    @settings(max_examples=300, deadline=None)
    def test_principal_axis(self, n, seed, angle, aspect, scale):
        rng = np.random.default_rng(seed)
        u = rng.normal(0, scale, (n, 2)) * (1.0, aspect) + rng.normal(0, 10 * scale, 2)
        c, s = math.cos(angle), math.sin(angle)
        window = np.column_stack((c * u[:, 0] - s * u[:, 1], s * u[:, 0] + c * u[:, 1]))
        heading_ref, ratio_ref = _eigh_heading(window, angle)
        assume(ratio_ref >= HeadingConfig().pca_min_ratio * (1 + 1e-9))
        est = motion_direction(window, heading_ref)
        assert not est.low_confidence
        assert wrap_angle(est.motion_heading - heading_ref) == pytest.approx(0.0, abs=1e-12)
        assert est.pca_confidence == pytest.approx(ratio_ref, rel=1e-12)


def _walk_20hz():
    """A 20 Hz walk of four 40-step corridors, where the gate trusts the
    compass about half the time."""
    log, _ = generate(WalkScript(source_id="w", seed=5, imu_rate_hz=20.0, segments=[
        WalkSegmentSpec(floor=1, gait=Gait.NORMAL, heading_rad=0.7 * k, steps=40) for k in range(4)]))
    return log


def _first_seconds(log, seconds):
    """The log's accel, gyro and magnetometer samples of its first ``seconds``."""
    end = log.accel.app_timestamp[0] + seconds

    def cut(s):
        k = int(np.searchsorted(s.app_timestamp, end))
        return SensorStream(s.app_timestamp[:k], s.sensor_timestamp[:k], s.values[:k], s.accuracy[:k])

    return dataclasses.replace(log, accel=cut(log.accel), gyro=cut(log.gyro), magn=cut(log.magn))


def _detected_steps(log):
    cfg = PipelineConfig()
    times, mags = magnitude_series(log.accel, cfg.step.smooth_window)
    return detect_steps(times, mags, cfg.step)


def _headings_in_blocks(log, steps, block, monkeypatch):
    """step_headings of ``steps`` with ``_BLOCK`` samples per block: the
    steps' headings, and the attitude records it tracked."""
    tracked = []
    track = heading.track_attitude
    with monkeypatch.context() as mp:
        mp.setattr(heading, "_BLOCK", block)
        mp.setattr(heading, "track_attitude", lambda *args: tracked.append(track(*args)) or tracked[-1])
        step_headings(steps, log)
    return repr([s.heading_rad for s in steps]), tracked[0].tobytes()


_SENSORS = {"gyro+magn": {}, "no-gyro": {"gyro": NO_SAMPLES}, "no-magn": {"magn": NO_SAMPLES},
            "accel-only": {"gyro": NO_SAMPLES, "magn": NO_SAMPLES}}


@pytest.fixture(scope="module")
def walk_20hz():
    return _walk_20hz()


class TestBlocks:
    """``track_attitude`` and ``step_headings`` work ``_BLOCK`` samples at a
    time and give the bits of one block spanning the whole log."""

    @pytest.mark.parametrize("block", [1, 7, 997, 4096])
    @pytest.mark.parametrize("sensors", list(_SENSORS))
    @pytest.mark.parametrize("source", ["phone-a", "walk-20hz"])
    def test_equal_one_block(self, source, sensors, block, default_corpus, walk_20hz, monkeypatch):
        log = default_corpus[0][1] if source == "phone-a" else walk_20hz
        if block < 8:
            # a block costs about half a millisecond however short it is
            log = _first_seconds(log, 10.0 if block == 1 else 60.0)
        log = dataclasses.replace(log, **_SENSORS[sensors])
        steps = _detected_steps(log)
        assert len(steps) >= 10 and len(log.accel) > min(block, 997)  # the walk is one block of 4096
        expected = _headings_in_blocks(log, steps, len(log.accel), monkeypatch)
        assert _headings_in_blocks(log, steps, block, monkeypatch) == expected

    @pytest.mark.parametrize("cutover", [1, math.inf], ids=["lockstep", "per-value"])
    def test_gravity_chain_across_an_edge_and_a_snap_on_a_first_sample(self, cutover, monkeypatch):
        # blocks of 100: no sample from 80 to 119 snaps, so the chain of
        # sample 79 or before rotates across the edge at 100; sample 200, the
        # first of the third block, snaps between samples that do not
        accel, gyro, magn = _turning_phone(6)
        t, a = accel.app_timestamp, accel.values.copy()
        unit = a / np.linalg.norm(a, axis=1, keepdims=True)
        a[80:120] = unit[80:120] * (GRAVITY + 1.0)
        a[195:206] = unit[195:206] * (GRAVITY + 1.0)
        a[200] = unit[200] * GRAVITY
        accel = stream(t, a)
        monkeypatch.setattr(heading, "_LOCKSTEP_CHAINS", cutover)
        monkeypatch.setattr(heading, "_BLOCK", 100)
        att = track_attitude(accel, gyro, magn)
        _assert_columns_equal(att, _ref_track_attitude(accel, gyro, magn))
        snapped = a[200].tolist()
        assert att.gravity[200].tolist() == (a[200] / math.sqrt(fixed_dot(snapped, snapped))).tolist()
        assert len({tuple(g) for g in att.gravity[95:105].tolist()}) == 10  # rotating at every sample

    @pytest.mark.parametrize("dyadic", [False, True])
    def test_trust_gate_windows_across_edges(self, dyadic, monkeypatch):
        # blocks of 50 samples, windows of about 100 fixes: each window
        # reaches back over one or two edges, into fixes carried over
        accel, gyro, magn = _turning_phone(4, n=900, dyadic=dyadic)
        windows = []
        trust_gate = heading._trust_gate

        def recording(incs, starts, stops, gate):
            windows.extend((incs[0, a:b].tobytes(), incs[1, a:b].tobytes()) for a, b in zip(starts, stops))
            return trust_gate(incs, starts, stops, gate)

        monkeypatch.setattr(heading, "_trust_gate", recording)
        monkeypatch.setattr(heading, "_BLOCK", 50)
        att = track_attitude(accel, gyro, magn)
        expected = []
        ref = _ref_track_attitude(accel, gyro, magn, windows=expected)
        assert windows == expected
        assert max(len(a) for a, _ in windows) // 8 > 2 * heading._BLOCK
        _assert_columns_equal(att, ref)
        assert 0 < att.mag_trust.sum() < len(att)

    @pytest.mark.parametrize("block", [7, 50])
    def test_step_windows_across_edges(self, block, monkeypatch):
        # PCA windows of about 52 rows and a smoothing window of 51 rows:
        # in blocks of 50 each window crosses an edge or reaches close to
        # one, in blocks of 7 each spans several blocks
        accel, gyro, magn = _turning_phone(5)
        log = SensorLog(accel=accel, gyro=gyro, magn=magn)
        times = accel.app_timestamp
        assert heading._smoothing_window(times) == 51
        seen = []
        motion_directions = heading._motion_directions

        def recording(xy, counts, phone_yaws, cfg):
            seen.extend((w.shape, w.tobytes()) for w in np.split(xy, np.cumsum(counts)[:-1]))
            return motion_directions(xy, counts, phone_yaws, cfg)

        monkeypatch.setattr(heading, "_motion_directions", recording)
        monkeypatch.setattr(heading, "_BLOCK", block)
        new, ref = _steps(times), _steps(times)
        step_headings(new, log)
        monkeypatch.undo()
        expected = []
        _ref_step_headings(ref, log, windows=expected)
        assert seen == expected
        assert repr([s.heading_rad for s in new]) == repr([s.heading_rad for s in ref])
        lo = np.searchsorted(times, [s.peak_time - 0.375 for s in new], side="right")
        hi = np.searchsorted(times, [s.valley_time for s in new], side="right")
        assert (lo // block < (hi - 1) // block).sum() >= len(new) // 2  # windows that cross an edge

    def test_duplicate_timestamps_at_an_edge(self, monkeypatch):
        # samples 99-102 share one time across the edge at 100, and samples
        # 199-200 repeat one record across the edge at 200: a block starts
        # with a dt of 0, and with compass fixes at the time of fixes in the
        # block before, which the magnetometer, read at the accel's times,
        # also repeats
        accel, gyro, magn = _turning_phone(7)
        t, a = accel.app_timestamp.copy(), accel.values.copy()
        t[100:103] = t[99]
        t[200], a[200] = t[199], a[199]
        accel = stream(t, a)
        magn = stream(t, magn.values[nearest_index(magn.app_timestamp, t)])
        log = SensorLog(accel=accel, gyro=gyro, magn=magn)
        monkeypatch.setattr(heading, "_BLOCK", 100)
        _assert_columns_equal(track_attitude(accel, gyro, magn), _ref_track_attitude(accel, gyro, magn))
        new, ref = _steps(t), _steps(t)
        step_headings(new, log)
        monkeypatch.undo()
        _ref_step_headings(ref, log)
        assert repr([s.heading_rad for s in new]) == repr([s.heading_rad for s in ref])


class TestBoundedMemory:
    """Traced (tracemalloc) peaks of the heading stage: its transient memory
    follows the block, not the log."""

    @staticmethod
    def _traced_peak(fn, *args):
        tracemalloc.start()
        try:
            fn(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_process_log_peak_on_phone_a(self, default_corpus):
        # measured: 2.5 MiB, against 4.75 MiB when the heading stage took
        # the whole log at once
        _, log, _ = default_corpus[0]
        assert len(log.accel) > 3 * heading._BLOCK
        assert self._traced_peak(process_log, log, PipelineConfig(), default_gait_model()) <= 3 * 2**20

    def test_step_headings_peak_grows_only_by_the_records(self, default_corpus):
        # phone-a's segments twice over: about 15 600 more samples, 0.5 MiB
        # more attitude records; whole-log temporaries grew the peak by
        # about 4.5 MiB more
        script, log, _ = default_corpus[0]
        twice, _ = generate(dataclasses.replace(script, segments=script.segments * 2))
        peaks = [self._traced_peak(step_headings, _detected_steps(x), x) for x in (log, twice)]
        records = (len(twice.accel) - len(log.accel)) * ATTITUDE_DTYPE.itemsize
        assert peaks[1] - peaks[0] <= records + 2**19
