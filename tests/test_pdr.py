import math

import numpy as np
import pytest

from streams import stream
from trackforge.floors import segment_trajectory
from trackforge.logio import SensorLog, WifiObservation, parse_log, serialize_log
from trackforge.pdr import WifiBatch, group_wifi_batches, integrate, pdr_update
from trackforge.stepdetect import Step


def make_steps(specs):
    """specs: (peak_time, stride, heading) tuples"""
    steps = []
    for k, (t, stride, heading) in enumerate(specs):
        steps.append(
            Step(
                peak_index=10 * k + 5,
                valley_index=10 * k + 8,
                peak_time=t,
                valley_time=t + 0.25,
                jerk=3.0,
                pace=0.5,
                stride_m=stride,
                heading_rad=heading,
            )
        )
    return steps


def minimal_log(n_accel=200, dt=0.01):
    t = np.arange(n_accel) * dt
    return SensorLog(
        accel=stream(t, [(0.0, 0.0, 9.81)] * len(t)),
        source_id="pdr-test",
    )


class TestPdrUpdate:
    def test_axis_cases(self):
        assert pdr_update((0.0, 0.0), 1.0, 0.0) == pytest.approx((1.0, 0.0))
        assert pdr_update((0.0, 0.0), 1.0, math.pi / 2) == pytest.approx((0.0, 1.0))
        assert pdr_update((2.0, 3.0), 2.0, math.pi) == pytest.approx((0.0, 3.0))

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            pdr_update((0.0, 0.0), 0.0, 0.0)
        with pytest.raises(ValueError):
            pdr_update((0.0, 0.0), 1.0, float("nan"))


class TestIntegrate:
    def test_square_returns_to_origin(self):
        specs = []
        t = 1.0
        for theta in (0.0, math.pi / 2, math.pi, 3 * math.pi / 2):
            for _ in range(10):
                specs.append((t, 1.0, theta))
                t += 0.5
        traj = integrate(make_steps(specs), minimal_log(3000))
        x, y = traj.points[-1]
        assert math.hypot(x, y) < 1e-12

    def test_straight_line_endpoint(self):
        specs = [(1.0 + 0.5 * k, 0.7, 0.0) for k in range(10)]
        traj = integrate(make_steps(specs), minimal_log(1000))
        assert traj.points[-1, 0] == pytest.approx(7.0)
        assert traj.points[-1, 1] == pytest.approx(0.0)

    def test_empty_steps_single_origin_point(self):
        traj = integrate([], minimal_log())
        assert len(traj) == len(traj.points) == 1
        assert traj.points.tolist() == [[0.0, 0.0]]

    def test_point_count_and_ordering(self):
        specs = [(1.0 + 0.5 * k, 0.7, 0.1 * k) for k in range(8)]
        steps = make_steps(specs)
        traj = integrate(steps, minimal_log(1000))
        assert traj.points.shape == (9, 2)
        for column in (traj.t, traj.baro_hpa, traj.wifi_ref):
            assert column.shape == (9,)
        times = traj.t.tolist()
        assert times == sorted(times)
        # row 0 is the origin at the first accel sample, row k + 1 is step k
        assert times == [0.0] + [s.peak_time for s in steps]

    def test_endpoint_equals_refold_of_updates(self):
        rng = np.random.default_rng(8)
        specs = [(1.0 + 0.5 * k, float(rng.uniform(0.4, 1.0)), float(rng.uniform(-3, 3)))
                 for k in range(30)]
        steps = make_steps(specs)
        traj = integrate(steps, minimal_log(2000))
        pos = (0.0, 0.0)
        for s in steps:
            pos = pdr_update(pos, s.stride_m, s.heading_rad)
        assert traj.points[-1].tolist() == list(pos)

    def test_global_heading_offset_is_rigid(self):
        rng = np.random.default_rng(9)
        base = [(1.0 + 0.5 * k, float(rng.uniform(0.4, 1.0)), float(rng.uniform(-3, 3)))
                for k in range(40)]
        delta = 0.83
        rotated = [(t, s, h + delta) for t, s, h in base]
        p0 = integrate(make_steps(base), minimal_log(4000)).points
        p1 = integrate(make_steps(rotated), minimal_log(4000)).points
        d0 = np.linalg.norm(p0[:, None, :] - p0[None, :, :], axis=-1)
        d1 = np.linalg.norm(p1[:, None, :] - p1[None, :, :], axis=-1)
        assert np.max(np.abs(d0 - d1)) < 1e-9

    def test_trajectory_length_invariant_to_heading_noise(self):
        rng = np.random.default_rng(10)
        strides = [float(rng.uniform(0.4, 1.0)) for _ in range(25)]
        quiet = [(1.0 + 0.5 * k, s, 0.0) for k, s in enumerate(strides)]
        noisy = [(t, s, float(rng.uniform(-3, 3))) for t, s, _ in quiet]
        t0 = integrate(make_steps(quiet), minimal_log(2000)).points
        t1 = integrate(make_steps(noisy), minimal_log(2000)).points
        length = lambda p: np.sum(np.hypot(*np.diff(p, axis=0).T))
        assert length(t0) == pytest.approx(length(t1), abs=1e-9)

    def test_missing_stride_or_heading_rejected(self):
        step = make_steps([(1.0, 0.7, 0.0)])[0]
        step.stride_m = None
        with pytest.raises(ValueError):
            integrate([step], minimal_log())


class TestAnnotations:
    def test_baro_nearest_with_tie_to_earlier(self):
        log = SensorLog(
            accel=stream(0.1 * np.arange(40), [(0.0, 0.0, 9.81)] * 40),
            baro=stream([0.5, 1.5], [1000.0, 1001.0], width=1),
        )
        traj = integrate(make_steps([(1.0, 0.7, 0.0)]), log)
        # t=1.0 is equidistant from 0.5 and 1.5: the earlier sample wins
        assert traj.baro_hpa[-1] == pytest.approx(1000.0)

    def test_wifi_within_window_only(self):
        wifi = (
            WifiObservation(0.9, 0.9, "a", "aa:bb:cc:00:00:01", 2412, -50),
            WifiObservation(30.0, 30.0, "a", "aa:bb:cc:00:00:02", 2412, -60),
        )
        log = SensorLog(
            accel=stream(0.1 * np.arange(400), [(0.0, 0.0, 9.81)] * 400),
            wifi=wifi,
        )
        traj = integrate(make_steps([(1.0, 0.7, 0.0), (10.0, 0.7, 0.0)]), log)
        assert traj.wifi_ref[1] == 0       # 0.9 s away
        assert traj.wifi_ref[2] == -1      # nearest burst is 20 s away

    def test_wifi_window_edge(self):
        wifi = (WifiObservation(6.0, 6.0, "a", "aa:bb:cc:00:00:01", 2412, -50),)
        log = SensorLog(accel=stream(0.1 * np.arange(200), [(0.0, 0.0, 9.81)] * 200), wifi=wifi)
        traj = integrate(make_steps([(1.0, 0.7, 0.0), (11.01, 0.7, 0.0)]), log)
        assert traj.wifi_ref.tolist() == [-1, 0, -1]  # 6.0, 5.0 and 5.01 s away
        assert traj.wifi_ref.dtype.kind == "i"

    def test_log_without_pres_has_nan_pressures_and_one_segment(self):
        log = SensorLog(
            accel=stream(0.1 * np.arange(400), [(0.0, 0.0, 9.81)] * 400),
            baro=stream([0.5, 1.5], [1000.0, 1001.0], width=1),
            source_id="nopres",
        )
        text = "".join(line for line in serialize_log(log).splitlines(True) if not line.startswith("PRES"))
        log = parse_log(text.encode(), source_id="nopres")
        assert not log.baro
        traj = integrate(make_steps([(1.0 + 0.5 * k, 0.7, 0.0) for k in range(30)]), log)
        assert traj.baro_hpa.dtype == float
        assert np.isnan(traj.baro_hpa).all()
        (segment,) = segment_trajectory(traj, 0.1, 10)
        assert segment.point_range == (0, 31)
        assert math.isnan(segment.mean_pressure)

    def test_slice_is_a_segment_sharing_wifi_batches(self):
        wifi = tuple(
            WifiObservation(t, t, "a", f"aa:bb:cc:00:00:{k:02x}", 2412, -50) for k, t in enumerate((1.0, 9.0))
        )
        log = SensorLog(
            accel=stream(0.1 * np.arange(200), [(0.0, 0.0, 9.81)] * 200),
            baro=stream([0.5, 1.5, 8.0], [1000.0, 1001.0, 1002.0], width=1),
            wifi=wifi,
            source_id="sliced",
        )
        traj = integrate(make_steps([(1.0 + 0.5 * k, 0.7, 0.1 * k) for k in range(20)]), log)
        seg = traj[5:12]
        assert len(seg) == 7
        assert seg.wifi_batches is traj.wifi_batches
        assert seg.source_id == "sliced"
        for name in ("points", "t", "baro_hpa", "wifi_ref"):
            assert getattr(seg, name).tobytes() == getattr(traj, name)[5:12].tobytes()

    def test_synthetic_baro_alignment(self):
        from trackforge.config import PipelineConfig
        from trackforge.pipeline import process_log
        from trackforge.stride import Gait, default_gait_model
        from trackforge.synth import WalkScript, WalkSegmentSpec, generate

        script = WalkScript(
            source_id="two-floor", seed=3,
            segments=[
                WalkSegmentSpec(floor=1, gait=Gait.NORMAL, heading_rad=0.0, steps=20),
                WalkSegmentSpec(floor=2, gait=Gait.NORMAL, heading_rad=0.0, steps=20),
            ],
        )
        log, _ = generate(script)
        item = process_log(log, PipelineConfig(), default_gait_model())
        baro_times = log.baro.app_timestamp
        period = float(np.median(np.diff(baro_times)))
        assert not np.isnan(item.trajectory.baro_hpa).any()
        for t in item.trajectory.t:
            nearest = float(np.min(np.abs(baro_times - t)))
            assert nearest <= period


class TestWifiBatching:
    def test_burst_grouping(self):
        times = [0.0, 0.01, 0.02, 2.0, 2.01, 7.5]
        wifi = tuple(
            WifiObservation(t, t, "x", f"aa:bb:cc:00:00:{k:02x}", 2412, -50)
            for k, t in enumerate(times)
        )
        batches = group_wifi_batches(wifi)
        assert [len(b.observations) for b in batches] == [3, 2, 1]

    def test_burst_time_adds_left_to_right(self):
        """Ten times of 0.1 add up to 0.9999999999999999 one after the other,
        on every Python; the compensated sum() of Python 3.12 gives 1.0."""
        wifi = [WifiObservation(0.1, 0.1, "x", "aa:bb:cc:00:00:01", 2412, -60)] * 10
        assert [b.time for b in group_wifi_batches(wifi)] == [0.9999999999999999 / 10]

    def test_rss_map_keeps_strongest(self):
        obs = (
            WifiObservation(0.0, 0.0, "x", "aa:bb:cc:00:00:01", 2412, -70),
            WifiObservation(0.01, 0.01, "x", "aa:bb:cc:00:00:01", 2412, -55),
        )
        batch = WifiBatch(time=0.0, observations=obs)
        assert batch.rss_map() == {"aa:bb:cc:00:00:01": -55}
