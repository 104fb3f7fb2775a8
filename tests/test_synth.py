import json
import math
from dataclasses import fields, replace

import numpy as np
import pytest

from trackforge.logio import parse_log, serialize_log
from trackforge.stride import Gait
from trackforge.synth import (
    GAIT_PROFILES,
    LEAD_SECONDS,
    MAX_RENDER_SIZE,
    GroundTruth,
    WalkScript,
    WalkSegmentSpec,
    default_corpus_scripts,
    floor_pressure,
    generate,
    load_script,
    save_script,
    write_corpus,
)


def straight_script(steps=10, seed=1, **kwargs):
    return WalkScript(
        source_id="straight", seed=seed,
        segments=[WalkSegmentSpec(floor=1, gait=Gait.NORMAL, heading_rad=0.0, steps=steps)],
        **kwargs,
    )


class TestGenerate:
    def test_zero_noise_straight_truth_collinear(self):
        _, truth = generate(straight_script())
        pts = np.array(truth.points)
        assert len(pts) == 11
        assert np.allclose(pts[:, 1], 0.0)
        assert np.all(np.diff(pts[:, 0]) > 0)

    def test_seed_determinism_bit_identical(self):
        log_a, _ = generate(straight_script(seed=9))
        log_b, _ = generate(straight_script(seed=9))
        assert serialize_log(log_a) == serialize_log(log_b)

    def test_different_seeds_differ(self):
        a, _ = generate(straight_script(seed=1, noise={"accel": 0.1, "gyro": 0, "magn": 0, "baro": 0}))
        b, _ = generate(straight_script(seed=2, noise={"accel": 0.1, "gyro": 0, "magn": 0, "baro": 0}))
        assert serialize_log(a) != serialize_log(b)

    def test_three_floor_plateaus_match_closed_form(self):
        script = WalkScript(
            source_id="threefloor", seed=3, baro_bias_hpa=0.25,
            segments=[
                WalkSegmentSpec(floor=f, gait=Gait.NORMAL, heading_rad=0.0, steps=20)
                for f in (1, 2, 3)
            ],
        )
        log, truth = generate(script)
        values = log.baro.values[:, 0]
        for f in (1, 2, 3):
            expected = floor_pressure(f) + 0.25
            assert expected == pytest.approx(1013.25 - 0.12 * (f - 1) * 3.3 + 0.25)
            # a plateau at the scripted pressure must exist in the stream
            assert np.min(np.abs(values - expected)) < 1e-9
            assert truth.floor_pressures[f] == pytest.approx(expected)

    def test_zero_noise_prints_no_negative_zero(self):
        script = straight_script()
        script.segments[0].heading_rad = -0.0  # the first magnetometer x is then sin(-0.0)
        assert "-0.0" not in serialize_log(generate(script)[0]).replace("\n", ";").split(";")

    def test_round_trip_through_logio(self):
        log, _ = generate(straight_script(noise={"accel": 0.2, "gyro": 0.01, "magn": 0.1, "baro": 0.02}))
        assert parse_log(serialize_log(log).encode(), source_id=log.source_id) == log

    def test_wifi_draws_from_floor_pool(self):
        script = straight_script()
        log, _ = generate(script)
        assert all(obs.bssid.startswith("02:00:00:00:01:") for obs in log.wifi)

    def test_truth_shapes_consistent(self):
        script = WalkScript(
            source_id="shapes", seed=11,
            segments=[
                WalkSegmentSpec(floor=1, gait=Gait.SLOW, heading_rad=0.0, steps=12),
                WalkSegmentSpec(floor=1, gait=Gait.FAST, heading_rad=1.3, steps=12),
                WalkSegmentSpec(floor=2, gait=Gait.NORMAL, heading_rad=1.3, steps=12),
            ],
        )
        _, truth = generate(script)
        n_steps = len(truth.step_times)
        assert len(truth.points) == n_steps + 1
        assert len(truth.point_floors) == n_steps + 1
        assert len(truth.step_gaits) == n_steps == len(truth.step_headings)
        assert truth.corner_indices == [12]
        assert any(f is None for f in truth.step_floors)  # stair steps
        assert truth.step_times == sorted(truth.step_times)

    def test_validation_rejects_bad_scripts(self):
        with pytest.raises(ValueError):
            WalkScript(source_id="x", seed=0, segments=[]).validate()
        with pytest.raises(ValueError):
            generate(WalkScript(
                source_id="x", seed=0,
                segments=[WalkSegmentSpec(floor=1, gait=Gait.NORMAL, heading_rad=0.0, steps=0)],
            ))
        bad = straight_script()
        bad.wifi_leakage = 1.5
        with pytest.raises(ValueError):
            generate(bad)
        uneven = straight_script()
        uneven.segments[0].drift = [0.0] * 3
        with pytest.raises(ValueError):
            generate(uneven)

    def test_generated_pools_reach_floors_0_and_255(self):
        """A generated BSSID holds its floor and its AP index in one byte each,
        so floors 0 and 255 with 256 APs per floor render a log that parses."""
        script = WalkScript(
            source_id="bytes", seed=3, imu_rate_hz=20.0, stair_seconds=1.0, aps_per_floor=256, wifi_period_s=0.05,
            segments=[WalkSegmentSpec(floor=f, gait=Gait.NORMAL, heading_rad=0.0, steps=8) for f in (0, 255)],
        )
        log, _ = generate(script)
        bssids = {w.bssid for w in parse_log(serialize_log(log).encode()).wifi}
        assert {b[-5:-3] for b in bssids} == {"00", "ff"}
        assert len({b[-2:] for b in bssids}) > 200

    def test_render_bound_admits_the_long_log(self):
        """phone-a's segments four times over, about 67 000 samples, WiFi
        records and steps, render; eight times over at 1000 Hz, about 1.2
        million, exceed ``MAX_RENDER_SIZE`` and are rejected before anything
        is drawn."""
        phone_a = default_corpus_scripts()[0]
        replace(phone_a, segments=phone_a.segments * 4).validate()
        with pytest.raises(ValueError, match=f"more than {MAX_RENDER_SIZE}"):
            replace(phone_a, segments=phone_a.segments * 8, imu_rate_hz=1000.0).validate()


class TestTimelineLookup:
    """Each barometer sample and WiFi burst takes the interval that holds it,
    checked against a scan of the timeline per time. Every interval ends on a
    sample time: the 1.0 s lead-in and the 5.0 s corridors and stair at 2 Hz
    barometer and a 0.5 s WiFi period."""

    WALK = 9 / GAIT_PROFILES[Gait.NORMAL].frequency_hz  # 5.0 s, as is the stair's 9 steps

    @pytest.fixture(scope="class")
    def render(self):
        script = WalkScript(
            source_id="boundaries", seed=5, wifi_period_s=0.5, wifi_leakage=0.0, turn_seconds=0.0, stair_seconds=5.0,
            segments=[WalkSegmentSpec(floor=f, gait=Gait.NORMAL, heading_rad=h, steps=9)
                      for f, h in ((1, 0.0), (1, 1.5), (2, 1.5), (2, 0.0))],
        )
        return generate(script)

    def timeline(self):
        """(kind, t0, t1, floor it leaves, floor it reaches), end to end as the
        generator lays them out; the turns take no time."""
        kinds = [("quiet", 1, 1), ("walk", 1, 1), ("turn", 1, 1), ("walk", 1, 1), ("stair", 1, 2),
                 ("walk", 2, 2), ("turn", 2, 2), ("walk", 2, 2), ("quiet", 2, 2)]
        seconds = [LEAD_SECONDS, self.WALK, 0.0, self.WALK, self.WALK, self.WALK, 0.0, self.WALK, LEAD_SECONDS]
        ends = np.cumsum(seconds).tolist()
        assert ends == [1.0, 6.0, 6.0, 11.0, 16.0, 21.0, 21.0, 26.0, 27.0]
        return [(kind, t1 - dt, t1, f0, f1) for (kind, f0, f1), dt, t1 in zip(kinds, seconds, ends)]

    def scan(self, time):
        """The interval holding ``time`` by a scan; the lead-out from its end on."""
        timeline = self.timeline()
        return next((iv for iv in timeline if iv[1] <= time < iv[2]), timeline[-1])

    def test_barometer_matches_the_scan(self, render):
        log, _ = render
        times, values = log.baro.app_timestamp, log.baro.values[:, 0]
        expected = []
        for t in times:
            kind, t0, t1, f0, f1 = self.scan(t)
            p0 = floor_pressure(f0)
            expected.append(p0 + (t - t0) / (t1 - t0) * (floor_pressure(f1) - p0) if kind == "stair" else p0)
        assert values.tolist() == expected
        assert {1.0, 6.0, 11.0, 16.0, 21.0} <= set(times.tolist())
        # along the stair, the ramp from floor 1's plateau down to floor 2's
        ramp = values[(times >= 11.0) & (times <= 16.0)]
        assert ramp[0] == floor_pressure(1) and ramp[-1] == floor_pressure(2)
        assert np.all(np.diff(ramp) < 0)
        assert np.allclose(ramp, floor_pressure(1) + (np.arange(11) / 10) * (floor_pressure(2) - floor_pressure(1)))

    def test_wifi_burst_on_a_boundary_takes_the_later_interval(self, render):
        log, _ = render
        floor_aps = {f: {f"02:00:00:00:{f:02x}:{k:02x}" for k in range(20)} for f in (1, 2)}
        stair_aps = {b for f in (1, 2) for b in sorted(floor_aps[f])[:5]}
        bursts: dict[float, set[str]] = {}
        for obs in log.wifi:
            bursts.setdefault(math.floor(obs.app_timestamp / 0.5) * 0.5, set()).add(obs.bssid)
        assert sorted(bursts) == [0.5 * k for k in range(1, 54)]
        for t, bssids in bursts.items():
            kind, _, _, floor, _ = self.scan(t)
            assert bssids <= (stair_aps if kind == "stair" else floor_aps[floor]), t
        # the stair starts at 11.0 and ends at 16.0: 8 of its 10 APs include floor 2's and floor 1's
        assert bursts[11.0] & floor_aps[2] and bursts[15.5] & floor_aps[1]
        assert bursts[16.0] <= floor_aps[2]

    def test_corner_indices_count_the_steps_before_each_turn(self, render):
        _, truth = render
        # the corners at 6.0 s (floor 1) and 21.0 s (floor 2), the stair's 9 steps in between
        assert truth.corner_indices == [sum(t < corner for t in truth.step_times) for corner in (6.0, 21.0)]
        assert truth.corner_indices == [9, 36]


class TestScriptIO:
    def test_json_round_trip(self, tmp_path):
        script = default_corpus_scripts()[0]
        path = tmp_path / "walk.json"
        save_script(script, path)
        loaded = load_script(path)
        assert loaded == script

    def test_ground_truth_json_round_trip(self):
        _, truth = generate(straight_script())
        again = GroundTruth.from_json(json.loads(json.dumps(truth.to_json())))
        assert again == truth

    def test_ground_truth_json_holds_every_field(self):
        _, truth = generate(straight_script())
        assert list(truth.to_json()) == [f.name for f in fields(GroundTruth)]


    def test_json_round_trip_every_optional_field(self, tmp_path):
        script = WalkScript(
            source_id="every-field", seed=5,
            segments=[
                WalkSegmentSpec(floor=2, gait=Gait.FAST, heading_rad=0.5, steps=3, drift=[0.0, 0.1, -0.2]),
                WalkSegmentSpec(floor=4, gait=Gait.SLOW, heading_rad=-1.0, steps=4,
                                drift={"jitter_step": 0.2, "clip": 0.3}),
            ],
            noise={"accel": 0.3, "gyro": 0.01, "magn": 0.2, "baro": 0.05},
            baro_bias_hpa=-0.3, aps_per_floor=6, wifi_leakage=0.25,
            ap_pools={2: ["02:00:00:00:aa:00", "02:00:00:00:aa:01"], 4: ["02:00:00:00:bb:00"]},
            imu_rate_hz=50.0, baro_rate_hz=4.0, wifi_period_s=1.5, turn_seconds=0.5, stair_seconds=3.0,
        )
        defaults = WalkScript(source_id="every-field", seed=5, segments=script.segments)
        for f in fields(WalkScript)[3:]:
            assert getattr(script, f.name) != getattr(defaults, f.name), f.name
        path = tmp_path / "walk.json"
        save_script(script, path)
        assert load_script(path) == script

    def test_json_null_optional_keys_keep_defaults(self):
        doc = {
            "source_id": "nulls", "seed": 2,
            "segments": [{"floor": 1, "gait": "normal", "heading_rad": 0.0, "steps": 4, "drift": None}],
        }
        optional = [f.name for f in fields(WalkScript)[3:]]
        script = WalkScript.from_json({**doc, **dict.fromkeys(optional)})
        assert script == WalkScript.from_json(doc) == WalkScript(
            source_id="nulls", seed=2,
            segments=[WalkSegmentSpec(floor=1, gait=Gait.NORMAL, heading_rad=0.0, steps=4)],
        )

    def test_truth_floor_keys_sort_as_text(self, tmp_path):
        script = WalkScript(
            source_id="tower", seed=4, imu_rate_hz=20.0, stair_seconds=1.0,
            segments=[WalkSegmentSpec(floor=f, gait=Gait.NORMAL, heading_rad=0.0, steps=2) for f in range(1, 11)],
        )
        write_corpus([script], tmp_path)
        doc = json.loads((tmp_path / "tower.truth.json").read_bytes())
        assert list(doc["floor_pressures"]) == ["1", "10", "2", "3", "4", "5", "6", "7", "8", "9"]
        assert GroundTruth.from_json(doc) == generate(script)[1]


def _serial_render(scripts):
    """{file name: bytes} of the scripts rendered one after another in this process."""
    files = {}
    for script in scripts:
        log, truth = generate(script)
        files[f"{script.source_id}.tsl"] = serialize_log(log).encode()
        files[f"{script.source_id}.truth.json"] = (json.dumps(truth.to_json(), indent=1, sort_keys=True) + "\n").encode()
    return files


def _mixed_scripts():
    """A default-corpus phone, a 20 Hz three-floor walk and a short straight walk."""
    return [
        default_corpus_scripts()[1],
        WalkScript(
            source_id="slow-rate", seed=8, imu_rate_hz=20.0, stair_seconds=3.0,
            noise={"accel": 0.2, "gyro": 0.02, "magn": 0.1, "baro": 0.02},
            segments=[WalkSegmentSpec(floor=f, gait=Gait.FAST, heading_rad=0.4 * f, steps=6) for f in (3, 1, 2)],
        ),
        straight_script(seed=4),
    ]


class TestWriteCorpus:
    @pytest.mark.parametrize("scripts", [
        default_corpus_scripts, _mixed_scripts, lambda: [straight_script(seed=6)],
    ], ids=["default-corpus", "mixed-rates", "single-script"])
    def test_bytes_equal_serial_render(self, scripts, tmp_path):
        write_corpus(scripts(), tmp_path)
        written = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
        assert written == _serial_render(scripts())

    def test_paths_in_script_order(self, tmp_path):
        ids = ["zeta", "alpha", "mid", "beta", "omega", "a.b"]
        scripts = [replace(straight_script(steps=3, seed=k), source_id=s) for k, s in enumerate(ids)]
        assert write_corpus(scripts, tmp_path) == [tmp_path / f"{s}.tsl" for s in ids]

    def test_duplicate_source_id_rejected_before_writing(self, tmp_path):
        scripts = [straight_script(seed=1), straight_script(seed=2)]
        with pytest.raises(ValueError, match="duplicate source_id 'straight'"):
            write_corpus(scripts, tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_invalid_script_writes_no_partial_corpus(self, tmp_path):
        bad = replace(straight_script(), source_id="bad", wifi_leakage=1.5)
        with pytest.raises(ValueError, match="wifi_leakage"):
            write_corpus([straight_script(), bad], tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_no_scripts_writes_nothing(self, tmp_path):
        assert write_corpus([], tmp_path / "out") == []
        assert list((tmp_path / "out").iterdir()) == []


class TestDefaultCorpus:
    def test_three_phones_three_floors(self, default_corpus):
        assert len(default_corpus) == 3
        for script, log, truth in default_corpus:
            floors = {s.floor for s in script.segments}
            assert floors == {1, 2, 3}
            assert abs(script.baro_bias_hpa) <= 0.5
            assert script.wifi_leakage == pytest.approx(0.1)
            assert script.noise["baro"] == pytest.approx(0.02)
            assert len(truth.corner_indices) == 6

    def test_corner_angles_at_least_1_2_rad(self, default_corpus):
        for script, _, _ in default_corpus:
            prev = None
            prev_floor = None
            for seg in script.segments:
                if prev is not None and seg.floor == prev_floor and seg.heading_rad != prev:
                    turn = abs(math.atan2(math.sin(seg.heading_rad - prev), math.cos(seg.heading_rad - prev)))
                    assert turn >= 1.2 - 1e-9
                prev, prev_floor = seg.heading_rad, seg.floor

    def test_per_step_heading_changes_bounded(self, default_corpus):
        for _, _, truth in default_corpus:
            heads = np.array(truth.step_headings)
            floors = truth.step_floors
            for k in range(1, len(heads)):
                # within one corridor (same floor, no scripted corner crossing)
                if floors[k] is not None and floors[k] == floors[k - 1] \
                        and (k not in truth.corner_indices):
                    d = abs(math.atan2(math.sin(heads[k] - heads[k - 1]),
                                       math.cos(heads[k] - heads[k - 1])))
                    if d < 1.0:  # skip corner boundaries
                        assert d <= 0.3 + 1e-9
