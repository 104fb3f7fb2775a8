"""Synthetic multi-floor walk generator with full ground truth.

A WalkScript is a sequence of corridor segments (floor, gait, base heading,
step count, optional per-step heading drift). The generator expands it to a
timeline: a quiet lead-in, walk intervals, turn-in-place intervals wherever
the heading changes between corridors, and stair intervals (walking, pressure
ramp) wherever the floor changes. It then renders physically consistent
sensor streams:

  - accel: gravity plus per-step sinusoid bursts, vertical amplitude and
    cadence from the gait profile, horizontal oscillation along the phone's
    forward axis (the phone faces the walking direction, held flat);
  - gyro:  z rate equal to the slope of the piecewise-linear yaw profile;
  - magn:  a horizontal+vertical field rotated by the yaw profile;
  - baro:  per-floor plateau 1013.25 - 0.12 * (floor - 1) * 3.3 hPa plus a
    per-phone bias, ramping linearly during stairs;
  - wifi:  bursts every couple of seconds drawn from the current floor's AP
    pool, with a configurable fraction leaked from other floors.

i.i.d. Gaussian noise per sensor; everything is deterministic under the seed.
The returned GroundTruth carries true step times, gaits, headings, per-point
floors, trajectory points, and the same-floor corner indices, which is what
the evaluation kit scores the pipeline against.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import asdict, dataclass, field, fields
from functools import partial
from itertools import accumulate, repeat, takewhile
from pathlib import Path

import numpy as np

from .forked import forked_map
from .heading import GRAVITY, wrap_angle
from .logio import _BSSID_RE, SensorLog, SensorStream, WifiObservation, serialize_log, write_json, write_text
from .stride import DEFAULT_STRIDE_TABLE, Gait

BASE_PRESSURE_HPA = 1013.25
PRESSURE_PER_METER_HPA = 0.12
FLOOR_HEIGHT_M = 3.3

FIELD_HORIZONTAL_UT = 25.0
FIELD_VERTICAL_UT = 40.0

LEAD_SECONDS = 1.0       # quiet lead-in and lead-out
STAIR_GAIT = Gait.NORMAL  # stairs are climbed at normal cadence
MAX_RENDER_SIZE = 1 << 20  # samples, WiFi records and steps of one render
WIFI_PER_BURST = 8  # access points a WiFi burst reports at most


@dataclass(frozen=True)
class GaitProfile:
    frequency_hz: float
    vertical_amp: float    # m/s^2
    horizontal_amp: float  # m/s^2


# Cadences and amplitudes keep neighbouring gaits within reach of the adaptive
# thresholds. The binding case: one long inter-corridor pace (~1.6 s) in a
# buffer of slow steps (0.77 s) pushes the pace threshold to ~0.43, so the
# fast cadence must stay slower than that -- 2.1 Hz leaves a 0.045 s margin.
GAIT_PROFILES = {
    Gait.SLOW: GaitProfile(1.3, 1.5, 1.0),
    Gait.NORMAL: GaitProfile(1.8, 2.5, 1.0),
    Gait.FAST: GaitProfile(2.1, 4.0, 1.6),
}


def _finite(value) -> bool:
    """An int or float that is a finite float; JSON's true and false are not numbers."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and abs(value) <= sys.float_info.max


def _integer(value) -> bool:
    """An int; JSON's true and false are not numbers."""
    return isinstance(value, int) and not isinstance(value, bool)


def _given(cls, doc: dict, what: str) -> dict:
    """``doc`` without its nulls; ValueError when a key names no field of ``cls``."""
    if unknown := sorted(set(doc) - {f.name for f in fields(cls)}):
        raise ValueError(f"unknown {what} keys {unknown}")
    return {k: doc[k] for k in doc if doc[k] is not None}


@dataclass
class WalkSegmentSpec:
    floor: int
    gait: Gait
    heading_rad: float
    steps: int
    # None -> no drift; list -> explicit per-step drift; dict -> seeded random
    # walk {"jitter_step": x, "clip": y}
    drift: list[float] | dict | None = None


@dataclass
class WalkScript:
    source_id: str
    seed: int
    segments: list[WalkSegmentSpec]
    # optional keys of the JSON form; fields with defaults follow the three above
    noise: dict[str, float] = field(
        default_factory=lambda: {"accel": 0.0, "gyro": 0.0, "magn": 0.0, "baro": 0.0}
    )
    baro_bias_hpa: float = 0.0
    aps_per_floor: int = 20
    wifi_leakage: float = 0.1
    ap_pools: dict[int, list[str]] | None = None
    imu_rate_hz: float = 100.0
    baro_rate_hz: float = 2.0
    wifi_period_s: float = 2.0
    turn_seconds: float = 1.0
    stair_seconds: float = 6.0

    def validate(self) -> None:
        """ValueError unless every value is of its field's type and range."""
        if not isinstance(self.source_id, str) or self.source_id in ("", ".", "..") or {"/", "\\"} & set(self.source_id):
            raise ValueError(f"source_id must be a plain file stem, got {self.source_id!r}")
        if not _integer(self.seed) or self.seed < 0:
            raise ValueError(f"seed must be an int >= 0, got {self.seed!r}")
        if not self.segments:
            raise ValueError("script has no segments")
        for floor, pool in (self.ap_pools or {}).items():
            if not isinstance(pool, list) or not all(isinstance(b, str) and _BSSID_RE.fullmatch(b) for b in pool):
                raise ValueError(f"AP pool for floor {floor} must be a list of BSSIDs, got {pool!r}")
        # generated AP pools name their BSSIDs 02:00:00:00:<floor>:<k>, a byte each
        low_floor, most_aps = (-255, math.inf) if self.ap_pools else (0, 256)
        for seg in self.segments:
            if not _integer(seg.floor) or not low_floor <= seg.floor <= 255:
                raise ValueError(f"segment floor must be an int in {low_floor}..255, got {seg.floor!r}")
            if not isinstance(seg.gait, Gait):
                raise ValueError(f"segment gait must be a Gait, got {seg.gait!r}")
            if not _integer(seg.steps) or not 1 <= seg.steps <= MAX_RENDER_SIZE:
                raise ValueError(f"segment steps must be an int in 1..{MAX_RENDER_SIZE}, got {seg.steps!r}")
            if not _finite(seg.heading_rad):
                raise ValueError(f"segment heading_rad must be a finite number, got {seg.heading_rad!r}")
            if seg.drift is not None and not isinstance(seg.drift, (list, dict)):
                raise ValueError(f"segment drift must be null, a list or an object, got {seg.drift!r}")
            if isinstance(seg.drift, list) and len(seg.drift) != seg.steps:
                raise ValueError("explicit drift list must have one entry per step")
            if not all(map(_finite, seg.drift.values() if isinstance(seg.drift, dict) else seg.drift or ())):
                raise ValueError(f"drift entries must be finite numbers, got {seg.drift!r}")
            if isinstance(seg.drift, dict) and (unknown := sorted(set(seg.drift) - {"jitter_step", "clip"})):
                raise ValueError(f"drift object keys must be jitter_step or clip, got {unknown}")
            if self.ap_pools and seg.floor not in self.ap_pools:
                raise ValueError(f"no AP pool for floor {seg.floor}")
        for f in fields(self)[3:]:  # the optional keys; the scalar ones have number defaults
            if isinstance(f.default, (int, float)) and not _finite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be a finite number, got {getattr(self, f.name)!r}")
        if not _integer(self.aps_per_floor) or not 0 <= self.aps_per_floor <= most_aps:
            raise ValueError(f"aps_per_floor must be an int in 0..{most_aps}, got {self.aps_per_floor!r}")
        if not 0.0 <= self.wifi_leakage < 1.0:
            raise ValueError(f"wifi_leakage must be in [0, 1), got {self.wifi_leakage}")
        # the samples a render makes grow with the rates, and its WiFi bursts
        # as the period shrinks (one too small to move the burst time never ends)
        for name in ("imu_rate_hz", "baro_rate_hz"):
            if not 0 < getattr(self, name) <= 1000:
                raise ValueError(f"{name} must be in (0, 1000], got {getattr(self, name)}")
        if not self.wifi_period_s >= 0.01:
            raise ValueError(f"wifi_period_s must be >= 0.01, got {self.wifi_period_s}")
        if min(self.turn_seconds, self.stair_seconds) < 0:
            raise ValueError("turn_seconds and stair_seconds must be >= 0")
        if not isinstance(self.noise, dict) or not all(_finite(v) and v >= 0 for v in self.noise.values()):
            raise ValueError(f"noise must map sensor names to finite sigmas >= 0, got {self.noise!r}")
        if unknown := sorted(set(self.noise) - {"accel", "gyro", "magn", "baro"}):
            raise ValueError(f"noise keys must be accel, gyro, magn or baro, got {unknown}")
        # what a render holds, from the timeline alone: its seconds bound a turn
        # per segment and a stair per floor change, each stair rounded up a step
        stair_hz = GAIT_PROFILES[STAIR_GAIT].frequency_hz
        stairs = sum(a.floor != b.floor for a, b in zip(self.segments, self.segments[1:]))
        steps = sum(seg.steps for seg in self.segments) + stairs * (self.stair_seconds * stair_hz + 1)
        seconds = (2 * LEAD_SECONDS + sum(seg.steps / GAIT_PROFILES[seg.gait].frequency_hz for seg in self.segments)
                   + len(self.segments) * self.turn_seconds + stairs * (self.stair_seconds + 1 / stair_hz))
        size = steps + seconds * (self.imu_rate_hz + self.baro_rate_hz + WIFI_PER_BURST / self.wifi_period_s)
        if not size <= MAX_RENDER_SIZE:
            raise ValueError(f"script renders {size:.4g} samples, WiFi records and steps, more than {MAX_RENDER_SIZE}")

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, doc: dict) -> "WalkScript":
        """Decode a walk script; ValueError on an unknown key or a bad value; null means default.
        Values stay as JSON gives them, but for gait names (to Gait) and ``ap_pools`` keys (to int)."""
        script = cls(**_given(cls, doc, "walk-script"))
        script.segments = [WalkSegmentSpec(**_given(WalkSegmentSpec, s, "segment")) for s in script.segments]
        for seg in script.segments:
            seg.gait = Gait(seg.gait)
        if script.ap_pools is not None and not isinstance(script.ap_pools, dict):
            raise ValueError(f"ap_pools must map floors to BSSID lists, got {script.ap_pools!r}")
        script.ap_pools = {int(k): v for k, v in script.ap_pools.items()} if script.ap_pools else None
        script.validate()
        return script


@dataclass
class GroundTruth:
    source_id: str
    seed: int
    step_times: list[float]
    step_gaits: list[str]
    step_headings: list[float]
    step_floors: list[int | None]       # None while on stairs
    points: list[tuple[float, float]]   # origin first, one point per step after
    point_floors: list[int | None]
    corner_indices: list[int]           # point indices of same-floor scripted corners
    corner_points: list[tuple[float, float]]
    floor_pressures: dict[int, float]   # scripted plateau incl. phone bias

    def to_json(self) -> dict:
        """The sidecar document; it shares this truth's lists."""
        # Field by field, as dataclasses.asdict recurses into every value. str
        # keys, so that sort_keys orders the floors as text: "1", "10", "2".
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        doc["floor_pressures"] = {str(k): v for k, v in self.floor_pressures.items()}
        return doc

    @classmethod
    def from_json(cls, doc: dict) -> "GroundTruth":
        """Decode a sidecar; ValueError on a value of the wrong kind, or when its
        steps, points, floors and corners disagree."""
        truth = cls(**{f.name: doc[f.name] for f in fields(cls)})
        truth.points = _pairs(truth.points, "points")
        truth.corner_points = _pairs(truth.corner_points, "corner_points")
        truth.floor_pressures = {int(k): v for k, v in truth.floor_pressures.items()}
        if not all(map(_finite, [*truth.step_times, *truth.step_headings, *truth.floor_pressures.values()])):
            raise ValueError("step_times, step_headings and floor_pressures must hold finite numbers")
        if not all(f is None or _integer(f) for f in [*truth.step_floors, *truth.point_floors]):
            raise ValueError("step_floors and point_floors must hold ints and nulls")
        if not len(truth.step_gaits) == len(truth.step_headings) == len(truth.step_floors) == len(truth.step_times):
            raise ValueError("step_gaits, step_headings and step_floors must hold one entry per step")
        if not len(truth.point_floors) == len(truth.points) == len(truth.step_times) + 1:
            raise ValueError("points and point_floors must hold the origin and one entry per step")
        for i in truth.corner_indices:
            if not _integer(i) or not 0 <= i < len(truth.points):
                raise ValueError(f"corner index {i!r} is not an index into points")
        if len(truth.corner_points) != len(truth.corner_indices):
            raise ValueError("corner_points and corner_indices differ in length")
        return truth


def _pairs(values: list, key: str) -> list[tuple[float, float]]:
    """``values`` as (x, y) tuples; ValueError unless each is two finite numbers."""
    pairs = [tuple(p) for p in values]
    for p in pairs:
        if len(p) != 2 or not all(map(_finite, p)):
            raise ValueError(f"{key} must hold pairs of finite numbers, got {list(p)!r}")
    return pairs


def floor_pressure(floor: int | np.ndarray) -> float | np.ndarray:
    """Scripted plateau pressure for a floor, or each of an array of floors (floor 1 = ground, highest)."""
    return BASE_PRESSURE_HPA - PRESSURE_PER_METER_HPA * (floor - 1) * FLOOR_HEIGHT_M


def default_ap_pools(floors: list[int], aps_per_floor: int) -> dict[int, list[str]]:
    pools = {}
    for f in sorted(set(floors)):
        pools[f] = [f"02:00:00:00:{f:02x}:{k:02x}" for k in range(aps_per_floor)]
    return pools


@dataclass
class _Interval:
    kind: str                            # "quiet" | "walk" | "turn" | "stair"
    t0: float
    t1: float
    floor: int                           # for a stair, the floor it leaves
    to_floor: int                        # for a stair, the floor it reaches; else floor
    gait: Gait | None = None             # walk and stair only
    headings: list[float] | None = None  # per step; walk and stair only


def _expand_drift(spec: WalkSegmentSpec, rng: np.random.Generator) -> list[float]:
    if spec.drift is None:
        return [0.0] * spec.steps
    if isinstance(spec.drift, list):
        return spec.drift
    jitter = spec.drift.get("jitter_step", 0.1)
    clip = spec.drift.get("clip", 0.5)
    drift = [0.0]
    for _ in range(spec.steps - 1):
        step = rng.uniform(-jitter, jitter)
        drift.append(min(max(drift[-1] + step, -clip), clip))
    return drift


def generate(script: WalkScript) -> tuple[SensorLog, GroundTruth]:
    """Render a WalkScript into a SensorLog plus its GroundTruth."""
    script.validate()
    rng = np.random.default_rng(script.seed)
    floors = sorted({s.floor for s in script.segments})
    pools = script.ap_pools or default_ap_pools(floors, script.aps_per_floor)

    # --- timeline: intervals end to end from t = 0 ---------------------------
    intervals: list[_Interval] = []

    def append(kind: str, seconds: float, floor: int, to_floor: int | None = None, **kw) -> None:
        t0 = intervals[-1].t1 if intervals else 0.0
        intervals.append(_Interval(kind, t0, t0 + seconds, floor, floor if to_floor is None else to_floor, **kw))

    first = script.segments[0]
    append("quiet", LEAD_SECONDS, first.floor)
    corner_indices: list[int] = []  # steps taken before each same-floor corner
    steps_taken = 0
    prev_heading = first.heading_rad
    stair_hz = GAIT_PROFILES[STAIR_GAIT].frequency_hz
    for seg in script.segments:
        headings = [seg.heading_rad + d for d in _expand_drift(seg, rng)]
        floor = intervals[-1].floor
        turned = abs(wrap_angle(seg.heading_rad - prev_heading)) > 1e-12
        if turned and seg.floor == floor:
            corner_indices.append(steps_taken)
        if turned and script.turn_seconds > 0:
            append("turn", script.turn_seconds, floor)
        if seg.floor != floor:
            n_stair = max(1, round(script.stair_seconds * stair_hz))
            append("stair", n_stair / stair_hz, floor, to_floor=seg.floor, gait=STAIR_GAIT,
                   headings=[seg.heading_rad] * n_stair)
            steps_taken += n_stair
        append("walk", seg.steps / GAIT_PROFILES[seg.gait].frequency_hz, seg.floor,
               gait=seg.gait, headings=headings)
        steps_taken += len(headings)
        prev_heading = headings[-1]
    append("quiet", LEAD_SECONDS, intervals[-1].floor)
    total_t = intervals[-1].t1
    starts, ends = np.array([(iv.t0, iv.t1) for iv in intervals]).T

    def held_by(ts) -> np.ndarray:
        """Index of the interval holding each time, past the zero-length ones; the lead-out from its end on."""
        return np.minimum(np.searchsorted(ends, ts, side="right"), len(intervals) - 1)

    # --- steps: truth, yaw knots and accel bursts ----------------------------
    dt = 1.0 / script.imu_rate_hz
    n_imu = int(round(total_t * script.imu_rate_hz)) + 1
    times = np.arange(n_imu) * dt
    accel = np.zeros((n_imu, 3))
    accel[:, 2] = GRAVITY

    step_times: list[float] = []
    step_gaits: list[str] = []
    step_headings: list[float] = []
    step_floors: list[int | None] = []
    points: list[tuple[float, float]] = [(0.0, 0.0)]
    yaw_knots = [first.heading_rad]  # unwrapped heading at t = 0 and at each step
    for iv in intervals:
        if iv.headings is None:
            continue
        profile = GAIT_PROFILES[iv.gait]
        period = 1.0 / profile.frequency_hz
        stride = DEFAULT_STRIDE_TABLE[iv.gait]
        for k, heading in enumerate(iv.headings):
            x, y = points[-1]
            points.append((x + stride * math.cos(heading), y + stride * math.sin(heading)))
            step_times.append(iv.t0 + (k + 0.25) * period)
            step_gaits.append(iv.gait.value)
            step_headings.append(heading)
            step_floors.append(None if iv.kind == "stair" else iv.floor)
            yaw_knots.append(yaw_knots[-1] + wrap_angle(heading - yaw_knots[-1]))
        burst = slice(*np.searchsorted(times, (iv.t0, iv.t1)))  # the samples in [t0, t1)
        phase = 2.0 * math.pi * profile.frequency_hz * (times[burst] - iv.t0)
        accel[burst, 1] += profile.horizontal_amp * np.sin(phase)
        accel[burst, 2] += profile.vertical_amp * np.sin(phase)

    # --- sensor rendering ----------------------------------------------------
    yaw = np.interp(times, [0.0, *step_times], yaw_knots)
    gyro = np.zeros((n_imu, 3))
    gyro[1:, 2] = np.diff(yaw) / dt

    magn = np.zeros((n_imu, 3))
    magn[:, 0] = FIELD_HORIZONTAL_UT * np.sin(yaw)
    magn[:, 1] = FIELD_HORIZONTAL_UT * np.cos(yaw)
    magn[:, 2] = FIELD_VERTICAL_UT

    # the floor's plateau pressure, a linear ramp along a stair; a plateau
    # ramps to itself, and p0 + x * 0.0 keeps p0's bits
    n_baro = int(round(total_t * script.baro_rate_hz)) + 1
    baro_times = np.arange(n_baro) / script.baro_rate_hz
    at = held_by(baro_times)
    p0 = floor_pressure(np.array([iv.floor for iv in intervals]))[at]
    p1 = floor_pressure(np.array([iv.to_floor for iv in intervals]))[at]
    baro = (p0 + (baro_times - starts[at]) / (ends[at] - starts[at]) * (p1 - p0))[:, None] + script.baro_bias_hpa

    # without noise, += 0.0 still maps -0.0 to 0.0, so no log prints -0.0
    for key, values in (("accel", accel), ("gyro", gyro), ("magn", magn), ("baro", baro)):
        sigma = script.noise.get(key, 0.0)
        values += rng.normal(0.0, sigma, values.shape) if sigma > 0 else 0.0

    # Leakage is physical: only the stairwell quarter of each ADJACENT floor's
    # pool bleeds through the slab, so cross-floor MAC sets stay small even
    # over long segments. Stairwell bursts draw from those leak subsets.
    def leak_subset(f: int) -> list[str]:
        pool = pools[f]
        return pool[: max(1, len(pool) // 4)]

    leaks_of = {f: [b for g in (f - 1, f + 1) if g in pools for b in leak_subset(g)] for f in floors}
    wifi_obs: list[WifiObservation] = []
    aps_per_burst = min(WIFI_PER_BURST, script.aps_per_floor)
    bursts = list(takewhile(lambda t: t < total_t, accumulate(repeat(script.wifi_period_s), initial=0.5)))
    for burst_t, j in zip(bursts, held_by(bursts)):
        iv = intervals[j]
        if iv.kind == "stair":
            candidates = sorted(set(leak_subset(iv.floor) + leak_subset(iv.to_floor)))
            chosen_bssids = [
                candidates[int(i)]
                for i in rng.choice(len(candidates), size=min(aps_per_burst, len(candidates)), replace=False)
            ]
        else:
            pool = pools[iv.floor]
            leaks = leaks_of[iv.floor]
            chosen_bssids = []
            for i in rng.choice(len(pool), size=min(aps_per_burst, len(pool)), replace=False):
                bssid = pool[int(i)]
                if leaks and rng.random() < script.wifi_leakage:
                    bssid = leaks[int(rng.integers(len(leaks)))]
                chosen_bssids.append(bssid)
        for slot, bssid in enumerate(chosen_bssids):
            rssi = min(max(round(-50 + rng.normal(0.0, 8.0)), -95), -30)
            ts = burst_t + slot * 0.01
            wifi_obs.append(
                WifiObservation(ts, ts, f"ap-{bssid[-5:].replace(':', '')}", bssid, 2412, rssi)
            )

    imu_acc = np.full(n_imu, 3)
    log = SensorLog(
        accel=SensorStream(times, times, accel, imu_acc),
        gyro=SensorStream(times, times, gyro, imu_acc),
        magn=SensorStream(times, times, magn, imu_acc),
        baro=SensorStream(baro_times, baro_times, baro, np.full(n_baro, 3)),
        wifi=tuple(wifi_obs),
        source_id=script.source_id,
    )

    truth = GroundTruth(
        source_id=script.source_id,
        seed=script.seed,
        step_times=step_times,
        step_gaits=step_gaits,
        step_headings=step_headings,
        step_floors=step_floors,
        points=points,
        point_floors=[first.floor, *step_floors],
        corner_indices=corner_indices,
        corner_points=[points[i] for i in corner_indices],
        floor_pressures={f: floor_pressure(f) + script.baro_bias_hpa for f in floors},
    )
    return log, truth


# --- default corpus ----------------------------------------------------------

DEFAULT_CORPUS_SEED = 20220108

# Mid-corridor drift schedules. Estimated headings carry up to ~0.2 rad of
# additional deviation on this corpus, so the 0.72 plateau MEASURES between
# 0.8 and 1.0 rad: it fires the turning detector at eps <= 0.8 but never at
# eps = 1.0, and the 0.70 plateau measures just above 0.6.
_PLATEAU_HIGH = (
    [0.0] * 4
    + [0.144 * k for k in range(1, 6)]
    + [0.72] * 5
    + [0.72 - 0.144 * k for k in range(1, 6)]
    + [0.0] * 4
)
_PLATEAU_LOW = (
    [0.0] * 4
    + [0.14 * k for k in range(1, 6)]
    + [0.70] * 5
    + [0.70 - 0.14 * k for k in range(1, 6)]
    + [0.0] * 4
)
_GENTLE = {"jitter_step": 0.12, "clip": 0.4}


def default_corpus_scripts(seed: int = DEFAULT_CORPUS_SEED) -> list[WalkScript]:
    """Three phones, three floors each, scripted corners and drift.

    Corner angles are all >= 1.2 rad (some exactly 1.2 so the turning sweep
    loses recall beyond eps = 1.0), per-step heading changes stay <= 0.3 rad,
    and two corridors carry deliberate drift plateaus that measure as false
    turns below eps = 1.0 but never at it. Headings never change
    across a floor transition, so stair walking stays collinear with the
    adjacent corridors.
    """
    noise = {"accel": 0.2, "gyro": 0.02, "magn": 0.1, "baro": 0.02}
    biases = [0.4, -0.45, 0.1]
    corner_sets = [
        # per phone: (floor1 corners, floor2 corners, floor3 corners)
        [(1.5, -1.2), (1.2, 1.35), (-1.5, 1.2)],
        [(-1.35, 1.2), (1.5, -1.2), (1.2, -1.35)],
        [(1.2, 1.5), (-1.2, -1.35), (1.35, 1.2)],
    ]
    base_headings = [0.0, 0.8, -0.6]
    gait_cycle = [Gait.NORMAL, Gait.SLOW, Gait.FAST]

    scripts = []
    for p in range(3):
        segments: list[WalkSegmentSpec] = []
        heading = base_headings[p]
        corridor = 0
        for floor in (1, 2, 3):
            c1, c2 = corner_sets[p][floor - 1]
            for leg, corner in enumerate((None, c1, c2)):
                if corner is not None:
                    heading = wrap_angle(heading + corner)
                gait = gait_cycle[(corridor + p) % 3]
                drift: list[float] | dict | None = _GENTLE
                if p == 0 and floor == 2 and leg == 1:
                    drift = list(_PLATEAU_HIGH)
                elif p == 1 and floor == 1 and leg == 2:
                    drift = list(_PLATEAU_LOW)
                steps = len(drift) if isinstance(drift, list) else 22 + 2 * ((corridor + p) % 3)
                segments.append(
                    WalkSegmentSpec(floor=floor, gait=gait, heading_rad=heading, steps=steps, drift=drift)
                )
                corridor += 1
        scripts.append(
            WalkScript(
                source_id=f"phone-{'abc'[p]}",
                seed=seed + p,
                segments=segments,
                noise=dict(noise),
                baro_bias_hpa=biases[p],
                wifi_leakage=0.1,
            )
        )
    return scripts


def load_script(path: str | Path) -> WalkScript:
    return WalkScript.from_json(json.loads(Path(path).read_text(encoding="utf-8")))


def save_script(script: WalkScript, path: str | Path) -> None:
    write_json(path, script.to_json())


def truth_path(log_path: Path) -> Path:
    """The ground-truth sidecar of a rendered log: ``<stem>.truth.json`` beside it."""
    return log_path.with_name(f"{log_path.stem}.truth.json")


def _render(script: WalkScript, out_dir: Path) -> Path:
    """Render one script to ``<source_id>.tsl`` and its truth sidecar; runs in a worker."""
    log, truth = generate(script)
    log_path = out_dir / f"{script.source_id}.tsl"
    write_text(log_path, serialize_log(log))
    write_json(truth_path(log_path), truth.to_json())
    return log_path


def write_corpus(scripts: list[WalkScript], out_dir: str | Path) -> list[Path]:
    """Render scripts to <source_id>.tsl logs with .truth.json sidecars; paths in script order.

    Every script is validated, and source ids checked for duplicates, before
    any file is written. The scripts are then rendered in forked workers
    (``forked_map``), up to one per usable CPU. A render draws only on its own
    seeded generator, so the bytes do not depend on the number of workers.
    """
    ids: set[str] = set()
    for script in scripts:
        script.validate()
        if script.source_id in ids:
            raise ValueError(f"duplicate source_id {script.source_id!r}")
        ids.add(script.source_id)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    return list(forked_map(partial(_render, out_dir=out_dir), scripts))
