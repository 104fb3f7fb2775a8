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
from dataclasses import asdict, dataclass, field, fields
from functools import partial
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
        if self.source_id in ("", ".", "..") or "/" in self.source_id or "\\" in self.source_id:
            raise ValueError(f"source_id must be a plain file stem, got {self.source_id!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not self.segments:
            raise ValueError("script has no segments")
        for floor, pool in (self.ap_pools or {}).items():
            if not isinstance(pool, list) or not all(isinstance(b, str) and _BSSID_RE.fullmatch(b) for b in pool):
                raise ValueError(f"AP pool for floor {floor} must be a list of BSSIDs, got {pool!r}")
        for seg in self.segments:
            if seg.steps < 1:
                raise ValueError(f"segment step count must be >= 1, got {seg.steps}")
            if seg.drift is not None and not isinstance(seg.drift, (list, dict)):
                raise ValueError(f"segment drift must be null, a list or an object, got {seg.drift!r}")
            if isinstance(seg.drift, list) and len(seg.drift) != seg.steps:
                raise ValueError("explicit drift list must have one entry per step")
            if isinstance(seg.drift, list) and not all(isinstance(d, (int, float)) for d in seg.drift):
                raise ValueError(f"drift list entries must be numbers, got {seg.drift!r}")
            if isinstance(seg.drift, dict) and not all(isinstance(v, (int, float)) for v in seg.drift.values()):
                raise ValueError(f"drift object values must be numbers, got {seg.drift!r}")
            if self.ap_pools and seg.floor not in self.ap_pools:
                raise ValueError(f"no AP pool for floor {seg.floor}")
        if not 0.0 <= self.wifi_leakage < 1.0:
            raise ValueError(f"wifi_leakage must be in [0, 1), got {self.wifi_leakage}")
        for rate in (self.imu_rate_hz, self.baro_rate_hz, self.wifi_period_s):
            if rate <= 0:
                raise ValueError("rates and periods must be positive")
        if not isinstance(self.noise, dict) or not all(isinstance(v, (int, float)) for v in self.noise.values()):
            raise ValueError(f"noise must map sensor names to numbers, got {self.noise!r}")
        for key, sigma in self.noise.items():
            if sigma < 0:
                raise ValueError(f"noise sigma for {key} must be >= 0")

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, doc: dict) -> "WalkScript":
        segments = [
            WalkSegmentSpec(
                floor=int(s["floor"]),
                gait=Gait(s["gait"]),
                heading_rad=float(s["heading_rad"]),
                steps=int(s["steps"]),
                drift=s.get("drift"),
            )
            for s in doc["segments"]
        ]
        script = cls(
            source_id=str(doc["source_id"]),
            seed=int(doc["seed"]),
            segments=segments,
        )
        for f in fields(cls)[3:]:
            if doc.get(f.name) is not None:
                setattr(script, f.name, doc[f.name])
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
        return {
            "source_id": self.source_id,
            "seed": self.seed,
            "step_times": self.step_times,
            "step_gaits": self.step_gaits,
            "step_headings": self.step_headings,
            "step_floors": self.step_floors,
            "points": self.points,
            "point_floors": self.point_floors,
            "corner_indices": self.corner_indices,
            "corner_points": self.corner_points,
            "floor_pressures": {str(k): v for k, v in self.floor_pressures.items()},
        }

    @classmethod
    def from_json(cls, doc: dict) -> "GroundTruth":
        """Decode a sidecar; ValueError when its points, floors and corners disagree."""
        truth = cls(
            source_id=doc["source_id"],
            seed=doc["seed"],
            step_times=list(doc["step_times"]),
            step_gaits=list(doc["step_gaits"]),
            step_headings=list(doc["step_headings"]),
            step_floors=[None if f is None else int(f) for f in doc["step_floors"]],
            points=_pairs(doc, "points"),
            point_floors=[None if f is None else int(f) for f in doc["point_floors"]],
            corner_indices=list(doc["corner_indices"]),
            corner_points=_pairs(doc, "corner_points"),
            floor_pressures={int(k): float(v) for k, v in doc["floor_pressures"].items()},
        )
        if not len(truth.point_floors) == len(truth.points) == len(truth.step_times) + 1:
            raise ValueError("points and point_floors must hold the origin and one entry per step")
        for i in truth.corner_indices:
            if type(i) is not int or not 0 <= i < len(truth.points):
                raise ValueError(f"corner index {i!r} is not an index into points")
        if len(truth.corner_points) != len(truth.corner_indices):
            raise ValueError("corner_points and corner_indices differ in length")
        return truth


def _pairs(doc: dict, key: str) -> list[tuple[float, float]]:
    """``doc[key]`` as (x, y) tuples; ValueError unless each is two finite numbers."""
    pairs = [tuple(p) for p in doc[key]]
    for p in pairs:
        if len(p) != 2 or not all(type(c) in (int, float) and math.isfinite(c) for c in p):
            raise ValueError(f"{key} must hold pairs of finite numbers, got {list(p)!r}")
    return pairs


def floor_pressure(floor: int) -> float:
    """Scripted plateau pressure for a floor (floor 1 = ground, highest)."""
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
    to_floor: int | None = None          # for a stair, the floor it reaches
    gait: Gait | None = None             # walk and stair only
    headings: list[float] | None = None  # per step; walk and stair only

    def pressure(self, time: float) -> float:
        """The floor's plateau pressure; a linear ramp along a stair."""
        p0 = floor_pressure(self.floor)
        if self.to_floor is None:
            return p0
        return p0 + (time - self.t0) / (self.t1 - self.t0) * (floor_pressure(self.to_floor) - p0)


def _expand_drift(spec: WalkSegmentSpec, rng: np.random.Generator) -> list[float]:
    if spec.drift is None:
        return [0.0] * spec.steps
    if isinstance(spec.drift, list):
        return [float(d) for d in spec.drift]
    jitter = float(spec.drift.get("jitter_step", 0.1))
    clip = float(spec.drift.get("clip", 0.5))
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

    def append(kind: str, seconds: float, floor: int, **kw) -> None:
        t0 = intervals[-1].t1 if intervals else 0.0
        intervals.append(_Interval(kind, t0, t0 + seconds, floor, **kw))

    first = script.segments[0]
    append("quiet", LEAD_SECONDS, first.floor)
    corner_indices: list[int] = []  # steps taken before each same-floor corner
    prev_heading = first.heading_rad
    stair_hz = GAIT_PROFILES[STAIR_GAIT].frequency_hz
    for seg in script.segments:
        headings = [seg.heading_rad + d for d in _expand_drift(seg, rng)]
        floor = intervals[-1].floor
        turned = abs(wrap_angle(seg.heading_rad - prev_heading)) > 1e-12
        if turned and seg.floor == floor:
            corner_indices.append(sum(len(iv.headings) for iv in intervals if iv.headings))
        if turned and script.turn_seconds > 0:
            append("turn", script.turn_seconds, floor)
        if seg.floor != floor:
            n_stair = max(1, round(script.stair_seconds * stair_hz))
            append("stair", n_stair / stair_hz, floor, to_floor=seg.floor, gait=STAIR_GAIT,
                   headings=[seg.heading_rad] * n_stair)
        append("walk", seg.steps / GAIT_PROFILES[seg.gait].frequency_hz, seg.floor,
               gait=seg.gait, headings=headings)
        prev_heading = headings[-1]
    append("quiet", LEAD_SECONDS, intervals[-1].floor)
    total_t = intervals[-1].t1

    def interval_at(time: float) -> _Interval:
        """The interval holding ``time``; the lead-out from its end on."""
        return next((iv for iv in intervals if iv.t0 <= time < iv.t1), intervals[-1])

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
        mask = (times >= iv.t0) & (times < iv.t1)
        phase = 2.0 * math.pi * profile.frequency_hz * (times[mask] - iv.t0)
        accel[mask, 1] += profile.horizontal_amp * np.sin(phase)
        accel[mask, 2] += profile.vertical_amp * np.sin(phase)

    # --- sensor rendering ----------------------------------------------------
    yaw = np.interp(times, [0.0, *step_times], yaw_knots)
    gyro = np.zeros((n_imu, 3))
    gyro[1:, 2] = np.diff(yaw) / dt

    magn = np.zeros((n_imu, 3))
    magn[:, 0] = FIELD_HORIZONTAL_UT * np.sin(yaw)
    magn[:, 1] = FIELD_HORIZONTAL_UT * np.cos(yaw)
    magn[:, 2] = FIELD_VERTICAL_UT

    n_baro = int(round(total_t * script.baro_rate_hz)) + 1
    baro_times = np.arange(n_baro) / script.baro_rate_hz
    baro = np.array([[interval_at(bt).pressure(bt)] for bt in baro_times]) + script.baro_bias_hpa

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

    def leak_candidates(f: int) -> list[str]:
        out: list[str] = []
        for g in sorted(pools):
            if abs(g - f) == 1:
                out.extend(leak_subset(g))
        return out

    wifi_obs: list[WifiObservation] = []
    burst_t = 0.5
    aps_per_burst = min(8, script.aps_per_floor)
    while burst_t < total_t:
        iv = interval_at(burst_t)
        if iv.kind == "stair":
            candidates = sorted(set(leak_subset(iv.floor) + leak_subset(iv.to_floor)))
            chosen_bssids = [
                candidates[int(i)]
                for i in rng.choice(len(candidates), size=min(aps_per_burst, len(candidates)), replace=False)
            ]
        else:
            pool = pools[iv.floor]
            leaks = leak_candidates(iv.floor)
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
        burst_t += script.wifi_period_s

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
