"""Dead-reckoning integration of detected steps into a 2-D trajectory.

Each step advances the position by (S*cos(theta), S*sin(theta)) from the
origin (0, 0). Points carry the nearest-in-time barometer reading and a
reference to the nearest WiFi scan burst within 5 s, which later stages use
for floor segmentation and vertex features.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .logio import SensorLog, WifiObservation, nearest_index
from .stepdetect import Step

WIFI_BATCH_GAP_S = 0.5   # observations closer than this belong to one scan burst
WIFI_MATCH_WINDOW_S = 5.0


@dataclass(frozen=True)
class WifiBatch:
    """One scan burst: observations grouped by arrival time."""

    time: float
    observations: tuple[WifiObservation, ...]

    def rss_map(self) -> dict[str, int]:
        """bssid -> strongest dBm seen in the burst."""
        out: dict[str, int] = {}
        for obs in self.observations:
            prev = out.get(obs.bssid)
            if prev is None or obs.rssi_dbm > prev:
                out[obs.bssid] = obs.rssi_dbm
        return out


@dataclass(frozen=True)
class PdrPoint:
    x: float
    y: float
    t: float
    step_index: int          # -1 for the origin
    baro_hpa: float | None
    wifi_ref: int | None     # index into the trajectory's wifi batch list


@dataclass
class PdrTrajectory:
    points: list[PdrPoint]
    wifi_batches: list[WifiBatch] = field(default_factory=list)
    source_id: str = ""

    def positions(self) -> np.ndarray:
        return np.array([[p.x, p.y] for p in self.points])


def pdr_update(prev: tuple[float, float], stride_m: float, theta_rad: float) -> tuple[float, float]:
    """One dead-reckoning step: (x + S cos theta, y + S sin theta)."""
    if not stride_m > 0:
        raise ValueError(f"stride must be positive, got {stride_m}")
    if not math.isfinite(theta_rad):
        raise ValueError(f"heading must be finite, got {theta_rad}")
    x, y = prev
    return x + stride_m * math.cos(theta_rad), y + stride_m * math.sin(theta_rad)


def group_wifi_batches(wifi: Sequence[WifiObservation]) -> list[WifiBatch]:
    """Group time-sorted observations into scan bursts (gap < 0.5 s)."""
    groups: list[list[WifiObservation]] = []
    for obs in wifi:
        if groups and obs.app_timestamp - groups[-1][-1].app_timestamp < WIFI_BATCH_GAP_S:
            groups[-1].append(obs)
        else:
            groups.append([obs])
    return [
        WifiBatch(time=sum(o.app_timestamp for o in g) / len(g), observations=tuple(g)) for g in groups
    ]


def integrate(steps: Sequence[Step], log: SensorLog) -> PdrTrajectory:
    """Fold pdr_update over the steps and annotate barometer/WiFi context.

    Steps must arrive time-ordered with stride_m and heading_rad filled.
    Empty steps give a single-point trajectory at the origin.
    """
    for s in steps:
        if s.stride_m is None or s.heading_rad is None:
            raise ValueError("steps must have stride_m and heading_rad filled")

    origin_t = float(log.accel.app_timestamp[0]) if log.accel else 0.0
    xy = [(0.0, 0.0)]
    for step in steps:
        xy.append(pdr_update(xy[-1], step.stride_m, step.heading_rad))
    times = [origin_t] + [step.peak_time for step in steps]

    baro_idx = nearest_index(log.baro.app_timestamp, times)
    batches = group_wifi_batches(log.wifi)
    wifi_idx = nearest_index([b.time for b in batches], times, WIFI_MATCH_WINDOW_S)

    points = [
        PdrPoint(
            x=x,
            y=y,
            t=t,
            step_index=k - 1,
            baro_hpa=float(log.baro.values[b, 0]) if b >= 0 else None,
            wifi_ref=int(w) if w >= 0 else None,
        )
        for k, ((x, y), t, b, w) in enumerate(zip(xy, times, baro_idx, wifi_idx))
    ]
    return PdrTrajectory(points=points, wifi_batches=batches, source_id=log.source_id)
