"""Dead-reckoning integration of detected steps into a 2-D trajectory.

Each step advances the position by (S*cos(theta), S*sin(theta)) from the
origin (0, 0). Each point carries the nearest-in-time barometer reading and
a reference to the nearest WiFi scan burst within 5 s, which later stages use
for floor segmentation and vertex features.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import reduce
from operator import add
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
class PdrTrajectory:
    """Dead-reckoned points as columns; row 0 is the origin, row k + 1 step k.

    ``points`` holds the (n, 2) positions and ``t`` the times. ``baro_hpa`` is
    the nearest barometer reading, NaN when the log has none. ``wifi_ref``
    indexes ``wifi_batches``: the nearest burst within 5 s, -1 when there is
    none. ``traj[start:stop]`` is a segment sharing ``wifi_batches``.
    """

    points: np.ndarray
    t: np.ndarray
    baro_hpa: np.ndarray
    wifi_ref: np.ndarray
    wifi_batches: list[WifiBatch] = field(default_factory=list)
    source_id: str = ""

    def __len__(self) -> int:
        return len(self.t)

    def __getitem__(self, rows: slice) -> PdrTrajectory:
        return replace(self, points=self.points[rows], t=self.t[rows],
                       baro_hpa=self.baro_hpa[rows], wifi_ref=self.wifi_ref[rows])


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
    return [  # times added left to right from 0.0: the built-in sum() of floats is compensated since Python 3.12
        WifiBatch(time=reduce(add, (o.app_timestamp for o in g), 0.0) / len(g), observations=tuple(g)) for g in groups
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
    times = np.array([origin_t] + [step.peak_time for step in steps], dtype=float)

    baro_idx = nearest_index(log.baro.app_timestamp, times)
    baro_hpa = np.full(len(times), np.nan)
    baro_hpa[baro_idx >= 0] = log.baro.values[baro_idx[baro_idx >= 0], 0]
    batches = group_wifi_batches(log.wifi)
    return PdrTrajectory(
        points=np.array(xy),
        t=times,
        baro_hpa=baro_hpa,
        wifi_ref=nearest_index([b.time for b in batches], times, WIFI_MATCH_WINDOW_S),
        wifi_batches=batches,
        source_id=log.source_id,
    )
