"""Per-floor trajectory segmentation and global floor indexing.

Each trajectory's barometer-annotated points are clustered with 1-D DBSCAN;
every cluster maps back to maximal contiguous point ranges (floor segments),
and the leftover transition points (stairs, elevators) stay out as gaps.
Segments from all trajectories are then clustered jointly by the Jaccard
distance of their WiFi MAC sets (average-linkage agglomerative), and the
resulting clusters are numbered 1..K by descending mean pressure, so the
highest-pressure cluster is floor 1.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .pdr import PdrTrajectory

logger = logging.getLogger(__name__)


class FloorClusteringError(RuntimeError):
    pass


@dataclass(frozen=True)
class FloorConfig:
    eps_hpa: float = 0.1
    min_pts: int = 10
    cut: float = 0.7           # stop merging at this Jaccard distance
    max_clusters: int = 20     # guard against degenerate eps


@dataclass
class TrajectorySegment:
    parent_id: str
    point_range: tuple[int, int]   # [start, stop) into the parent trajectory
    mean_pressure: float
    mac_set: frozenset[str]
    floor: int | None = None

    def key(self) -> tuple[str, int]:
        return (self.parent_id, self.point_range[0])


@dataclass
class FloorAssignment:
    floors: list[int]                    # per input segment, 1 = lowest floor
    cluster_pressures: list[float]       # indexed by floor - 1, strictly decreasing

    @property
    def floor_count(self) -> int:
        return len(self.cluster_pressures)


def dbscan_1d(values: Sequence[float], eps: float, min_pts: int) -> list[int]:
    """Standard DBSCAN over 1-D values (|dp| <= eps neighborhoods).

    Returns one label per input value: clusters are numbered by first
    occurrence in input order, noise is -1. Border points join the first
    cluster (in seed order) whose expansion reaches them, which makes equal
    inputs give identical labels.
    """
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    if min_pts < 1:
        raise ValueError(f"min_pts must be >= 1, got {min_pts}")
    values = np.asarray(values, dtype=float)
    n = len(values)
    if n == 0:
        return []

    order = np.argsort(values, kind="stable")
    sorted_vals = values[order]
    # neighborhood of i = contiguous run of sorted values within eps
    lo = np.searchsorted(sorted_vals, values - eps, side="left")
    hi = np.searchsorted(sorted_vals, values + eps, side="right")
    core = (hi - lo) >= min_pts

    labels = [None] * n
    cluster = 0
    for seed in range(n):
        if labels[seed] is not None or not core[seed]:
            continue
        labels[seed] = cluster
        queue = [seed]
        while queue:
            q = queue.pop(0)
            for j in order[lo[q]:hi[q]]:
                if labels[j] is None:
                    labels[j] = cluster
                    if core[j]:
                        queue.append(int(j))
        cluster += 1
    raw = [-1 if l is None else l for l in labels]
    return canonicalize_labels(raw)


def canonicalize_labels(labels: Sequence[int]) -> list[int]:
    """Relabel clusters by first occurrence in input order; noise stays -1."""
    mapping: dict[int, int] = {}
    out = []
    for l in labels:
        if l == -1:
            out.append(-1)
            continue
        if l not in mapping:
            mapping[l] = len(mapping)
        out.append(mapping[l])
    return out


def absorb_isolated_noise(labels: Sequence[int]) -> list[int]:
    """Attach noise runs to the temporally adjacent cluster when unambiguous.

    A noise run surrounded by the same cluster on both sides (a sensor glitch
    inside a floor) or sitting at a boundary with only one neighbor joins that
    cluster; a run between two different clusters is a floor transition and
    stays noise.
    """
    labels = list(labels)
    n = len(labels)
    out = labels[:]
    i = 0
    while i < n:
        if labels[i] != -1:
            i += 1
            continue
        j = i
        while j < n and labels[j] == -1:
            j += 1
        left = labels[i - 1] if i > 0 else None
        right = labels[j] if j < n else None
        target = None
        if left is not None and (right is None or right == left):
            target = left
        elif left is None and right is not None:
            target = right
        if target is not None:
            for k in range(i, j):
                out[k] = target
        i = j
    return out


def segment_trajectory(
    traj: PdrTrajectory, eps: float, min_pts: int, max_clusters: int = 20
) -> list[TrajectorySegment]:
    """Cut one trajectory into per-floor segments via barometer DBSCAN.

    Cluster labels map back to maximal contiguous point ranges; points left as
    noise (inter-floor transitions) belong to no segment. Without barometer
    data the whole trajectory becomes a single flagged segment.
    """
    pressures = traj.baro_hpa
    if np.isnan(pressures).any() or not len(pressures):
        logger.warning(
            "trajectory %s lacks barometer data: emitting a single unsplit segment",
            traj.source_id,
        )
        return [_make_segment(traj, 0, len(traj))]

    labels = dbscan_1d(pressures, eps, min_pts)
    n_clusters = max(labels) + 1 if labels else 0
    if n_clusters > max_clusters:
        raise FloorClusteringError(
            f"{n_clusters} pressure clusters exceed the maximum of {max_clusters}; "
            f"eps={eps} hPa is likely degenerate for this data"
        )
    labels = absorb_isolated_noise(labels)

    segments = []
    i = 0
    n = len(labels)
    while i < n:
        if labels[i] == -1:
            i += 1
            continue
        j = i
        while j < n and labels[j] == labels[i]:
            j += 1
        # a floor visit has at least min_pts points by the density definition;
        # shorter ranges are border scatter inside a transition
        if j - i >= min_pts:
            segments.append(_make_segment(traj, i, j))
        i = j
    return segments


def _make_segment(traj: PdrTrajectory, start: int, stop: int) -> TrajectorySegment:
    seg = traj[start:stop]
    pressures = seg.baro_hpa[~np.isnan(seg.baro_hpa)]
    refs = np.unique(seg.wifi_ref[seg.wifi_ref >= 0]).tolist()
    return TrajectorySegment(
        parent_id=traj.source_id,
        point_range=(start, stop),
        mean_pressure=float(np.mean(pressures)) if len(pressures) else float("nan"),
        mac_set=frozenset(o.bssid for r in refs for o in traj.wifi_batches[r].observations),
    )


def jaccard(f_i: frozenset[str] | set[str], f_j: frozenset[str] | set[str]) -> float:
    """|intersection| / |union|; 1.0 for two empty sets, 0.0 when one is empty."""
    if not f_i and not f_j:
        return 1.0
    union = len(f_i | f_j)
    return len(f_i & f_j) / union


def cluster_floors(
    segments: Sequence[TrajectorySegment],
    cut: float = 0.7,
    floor_count: int | None = None,
) -> FloorAssignment:
    """Agglomerative average-linkage clustering on 1 - Jaccard, then floor
    numbering by descending cluster mean pressure (floor 1 = highest pressure).

    Merging stops when the minimum linkage reaches ``cut``, or when exactly
    ``floor_count`` clusters remain if given. Equal linkages break toward the
    pair with the lexicographically smallest (parent_id, range start) keys.
    Also writes the floor index back onto each segment.
    """
    if not segments:
        raise ValueError("cluster_floors needs at least one segment")
    n = len(segments)
    base = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            d = 1.0 - jaccard(segments[i].mac_set, segments[j].mac_set)
            base[i, j] = base[j, i] = d

    clusters: list[list[int]] = [[i] for i in range(n)]

    def linkage(a: list[int], b: list[int]) -> float:
        return float(sum(base[i, j] for i in a for j in b) / (len(a) * len(b)))

    def cluster_key(members: list[int]) -> tuple[str, int]:
        return min(segments[i].key() for i in members)

    target = floor_count if floor_count is not None else 1
    while len(clusters) > target:
        best = None
        for a in range(len(clusters)):
            for b in range(a + 1, len(clusters)):
                d = linkage(clusters[a], clusters[b])
                tie = tuple(sorted((cluster_key(clusters[a]), cluster_key(clusters[b]))))
                cand = (d, tie, a, b)
                if best is None or cand[:2] < best[:2]:
                    best = cand
        assert best is not None
        d, _, a, b = best
        if floor_count is None and d >= cut:
            break
        clusters[a] = clusters[a] + clusters[b]
        del clusters[b]

    pressures = [float(np.mean([segments[i].mean_pressure for i in members])) for members in clusters]
    by_pressure = sorted(range(len(clusters)), key=lambda c: -pressures[c])

    floors = [0] * n
    ordered_pressures = []
    for rank, c in enumerate(by_pressure):
        for i in clusters[c]:
            floors[i] = rank + 1
        ordered_pressures.append(pressures[c])

    for prev, cur in zip(ordered_pressures, ordered_pressures[1:]):
        if not cur < prev:
            raise FloorClusteringError(
                f"floor cluster pressures are not strictly decreasing: {ordered_pressures}"
            )

    for seg, floor in zip(segments, floors):
        seg.floor = floor
    return FloorAssignment(floors=floors, cluster_pressures=ordered_pressures)
