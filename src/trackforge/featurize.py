"""Turning-point extraction and chain-graph assembly per floor segment.

A window anchors at the last accepted vertex; its baseline is the direction of
the first displacement after the anchor. Each following point's turning angle
is the absolute difference between its incoming displacement direction and
that baseline, wrapped by ``heading.wrap_angle``, so in [0, pi]. Points stay
in the window while the angle is within epsilon; the first point beyond
epsilon marks its predecessor as a new turning point (new anchor, window
restarts), provided the window has accumulated at least ``window_min``
points -- smaller windows swallow the deviation as noise.

Graphs then split wherever two vertices are consecutive original points
(frequent-turning noise), short leftovers are dropped, and each surviving
vertex chain becomes a ChainGraph whose edge vectors telescope exactly to the
vertex position differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .floors import TrajectorySegment
from .heading import wrap_angle
from .pdr import PdrTrajectory


@dataclass(frozen=True)
class TurningConfig:
    epsilon_rad: float = 1.0
    window_min: int = 4
    min_subtraj_len_m: float = 5.0

    def __post_init__(self):
        if not self.epsilon_rad > 0:
            raise ValueError("epsilon_rad must be positive")
        if self.window_min < 1:
            raise ValueError("window_min must be >= 1")
        if not self.min_subtraj_len_m > 0:
            raise ValueError("min_subtraj_len_m must be positive")


@dataclass(frozen=True)
class ChainVertex:
    origin_index: int          # row in the segment's trajectory slice
    x: float
    y: float
    t: float
    rss: dict[str, int] | None


@dataclass(frozen=True)
class ChainEdge:
    dx: float
    dy: float


@dataclass(frozen=True)
class ChainGraph:
    """Single-path graph: |edges| = |vertices| - 1, edge j = vertex j+1 - vertex j."""

    floor: int
    vertices: tuple[ChainVertex, ...]
    edges: tuple[ChainEdge, ...]


def detect_turning_points(positions: np.ndarray, cfg: TurningConfig = TurningConfig()) -> list[int]:
    """Indices of the start point, accepted turning points, and end point of
    an (N, 2) position array.

    Zero-length displacements contribute no turning and simply extend the
    window.
    """
    n = len(positions)
    if n < 2:
        raise ValueError("need at least 2 points")

    dx, dy = np.diff(positions, axis=0).T
    vertices = [0]
    baseline = None
    window_len = 1  # points from the last vertex through j
    for j, (ddx, ddy, step) in enumerate(zip(dx.tolist(), dy.tolist(), np.hypot(dx, dy).tolist()), start=1):
        window_len += 1
        if step < 1e-12:
            continue
        direction = math.atan2(ddy, ddx)
        if baseline is None:
            baseline = direction  # first displacement after the last vertex
        elif window_len > cfg.window_min and not abs(wrap_angle(direction - baseline)) <= cfg.epsilon_rad:
            # j - 1 is the new vertex and j's displacement the first after it,
            # so the new window already holds both points and takes j's
            # direction as its baseline
            vertices.append(j - 1)
            baseline = direction
            window_len = 2
    return vertices + [n - 1]  # every turn appends j - 1 < n - 1


def _group_at_successive(vertices: Sequence[int]) -> list[list[int]]:
    """Cut the vertex chain wherever two vertices are consecutive points."""
    cuts = [0] + [k for k in range(1, len(vertices)) if vertices[k] == vertices[k - 1] + 1] + [len(vertices)]
    return [list(vertices[a:b]) for a, b in zip(cuts, cuts[1:]) if a < b]


def split_frequent_turnings(
    positions: np.ndarray,
    vertices: Sequence[int],
    cfg: TurningConfig = TurningConfig(),
) -> list[list[int]]:
    """Split the vertex chain at consecutive-index vertex pairs; drop shorts.

    Two vertices on successive original points mean the user was turning every
    step, so the chain is cut between them. Afterwards any piece with fewer
    than two vertices or a path length under ``min_subtraj_len_m`` is removed.
    """
    return _long_groups(positions, _group_at_successive(vertices), cfg)


def _long_groups(positions: np.ndarray, groups: list[list[int]], cfg: TurningConfig) -> list[list[int]]:
    """The groups with two or more vertices and a path of ``min_subtraj_len_m`` or more."""
    step_lengths = np.hypot(*(np.diff(positions, axis=0).T)) if len(positions) > 1 else np.array([])
    return [
        group for group in groups
        if len(group) >= 2 and float(step_lengths[group[0]:group[-1]].sum()) >= cfg.min_subtraj_len_m
    ]


def build_chain_graph(seg: PdrTrajectory, vertices: Sequence[int], floor: int) -> ChainGraph | None:
    """Assemble one chain graph from a vertex index list over a segment.

    Edge vectors are the position differences between consecutive vertices
    (the telescoped sum of the per-step motion vectors in between). Each
    vertex's RSS feature is the burst its point's ``wifi_ref`` names: the
    nearest one within 5 s, as ``pdr.integrate`` annotated it.
    """
    if len(vertices) < 2:
        return None
    rows = list(vertices)
    vs = [
        ChainVertex(origin_index=v, x=x, y=y, t=t, rss=seg.wifi_batches[r].rss_map() if r >= 0 else None)
        for v, (x, y), t, r in zip(
            rows, seg.points[rows].tolist(), seg.t[rows].tolist(), seg.wifi_ref[rows].tolist()
        )
    ]
    edges = tuple(
        ChainEdge(dx=b.x - a.x, dy=b.y - a.y) for a, b in zip(vs, vs[1:])
    )
    return ChainGraph(floor=floor, vertices=tuple(vs), edges=edges)


def featurize_segment_report(
    traj: PdrTrajectory,
    segment: TrajectorySegment,
    cfg: TurningConfig = TurningConfig(),
) -> tuple[list[ChainGraph], int]:
    """Turning points -> frequent-turning split -> chain graphs, in order.

    Also returns the number of dropped sub-trajectories.
    """
    seg = traj[slice(*segment.point_range)]
    if len(seg) < 2:
        return [], 0
    groups = _group_at_successive(detect_turning_points(seg.points, cfg))
    kept = _long_groups(seg.points, groups, cfg)
    # every kept group has two or more vertices, so each builds a graph
    graphs = [build_chain_graph(seg, group, segment.floor or 0) for group in kept]
    return graphs, len(groups) - len(graphs)
