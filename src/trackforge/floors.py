"""Per-floor trajectory segmentation and global floor indexing.

Each trajectory's barometer-annotated points are clustered with 1-D DBSCAN,
read as runs of sorted core pressures; every cluster maps back to maximal
contiguous point ranges (floor segments), and the leftover transition
points (stairs, elevators) stay out as gaps. Segments from all trajectories
are then clustered jointly by the Jaccard distance of their WiFi MAC sets
(average-linkage agglomerative), and the resulting clusters are numbered
1..K by descending mean pressure, so the highest-pressure cluster is floor 1.
"""

from __future__ import annotations

import itertools
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
    cluster_pressures: list[float]       # indexed by floor - 1, strictly decreasing

    @property
    def floor_count(self) -> int:
        return len(self.cluster_pressures)


def dbscan_1d(values: Sequence[float], eps: float, min_pts: int) -> list[int]:
    """Standard DBSCAN over 1-D values; a <= b are neighbors when ``b <= a + eps``,
    one float test whichever value asks.

    A cluster is a maximal run of sorted core values, each a neighbor of the
    core before. A border value joins, of the at most two clusters it
    neighbors, the one whose first core in input order comes first, as the
    seed loop would. Clusters are numbered by first occurrence; noise is -1.
    """
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    if min_pts < 1:
        raise ValueError(f"min_pts must be >= 1, got {min_pts}")
    values = np.asarray(values, dtype=float)
    n = len(values)
    order = np.argsort(values, kind="stable")
    sorted_vals = values[order]
    # in sorted order, j < i are neighbors exactly when i < hi[j]; hi never
    # decreases, so each neighborhood is the contiguous run lo[i]:hi[i]
    hi = np.searchsorted(sorted_vals, sorted_vals + eps, side="right")
    lo = np.searchsorted(hi, np.arange(n), side="right")
    cores = np.flatnonzero(hi - lo >= min_pts)
    if not len(cores):
        return [-1] * n
    # a cluster starts at each core that is no neighbor of the core before;
    # each core takes the input index of its cluster's first core, its seed
    starts = np.r_[True, cores[1:] >= hi[cores[:-1]]]
    seed = np.minimum.reduceat(order[cores], np.flatnonzero(starts))[np.cumsum(starts) - 1]
    # lo:hi holds cores[first:last + 1], of at most two clusters, one per side
    first, last = np.searchsorted(cores, lo), np.searchsorted(cores, hi) - 1
    seed = np.append(seed, -1)  # read where first == len(cores) or last == -1
    labels = np.empty(n, dtype=int)
    labels[order] = np.where(first <= last, np.minimum(seed[first], seed[last]), -1)
    return canonicalize_labels(labels.tolist())


def canonicalize_labels(labels: Sequence[int]) -> list[int]:
    """Relabel clusters by first occurrence in input order; noise stays -1."""
    mapping = {-1: -1}
    for l in labels:
        mapping.setdefault(l, len(mapping) - 1)
    return [mapping[l] for l in labels]


def _runs(labels: Sequence[int]) -> list[tuple[int, int, int]]:
    """Maximal runs of equal labels as (label, start, stop), in input order."""
    runs = []
    start = 0
    for label, group in itertools.groupby(labels):
        stop = start + sum(1 for _ in group)
        runs.append((label, start, stop))
        start = stop
    return runs


def absorb_isolated_noise(labels: Sequence[int]) -> list[int]:
    """Attach noise runs to the temporally adjacent cluster when unambiguous.

    A noise run surrounded by the same cluster on both sides (a sensor glitch
    inside a floor) or sitting at a boundary with only one neighbor joins that
    cluster; a run between two different clusters is a floor transition and
    stays noise.
    """
    out = list(labels)
    runs = _runs(labels)
    for k, (label, start, stop) in enumerate(runs):
        # the runs beside a noise run are clusters, since runs are maximal
        neighbors = {runs[m][0] for m in (k - 1, k + 1) if 0 <= m < len(runs)}
        if label == -1 and len(neighbors) == 1:
            out[start:stop] = [neighbors.pop()] * (stop - start)
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

    # a floor visit has at least min_pts points by the density definition;
    # shorter ranges are border scatter inside a transition
    return [
        _make_segment(traj, start, stop)
        for label, start, stop in _runs(labels)
        if label != -1 and stop - start >= min_pts
    ]


def _make_segment(traj: PdrTrajectory, start: int, stop: int) -> TrajectorySegment:
    seg = traj[start:stop]
    pressures = seg.baro_hpa[~np.isnan(seg.baro_hpa)]
    refs = sorted(set(seg.wifi_ref[seg.wifi_ref >= 0].tolist()))
    return TrajectorySegment(
        parent_id=traj.source_id,
        point_range=(start, stop),
        mean_pressure=float(np.mean(pressures)) if len(pressures) else float("nan"),
        mac_set=frozenset(o.bssid for r in refs for o in traj.wifi_batches[r].observations),
    )


def jaccard(f_i: frozenset[str] | set[str], f_j: frozenset[str] | set[str]) -> float:
    """|intersection| / |union|; 1.0 for two empty sets, 0.0 when one is empty.
    The one-pair case of ``cluster_floors``'s distance matrix, 1 - jaccard."""
    if not f_i and not f_j:
        return 1.0
    union = len(f_i | f_j)
    return len(f_i & f_j) / union


def _jaccard_distances(mac_sets: Sequence[frozenset[str]]) -> np.ndarray:
    """``1 - jaccard`` of every pair of MAC sets, with jaccard's bits. The
    product of a set x MAC incidence matrix with itself counts the shared
    MACs: an integer product, exact and without BLAS."""
    macs = {mac: k for k, mac in enumerate(set().union(*mac_sets))}
    incidence = np.zeros((len(mac_sets), len(macs)), dtype=np.int64)
    for i, mac_set in enumerate(mac_sets):
        incidence[i, [macs[mac] for mac in mac_set]] = 1
    shared = incidence @ incidence.T
    del incidence  # freed before the n x n arrays are made
    union = shared.diagonal()[:, None] + shared.diagonal()
    union -= shared
    # two empty sets (union 0) have similarity 1, so distance 0
    similarity = np.divide(shared, union, out=np.ones(shared.shape), where=union > 0)
    return np.subtract(1.0, similarity, out=similarity)


def _average_linkages(base: np.ndarray, clusters: list[list[int]], a: int, others: list[int]) -> np.ndarray:
    """Average linkage of cluster ``a`` with each cluster ``c`` in ``others``:
    ``sum(base[i, j] for i in lo for j in hi) / (len(lo) * len(hi))``, where
    ``lo`` holds the members of the earlier slot of ``a`` and ``c``. The terms
    of every sum over clusters of one size, on one side of ``a``, are gathered
    at once as one row per sum, in the generator's order; ``np.cumsum`` adds
    along a row left to right, as the generator does, so each linkage has its
    bits.
    """
    members = np.array(clusters[a])
    p = len(members)
    groups: dict[tuple[int, bool], list[int]] = {}
    for r, c in enumerate(others):
        groups.setdefault((len(clusters[c]), c > a), []).append(r)
    sums = np.empty(len(others))
    sizes = np.empty(len(others), dtype=int)
    for (q, later), rows in groups.items():
        flat = np.array([i for r in rows for i in clusters[others[r]]]).reshape(len(rows), 1, q)
        # a's members first when a is the earlier slot
        terms = base[members[:, None], flat] if later else base[flat.reshape(-1, 1), members]
        terms = terms.reshape(len(rows), p * q)
        sums[rows] = np.cumsum(terms, axis=1, out=terms)[:, -1]
        sizes[rows] = q
    return sums / (p * sizes)


def cluster_floors(
    segments: Sequence[TrajectorySegment],
    cut: float = 0.7,
    floor_count: int | None = None,
) -> FloorAssignment:
    """Agglomerative average-linkage clustering on 1 - Jaccard, then floor
    numbering by descending cluster mean pressure (floor 1 = highest pressure).

    Merging stops when the minimum linkage reaches ``cut``, or when exactly
    ``floor_count`` clusters remain if given; a ``floor_count`` above the
    number of segments raises FloorClusteringError. Equal linkages break
    toward the pair with the lexicographically smallest (parent_id, range
    start) keys. Writes each segment's ``floor`` and returns the cluster
    pressures; on a FloorClusteringError no segment's ``floor`` is written.
    """
    if not segments:
        raise ValueError("cluster_floors needs at least one segment")
    if floor_count is not None and floor_count < 1:
        raise ValueError(f"floor_count must be >= 1, got {floor_count}")
    n = len(segments)
    if floor_count is not None and floor_count > n:
        raise FloorClusteringError(f"{floor_count} floors asked for, more than the floor segments ({n})")
    base = _jaccard_distances([seg.mac_set for seg in segments])

    # link holds the average linkage between live clusters, inf elsewhere;
    # clusters keep their slot, and a merge empties the later slot
    link = base.copy()
    np.fill_diagonal(link, np.inf)
    clusters: list[list[int]] = [[i] for i in range(n)]
    # each cluster's smallest segment key as a dense rank: ranks compare as keys do
    distinct = {key: r for r, key in enumerate(sorted({seg.key() for seg in segments}))}
    rank = np.array([distinct[seg.key()] for seg in segments])

    for _ in range(n - (floor_count or 1)):  # each merge leaves one cluster fewer
        d = link.min()
        rows, cols = np.nonzero(np.triu(link == d, k=1))
        # the first tied pair, in row-major order, with the smallest sorted keys
        first = np.lexsort((np.maximum(rank[rows], rank[cols]), np.minimum(rank[rows], rank[cols])))[0]
        a, b = int(rows[first]), int(cols[first])
        if floor_count is None and d >= cut:
            break
        clusters[a] += clusters[b]
        clusters[b] = []
        rank[a] = min(rank[a], rank[b])
        link[b, :] = link[:, b] = np.inf
        others = [c for c in range(n) if c != a and clusters[c]]
        if others:
            link[a, others] = link[others, a] = _average_linkages(base, clusters, a, others)

    clusters = [members for members in clusters if members]
    pressures = [float(np.mean([segments[i].mean_pressure for i in members])) for members in clusters]
    by_pressure = sorted(range(len(clusters)), key=lambda c: -pressures[c])
    ordered_pressures = [pressures[c] for c in by_pressure]
    for prev, cur in zip(ordered_pressures, ordered_pressures[1:]):
        if not cur < prev:
            raise FloorClusteringError(
                f"floor cluster pressures are not strictly decreasing: {ordered_pressures}"
            )

    for floor, c in enumerate(by_pressure, start=1):
        for i in clusters[c]:
            segments[i].floor = floor
    return FloorAssignment(cluster_pressures=ordered_pressures)
