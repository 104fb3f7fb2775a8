"""Turning-point and floor-classification scoring, plus parameter sweeps.

``score_corpus`` builds the ``eval.json`` document, and each ``sweep`` row is
its turning block. Turning points are the interior vertices of the graphs
``featurize_segment_report`` builds, as ``run`` writes them (both ends of a
split count; segment endpoints and dropped pieces never do), matched greedily
one to one to the true corners within a match radius, pooled over the corpus.
Floor accuracy is the fraction of segments whose assigned index equals their
majority ground-truth floor, over the segments that have one; the pressure
ordering fixes the label alignment, so no permutation search is needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .featurize import TurningConfig, featurize_segment_report
from .floors import TrajectorySegment
from .pdr import PdrTrajectory
from .synth import GroundTruth


Corpus = Sequence[tuple[PdrTrajectory, Sequence[TrajectorySegment], GroundTruth]]


def prf(tp: int, detected: int, truth: int) -> tuple[float, float, float]:
    """(precision, recall, F) from match counts.

    Empty detected counts as vacuous precision 1.0 (and likewise for empty
    truth and recall) so parameter sweeps never divide by zero.
    """
    precision = tp / detected if detected else 1.0
    recall = tp / truth if truth else 1.0
    f = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return precision, recall, f


@dataclass(frozen=True)
class TurningScore:
    precision: float
    recall: float
    f_measure: float
    match_radius: float
    true_positives: int
    detected: int
    truth: int


def score_turnings(
    detected: Sequence[tuple[float, float]] | np.ndarray,
    truth: Sequence[tuple[float, float]] | np.ndarray,
    match_radius: float = 2.0,
) -> TurningScore:
    """Greedy nearest-first one-to-one matching within ``match_radius``."""
    if match_radius <= 0:
        raise ValueError("match_radius must be positive")
    det = np.asarray(detected, dtype=float).reshape(-1, 2)
    tru = np.asarray(truth, dtype=float).reshape(-1, 2)

    pairs = []
    for i, d in enumerate(det):
        for j, g in enumerate(tru):
            dist = float(math.hypot(d[0] - g[0], d[1] - g[1]))
            if dist <= match_radius:
                pairs.append((dist, i, j))
    pairs.sort()
    used_d: set[int] = set()
    used_t: set[int] = set()
    tp = 0
    for dist, i, j in pairs:
        if i in used_d or j in used_t:
            continue
        used_d.add(i)
        used_t.add(j)
        tp += 1

    return TurningScore(*prf(tp, len(det), len(tru)), match_radius, tp, len(det), len(tru))


def segment_truth_floor(segment: TrajectorySegment, truth: GroundTruth) -> int | None:
    """Majority ground-truth floor over a segment's point range (None = all transition)."""
    start, stop = segment.point_range
    counts: dict[int, int] = {}
    for f in truth.point_floors[start:stop]:
        if f is not None:
            counts[f] = counts.get(f, 0) + 1
    if not counts:
        return None
    return max(sorted(counts), key=lambda f: counts[f])


def score_floors(predicted: Sequence[int], truth: Sequence[int]) -> float:
    """Fraction of segments with the correct floor index."""
    if len(predicted) != len(truth):
        raise ValueError("predicted and truth floor lists differ in length")
    if not predicted:
        return 1.0
    hits = sum(1 for p, t in zip(predicted, truth) if p == t)
    return hits / len(predicted)


def interior_turning_points(
    traj: PdrTrajectory, segments: Sequence[TrajectorySegment], cfg: TurningConfig
) -> list[tuple[float, float]]:
    """Positions of the vertices of each segment's ``featurize_segment_report``
    graphs under ``cfg``, except the segment's first and last point."""
    out: list[tuple[float, float]] = []
    for seg in segments:
        last = len(traj.t[slice(*seg.point_range)]) - 1
        graphs, _ = featurize_segment_report(traj, seg, cfg)
        out.extend((v.x, v.y) for g in graphs for v in g.vertices if 0 < v.origin_index < last)
    return out


def score_corpus(corpus: Corpus, cfg: TurningConfig, match_radius: float = 2.0) -> dict:
    """The ``eval.json`` document for trajectories whose segments carry floors.

    ``floor_count`` is the number of distinct segment floors. Turning counts
    pool across trajectories; an empty corpus scores 1.0 throughout.
    """
    predicted, true_floors = [], []
    tp = n_det = n_tru = 0
    for traj, segments, truth in corpus:
        for seg in segments:
            true_floor = segment_truth_floor(seg, truth)
            if true_floor is not None:
                predicted.append(seg.floor)
                true_floors.append(true_floor)
        detected = interior_turning_points(traj, segments, cfg)
        score = score_turnings(detected, truth.corner_points, match_radius)
        tp += score.true_positives
        n_det += score.detected
        n_tru += score.truth
    precision, recall, f = prf(tp, n_det, n_tru)
    return {
        "floor_accuracy": score_floors(predicted, true_floors),
        "floor_count": len({seg.floor for _, segments, _ in corpus for seg in segments} - {None}),
        "segments_scored": len(predicted),
        "turning": dict(epsilon=cfg.epsilon_rad, window=cfg.window_min,
                        precision=precision, recall=recall, f=f),
    }


@dataclass(frozen=True)
class SweepRow:
    epsilon: float
    window: int
    precision: float
    recall: float
    f_measure: float


def sweep(
    corpus: Corpus,
    epsilon_grid: Sequence[float],
    window_grid: Sequence[int],
    match_radius: float = 2.0,
    cfg: TurningConfig = TurningConfig(),
) -> list[SweepRow]:
    """Score turning detection over an (epsilon, window) grid.

    ``corpus`` holds already-processed trajectories with their floor segments
    and ground truths; only featurize depends on the swept parameters, so
    re-running it per cell is equivalent to re-running the whole pipeline.
    Each row is ``score_corpus``'s turning block for ``cfg`` with the cell's
    epsilon and window, one per distinct pair, ordered by (epsilon, window).
    """
    if not epsilon_grid or not window_grid:
        raise ValueError("sweep grids must be non-empty")
    rows = []
    for eps in sorted(set(epsilon_grid)):
        for win in sorted(set(window_grid)):
            cell = replace(cfg, epsilon_rad=float(eps), window_min=int(win))
            t = score_corpus(corpus, cell, match_radius)["turning"]
            rows.append(SweepRow(t["epsilon"], t["window"], t["precision"], t["recall"], t["f"]))
    return rows


def sweep_table(rows: Sequence[SweepRow]) -> str:
    lines = ["epsilon,window,precision,recall,f"]
    for r in rows:
        lines.append(f"{r.epsilon!r},{r.window},{r.precision!r},{r.recall!r},{r.f_measure!r}")
    return "\n".join(lines) + "\n"


def sweep_plot_data(rows: Sequence[SweepRow]) -> dict:
    return {
        "rows": [
            {
                "epsilon": r.epsilon,
                "window": r.window,
                "precision": r.precision,
                "recall": r.recall,
                "f": r.f_measure,
            }
            for r in rows
        ]
    }
