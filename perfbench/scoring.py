"""Accuracy of one processed corpus against the truth sidecars ``synth`` wrote.

Items are any objects with ``log`` (its ``source_id`` is the input's stem),
``trajectory`` and ``segments`` whose floors are assigned: the
``pipeline.ProcessedLog`` objects of a ``trackforge run`` or the composed
pass's files.
"""

from __future__ import annotations

import json
from pathlib import Path

from trackforge import evalkit, synth

MATCH_RADIUS_M = 2.0


def score(items, corpus: Path, cfg) -> tuple[float, float, int]:
    """(floor accuracy over scored segments, micro-averaged turning F, scored segments)."""
    predicted, true_floors = [], []
    tp = n_det = n_tru = 0
    for item in items:
        truth_path = Path(corpus) / f"{item.log.source_id}.truth.json"
        truth = synth.GroundTruth.from_json(json.loads(truth_path.read_text(encoding="utf-8")))
        for seg in item.segments:
            floor = evalkit.segment_truth_floor(seg, truth)
            if floor is not None:
                predicted.append(seg.floor)
                true_floors.append(floor)
        detected = evalkit.interior_turning_points(item.trajectory, item.segments, cfg.turn)
        s = evalkit.score_turnings(detected, truth.corner_points, MATCH_RADIUS_M)
        tp, n_det, n_tru = tp + s.true_positives, n_det + s.detected, n_tru + s.truth
    precision = tp / n_det if n_det else 1.0
    recall = tp / n_tru if n_tru else 1.0
    f = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return evalkit.score_floors(predicted, true_floors), f, len(predicted)


def input_facts(items) -> dict:
    """Sizes of the parsed inputs: IMU samples and recorded seconds."""
    return {
        "imu_samples": sum(len(i.log.accel) + len(i.log.gyro) + len(i.log.magn) for i in items),
        "recorded_s": sum(i.log.accel[-1].app_timestamp - i.log.accel[0].app_timestamp for i in items),
    }
