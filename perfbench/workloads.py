"""Walk scripts for the benchmark workloads.

Each generator takes the workload seed and returns ``synth.WalkScript``
objects; only their rendered ``.tsl`` files reach the program under test.

- ``default-corpus`` is the bundled corpus the acceptance suite scores, always
  rendered from ``synth.DEFAULT_CORPUS_SEED``: 3 phones x 3 floors, ~150 s
  per log at 100 Hz.
- ``many-segments`` draws every random choice from
  ``numpy.random.default_rng(seed)``. The amount of work (logs, floor visits,
  steps, staircases, sample rate) is fixed; the seed moves only floor orders,
  corner angles, gaits, barometer biases and sensor noise.
"""

from __future__ import annotations

import math

import numpy as np

from trackforge import synth
from trackforge.heading import wrap_angle
from trackforge.stride import Gait

NOISE = {"accel": 0.2, "gyro": 0.02, "magn": 0.1, "baro": 0.02}
# Gaits follow this cycle from a seeded start, as in the default corpus: the
# step detector's adaptive jerk threshold cannot follow a fast corridor
# straight into a slow one, and stairs are walked at normal pace.
GAIT_CYCLE = (Gait.NORMAL, Gait.SLOW, Gait.FAST)

# many-segments: many short logs, each visiting MANY_VISITS of MANY_FLOORS
# floors in a random order: three corridors per visit joined by two corners.
# As in the default corpus the heading does not change across a staircase.
MANY_LOGS = 50
MANY_FLOORS = 5
MANY_VISITS = 3
MANY_LEG_STEPS = 5            # per corridor
MANY_IMU_HZ = 20.0
MANY_TURN_S = 0.5
MANY_STAIR_S = 3.0


def _corner(rng: np.random.Generator) -> float:
    """A same-floor corner: 1.2 to 1.6 rad to either side."""
    return float(rng.choice((-1.0, 1.0)) * rng.uniform(1.2, 1.6))


def default_corpus(seed: int) -> list[synth.WalkScript]:
    """The bundled corpus the acceptance suite scores; the seed is not used."""
    return synth.default_corpus_scripts(synth.DEFAULT_CORPUS_SEED)


def many_segments(seed: int) -> list[synth.WalkScript]:
    """MANY_LOGS short logs with MANY_VISITS floor visits each."""
    rng = np.random.default_rng(seed)
    floors = list(range(1, MANY_FLOORS + 1))
    scripts = []
    for k in range(MANY_LOGS):
        heading = float(rng.uniform(-math.pi, math.pi))
        cycle = int(rng.integers(len(GAIT_CYCLE)))
        segments = []
        for floor in rng.permutation(floors)[:MANY_VISITS]:
            for turn in (0.0, _corner(rng), _corner(rng)):
                heading = wrap_angle(heading + turn)
                segments.append(synth.WalkSegmentSpec(
                    floor=int(floor),
                    gait=GAIT_CYCLE[(cycle + len(segments)) % len(GAIT_CYCLE)],
                    heading_rad=heading,
                    steps=MANY_LEG_STEPS,
                ))
        scripts.append(synth.WalkScript(
            source_id=f"walk-{k:03d}",
            seed=int(rng.integers(2**31)),
            segments=segments,
            noise=dict(NOISE),
            baro_bias_hpa=float(rng.uniform(-0.4, 0.4)),
            imu_rate_hz=MANY_IMU_HZ,
            turn_seconds=MANY_TURN_S,
            stair_seconds=MANY_STAIR_S,
        ))
    return scripts


WORKLOADS = {
    "default-corpus": default_corpus,
    "many-segments": many_segments,
}
