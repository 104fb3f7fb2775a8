"""Builds the SensorStreams and trajectories that tests feed to the pipeline's stages."""

import numpy as np

from trackforge.logio import SensorStream
from trackforge.pdr import PdrTrajectory


def stream(times, rows=(), width=3, accuracy=3):
    """A stream whose sensor timestamps equal its app timestamps and whose
    samples share one accuracy code. ``rows`` holds ``width`` values each."""
    times = np.asarray(times, dtype=float)
    values = np.asarray(rows, dtype=float).reshape(len(times), width)
    return SensorStream(times, times, values, np.full(len(times), accuracy))


def trajectory(positions, t=None, baro_hpa=None, wifi_ref=None, wifi_batches=(), source_id="test"):
    """A PdrTrajectory through (n, 2) ``positions``, one point every 0.5 s
    unless ``t`` is given. Without ``baro_hpa`` or ``wifi_ref`` no point has
    a barometer reading (NaN) or a WiFi burst (-1)."""
    points = np.asarray(positions, dtype=float).reshape(-1, 2)
    n = len(points)
    return PdrTrajectory(
        points=points,
        t=0.5 * np.arange(n) if t is None else np.asarray(t, dtype=float),
        baro_hpa=np.full(n, np.nan) if baro_hpa is None else np.asarray(baro_hpa, dtype=float),
        wifi_ref=np.full(n, -1) if wifi_ref is None else np.asarray(wifi_ref, dtype=int),
        wifi_batches=list(wifi_batches),
        source_id=source_id,
    )
