"""Builds the SensorStreams that tests feed to the parser's consumers."""

import numpy as np

from trackforge.logio import SensorStream


def stream(times, rows=(), width=3, accuracy=3):
    """A stream whose sensor timestamps equal its app timestamps and whose
    samples share one accuracy code. ``rows`` holds ``width`` values each."""
    times = np.asarray(times, dtype=float)
    values = np.asarray(rows, dtype=float).reshape(len(times), width)
    return SensorStream(times, times, values, np.full(len(times), accuracy))
