"""Per-step motion heading from gravity tracking, gated compass yaw, and PCA.

The gravity vector (phone frame) snaps to the normalized accelerometer reading
whenever the magnitude is within ``g_tol`` of g = 9.80665 m/s^2, and is rotated
by integrated gyroscope angular velocity in between. Yaw comes from the
tilt-compensated magnetometer whenever the magnetometer is trusted, i.e. the
windowed correlation between gyro-predicted and magnetometer heading change
exceeds the gate; otherwise yaw advances by gyro integration alone.

The user's motion direction per step is the first principal axis of the
Earth-horizontal linear acceleration over the step window, disambiguated to
the half-axis at an acute angle to the phone yaw. All angles are wrapped to
[-pi, pi]; headings share one magnetic-frame convention: yaw 0 when the
horizontal field lies along phone +y, +pi/2 when along phone +x.

Gravity and yaw depend on the previous sample, so they loop per sample on
Python floats. Everything else runs over columns: which samples snap, the
gyro rotation angle and axis of the samples that rotate, the horizontal
plane, compass yaw, gyro yaw turns and step projection; the gravity loop only
takes a snapped row or rotates, one block of ``_GRAVITY_BLOCK`` samples at a
time, so its Python floats never cover the whole log. The trust gate
correlates every compass fix's window at once, in batches of windows of one
length, and the PCA of every step's window runs at once too.

No value goes through BLAS, whose kernel is picked at run time from the CPU
and rounds differently from one kernel to the next. Every dot product, cross
product and norm is written out as multiplies and adds in one fixed order,
``a0*b0 + a1*b1 + a2*b2``: NumPy ufuncs over columns and the same expression
on Python floats per sample, so the two forms agree bit for bit. Sums over
windows are NumPy reductions, whose order depends only on the window's
length. Sines, cosines and arctangents come from libm (``math``), per value:
NumPy's SIMD kernels for them may round differently.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .logio import SensorLog, SensorStream, nearest_index
from .stepdetect import Step, fixed_dot, moving_average, window_rows

logger = logging.getLogger(__name__)

GRAVITY = 9.80665  # m/s^2, value the quasi-static gate compares against
_FLAT_STD = 1e-12  # a correlation window with a smaller std is flat
PCA_MIN_SAMPLES = 10  # a shorter step window is low-confidence

# one row per accelerometer sample: tracked gravity (unit vector, phone
# frame), yaw, and whether the magnetometer was trusted at that sample
ATTITUDE_DTYPE = np.dtype([("gravity", float, (3,)), ("yaw", float), ("mag_trust", bool)])


@dataclass(frozen=True)
class HeadingConfig:
    g_tol: float = 0.3          # m/s^2 window around g for gravity snaps
    corr_gate: float = 0.8      # magnetometer trust gate
    corr_window_s: float = 1.0  # correlation window
    pca_min_ratio: float = 1.2  # eigenvalue ratio below which PCA is rejected


@dataclass
class HeadingEstimate:
    phone_yaw: float
    motion_heading: float
    pca_confidence: float  # ratio of first to second eigenvalue, >= 1
    low_confidence: bool = False


def wrap_angle(x: float) -> float:
    """Wrap to [-pi, pi]; idempotent."""
    return math.atan2(math.sin(x), math.cos(x))


def _cross(a, b):
    """Cross product of two 3-vectors, of floats or of columns as ``fixed_dot``'s."""
    a0, a1, a2 = a
    b0, b1, b2 = b
    return (a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0)


def _gyro_rotations(omega: np.ndarray, dt: np.ndarray | float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rotation angle |omega| * dt of each (n, 3) gyro row, whether it spins
    (``not angle < 1e-15``), and the unit axis of the rows that spin (zero in
    the others).
    """
    rate = np.sqrt(fixed_dot(omega.T, omega.T))
    angle = rate * dt
    spins = ~(angle < 1e-15)
    axis = np.zeros(np.shape(omega))
    axis[spins] = omega[spins] / rate[spins, None]
    return angle, spins, axis


def _rotate(v: Sequence[float], axis: Sequence[float], angle: float) -> tuple[float, float, float]:
    """Rodrigues rotation of the 3-vector v by -angle about the unit axis,
    renormalized, on Python floats: ``fixed_dot`` and ``_cross`` written
    out, as it runs once per sample. A result too short to square (v zero
    or below about 1e-154) has no direction: NaN."""
    c, s = math.cos(-angle), math.sin(-angle)
    (v0, v1, v2), (a0, a1, a2) = v, axis
    d = a0 * v0 + a1 * v1 + a2 * v2
    k = 1.0 - c
    r0 = v0 * c + (a1 * v2 - a2 * v1) * s + a0 * d * k
    r1 = v1 * c + (a2 * v0 - a0 * v2) * s + a1 * d * k
    r2 = v2 * c + (a0 * v1 - a1 * v0) * s + a2 * d * k
    norm = math.sqrt(r0 * r0 + r1 * r1 + r2 * r2) or math.nan
    return (r0 / norm, r1 / norm, r2 / norm)


def rotate_by_gyro(v: np.ndarray, omega: np.ndarray, dt: float) -> np.ndarray:
    """Rotate an Earth-fixed vector expressed in the phone frame.

    The phone rotates with angular velocity omega, so fixed vectors rotate by
    -|omega|*dt about the omega axis in phone coordinates (dv/dt = -omega x v).
    Renormalized to keep unit length under long integrations. The one-sample
    case of ``track_attitude``'s gravity loop.
    """
    angle, spins, axis = _gyro_rotations(np.reshape(omega, (1, 3)), dt)
    if not spins[0]:
        return v
    return np.array(_rotate(np.asarray(v, dtype=float).tolist(), axis[0].tolist(), float(angle[0])))


def roll_pitch(gravity: Sequence[float]) -> tuple[float, float]:
    gx, gy, gz = gravity
    return math.atan2(gy, gz), math.atan2(-gx, math.hypot(gy, gz))


def _horizontal_basis(gravity: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Orthonormal (forward, right) basis of each (n, 3) gravity row's
    horizontal plane, phone coords, and whether it is defined: forward is
    phone +y projected onto the plane normal to gravity. An undefined row
    (gravity along phone +y) has unscaled, meaningless e1 and e2.
    """
    g = np.asarray(gravity, dtype=float)
    f = np.array((0.0, 1.0, 0.0)) - g[:, 1:2] * g
    norm = np.sqrt(fixed_dot(f.T, f.T))
    defined = ~(norm < 1e-9)
    e1 = f / np.where(defined, norm, 1.0)[:, None]
    return e1, np.column_stack(_cross(e1.T, g.T)), defined


def _compass_yaws(gravity: np.ndarray, mag: np.ndarray) -> list[float | None]:
    """``tilt_compensated_yaw`` of each row of (n, 3) gravity and field rows.

    The last steps run per row on Python floats, because ``np.arctan2``
    rounds differently from ``math.atan2`` on some inputs.
    """
    mag = np.asarray(mag, dtype=float)
    e1, e2, defined = _horizontal_basis(gravity)
    usable = defined & ~(np.sqrt(fixed_dot(mag.T, mag.T)) < 1e-12)
    rows = zip(usable.tolist(), fixed_dot(mag.T, e1.T).tolist(), fixed_dot(mag.T, e2.T).tolist())
    return [math.atan2(s, c) if ok and not math.hypot(c, s) < 1e-12 else None for ok, c, s in rows]


def tilt_compensated_yaw(gravity: np.ndarray, mag: np.ndarray) -> float | None:
    """Compass yaw from a magnetometer sample rotated into the horizontal plane.

    Returns None for a zero/vertical field or a gimbal-locked pose (caller
    retains the previous yaw). The one-row case of ``_compass_yaws``.
    """
    return _compass_yaws(np.reshape(gravity, (1, 3)), np.reshape(mag, (1, 3)))[0]


def _increment_correlation(w: np.ndarray) -> np.ndarray:
    """Pearson correlation of the two rows of each window in a (b, 2, n) stack
    of (gyro, magnetometer) yaw increments, n >= 3 (``track_attitude``
    guarantees it): two flat rows agree (1.0), one flat against one moving
    disagrees (0.0). A single window is the b = 1 case.

    The steps are those of ``np.std`` and ``np.corrcoef`` on one window, in
    their order, except that every sum of products is a NumPy sum over the
    last axis rather than a BLAS product. Each step is elementwise or reduces
    over the last axis, so no window's value depends on the others in its
    batch. A row's mean is its sum over n. The flatness test is ``np.std``'s
    root of the summed ``x * x`` over n; the same sums, times 1 / (n - 1),
    are the covariance's diagonal, and the summed ``x[:, 0] * x[:, 1]`` its
    off-diagonal. The correlation divides by one root of the diagonal, then
    by the other, and clips to [-1, 1], as ``np.corrcoef`` does.
    """
    n = w.shape[-1]
    x = w - w.sum(axis=-1, keepdims=True) / n
    squares = (x * x).sum(axis=-1)
    flat = np.sqrt(squares / n) < _FLAT_STD
    corr = np.where(flat.all(axis=1), 1.0, 0.0)
    moving = ~flat.any(axis=1)
    scale = 1 / (n - 1)
    var = squares[moving] * scale
    cov = (x[moving, 0] * x[moving, 1]).sum(axis=-1) * scale
    corr[moving] = np.clip(cov / np.sqrt(var[:, 0]) / np.sqrt(var[:, 1]), -1.0, 1.0)
    return corr


_GATE_CHUNK = 1 << 15  # elements per batch of gate windows: a batch's arrays stay near 256 KiB each
_GRAVITY_BLOCK = 1 << 12  # samples per block of the gravity loop


def _window_correlations(incs: np.ndarray, starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """``_increment_correlation`` of each window ``incs[:, starts[i]:stops[i]]``
    of a (2, k) array, every window 3 or more long. Windows of one length go
    to it together, contiguous, in batches of at most ``_GATE_CHUNK`` elements.
    """
    lengths = stops - starts
    order = np.argsort(lengths, kind="stable")
    # where the sorted length changes, and both ends (lengths are positive)
    edges = np.flatnonzero(np.diff(lengths[order], prepend=0, append=0)).tolist()
    corr = np.empty(len(lengths))
    for lo, hi in zip(edges, edges[1:]):
        length = int(lengths[order[lo]])
        window = np.arange(2)[:, None] * incs.shape[1] + np.arange(length)  # flat indices from start 0
        step = max(1, _GATE_CHUNK // (2 * length))
        for at in range(lo, hi, step):
            batch = order[at:min(at + step, hi)]
            corr[batch] = _increment_correlation(incs.take(starts[batch, None, None] + window))
    return corr


def track_attitude(
    accel: SensorStream,
    gyro: SensorStream,
    magn: SensorStream,
    cfg: HeadingConfig = HeadingConfig(),
) -> np.recarray:
    """Attitude per accelerometer sample, as ``ATTITUDE_DTYPE`` records: the
    columns ``gravity`` (n, 3), ``yaw`` (n,) and ``mag_trust`` (n,).
    ``roll_pitch`` derives roll and pitch from a gravity row.

    Without a gyro stream, gravity updates only at quasi-static opportunities
    and yaw is held between trusted magnetometer fixes (degraded mode).
    """
    if not accel:
        raise ValueError("accel stream is empty")
    has_gyro, has_magn = bool(gyro), bool(magn)
    if not has_gyro:
        logger.warning("no gyro stream: attitude tracking degraded to quasi-static updates")

    times, accel_v = accel.app_timestamp, accel.values
    n = len(times)
    omega = gyro.values[nearest_index(gyro.app_timestamp, times)] if has_gyro else np.zeros((n, 3))
    dts = np.diff(times, prepend=times[0])

    # gravity depends on neither yaw nor trust: gyro rotation plus snaps. A
    # sample that snaps overwrites its rotation, so only the others rotate.
    norms = np.sqrt(fixed_dot(accel_v.T, accel_v.T))
    snap = (np.abs(norms - GRAVITY) <= cfg.g_tol) & (norms > 1e-9)
    angle, spins, axis = _gyro_rotations(omega, dts)
    rotate = spins & (dts > 0) & has_gyro & ~snap
    g = (accel_v[0] / norms[0]).tolist() if norms[0] > 1e-9 else [0.0, 0.0, 1.0]
    gravity = np.empty((n, 3))
    for lo in range(0, n, _GRAVITY_BLOCK):  # Python floats for one block's rows at a time
        block = slice(lo, lo + _GRAVITY_BLOCK)
        snaps, rotates = snap[block], rotate[block]
        snapped = iter((accel_v[block][snaps] / norms[block][snaps, None]).tolist())
        rotations = zip(angle[block][rotates].tolist(), axis[block][rotates].tolist())
        rows = []
        for takes_snap, takes_rotation in zip(snaps.tolist(), rotates.tolist()):
            if takes_snap:
                g = next(snapped)
            elif takes_rotation:
                a, ax = next(rotations)
                g = _rotate(g, ax, a)
            rows.append(g)
        gravity[block] = rows

    turns = fixed_dot(omega.T, gravity.T) * dts
    mag_yaws = _compass_yaws(gravity, magn.values[nearest_index(magn.app_timestamp, times)]) if has_magn else [None] * n

    # trust gate over compass fixes: row 0 of incs is the gyro turn at each
    # fix, row 1 the compass change since the previous fix. A fix's window
    # holds the fixes within corr_window_s; one of 3 or more decides, one of
    # fewer keeps the previous decision. So a sample takes the decision of the
    # last deciding fix at or before it (True before the first).
    fix = np.flatnonzero([mag_yaw is not None for mag_yaw in mag_yaws])
    fix_yaws = [mag_yaws[k] for k in fix.tolist()]
    incs = np.zeros((2, len(fix)))
    incs[0] = turns[fix]
    incs[1, 1:] = [wrap_angle(b - a) for a, b in zip(fix_yaws, fix_yaws[1:])]
    starts = np.searchsorted(times[fix], times[fix] - cfg.corr_window_s)
    stops = np.arange(1, len(fix) + 1)
    decides = stops - starts >= 3
    passed = _window_correlations(incs, starts[decides], stops[decides]) > cfg.corr_gate
    trusts = np.concatenate(([True], passed))[np.searchsorted(fix[decides], np.arange(n), side="right")]

    yaw, yaws = 0.0, []
    for turn, mag_yaw, trusted in zip(turns.tolist(), mag_yaws, trusts.tolist()):
        yaw = mag_yaw if trusted and mag_yaw is not None else wrap_angle(yaw + turn)
        yaws.append(yaw)

    att = np.recarray(n, dtype=ATTITUDE_DTYPE)
    att.gravity, att.yaw, att.mag_trust = gravity, yaws, trusts
    return att


def earth_horizontal(vec: np.ndarray, gravity: np.ndarray, yaw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Project (n, 3) phone-frame rows into Earth-horizontal 2-D coordinates.

    Row k goes into the plane normal to ``gravity[k]``, with axes turned by
    ``yaw[k]``, so azimuths here live in the same frame as yaw and PDR
    headings. Returns the (n, 2) rows and which are defined.
    """
    e1, e2, defined = _horizontal_basis(gravity)
    c, s = fixed_dot(vec.T, e1.T), -fixed_dot(vec.T, e2.T)
    # cos and sin from libm, per row: NumPy ships AVX-512 (SVML) kernels for
    # them, which may round differently
    yaw = np.asarray(yaw, dtype=float).tolist()
    cy, sy = np.array([math.cos(y) for y in yaw]), np.array([math.sin(y) for y in yaw])
    return np.column_stack((cy * c - sy * s, sy * c + cy * s)), defined


def _motion_directions(
    xy: np.ndarray, counts: np.ndarray, phone_yaws: Sequence[float], cfg: HeadingConfig
) -> list[HeadingEstimate]:
    """``motion_direction`` of every window of (m, 2) rows ``xy``: the
    windows lie back to back, window i holding ``counts[i]`` rows.

    The 2x2 covariance of each window with ``PCA_MIN_SAMPLES`` or more rows
    comes from sums over all windows at once (``np.add.reduceat``), and its
    eigenvalues and principal axis in closed form: the half trace plus and
    minus sqrt(d*d + sxy*sxy), d half the difference of the variances, and
    the axis at ``0.5 * atan2(2*sxy, sxx - syy)``.
    """
    counts = np.asarray(counts)
    enough = counts >= PCA_MIN_SAMPLES
    n = counts[enough]
    starts = np.cumsum(n) - n
    x, y = np.ascontiguousarray(xy[np.repeat(enough, counts)].T)
    window = np.repeat(np.arange(len(n)), n)
    cx = x - (np.add.reduceat(x, starts) / n)[window]
    cy = y - (np.add.reduceat(y, starts) / n)[window]
    sxx = np.add.reduceat(cx * cx, starts) / n
    syy = np.add.reduceat(cy * cy, starts) / n
    sxy = np.add.reduceat(cx * cy, starts) / n
    diff = sxx - syy
    half, d = (sxx + syy) / 2, diff / 2
    root = np.sqrt(d * d + sxy * sxy)
    ratios = ((half + root) / np.maximum(half - root, 1e-18)).tolist()
    axes = zip(ratios, (2 * sxy).tolist(), diff.tolist())

    estimates = []
    for ok, phone_yaw in zip(enough.tolist(), phone_yaws):
        ratio, sxy2, diff_xy = next(axes) if ok else (1.0, 0.0, 0.0)
        if not ok or ratio < cfg.pca_min_ratio:
            estimates.append(HeadingEstimate(phone_yaw, wrap_angle(phone_yaw), max(ratio, 1.0), low_confidence=True))
            continue
        heading = 0.5 * math.atan2(sxy2, diff_xy)
        if abs(wrap_angle(heading - phone_yaw)) > math.pi / 2:
            heading = wrap_angle(heading + math.pi)
        estimates.append(HeadingEstimate(phone_yaw, heading, ratio))
    return estimates


def motion_direction(
    window_2d: np.ndarray, phone_yaw: float, cfg: HeadingConfig = HeadingConfig()
) -> HeadingEstimate:
    """PCA motion direction over an Earth-horizontal linear-acceleration window.

    Picks, of the principal axis's two opposite directions, the one at an acute
    angle to phone_yaw. A window of fewer than ``PCA_MIN_SAMPLES`` rows or a
    near-isotropic covariance (eigenvalue ratio below ``cfg.pca_min_ratio``)
    is flagged low-confidence and falls back to the phone yaw. The
    one-window case of ``_motion_directions``.
    """
    window_2d = np.asarray(window_2d, dtype=float)
    if window_2d.ndim != 2 or window_2d.shape[1] != 2:
        return HeadingEstimate(phone_yaw, wrap_angle(phone_yaw), 1.0, low_confidence=True)
    return _motion_directions(window_2d, np.array([len(window_2d)]), [phone_yaw], cfg)[0]


def _smoothed_gravity(grav: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Low-passed tracked gravity for linear-acceleration extraction.

    Individual quasi-static snaps carry the accel noise of one sample; a
    half-second average keeps the tilt error small so the (much larger)
    vertical gait oscillation does not leak into the horizontal plane.
    The window spans half a second at the median sample spacing. When that
    median is 0 (records written two or more times) the mean spacing stands
    in for it, and samples that all share one time are not smoothed. A
    window of 2n + 1 already averages the whole log at every sample, so a
    longer one (from a tiny spacing) is capped there.
    """
    if len(times) < 3:
        return grav
    dt = float(np.median(np.diff(times)))
    if dt <= 0:
        dt = float(times[-1] - times[0]) / (len(times) - 1)
        if dt <= 0:
            return grav
    win = max(1, int(round(min(0.5 / dt, 2 * len(times)))) | 1)
    if win <= 1:
        return grav
    smoothed = moving_average(grav, win)
    norms = np.linalg.norm(smoothed, axis=1, keepdims=True)
    norms[norms < 1e-12] = 1.0
    return smoothed / norms


def step_headings(
    steps: Sequence[Step], log: SensorLog, cfg: HeadingConfig = HeadingConfig()
) -> None:
    """Fill each step's heading_rad with its PCA motion direction.

    The window for a step spans (peak_time - lookback, valley_time] where the
    lookback is the pace capped at 2.5 half-periods, so a long pause before
    the step does not drag the previous corridor into the window.
    Low-confidence windows reuse the previous step's heading (the phone yaw
    for the first).
    """
    att = track_attitude(log.accel, log.gyro, log.magn, cfg)
    times = log.accel.app_timestamp
    grav = _smoothed_gravity(att.gravity, times)
    horizontal, defined = earth_horizontal(log.accel.values - GRAVITY * grav, grav, att.yaw)

    # the defined rows of every step's window [lo, hi), the windows back to back
    lookbacks = [min(step.pace, 2.5 * max(step.valley_time - step.peak_time, 1e-3)) for step in steps]
    lo = np.searchsorted(times, np.array([step.peak_time for step in steps]) - lookbacks, side="right")
    hi = np.maximum(np.searchsorted(times, [step.valley_time for step in steps], side="right"), lo)
    rows = window_rows(lo, hi)
    defined_before = np.concatenate(([0], np.cumsum(defined)))
    phone_yaws = att.yaw[[step.peak_index for step in steps]].tolist()
    estimates = _motion_directions(
        horizontal[rows[defined[rows]]], defined_before[hi] - defined_before[lo], phone_yaws, cfg
    )

    prev_heading: float | None = None
    for step, est in zip(steps, estimates):
        if est.low_confidence:
            step.heading_rad = prev_heading if prev_heading is not None else est.phone_yaw
        else:
            step.heading_rad = est.motion_heading
        prev_heading = step.heading_rad
