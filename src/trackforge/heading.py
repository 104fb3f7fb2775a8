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
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .logio import SensorLog, SensorSample, nearest_index
from .stepdetect import Step, moving_average

logger = logging.getLogger(__name__)

GRAVITY = 9.80665  # m/s^2, value the quasi-static gate compares against


@dataclass(frozen=True)
class HeadingConfig:
    g_tol: float = 0.3          # m/s^2 window around g for gravity snaps
    corr_gate: float = 0.8      # magnetometer trust gate
    corr_window_s: float = 1.0  # correlation window
    pca_min_ratio: float = 1.2  # eigenvalue ratio below which PCA is rejected
    pca_min_samples: int = 10


@dataclass
class AttitudeState:
    gravity_vec: np.ndarray  # unit vector, phone frame
    roll: float
    pitch: float
    yaw: float
    mag_trust: bool


@dataclass
class HeadingEstimate:
    phone_yaw: float
    motion_heading: float
    pca_confidence: float  # ratio of first to second eigenvalue, >= 1
    low_confidence: bool = False


def wrap_angle(x: float) -> float:
    """Wrap to [-pi, pi]; idempotent."""
    return math.atan2(math.sin(x), math.cos(x))


def rotate_by_gyro(v: np.ndarray, omega: np.ndarray, dt: float) -> np.ndarray:
    """Rotate an Earth-fixed vector expressed in the phone frame.

    The phone rotates with angular velocity omega, so fixed vectors rotate by
    -|omega|*dt about the omega axis in phone coordinates (dv/dt = -omega x v).
    Renormalized to keep unit length under long integrations.
    """
    angle = float(np.linalg.norm(omega)) * dt
    if angle < 1e-15:
        return v
    axis = omega / np.linalg.norm(omega)
    c, s = math.cos(-angle), math.sin(-angle)
    rotated = v * c + np.cross(axis, v) * s + axis * np.dot(axis, v) * (1.0 - c)
    return rotated / np.linalg.norm(rotated)


def roll_pitch(gravity: np.ndarray) -> tuple[float, float]:
    gx, gy, gz = gravity
    return math.atan2(gy, gz), math.atan2(-gx, math.hypot(gy, gz))


def _horizontal_basis(gravity: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Orthonormal (forward, right) basis of the horizontal plane, phone coords.

    forward = phone +y projected onto the plane normal to gravity. Degenerate
    (returns None) when gravity is along phone +y.
    """
    f = np.array([0.0, 1.0, 0.0]) - gravity[1] * gravity
    norm = np.linalg.norm(f)
    if norm < 1e-9:
        return None
    e1 = f / norm
    e2 = np.cross(e1, gravity)
    return e1, e2


def tilt_compensated_yaw(gravity: np.ndarray, mag: np.ndarray) -> float | None:
    """Compass yaw from a magnetometer sample rotated into the horizontal plane.

    Returns None for a zero/vertical field or a gimbal-locked pose (caller
    retains the previous yaw).
    """
    if float(np.linalg.norm(mag)) < 1e-12:
        return None
    basis = _horizontal_basis(gravity)
    if basis is None:
        return None
    e1, e2 = basis
    c = float(np.dot(mag, e1))
    s = float(np.dot(mag, e2))
    if math.hypot(c, s) < 1e-12:
        return None
    return math.atan2(s, c)


def _increment_correlation(a: np.ndarray, b: np.ndarray) -> float:
    """Pearson correlation with degenerate-window conventions: two flat series
    agree (1.0), one flat against one moving disagrees (0.0)."""
    if len(a) < 3:
        return 1.0
    sa, sb = float(np.std(a)), float(np.std(b))
    flat = 1e-12
    if sa < flat and sb < flat:
        return 1.0
    if sa < flat or sb < flat:
        return 0.0
    return float(np.corrcoef(a, b)[0, 1])


def track_attitude(
    accel: Sequence[SensorSample],
    gyro: Sequence[SensorSample],
    magn: Sequence[SensorSample],
    cfg: HeadingConfig = HeadingConfig(),
) -> list[AttitudeState]:
    """Attitude state per accelerometer sample.

    Without a gyro stream, gravity updates only at quasi-static opportunities
    and yaw is held between trusted magnetometer fixes (degraded mode).
    """
    if not accel:
        raise ValueError("accel stream is empty")
    if not gyro:
        logger.warning("no gyro stream: attitude tracking degraded to quasi-static updates")

    times = np.array([s.app_timestamp for s in accel])
    accel_v = np.array([s.values for s in accel])

    gyro_v = gyro_t = None
    if gyro:
        gyro_t = np.array([s.app_timestamp for s in gyro])
        gyro_v = np.array([s.values for s in gyro])
        gyro_idx = nearest_index(gyro_t, times)
    magn_v = None
    if magn:
        magn_t = np.array([s.app_timestamp for s in magn])
        magn_v = np.array([s.values for s in magn])
        magn_idx = nearest_index(magn_t, times)

    norm0 = float(np.linalg.norm(accel_v[0]))
    gravity = accel_v[0] / norm0 if norm0 > 1e-9 else np.array([0.0, 0.0, 1.0])

    yaw = 0.0
    mag_trust = True
    # trailing (time, gyro yaw increment, mag yaw increment) for the trust gate
    history: list[tuple[float, float, float]] = []
    prev_mag_yaw: float | None = None
    states: list[AttitudeState] = []

    for k, t in enumerate(times):
        dt = float(t - times[k - 1]) if k > 0 else 0.0
        omega = gyro_v[gyro_idx[k]] if gyro_v is not None else np.zeros(3)
        if dt > 0 and gyro_v is not None:
            gravity = rotate_by_gyro(gravity, omega, dt)

        a = accel_v[k]
        norm = float(np.linalg.norm(a))
        if abs(norm - GRAVITY) <= cfg.g_tol and norm > 1e-9:
            gravity = a / norm

        gyro_rate = float(np.dot(omega, gravity))
        mag_yaw = None
        if magn_v is not None:
            mag_yaw = tilt_compensated_yaw(gravity, magn_v[magn_idx[k]])

        if mag_yaw is not None:
            mag_inc = wrap_angle(mag_yaw - prev_mag_yaw) if prev_mag_yaw is not None else 0.0
            history.append((float(t), gyro_rate * dt, mag_inc))
            prev_mag_yaw = mag_yaw
            while history and history[0][0] < t - cfg.corr_window_s:
                history.pop(0)
            if len(history) >= 3:
                corr = _increment_correlation(
                    np.array([h[1] for h in history]), np.array([h[2] for h in history])
                )
                mag_trust = corr > cfg.corr_gate

        if mag_trust and mag_yaw is not None:
            yaw = mag_yaw
        else:
            yaw = wrap_angle(yaw + gyro_rate * dt)

        roll, pitch = roll_pitch(gravity)
        states.append(
            AttitudeState(
                gravity_vec=gravity.copy(),
                roll=roll,
                pitch=pitch,
                yaw=yaw,
                mag_trust=mag_trust,
            )
        )
    return states


def earth_horizontal(vec: np.ndarray, gravity: np.ndarray, yaw: float) -> np.ndarray | None:
    """Project a phone-frame vector into Earth-horizontal 2-D coordinates.

    ``gravity`` defines the plane and ``yaw`` orients the axes, so azimuths
    here live in the same frame as yaw and PDR headings.
    """
    basis = _horizontal_basis(gravity)
    if basis is None:
        return None
    e1, e2 = basis
    c = float(np.dot(vec, e1))
    s = float(np.dot(vec, e2))
    cy, sy = math.cos(yaw), math.sin(yaw)
    return np.array([cy * c - sy * (-s), sy * c + cy * (-s)])


def motion_direction(
    window_2d: np.ndarray, phone_yaw: float, cfg: HeadingConfig = HeadingConfig()
) -> HeadingEstimate:
    """PCA motion direction over an Earth-horizontal linear-acceleration window.

    Picks, of the principal axis's two opposite directions, the one at an acute
    angle to phone_yaw. A near-isotropic covariance (eigenvalue ratio below
    ``cfg.pca_min_ratio``) is flagged low-confidence and falls back to the
    phone yaw.
    """
    window_2d = np.asarray(window_2d, dtype=float)
    if window_2d.ndim != 2 or window_2d.shape[1] != 2 or len(window_2d) < cfg.pca_min_samples:
        return HeadingEstimate(phone_yaw, wrap_angle(phone_yaw), 1.0, low_confidence=True)

    centered = window_2d - window_2d.mean(axis=0)
    cov = centered.T @ centered / len(centered)
    eigvals, eigvecs = np.linalg.eigh(cov)
    ratio = float(eigvals[1] / max(eigvals[0], 1e-18))
    if ratio < cfg.pca_min_ratio:
        return HeadingEstimate(phone_yaw, wrap_angle(phone_yaw), max(ratio, 1.0), low_confidence=True)

    axis = eigvecs[:, 1]
    heading = math.atan2(axis[1], axis[0])
    if abs(wrap_angle(heading - phone_yaw)) > math.pi / 2:
        heading = wrap_angle(heading + math.pi)
    return HeadingEstimate(phone_yaw, heading, ratio)


def _smoothed_gravity(states: Sequence[AttitudeState], times: np.ndarray) -> np.ndarray:
    """Low-passed tracked gravity for linear-acceleration extraction.

    Individual quasi-static snaps carry the accel noise of one sample; a
    half-second average keeps the tilt error small so the (much larger)
    vertical gait oscillation does not leak into the horizontal plane.
    """
    grav = np.array([s.gravity_vec for s in states])
    if len(times) < 3:
        return grav
    dt = float(np.median(np.diff(times)))
    win = max(1, int(round(0.5 / dt)) | 1)
    if win <= 1:
        return grav
    smoothed = moving_average(grav, win)
    norms = np.linalg.norm(smoothed, axis=1, keepdims=True)
    norms[norms < 1e-12] = 1.0
    return smoothed / norms


def step_headings(
    steps: Sequence[Step], log: SensorLog, cfg: HeadingConfig = HeadingConfig()
) -> list[AttitudeState]:
    """Fill each step's heading_rad with its PCA motion direction.

    The window for a step spans (peak_time - lookback, valley_time] where the
    lookback is the pace capped at 2.5 half-periods, so a long pause before
    the step does not drag the previous corridor into the window.
    Low-confidence windows reuse the previous step's heading (the phone yaw
    for the first). Returns the per-sample attitude states for callers.
    """
    states = track_attitude(log.accel, log.gyro, log.magn, cfg)
    times = np.array([s.app_timestamp for s in log.accel])
    accel_v = np.array([s.values for s in log.accel])
    grav = _smoothed_gravity(states, times)

    prev_heading: float | None = None
    for step in steps:
        lookback = min(step.pace, 2.5 * max(step.valley_time - step.peak_time, 1e-3))
        lo = int(np.searchsorted(times, step.peak_time - lookback, side="right"))
        hi = int(np.searchsorted(times, step.valley_time, side="right"))
        state = states[step.peak_index]
        window = []
        for k in range(lo, hi):
            linear = accel_v[k] - GRAVITY * grav[k]
            flat = earth_horizontal(linear, grav[k], states[k].yaw)
            if flat is not None:
                window.append(flat)
        est = motion_direction(np.array(window) if window else np.empty((0, 2)), state.yaw, cfg)
        if est.low_confidence:
            step.heading_rad = prev_heading if prev_heading is not None else est.phone_yaw
        else:
            step.heading_rad = est.motion_heading
        prev_heading = step.heading_rad
    return states
