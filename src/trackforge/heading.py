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

Gravity and yaw depend on the previous sample. ``track_attitude`` and
``step_headings`` take the log ``_BLOCK`` accelerometer samples at a time,
and carry from one block to the next only what their recurrences need, so
their temporaries follow the block, not the log; only the attitude records
and a few columns of one value per step or sample span the whole log. Yaw
loops per sample on Python floats. Gravity splits into chains, each
starting at a snap to the accelerometer (a block's first chain starts at the
carried gravity of the sample before it), and ``_gravity_chains`` applies
the k-th rotation of every chain of the block at once as columns, then
finishes the few long chains one rotation at a time on Python floats.
Everything else runs over a block's columns too: which samples snap, the
gyro rotation angle and axis of the samples that rotate, the horizontal
plane, compass yaw, gyro yaw turns and step projection. The trust gate
decides every compass fix's window of the block before its yaw loop, with
the fixes of the last window carried over. A filter (``_gate_filter``)
decides each window whose correlation an error bound on per-block prefix
sums places strictly on one side of the gate, and each window whose rows
the bound proves flat or moving as the kernel's flatness test finds them;
the exact kernel (``_increment_correlation``) correlates the others one
window at a time, so every decision is the kernel's. The PCA of the steps
whose windows end in a block runs at once too.

No value goes through BLAS, whose kernel is picked at run time from the CPU
and rounds differently from one kernel to the next. Every dot product, cross
product and norm is written out as multiplies and adds in one fixed order,
``a0*b0 + a1*b1 + a2*b2``: NumPy ufuncs over columns and the same expression
on Python floats per sample, so the two forms agree bit for bit. Sums over
windows are NumPy reductions, whose order depends only on the window's
length; the gate filter's prefix sums give no value, only decisions that
their bound proves. Sines, cosines and arctangents come from libm
(``math``), per value: NumPy's SIMD kernels for them may round differently.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .logio import SensorLog, SensorStream, nearest_index
from .stepdetect import Step, fixed_dot, window_rows

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
    axis = np.divide(omega, rate[:, None], out=np.zeros(np.shape(omega)), where=spins[:, None])
    return angle, spins, axis


def _rotate(v: Sequence[float], axis: Sequence[float], angle: float) -> tuple[float, float, float]:
    """Rodrigues rotation of the 3-vector v by -angle about the unit axis,
    renormalized, on Python floats: ``fixed_dot`` and ``_cross`` written
    out, as it runs once per rotation of a chain's per-value tail;
    ``_gravity_chains`` runs the same operations in the same order on
    columns. A result too short to square (v zero or below about 1e-154)
    has no direction: NaN."""
    c, s = math.cos(-angle), math.sin(-angle)
    (v0, v1, v2), (a0, a1, a2) = v, axis
    d = a0 * v0 + a1 * v1 + a2 * v2
    k = 1.0 - c
    r0 = v0 * c + (a1 * v2 - a2 * v1) * s + a0 * d * k
    r1 = v1 * c + (a2 * v0 - a0 * v2) * s + a1 * d * k
    r2 = v2 * c + (a0 * v1 - a1 * v0) * s + a2 * d * k
    norm = math.sqrt(r0 * r0 + r1 * r1 + r2 * r2) or math.nan
    return (r0 / norm, r1 / norm, r2 / norm)


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


def _compass_yaws(gravity: np.ndarray, mag: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows of (n, 3) gravity and field rows that have a
    ``tilt_compensated_yaw``, and their yaws.

    A row whose larger horizontal field component is 2e-12 or more has a
    hypot above 1e-12; only the other rows call ``math.hypot``. The
    arctangents run per row on Python floats, because ``np.arctan2`` rounds
    differently from ``math.atan2`` on some inputs.
    """
    mag = np.asarray(mag, dtype=float)
    e1, e2, defined = _horizontal_basis(gravity)
    usable = defined & ~(np.sqrt(fixed_dot(mag.T, mag.T)) < 1e-12)
    c, s = fixed_dot(mag.T, e1.T), fixed_dot(mag.T, e2.T)
    with np.errstate(invalid="ignore"):  # a NaN component goes to math.hypot
        long = np.maximum(np.abs(c), np.abs(s)) >= 2e-12
    ok = usable & long
    short = np.flatnonzero(usable & ~long)
    ok[short] = [not math.hypot(cs, sn) < 1e-12 for cs, sn in zip(c[short].tolist(), s[short].tolist())]
    rows = np.flatnonzero(ok)
    return rows, np.fromiter(map(math.atan2, s[rows].tolist(), c[rows].tolist()), float, len(rows))


def tilt_compensated_yaw(gravity: np.ndarray, mag: np.ndarray) -> float | None:
    """Compass yaw from a magnetometer sample rotated into the horizontal plane.

    Returns None for a zero/vertical field or a gimbal-locked pose (caller
    retains the previous yaw). The one-row case of ``_compass_yaws``.
    """
    rows, yaws = _compass_yaws(np.reshape(gravity, (1, 3)), np.reshape(mag, (1, 3)))
    return float(yaws[0]) if len(rows) else None


def _increment_correlation(w: np.ndarray) -> float:
    """Pearson correlation of the two rows of a (2, n) window of (gyro,
    magnetometer) yaw increments, n >= 3 (``track_attitude`` guarantees it):
    two flat rows agree (1.0), one flat against one moving disagrees (0.0).

    The steps are those of ``np.std`` and ``np.corrcoef`` on the window, in
    their order, except that every sum of products is a NumPy sum over a row
    rather than a BLAS product. A row's mean is its sum over n. The flatness
    test is ``np.std``'s root of the summed ``x * x`` over n; the same sums,
    times 1 / (n - 1), are the covariance's diagonal, and the summed
    ``x[0] * x[1]`` its off-diagonal. The correlation divides by one root of
    the diagonal, then by the other, and clips to [-1, 1], as ``np.corrcoef``
    does. The trust gate's exact kernel: ``_trust_gate`` sends it the windows
    that ``_gate_filter``'s bound cannot decide.
    """
    n = w.shape[1]
    x = w - w.sum(axis=1, keepdims=True) / n
    squares = (x * x).sum(axis=1)
    flat = np.sqrt(squares / n) < _FLAT_STD
    if flat.any():
        return float(flat.all())
    scale = 1 / (n - 1)
    var = squares * scale
    cov = (x[0] * x[1]).sum() * scale
    return float(np.clip(cov / np.sqrt(var[0]) / np.sqrt(var[1]), -1.0, 1.0))


_BLOCK = 1 << 12  # accelerometer samples per block of track_attitude and step_headings
# fewest chains that a lockstep round of _gravity_chains takes. A round
# costs about 15 us plus 0.04 us per chain, a per-value rotation about
# 0.9 us: on one 2-vCPU host, best of 15 over the 12 blocks of the default
# corpus, cutovers of 16, 24 and 32 chains cost the same, 48 and 64 cost 3 %
# and 8 % more, and every chain per value 2.8 times as much
_LOCKSTEP_CHAINS = 32
_U = 2.0 ** -53  # unit roundoff of float64
_TINY = 2.0 ** -960  # absolute slack of every filter bound, for underflow


def _centred(spq, sp, sq, e_spq, e_sp, e_sq, n):
    """``spq - sp * sq / n`` from window sums with error bounds ``e_*``, and
    a bound on its distance from the centred sum of the exact window."""
    h = sp * sq / n
    err = e_spq + _U * np.abs(spq) + 4 * _U * np.abs(h)
    return spq - h, err + (e_sp * np.abs(sq) + e_sq * np.abs(sp) + e_sp * e_sq) / n + _TINY


def _centred_sums(x: np.ndarray, first: np.ndarray, end: np.ndarray, n: np.ndarray) -> tuple[np.ndarray, ...]:
    """``_gate_filter``'s window sums from prefix sums over the columns of
    the (2, k) increments ``x``, for the windows ``x[:, first[i]:end[i]]`` of
    ``n[i]`` columns: the centred sums C_pp (2, w) and C_ab (w,) with their
    bounds E(C), the bounds s_pp + E_pp on the sums of squares, and whether
    the prefix sums up to each window's end are small enough to certify."""
    prefix = np.zeros((5, x.shape[1] + 1))
    np.cumsum(np.concatenate((x, x * x, x[:1] * x[1:])), axis=1, out=prefix[:, 1:])
    sums = prefix[:, end] - prefix[:, first]
    s, ss, sab, m = sums[:2], sums[2:4], sums[4], prefix[2:4, end]
    m_up = m * (1 + 2.0 ** -20) + _TINY
    c = (2 * end + 4) * _U
    e_s = c * np.sqrt(end * m_up)
    e_ss = c * m_up + _TINY
    var, e_var = _centred(ss, s, s, e_ss, e_s, e_s, n)
    cov, e_cov = _centred(sab, s[0], s[1], c * np.sqrt(m_up[0] * m_up[1]) + _TINY, e_s[0], e_s[1], n)
    return var, e_var, cov, e_cov, ss + e_ss, (m <= 2.0 ** 960).all(axis=0) & (end <= 1 << 25)


def _gate_filter(incs: np.ndarray, starts: np.ndarray, stops: np.ndarray, gate: float) -> tuple[np.ndarray, np.ndarray]:
    """(certain, passed) of one block of windows ``incs[:, starts[i]:stops[i]]``:
    ``passed[i]`` is ``_increment_correlation(...) > gate`` of window i wherever
    ``certain[i]``, proven from prefix sums over the block's columns alone:
    a fast filter with an exact fallback, as in J. R. Shewchuk's adaptive
    predicates (DCG 1997), over the one-pass sum-of-squares formula whose
    cancellation T. F. Chan, G. H. Golub and R. J. LeVeque analyse
    (Am. Stat. 1983).

    Notation: u = 2**-53; a window of n >= 3 fixes ends e columns into the
    block; p and q are its gyro (a) and compass (b) rows; M_p is the block's
    prefix sum of fl(p*p) at e; tau = 2**-960 is added to every bound and
    covers every underflow (at most a few times 2**-1075 per operation).

    Window sums. Each of the five prefix sums (of a, b, a*a, b*b, a*b) adds
    its terms left to right (``np.cumsum``), so its value at e errs by at most
    gamma_e = e*u / (1 - e*u) times the sum of its first e terms' absolute
    values (N. J. Higham, "Accuracy and Stability of Numerical Algorithms",
    section 4.2), and so does its value at the window's start; the window sum
    is their difference, rounded once. The sum of p*p over the first e
    columns is at most M_p+ = M_p (1 + 2**-20) + tau, and by Cauchy-Schwarz
    that of |p| at most sqrt(e M_p+) and that of |p q| at most
    sqrt(M_p+ M_q+). So, for e <= 2**25, the window sums s_p and s_pq are
    within E_p = (2e + 4) u sqrt(e M_p+) and
    E_pq = (2e + 4) u sqrt(M_p+ M_q+) + tau of the exact window's. The
    centred sums C_pq = s_pq - s_p s_q / n (``_centred``) are then within
    E(C_pq) = E_pq + u |s_pq| + 4u |s_p s_q / n|
              + (E_p |s_q| + E_q |s_p| + E_p E_q) / n + tau
    of the exact Sum (p - mean p)(q - mean q).

    The kernel. ``_increment_correlation`` centres each row on its rounded
    mean, off the true mean by at most gamma_n sqrt(S_pp / n), with S_pp the
    window's exact sum of p*p, and sums products of rounded differences in
    any order; its sums of squares and of products are within
    (n + 3) u sqrt(S_pp S_qq) + tau of the exact centred sums, and
    S_pp <= s_pp + E_pp. So the kernel's sums lie within F_pq of C_pq,
    F_pq = E(C_pq) + (n + 3) u sqrt((s_pp + E_pp)(s_qq + E_qq)) + tau.

    Decision. A window is certified only if M_a and M_b are at most 2**960
    (no NaN, inf or overflow anywhere in the block up to it, in the filter or
    the kernel) and e <= 2**25. A row is moving if C_pp >= 8 n _FLAT_STD**2
    and F_pp <= C_pp / 4: the kernel's sum of squares is then above
    5 n _FLAT_STD**2, so the kernel does not find it flat. A row is flat if
    C_pp + F_pp <= n _FLAT_STD**2 / 2: the kernel's sum of squares is at most
    C_pp + F_pp, so its root of that sum over n is at most
    _FLAT_STD / sqrt(2), times 1 + 8u for the roundings of this test and of
    the kernel's division and root, which is below _FLAT_STD: the kernel
    finds it flat. So a window of two flat rows is the kernel's 1.0, and one
    of a flat and a moving row its 0.0, each compared with the gate.

    A window of two moving rows is decided from its correlation. With phi
    the larger F_pp / C_pp and r = C_ab / sqrt(C_aa) / sqrt(C_bb), the ratio
    of the kernel's sums is within (|r| phi + F_ab / sqrt(C_aa C_bb)) /
    (1 - phi) of r; its seven roundings from there to its unclipped
    correlation, two of them under a square root, add at most 7u relative
    (the scale 1 / (n - 1) cancels), and r's own four roundings at most 5u.
    So the kernel's unclipped correlation lies within
    M = 1.5 (|r| phi + F_ab / sqrt(C_aa C_bb)) + 16u |r| + tau
    of the computed r; the factors 1.5 against 4/3 and 16u against 12u also
    cover the rounding of M's own evaluation. The window passes for certain
    when r - gate > M and gate < 1, as clipping to [-1, 1] keeps it above
    such a gate, and fails for certain when r - gate < -M and gate >= -1.
    Every comparison is false on NaN, so a non-finite value certifies nothing.
    """
    lo = int(starts.min())
    first, end = starts - lo, stops - lo
    n = end - first
    with np.errstate(all="ignore"):  # a NaN, inf or overflow only certifies nothing
        var, e_var, cov, e_cov, bound, finite = _centred_sums(incs[:, lo:int(stops.max())], first, end, n)
        f_var = e_var + (n + 3) * _U * bound + _TINY
        f_cov = e_cov + (n + 3) * _U * np.sqrt(bound[0] * bound[1]) + _TINY
        roots = np.sqrt(var)
        r = cov / roots[0] / roots[1]
        margin = 1.5 * (np.abs(r) * (f_var / var).max(axis=0) + f_cov / (roots[0] * roots[1]))
        margin += 16 * _U * np.abs(r) + _TINY
        over = r - gate
        flat = var + f_var <= n * _FLAT_STD ** 2 / 2
        moving = (var >= 8 * n * _FLAT_STD ** 2) & (f_var <= var / 4)
        both_flat = flat.all(axis=0)
        settled = both_flat | (flat & moving[::-1]).any(axis=0)  # the kernel's 1.0 or 0.0
        correlated = ((over > margin) & (gate < 1)) | ((over < -margin) & (gate >= -1))
        certain = finite & (settled | (moving.all(axis=0) & correlated))
        passed = np.where(settled, np.where(both_flat, 1.0, 0.0) > gate, over > margin)
    return certain, passed


def _trust_gate(incs: np.ndarray, starts: np.ndarray, stops: np.ndarray, gate: float) -> np.ndarray:
    """Whether ``_increment_correlation(incs[:, a:b]) > gate``, for each window
    [a, b) of ``starts`` and ``stops``: ``_gate_filter`` decides the windows
    it can certify, ``_BLOCK`` windows at a time, and the kernel the
    others, one at a time."""
    certain = np.zeros(len(starts), dtype=bool)
    passed = np.zeros(len(starts), dtype=bool)
    for lo in range(0, len(starts), _BLOCK):
        block = slice(lo, lo + _BLOCK)
        certain[block], passed[block] = _gate_filter(incs, starts[block], stops[block], gate)
    for i in np.flatnonzero(~certain).tolist():
        passed[i] = _increment_correlation(incs[:, starts[i]:stops[i]]) > gate
    return passed


def _gravity_chains(start: np.ndarray, rotate: np.ndarray, seeds: np.ndarray, angle: np.ndarray,
                    axis: np.ndarray) -> np.ndarray:
    """Gravity (n, 3) of n samples: a chain begins at each ``start`` sample
    with its row of ``seeds``, and each ``rotate`` sample after it applies
    ``_rotate`` by its ``angle`` and ``axis`` to the chain's last value; any
    other sample keeps that value. Sample 0 starts a chain.

    Chains are independent, so round k applies the k-th rotation of every
    chain that has one at once, as columns, with ``_rotate``'s operations in
    its order: the same bits. Cosine and sine come from ``math`` per value,
    read from and written to NumPy columns one float at a time. Once fewer
    than ``_LOCKSTEP_CHAINS`` chains are left, a round costs more than it
    saves, and the rest of each chain goes through ``_rotate`` one value at a
    time. ``track_attitude`` calls it on one block of samples at a time, so
    no Python object per sample of the whole log exists at once.
    """
    events = np.flatnonzero(start | rotate)  # the samples where a chain takes a value
    heads = np.flatnonzero(start[events])  # each chain's first event
    lengths = np.diff(heads, append=len(events)) - 1  # its rotations
    rank = np.arange(len(events)) - np.repeat(heads, lengths + 1)  # 0 at a start, k at the k-th rotation
    angles, axes = angle[events], axis[events]
    value = np.empty((len(events), 3))
    value[heads] = seeds

    # lockstep: round k's rotations in one slice of the columns, chains
    # longest first, so the chains of round k + 1 are a prefix of round k's
    heads = heads[np.argsort(-lengths, kind="stable")]
    active = np.cumsum(np.bincount(lengths)[::-1])[::-1]  # active[k]: chains with k or more rotations
    rounds = int(np.count_nonzero(active[1:] >= _LOCKSTEP_CHAINS))
    sizes = active[1:rounds + 1]
    at = heads[window_rows(np.zeros_like(sizes), sizes)] + np.repeat(np.arange(1, rounds + 1), sizes)
    neg = memoryview(-angles[at])
    cos = np.fromiter(map(math.cos, neg), float, len(at))
    sin = np.fromiter(map(math.sin, neg), float, len(at))
    # axes and values as rows x0, x1, x2, x0, x1: rows 1-3 and 2-4 are
    # the vector's rows rolled, _cross's factors
    a, out, k = axes[at].T[[0, 1, 2, 0, 1]], np.empty((5, len(at))), 1.0 - cos
    v, lo = value[heads].T[[0, 1, 2, 0, 1]], 0
    with np.errstate(all="ignore"):  # Python floats raise no warning on NaN
        for m in sizes.tolist():  # each line _rotate's, term for term, over (3, m) columns
            hi = lo + m
            ah, v = a[:, lo:hi], v[:, :m]
            d = ah[:3] * v[:3]
            r = v[:3] * cos[lo:hi]
            r += (ah[1:4] * v[2:5] - ah[2:5] * v[1:4]) * sin[lo:hi]
            r += ah[:3] * (d[0] + d[1] + d[2]) * k[lo:hi]
            squares = r * r
            norm = np.sqrt(squares[0] + squares[1] + squares[2])
            if not norm.all():
                norm[norm == 0.0] = math.nan
            v = out[:, lo:hi]
            np.divide(r, norm, out=v[:3])
            v[3:] = v[:2]
            lo = hi
    value[at] = out[:3].T

    # the rest of each chain, one value at a time
    tail = np.flatnonzero(rank > rounds)  # in sample order, each chain's rest back to back
    fresh = rank[tail] == rounds + 1
    chain_values = iter(value[tail[fresh] - 1].tolist())
    rows = []
    for new_chain, turn, ax in zip(fresh.tolist(), angles[tail].tolist(), axes[tail].tolist()):
        g = _rotate(next(chain_values) if new_chain else g, ax, turn)
        rows.append(g)
    value[tail] = np.reshape(rows, (len(tail), 3))
    return value[np.cumsum(start | rotate) - 1]


def _gravity_turns(t: np.ndarray, accel_v: np.ndarray, gyro: SensorStream, first: np.ndarray | None,
                   g_tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Gravity (n, 3) of the n consecutive samples at times ``t``, and the
    gyro turn about it of each: ``omega . gravity`` times the time since the
    sample before (0 for sample 0).

    Gravity depends on neither yaw nor trust: gyro rotation plus snaps. A
    sample that snaps overwrites its rotation, so only the others rotate.
    Sample 0 starts a chain at ``first``, the gravity of the sample before
    these when there is one, or else at its own normalized accel, (0, 0, 1)
    when that is zero.
    """
    has_gyro = bool(gyro)
    omega = gyro.values[nearest_index(gyro.app_timestamp, t)] if has_gyro else np.zeros((len(t), 3))
    dts = np.diff(t, prepend=t[0])
    norms = np.sqrt(fixed_dot(accel_v.T, accel_v.T))
    snap = (np.abs(norms - GRAVITY) <= g_tol) & (norms > 1e-9)
    angle, spins, axis = _gyro_rotations(omega, dts)
    rotate = spins & (dts > 0) & has_gyro & ~snap
    start = snap.copy()
    start[0] = True
    if first is None:
        first = accel_v[0] / norms[0] if norms[0] > 1e-9 else (0.0, 0.0, 1.0)
    seeds = np.concatenate(([first], accel_v[1:][snap[1:]] / norms[1:, None][snap[1:]]))
    gravity = _gravity_chains(start, rotate, seeds, angle, axis)
    return gravity, fixed_dot(omega.T, gravity.T) * dts


class _TrustGate:
    """``track_attitude``'s trust gate over compass fixes, a block of samples
    at a time. Row 0 of the increments is the gyro turn at each fix, row 1
    the compass change since the previous fix. A fix's window holds the
    fixes within ``corr_window_s``; one of 3 or more decides, one of fewer
    keeps the previous decision. So a sample takes the decision of the last
    deciding fix at or before it (True before the first).

    From block to block it carries the fixes of the last ``corr_window_s``
    (their times and increments), the last fix's yaw and the last decision.
    """

    def __init__(self, cfg: HeadingConfig):
        self.window, self.gate = cfg.corr_window_s, cfg.corr_gate
        self.times, self.incs = np.empty(0), np.empty((2, 0))
        self.last_yaw: float | None = None
        self.trusted = True

    def decide(self, t: np.ndarray, turns: np.ndarray, fix: np.ndarray, fix_yaws: np.ndarray) -> np.ndarray:
        """Whether each sample of a block trusts the compass: the block's
        times ``t`` and gyro turns, and the samples ``fix`` with a compass
        yaw, ``fix_yaws``."""
        new = np.zeros((2, len(fix)))
        new[0] = turns[fix]
        prev = fix_yaws[:0] if self.last_yaw is None else self.last_yaw
        steps = memoryview(np.diff(fix_yaws, prepend=prev))
        new[1, len(fix) - len(steps):] = np.fromiter(map(math.atan2, map(math.sin, steps), map(math.cos, steps)),
                                                     float, len(steps))  # wrap_angle
        keep = np.searchsorted(self.times, t[0] - self.window)  # the carried fixes a window of this block holds
        self.times = np.concatenate((self.times[keep:], t[fix]))
        self.incs = np.concatenate((self.incs[:, keep:], new), axis=1)
        starts = np.searchsorted(self.times, t[fix] - self.window)
        stops = np.arange(len(self.times) - len(fix), len(self.times)) + 1
        decides = stops - starts >= 3
        passed = _trust_gate(self.incs, starts[decides], stops[decides], self.gate)
        trusts = np.concatenate(([self.trusted], passed))[np.searchsorted(fix[decides], np.arange(len(t)), side="right")]
        self.trusted = bool(trusts[-1])
        if len(fix):
            self.last_yaw = float(fix_yaws[-1])
        return trusts


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

    The samples go ``_BLOCK`` at a time. A block carries over from the one
    before only what the recurrences need: the gravity chain's last value,
    as a chain start at the sample just before the block, the yaw, and the
    trust gate's state (``_TrustGate``).
    """
    if not accel:
        raise ValueError("accel stream is empty")
    has_gyro, has_magn = bool(gyro), bool(magn)
    if not has_gyro:
        logger.warning("no gyro stream: attitude tracking degraded to quasi-static updates")

    times, accel_v = accel.app_timestamp, accel.values
    att = np.recarray(len(times), dtype=ATTITUDE_DTYPE)
    gate, yaw, atan2, sin, cos = _TrustGate(cfg), 0.0, math.atan2, math.sin, math.cos
    for b0 in range(0, len(times), _BLOCK):
        b1 = min(b0 + _BLOCK, len(times))
        lo = max(b0 - 1, 0)  # the block's first chain starts here
        gravity, turns = _gravity_turns(times[lo:b1], accel_v[lo:b1], gyro, att.gravity[lo] if b0 else None, cfg.g_tol)
        t, gravity, turns = times[b0:b1], gravity[b0 - lo:], turns[b0 - lo:]
        if has_magn:
            fix, fix_yaws = _compass_yaws(gravity, magn.values[nearest_index(magn.app_timestamp, t)])
        else:
            fix, fix_yaws = np.empty(0, dtype=int), np.empty(0)
        trusts = gate.decide(t, turns, fix, fix_yaws)

        # a trusted fix sets the yaw; every other sample turns it by the gyro
        resets = [None] * len(t)
        for k, mag_yaw in zip(fix[trusts[fix]].tolist(), fix_yaws[trusts[fix]].tolist()):
            resets[k] = mag_yaw
        yaws = []
        for turn, mag_yaw in zip(turns.tolist(), resets):
            if mag_yaw is not None:
                yaw = mag_yaw
            else:
                yaw += turn
                yaw = atan2(sin(yaw), cos(yaw))  # wrap_angle, inlined
            yaws.append(yaw)

        block = att[b0:b1]
        block.gravity, block.yaw, block.mag_trust = gravity, yaws, trusts
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
    cy, sy = np.fromiter(map(math.cos, yaw), float, len(yaw)), np.fromiter(map(math.sin, yaw), float, len(yaw))
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


def _median(values: np.ndarray) -> float:
    """``np.median`` of a non-empty 1-D array from its sorted order: the
    middle value, the mean of the two middle values, or NaN where any value
    is NaN (sorted last). The bits are ``np.median``'s but for the sign of a
    zero median, which follows where sorting, not partitioning, puts tied
    zeros. ``np.median`` loads ``numpy.ma`` on NumPy 2 only to check for
    masked arrays."""
    ordered = np.sort(values)
    mid = len(ordered) // 2
    if np.isnan(ordered[-1]):
        return float(ordered[-1])
    return float(ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2)


def _smoothing_window(times: np.ndarray) -> int:
    """Odd window of the moving average that low-passes tracked gravity for
    linear-acceleration extraction; 1 leaves it as it is.

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
        return 1
    dt = _median(np.diff(times))
    if dt <= 0:
        dt = float(times[-1] - times[0]) / (len(times) - 1)
        if dt <= 0:
            return 1
    return max(1, int(round(min(0.5 / dt, 2 * len(times)))) | 1)


def _smoothed_gravity(grav: np.ndarray, window: int):
    """Yield, ``_BLOCK`` rows at a time, (n, 3) ``grav`` low-passed by
    ``stepdetect.moving_average(grav, window)`` and normalized (a row too
    short to normalize is kept as it is), or unchanged for a window of 1.

    A block's prefix sums reach half a window beyond it on each side and
    continue ``np.cumsum``, which adds left to right, from the prefix row
    carried over from the block before: the whole log's sums, bit for bit.
    """
    n, half = len(grav), window // 2
    for b0 in range(0, n, _BLOCK):
        b1 = min(b0 + _BLOCK, n)
        if window <= 1:
            yield grav[b0:b1]
            continue
        lo, hi = max(b0 - half, 0), min(b1 + half, n)
        if lo:
            prefix = np.cumsum(np.concatenate((carry, grav[lo:hi])), axis=0)
        else:  # moving_average's leading zero row
            prefix = np.concatenate((np.zeros((1, 3)), np.cumsum(grav[:hi], axis=0)))
        carry = prefix[max(b1 - half, 0) - lo, None]
        rows = np.arange(b0, b1)
        first, last = np.maximum(rows - half, 0) - lo, np.minimum(rows + half + 1, n) - lo
        smoothed = (prefix[last] - prefix[first]) / (last - first)[:, None]
        norms = np.linalg.norm(smoothed, axis=1, keepdims=True)
        norms[norms < 1e-12] = 1.0
        yield smoothed / norms


def step_headings(
    steps: Sequence[Step], log: SensorLog, cfg: HeadingConfig = HeadingConfig()
) -> None:
    """Fill each step's heading_rad with its PCA motion direction.

    The window for a step spans (peak_time - lookback, valley_time] where the
    lookback is the pace capped at 2.5 half-periods, so a long pause before
    the step does not drag the previous corridor into the window.
    Low-confidence windows reuse the previous step's heading (the phone yaw
    for the first).

    After ``track_attitude``, the samples go ``_BLOCK`` at a time: each
    block's rows are smoothed and projected, and the steps whose windows end
    in it take their PCA, with the projected rows of earlier blocks that a
    later window still reaches back to.
    """
    att = track_attitude(log.accel, log.gyro, log.magn, cfg)
    times, accel_v = log.accel.app_timestamp, log.accel.values

    # each step's window [lo, hi), and the steps in the order of the blocks
    # where their windows end
    lookbacks = [min(step.pace, 2.5 * max(step.valley_time - step.peak_time, 1e-3)) for step in steps]
    lo = np.searchsorted(times, np.array([step.peak_time for step in steps]) - lookbacks, side="right")
    hi = np.maximum(np.searchsorted(times, [step.valley_time for step in steps], side="right"), lo)
    phone_yaws = att.yaw[[step.peak_index for step in steps]].tolist()
    ends = np.maximum(hi - 1, 0) // _BLOCK
    order = np.argsort(ends, kind="stable")
    cuts = np.searchsorted(ends[order], np.arange(-(-len(times) // _BLOCK)), side="right")
    needed = np.minimum.accumulate(lo[order][::-1])[::-1]  # the first row of the windows from each on

    estimates: list[HeadingEstimate | None] = [None] * len(steps)
    xy, defined, first, done = np.empty((0, 2)), np.empty(0, dtype=bool), 0, 0
    for k, grav in enumerate(_smoothed_gravity(att.gravity, _smoothing_window(times))):
        b0 = k * _BLOCK
        b1 = b0 + len(grav)
        rows_xy, rows_defined = earth_horizontal(accel_v[b0:b1] - GRAVITY * grav, grav, att.yaw[b0:b1])
        xy, defined = np.concatenate((xy, rows_xy)), np.concatenate((defined, rows_defined))
        due, done = order[done:cuts[k]], cuts[k]
        if len(due):
            # the defined rows of each window, the windows back to back
            rows = window_rows(lo[due] - first, hi[due] - first)
            defined_before = np.concatenate(([0], np.cumsum(defined)))
            counts = defined_before[hi[due] - first] - defined_before[lo[due] - first]
            found = _motion_directions(xy[rows[defined[rows]]], counts, [phone_yaws[i] for i in due.tolist()], cfg)
            for i, est in zip(due.tolist(), found):
                estimates[i] = est
        keep = min(int(needed[done]), b1) if done < len(steps) else b1
        xy, defined, first = xy[keep - first:], defined[keep - first:], keep

    prev_heading: float | None = None
    for step, est in zip(steps, estimates):
        if est.low_confidence:
            step.heading_rad = prev_heading if prev_heading is not None else est.phone_yaw
        else:
            step.heading_rad = est.motion_heading
        prev_heading = step.heading_rad
