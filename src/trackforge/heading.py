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

Gravity and yaw depend on the previous sample. Yaw loops per sample on
Python floats. Gravity splits into chains, each starting at a snap to the
accelerometer, and ``_gravity_chains`` applies the k-th rotation of every
chain at once as columns, then finishes the few long chains one rotation at a
time on Python floats, ``_GRAVITY_BLOCK`` rotations at a time, so its Python
floats never cover the whole log. Everything else runs over columns too:
which samples snap, the gyro rotation angle and axis of the samples that
rotate, the horizontal plane, compass yaw, gyro yaw turns and step
projection. The trust gate
decides every compass fix's window before the yaw loop. A filter
(``_gate_filter``) decides each window whose correlation an error bound on
per-block prefix sums places strictly on one side of the gate, and each
window whose rows the bound proves flat or moving as the kernel's flatness
test finds them; the exact kernel (``_increment_correlation``) correlates
the others one window at a time, so every decision is the kernel's. The
PCA of every step's window runs at once too.

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


_GATE_BLOCK = 1 << 12  # windows per block of the gate filter's prefix sums
_GRAVITY_BLOCK = 1 << 12  # rotations per block of the per-value gravity tail
# fewest chains that a lockstep round of _gravity_chains takes. A round
# costs about 20 us plus 0.3 us per chain, a per-value rotation about 1.2 us:
# on one 2-vCPU host, best of 15, chains of 40 rotations cost the same
# either way at 24 chains, and 20 % less in rounds at 32
_LOCKSTEP_CHAINS = 32
_U = 2.0 ** -53  # unit roundoff of float64
_TINY = 2.0 ** -960  # absolute slack of every filter bound, for underflow


def _centred(spq, sp, sq, e_spq, e_sp, e_sq, n):
    """``spq - sp * sq / n`` from window sums with error bounds ``e_*``, and
    a bound on its distance from the centred sum of the exact window."""
    h = sp * sq / n
    err = e_spq + _U * np.abs(spq) + 4 * _U * np.abs(h)
    return spq - h, err + (e_sp * np.abs(sq) + e_sq * np.abs(sp) + e_sp * e_sq) / n + _TINY


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
    x = incs[:, lo:int(stops.max())]
    first, end = starts - lo, stops - lo
    n = end - first
    prefix = np.zeros((5, x.shape[1] + 1))
    with np.errstate(all="ignore"):  # a NaN, inf or overflow only certifies nothing
        np.cumsum(np.concatenate((x, x * x, x[:1] * x[1:])), axis=1, out=prefix[:, 1:])
        sums = prefix[:, end] - prefix[:, first]
        s, ss, sab, m = sums[:2], sums[2:4], sums[4], prefix[2:4, end]
        m_up = m * (1 + 2.0 ** -20) + _TINY
        c = (2 * end + 4) * _U
        e_s = c * np.sqrt(end * m_up)
        e_ss = c * m_up + _TINY
        var, e_var = _centred(ss, s, s, e_ss, e_s, e_s, n)
        cov, e_cov = _centred(sab, s[0], s[1], c * np.sqrt(m_up[0] * m_up[1]) + _TINY, e_s[0], e_s[1], n)
        bound = ss + e_ss
        f_var = e_var + (n + 3) * _U * bound + _TINY
        f_cov = e_cov + (n + 3) * _U * np.sqrt(bound[0] * bound[1]) + _TINY
        roots = np.sqrt(var)
        r = cov / roots[0] / roots[1]
        margin = 1.5 * (np.abs(r) * (f_var / var).max(axis=0) + f_cov / (roots[0] * roots[1]))
        margin += 16 * _U * np.abs(r) + _TINY
        over = r - gate
        finite = (m <= 2.0 ** 960).all(axis=0) & (end <= 1 << 25)
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
    it can certify, ``_GATE_BLOCK`` windows at a time, and the kernel the
    others, one at a time."""
    certain = np.zeros(len(starts), dtype=bool)
    passed = np.zeros(len(starts), dtype=bool)
    for lo in range(0, len(starts), _GATE_BLOCK):
        block = slice(lo, lo + _GATE_BLOCK)
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
    time, ``_GRAVITY_BLOCK`` rotations at a time. So no Python object per
    sample of the whole log exists at once.
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
    a, out = axes[at].T, np.empty((3, len(at)))
    a120, a201, k = a[[1, 2, 0]], a[[2, 0, 1]], 1.0 - cos  # _cross's factors, rows rolled
    v, lo = value[heads].T, 0
    with np.errstate(all="ignore"):  # Python floats raise no warning on NaN
        for m in sizes.tolist():  # each line _rotate's, term for term, over (3, m) columns
            here, v = slice(lo, lo + m), v[:, :m]
            d = a[:, here] * v
            cross = a120[:, here] * v[[2, 0, 1]] - a201[:, here] * v[[1, 2, 0]]
            r = v * cos[here] + cross * sin[here] + a[:, here] * (d[0] + d[1] + d[2]) * k[here]
            squares = r * r
            norm = np.sqrt(squares[0] + squares[1] + squares[2])
            norm[norm == 0.0] = math.nan
            v = np.divide(r, norm, out=out[:, here])
            lo += m
    value[at] = out.T

    # the rest of each chain, one value at a time
    tail = np.flatnonzero(rank > rounds)  # in sample order, each chain's rest back to back
    for lo in range(0, len(tail), _GRAVITY_BLOCK):
        part = tail[lo:lo + _GRAVITY_BLOCK]
        fresh = rank[part] == rounds + 1
        chain_values = iter(value[part[fresh] - 1].tolist())
        rows = []
        for new_chain, turn, ax in zip(fresh.tolist(), angles[part].tolist(), axes[part].tolist()):
            g = _rotate(next(chain_values) if new_chain else g, ax, turn)
            rows.append(g)
        value[part] = rows
    return value[np.cumsum(start | rotate) - 1]


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
    start = snap.copy()
    start[0] = True  # sample 0 starts the first chain, snapped or not
    seeds = accel_v[snap] / norms[snap, None]
    if not snap[0]:
        first = accel_v[0] / norms[0] if norms[0] > 1e-9 else (0.0, 0.0, 1.0)
        seeds = np.concatenate(([first], seeds))
    gravity = _gravity_chains(start, rotate, seeds, angle, axis)

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
    steps = memoryview(np.diff(np.array(fix_yaws, dtype=float)))
    incs[1, 1:] = np.fromiter(map(math.atan2, map(math.sin, steps), map(math.cos, steps)), float)  # wrap_angle
    starts = np.searchsorted(times[fix], times[fix] - cfg.corr_window_s)
    stops = np.arange(1, len(fix) + 1)
    decides = stops - starts >= 3
    passed = _trust_gate(incs, starts[decides], stops[decides], cfg.corr_gate)
    trusts = np.concatenate(([True], passed))[np.searchsorted(fix[decides], np.arange(n), side="right")]

    yaw, yaws, atan2, sin, cos = 0.0, [], math.atan2, math.sin, math.cos
    for turn, mag_yaw, trusted in zip(turns.tolist(), mag_yaws, trusts.tolist()):
        if trusted and mag_yaw is not None:
            yaw = mag_yaw
        else:
            yaw += turn
            yaw = atan2(sin(yaw), cos(yaw))  # wrap_angle, inlined
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
    dt = _median(np.diff(times))
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
