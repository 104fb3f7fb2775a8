"""Gait classification and table-lookup stride length.

Per-step features (duration, accel variance, peak, RMS) feed a two-level
linear classifier: level 1 separates slow from {normal, fast}, level 2
separates normal from fast. A score of exactly 0 goes to the larger-stride
side at both levels. The winning class indexes a stride table (meters).

Separators are trained with a deterministic full-batch hinge-loss subgradient
descent on standardized features; the learned standardization is folded back
into the stored weights so classification takes raw features.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .logio import parse_key_values, write_text
from .stepdetect import StrideFeatures, fixed_dot, window_rows


class Gait(str, enum.Enum):
    SLOW = "slow"
    NORMAL = "normal"
    FAST = "fast"


DEFAULT_STRIDE_TABLE = {Gait.SLOW: 0.50, Gait.NORMAL: 0.70, Gait.FAST: 0.90}
_EPOCHS = 400  # subgradient steps of each separator fit
_LAMBDA = 1e-3  # L2 weight of the hinge loss, whose inverse scales the step size


class GaitTrainingError(ValueError):
    pass


class GaitModelError(RuntimeError):
    """Model missing or malformed (configuration problem, not data)."""


@dataclass(frozen=True)
class GaitModel:
    """Two linear separators plus the gait -> stride-length table.

    Scores are dot products on raw feature vectors (duration, variance, peak,
    rms), summed in order: ``score = w0*x0 + w1*x1 + w2*x2 + w3*x3 + b``.
    level1 >= 0 selects the {normal, fast} branch; level2 >= 0 selects fast.
    """

    l1_weights: tuple[float, float, float, float]
    l1_bias: float
    l2_weights: tuple[float, float, float, float]
    l2_bias: float
    stride_table: dict[Gait, float]

    def validate(self) -> None:
        if not all(math.isfinite(v) for v in (*self.l1_weights, self.l1_bias, *self.l2_weights, self.l2_bias)):
            raise GaitModelError("gait model weights and biases must be finite")
        for gait in Gait:
            length = self.stride_table.get(gait)
            if length is None or not (0.0 < length <= 2.0):
                raise GaitModelError(f"stride table entry for {gait.value} invalid: {length}")


def default_gait_model() -> GaitModel:
    # Hand-set separators on (duration, variance): slow walks are long and
    # flat, fast walks short and energetic. Margins ~2 units on the synthetic
    # gait statistics, so classification survives moderate sensor noise.
    return GaitModel(
        l1_weights=(-10.0, 1.0, 0.0, 0.0),
        l1_bias=5.0,
        l2_weights=(-10.0, 1.0, 0.0, 0.0),
        l2_bias=0.0,
        stride_table=dict(DEFAULT_STRIDE_TABLE),
    )


def _window_features(first_t, last_t, m: np.ndarray, n: np.ndarray) -> list[np.ndarray]:
    """(duration, variance, peak, rms) columns of the windows of m that lie
    back to back, window i holding n[i] >= 1 values. Each window's sums are
    ``np.add.reduceat`` sums, whose order depends only on the window's
    length, so a window has the same features alone as among others."""
    offsets = np.cumsum(n) - n
    centered = m - np.repeat(np.add.reduceat(m, offsets) / n, n)
    return [
        last_t - first_t,
        np.add.reduceat(centered * centered, offsets) / n,
        np.maximum.reduceat(m, offsets),
        np.sqrt(np.add.reduceat(m * m, offsets) / n),
    ]


def step_features(times: np.ndarray, magnitudes: np.ndarray, starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """``extract_features`` of every window ``[starts[i], stops[i])`` of the
    magnitude series at once, each window one or more samples long: a (k, 4)
    array of (duration, variance, peak, rms) rows."""
    times, magnitudes = np.asarray(times, dtype=float), np.asarray(magnitudes, dtype=float)
    starts, stops = np.asarray(starts), np.asarray(stops)
    m = magnitudes[window_rows(starts, stops)]
    return np.column_stack(_window_features(times[starts], times[stops - 1], m, stops - starts))


def extract_features(times: np.ndarray, magnitudes: np.ndarray) -> StrideFeatures:
    """Features over the magnitude window spanning one step.

    duration = last - first time (translation-invariant); variance is the
    population variance; rms = sqrt(mean(m^2)). The one-window case of
    ``step_features``.
    """
    times, magnitudes = np.asarray(times, dtype=float), np.asarray(magnitudes, dtype=float)
    if len(times) == 0:
        raise ValueError("step window is empty")
    columns = _window_features(times[:1], times[-1:], magnitudes, np.array([len(magnitudes)]))
    return StrideFeatures(*(column.item() for column in columns))


def _scores(x, model: GaitModel | None):
    """Level-1 and level-2 scores ``w0*x0 + w1*x1 + w2*x2 + w3*x3 + b`` of
    the (duration, variance, peak, rms) values x: floats or columns."""
    if model is None:
        raise GaitModelError("no gait model loaded")
    return fixed_dot(x, model.l1_weights) + model.l1_bias, fixed_dot(x, model.l2_weights) + model.l2_bias


def _gait(s1: float, s2: float) -> Gait:
    """Level 1 below 0 is slow; else level 2 at or above 0 is fast."""
    return Gait.SLOW if s1 < 0 else Gait.FAST if s2 >= 0 else Gait.NORMAL


def classify_gaits(features: np.ndarray, model: GaitModel | None) -> list[Gait]:
    """``classify_gait`` of each row of a (k, 4) feature array: the same
    scores, over columns."""
    s1, s2 = _scores(np.asarray(features, dtype=float).T, model)
    return [_gait(a, b) for a, b in zip(s1.tolist(), s2.tolist())]


def classify_gait(features: StrideFeatures, model: GaitModel | None) -> Gait:
    """Deterministic class in {slow, normal, fast}; boundary goes to the
    larger-stride side at both levels. Scored on Python floats."""
    f = features
    return _gait(*_scores((f.stride_duration, f.accel_variance, f.accel_peak, f.accel_rms), model))


def stride_length(gait: Gait, model: GaitModel) -> float:
    return model.stride_table[gait]


def _fit_linear(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, float]:
    """Full-batch hinge-loss subgradient descent; y in {-1, +1}.

    Standardizes features internally and folds the scaling back into the
    returned raw-space (weights, bias). No randomness involved.
    """
    mu = X.mean(axis=0)
    sd = X.std(axis=0)
    sd[sd < 1e-12] = 1.0
    Xs = (X - mu) / sd
    n, d = Xs.shape
    w = np.zeros(d)
    b = 0.0
    for t in range(1, _EPOCHS + 1):
        margins = y * (fixed_dot(Xs.T, w) + b)
        active = margins < 1.0
        lr = 1.0 / (_LAMBDA * t)
        grad_w = _LAMBDA * w - (y[active, None] * Xs[active]).sum(axis=0) / n
        grad_b = -(y[active]).sum() / n
        w = w - lr * grad_w
        b = b - lr * grad_b
    w_raw = w / sd
    b_raw = b - float(fixed_dot(w, mu / sd))
    return w_raw, float(b_raw)


@dataclass
class TrainReport:
    model: GaitModel
    accuracy: float
    n_samples: int


def train_gait_model(labeled: Sequence[tuple[StrideFeatures, Gait]]) -> TrainReport:
    """Fit the two-level separator from labeled step features.

    Raises GaitTrainingError if fewer than two classes are present. When the
    {normal, fast} branch holds a single class, level 2 degenerates to a
    constant separator for that class. The model's stride table is
    ``DEFAULT_STRIDE_TABLE``.
    """
    if not labeled:
        raise GaitTrainingError("no training samples")
    classes = {gait for _, gait in labeled}
    if len(classes) < 2:
        raise GaitTrainingError(f"need >= 2 gait classes, got {sorted(c.value for c in classes)}")

    X = np.array([f.as_vector() for f, _ in labeled])
    gaits = [gait for _, gait in labeled]

    y1 = np.array([-1.0 if g is Gait.SLOW else 1.0 for g in gaits])
    if len(set(y1)) == 1:
        # no slow examples at all: level 1 trivially routes to the branch
        w1, b1 = np.zeros(4), 1.0
    else:
        w1, b1 = _fit_linear(X, y1)

    branch = [i for i, g in enumerate(gaits) if g is not Gait.SLOW]
    if branch:
        y2 = np.array([1.0 if gaits[i] is Gait.FAST else -1.0 for i in branch])
        if len(set(y2)) == 1:
            w2, b2 = np.zeros(4), float(y2[0])
        else:
            w2, b2 = _fit_linear(X[branch], y2)
    else:
        w2, b2 = np.zeros(4), -1.0

    model = GaitModel(
        l1_weights=tuple(float(v) for v in w1),
        l1_bias=b1,
        l2_weights=tuple(float(v) for v in w2),
        l2_bias=b2,
        stride_table=dict(DEFAULT_STRIDE_TABLE),
    )
    hits = sum(1 for fitted, g in zip(classify_gaits(X, model), gaits) if fitted is g)
    return TrainReport(model=model, accuracy=hits / len(labeled), n_samples=len(labeled))


def save_gait_model(model: GaitModel, path: str | Path) -> None:
    lines = [
        "l1.weights = " + " ".join(repr(v) for v in model.l1_weights),
        f"l1.bias = {model.l1_bias!r}",
        "l2.weights = " + " ".join(repr(v) for v in model.l2_weights),
        f"l2.bias = {model.l2_bias!r}",
        f"table.slow = {model.stride_table[Gait.SLOW]!r}",
        f"table.normal = {model.stride_table[Gait.NORMAL]!r}",
        f"table.fast = {model.stride_table[Gait.FAST]!r}",
    ]
    write_text(path, "\n".join(lines) + "\n")


def load_gait_model(path: str | Path) -> GaitModel:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise GaitModelError(f"cannot read gait model {path}: {exc}") from None
    entries = {key: value for _, key, value in parse_key_values(text, str(path), GaitModelError)}
    try:
        def vec(key: str) -> tuple[float, float, float, float]:
            parts = tuple(float(v) for v in entries[key].split())
            if len(parts) != 4:
                raise GaitModelError(f"{key} must have 4 components")
            return parts

        model = GaitModel(
            l1_weights=vec("l1.weights"),
            l1_bias=float(entries["l1.bias"]),
            l2_weights=vec("l2.weights"),
            l2_bias=float(entries["l2.bias"]),
            stride_table={
                Gait.SLOW: float(entries["table.slow"]),
                Gait.NORMAL: float(entries["table.normal"]),
                Gait.FAST: float(entries["table.fast"]),
            },
        )
    except KeyError as exc:
        raise GaitModelError(f"gait model missing key {exc}") from None
    except ValueError as exc:
        raise GaitModelError(f"gait model has unparsable value: {exc}") from None
    model.validate()
    return model
