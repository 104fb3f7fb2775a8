"""Pipeline configuration: documented keys, defaults, file loading, overrides.

Config files are flat ``key = value`` text; ``#`` starts a comment. Flag
overrides win over file values. Every numeric key is range-checked at load,
and a float must be finite.
Gait-model files use the same grammar, read by ``logio.parse_key_values``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path

from .featurize import TurningConfig
from .floors import FloorConfig
from .heading import HeadingConfig
from .logio import parse_key_values
from .stepdetect import StepConfig


class ConfigError(ValueError):
    pass


@dataclass
class PipelineConfig:
    step: StepConfig = field(default_factory=StepConfig)
    heading: HeadingConfig = field(default_factory=HeadingConfig)
    floor: FloorConfig = field(default_factory=FloorConfig)
    turn: TurningConfig = field(default_factory=TurningConfig)
    floors_override: int | None = None   # fixed floor count instead of the cut
    gait_model_path: str | None = None


# key -> (section attr, field name, type, validator)
_POSITIVE = lambda v: v > 0
_KEYS = {
    "step.jerk_init": ("step", "jerk_init", float, _POSITIVE),
    "step.jerk_floor": ("step", "jerk_floor", float, _POSITIVE),
    "step.pace_init": ("step", "pace_init", float, _POSITIVE),
    "step.pace_floor": ("step", "pace_floor", float, _POSITIVE),
    "step.pace_ceiling": ("step", "pace_ceiling", float, _POSITIVE),
    "step.buffer_capacity": ("step", "buffer_capacity", int, lambda v: v >= 1),
    "step.update_ratio": ("step", "update_ratio", float, _POSITIVE),
    "step.smooth_window": ("step", "smooth_window", int, lambda v: v >= 1),
    "heading.g_tol": ("heading", "g_tol", float, _POSITIVE),
    "heading.corr_gate": ("heading", "corr_gate", float, lambda v: -1.0 <= v <= 1.0),
    "heading.corr_window_s": ("heading", "corr_window_s", float, _POSITIVE),
    "heading.pca_min_ratio": ("heading", "pca_min_ratio", float, lambda v: v >= 1.0),
    "floor.eps_hpa": ("floor", "eps_hpa", float, _POSITIVE),
    "floor.min_pts": ("floor", "min_pts", int, lambda v: v >= 1),
    "floor.cut": ("floor", "cut", float, lambda v: 0.0 < v <= 1.0),
    "floor.max_clusters": ("floor", "max_clusters", int, lambda v: v >= 1),
    "turn.epsilon_rad": ("turn", "epsilon_rad", float, _POSITIVE),
    "turn.window_min": ("turn", "window_min", int, lambda v: v >= 1),
    "turn.min_len_m": ("turn", "min_subtraj_len_m", float, _POSITIVE),
}


def parse_config_text(text: str, source: str = "<config>") -> dict[str, str]:
    entries: dict[str, str] = {}
    for line_no, key, value in parse_key_values(text, source, ConfigError):
        if key not in _KEYS:
            raise ConfigError(f"{source}:{line_no}: unknown config key {key!r}")
        entries[key] = value
    return entries


def parse_value(key: str, raw: str, what: str | None = None):
    """``raw`` parsed and range-checked as a value of config key ``key``;
    ``what`` names it in the error (default: the key)."""
    _, _, typ, valid = _KEYS[key]
    what = what or f"config key {key}"
    try:
        value = typ(raw)
    except (TypeError, ValueError):
        raise ConfigError(f"{what} has unparsable value {raw!r}") from None
    if typ is float and not math.isfinite(value):
        raise ConfigError(f"{what} = {raw!r} is not a finite number")
    if not valid(value):
        raise ConfigError(f"{what} = {value} is out of range")
    return value


def apply_entries(cfg: PipelineConfig, entries: dict[str, str]) -> PipelineConfig:
    for key, raw in entries.items():
        section, name, _, _ = _KEYS[key]
        setattr(cfg, section, replace(getattr(cfg, section), **{name: parse_value(key, raw)}))
    return cfg


def load_config(path: str | Path | None = None, overrides: dict[str, str] | None = None) -> PipelineConfig:
    """Defaults, then the config file (if any), then flag overrides."""
    cfg = PipelineConfig()
    if path is not None:
        try:
            text = Path(path).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from None
        cfg = apply_entries(cfg, parse_config_text(text, source=str(path)))
    if overrides:
        cfg = apply_entries(cfg, {k: str(v) for k, v in overrides.items()})
    # checked once the flags are in, as a flag may move a bound the file set
    if cfg.step.pace_floor > cfg.step.pace_ceiling:
        raise ConfigError("step.pace_floor must not exceed step.pace_ceiling")
    # a threshold that starts out of its bounds accepts no step, so it never adapts
    if not cfg.step.pace_floor <= cfg.step.pace_init <= cfg.step.pace_ceiling:
        raise ConfigError("step.pace_init must lie in [step.pace_floor, step.pace_ceiling]")
    if cfg.step.jerk_init < cfg.step.jerk_floor:
        raise ConfigError("step.jerk_init must not be below step.jerk_floor")
    return cfg
