"""trackforge command line: run, synth, eval, sweep, train-gait.

Configuration comes from one ``key = value`` file plus flag overrides (flags
win). ``TRACKFORGE_LOG`` sets the log level (DEBUG/INFO/WARNING/...); any
other value means WARNING.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from pathlib import Path

from . import evalkit, synth
from .config import ConfigError, PipelineConfig, load_config, parse_value
from .logio import write_json, write_text
from .pipeline import PipelineError, process_corpus, run_pipeline
from .stepdetect import StrideFeatures
from .stride import Gait, GaitModelError, GaitTrainingError, save_gait_model, train_gait_model

logger = logging.getLogger("trackforge")

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_FATAL = 2


def _config_from_args(args: argparse.Namespace) -> PipelineConfig:
    overrides: dict[str, str] = {}
    if getattr(args, "epsilon", None) is not None:
        overrides["turn.epsilon_rad"] = str(args.epsilon)
    if getattr(args, "window", None) is not None:
        overrides["turn.window_min"] = str(args.window)
    cfg = load_config(getattr(args, "config", None), overrides)
    floors = getattr(args, "floors", None)
    if floors is not None and floors != "auto":
        try:
            cfg.floors_override = int(floors)
        except ValueError:
            raise ConfigError(f"--floors expects an integer or 'auto', got {floors!r}") from None
        if cfg.floors_override < 1:
            raise ConfigError("--floors must be >= 1")
    if getattr(args, "gait_model", None):
        cfg.gait_model_path = args.gait_model
    radius = getattr(args, "match_radius", None)
    if radius is not None and not radius > 0:
        raise ConfigError(f"--match-radius must be > 0, got {radius}")
    return cfg


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", type=Path, default=None, help="key = value config file")
    p.add_argument("--epsilon", type=float, default=None, help="turning threshold, rad")
    p.add_argument("--window", type=int, default=None, help="turning window minimum, points")
    p.add_argument("--floors", default=None, help="floor count K, or 'auto'")
    p.add_argument("--gait-model", default=None, help="gait model file")


def cmd_run(args: argparse.Namespace) -> int:
    report = run_pipeline(args.input, args.output, _config_from_args(args))
    totals = report.totals()
    print(
        f"processed {len(report.files)} file(s): {totals['steps']} steps, "
        f"{totals['segments']} segments, {report.floor_count} floors, "
        f"{totals['graphs']} graphs ({totals['dropped_subtrajectories']} sub-trajectories dropped, "
        f"{totals['errors']} file errors)"
    )
    return EXIT_OK


def cmd_synth(args: argparse.Namespace) -> int:
    if args.script is None and not args.default_corpus:
        logger.error("synth needs --script or --default-corpus")
        return EXIT_FATAL
    if args.seed is not None and args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    if args.script is not None:
        try:
            script = synth.load_script(args.script)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise ConfigError(f"cannot load walk script {args.script}: {exc}") from None
        if args.seed is not None:
            script.seed = args.seed
        scripts = [script]
    else:
        scripts = synth.default_corpus_scripts(args.seed if args.seed is not None else synth.DEFAULT_CORPUS_SEED)
    written = synth.write_corpus(scripts, args.out)
    for path in written:
        print(f"wrote {path}")
    return EXIT_OK


def _load_truth(path: Path) -> synth.GroundTruth:
    """A truth sidecar; PipelineError names the file when it cannot be read or decoded."""
    try:
        return synth.GroundTruth.from_json(json.loads(path.read_text(encoding="utf-8")))
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
        raise PipelineError(f"bad truth sidecar {path}: {type(exc).__name__}: {exc}") from None


def _load_eval_corpus(input_dir: Path, cfg: PipelineConfig, output: Path | None) -> list | None:
    """(trajectory, segments, truth) triples, floors numbered, for every log
    with a ``<stem>.truth.json``. The corpus report goes to
    ``output/report.json`` (when ``output`` is given) before any check below.

    Raises PipelineError when there is no such pair, a sidecar is malformed
    (checked before any log is processed) or floor clustering failed.
    Returns None when a paired log failed to process; ``process_corpus``
    has logged why.
    """
    truths = {}
    for log_path in sorted(input_dir.glob("*.tsl")):
        if synth.truth_path(log_path).exists():
            truths[log_path] = _load_truth(synth.truth_path(log_path))
        else:
            logger.warning("no truth sidecar for %s, skipping", log_path.name)
    if not truths:
        raise PipelineError(f"no (.tsl, .truth.json) pairs in {input_dir}")
    report, processed = process_corpus(list(truths), cfg)
    if output is not None:
        write_json(output / "report.json", report.to_json())
    if any(r.error is not None for r in report.files):
        return None
    if report.error is not None:
        raise PipelineError(report.error)
    return [(processed[p.name].trajectory, processed[p.name].segments, t) for p, t in truths.items()]


def cmd_eval(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    if args.output:
        args.output.mkdir(parents=True, exist_ok=True)
    corpus = _load_eval_corpus(args.input, cfg, args.output)
    if corpus is None:
        return EXIT_ERROR
    result = evalkit.score_corpus(corpus, cfg.turn, args.match_radius)
    print("floors: {floor_count}, accuracy {floor_accuracy:.3f} over {segments_scored} segments; "
          "turning P={precision:.3f} R={recall:.3f} F={f:.3f} (eps={epsilon}, t={window})"
          .format(**result, **result["turning"]))
    if args.output:
        write_json(args.output / "eval.json", result)
    return EXIT_OK


def _parse_grid(flag: str, text: str, key: str) -> list:
    """A comma-separated grid, each value checked as config key ``key`` is."""
    values = [parse_value(key, v, f"{flag} value") for v in text.split(",") if v.strip()]
    if not values:
        raise ConfigError(f"{flag} has no values: {text!r}")
    return values


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    eps_grid = _parse_grid("--epsilon-grid", args.epsilon_grid, "turn.epsilon_rad")
    win_grid = _parse_grid("--window-grid", args.window_grid, "turn.window_min")
    out = args.output
    out.mkdir(parents=True, exist_ok=True)
    corpus = _load_eval_corpus(args.input, cfg, out)
    if corpus is None:
        return EXIT_ERROR
    rows = evalkit.sweep(corpus, eps_grid, win_grid, match_radius=args.match_radius, cfg=cfg.turn)
    write_text(out / "sweep.csv", evalkit.sweep_table(rows))
    write_json(out / "sweep_plot.json", evalkit.sweep_plot_data(rows))
    best = max(rows, key=lambda r: (r.f_measure, -r.epsilon))
    print(f"{len(rows)} cells -> {out / 'sweep.csv'}; best F={best.f_measure:.3f} "
          f"at eps={best.epsilon}, t={best.window}")
    return EXIT_OK


def cmd_train_gait(args: argparse.Namespace) -> int:
    labeled: list[tuple[StrideFeatures, Gait]] = []
    try:
        lines = Path(args.labels).read_text(encoding="utf-8").splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        logger.error("cannot read labels: %s", exc)
        return EXIT_FATAL
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith("duration"):
            continue
        parts = line.split(",")
        if len(parts) != 5:
            logger.error("labels line %d: expected duration,variance,peak,rms,gait", line_no)
            return EXIT_FATAL
        try:
            features = StrideFeatures(*(float(v) for v in parts[:4]))
            if not all(math.isfinite(v) for v in features.as_vector()):
                raise ValueError(f"features must be finite, got {parts[:4]}")
            gait = Gait(parts[4].strip())
        except ValueError as exc:
            logger.error("labels line %d: %s", line_no, exc)
            return EXIT_FATAL
        labeled.append((features, gait))
    try:
        result = train_gait_model(labeled)
    except GaitTrainingError as exc:
        logger.error("training failed: %s", exc)
        return EXIT_FATAL
    result.model.validate()
    save_gait_model(result.model, args.out)
    print(f"trained on {result.n_samples} steps, accuracy {result.accuracy:.3f} -> {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trackforge",
        description="Featured indoor motion trajectories from smartphone sensor logs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the full pipeline over a directory of TSL logs")
    p_run.add_argument("--input", required=True, type=Path)
    p_run.add_argument("--output", required=True, type=Path)
    _add_config_flags(p_run)
    p_run.set_defaults(func=cmd_run)

    p_synth = sub.add_parser("synth", help="render synthetic walks to TSL logs with ground truth")
    p_synth.add_argument("--script", type=Path, default=None, help="WalkScript JSON file")
    p_synth.add_argument("--default-corpus", action="store_true", help="render the bundled 3-phone corpus")
    p_synth.add_argument("--out", required=True, type=Path)
    p_synth.add_argument("--seed", type=int, default=None)
    p_synth.set_defaults(func=cmd_synth)

    p_eval = sub.add_parser("eval", help="score the pipeline against truth sidecars")
    p_eval.add_argument("--input", required=True, type=Path, help="directory of .tsl + .truth.json")
    p_eval.add_argument("--output", type=Path, default=None)
    p_eval.add_argument("--match-radius", type=float, default=2.0)
    _add_config_flags(p_eval)
    p_eval.set_defaults(func=cmd_eval)

    p_sweep = sub.add_parser("sweep", help="grid-sweep turning parameters")
    p_sweep.add_argument("--input", required=True, type=Path)
    p_sweep.add_argument("--output", required=True, type=Path)
    p_sweep.add_argument("--epsilon-grid", default="0.6,0.8,1.0,1.2,1.4")
    p_sweep.add_argument("--window-grid", default="4")
    p_sweep.add_argument("--match-radius", type=float, default=2.0)
    _add_config_flags(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_train = sub.add_parser("train-gait", help="fit the gait classifier from labeled features")
    p_train.add_argument("--labels", required=True, type=Path, help="CSV: duration,variance,peak,rms,gait")
    p_train.add_argument("--out", required=True, type=Path)
    p_train.set_defaults(func=cmd_train_gait)
    return parser


def main(argv: list[str] | None = None) -> int:
    level = logging.getLevelName(os.environ.get("TRACKFORGE_LOG", "WARNING").upper())  # a str for a non-level
    logging.basicConfig(level=level if isinstance(level, int) else logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, GaitModelError) as exc:
        logger.error("config: %s", exc)
        return EXIT_FATAL
    except (PipelineError, OSError) as exc:  # OSError: a path named on the command line
        logger.error("fatal: %s", exc)
        return EXIT_FATAL


if __name__ == "__main__":
    sys.exit(main())
