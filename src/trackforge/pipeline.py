"""End-to-end orchestration: logs -> steps -> trajectories -> floors -> graphs.

Per-file stages are independent; floor clustering joins all trajectories'
segments (floor indices only make sense across the whole corpus) and is the
one cross-file synchronization point; featurize follows it. ``run``, ``eval``
and ``sweep`` share ``process_corpus``. Logs are parsed in forked workers
(``forked.forked_map``) while this process runs ``process_log`` and all
later stages on the logs already parsed, in sorted file order. Every output
is byte-deterministic for a fixed input set and config, whatever the number
of workers.
"""

from __future__ import annotations

import logging
import math
from contextlib import closing
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .config import PipelineConfig
from .featurize import ChainGraph, featurize_segment_report
from .floors import FloorClusteringError, TrajectorySegment, cluster_floors, segment_trajectory
from .forked import forked_map
from .heading import step_headings
from .logio import SensorLog, parse_log_file, write_chain_graphs, write_json
from .pdr import PdrTrajectory, integrate
from .stepdetect import Step, StrideFeatures, detect_steps, magnitude_series
from .stride import GaitModel, classify_gaits, default_gait_model, load_gait_model, step_features, stride_length

logger = logging.getLogger(__name__)


class PipelineError(RuntimeError):
    """Fatal condition: nothing could be processed."""


@dataclass
class ProcessedLog:
    log: SensorLog
    steps: list[Step]
    trajectory: PdrTrajectory
    segments: list[TrajectorySegment] = field(default_factory=list)
    graphs: list[ChainGraph] = field(default_factory=list)


@dataclass
class FileReport:
    name: str
    steps: int = 0
    segments: int = 0
    graphs: int = 0
    dropped_subtrajectories: int = 0
    error: str | None = None


@dataclass
class RunReport:
    """The corpus's file reports and floors; ``to_json`` is ``report.json``,
    where a floor with no barometer data (a NaN pressure) reads ``null``."""

    files: list[FileReport]
    floor_count: int = 0
    floor_pressures: list[float] = field(default_factory=list)  # NaN: no barometer data
    error: str | None = None  # why the run stopped before writing graphs

    def totals(self) -> dict[str, int]:
        return {
            "steps": sum(f.steps for f in self.files),
            "segments": sum(f.segments for f in self.files),
            "graphs": sum(f.graphs for f in self.files),
            "dropped_subtrajectories": sum(f.dropped_subtrajectories for f in self.files),
            "errors": sum(1 for f in self.files if f.error is not None),
        }

    def to_json(self) -> dict:
        doc = {
            "files": [asdict(f) for f in self.files],
            "floor_count": self.floor_count,
            "floor_pressures": [None if math.isnan(p) else p for p in self.floor_pressures],
            "totals": self.totals(),
        }
        if self.error is not None:
            doc["error"] = self.error
        return doc


def process_log(log: SensorLog, cfg: PipelineConfig, gait_model: GaitModel) -> ProcessedLog:
    """Steps -> gait/stride -> headings -> PDR trajectory for one log."""
    if not log.accel:
        raise ValueError("log has no accelerometer samples")
    times, mags = magnitude_series(log.accel, cfg.step.smooth_window)
    steps = detect_steps(times, mags, cfg.step)

    # each step's window runs back one pace from its peak, over 2 samples or more
    hi = np.array([step.peak_index for step in steps], dtype=int) + 1
    lo = np.searchsorted(times, np.array([step.peak_time - step.pace for step in steps]), side="right")
    lo = np.where(hi - lo < 2, np.maximum(0, hi - 2), lo)
    features = step_features(times, mags, lo, hi)
    for step, row, gait in zip(steps, features.tolist(), classify_gaits(features, gait_model)):
        step.features = StrideFeatures(*row)
        step.stride_m = stride_length(gait, gait_model)

    step_headings(steps, log, cfg.heading)
    trajectory = integrate(steps, log)
    return ProcessedLog(log=log, steps=steps, trajectory=trajectory)


def load_gait_model_or_default(cfg: PipelineConfig) -> GaitModel:
    if cfg.gait_model_path:
        return load_gait_model(cfg.gait_model_path)
    return default_gait_model()


def _parse(path: Path) -> SensorLog | OSError | ValueError:
    """``parse_log_file`` of ``path``, or the documented error it raised; runs in a worker."""
    try:
        return parse_log_file(path, source_id=path.stem)
    except (OSError, ValueError) as exc:
        return exc


def process_corpus(
    paths: Sequence[Path], cfg: PipelineConfig
) -> tuple[RunReport, dict[str, ProcessedLog]]:
    """Parse -> ``process_log`` -> floor segments for each log file, in order,
    then number the floors over all their segments and featurize them with
    ``cfg.turn`` into each ``ProcessedLog.graphs``. Each file is parsed as
    ``parse_log_file`` reads it, a chunk at a time, in a forked worker
    (``forked_map``: one per usable CPU, at most one per file), while this
    process runs ``process_log`` and the rest on the files before it. No
    worker outlives the call, whether it returns or raises.

    A file that fails with a documented error (unreadable: OSError; malformed
    or unusable: ValueError; FloorClusteringError) is logged and its error
    recorded in its FileReport; the other files go on. Any other exception
    is a bug and propagates. Without floor segments there are no floors; when
    ``cluster_floors`` fails, for instance because ``cfg.floors_override``
    asks for more floors than there are segments, the report's ``error``
    says why and no segment has a floor; in both cases no graph is built.
    Returns the report and the processed logs by file name.
    """
    gait_model = load_gait_model_or_default(cfg)
    run_report = RunReport(files=[])
    processed: dict[str, ProcessedLog] = {}
    with closing(forked_map(_parse, paths)) as logs:
        for path, log in zip(paths, logs):
            report = FileReport(name=path.name)
            run_report.files.append(report)
            try:
                if isinstance(log, Exception):  # the worker's parse failed
                    raise log
                item = process_log(log, cfg, gait_model)
                item.segments = segment_trajectory(
                    item.trajectory, cfg.floor.eps_hpa, cfg.floor.min_pts, cfg.floor.max_clusters
                )
                processed[path.name] = item
                report.steps = len(item.steps)
                report.segments = len(item.segments)
            except (OSError, ValueError, FloorClusteringError) as exc:  # the corpus continues
                logger.error("failed to process %s: %s", path.name, exc)
                report.error = str(exc)

    segments = [seg for item in processed.values() for seg in item.segments]
    if not segments:
        logger.warning("no log has a floor segment: no floors to cluster")
        return run_report, processed
    try:
        assignment = cluster_floors(segments, cut=cfg.floor.cut, floor_count=cfg.floors_override)
    except FloorClusteringError as exc:
        run_report.error = f"floor clustering failed: {exc}"
        return run_report, processed
    run_report.floor_count = assignment.floor_count
    run_report.floor_pressures = assignment.cluster_pressures
    for report in run_report.files:
        if (item := processed.get(report.name)) is not None:
            for seg in item.segments:
                seg_graphs, dropped = featurize_segment_report(item.trajectory, seg, cfg.turn)
                item.graphs.extend(seg_graphs)
                report.dropped_subtrajectories += dropped
            report.graphs = len(item.graphs)
    return run_report, processed


def run_pipeline(input_dir: str | Path, output_dir: str | Path, cfg: PipelineConfig) -> RunReport:
    """Process every ``*.tsl`` file under input_dir into chain-graph documents.

    Unreadable files are recorded and skipped; an empty directory or zero
    parsable files raises PipelineError. Writes the graphs ``process_corpus``
    built, one ``<stem>.graphs.json`` per parsed input, plus ``report.json``
    into output_dir. When floor clustering fails, only ``report.json`` is
    written, with the error, and PipelineError is raised.
    """
    input_dir = Path(input_dir)
    output_dir = Path(output_dir)
    files = sorted(input_dir.glob("*.tsl"))
    if not files:
        raise PipelineError(f"no .tsl files in {input_dir}")
    output_dir.mkdir(parents=True, exist_ok=True)
    run_report, processed = process_corpus(files, cfg)
    if not processed:
        raise PipelineError("no input file could be processed")
    if run_report.error is not None:
        write_json(output_dir / "report.json", run_report.to_json())
        raise PipelineError(run_report.error)

    for name, item in processed.items():
        write_chain_graphs(item.graphs, output_dir / f"{Path(name).stem}.graphs.json")

    write_json(output_dir / "report.json", run_report.to_json())
    return run_report
