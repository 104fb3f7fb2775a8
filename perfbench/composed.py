"""The ``trackforge run`` pipeline composed from its public stage functions.

``composed_run`` makes the same calls, in the same order and with the same
arguments, as ``pipeline.process_log`` and ``pipeline.run_pipeline``, and
writes the same files. Around each call into a trackforge module it opens a
span on the given tracer, so one pass yields both the program's outputs (to
check against the timed runs byte for byte) and where its time went. With a
``NullTracer`` it runs untraced, as the tests do.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from trackforge.config import PipelineConfig
from trackforge.featurize import featurize_segment_report
from trackforge.floors import TrajectorySegment, cluster_floors, segment_trajectory
from trackforge.heading import step_headings
from trackforge.logio import SensorLog, parse_log, write_chain_graphs
from trackforge.pdr import PdrTrajectory, integrate
from trackforge.pipeline import FileReport, RunReport, load_gait_model_or_default
from trackforge.stepdetect import Step, detect_steps, magnitude_series
from trackforge.stride import classify_gait, extract_features, stride_length


@dataclass
class ComposedFile:
    name: str
    input_bytes: int
    log: SensorLog
    steps: list[Step]
    trajectory: PdrTrajectory
    segments: list[TrajectorySegment]
    graphs: int = 0
    dropped: int = 0


def composed_run(input_dir: Path, output_dir: Path, cfg: PipelineConfig, tracer) -> list[ComposedFile]:
    """Process every ``*.tsl`` under input_dir as ``run_pipeline`` does.

    Unlike ``run_pipeline`` a failing file is not recorded and skipped: the
    exception propagates, because the benchmark's workloads have none.
    """
    with tracer.span("pipeline.run_pipeline"):
        files = sorted(Path(input_dir).glob("*.tsl"))
        if not files:
            raise FileNotFoundError(f"no .tsl files in {input_dir}")
        output_dir = Path(output_dir)
        output_dir.mkdir(parents=True, exist_ok=True)
        gait_model = load_gait_model_or_default(cfg)
        done: list[ComposedFile] = []

        for path in files:
            fid = path.name
            data = path.read_bytes()
            with tracer.span("logio.parse_log", fid):
                log = parse_log(data, source_id=path.stem)

            # pipeline.process_log
            if not log.accel:
                raise ValueError("log has no accelerometer samples")
            with tracer.span("stepdetect.magnitude_series", fid):
                times, mags = magnitude_series(log.accel, cfg.step.smooth_window)
            with tracer.span("stepdetect.detect_steps", fid):
                steps = detect_steps(times, mags, cfg.step)
            for step in steps:
                lo = int(np.searchsorted(times, step.peak_time - step.pace, side="right"))
                hi = step.peak_index + 1
                if hi - lo < 2:
                    lo = max(0, hi - 2)
                with tracer.span("stride.gait_and_stride", fid):
                    step.features = extract_features(times[lo:hi], mags[lo:hi])
                    gait = classify_gait(step.features, gait_model)
                    step.stride_m = stride_length(gait, gait_model)
            with tracer.span("heading.step_headings", fid):
                step_headings(steps, log, cfg.heading)
            with tracer.span("pdr.integrate", fid):
                trajectory = integrate(steps, log)

            with tracer.span("floors.segment_trajectory", fid):
                segments = segment_trajectory(
                    trajectory, cfg.floor.eps_hpa, cfg.floor.min_pts, cfg.floor.max_clusters
                )
            done.append(ComposedFile(fid, len(data), log, steps, trajectory, segments))

        all_segments = [seg for item in done for seg in item.segments]
        with tracer.span("floors.cluster_floors"):
            assignment = cluster_floors(all_segments, cut=cfg.floor.cut, floor_count=cfg.floors_override)

        for item in done:
            graphs = []
            for seg in item.segments:
                with tracer.span("featurize.featurize_segment_report", item.name):
                    seg_graphs, dropped = featurize_segment_report(item.trajectory, seg, cfg.turn)
                graphs.extend(seg_graphs)
                item.dropped += dropped
            item.graphs = len(graphs)
            with tracer.span("logio.write_chain_graphs", item.name):
                write_chain_graphs(graphs, output_dir / f"{Path(item.name).stem}.graphs.json")

        report = RunReport(
            files=[
                FileReport(
                    name=item.name,
                    steps=len(item.steps),
                    segments=len(item.segments),
                    graphs=item.graphs,
                    dropped_subtrajectories=item.dropped,
                )
                for item in done
            ],
            floor_count=assignment.floor_count,
            floor_pressures=assignment.cluster_pressures,
        )
        (output_dir / "report.json").write_text(
            json.dumps(report.to_json(), indent=1, sort_keys=True) + "\n", encoding="utf-8"
        )
    return done
