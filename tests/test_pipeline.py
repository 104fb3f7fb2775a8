"""process_corpus / run_pipeline: which per-file failures are recorded, and
that degenerate logs end in a report instead of an exception."""

import multiprocessing
import random
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trackforge import forked, heading, pipeline
from trackforge.config import PipelineConfig
from trackforge.logio import parse_log_file, serialize_log
from trackforge.pipeline import RunReport, process_corpus, run_pipeline
from trackforge.stepdetect import detect_steps, magnitude_series
from trackforge.stride import Gait, classify_gait, default_gait_model, extract_features, stride_length
from trackforge.synth import WalkScript, WalkSegmentSpec, generate

TAGS = ("ACCE", "GYRO", "MAGN", "PRES", "WIFI")


@pytest.fixture(scope="module")
def short_walk_lines():
    """Records of a short two-floor walk at 50 Hz."""
    log, _ = generate(WalkScript(
        source_id="short", seed=7, imu_rate_hz=50.0, stair_seconds=3.0,
        segments=[
            WalkSegmentSpec(floor=1, gait=Gait.NORMAL, heading_rad=0.0, steps=8),
            WalkSegmentSpec(floor=2, gait=Gait.NORMAL, heading_rad=1.5, steps=8),
        ],
    ))
    return serialize_log(log).splitlines()


def _process(lines, directory: Path) -> RunReport:
    path = directory / "log.tsl"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    report, processed = process_corpus([path], PipelineConfig())
    assert [f.name for f in report.files] == ["log.tsl"]
    assert (report.files[0].error is None) == ("log.tsl" in processed)
    return report


def _repeat(lines, k):
    return [line for line in lines for _ in range(k)]


def _one_window_steps(log, cfg, model):
    """process_log's steps from one call per step window: extract_features
    and classify_gait on each step's magnitude window, and motion_direction
    on each step's horizontal-plane window, as step_headings once did."""
    times, mags = magnitude_series(log.accel, cfg.step.smooth_window)
    steps = detect_steps(times, mags, cfg.step)
    for step in steps:
        lo = int(np.searchsorted(times, step.peak_time - step.pace, side="right"))
        hi = step.peak_index + 1
        if hi - lo < 2:
            lo = max(0, hi - 2)
        step.features = extract_features(times[lo:hi], mags[lo:hi])
        step.stride_m = stride_length(classify_gait(step.features, model), model)

    att = heading.track_attitude(log.accel, log.gyro, log.magn, cfg.heading)
    times = log.accel.app_timestamp
    grav = heading._smoothed_gravity(att.gravity, times)
    horizontal, defined = heading.earth_horizontal(log.accel.values - heading.GRAVITY * grav, grav, att.yaw)
    prev_heading = None
    for step in steps:
        lookback = min(step.pace, 2.5 * max(step.valley_time - step.peak_time, 1e-3))
        lo = int(np.searchsorted(times, step.peak_time - lookback, side="right"))
        hi = int(np.searchsorted(times, step.valley_time, side="right"))
        est = heading.motion_direction(horizontal[lo:hi][defined[lo:hi]], float(att.yaw[step.peak_index]), cfg.heading)
        if est.low_confidence:
            step.heading_rad = prev_heading if prev_heading is not None else est.phone_yaw
        else:
            step.heading_rad = est.motion_heading
        prev_heading = step.heading_rad
    return steps


def test_steps_have_the_bits_of_one_window_calls(default_corpus):
    # process_log computes every step's features, gait and heading at once;
    # perfbench/composed.py calls extract_features and classify_gait per step
    # and checks its outputs against the pipeline's byte for byte
    cfg, model = PipelineConfig(), default_gait_model()
    for _, log, _ in default_corpus:
        steps = pipeline.process_log(log, cfg, model).steps
        assert len(steps) > 100
        assert repr(steps) == repr(_one_window_steps(log, cfg, model))


def test_twice_written_log_is_processed(short_walk_lines, tmp_path):
    """Every record written twice makes the median accelerometer spacing 0."""
    report = _process(_repeat(short_walk_lines, 2), tmp_path)
    assert report.files[0].error is None
    assert report.files[0].steps > 0


def test_unexpected_error_propagates(short_walk_lines, tmp_path, monkeypatch):
    (tmp_path / "in").mkdir()
    (tmp_path / "in" / "log.tsl").write_text("\n".join(short_walk_lines) + "\n")

    def broken(*args, **kwargs):
        raise TypeError("a bug, not a file error")

    monkeypatch.setattr(pipeline, "process_log", broken)
    with pytest.raises(TypeError) as raised:  # its traceback holds process_corpus's frame
        run_pipeline(tmp_path / "in", tmp_path / "out", PipelineConfig())
    assert multiprocessing.active_children() == []
    assert str(raised.value) == "a bug, not a file error"


def test_bug_while_workers_wait_to_send_leaves_no_worker(corpus_dir, tmp_path, monkeypatch):
    # the first log fails at once, while one worker parses the third log and
    # the other waits to send the second, a few MB that no pipe holds
    alive = []

    def broken(*args, **kwargs):
        alive.append(len(multiprocessing.active_children()))
        raise TypeError("a bug, not a file error")

    monkeypatch.setattr(forked, "usable_cpus", lambda: 2)
    monkeypatch.setattr(pipeline, "process_log", broken)
    with pytest.raises(TypeError) as raised:  # its traceback holds process_corpus's frame
        process_corpus(sorted(corpus_dir.glob("*.tsl")), PipelineConfig())
    assert alive == [2]
    assert multiprocessing.active_children() == []
    assert str(raised.value) == "a bug, not a file error"


def test_bug_in_a_parse_worker_propagates(short_walk_lines, tmp_path, monkeypatch):
    for name in ("a.tsl", "b.tsl", "c.tsl"):
        (tmp_path / name).write_text("\n".join(short_walk_lines) + "\n")

    def broken(path, source_id=""):
        if path.name == "b.tsl":
            raise TypeError("a bug in the parse")
        return parse_log_file(path, source_id)

    monkeypatch.setattr(pipeline, "parse_log_file", broken)
    with pytest.raises(TypeError) as raised:
        process_corpus(sorted(tmp_path.glob("*.tsl")), PipelineConfig())
    assert multiprocessing.active_children() == []
    assert str(raised.value) == "a bug in the parse"


def test_documented_errors_are_recorded(short_walk_lines, tmp_path):
    report = _process(["ACCE;1.0;1.0;0;0;9.8"], tmp_path)  # a parse error
    assert report.files[0].error.startswith("line 1:")
    report = _process([line for line in short_walk_lines if not line.startswith("ACCE")], tmp_path)
    assert report.files[0].error == "log has no accelerometer samples"
    assert multiprocessing.active_children() == []


def _one_time(lines, t):
    return [";".join([f[0], t, *f[2:]]) for f in (line.split(";") for line in lines)]


_mutation = st.one_of(
    st.tuples(st.just("drop"), st.sampled_from(TAGS)),
    st.tuples(st.just("only"), st.sampled_from(TAGS)),
    st.tuples(st.just("truncate"), st.floats(0.0, 1.0)),
    st.tuples(st.just("cut"), st.floats(0.0, 1.0)),
    st.tuples(st.just("repeat"), st.integers(2, 3)),
    st.tuples(st.just("shuffle"), st.integers(0, 2**32 - 1)),
    st.tuples(st.just("one_time"), st.sampled_from(["0.0", "3.25"])),
)


def _mutate(lines, mutation):
    kind, arg = mutation
    if kind == "drop":
        return [line for line in lines if not line.startswith(arg)]
    if kind == "only":
        return [line for line in lines if line.startswith(arg)]
    if kind == "truncate":
        return lines[: int(arg * len(lines))]
    if kind == "cut":  # end inside a record
        text = "\n".join(lines)
        return text[: int(arg * len(text))].split("\n")
    if kind == "repeat":
        return _repeat(lines, arg)
    if kind == "shuffle":
        lines = list(lines)
        random.Random(arg).shuffle(lines)
        return lines
    return _one_time(lines, arg)


@given(mutations=st.lists(_mutation, min_size=1, max_size=3))
@settings(max_examples=100, deadline=None)
def test_mutilated_log_gives_a_report(short_walk_lines, mutations):
    """Dropped or lone streams, truncation, repeated records, shuffled lines
    and one shared timestamp end in a report, never in an exception."""
    lines = short_walk_lines
    for mutation in mutations:
        lines = _mutate(lines, mutation)
    with tempfile.TemporaryDirectory() as directory:
        _process(lines, Path(directory))
