"""Metamorphic tests of the whole pipeline.

Each test transforms the rendered default corpus, or one of its parsed logs,
runs the pipeline on the result, and checks one relation between that run
and the run of the corpus as rendered. Graphs are compared as the bytes
``run`` writes.
"""

import cmath
import dataclasses
import json
import math
import shutil

import pytest

from trackforge import synth
from trackforge.config import PipelineConfig
from trackforge.evalkit import score_floors, segment_truth_floor
from trackforge.heading import GRAVITY, wrap_angle
from trackforge.logio import SensorStream, parse_log_file
from trackforge.pipeline import process_corpus, process_log, run_pipeline
from trackforge.stride import default_gait_model
from trackforge.synth import FIELD_HORIZONTAL_UT, FIELD_VERTICAL_UT


def _run(corpus, out):
    """(floor count, {graph file name: bytes}) of ``run`` on ``corpus``."""
    report = run_pipeline(corpus, out, PipelineConfig())
    assert report.error is None and all(f.error is None for f in report.files)
    return report.floor_count, {p.name: p.read_bytes() for p in sorted(out.glob("*.graphs.json"))}


def _logs_as(corpus_dir, directory, names):
    """``directory`` holding each default-corpus log named in ``names``
    (new file name -> log name), copied under its new name."""
    directory.mkdir()
    for new, old in names.items():
        shutil.copyfile(corpus_dir / old, directory / new)
    return directory


@pytest.fixture(scope="module")
def as_rendered(corpus_dir, tmp_path_factory):
    return _run(corpus_dir, tmp_path_factory.mktemp("as-rendered"))


def test_a_copied_log_gets_the_graphs_of_its_original(corpus_dir, as_rendered, tmp_path):
    """A second copy of phone-a adds its pressures to every floor cluster,
    which moves the cluster means, but no segment changes floor: the copy's
    graphs are phone-a's, every other log keeps its graphs, and the corpus
    keeps its 3 floors."""
    logs = {name: name for name in ("phone-a.tsl", "phone-b.tsl", "phone-c.tsl")}
    corpus = _logs_as(corpus_dir, tmp_path / "corpus", {**logs, "phone-a-copy.tsl": "phone-a.tsl"})
    floor_count, graphs = _run(corpus, tmp_path / "out")
    floors, expected = as_rendered
    assert floors == floor_count == 3
    assert graphs == {**expected, "phone-a-copy.graphs.json": expected["phone-a.graphs.json"]}


def test_the_order_of_the_logs_does_not_change_their_graphs(corpus_dir, as_rendered, tmp_path):
    """Renamed zz-phone-a, phone-a is processed last instead of first."""
    names = {"zz-phone-a.tsl": "phone-a.tsl", "phone-b.tsl": "phone-b.tsl", "phone-c.tsl": "phone-c.tsl"}
    floor_count, graphs = _run(_logs_as(corpus_dir, tmp_path / "corpus", names), tmp_path / "out")
    floors, expected = as_rendered
    assert floor_count == floors
    assert graphs == {
        "zz-phone-a.graphs.json": expected["phone-a.graphs.json"],
        "phone-b.graphs.json": expected["phone-b.graphs.json"],
        "phone-c.graphs.json": expected["phone-c.graphs.json"],
    }


def _floors(corpus):
    """(floor count, floor accuracy, each log's segments as (point range,
    floor)) of ``process_corpus`` on ``corpus``, scored as ``eval`` scores
    floors against the truth sidecars."""
    paths = sorted(corpus.glob("*.tsl"))
    report, processed = process_corpus(paths, PipelineConfig())
    assert report.error is None and all(f.error is None for f in report.files)
    predicted, true_floors = [], []
    for path in paths:
        truth = synth.GroundTruth.from_json(json.loads(synth.truth_path(path).read_text(encoding="utf-8")))
        for seg in processed[path.name].segments:
            predicted.append(seg.floor)
            true_floors.append(segment_truth_floor(seg, truth))
    segments = {name: [(seg.point_range, seg.floor) for seg in item.segments] for name, item in processed.items()}
    return report.floor_count, score_floors(predicted, true_floors), segments


def _with_pressure_offset(corpus, directory, name, offset):
    """A copy of ``corpus`` in ``directory`` with ``offset`` hPa added to every
    PRES value of log ``name``."""
    shutil.copytree(corpus, directory)
    lines = (directory / name).read_text(encoding="utf-8").split("\n")
    for k, line in enumerate(lines):
        if line.startswith("PRES;"):
            fields = line.split(";")
            fields[3] = repr(float(fields[3]) + offset)
            lines[k] = ";".join(fields)
    (directory / name).write_text("\n".join(lines), encoding="utf-8")
    return directory


@pytest.fixture(scope="module")
def default_floors(corpus_dir):
    return _floors(corpus_dir)


@pytest.mark.parametrize("offset", [0.3, -0.3, 0.8])
def test_a_pressure_offset_keeps_every_floor(corpus_dir, default_floors, tmp_path, offset):
    """A barometer reading ``offset`` hPa off on phone-a moves its segments'
    pressures, by up to two floor steps (0.396 hPa each), but every cluster
    holds all three phones, so each segment keeps its range and its floor."""
    shifted = _floors(_with_pressure_offset(corpus_dir, tmp_path / "corpus", "phone-a.tsl", offset))
    assert default_floors[:2] == (3, 1.0)
    assert shifted == default_floors


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 14: floors are ordered by absolute mean pressure, which a "
                          "per-phone offset moves when a cluster's mix of phones is lopsided")
def test_a_pressure_offset_keeps_every_floor_of_two_phones(tmp_path):
    """Item 14's two-phone corpus: phone-a walks floors 2 and 3, phone-b
    floors 1 and 2. Its floors are numbered 0.500 right as rendered; 0.3 hPa
    off phone-a's barometer numbers them all right, so the floors move."""
    keep = {"phone-a": {2, 3}, "phone-b": {1, 2}}
    scripts = [
        dataclasses.replace(s, segments=[seg for seg in s.segments if seg.floor in keep[s.source_id]])
        for s in synth.default_corpus_scripts() if s.source_id in keep
    ]
    synth.write_corpus(scripts, tmp_path / "corpus")
    rendered = _floors(tmp_path / "corpus")
    shifted = _floors(_with_pressure_offset(tmp_path / "corpus", tmp_path / "shifted", "phone-a.tsl", -0.3))
    assert shifted == rendered


def _shifted(log, seconds):
    """``log`` with ``seconds`` added to every timestamp of its streams and WiFi records."""
    def stream(s):
        return SensorStream(s.app_timestamp + seconds, s.sensor_timestamp + seconds, s.values, s.accuracy)

    wifi = tuple(dataclasses.replace(w, app_timestamp=w.app_timestamp + seconds,
                                     sensor_timestamp=w.sensor_timestamp + seconds) for w in log.wifi)
    return dataclasses.replace(log, accel=stream(log.accel), gyro=stream(log.gyro), magn=stream(log.magn),
                               baro=stream(log.baro), wifi=wifi)


@pytest.fixture(scope="module")
def phone_a(corpus_dir):
    """phone-a's parsed log and its steps as ``process_log`` finds them."""
    log = parse_log_file(corpus_dir / "phone-a.tsl", source_id="phone-a")
    return log, process_log(log, PipelineConfig(), default_gait_model()).steps


@pytest.mark.parametrize("seconds", [1.0, pytest.param(1e5, marks=pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="ROADMAP item 17: a step's heading window starts where a float time bound falls, and "
           "at +1e5 s the bound's rounding moves the first sample of 6 windows"))])
def test_a_time_shift_keeps_steps_strides_and_headings(phone_a, seconds):
    """Shifting every timestamp of phone-a by ``seconds`` moves no step and no
    stride, and no heading by more than 1e-9 rad: the attitude of a shifted
    log differs only by the rounding of its times, about 1e-14 rad at +1 s."""
    log, expected = phone_a
    steps = process_log(_shifted(log, seconds), PipelineConfig(), default_gait_model()).steps
    assert [s.peak_index for s in steps] == [s.peak_index for s in expected]
    assert [s.stride_m for s in steps] == [s.stride_m for s in expected]
    assert max(abs(wrap_angle(s.heading_rad - e.heading_rad)) for s, e in zip(steps, expected)) <= 1e-9


def _graphs(corpus, name):
    """``process_corpus``'s graphs of log ``name`` in ``corpus``."""
    report, processed = process_corpus(sorted(corpus.glob("*.tsl")), PipelineConfig())
    assert report.error is None and all(f.error is None for f in report.files)
    return processed[name].graphs


@pytest.fixture(scope="module")
def phone_a_graphs(corpus_dir):
    return _graphs(corpus_dir, "phone-a.tsl")


@pytest.mark.parametrize("theta", [math.pi / 2, -2.0])
def test_a_rotated_walk_rotates_the_graphs(corpus_dir, phone_a_graphs, tmp_path, theta):
    """Adding ``theta`` to every heading of phone-a's script rotates its graphs
    about the origin by ``theta + delta``, one ``delta`` for the whole log, with
    the same vertex indices, times, WiFi features and floors; each vertex and
    edge within 1e-9 m, the rounding of 70 m paths with headings that agree
    to about 1e-13 rad.

    ``delta`` is the compass's share. The synthetic field stays put while the
    walk turns, and the gate trusts the compass only at the start of the
    lead-in (its first 2 samples as rendered, its first 4 at pi/2), so yaw is
    anchored once, by a fix whose gravity is tilted by the accelerometer
    noise: 0.2 m/s^2, about sigma = 0.02 rad per axis. Tilt across the field
    becomes yaw error 1.6 times as large, the vertical-to-horizontal field
    ratio. Rotating the walk by ``theta`` turns that axis, so ``delta`` has a
    sigma of about 1.6 * sigma * 2|sin(theta / 2)|; the bound is 4 of those."""
    script = synth.default_corpus_scripts()[0]
    rotated = dataclasses.replace(script, segments=[
        dataclasses.replace(seg, heading_rad=seg.heading_rad + theta) for seg in script.segments])
    corpus = shutil.copytree(corpus_dir, tmp_path / "corpus")
    synth.write_corpus([rotated], corpus)
    graphs = _graphs(corpus, "phone-a.tsl")

    def shape(gs):
        return [(g.floor, [(v.origin_index, v.t, v.rss) for v in g.vertices]) for g in gs]

    assert shape(graphs) == shape(phone_a_graphs) and len(phone_a_graphs) >= 2
    before = [complex(v.x, v.y) for g in phone_a_graphs for v in g.vertices]
    after = [complex(v.x, v.y) for g in graphs for v in g.vertices]
    turn = cmath.exp(1j * cmath.phase(sum(b.conjugate() * a for b, a in zip(before, after))))
    delta = wrap_angle(cmath.phase(turn) - theta)
    tilt_sigma = script.noise["accel"] / GRAVITY
    bound = 4 * FIELD_VERTICAL_UT / FIELD_HORIZONTAL_UT * tilt_sigma * 2 * abs(math.sin(theta / 2))
    assert abs(delta) <= bound, (delta, bound)
    assert max(abs(a - b * turn) for b, a in zip(before, after)) <= 1e-9
    edges = [(complex(e.dx, e.dy), complex(f.dx, f.dy)) for g, h in zip(phone_a_graphs, graphs)
             for e, f in zip(g.edges, h.edges)]
    assert max(abs(f - e * turn) for e, f in edges) <= 1e-9
