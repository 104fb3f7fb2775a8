import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from trackforge import cli, evalkit, forked
from trackforge.cli import main
from trackforge.config import ConfigError, load_config
from trackforge.logio import parse_chain_graphs, parse_log_file
from trackforge.floors import segment_trajectory
from trackforge.pipeline import process_corpus, process_log
from trackforge.stride import default_gait_model, load_gait_model, save_gait_model
from trackforge.synth import GroundTruth, WalkScript, WalkSegmentSpec, save_script, truth_path, write_corpus
from trackforge.stride import Gait


@pytest.fixture(scope="module")
def straight_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("straight")
    script = WalkScript(
        source_id="walk", seed=31,
        segments=[WalkSegmentSpec(floor=1, gait=Gait.NORMAL, heading_rad=0.0, steps=20)],
    )
    write_corpus([script], out)
    return out


@pytest.fixture(scope="module")
def short_corpus(straight_corpus, tmp_path_factory):
    """The first 2 s of the straight walk: too few steps for a floor segment."""
    lines = (straight_corpus / "walk.tsl").read_text().splitlines(keepends=True)
    t0 = min(float(ln.split(";")[1]) for ln in lines if not ln.startswith("%"))
    short = tmp_path_factory.mktemp("short")
    (short / "walk.tsl").write_text(
        "".join(ln for ln in lines if ln.startswith("%") or float(ln.split(";")[1]) < t0 + 2.0)
    )
    (short / "walk.truth.json").write_bytes((straight_corpus / "walk.truth.json").read_bytes())
    return short


@pytest.fixture(scope="module")
def mixed_baro_corpus(tmp_path_factory):
    """A two-floor walk plus a one-floor walk without barometer records.

    The barometer-less floor-1 segment joins the floor-1 cluster, whose mean
    pressure turns NaN and cannot be ordered against floor 2.
    """
    corpus = tmp_path_factory.mktemp("mixed-baro")
    write_corpus([
        WalkScript(source_id="two-floors", seed=41, segments=[
            WalkSegmentSpec(floor=1, gait=Gait.NORMAL, heading_rad=0.0, steps=15),
            WalkSegmentSpec(floor=2, gait=Gait.NORMAL, heading_rad=0.0, steps=15),
        ]),
        WalkScript(source_id="no-baro", seed=42, segments=[
            WalkSegmentSpec(floor=1, gait=Gait.NORMAL, heading_rad=0.0, steps=15),
        ]),
    ], corpus)
    _write_without_pres(corpus / "no-baro.tsl", corpus / "no-baro.tsl")
    return corpus


def _write_without_pres(src, dst):
    lines = src.read_text().splitlines(keepends=True)
    dst.write_text("".join(ln for ln in lines if not ln.startswith("PRES")))


def _reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


class TestConfig:
    def test_defaults_load(self):
        cfg = load_config()
        assert cfg.turn.epsilon_rad == 1.0
        assert cfg.step.buffer_capacity == 10

    def test_file_plus_override_precedence(self, tmp_path):
        path = tmp_path / "tf.conf"
        path.write_text("turn.epsilon_rad = 0.8\nfloor.min_pts = 12\n# comment\n")
        cfg = load_config(path, overrides={"turn.epsilon_rad": "1.3"})
        assert cfg.turn.epsilon_rad == 1.3  # flag wins
        assert cfg.floor.min_pts == 12

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "tf.conf"
        path.write_text("nonsense.key = 3\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_out_of_range_rejected(self, tmp_path):
        path = tmp_path / "tf.conf"
        path.write_text("floor.cut = 1.7\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_seed_is_not_a_config_key(self, tmp_path):
        path = tmp_path / "tf.conf"
        path.write_text("seed = 3\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_pace_floor_ceiling_consistency(self, tmp_path):
        path = tmp_path / "tf.conf"
        path.write_text("step.pace_floor = 3.0\n")
        with pytest.raises(ConfigError):
            load_config(path)

    @pytest.mark.parametrize("entry, message", [
        ("step.pace_init = 5.0", "step.pace_init must lie in"),
        ("step.pace_init = 0.1", "step.pace_init must lie in"),
        ("step.jerk_init = 0.5", "step.jerk_init must not be below"),
    ], ids=["pace-above-ceiling", "pace-below-floor", "jerk-below-floor"])
    def test_init_thresholds_within_their_bounds(self, entry, message, straight_corpus, tmp_path, caplog):
        # a pace threshold above its ceiling accepted no step: "0 steps" and exit 0
        config = tmp_path / "tf.conf"
        config.write_text(entry + "\n")
        out = tmp_path / "out"
        assert main(["run", "--input", str(straight_corpus), "--output", str(out), "--config", str(config)]) == 2
        assert f"config: {message}" in caplog.text
        assert not out.exists()
        # the floors themselves are valid starting thresholds, and a flag may
        # move a threshold into the bounds a file set
        load_config(overrides={"step.jerk_init": "0.6", "step.pace_init": "0.2"})
        config.write_text("step.jerk_floor = 1.5\nstep.pace_floor = 0.3\n")
        cfg = load_config(config, {"step.jerk_init": "2.0", "step.pace_init": "0.3"})
        assert (cfg.step.jerk_init, cfg.step.pace_init) == (2.0, 0.3)

    @pytest.mark.parametrize("raw", ["inf", "1e400", "nan"])
    def test_non_finite_float_rejected(self, raw):
        # each value is in range for pca_min_ratio (>= 1) once it is a float
        for key in ("turn.epsilon_rad", "heading.pca_min_ratio"):
            with pytest.raises(ConfigError, match="is not a finite number"):
                load_config(overrides={key: raw})


class TestTurningFlags:
    """``--epsilon`` and ``--window`` set ``turn.epsilon_rad`` and
    ``turn.window_min`` as a config file does, and win over the file."""

    @pytest.fixture(scope="class")
    def phone_a(self, corpus_dir, tmp_path_factory):
        # the one default-corpus log whose graphs change at eps 0.8, t 3
        out = tmp_path_factory.mktemp("phone-a")
        (out / "phone-a.tsl").write_bytes((corpus_dir / "phone-a.tsl").read_bytes())
        return out

    def _run(self, phone_a, out, *flags):
        assert main(["run", "--input", str(phone_a), "--output", str(out), *flags]) == 0
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    def test_flags_write_the_config_files_bytes(self, phone_a, tmp_path):
        config = tmp_path / "turn.cfg"
        config.write_text("turn.epsilon_rad = 0.8\nturn.window_min = 3\n")
        by_flags = self._run(phone_a, tmp_path / "flags", "--epsilon", "0.8", "--window", "3")
        assert by_flags == self._run(phone_a, tmp_path / "config", "--config", str(config))
        assert by_flags != self._run(phone_a, tmp_path / "default")

    def test_flags_win_over_the_config_file(self, phone_a, tmp_path):
        config = tmp_path / "turn.cfg"
        config.write_text("turn.epsilon_rad = 1.3\nturn.window_min = 6\n")
        by_file = self._run(phone_a, tmp_path / "file", "--config", str(config))
        both = self._run(phone_a, tmp_path / "both", "--config", str(config), "--epsilon", "0.8", "--window", "3")
        assert both != by_file
        assert both == self._run(phone_a, tmp_path / "flags", "--epsilon", "0.8", "--window", "3")

    def test_window_0_exits_2(self, phone_a, tmp_path, caplog):
        out = tmp_path / "out"
        assert main(["run", "--input", str(phone_a), "--output", str(out), "--window", "0"]) == 2
        assert "config: config key turn.window_min = 0 is out of range" in caplog.text
        assert not out.exists()


class TestRunCommand:
    def test_empty_input_dir_exit_2(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["run", "--input", str(empty), "--output", str(tmp_path / "out")]) == 2

    def test_straight_walk_one_graph_two_vertices(self, straight_corpus, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", "--input", str(straight_corpus), "--output", str(out)]) == 0
        graphs = parse_chain_graphs((out / "walk.graphs.json").read_text())
        assert len(graphs) == 1
        assert len(graphs[0].vertices) == 2
        report = json.loads((out / "report.json").read_text())
        assert report["files"][0]["steps"] == 20
        assert report["totals"]["graphs"] == 1

    def test_report_totals_equal_file_sums(self, straight_corpus, tmp_path):
        out = tmp_path / "out2"
        main(["run", "--input", str(straight_corpus), "--output", str(out)])
        report = json.loads((out / "report.json").read_text())
        for key in ("steps", "segments", "graphs"):
            assert report["totals"][key] == sum(f[key] for f in report["files"])

    def test_unreadable_file_recorded_run_continues(self, straight_corpus, tmp_path):
        bad_dir = tmp_path / "mixed"
        bad_dir.mkdir()
        for p in straight_corpus.glob("*"):
            (bad_dir / p.name).write_bytes(p.read_bytes())
        (bad_dir / "broken.tsl").write_text("ACCE;gibberish\n")
        out = tmp_path / "out3"
        assert main(["run", "--input", str(bad_dir), "--output", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        errors = [f for f in report["files"] if f["error"]]
        assert len(errors) == 1 and errors[0]["name"] == "broken.tsl"

    def test_worker_count_changes_no_byte(self, straight_corpus, tmp_path, monkeypatch, caplog, forks):
        # logs are parsed in forked workers, one per usable CPU; their errors
        # reach report.json and the log lines pickled, with the text and in
        # the order of a parse in this process
        corpus = tmp_path / "mixed"
        corpus.mkdir()
        good = (straight_corpus / "walk.tsl").read_bytes()
        lines = good.splitlines(keepends=True)
        (corpus / "walk.tsl").write_bytes(good)
        (corpus / "malformed.tsl").write_bytes(b"".join(lines[:100] + [b"ACCE;1.0;1.0;0;x;9.8;3\n"] + lines[100:]))
        (corpus / "latin1.tsl").write_bytes(good + "% café\n".encode("latin-1"))
        (corpus / "empty.tsl").write_bytes(b"")
        (corpus / "bad.tsl").mkdir()
        outputs, messages = [], []
        for cpus in (1, 2):
            monkeypatch.setattr(forked, "usable_cpus", lambda: cpus)
            caplog.clear()
            assert main(["run", "--input", str(straight_corpus), "--output", str(tmp_path / f"good-{cpus}")]) == 0
            assert forks and forks.alive() == 0
            out = tmp_path / f"mixed-{cpus}"
            assert main(["run", "--input", str(corpus), "--output", str(out)]) == 0
            assert forks.alive() == 0
            outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
            messages.append([r.getMessage() for r in caplog.records if r.name == "trackforge.pipeline"])
        assert outputs[0] == outputs[1] and messages[0] == messages[1]
        in_process = {}
        for name in ("bad.tsl", "latin1.tsl"):
            with pytest.raises((OSError, ValueError)) as raised:
                parse_log_file(corpus / name)
            in_process[name] = str(raised.value)
        errors = {f["name"]: f["error"] for f in json.loads(outputs[0]["report.json"])["files"]}
        assert errors == {
            "bad.tsl": in_process["bad.tsl"],
            "empty.tsl": "log has no accelerometer samples",
            "latin1.tsl": in_process["latin1.tsl"],
            "malformed.tsl": "line 101: unparsable ACCE component: 'x'",
            "walk.tsl": None,
        }
        assert messages[0] == [f"failed to process {name}: {error}" for name, error in errors.items() if error]
        assert list(outputs[0]) == ["report.json", "walk.graphs.json"]
        assert outputs[0]["walk.graphs.json"] == (tmp_path / "good-1" / "walk.graphs.json").read_bytes()

    def test_no_floor_segments_exit_0(self, short_corpus, tmp_path):
        out = tmp_path / "out4"
        assert main(["run", "--input", str(short_corpus), "--output", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["floor_count"] == 0 and report["floor_pressures"] == []
        assert report["totals"]["segments"] == 0 and report["totals"]["graphs"] == 0
        assert "error" not in report
        assert parse_chain_graphs((out / "walk.graphs.json").read_text()) == []

    def test_barometer_missing_in_one_log_exit_2_with_report(self, mixed_baro_corpus, tmp_path):
        out = tmp_path / "out5"
        assert main(["run", "--input", str(mixed_baro_corpus), "--output", str(out)]) == 2
        report = json.loads((out / "report.json").read_text())
        assert [f["name"] for f in report["files"]] == ["no-baro.tsl", "two-floors.tsl"]
        assert all(f["error"] is None and f["segments"] > 0 for f in report["files"])
        assert "not strictly decreasing" in report["error"]
        assert report["floor_count"] == 0
        assert not list(out.glob("*.graphs.json"))

    @pytest.mark.parametrize("copy_original", [False, True], ids=["only-log", "beside-original"])
    def test_barometerless_floor_pressure_is_null(self, copy_original, tmp_path):
        # one floor cluster holds a log without PRES records: its mean pressure
        # is unknown, and with a single cluster nothing has to be ordered
        corpus = tmp_path / "no-pres"
        write_corpus([WalkScript(source_id="two-floors", seed=41, segments=[
            WalkSegmentSpec(floor=1, gait=Gait.NORMAL, heading_rad=0.0, steps=15),
            WalkSegmentSpec(floor=2, gait=Gait.NORMAL, heading_rad=0.0, steps=15),
        ])], corpus)
        original = corpus / "two-floors.tsl"
        _write_without_pres(original, corpus / "two-floors-no-pres.tsl")
        if not copy_original:
            original.unlink()
        out = tmp_path / "out6"
        assert main(["run", "--input", str(corpus), "--output", str(out)]) == 0
        report = json.loads((out / "report.json").read_text(), parse_constant=_reject_constant)
        assert report["floor_count"] == 1 and report["floor_pressures"] == [None]


class TestSynthCommand:
    def test_script_rendering(self, tmp_path):
        script = WalkScript(
            source_id="cli-script", seed=17,
            segments=[WalkSegmentSpec(floor=1, gait=Gait.SLOW, heading_rad=0.2, steps=8)],
        )
        spath = tmp_path / "walk.json"
        save_script(script, spath)
        out = tmp_path / "rendered"
        assert main(["synth", "--script", str(spath), "--out", str(out)]) == 0
        assert (out / "cli-script.tsl").exists()
        assert (out / "cli-script.truth.json").exists()

    def test_requires_script_or_default(self, tmp_path):
        assert main(["synth", "--out", str(tmp_path / "x")]) == 2

    def test_unwritable_log_fatal_and_no_worker_left(self, tmp_path, caplog, forks):
        (tmp_path / "phone-b.tsl").mkdir()
        assert main(["synth", "--default-corpus", "--out", str(tmp_path)]) == 2
        assert "fatal: " in caplog.text and "phone-b.tsl" in caplog.text
        assert forks and forks.alive() == 0


def _segment(floor, **extra):
    return {"floor": floor, "gait": "normal", "heading_rad": 0.0, "steps": 8, **extra}


@pytest.mark.parametrize("change", [
    {"segments": [_segment(1, drift=0.5)]},
    {"segments": [_segment(1), _segment(2)], "ap_pools": {"1": ["02:00:00:00:01:00"]}},
    {"source_id": "../w"},
    {"noise": 5},
    {"ap_pools": [1]},
    {"segments": [_segment(1, drift=["a"] + [0.0] * 7)]},
    {"segments": [_segment(1, drift={"jitter_step": "x"})]},
    {"ap_pools": {"1": "02:00:00:00:01:00"}},
    {"ap_pools": {"1": ["x"]}},
    {"ap_pools": {"1": [5]}},
    {"noise": {"acel": 0.2}},
    {"imu_rate_hz": math.nan},
    {"imu_rate_hz": math.inf},
    {"baro_rate_hz": math.inf},
    {"wifi_period_s": 1e-300},
    {"imu_rate_hz": 1e300},
    {"aps_per_floor": -1},
    {"aps_per_floor": "20"},
    {"baro_bias_hpa": "x"},
    {"baro_bias_hpa": math.nan},
    {"segments": [_segment(1, heading_rad=math.nan)]},
    {"noise": {"baro": math.nan}},
    {"imu_rate": 20},
    {"segments": [_segment(1, drfit={"jitter_step": 0.1})]},
    {"segments": [_segment(1, drift={"jiter_step": 0.1})]},
    {"segments": [_segment(256)]},
    {"segments": [_segment(-1)]},
    {"segments": [_segment(10**400)]},
    {"segments": [_segment(-256)], "ap_pools": {"-256": ["02:00:00:00:01:00"]}},
    {"aps_per_floor": 300},
    {"turn_seconds": -1.0},
    {"stair_seconds": -0.5},
    {"seed": 1.9},
    {"seed": True},
    {"source_id": 5},
    {"segments": [_segment(1.7)]},
    {"segments": [_segment(1, heading_rad="1.5")]},
    {"segments": [_segment(1, steps=8.9)]},
    {"segments": [_segment(1, steps=True)]},
    {"segments": [_segment(1.0)]},
    {"segments": [_segment(1, steps=8.0)]},
    {"segments": [_segment(1, gait="walk")]},
    {"segments": [_segment(1), _segment(2)], "stair_seconds": 1e300},
    {"segments": [_segment(1), _segment(1, heading_rad=1.5)], "turn_seconds": 1e300},
    {"segments": [_segment(1, steps=10**400)]},
], ids=["scalar-drift", "floor-without-pool", "source-id-path", "scalar-noise", "list-ap-pools",
        "text-drift-entry", "text-jitter-step", "text-ap-pool", "bad-bssid", "number-bssid", "unknown-noise-key",
        "nan-imu-rate", "inf-imu-rate", "inf-baro-rate", "tiny-wifi-period", "huge-imu-rate",
        "negative-aps-per-floor", "text-aps-per-floor",
        "text-baro-bias", "nan-baro-bias", "nan-heading", "nan-noise-sigma", "unknown-key", "unknown-segment-key",
        "unknown-drift-key", "generated-pool-floor-256", "generated-pool-floor-minus-1", "400-digit-floor",
        "pooled-floor-minus-256", "generated-pool-300-aps", "negative-turn-seconds", "negative-stair-seconds",
        "fractional-seed", "boolean-seed", "number-source-id", "fractional-floor", "text-heading",
        "fractional-steps", "boolean-steps", "whole-float-floor", "whole-float-steps",
        "unknown-gait", "huge-stair-seconds", "huge-turn-seconds", "400-digit-steps"])
def test_bad_walk_script_exits_2(change, tmp_path, caplog):
    doc = {"source_id": "w", "seed": 1, "segments": [_segment(1)], **change}
    spath = tmp_path / "walk.json"
    spath.write_text(json.dumps(doc))
    out = tmp_path / "deep" / "out"
    assert main(["synth", "--script", str(spath), "--out", str(out)]) == 2
    assert "config: " in caplog.text
    assert not (tmp_path / "deep" / "w.tsl").exists()


class TestEvalCommand:
    def test_straight_walk_eval(self, straight_corpus, tmp_path, capsys):
        out = tmp_path / "eval"
        assert main(["eval", "--input", str(straight_corpus), "--output", str(out)]) == 0
        result = json.loads((out / "eval.json").read_text())
        assert result["floor_accuracy"] == 1.0
        assert result["turning"]["precision"] == 1.0  # no corners, none detected

    def test_default_corpus_end_to_end(self, corpus_dir, tmp_path):
        out = tmp_path / "eval-corpus"
        assert main(["eval", "--input", str(corpus_dir), "--output", str(out)]) == 0
        result = json.loads((out / "eval.json").read_text())
        assert result["floor_count"] == 3
        assert result["floor_accuracy"] == 1.0
        assert result["turning"]["precision"] == 1.0
        run_out = tmp_path / "run-corpus"
        assert main(["run", "--input", str(corpus_dir), "--output", str(run_out)]) == 0
        report = json.loads((run_out / "report.json").read_text())
        assert report["floor_count"] == 3
        assert report["totals"]["errors"] == 0
        # eval goes through the same corpus path, graphs included
        assert json.loads((out / "report.json").read_text()) == report

    def test_long_min_length_scores_no_turn(self, corpus_dir, tmp_path):
        # every piece is shorter than 100 km: run writes no graph, so nothing is detected
        config = tmp_path / "long.cfg"
        config.write_text("turn.min_len_m = 100000\n")
        out = tmp_path / "eval"
        assert main(["eval", "--input", str(corpus_dir), "--output", str(out), "--config", str(config)]) == 0
        assert json.loads((out / "eval.json").read_text())["turning"]["recall"] == 0.0
        assert json.loads((out / "report.json").read_text())["totals"]["graphs"] == 0
        sweep_out = tmp_path / "sweep"
        assert main(["sweep", "--input", str(corpus_dir), "--output", str(sweep_out),
                     "--config", str(config)]) == 0
        rows = json.loads((sweep_out / "sweep_plot.json").read_text())["rows"]
        assert len(rows) == 5 and all(row["f"] == 0.0 for row in rows)

    def test_turning_score_is_the_written_graphs(self, corpus_dir, tmp_path):
        # a config that splits and drops pieces on the default corpus
        config = tmp_path / "split.cfg"
        config.write_text("turn.epsilon_rad = 0.2\nturn.window_min = 1\nturn.min_len_m = 3\n")
        run_out, eval_out = tmp_path / "run", tmp_path / "eval"
        assert main(["run", "--input", str(corpus_dir), "--output", str(run_out), "--config", str(config)]) == 0
        assert main(["eval", "--input", str(corpus_dir), "--output", str(eval_out), "--config", str(config)]) == 0
        totals = json.loads((run_out / "report.json").read_text())["totals"]
        assert totals["graphs"] > totals["segments"] and totals["dropped_subtrajectories"] > 0

        cfg = load_config(config)
        tp = n_det = n_tru = 0
        for path in sorted(corpus_dir.glob("*.tsl")):
            # each segment's first and last point, by time, from the stages before featurize
            traj = process_log(parse_log_file(path), cfg, default_gait_model()).trajectory
            segments = segment_trajectory(traj, cfg.floor.eps_hpa, cfg.floor.min_pts, cfg.floor.max_clusters)
            ends = {traj.t[i] for seg in segments for i in (seg.point_range[0], seg.point_range[1] - 1)}
            graphs = parse_chain_graphs((run_out / f"{path.stem}.graphs.json").read_text())
            detected = [(v.x, v.y) for g in graphs for v in g.vertices if v.t not in ends]
            truth = GroundTruth.from_json(json.loads(truth_path(path).read_text()))
            score = evalkit.score_turnings(detected, truth.corner_points)
            tp, n_det, n_tru = tp + score.true_positives, n_det + score.detected, n_tru + score.truth
        turning = json.loads((eval_out / "eval.json").read_text())["turning"]
        assert (turning["precision"], turning["recall"], turning["f"]) == evalkit.prf(tp, n_det, n_tru)

    @pytest.mark.parametrize("floors", [[], ["--floors", "2"]], ids=["cut", "floors-2"])
    def test_floor_count_is_the_reports(self, floors, corpus_dir, tmp_path):
        # eval.json counts the distinct segment floors; report.json counts clusters
        out = tmp_path / "eval"
        assert main(["eval", "--input", str(corpus_dir), "--output", str(out), *floors]) == 0
        result = json.loads((out / "eval.json").read_text())
        report = json.loads((out / "report.json").read_text())
        assert result["floor_count"] == report["floor_count"] == (2 if floors else 3)

    def test_dotted_stem_scored_against_its_own_truth(self, tmp_path):
        # a.b.tsl must be scored against a.b.truth.json, never a.truth.json
        corpus = tmp_path / "dotted"
        straight = WalkScript(
            source_id="a", seed=31,
            segments=[WalkSegmentSpec(floor=1, gait=Gait.NORMAL, heading_rad=0.0, steps=20)],
        )
        corners = WalkScript(
            source_id="a.b", seed=21,
            segments=[
                WalkSegmentSpec(floor=1, gait=Gait.NORMAL, heading_rad=h, steps=18)
                for h in (0.0, 1.5, 0.1, 1.6)
            ],
        )
        write_corpus([straight, corners], corpus)
        out = tmp_path / "eval"
        assert main(["eval", "--input", str(corpus), "--output", str(out)]) == 0
        turning = json.loads((out / "eval.json").read_text())["turning"]
        assert (turning["precision"], turning["recall"]) == (1.0, 1.0)

    @pytest.mark.parametrize("command", ["eval", "sweep"])
    def test_failed_log_exits_1(self, command, straight_corpus, tmp_path, caplog):
        corpus = tmp_path / "wifi-only"
        corpus.mkdir()
        for p in straight_corpus.glob("*"):
            (corpus / p.name).write_bytes(p.read_bytes())
        (corpus / "radio.tsl").write_text("WIFI;0.5;0.5;net;aa:bb:cc:00:00:01;2412;-50\n")
        (corpus / "radio.truth.json").write_bytes((straight_corpus / "walk.truth.json").read_bytes())
        argv = [command, "--input", str(corpus), "--output", str(tmp_path / "out")]
        assert main(argv) == 1
        assert "radio.tsl" in caplog.text
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        errors = {f["name"]: f["error"] for f in report["files"]}
        assert errors == {"radio.tsl": "log has no accelerometer samples", "walk.tsl": None}

    def test_no_floor_segments_exit_0(self, short_corpus, tmp_path):
        out = tmp_path / "eval"
        assert main(["eval", "--input", str(short_corpus), "--output", str(out)]) == 0
        result = json.loads((out / "eval.json").read_text())
        assert result["floor_count"] == 0 and result["segments_scored"] == 0

    @pytest.mark.parametrize("command", ["run", "eval", "sweep"])
    def test_floor_clustering_failure_exit_2(self, command, mixed_baro_corpus, tmp_path, caplog):
        argv = [command, "--input", str(mixed_baro_corpus), "--output", str(tmp_path / "out")]
        assert main(argv) == 2
        assert "fatal: floor clustering failed" in caplog.text
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["error"].startswith("floor clustering failed") and report["floor_count"] == 0

    @pytest.mark.parametrize("command", ["run", "eval", "sweep"])
    def test_more_floors_than_segments_exit_2(self, command, straight_corpus, tmp_path, caplog):
        """The straight walk has one floor segment, so --floors 2 cannot be met."""
        argv = [command, "--input", str(straight_corpus), "--output", str(tmp_path / "out"), "--floors", "2"]
        assert main(argv) == 2
        error = "floor clustering failed: 2 floors asked for, more than the floor segments (1)"
        assert f"fatal: {error}" in caplog.text
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert (report["error"], report["floor_count"], report["totals"]["segments"]) == (error, 0, 1)
        assert not list((tmp_path / "out").glob("*.graphs.json"))

    @pytest.mark.parametrize("command", ["eval", "sweep"])
    @pytest.mark.parametrize("sidecar", [
        "invalid-json", "empty-object", "scalar-point-floors", "corner-point-triple",
        "corner-point-strings", "one-number-point", "no-point-floors", "corner-index-past-end",
        "corner-count-mismatch", "short-step-gaits", "short-step-headings", "long-step-floors",
        "400-digit-point", "fractional-step-floor", "text-floor-pressure", "text-step-time",
    ])
    def test_malformed_truth_sidecar_exits_2_before_loading(
        self, command, sidecar, straight_corpus, tmp_path, caplog, monkeypatch
    ):
        def loading(*_):
            raise AssertionError("the corpus was loaded")

        monkeypatch.setattr(cli, "process_corpus", loading)
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "walk.tsl").write_bytes((straight_corpus / "walk.tsl").read_bytes())
        doc = json.loads((straight_corpus / "walk.truth.json").read_text())
        text = {
            "invalid-json": '{"source_id": "walk",',
            "empty-object": "{}",
            "scalar-point-floors": json.dumps({**doc, "point_floors": 5}),
            "corner-point-triple": json.dumps({**doc, "corner_points": [[1, 2, 3]]}),
            "corner-point-strings": json.dumps({**doc, "corner_points": [["a", "b"]]}),
            "one-number-point": json.dumps({**doc, "points": [[1]]}),
            "no-point-floors": json.dumps({**doc, "point_floors": []}),
            "corner-index-past-end": json.dumps({**doc, "corner_indices": [len(doc["points"])], "corner_points": [[0, 0]]}),
            "corner-count-mismatch": json.dumps({**doc, "corner_indices": [1], "corner_points": []}),
            "short-step-gaits": json.dumps({**doc, "step_gaits": doc["step_gaits"][:-1]}),
            "short-step-headings": json.dumps({**doc, "step_headings": doc["step_headings"][:-1]}),
            "long-step-floors": json.dumps({**doc, "step_floors": doc["step_floors"] + [1]}),
            "400-digit-point": json.dumps({**doc, "points": [[10**400, 0]] + doc["points"][1:]}),
            "fractional-step-floor": json.dumps({**doc, "step_floors": [1.7] + doc["step_floors"][1:]}),
            "text-floor-pressure": json.dumps({**doc, "floor_pressures": {"1": "1013"}}),
            "text-step-time": json.dumps({**doc, "step_times": ["x"] + doc["step_times"][1:]}),
        }[sidecar]
        (corpus / "walk.truth.json").write_text(text)
        assert main([command, "--input", str(corpus), "--output", str(tmp_path / "out")]) == 2
        assert "fatal: " in caplog.text
        assert "walk.truth.json" in caplog.text

    def test_missing_truth_fatal(self, tmp_path):
        lonely = tmp_path / "lonely"
        lonely.mkdir()
        (lonely / "a.tsl").write_text("ACCE;0.0;0.0;0;0;9.8;3\n")
        assert main(["eval", "--input", str(lonely)]) == 2


def test_run_without_scipy(straight_corpus, tmp_path):
    """The runtime needs NumPy only; SciPy is the test oracle."""
    code = "import sys; sys.modules['scipy'] = None; from trackforge.cli import main; sys.exit(main(sys.argv[1:]))"
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = ["run", "--input", str(straight_corpus), "--output", str(tmp_path / "out")]
    done = subprocess.run(
        [sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "out" / "report.json").exists()


def test_run_imports_neither_multiprocessing_nor_numpy_ma(corpus_dir, tmp_path):
    """The parse workers are os.fork children, and no call checks for masked
    arrays; NumPy before 2 loads numpy.ma with numpy itself."""
    code = (
        "import json, sys; import numpy; eager = 'numpy.ma' in sys.modules; from trackforge.cli import main; "
        "code = main(sys.argv[1:]); "
        "print(json.dumps([code, 'multiprocessing' in sys.modules, eager, 'numpy.ma' in sys.modules]))"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = ["run", "--input", str(corpus_dir), "--output", str(tmp_path / "out")]
    done = subprocess.run(
        [sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, timeout=300
    )
    code, multiprocessing_loaded, eager, numpy_ma_loaded = json.loads(done.stdout.splitlines()[-1])
    assert code == 0 and not multiprocessing_loaded
    assert numpy_ma_loaded == eager


@pytest.mark.parametrize("level",["BASIC_FORMAT", "verbose"])
def test_log_level_that_names_no_level_means_warning(level, tmp_path):
    """Run in a subprocess: under pytest the root logger has handlers already,
    so ``logging.basicConfig`` would do nothing in-process."""
    code = "import sys; from trackforge.cli import main; sys.exit(main(sys.argv[1:]))"
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {
        **os.environ,
        "TRACKFORGE_LOG": level,
        "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
    }
    done = subprocess.run(
        [sys.executable, "-c", code, "synth", "--out", str(tmp_path)], env=env, capture_output=True, text=True,
        timeout=300,
    )
    assert (done.returncode, done.stderr) == (2, "ERROR trackforge: synth needs --script or --default-corpus\n")


# the labels of the CI smoke job's train-gait step
SMOKE_LABELS = (
    "duration,variance,peak,rms,gait\n0.80,0.70,11.0,9.9,slow\n0.82,0.75,11.1,9.9,slow\n"
    "0.55,3.00,12.4,10.0,normal\n0.57,3.20,12.5,10.0,normal\n0.40,8.00,13.8,10.2,fast\n0.42,8.30,13.9,10.2,fast\n"
)


def _openblas_kernels() -> tuple[list[str], str]:
    """Two OPENBLAS_CORETYPE kernels this CPU runs, the oldest x86-64 one and
    the newest it has, or no kernels and why NumPy cannot switch them."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except TypeError:  # NumPy before 1.26 does not report its build this way
        return [], "NumPy does not report whether its BLAS is an OpenBLAS with DYNAMIC_ARCH"
    if "DYNAMIC_ARCH" not in blas.get("openblas configuration", ""):
        return [], f"NumPy's BLAS ({blas.get('name')}) is not an OpenBLAS built with DYNAMIC_ARCH"
    try:
        flags = set(Path("/proc/cpuinfo").read_text().split())
    except OSError:
        flags = set()
    newest = "SkylakeX" if "avx512f" in flags else "Haswell" if "avx2" in flags else "Nehalem"
    return ["Prescott", newest], ""


def test_outputs_do_not_depend_on_the_blas_kernel(corpus_dir, tmp_path):
    """``run`` and ``train-gait`` write the same bytes under two OpenBLAS
    kernels: no output value goes through BLAS, whose kernels round
    differently. No digest is pinned, as libm may differ between machines."""
    kernels, why = _openblas_kernels()
    if not kernels:
        pytest.skip(why)
    labels = tmp_path / "labels.csv"
    labels.write_text(SMOKE_LABELS)
    code = "import sys; from trackforge.cli import main; sys.exit(main(sys.argv[1:]))"
    src = str(Path(cli.__file__).resolve().parents[1])
    outputs = []
    for kernel in kernels:
        env = {
            **os.environ,
            "OPENBLAS_CORETYPE": kernel,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
        }
        out = tmp_path / kernel
        for argv in (
            ["run", "--input", str(corpus_dir), "--output", str(out / "run")],
            ["train-gait", "--labels", str(labels), "--out", str(out / "gait.model")],
        ):
            done = subprocess.run(
                [sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, timeout=300
            )
            assert done.returncode == 0, done.stderr
        outputs.append({p.relative_to(out).as_posix(): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()})
    assert len(outputs[0]) == 5  # three graph files, report.json and the model
    assert outputs[0] == outputs[1]


class TestSweepCommand:
    def test_sweep_outputs(self, straight_corpus, tmp_path):
        out = tmp_path / "sweep"
        code = main([
            "sweep", "--input", str(straight_corpus), "--output", str(out),
            "--epsilon-grid", "1.0", "--window-grid", "4",
        ])
        assert code == 0
        table = (out / "sweep.csv").read_text()
        assert table.splitlines()[0] == "epsilon,window,precision,recall,f"
        assert (out / "sweep_plot.json").exists()


@pytest.mark.parametrize("args", [
    ["sweep", "--epsilon-grid", ","],
    ["sweep", "--window-grid", "0"],
    ["sweep", "--epsilon-grid=-1"],
    ["eval", "--match-radius", "0"],
    ["sweep", "--match-radius=-2"],
])
def test_bad_grid_or_match_radius_exits_2_before_loading(args, straight_corpus, tmp_path, caplog, monkeypatch):
    def loading(*_):
        raise AssertionError("the corpus was loaded")

    monkeypatch.setattr(cli, "process_corpus", loading)
    out = tmp_path / "out"
    assert main([*args, "--input", str(straight_corpus), "--output", str(out)]) == 2
    assert "config: " in caplog.text
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["eval", "--epsilon", "inf"],
    ["eval", "--config", "{config}"],
    ["sweep", "--epsilon-grid", "1.0,inf"],
], ids=["flag", "config-file", "sweep-grid"])
def test_non_finite_epsilon_exits_2_before_loading(argv, straight_corpus, tmp_path, caplog, monkeypatch):
    # an infinite epsilon would be written to eval.json or sweep_plot.json
    # as Infinity, which is not JSON
    def loading(*_):
        raise AssertionError("the corpus was loaded")

    monkeypatch.setattr(cli, "process_corpus", loading)
    config = tmp_path / "inf.cfg"
    config.write_text("turn.epsilon_rad = 1e400\n")
    out = tmp_path / "out"
    argv = [arg.format(config=config) for arg in argv]
    assert main([*argv, "--input", str(straight_corpus), "--output", str(out)]) == 2
    assert "config: " in caplog.text and "is not a finite number" in caplog.text
    assert not out.exists()


@pytest.mark.parametrize("command", ["eval", "sweep"])
def test_output_directory_made_before_loading(command, straight_corpus, tmp_path, monkeypatch):
    out = tmp_path / "out"
    made = []

    def loading(*args):
        made.append(out.is_dir())
        return process_corpus(*args)

    monkeypatch.setattr(cli, "process_corpus", loading)
    assert main([command, "--input", str(straight_corpus), "--output", str(out)]) == 0
    assert made == [True]


@pytest.mark.parametrize("command", ["eval", "sweep"])
def test_output_path_is_a_file_exits_2_before_loading(command, straight_corpus, tmp_path, caplog, monkeypatch):
    def loading(*_):
        raise AssertionError("the corpus was loaded")

    monkeypatch.setattr(cli, "process_corpus", loading)
    out = tmp_path / "out"
    out.write_text("")
    assert main([command, "--input", str(straight_corpus), "--output", str(out)]) == 2
    assert "fatal: " in caplog.text


@pytest.mark.parametrize("argv,line", [
    (["run", "--config", "{missing}"], "config: "),
    (["run", "--config", "{latin1}"], "config: "),
    (["run", "--gait-model", "{missing}"], "config: "),
    (["eval", "--gait-model", "{garbage}"], "config: "),
    (["synth", "--script", "{missing}"], "config: "),
    (["synth", "--script", "{garbage}"], "config: "),
    (["synth", "--default-corpus", "--seed", "-1"], "config: "),
    (["run", "--output", "{garbage}"], "fatal: "),
])
def test_bad_named_file_or_value_exits_2(argv, line, straight_corpus, tmp_path, caplog):
    paths = {"missing": tmp_path / "missing", "latin1": tmp_path / "latin1.cfg", "garbage": tmp_path / "garbage"}
    paths["latin1"].write_bytes("turn.epsilon_rad = 1.0  # caf\u00e9\n".encode("latin-1"))
    paths["garbage"].write_text("neither a gait model nor JSON {\n")
    argv = [arg.format(**paths) for arg in argv]
    if argv[0] == "synth":
        argv += ["--out", str(tmp_path / "synth")]
    else:
        argv += ["--input", str(straight_corpus)]
        if "--output" not in argv:
            argv += ["--output", str(tmp_path / "out")]
    assert main(argv) == 2
    assert line in caplog.text


class TestTrainGaitCommand:
    def test_train_from_csv(self, tmp_path):
        rows = ["duration,variance,peak,rms,gait"]
        rng = np.random.default_rng(0)
        for _ in range(40):
            rows.append(f"{0.8 + rng.normal(0, 0.02):.4f},{0.7 + rng.normal(0, 0.05):.4f},11.0,9.9,slow")
            rows.append(f"{0.4 + rng.normal(0, 0.02):.4f},{8.0 + rng.normal(0, 0.3):.4f},13.8,10.2,fast")
        labels = tmp_path / "labels.csv"
        labels.write_text("\n".join(rows) + "\n")
        model_path = tmp_path / "gait.model"
        assert main(["train-gait", "--labels", str(labels), "--out", str(model_path)]) == 0
        model = load_gait_model(model_path)
        assert model.stride_table[Gait.SLOW] == pytest.approx(0.5)

    def test_non_finite_feature_names_its_line(self, tmp_path, caplog):
        labels = tmp_path / "labels.csv"
        labels.write_text("duration,variance,peak,rms,gait\n0.8,0.7,11.0,9.9,slow\n0.4,nan,13.8,10.2,fast\n")
        out = tmp_path / "m"
        assert main(["train-gait", "--labels", str(labels), "--out", str(out)]) == 2
        assert "labels line 3" in caplog.text
        assert not out.exists()

    def test_overflowing_features_write_no_model(self, tmp_path, caplog):
        # finite features whose mean overflows train a NaN bias
        labels = tmp_path / "labels.csv"
        labels.write_text("1e308,1.0,1.0,1.0,slow\n1e308,2.0,1.0,1.0,fast\n")
        out = tmp_path / "m"
        with np.errstate(all="ignore"):
            assert main(["train-gait", "--labels", str(labels), "--out", str(out)]) == 2
        assert "config: " in caplog.text
        assert not out.exists()

    def test_non_finite_model_exits_2(self, straight_corpus, tmp_path, caplog):
        model = tmp_path / "nan.model"
        nan4 = (math.nan,) * 4  # every weight and bias NaN
        save_gait_model(replace(default_gait_model(), l1_weights=nan4, l1_bias=math.nan,
                                l2_weights=nan4, l2_bias=math.nan), model)
        argv = ["run", "--input", str(straight_corpus), "--output", str(tmp_path / "out"), "--gait-model", str(model)]
        assert main(argv) == 2
        assert "config: " in caplog.text

    def test_non_utf8_labels_exit_2(self, tmp_path, caplog):
        labels = tmp_path / "labels.csv"
        labels.write_bytes("0.8,0.7,11.0,9.9,slow  # caf\u00e9\n".encode("latin-1"))
        out = tmp_path / "m"
        assert main(["train-gait", "--labels", str(labels), "--out", str(out)]) == 2
        assert "cannot read labels" in caplog.text
        assert not out.exists()

    def test_bad_labels_fatal(self, tmp_path):
        labels = tmp_path / "labels.csv"
        labels.write_text("not,enough\n")
        assert main(["train-gait", "--labels", str(labels), "--out", str(tmp_path / "m")]) == 2
