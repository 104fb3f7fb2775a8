"""Tests for the benchmark's own code.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from perfbench import compare, digests, spans, workloads  # noqa: E402
from perfbench.composed import composed_run  # noqa: E402
from perfbench.repeat import check_repeat  # noqa: E402
from perfbench.run import tally  # noqa: E402
from trackforge import synth  # noqa: E402
from trackforge.config import PipelineConfig  # noqa: E402


def _scripts_json(name: str, seed: int) -> list[dict]:
    return [s.to_json() for s in workloads.WORKLOADS[name](seed)]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generators_deterministic_under_seed(name):
    assert _scripts_json(name, 7) == _scripts_json(name, 7)


def test_many_segments_seed_changes_inputs_not_amount_of_work():
    a, b = workloads.many_segments(1), workloads.many_segments(2)
    assert [s.to_json() for s in a] != [s.to_json() for s in b]
    for x, y in zip(a, b):
        assert [seg.steps for seg in x.segments] == [seg.steps for seg in y.segments]
        assert len({seg.floor for seg in x.segments}) == len({seg.floor for seg in y.segments})


def test_rendered_bytes_deterministic(tmp_path):
    script_a = workloads.many_segments(3)[0]
    script_b = workloads.many_segments(3)[0]
    synth.write_corpus([script_a], tmp_path / "a")
    synth.write_corpus([script_b], tmp_path / "b")
    assert digests.input_digest(tmp_path / "a") == digests.input_digest(tmp_path / "b")


def _span(i, name, parent, start, end):
    return {"id": i, "name": name, "parent": parent, "file": None, "start": start, "end": end}


def test_self_time_on_hand_built_tree():
    tree = [
        _span(0, "pipeline.run", None, 0.0, 10.0),
        _span(1, "heading.a", 0, 1.0, 4.0),
        _span(2, "heading.b", 0, 3.0, 6.0),     # overlaps its sibling
        _span(3, "logio.c", 0, 8.0, 12.0),      # runs past its parent's end
        _span(4, "heading.inner", 1, 2.0, 3.0),
        _span(5, "pdr.leaf", 4, 2.5, 2.75),
    ]
    selfs = spans.self_times(tree)
    assert selfs[0] == pytest.approx(10.0 - (5.0 + 2.0))   # children cover [1,6] and [8,10]
    assert selfs[1] == pytest.approx(3.0 - 1.0)
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[3] == pytest.approx(4.0)
    assert selfs[4] == pytest.approx(1.0 - 0.25)
    assert selfs[5] == pytest.approx(0.25)

    layers = spans.layer_summary(tree)
    # heading.inner is nested in a heading span, so it adds no busy time
    assert layers["heading"]["busy_s"] == pytest.approx(3.0 + 3.0)
    assert layers["heading"]["self_s"] == pytest.approx(2.0 + 3.0 + 0.75)
    assert layers["pipeline"]["self_s"] == pytest.approx(3.0)
    assert layers["pdr"]["busy_s"] == pytest.approx(0.25)
    # self times add up to the wall time covered, [0, 12], plus the second
    # it counts twice where the two heading siblings overlap
    assert sum(v["self_s"] for v in layers.values()) == pytest.approx(12.0 + 1.0)


def test_tracer_records_parents_and_files():
    tracer = spans.Tracer()
    with tracer.span("pipeline.run"):
        with tracer.span("logio.parse_log", "a.tsl"):
            pass
        with tracer.span("heading.step_headings", "a.tsl"):
            pass
    names = [(s["name"], s["parent"], s["file"]) for s in tracer.spans]
    assert names == [
        ("pipeline.run", None, None),
        ("logio.parse_log", 0, "a.tsl"),
        ("heading.step_headings", 0, "a.tsl"),
    ]
    assert all(s["end"] >= s["start"] for s in tracer.spans)


def _write_output(out: Path, graphs: str, error=None) -> None:
    out.mkdir(parents=True)
    (out / "x.graphs.json").write_text(graphs, encoding="utf-8")
    report = {"files": [{"name": "x.tsl", "error": error}], "totals": {"steps": 1}}
    (out / "report.json").write_text(json.dumps(report), encoding="utf-8")


def test_corrupted_repeat_counts_as_failure(tmp_path):
    _write_output(tmp_path / "r0", '{"graphs": []}\n')
    _write_output(tmp_path / "r1", '{"graphs": []}\n')
    _write_output(tmp_path / "r2", '{"graphs": [ ]}\n')   # one byte differs
    first = check_repeat(0, tmp_path / "r0", None)
    repeats = [first] + [check_repeat(0, tmp_path / r, first["digest"]) for r in ("r1", "r2")]
    assert [r["ok"] for r in repeats] == [True, True, False]
    assert tally(repeats, composed_ok=None) == (3, 1)
    assert tally(repeats, composed_ok=True) == (4, 1)
    assert tally(repeats, composed_ok=False) == (4, 2)


def test_file_error_or_exit_code_counts_as_failure(tmp_path):
    _write_output(tmp_path / "r0", '{"graphs": []}\n', error="boom")
    assert not check_repeat(0, tmp_path / "r0", None)["ok"]
    _write_output(tmp_path / "r1", '{"graphs": []}\n')
    assert not check_repeat(2, tmp_path / "r1", None)["ok"]
    assert not check_repeat(0, tmp_path / "missing", None)["ok"]


def _result(digest: str, run_s: float) -> dict:
    return {
        "facts": {"workload": {"input_sha256": digest}},
        "metrics": {"run_s": {"value": run_s, "unit": "s"}},
    }


def test_compare_refuses_different_inputs():
    base = {("many-segments", "seed1-trace0"): _result("aa", 10.0)}
    new = {("many-segments", "seed1-trace0"): _result("bb", 10.0)}
    lines, regressed, refusals = compare.compare(base, new, {})
    assert refusals and not lines and not regressed


def test_compare_flags_regression_beyond_bound():
    bounds = {"run_s": {"name": "run_s", "better": "lower", "bound": 0.1}}
    base = {("w", "seed1-trace0"): _result("aa", 10.0)}
    lines, regressed, refusals = compare.compare(base, {("w", "seed1-trace0"): _result("aa", 10.5)}, bounds)
    assert not refusals and not regressed
    lines, regressed, refusals = compare.compare(base, {("w", "seed1-trace0"): _result("aa", 12.0)}, bounds)
    assert regressed and any("WORSE" in line for line in lines)


def test_repeats_are_scored_and_match_the_composed_pass(tmp_path):
    corpus = tmp_path / "corpus"
    synth.write_corpus(workloads.many_segments(3)[:2], corpus)
    cmd = [sys.executable, str(ROOT / "perfbench" / "repeat.py"), "--src", str(ROOT / "src"),
           "--input", str(corpus), "--output-root", str(tmp_path / "runs"), "--seconds", "0",
           "--min-repeats", "2"]
    child = json.loads(subprocess.run(cmd, check=True, capture_output=True, text=True).stdout.splitlines()[-1])
    assert len(child["times"]) == 2
    assert all(r["ok"] for r in child["repeats"])
    scores = child["scores"]
    assert scores["scored_segments"] == child["repeats"][0]["totals"]["segments"] > 0
    assert 0.0 < scores["floor_accuracy"] <= 1.0 and 0.0 < scores["turning_f"] <= 1.0
    assert scores["recorded_s"] > 0 and scores["imu_samples"] > 0

    composed_run(corpus, tmp_path / "composed", PipelineConfig(), spans.NullTracer())
    assert digests.output_digest(tmp_path / "composed") == child["repeats"][0]["digest"]
