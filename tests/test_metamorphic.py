"""Metamorphic tests of the whole pipeline.

Each test transforms the rendered default corpus, runs ``run_pipeline`` on
the result, and checks one relation between that run and the run of the
corpus as rendered. Graphs are compared as the bytes ``run`` writes.
"""

import shutil

import pytest

from trackforge.config import PipelineConfig
from trackforge.pipeline import run_pipeline


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
