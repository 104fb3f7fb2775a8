import os

import pytest

from trackforge import synth
from trackforge.config import PipelineConfig
from trackforge.floors import cluster_floors, segment_trajectory
from trackforge.pipeline import process_log
from trackforge.stride import default_gait_model


class Forks(list):
    """The pids that ``os.fork`` returned in this process during a test, in order."""

    def alive(self) -> int:
        """How many of them ``os.kill(pid, 0)`` reaches: running, or ended but not reaped."""
        count = 0
        for pid in self:
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                continue
            count += 1
        return count


@pytest.fixture
def forks(monkeypatch):
    """Records the worker processes forked during the test."""
    pids = Forks()
    fork = os.fork

    def recording_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return pids


@pytest.fixture(scope="session")
def default_corpus():
    """Generated default corpus: list of (script, log, truth)."""
    out = []
    for script in synth.default_corpus_scripts():
        log, truth = synth.generate(script)
        out.append((script, log, truth))
    return out


@pytest.fixture(scope="session")
def corpus_dir(tmp_path_factory):
    """Default corpus rendered to disk by ``synth.write_corpus``: .tsl logs with truth sidecars."""
    out = tmp_path_factory.mktemp("default-corpus")
    synth.write_corpus(synth.default_corpus_scripts(), out)
    return out


@pytest.fixture(scope="session")
def processed_corpus(default_corpus):
    """(trajectory, segments, truth) per corpus log, default config, with the
    floors numbered over all segments at the configured cut, as
    ``process_corpus`` numbers them."""
    cfg = PipelineConfig()
    model = default_gait_model()
    triples = []
    for _, log, truth in default_corpus:
        item = process_log(log, cfg, model)
        segments = segment_trajectory(
            item.trajectory, cfg.floor.eps_hpa, cfg.floor.min_pts, cfg.floor.max_clusters
        )
        triples.append((item.trajectory, segments, truth))
    cluster_floors([seg for _, segments, _ in triples for seg in segments], cut=cfg.floor.cut)
    return triples
