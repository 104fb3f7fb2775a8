import pytest

from trackforge import synth
from trackforge.config import PipelineConfig
from trackforge.floors import cluster_floors, segment_trajectory
from trackforge.pipeline import process_log
from trackforge.stride import default_gait_model


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
