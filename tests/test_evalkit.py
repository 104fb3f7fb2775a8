import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trackforge.config import PipelineConfig
from trackforge.evalkit import (
    SweepRow,
    interior_turning_points,
    prf,
    score_corpus,
    score_floors,
    score_turnings,
    segment_truth_floor,
    sweep,
    sweep_plot_data,
    sweep_table,
)
from trackforge.featurize import TurningConfig
from trackforge.floors import segment_trajectory
from trackforge.pipeline import process_log
from trackforge.stride import Gait, default_gait_model
from trackforge.synth import WalkScript, WalkSegmentSpec, generate


class TestScoreTurnings:
    def test_exact_match(self):
        pts = [(0.0, 0.0), (5.0, 5.0)]
        score = score_turnings(pts, pts)
        assert (score.precision, score.recall, score.f_measure) == (1.0, 1.0, 1.0)

    def test_empty_detected_vacuous_precision(self):
        score = score_turnings([], [(0.0, 0.0)])
        assert score.precision == 1.0
        assert score.recall == 0.0
        assert score.f_measure == 0.0

    def test_empty_truth_vacuous_recall(self):
        score = score_turnings([(0.0, 0.0)], [])
        assert score.recall == 1.0
        assert score.precision == 0.0

    def test_matching_is_one_to_one(self):
        detected = [(0.0, 0.0), (0.1, 0.0), (0.2, 0.0)]
        truth = [(0.0, 0.05)]
        score = score_turnings(detected, truth)
        assert score.true_positives == 1
        assert score.precision == pytest.approx(1 / 3)

    def test_match_radius_enforced(self):
        score = score_turnings([(0.0, 0.0)], [(5.0, 0.0)], match_radius=2.0)
        assert score.true_positives == 0

    def test_greedy_prefers_nearest(self):
        detected = [(0.0, 0.0), (1.0, 0.0)]
        truth = [(0.9, 0.0)]
        score = score_turnings(detected, truth, match_radius=2.0)
        assert score.true_positives == 1

    def test_invalid_radius(self):
        with pytest.raises(ValueError):
            score_turnings([], [], match_radius=0.0)

    @given(
        st.lists(st.tuples(st.floats(-50, 50), st.floats(-50, 50)), max_size=12),
        st.lists(st.tuples(st.floats(-50, 50), st.floats(-50, 50)), max_size=12),
    )
    @settings(max_examples=80, deadline=None)
    def test_bounds_and_f_inequality(self, detected, truth):
        s = score_turnings(detected, truth)
        assert 0.0 <= s.precision <= 1.0
        assert 0.0 <= s.recall <= 1.0
        assert 0.0 <= s.f_measure <= 1.0
        assert s.true_positives <= min(len(detected), len(truth)) or not detected or not truth
        assert s.f_measure <= (s.precision + s.recall) / 2 + 1e-12


class TestPrf:
    def test_counts_to_ratios(self):
        assert prf(2, 4, 2) == (0.5, 1.0, pytest.approx(2 / 3))

    def test_vacuous_and_zero(self):
        assert prf(0, 0, 0) == (1.0, 1.0, 1.0)
        assert prf(0, 3, 2) == (0.0, 0.0, 0.0)


class TestScoreFloors:
    def test_perfect(self):
        assert score_floors([1, 2, 3], [1, 2, 3]) == 1.0

    def test_one_of_four_wrong(self):
        assert score_floors([1, 2, 3, 3], [1, 2, 3, 2]) == 0.75

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            score_floors([1], [1, 2])


VACUOUS = {
    "floor_accuracy": 1.0,
    "floor_count": 0,
    "segments_scored": 0,
    "turning": {"epsilon": 1.0, "window": 4, "precision": 1.0, "recall": 1.0, "f": 1.0},
}


class TestScoreCorpus:
    def test_equals_document_built_by_hand(self, processed_corpus):
        cfg = TurningConfig(epsilon_rad=1.2, window_min=3)
        predicted, true_floors = [], []
        tp = det = tru = 0
        for traj, segments, truth in processed_corpus:
            for seg in segments:
                true_floor = segment_truth_floor(seg, truth)
                if true_floor is not None:
                    predicted.append(seg.floor)
                    true_floors.append(true_floor)
            s = score_turnings(interior_turning_points(traj, segments, cfg), truth.corner_points, 3.0)
            tp, det, tru = tp + s.true_positives, det + s.detected, tru + s.truth
        precision, recall, f = prf(tp, det, tru)
        expected = {
            "floor_accuracy": score_floors(predicted, true_floors),
            "floor_count": 3,
            "segments_scored": len(predicted),
            "turning": {"epsilon": 1.2, "window": 3, "precision": precision, "recall": recall, "f": f},
        }
        assert score_corpus(processed_corpus, cfg, match_radius=3.0) == expected
        assert (expected["floor_accuracy"], expected["segments_scored"]) == (1.0, 9)

    def test_empty_corpus_is_vacuous(self):
        assert score_corpus([], TurningConfig()) == VACUOUS

    def test_logs_without_segments_are_vacuous(self):
        # a straight walk has no corners; its first steps are too few for a
        # floor segment
        log, truth = generate(WalkScript(
            source_id="walk", seed=31,
            segments=[WalkSegmentSpec(floor=1, gait=Gait.NORMAL, heading_rad=0.0, steps=4)],
        ))
        cfg = PipelineConfig()
        traj = process_log(log, cfg, default_gait_model()).trajectory
        segments = segment_trajectory(traj, cfg.floor.eps_hpa, cfg.floor.min_pts, cfg.floor.max_clusters)
        assert segments == [] and truth.corner_points == []
        assert score_corpus([(traj, segments, truth)] * 2, cfg.turn) == VACUOUS


class TestSweep:
    def test_single_cell_equals_score_turnings(self, processed_corpus):
        rows = sweep(processed_corpus, [1.0], [4])
        assert len(rows) == 1
        row = rows[0]
        # recompute the pooled score by hand
        tp = det = tru = 0
        cfg = TurningConfig(epsilon_rad=1.0, window_min=4)
        for traj, segments, truth in processed_corpus:
            detected = interior_turning_points(traj, segments, cfg)
            s = score_turnings(detected, truth.corner_points)
            tp += s.true_positives
            det += s.detected
            tru += s.truth
        assert (row.precision, row.recall, row.f_measure) == prf(tp, det, tru)
        turning = score_corpus(processed_corpus, cfg)["turning"]
        assert (row.epsilon, row.window, row.precision, row.recall, row.f_measure) == (
            turning["epsilon"], turning["window"], turning["precision"], turning["recall"], turning["f"]
        )

    def test_rows_ordered_and_deterministic(self, processed_corpus):
        # unsorted grids with a duplicate: one row per distinct cell, sorted
        grid_e = [1.2, 0.6, 1.2]
        grid_w = [4, 1, 4]
        rows_a = sweep(processed_corpus, grid_e, grid_w)
        rows_b = sweep(processed_corpus, grid_e, grid_w)
        assert rows_a == rows_b
        keys = [(r.epsilon, r.window) for r in rows_a]
        assert keys == [(0.6, 1), (0.6, 4), (1.2, 1), (1.2, 4)]

    def test_cells_take_the_base_config(self, processed_corpus):
        # each cell is cfg with the grid's epsilon and window put in
        base = TurningConfig(epsilon_rad=0.3, window_min=9, min_subtraj_len_m=100000.0)
        (row,) = sweep(processed_corpus, [1.0], [4], cfg=base)
        turning = score_corpus(processed_corpus, TurningConfig(1.0, 4, 100000.0))["turning"]
        assert (row.epsilon, row.window, row.recall) == (1.0, 4, turning["recall"]) == (1.0, 4, 0.0)

    def test_empty_grid_rejected(self, processed_corpus):
        with pytest.raises(ValueError):
            sweep(processed_corpus, [], [4])

    def test_table_and_plot_output(self):
        rows = [SweepRow(1.0, 4, 1.0, 0.5, 2 / 3)]
        table = sweep_table(rows)
        lines = table.strip().split("\n")
        assert lines[0] == "epsilon,window,precision,recall,f"
        assert lines[1].startswith("1.0,4,1.0,0.5,")
        plot = sweep_plot_data(rows)
        assert plot["rows"][0]["epsilon"] == 1.0
