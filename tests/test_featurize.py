import math

import numpy as np
import pytest

from trackforge.featurize import (
    TurningConfig,
    build_chain_graph,
    detect_turning_points,
    featurize_segment_report,
    split_frequent_turnings,
)
from trackforge.floors import segment_trajectory
from trackforge.logio import WifiObservation
from trackforge.pdr import WifiBatch
from trackforge.config import PipelineConfig
from trackforge.pipeline import process_log
from trackforge.stride import Gait, default_gait_model
from trackforge.synth import WalkScript, WalkSegmentSpec, generate
from streams import trajectory


def wrap_abs(a):
    return abs(math.atan2(math.sin(a), math.cos(a)))


def oracle_turning_points(positions, eps, window_min):
    """Step-by-step re-evaluation of the turning rule, kept deliberately plain."""
    n = len(positions)
    vertices = [0]
    anchor = 0
    while True:
        # baseline: direction of the first non-degenerate displacement after anchor
        base = None
        fired = False
        window = 1
        j = anchor + 1
        while j < n:
            d = positions[j] - positions[j - 1]
            if math.hypot(d[0], d[1]) < 1e-12:
                window += 1
                j += 1
                continue
            direction = math.atan2(d[1], d[0])
            if base is None:
                base = direction
                window += 1
                j += 1
                continue
            if wrap_abs(direction - base) > eps and window >= window_min:
                vertices.append(j - 1)
                anchor = j - 1
                fired = True
                break
            window += 1
            j += 1
        if not fired:
            break
    if vertices[-1] != n - 1:
        vertices.append(n - 1)
    return vertices


def l_shape(n_east=10, n_north=10, stride=1.0):
    pts = [(0.0, 0.0)]
    for _ in range(n_east):
        pts.append((pts[-1][0] + stride, pts[-1][1]))
    for _ in range(n_north):
        pts.append((pts[-1][0], pts[-1][1] + stride))
    return np.array(pts)


def zigzag(n=30, stride=0.7, angle=1.4):
    pts = [(0.0, 0.0)]
    h = 0.0
    for k in range(n):
        h += angle if k % 2 == 0 else -angle
        pts.append((pts[-1][0] + stride * math.cos(h), pts[-1][1] + stride * math.sin(h)))
    return np.array(pts)


class TestDetectTurningPoints:
    def test_collinear_endpoints_only(self):
        pts = np.array([(float(i), 0.0) for i in range(15)])
        assert detect_turning_points(pts, TurningConfig()) == [0, 14]

    def test_l_shape_corner(self):
        cfg = TurningConfig(epsilon_rad=1.0, window_min=4)
        pts = l_shape()
        vertices = detect_turning_points(pts, cfg)
        assert vertices == oracle_turning_points(pts, 1.0, 4)
        interior = vertices[1:-1]
        assert len(interior) == 1
        assert abs(interior[0] - 10) <= 1

    def test_heading_jitter_below_epsilon_silent(self):
        rng = np.random.default_rng(12)
        heads = rng.uniform(-0.3, 0.3, 50)
        steps = np.stack([np.cos(heads), np.sin(heads)], axis=1)
        pts = np.vstack([[0.0, 0.0], np.cumsum(steps, axis=0)])
        cfg = TurningConfig(epsilon_rad=1.0, window_min=4)
        assert detect_turning_points(pts, cfg) == [0, 50]

    def test_matches_oracle_on_random_walks(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            n = int(rng.integers(5, 60))
            heads = np.cumsum(rng.uniform(-0.8, 0.8, n))
            steps = np.stack([np.cos(heads), np.sin(heads)], axis=1)
            pts = np.vstack([[0.0, 0.0], np.cumsum(steps, axis=0)])
            eps = float(rng.uniform(0.4, 1.5))
            wmin = int(rng.integers(1, 6))
            assert detect_turning_points(pts, TurningConfig(eps, wmin, 1.0)) == \
                oracle_turning_points(pts, eps, wmin)

    def test_matches_oracle_with_repeated_points_and_tiny_steps(self):
        # a zero-length or sub-1e-12 displacement gives no direction: it only
        # extends the window, also before the window's baseline is set
        rng = np.random.default_rng(14)
        for _ in range(40):
            n = int(rng.integers(5, 60))
            heads = np.cumsum(rng.uniform(-1.2, 1.2, n))
            lengths = rng.choice([0.0, 4e-13, 1.0], size=n, p=[0.2, 0.15, 0.65])
            steps = np.stack([lengths * np.cos(heads), lengths * np.sin(heads)], axis=1)
            pts = np.vstack([[0.0, 0.0], np.cumsum(steps, axis=0)])
            eps = float(rng.uniform(0.4, 1.5))
            for wmin in range(1, 7):
                assert detect_turning_points(pts, TurningConfig(eps, wmin, 1.0)) == \
                    oracle_turning_points(pts, eps, wmin)

    def test_interior_vertices_recheckable(self):
        # every interior vertex must trace back to an over-threshold deviation
        cfg = TurningConfig(epsilon_rad=1.0, window_min=4)
        pts = l_shape(12, 9)
        vertices = detect_turning_points(pts, cfg)
        for prev, v in zip(vertices, vertices[1:-1]):
            d0 = pts[prev + 1] - pts[prev]
            base = math.atan2(d0[1], d0[0])
            d1 = pts[v + 1] - pts[v]
            fired = math.atan2(d1[1], d1[0])
            assert wrap_abs(fired - base) > cfg.epsilon_rad

    def test_vertices_strictly_increasing(self):
        pts = zigzag(40)
        for wmin in (1, 2, 4):
            v = detect_turning_points(pts, TurningConfig(1.0, wmin, 1.0))
            assert v == sorted(set(v))

    def test_epsilon_monotonicity_on_corpus(self, processed_corpus):
        for traj, segments, _ in processed_corpus:
            for segment in segments:
                a, b = segment.point_range
                pts = traj.points[a:b]
                counts = []
                for eps in (0.4, 0.7, 1.0, 1.3, 1.6):
                    cfg = TurningConfig(epsilon_rad=eps, window_min=4)
                    counts.append(len(detect_turning_points(pts, cfg)) - 2)
                assert counts == sorted(counts, reverse=True)

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            detect_turning_points(np.array([[0.0, 0.0]]), TurningConfig())


class TestTurningConfig:
    @pytest.mark.parametrize("field", ["epsilon_rad", "min_subtraj_len_m"])
    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan])
    def test_non_positive_or_nan_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be positive"):
            TurningConfig(**{field: value})


class TestSplitFrequentTurnings:
    def test_no_successive_pair_single_graph(self):
        pts = np.array([(float(i), 0.0) for i in range(13)])
        assert split_frequent_turnings(pts, [0, 5, 12], TurningConfig(min_subtraj_len_m=1.0)) == [[0, 5, 12]]

    def test_successive_pair_splits(self):
        pts = np.array([(float(i), 0.0) for i in range(13)])
        groups = split_frequent_turnings(pts, [0, 5, 6, 12], TurningConfig(min_subtraj_len_m=1.0))
        assert groups == [[0, 5], [6, 12]]

    def test_short_pieces_dropped(self):
        pts = np.array([(0.1 * i, 0.0) for i in range(13)])
        assert split_frequent_turnings(pts, [0, 5, 6, 12], TurningConfig(min_subtraj_len_m=5.0)) == []

    def test_zigzag_all_dropped(self):
        cfg = TurningConfig(epsilon_rad=1.0, window_min=1, min_subtraj_len_m=5.0)
        pts = zigzag()
        vertices = detect_turning_points(pts, cfg)
        assert split_frequent_turnings(pts, vertices, cfg) == []


class TestBuildChainGraph:
    def test_single_edge_telescopes_to_endpoint(self):
        seg = trajectory(l_shape())
        graph = build_chain_graph(seg, [0, len(seg) - 1], floor=1)
        assert len(graph.vertices) == 2
        (edge,) = graph.edges
        assert edge.dx == seg.points[-1, 0] - seg.points[0, 0]
        assert edge.dy == seg.points[-1, 1] - seg.points[0, 1]

    def test_every_edge_is_bitwise_position_difference(self):
        rng = np.random.default_rng(21)
        heads = np.cumsum(rng.uniform(-0.5, 0.5, 60))
        pos = np.vstack([[0.0, 0.0], np.cumsum(np.stack([np.cos(heads), np.sin(heads)], 1), axis=0)])
        graph = build_chain_graph(trajectory(pos), [0, 7, 20, 41, 59], floor=2)
        for a, b, e in zip(graph.vertices, graph.vertices[1:], graph.edges):
            assert e.dx == b.x - a.x
            assert e.dy == b.y - a.y

    def test_rss_from_nearest_batch_within_window(self):
        obs = (WifiObservation(0.1, 0.1, "x", "aa:bb:cc:00:00:01", 2412, -48),)
        batches = [WifiBatch(time=0.1, observations=obs)]
        pos = l_shape()
        # as pdr.integrate annotates: the burst is 0.1 s from the first point
        # and ~10 s from the last, outside the 5 s window
        seg = trajectory(pos, wifi_ref=[0] + [-1] * (len(pos) - 1), wifi_batches=batches)
        graph = build_chain_graph(seg, [0, len(seg) - 1], floor=1)
        assert graph.vertices[0].rss == {"aa:bb:cc:00:00:01": -48}
        assert graph.vertices[1].rss is None  # last point is ~10 s away

    def test_fewer_than_two_vertices_no_graph(self):
        assert build_chain_graph(trajectory(l_shape()), [0], floor=1) is None


class TestFeaturizeSegment:
    def _traj_for(self, script):
        log, truth = generate(script)
        cfg = PipelineConfig()
        item = process_log(log, cfg, default_gait_model())
        segments = segment_trajectory(
            item.trajectory, cfg.floor.eps_hpa, cfg.floor.min_pts, cfg.floor.max_clusters
        )
        return item.trajectory, segments, truth

    def test_straight_segment_one_graph_two_vertices(self):
        script = WalkScript(
            source_id="straight", seed=20,
            segments=[WalkSegmentSpec(floor=1, gait=Gait.NORMAL, heading_rad=0.0, steps=20)],
        )
        traj, segments, _ = self._traj_for(script)
        graphs = featurize_segment_report(traj, segments[0], TurningConfig())[0]
        assert len(graphs) == 1
        assert len(graphs[0].vertices) == 2
        assert len(graphs[0].edges) == 1

    def test_three_corner_corridor_five_vertices(self):
        script = WalkScript(
            source_id="corners", seed=21,
            segments=[
                WalkSegmentSpec(floor=1, gait=Gait.NORMAL, heading_rad=0.0, steps=18),
                WalkSegmentSpec(floor=1, gait=Gait.NORMAL, heading_rad=1.5, steps=18),
                WalkSegmentSpec(floor=1, gait=Gait.NORMAL, heading_rad=0.1, steps=18),
                WalkSegmentSpec(floor=1, gait=Gait.NORMAL, heading_rad=1.6, steps=18),
            ],
        )
        traj, segments, truth = self._traj_for(script)
        assert len(segments) == 1
        graphs = featurize_segment_report(traj, segments[0], TurningConfig())[0]
        assert len(graphs) == 1
        assert len(graphs[0].vertices) == 5  # two ends + three corners
        corner_positions = np.array(truth.corner_points)
        interior = graphs[0].vertices[1:-1]
        for v in interior:
            dist = np.min(np.hypot(corner_positions[:, 0] - v.x, corner_positions[:, 1] - v.y))
            assert dist < 2.0

    def test_graph_floor_copied_from_segment(self):
        script = WalkScript(
            source_id="floorcopy", seed=22,
            segments=[WalkSegmentSpec(floor=1, gait=Gait.NORMAL, heading_rad=0.0, steps=20)],
        )
        traj, segments, _ = self._traj_for(script)
        segments[0].floor = 7
        graphs = featurize_segment_report(traj, segments[0], TurningConfig())[0]
        assert graphs[0].floor == 7
