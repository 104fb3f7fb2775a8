"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one ``ACCEPTANCE <id>: PASS|FAIL`` line (visible with
``pytest -s`` or in captured output), so the gate can be read at a glance.
"""

import math
import random
from contextlib import contextmanager

import numpy as np

from trackforge.config import PipelineConfig
from trackforge.evalkit import score_floors, segment_truth_floor, sweep, sweep_table
from trackforge.featurize import build_chain_graph
from trackforge.floors import cluster_floors, dbscan_1d, jaccard
from trackforge.heading import motion_direction, tilt_compensated_yaw
from trackforge.logio import TslEncodingError, TslParseError, parse_log, serialize_log
from trackforge.pdr import pdr_update
from trackforge.pipeline import run_pipeline
from trackforge.stepdetect import StepConfig, detect_steps, magnitude_series, moving_average
from streams import stream, trajectory

from test_floors import dbscan_brute


@contextmanager
def acceptance(label):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {label}: FAIL")
        raise
    print(f"ACCEPTANCE {label}: PASS")


class TestAcceptance:
    def test_1_floor_classification_exact(self, processed_corpus):
        with acceptance("1 floor-classification-100%"):
            all_segments = [seg for _, segments, _ in processed_corpus for seg in segments]
            assignment = cluster_floors(all_segments, cut=0.7)
            predicted, truths = [], []
            for _, segments, truth in processed_corpus:
                for seg in segments:
                    true_floor = segment_truth_floor(seg, truth)
                    assert true_floor is not None
                    predicted.append(seg.floor)
                    truths.append(true_floor)
            assert assignment.floor_count == 3
            assert score_floors(predicted, truths) == 1.0  # exact

    def test_2_turning_sweep_argmax_and_precision(self, processed_corpus):
        with acceptance("2 sweep-argmax-eps-1.0-precision-100%"):
            eps_grid = [0.6, 0.8, 1.0, 1.2, 1.4]
            rows = sweep(processed_corpus, eps_grid, [4])
            by_eps = {r.epsilon: r for r in rows}
            best = max(rows, key=lambda r: r.f_measure)
            assert best.epsilon == 1.0
            for eps in eps_grid:
                if eps != 1.0:
                    assert by_eps[eps].f_measure < by_eps[1.0].f_measure
            assert by_eps[1.0].precision == 1.0  # exact
            t_rows = sweep(processed_corpus, [1.0], [1, 2, 3, 4, 5])
            precisions = [r.precision for r in t_rows]
            assert precisions == sorted(precisions)  # non-decreasing in t

    def test_3_edge_telescoping_bitwise(self):
        with acceptance("3 edge-telescoping-bitwise"):
            rng = np.random.default_rng(1234)
            scale = 2.0 ** -16
            for _ in range(1000):
                n = int(rng.integers(4, 40))
                # grid-valued steps keep every float sum exact, so the
                # telescoping checks below are bitwise, not approximate
                steps = rng.integers(-500000, 500000, size=(n, 2)) * scale
                pos = np.vstack([[0.0, 0.0], np.cumsum(steps, axis=0)])
                k_vertices = int(rng.integers(2, min(6, n + 1)))
                interior = sorted(rng.choice(np.arange(1, n), size=k_vertices - 2, replace=False)) \
                    if k_vertices > 2 else []
                vertices = [0] + [int(v) for v in interior] + [n]
                graph = build_chain_graph(trajectory(pos), vertices, floor=1)
                for a, b, e in zip(graph.vertices, graph.vertices[1:], graph.edges):
                    assert e.dx == b.x - a.x and e.dy == b.y - a.y  # bitwise
                sum_dx = math.fsum(e.dx for e in graph.edges)
                sum_dy = math.fsum(e.dy for e in graph.edges)
                assert sum_dx == graph.vertices[-1].x - graph.vertices[0].x
                assert sum_dy == graph.vertices[-1].y - graph.vertices[0].y

    def test_4_oracle_equivalence(self):
        with acceptance("4 dbscan-and-jaccard-oracles"):
            rng = np.random.default_rng(77)
            for _ in range(200):
                n = int(rng.integers(1, 61))
                values = list(rng.uniform(0, 4, n))
                eps = float(rng.uniform(0.02, 0.8))
                min_pts = int(rng.integers(1, 9))
                assert dbscan_1d(values, eps, min_pts) == dbscan_brute(values, eps, min_pts)
            universe = [f"02:00:00:00:00:{k:02x}" for k in range(48)]
            for _ in range(1000):
                a = frozenset(rng.choice(universe, size=int(rng.integers(0, 20)), replace=False))
                b = frozenset(rng.choice(universe, size=int(rng.integers(0, 20)), replace=False))
                inter = sum(1 for m in a if m in b)
                union = len(set(list(a) + list(b)))
                expected = 1.0 if union == 0 else inter / union
                assert jaccard(a, b) == expected

    def test_5_step_detection_counts(self):
        with acceptance("5 step-detection-20±1-and-noise"):
            t = np.arange(0, 10, 0.01)
            clean = 9.81 + 3.0 * np.sin(2 * math.pi * 2.0 * t)
            steps = detect_steps(t, moving_average(clean, 5), StepConfig())
            assert abs(len(steps) - 20) <= 1
            rng = np.random.default_rng(55)
            rows = [
                np.array([0.0, 0.0, 9.81 + 3.0 * math.sin(2 * math.pi * 2.0 * x)]) + rng.normal(0, 0.5, 3)
                for x in t
            ]
            times, mags = magnitude_series(stream(t, rows), 5)
            noisy_steps = detect_steps(times, mags, StepConfig())
            assert 18 <= len(noisy_steps) <= 22  # within ±10% of 20

    def test_6_pdr_closure_and_rigidity(self):
        with acceptance("6 pdr-closure-and-rigid-rotation"):
            pos = (0.0, 0.0)
            for theta in (0.0, math.pi / 2, math.pi, 3 * math.pi / 2):
                for _ in range(10):
                    pos = pdr_update(pos, 0.7, theta)
            assert math.hypot(*pos) < 1e-9
            rng = np.random.default_rng(66)
            strides = rng.uniform(0.4, 1.0, 60)
            headings = rng.uniform(-math.pi, math.pi, 60)
            delta = 1.234

            def fold(hs):
                p = (0.0, 0.0)
                out = [p]
                for s, h in zip(strides, hs):
                    p = pdr_update(p, float(s), float(h))
                    out.append(p)
                return np.array(out)

            p0 = fold(headings)
            p1 = fold(headings + delta)
            d0 = np.linalg.norm(p0[:, None] - p0[None, :], axis=-1)
            d1 = np.linalg.norm(p1[:, None] - p1[None, :], axis=-1)
            assert np.max(np.abs(d0 - d1)) < 1e-9

    def test_7_heading_tilt_and_pca(self):
        with acceptance("7 tilt-yaw-1e-6-and-pca-0.05"):
            field = np.array([25 * math.sin(0.8), 25 * math.cos(0.8), 40.0])
            flat_yaw = tilt_compensated_yaw(np.array([0.0, 0.0, 1.0]), field)
            for roll_deg in (5.0, 12.5, 20.0, 30.0):
                ang = math.radians(roll_deg)
                R = np.array([
                    [1, 0, 0],
                    [0, math.cos(ang), -math.sin(ang)],
                    [0, math.sin(ang), math.cos(ang)],
                ])
                tilted = tilt_compensated_yaw(R @ np.array([0.0, 0.0, 1.0]), R @ field)
                assert abs(tilted - flat_yaw) <= 1e-6
            rng = np.random.default_rng(88)
            a = np.sin(0.35 * np.arange(400))
            w = np.stack([a * math.cos(0.7), a * math.sin(0.7)], axis=1)
            w = w + rng.normal(0, 0.1 * w.std(), w.shape)
            est = motion_direction(w, 0.7)
            assert abs(est.motion_heading - 0.7) <= 0.05

    def test_8_parser_roundtrip_and_fuzz(self, default_corpus):
        with acceptance("8 parser-roundtrip-and-fuzz"):
            for _, log, _ in default_corpus:
                text = serialize_log(log)
                assert parse_log(text.encode(), source_id=log.source_id) == log
            base = (
                "ACCE;1.0;1.0;0.1;0.2;9.8;3\nGYRO;1.0;1.0;0;0;0.1;3\n"
                "MAGN;1.0;1.0;20;5;40;3\nPRES;1.0;1.0;1013.2;0\n"
                "WIFI;1.0;1.0;lab;aa:bb:cc:dd:ee:ff;2412;-60\n"
                "% trailing comment\n"
            )
            rng = random.Random(2024)
            for _ in range(10_000):
                data = bytearray(base.encode())
                for _ in range(rng.randint(1, 8)):
                    pos = rng.randrange(len(data))
                    data[pos] = rng.randrange(0, 256)
                try:
                    parse_log(bytes(data))
                except (TslParseError, TslEncodingError):
                    pass  # structured outcomes only; anything else fails the test

    def test_9_pipeline_determinism(self, corpus_dir, tmp_path, processed_corpus):
        with acceptance("9 byte-identical-reruns"):
            cfg_a = PipelineConfig()
            cfg_b = PipelineConfig()
            out_a = tmp_path / "run-a"
            out_b = tmp_path / "run-b"
            run_pipeline(corpus_dir, out_a, cfg_a)
            run_pipeline(corpus_dir, out_b, cfg_b)
            names = sorted(p.name for p in out_a.glob("*.json"))
            assert names
            for name in names:
                assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
            grid = [0.6, 0.8, 1.0, 1.2, 1.4]
            table_a = sweep_table(sweep(processed_corpus, grid, [4]))
            table_b = sweep_table(sweep(processed_corpus, grid, [4]))
            assert table_a == table_b
