import math
from collections import deque
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trackforge.config import PipelineConfig
from trackforge.floors import (
    FloorClusteringError,
    TrajectorySegment,
    _make_segment,
    absorb_isolated_noise,
    canonicalize_labels,
    cluster_floors,
    dbscan_1d,
    jaccard,
    segment_trajectory,
)
from trackforge.logio import WifiObservation
from trackforge.pdr import WifiBatch
from trackforge.pipeline import process_log
from trackforge.stride import Gait, default_gait_model
from trackforge.synth import WalkScript, WalkSegmentSpec, default_corpus_scripts, generate
from streams import trajectory


def dbscan_brute(values, eps, min_pts):
    """Textbook O(n^2) DBSCAN: full neighbor scan, FIFO expansion in seed order.
    Values a <= b are neighbors when the lower plus eps reaches the higher."""
    n = len(values)
    nb = [
        [j for j in range(n) if max(values[i], values[j]) <= min(values[i], values[j]) + eps]
        for i in range(n)
    ]
    core = [len(nb[i]) >= min_pts for i in range(n)]
    labels = [None] * n
    cid = 0
    for seed in range(n):
        if labels[seed] is not None or not core[seed]:
            continue
        labels[seed] = cid
        queue = deque([seed])
        while queue:
            q = queue.popleft()
            for j in nb[q]:
                if labels[j] is None:
                    labels[j] = cid
                    if core[j]:
                        queue.append(j)
        cid += 1
    return canonicalize_labels([-1 if l is None else l for l in labels])


class TestDbscan1d:
    def test_all_equal_one_cluster(self):
        assert dbscan_1d([5.0] * 12, eps=0.1, min_pts=3) == [0] * 12

    def test_two_separated_groups(self):
        values = [1013.0] * 10 + [1012.6] * 10
        labels = dbscan_1d(values, eps=0.1, min_pts=3)
        assert labels == [0] * 10 + [1] * 10

    def test_sparse_points_are_noise(self):
        values = [0.0, 10.0, 20.0, 30.0]
        assert dbscan_1d(values, eps=0.5, min_pts=2) == [-1, -1, -1, -1]

    def test_matches_brute_force_on_random_inputs(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            n = int(rng.integers(1, 60))
            values = list(rng.uniform(0, 3, n))
            eps = float(rng.uniform(0.05, 0.6))
            min_pts = int(rng.integers(1, 8))
            assert dbscan_1d(values, eps, min_pts) == dbscan_brute(values, eps, min_pts)

    @given(
        st.lists(st.floats(min_value=0, max_value=5, allow_nan=False), min_size=1, max_size=40),
        st.floats(min_value=0.01, max_value=1.0),
        st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=80, deadline=None)
    def test_oracle_equivalence_property(self, values, eps, min_pts):
        assert dbscan_1d(values, eps, min_pts) == dbscan_brute(values, eps, min_pts)

    # on a 0.1 grid, values one eps apart sit on the float boundary of the
    # rule; near 0, v + eps and v - eps often round to different neighbors
    @given(
        st.lists(st.integers(0, 15).map(lambda k: k / 10), min_size=10, max_size=40),
        st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=150, deadline=None)
    def test_oracle_equivalence_on_a_tenth_grid(self, values, min_pts):
        assert dbscan_1d(values, 0.1, min_pts) == dbscan_brute(values, 0.1, min_pts)

    @pytest.mark.parametrize("values, min_pts", [([0.4, 0.3, 0.4], 2), ([0.3, 0.5, 0.4], 3)])
    def test_neighbor_rule_symmetric_on_float_boundary(self, values, min_pts):
        # 0.3 + 0.1 reaches 0.4 but 0.4 - 0.1 does not reach 0.3
        assert dbscan_1d(values, 0.1, min_pts) == dbscan_brute(values, 0.1, min_pts) == [0, 0, 0]

    def test_labels_canonical_by_first_occurrence(self):
        values = [5.0, 5.0, 5.0, 1.0, 1.0, 1.0]
        labels = dbscan_1d(values, eps=0.1, min_pts=2)
        assert labels == [0, 0, 0, 1, 1, 1]

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            dbscan_1d([1.0], eps=0.0, min_pts=1)
        with pytest.raises(ValueError):
            dbscan_1d([1.0], eps=0.1, min_pts=0)

    # 1.0 and 3.0 are the only cores; the border value 2.0 neighbors both, and
    # joins the cluster whose first core in input order comes first
    @pytest.mark.parametrize("values, expected", [
        ([2.0, 3.5, 3.0, 0.0, 1.0, 0.5, 3.5], [0, 0, 0, 1, 1, 1, 0]),  # high cluster seeded first
        ([2.0, 3.5, 1.0, 0.0, 3.0, 0.5, 3.5], [0, 1, 0, 0, 1, 0, 1]),  # low cluster seeded first
    ], ids=["high-first", "low-first"])
    def test_border_joins_the_cluster_seeded_first(self, values, expected):
        assert dbscan_1d(values, eps=1.0, min_pts=4) == dbscan_brute(values, 1.0, 4) == expected

    def test_three_long_plateaus(self):
        # 5 000 readings per floor, each pressure within eps of most others:
        # the labels of a long floor visit
        rng = np.random.default_rng(27)
        values = np.concatenate([p + rng.normal(0.0, 0.02, 5000) for p in (1013.25, 1012.85, 1012.45)])
        assert dbscan_1d(values, eps=0.1, min_pts=10) == [0] * 5000 + [1] * 5000 + [2] * 5000


class TestAbsorbNoise:
    def test_interior_glitch_absorbed(self):
        assert absorb_isolated_noise([0, 0, -1, 0, 0]) == [0, 0, 0, 0, 0]

    def test_transition_kept_as_gap(self):
        assert absorb_isolated_noise([0, 0, -1, -1, 1, 1]) == [0, 0, -1, -1, 1, 1]

    def test_boundary_runs_absorbed(self):
        assert absorb_isolated_noise([-1, 0, 0, -1]) == [0, 0, 0, 0]

    def test_all_noise_unchanged(self):
        assert absorb_isolated_noise([-1, -1]) == [-1, -1]


def _run_segmentation(script):
    log, truth = generate(script)
    cfg = PipelineConfig()
    item = process_log(log, cfg, default_gait_model())
    segments = segment_trajectory(
        item.trajectory, cfg.floor.eps_hpa, cfg.floor.min_pts, cfg.floor.max_clusters
    )
    return item.trajectory, segments, truth


def per_point_segment_features(traj, start, stop):
    """Mean pressure and MAC set by the per-point formulas _make_segment replaced."""
    pressures = [p for p in traj.baro_hpa[start:stop].tolist() if not math.isnan(p)]
    macs = set()
    for ref in traj.wifi_ref[start:stop].tolist():
        if ref != -1:
            macs.update(o.bssid for o in traj.wifi_batches[ref].observations)
    return float(np.mean(pressures)) if pressures else float("nan"), frozenset(macs)


class TestMakeSegment:
    def test_matches_per_point_formulas(self):
        rng = np.random.default_rng(31)
        for _ in range(300):
            batches = [
                WifiBatch(float(k), tuple(
                    WifiObservation(float(k), float(k), "x", f"aa:bb:cc:00:00:{m:02x}", 2412, -50)
                    for m in rng.choice(20, size=int(rng.integers(1, 5)), replace=False)
                ))
                for k in range(5)
            ]
            n = int(rng.integers(1, 60))
            baro = rng.normal(1000.0, 0.5, n)
            baro[rng.random(n) < rng.choice([0.0, 0.3, 1.0])] = np.nan
            traj = trajectory(rng.normal(size=(n, 2)), baro_hpa=baro, wifi_ref=rng.integers(-1, 5, n),
                              wifi_batches=batches, source_id="mk")
            start = int(rng.integers(0, n))
            stop = int(rng.integers(start + 1, n + 1))
            segment = _make_segment(traj, start, stop)
            mean, macs = per_point_segment_features(traj, start, stop)
            assert (segment.parent_id, segment.point_range) == ("mk", (start, stop))
            assert repr(segment.mean_pressure) == repr(mean)
            assert segment.mac_set == macs


class TestSegmentTrajectory:
    def test_single_floor_single_segment(self):
        script = WalkScript(
            source_id="flat", seed=2,
            segments=[WalkSegmentSpec(floor=1, gait=Gait.NORMAL, heading_rad=0.0, steps=30)],
        )
        traj, segments, _ = _run_segmentation(script)
        assert len(segments) == 1
        assert segments[0].point_range == (0, len(traj.points))

    def test_two_floor_walk_two_segments_one_gap(self):
        # short stairs leave mid-ramp pressures without density support, so a
        # genuine gap of unassigned transition points separates the floors
        script = WalkScript(
            source_id="updown", seed=4, stair_seconds=3.4,
            segments=[
                WalkSegmentSpec(floor=1, gait=Gait.NORMAL, heading_rad=0.0, steps=25),
                WalkSegmentSpec(floor=2, gait=Gait.NORMAL, heading_rad=0.0, steps=25),
            ],
        )
        traj, segments, _ = _run_segmentation(script)
        assert len(segments) == 2
        gap = segments[1].point_range[0] - segments[0].point_range[1]
        assert gap >= 1
        assert segments[0].mean_pressure > segments[1].mean_pressure

    def test_corpus_segment_count_matches_floor_visits(self, processed_corpus):
        for _, segments, truth in processed_corpus:
            visits = len(truth.floor_pressures)
            assert len(segments) == 3 == visits

    def test_no_barometer_single_flagged_segment(self):
        script = WalkScript(
            source_id="nobaro", seed=5,
            segments=[WalkSegmentSpec(floor=1, gait=Gait.NORMAL, heading_rad=0.0, steps=15)],
        )
        log, _ = generate(script)
        log = type(log)(accel=log.accel, gyro=log.gyro, magn=log.magn, wifi=log.wifi, source_id=log.source_id)
        cfg = PipelineConfig()
        item = process_log(log, cfg, default_gait_model())
        segments = segment_trajectory(item.trajectory, 0.1, 10)
        assert len(segments) == 1
        assert segments[0].point_range == (0, len(item.trajectory.points))

    def test_degenerate_eps_guard(self):
        script = WalkScript(
            source_id="guard", seed=6,
            segments=[WalkSegmentSpec(floor=1, gait=Gait.NORMAL, heading_rad=0.0, steps=40)],
            noise={"accel": 0.0, "gyro": 0.0, "magn": 0.0, "baro": 0.5},
        )
        log, _ = generate(script)
        cfg = PipelineConfig()
        item = process_log(log, cfg, default_gait_model())
        with pytest.raises(FloorClusteringError):
            segment_trajectory(item.trajectory, eps=1e-6, min_pts=1, max_clusters=20)

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="ramp points chain the floors of a repeated walk (ROADMAP item 9)")
    def test_repeated_walk_keeps_three_pressure_clusters(self):
        # phone-a's segments twice over (the CI long-log step repeats them
        # four times): the same 3 floors, each visited twice, where phone-a
        # alone gives 3 clusters
        script = default_corpus_scripts()[0]
        traj, _, _ = _run_segmentation(replace(script, source_id="phone-a-x2", segments=script.segments * 2))
        floor = PipelineConfig().floor
        assert max(dbscan_1d(traj.baro_hpa, floor.eps_hpa, floor.min_pts)) + 1 == 3


class TestJaccard:
    def test_identical_sets(self):
        assert jaccard({"a", "b"}, {"a", "b"}) == 1.0

    def test_disjoint_sets(self):
        assert jaccard({"a"}, {"b"}) == 0.0

    def test_half_overlap(self):
        assert jaccard({"a", "b", "c"}, {"b", "c", "d"}) == 0.5

    def test_empty_conventions(self):
        assert jaccard(set(), set()) == 1.0
        assert jaccard({"a"}, set()) == 0.0

    @given(
        st.sets(st.integers(min_value=0, max_value=30)),
        st.sets(st.integers(min_value=0, max_value=30)),
    )
    @settings(max_examples=100, deadline=None)
    def test_properties(self, a, b):
        j = jaccard(a, b)
        assert 0.0 <= j <= 1.0
        assert j == jaccard(b, a)
        if a:
            assert jaccard(a, a) == 1.0


def seg(parent, start, pressure, macs):
    return TrajectorySegment(
        parent_id=parent, point_range=(start, start + 10),
        mean_pressure=pressure, mac_set=frozenset(macs),
    )


class TestClusterFloors:
    def test_single_segment_is_floor_one(self):
        only = seg("a", 0, 1013.0, {"m1"})
        assignment = cluster_floors([only])
        assert only.floor == 1
        assert assignment.floor_count == 1

    def test_ninety_percent_overlap_merges(self):
        # |A|=|B|=10, 9 shared: Jac = 9/11 = 0.818, distance 0.182 < 0.7
        shared = {f"m{k}" for k in range(9)}
        a = seg("a", 0, 1013.0, shared | {"xa"})
        b = seg("b", 0, 1013.01, shared | {"xb"})
        assignment = cluster_floors([a, b])
        assert assignment.floor_count == 1
        assert (a.floor, b.floor) == (1, 1)

    def test_disjoint_sets_stay_separate_with_pressure_order(self):
        a = seg("a", 0, 1012.5, {"m1", "m2"})
        b = seg("b", 0, 1013.2, {"m3", "m4"})
        assignment = cluster_floors([a, b])
        assert (a.floor, b.floor) == (2, 1)  # higher pressure -> floor 1
        assert assignment.cluster_pressures == [1013.2, 1012.5]

    def test_floor_count_override(self):
        shared = {f"m{k}" for k in range(9)}
        a = seg("a", 0, 1013.0, shared | {"xa"})
        b = seg("b", 0, 1012.6, shared | {"xb"})
        forced = cluster_floors([a, b], floor_count=2)
        assert forced.floor_count == 2

    def test_equal_pressures_rejected(self):
        a = seg("a", 0, 1013.0, {"m1"})
        b = seg("b", 0, 1013.0, {"m2"})
        with pytest.raises(FloorClusteringError):
            cluster_floors([a, b])
        assert a.floor is None and b.floor is None

    def test_deterministic_under_ties(self):
        def floors():
            segs = [
                seg("a", 0, 1013.0, {"m1", "m2"}),
                seg("b", 0, 1012.9, {"m1", "m2"}),
                seg("c", 0, 1012.8, {"m1", "m2"}),
            ]
            cluster_floors(segs)
            return [s.floor for s in segs]

        assert floors() == floors()

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            cluster_floors([])

    def test_more_floors_than_segments_rejected(self):
        """The text is the one `run --floors` reports, and no floor is written."""
        segments = [seg("a", 0, 1013.0, {"m1"}), seg("b", 0, 1012.6, {"m2"})]
        with pytest.raises(FloorClusteringError) as info:
            cluster_floors(segments, floor_count=len(segments) + 1)
        assert str(info.value) == "3 floors asked for, more than the floor segments (2)"
        assert [s.floor for s in segments] == [None, None]

    def test_floor_count_below_one_rejected(self):
        with pytest.raises(ValueError):
            cluster_floors([seg("a", 0, 1013.0, {"m1"})], floor_count=0)


def _ref_cluster_floors(segments, cut=0.7, floor_count=None, heights=None):
    """The original cluster_floors: every linkage and tie key recomputed in
    full on each merge. Returns (per-segment floors, cluster pressures);
    appends the linkage of each merge to ``heights`` if given."""
    n = len(segments)
    if floor_count is not None and floor_count > n:
        raise FloorClusteringError(f"{floor_count} floors asked for, more than the floor segments ({n})")
    base = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            d = 1.0 - jaccard(segments[i].mac_set, segments[j].mac_set)
            base[i, j] = base[j, i] = d

    clusters = [[i] for i in range(n)]

    def linkage(a, b):
        return float(sum(base[i, j] for i in a for j in b) / (len(a) * len(b)))

    def cluster_key(members):
        return min(segments[i].key() for i in members)

    target = floor_count if floor_count is not None else 1
    while len(clusters) > target:
        best = None
        for a in range(len(clusters)):
            for b in range(a + 1, len(clusters)):
                d = linkage(clusters[a], clusters[b])
                tie = tuple(sorted((cluster_key(clusters[a]), cluster_key(clusters[b]))))
                cand = (d, tie, a, b)
                if best is None or cand[:2] < best[:2]:
                    best = cand
        d, _, a, b = best
        if floor_count is None and d >= cut:
            break
        if heights is not None:
            heights.append(d)
        clusters[a] = clusters[a] + clusters[b]
        del clusters[b]

    pressures = [float(np.mean([segments[i].mean_pressure for i in members])) for members in clusters]
    by_pressure = sorted(range(len(clusters)), key=lambda c: -pressures[c])
    floors = [0] * n
    ordered_pressures = []
    for rank, c in enumerate(by_pressure):
        for i in clusters[c]:
            floors[i] = rank + 1
        ordered_pressures.append(pressures[c])
    for prev, cur in zip(ordered_pressures, ordered_pressures[1:]):
        if not cur < prev:
            raise FloorClusteringError(
                f"floor cluster pressures are not strictly decreasing: {ordered_pressures}"
            )
    return floors, ordered_pressures


def _ref_absorb_isolated_noise(labels):
    """The original hand-written noise-run scan."""
    labels = list(labels)
    n = len(labels)
    out = labels[:]
    i = 0
    while i < n:
        if labels[i] != -1:
            i += 1
            continue
        j = i
        while j < n and labels[j] == -1:
            j += 1
        left = labels[i - 1] if i > 0 else None
        right = labels[j] if j < n else None
        target = None
        if left is not None and (right is None or right == left):
            target = left
        elif left is None and right is not None:
            target = right
        if target is not None:
            for k in range(i, j):
                out[k] = target
        i = j
    return out


def _ref_segment_ranges(labels, min_pts):
    """The original segment cut: maximal non-noise runs of >= min_pts points."""
    ranges = []
    i = 0
    n = len(labels)
    while i < n:
        if labels[i] == -1:
            i += 1
            continue
        j = i
        while j < n and labels[j] == labels[i]:
            j += 1
        if j - i >= min_pts:
            ranges.append((i, j))
        i = j
    return ranges


# A pool of 6 MACs, 2 parents and 2 range starts make exact linkage ties,
# duplicate MAC sets, empty sets and duplicate keys common. The pressures
# are not exact binary fractions, so a mean taken in another member order
# can differ in its last bits.
_oracle_segments = st.lists(
    st.tuples(
        st.sampled_from(["p", "q"]),
        st.sampled_from([0, 10]),
        st.sampled_from([1012.1, 1012.3, 1012.7, 1013.3, math.nan]),
        st.frozensets(st.sampled_from(["m1", "m2", "m3", "m4", "m5", "m6"]), max_size=4),
    ),
    min_size=1,
    max_size=10,
)


def _oracle_case(fields, cut, floor_count):
    """(outcome, per-segment floors) from cluster_floors and from the original
    loop; an outcome is (floor count, pressure bytes) or the error message."""
    segments = [seg(*f) for f in fields]
    try:
        pressures = cluster_floors(segments, cut=cut, floor_count=floor_count).cluster_pressures
        new = (len(pressures), np.array(pressures).tobytes())
    except FloorClusteringError as exc:
        new = ("error", str(exc))
    try:
        floors, pressures = _ref_cluster_floors([seg(*f) for f in fields], cut, floor_count)
        ref = ((len(pressures), np.array(pressures).tobytes()), floors)
    except FloorClusteringError as exc:
        ref = (("error", str(exc)), [None] * len(fields))
    return (new, [s.floor for s in segments]), ref


def _merge_heights(fields):
    """The original loop's linkage at each merge down to one cluster."""
    heights = []
    try:
        _ref_cluster_floors([seg(*f) for f in fields], cut=math.inf, heights=heights)
    except FloorClusteringError:
        pass
    return heights


class TestClusterFloorsOracle:
    @given(_oracle_segments, st.data())
    @settings(max_examples=400, deadline=None)
    def test_matches_original_loop(self, fields, data):
        # a cut equal to a merge height tests `d >= cut` where a linkage
        # rounded otherwise would flip it
        cut = data.draw(st.one_of(
            st.floats(min_value=0.0, max_value=1.1),
            st.sampled_from([0.0, 0.5, 1.0, *_merge_heights(fields)]),
        ))
        floor_count = data.draw(st.one_of(st.none(), st.integers(min_value=1, max_value=len(fields) + 2)))
        new, ref = _oracle_case(fields, cut, floor_count)
        assert new == ref

    def test_matches_original_loop_at_every_merge_height(self):
        # every merge height as the cut: a linkage summed in another member
        # order flips `d >= cut` on some of these inputs; every floor count
        # runs each tie-break down to one cluster
        rng = np.random.default_rng(1)
        macs = ["m1", "m2", "m3", "m4", "m5", "m6"]
        for _ in range(120):
            fields = [
                (str(rng.choice(["p", "q", "r"])), int(rng.choice([0, 10, 20])),
                 float(rng.choice([1012.1, 1012.3, 1012.7, 1013.3])),
                 frozenset(rng.choice(macs, size=int(rng.integers(0, 5)), replace=False).tolist()))
                for _ in range(int(rng.integers(4, 10)))
            ]
            for cut in _merge_heights(fields):
                new, ref = _oracle_case(fields, cut, None)
                assert new == ref
            for floor_count in range(1, len(fields) + 1):
                new, ref = _oracle_case(fields, 0.7, floor_count)
                assert new == ref

    def test_matches_original_loop_on_larger_inputs(self):
        # a larger MAC pool gives linkages whose sums round differently in
        # another member order
        rng = np.random.default_rng(8)
        macs = [f"m{k}" for k in range(12)]
        for _ in range(60):
            n = int(rng.integers(10, 30))
            fields = [
                (str(rng.choice(["p", "q", "r"])), int(rng.choice([0, 10, 20])),
                 float(rng.uniform(1012.0, 1013.3)),
                 frozenset(rng.choice(macs, size=int(rng.integers(0, 9)), replace=False).tolist()))
                for _ in range(n)
            ]
            floor_count = None if rng.random() < 0.7 else int(rng.integers(1, n + 1))
            new, ref = _oracle_case(fields, float(rng.uniform(0.2, 1.0)), floor_count)
            assert new == ref


class TestRunScans:
    @given(st.lists(st.integers(min_value=-1, max_value=2), max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_absorb_matches_original_scan(self, labels):
        assert absorb_isolated_noise(labels) == _ref_absorb_isolated_noise(labels)

    @given(st.lists(st.integers(min_value=-1, max_value=2), min_size=1, max_size=40), st.integers(1, 4))
    @settings(max_examples=300, deadline=None)
    def test_segment_ranges_match_original_scan(self, labels, min_pts):
        n = len(labels)
        traj = trajectory(np.zeros((n, 2)), baro_hpa=np.full(n, 1013.0), source_id="runs")
        with mock.patch("trackforge.floors.dbscan_1d", return_value=labels):
            segments = segment_trajectory(traj, eps=0.1, min_pts=min_pts)
        expected = _ref_segment_ranges(_ref_absorb_isolated_noise(labels), min_pts)
        assert [s.point_range for s in segments] == expected
