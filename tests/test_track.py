"""Frame pairing, track bookkeeping, and the monitoring metrics."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from centerseg import (
    BinaryMask,
    FrameResult,
    GridDims,
    Instance,
    Track,
    TrackState,
    heatmap,
    pair_frames,
    track_metrics,
    update_tracks,
)
from centerseg import DimensionMismatch, tracking

DIMS = GridDims(24, 24)


def block_inst(x0, y0, w, h, cls="piglet", score=1.0, dims=DIMS):
    px = np.zeros(dims.shape, dtype=bool)
    px[y0 : y0 + h, x0 : x0 + w] = True
    return Instance(
        mask=BinaryMask(dims, px),
        predicted_center=(x0 + (w - 1) / 2, y0 + (h - 1) / 2),
        cls=cls,
        score=score,
    )


def frame(instances):
    return FrameResult(instances=instances, unassigned_pixel_count=0, timings={})


def test_pair_identical_lists():
    insts = [block_inst(0, 0, 4, 4), block_inst(10, 10, 5, 5)]
    pairs, new, dropped = pair_frames(insts, [block_inst(0, 0, 4, 4), block_inst(10, 10, 5, 5)], min_iou=0.0)
    assert [(i, j) for i, j, _ in pairs] == [(0, 0), (1, 1)]
    assert new == [] and dropped == []


def test_pair_leftover_prev_dropped():
    prev = [block_inst(0, 0, 4, 4), block_inst(12, 12, 4, 4)]
    cur = [block_inst(1, 0, 4, 4)]  # overlaps only prev[0]
    pairs, new, dropped = pair_frames(prev, cur, min_iou=0.0)
    assert len(pairs) == 1 and pairs[0][:2] == (0, 0)
    assert new == [] and dropped == [1]


def test_pair_empty_prev_all_new():
    cur = [block_inst(0, 0, 3, 3), block_inst(8, 8, 3, 3)]
    pairs, new, dropped = pair_frames([], cur, min_iou=0.0)
    assert pairs == [] and new == [0, 1] and dropped == []


def test_pair_requires_strictly_positive_iou():
    prev = [block_inst(0, 0, 3, 3)]
    cur = [block_inst(10, 10, 3, 3)]
    pairs, new, dropped = pair_frames(prev, cur, min_iou=0.0)
    assert pairs == [] and new == [0] and dropped == [0]


def test_pair_greedy_takes_global_max():
    # prev[0] overlaps cur[0] weakly and cur[1] strongly; prev[1] overlaps cur[0]
    prev = [block_inst(0, 0, 6, 4), block_inst(0, 4, 6, 4)]
    cur = [block_inst(0, 2, 6, 4), block_inst(0, 0, 6, 4)]
    pairs, _, _ = pair_frames(prev, cur, min_iou=0.0)
    got = {(i, j) for i, j, _ in pairs}
    assert (0, 1) in got  # identical boxes pair first
    table_best = max(iou for _, _, iou in pairs)
    assert table_best == 1.0


def test_pair_conservation():
    rng = np.random.default_rng(0)
    prev = [block_inst(int(rng.integers(0, 18)), int(rng.integers(0, 18)), 5, 5) for _ in range(4)]
    cur = [block_inst(int(rng.integers(0, 18)), int(rng.integers(0, 18)), 5, 5) for _ in range(6)]
    pairs, new, dropped = pair_frames(prev, cur, min_iou=0.0)
    assert len(pairs) + len(new) == len(cur)
    assert len(pairs) + len(dropped) == len(prev)


def test_static_scene_keeps_ids_and_zero_movement():
    state = TrackState(dims=DIMS, fps=7.0, min_iou=0.0)
    insts = [block_inst(2, 2, 5, 5), block_inst(12, 12, 6, 6, cls="sow")]
    for _ in range(10):
        update_tracks(state, frame(insts))
    tracks = state.all_tracks()
    assert len(tracks) == 2
    assert all(t.movement == 0.0 for t in tracks)
    assert all(len(t.frames) == 10 for t in tracks)
    assert sorted(t.track_id for t in tracks) == [0, 1]


def test_constant_velocity_movement():
    state = TrackState(dims=GridDims(64, 24), fps=7.0, min_iou=0.0)
    for step in range(8):
        inst = block_inst(3 * step, 4, 5, 5, dims=GridDims(64, 24))
        update_tracks(state, frame([inst]))
    (track,) = state.all_tracks()
    assert track.movement == pytest.approx(21.0, abs=1e-9)  # 7 gaps x 3 px


def test_disappear_reappear_issues_new_id():
    state = TrackState(dims=DIMS, fps=7.0, min_iou=0.0)
    inst = block_inst(4, 4, 5, 5)
    update_tracks(state, frame([inst]))
    update_tracks(state, frame([]))
    update_tracks(state, frame([inst]))
    tracks = state.all_tracks()
    assert len(tracks) == 2
    assert [t.track_id for t in tracks] == [0, 1]
    assert len(state.active) == 1


def test_movement_uses_predicted_center_not_mask_centroid():
    # same mask both frames, center moves: movement follows the center
    px = np.zeros(DIMS.shape, dtype=bool)
    px[0:4, 0:4] = True
    mask = BinaryMask(DIMS, px)
    a = Instance(mask=mask, predicted_center=(10.0, 10.0), cls="piglet", score=1.0)
    b = Instance(mask=mask, predicted_center=(13.0, 14.0), cls="piglet", score=1.0)
    state = TrackState(dims=DIMS, fps=7.0, min_iou=0.0)
    update_tracks(state, frame([a]))
    update_tracks(state, frame([b]))
    (track,) = state.all_tracks()
    assert track.movement == pytest.approx(5.0)


def test_track_metrics_formulas():
    state = TrackState(dims=GridDims(10, 10), fps=7.0, min_iou=0.0)
    track = Track(track_id=0, cls="piglet", dims=GridDims(10, 10))
    for i, area in enumerate([10, 9, 8, 7, 6, 5]):
        px = np.zeros((10, 10), dtype=bool)
        px.ravel()[:area] = True
        inst = Instance(
            mask=BinaryMask(GridDims(10, 10), px),
            predicted_center=(float(i), 0.0),
            cls="piglet",
            score=1.0,
        )
        track.add_record(i, inst)
    metrics = track_metrics(track, state)
    assert metrics.body_pixel_size == 8.0  # mean of the top five
    assert metrics.movement_px == pytest.approx(5.0)
    assert metrics.avg_speed_px_s == pytest.approx(5.0 / (5 / 7.0))


def test_single_record_track():
    state = TrackState(dims=DIMS, fps=7.0, min_iou=0.0)
    update_tracks(state, frame([block_inst(0, 0, 3, 3)]))
    (track,) = state.all_tracks()
    metrics = track_metrics(track, state)
    assert metrics.movement_px == 0.0
    assert metrics.avg_speed_px_s == 0.0
    assert metrics.body_pixel_size == 9.0


def test_speed_formula_sample():
    state = TrackState(dims=DIMS, fps=7.0, min_iou=0.0)
    track = Track(track_id=3, cls="sow", dims=DIMS)
    inst = block_inst(0, 0, 4, 4)
    for i in range(29):
        track.add_record(i, inst)
    track.movement = 155.0
    metrics = track_metrics(track, state)
    assert metrics.avg_speed_px_s == pytest.approx(155.0 / ((29 - 1) / 7.0))
    assert metrics.avg_speed_px_s == pytest.approx(38.75)


def test_space_usage_is_a_share_of_the_frame():
    dims = GridDims(10, 10)
    state = TrackState(dims=dims, fps=7.0, min_iou=0.0)
    update_tracks(state, frame([block_inst(0, 0, 5, 5, dims=dims)]))
    (track,) = state.all_tracks()
    assert track_metrics(track, state).space_usage == 25 / 100


def test_heatmap_accumulates():
    dims = GridDims(8, 8)
    state = TrackState(dims=dims, fps=7.0, min_iou=0.0)
    full = block_inst(0, 0, 8, 8, dims=dims)
    for _ in range(3):
        update_tracks(state, frame([full]))
    (track,) = state.all_tracks()
    counts = heatmap(track)
    assert (counts == 3).all()


def test_heatmap_disjoint_masks():
    dims = GridDims(8, 8)
    track = Track(track_id=0, cls="piglet", dims=dims)
    track.add_record(0, block_inst(0, 0, 2, 2, dims=dims))
    track.add_record(1, block_inst(4, 4, 3, 3, dims=dims))
    counts = heatmap(track)
    assert set(np.unique(counts)) <= {0, 1}
    assert counts.sum() == 4 + 9


def test_movement_additivity():
    rng = np.random.default_rng(1)
    track = Track(track_id=0, cls="piglet", dims=DIMS)
    centers = rng.uniform(0, 20, (9, 2))
    partial = []
    for i, (cx, cy) in enumerate(centers):
        inst = Instance(
            mask=block_inst(0, 0, 2, 2).mask,
            predicted_center=(float(cx), float(cy)),
            cls="piglet",
            score=1.0,
        )
        track.add_record(i, inst)
        partial.append(track.movement)
    # movement over [0..8] = movement [0..4] + movement [4..8]
    second_leg = Track(track_id=1, cls="piglet", dims=DIMS)
    for i, (cx, cy) in enumerate(centers[4:]):
        inst = Instance(
            mask=block_inst(0, 0, 2, 2).mask,
            predicted_center=(float(cx), float(cy)),
            cls="piglet",
            score=1.0,
        )
        second_leg.add_record(i, inst)
    assert track.movement == pytest.approx(partial[4] + second_leg.movement, rel=1e-12)


def test_id_uniqueness_over_churn():
    rng = np.random.default_rng(5)
    state = TrackState(dims=DIMS, fps=7.0, min_iou=0.0)
    for _ in range(12):
        k = int(rng.integers(0, 4))
        insts = [
            block_inst(int(rng.integers(0, 18)), int(rng.integers(0, 18)), 5, 5)
            for _ in range(k)
        ]
        update_tracks(state, frame(insts))
        ids = [t.track_id for t in state.active.values()]
        assert len(ids) == len(set(ids))
    all_ids = [t.track_id for t in state.all_tracks()]
    assert len(all_ids) == len(set(all_ids))


@settings(max_examples=60, deadline=None)
@given(
    w=st.integers(1, 8),
    h=st.integers(1, 8),
    frames=st.lists(
        st.tuples(st.lists(st.booleans(), min_size=64, max_size=64), st.integers(0, 63)),
        min_size=1, max_size=6,
    ),
)
def test_cropped_occupancy_matches_full_frame_scatter(w, h, frames):
    dims = GridDims(w, h)
    track = Track(track_id=0, cls="piglet", dims=dims)
    expected = np.zeros(dims.shape, dtype=np.uint32)
    for i, (bits, k) in enumerate(frames):
        pixels = np.array(bits).reshape(8, 8)[:h, :w]
        pixels[(k // 8) % h, k % w] = True  # an instance covers at least one pixel
        mask = BinaryMask(dims, pixels)
        track.add_record(i, Instance(mask=mask, predicted_center=(0.0, 0.0), cls="piglet", score=1.0))
        expected[mask.pixels] += 1
        counts = heatmap(track)
        assert np.array_equal(counts, expected)
        rows, cols = np.nonzero(counts)
        assert track.box == (rows.min(), rows.max() + 1, cols.min(), cols.max() + 1)
        r0, r1, c0, c1 = track.box
        assert track.occupancy.dtype == np.uint32
        assert np.array_equal(track.occupancy, counts[r0:r1, c0:c1])


def test_occupancy_memory_follows_the_visited_area():
    dims = GridDims(1280, 720)
    # a 100x100 block moving 4 px a frame: ten masks, 136x100 pixels visited
    records = [block_inst(200 + 4 * i, 300, 100, 100, dims=dims) for i in range(10)]
    tracemalloc.start()
    try:
        track = Track(track_id=0, cls="piglet", dims=dims)
        for i, inst in enumerate(records):
            track.add_record(i, inst)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 1 << 20, held  # a full-frame uint32 array alone is 3.7 MB
    assert track.box == (300, 400, 200, 336)


@pytest.mark.parametrize("field", ["fps", "min_iou"])
def test_track_state_rejects_nan(field):
    with pytest.raises(ValueError, match=field):
        TrackState(dims=DIMS, **{"fps": 7.0, "min_iou": 0.0, field: float("nan")})
    with pytest.raises(ValueError, match="min_iou"):
        pair_frames([block_inst(0, 0, 2, 2)], [block_inst(0, 0, 2, 2)], min_iou=float("nan"))


def all_pairs_table(rows, cols, iou):
    return np.array([[iou(a, b) for b in cols] for a in rows]).reshape(len(rows), len(cols))


BLOCK = st.tuples(st.integers(0, 16), st.integers(0, 16), st.integers(1, 8), st.integers(1, 8))


@settings(max_examples=80, deadline=None)
@given(prev=st.lists(BLOCK, max_size=5), cur=st.lists(BLOCK, max_size=5), min_iou=st.sampled_from([0.0, 0.2, 0.5]))
def test_pairing_matches_all_pairs_table(prev, cur, min_iou):
    prev = [block_inst(*b) for b in prev]
    cur = [block_inst(*b) for b in cur]
    with mock.patch.object(tracking, "_iou_matrix", all_pairs_table):
        expected = pair_frames(prev, cur, min_iou)
    with mock.patch.object(tracking, "mask_iou", side_effect=tracking.mask_iou) as iou:
        assert pair_frames(prev, cur, min_iou) == expected
    (r0, r1, c0, c1), (s0, s1, d0, d1) = (
        np.array([inst.mask.bbox for inst in insts]).reshape(-1, 4).T[:, :, None] for insts in (prev, cur)
    )
    overlap = (np.maximum(r0, s0.T) < np.minimum(r1, s1.T)) & (np.maximum(c0, d0.T) < np.minimum(c1, d1.T))
    assert iou.call_count == np.count_nonzero(overlap)


def test_touching_boxes_are_not_measured():
    prev = [block_inst(0, 0, 4, 4)]
    cur = [block_inst(0, 4, 4, 4), block_inst(4, 0, 4, 4)]  # below (r1 == r0') and right of it
    with mock.patch.object(tracking, "mask_iou", side_effect=tracking.mask_iou) as iou:
        assert pair_frames(prev, cur, min_iou=0.0) == ([], [0, 1], [0])
    assert iou.call_count == 0


def test_pairing_dims_mismatch_with_disjoint_boxes():
    prev = [block_inst(0, 0, 3, 3)]
    cur = [block_inst(10, 10, 3, 3, dims=GridDims(30, 24))]
    with pytest.raises(DimensionMismatch):
        pair_frames(prev, cur, min_iou=0.0)
