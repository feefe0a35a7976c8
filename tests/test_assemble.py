"""Mask assembly: group tracing, sow instance, residual reassignment."""

import numpy as np
import pytest

from centerseg import (
    CenterCloud,
    ClusterLabels,
    GridDims,
    PipelineConfig,
    SemanticMap,
    instances_from_labels,
    reassign_unlabeled,
    segment_frame,
    sow_instance,
)
from centerseg.grids import OffsetMap


def cloud_from(dims, src, pos, filtered=None):
    n = len(src)
    return CenterCloud(
        dims=dims,
        source_pixels=np.asarray(src),
        positions=np.asarray(pos, dtype=np.float64),
        filtered=np.zeros(n, dtype=bool) if filtered is None else np.asarray(filtered),
    )


def test_no_groups_no_instances():
    dims = GridDims(4, 4)
    cloud = cloud_from(dims, [0, 1, 2], [[0, 0], [1, 0], [2, 0]])
    labels = ClusterLabels(np.zeros(3, dtype=np.int64), 0)
    assert instances_from_labels(cloud, labels) == []


def test_masks_trace_source_pixels():
    dims = GridDims(4, 4)
    cloud = cloud_from(dims, [0, 5, 10], [[1, 1], [1, 1], [3, 3]])
    labels = ClusterLabels(np.array([1, 1, 2]), 2)
    got = instances_from_labels(cloud, labels)
    assert [inst.mask.area for inst in got] == [2, 1]
    assert list(np.flatnonzero(got[0].mask.pixels)) == [0, 5]
    assert list(np.flatnonzero(got[1].mask.pixels)) == [10]
    assert got[0].score == 1.0 and got[1].score == 0.5
    assert all(inst.cls == "piglet" for inst in got)


def test_coincident_votes_center():
    dims = GridDims(8, 8)
    cloud = cloud_from(dims, [0, 1, 2], [[5.0, 5.0]] * 3)
    labels = ClusterLabels(np.array([1, 1, 1]), 1)
    (inst,) = instances_from_labels(cloud, labels)
    assert inst.predicted_center == (5.0, 5.0)


def test_sow_absent():
    dims = GridDims(4, 4)
    sem = SemanticMap(dims, np.zeros(dims.shape, dtype=np.uint8))
    assert sow_instance(sem) is None


def test_sow_block_centroid():
    dims = GridDims(4, 4)
    labels = np.zeros(dims.shape, dtype=np.uint8)
    labels[0:2, 0:2] = 2
    inst = sow_instance(SemanticMap(dims, labels))
    assert inst is not None
    assert inst.cls == "sow"
    assert inst.mask.area == 4
    assert inst.predicted_center == (0.5, 0.5)
    assert inst.score == 1.0


def test_sow_full_frame():
    dims = GridDims(6, 3)
    labels = np.full(dims.shape, 2, dtype=np.uint8)
    inst = sow_instance(SemanticMap(dims, labels))
    assert inst.mask.area == dims.npixels


def test_reassign_noop_without_zeros():
    dims = GridDims(4, 4)
    cloud = cloud_from(dims, [0, 1], [[0, 0], [1, 0]])
    labels = ClusterLabels(np.array([1, 2]), 2)
    assert reassign_unlabeled(cloud, labels) == labels


def test_reassign_nearest_centroid():
    dims = GridDims(32, 32)
    cloud = cloud_from(
        dims,
        [0, 1, 2, 3, 4],
        [[5.0, 5.0], [5.0, 5.0], [20.0, 20.0], [20.0, 20.0], [6.0, 6.0]],
    )
    labels = ClusterLabels(np.array([1, 1, 2, 2, 0]), 2)
    got = reassign_unlabeled(cloud, labels)
    assert got.labels[4] == 1


def test_reassign_tie_breaks_low_group():
    dims = GridDims(32, 32)
    cloud = cloud_from(
        dims, [0, 1, 2], [[0.0, 0.0], [10.0, 0.0], [5.0, 0.0]]
    )
    labels = ClusterLabels(np.array([2, 1, 0]), 2)
    got = reassign_unlabeled(cloud, labels)
    assert got.labels[2] == 1  # equidistant, lowest group id wins


def test_reassign_m_zero_unchanged():
    dims = GridDims(4, 4)
    cloud = cloud_from(dims, [0, 1], [[0, 0], [1, 0]])
    labels = ClusterLabels(np.zeros(2, dtype=np.int64), 0)
    assert reassign_unlabeled(cloud, labels) == labels


def test_reassign_idempotent():
    rng = np.random.default_rng(4)
    dims = GridDims(64, 64)
    n = 60
    src = np.sort(rng.choice(dims.npixels, n, replace=False))
    pos = rng.uniform(0, 60, (n, 2))
    raw = rng.integers(0, 4, n)
    m = int(raw.max())
    if m == 0:
        raw[0] = 1
        m = 1
    # make groups 1..m non-empty
    for g in range(1, m + 1):
        raw[g] = g
    labels = ClusterLabels(raw.astype(np.int64), m)
    once = reassign_unlabeled(cloud_from(dims, src, pos), labels)
    twice = reassign_unlabeled(cloud_from(dims, src, pos), once)
    assert once == twice
    assert not np.any(once.labels == 0)


def blank_frame(dims):
    sem = SemanticMap(dims, np.zeros(dims.shape, dtype=np.uint8))
    off = OffsetMap(dims, np.zeros((*dims.shape, 2), dtype=np.float32))
    return sem, off


def test_segment_blank_frame():
    sem, off = blank_frame(GridDims(16, 16))
    result = segment_frame(sem, off, PipelineConfig(min_pts=5))
    assert result.instances == []
    assert result.unassigned_pixel_count == 0
    assert set(result.timings) >= {"generate", "filter", "cluster", "assemble", "reassign", "sow", "total"}


def test_segment_respects_dims():
    sem, _ = blank_frame(GridDims(16, 16))
    _, off = blank_frame(GridDims(17, 16))
    from centerseg import DimensionMismatch

    with pytest.raises(DimensionMismatch):
        segment_frame(sem, off)


def make_two_piglet_frame():
    dims = GridDims(40, 24)
    labels = np.zeros(dims.shape, dtype=np.uint8)
    vec = np.zeros((*dims.shape, 2), dtype=np.float32)
    blobs = [((4, 4), (12, 10)), ((26, 8), (34, 18))]
    for (x0, y0), (x1, y1) in blobs:
        cx, cy = (x0 + x1 - 1) / 2, (y0 + y1 - 1) / 2
        for y in range(y0, y1):
            for x in range(x0, x1):
                labels[y, x] = 1
                vec[y, x] = (cx - x, cy - y)
    return dims, SemanticMap(dims, labels), OffsetMap(dims, vec), blobs


def test_segment_two_piglets_noise_free():
    dims, sem, off, blobs = make_two_piglet_frame()
    cfg = PipelineConfig(min_pts=10, min_neighbors=5)
    result = segment_frame(sem, off, cfg)
    piglets = [inst for inst in result.instances if inst.cls == "piglet"]
    assert len(piglets) == 2
    assert result.unassigned_pixel_count == 0
    union = np.zeros(dims.shape, dtype=bool)
    for inst in piglets:
        assert not (union & inst.mask.pixels).any()  # disjoint
        union |= inst.mask.pixels
    assert np.array_equal(union, sem.labels == 1)  # full coverage


def test_rc2m_masks_are_supersets():
    dims, sem, off, _ = make_two_piglet_frame()
    # corrupt a few offsets so some votes land far away and cluster as noise
    vec = off.vectors.copy()
    ys, xs = np.nonzero(sem.labels == 1)
    for k in range(0, 12):
        vec[ys[k], xs[k]] = (30.0, 20.0)
    off_noisy = OffsetMap(dims, vec)
    on = segment_frame(sem, off_noisy, PipelineConfig(min_pts=10, min_neighbors=5, rc2m=True))
    offr = segment_frame(sem, off_noisy, PipelineConfig(min_pts=10, min_neighbors=5, rc2m=False))
    on_piglets = [i for i in on.instances if i.cls == "piglet"]
    off_piglets = [i for i in offr.instances if i.cls == "piglet"]
    assert len(on_piglets) == len(off_piglets)
    for a, b in zip(off_piglets, on_piglets):
        assert (a.mask.pixels & ~b.mask.pixels).sum() == 0  # superset
        assert a.predicted_center == b.predicted_center  # centers are pre-reassignment
    assert on.unassigned_pixel_count == 0
    assert offr.unassigned_pixel_count > 0


def test_segment_mean_shift_backend():
    dims, sem, off, _ = make_two_piglet_frame()
    cfg = PipelineConfig(min_pts=10, min_neighbors=5, algo="mean-shift", bandwidth=6.0)
    result = segment_frame(sem, off, cfg)
    piglets = [inst for inst in result.instances if inst.cls == "piglet"]
    assert len(piglets) == 2


def test_segment_naive_backend_matches_grid():
    dims, sem, off, _ = make_two_piglet_frame()
    a = segment_frame(sem, off, PipelineConfig(min_pts=10, min_neighbors=5, algo="dbscan"))
    b = segment_frame(sem, off, PipelineConfig(min_pts=10, min_neighbors=5, algo="dbscan-naive"))
    assert [i.mask for i in a.instances] == [i.mask for i in b.instances]
