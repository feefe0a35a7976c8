"""Mask assembly: group tracing, sow instance, residual reassignment."""

import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from centerseg import (
    BinaryMask,
    CenterCloud,
    ClusterLabels,
    GridDims,
    Instance,
    PipelineConfig,
    SemanticMap,
    dbscan,
    dbscan_naive,
    filter_centers,
    generate_centers,
    instances_from_labels,
    reassign_unlabeled,
    segment_frame,
    sow_instance,
)
from centerseg import formats
from centerseg import instances as instances_module
from centerseg.cli import main
from centerseg.grids import OffsetMap
from test_golden import FULLRES_SCENE


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


def dense_reassign(cloud, labels):
    """Oracle: the full (votes x groups) distance table and its row argmin."""
    new = labels.labels.copy()
    zero = np.flatnonzero(new == 0)
    if labels.n_groups == 0 or zero.size == 0:
        return new
    centroids = np.stack(
        [cloud.positions[labels.labels == g].mean(axis=0) for g in range(1, labels.n_groups + 1)]
    )
    dx = cloud.positions[zero, 0][:, None] - centroids[None, :, 0]
    dy = cloud.positions[zero, 1][:, None] - centroids[None, :, 1]
    new[zero] = np.argmin(dx * dx + dy * dy, axis=1) + 1
    return new


def check_reassign_against_dense(pos, raw, n_groups, block):
    dims = GridDims(len(raw), 1)
    cloud = cloud_from(dims, np.arange(len(raw)), pos)
    labels = ClusterLabels(np.asarray(raw, dtype=np.int64), n_groups)
    with mock.patch.object(instances_module, "_REASSIGN_BLOCK", block):
        got = reassign_unlabeled(cloud, labels)
    assert got.n_groups == n_groups
    assert np.array_equal(got.labels, dense_reassign(cloud, labels))


# small integers make equidistant and coincident centroids common
COORD = st.one_of(
    st.integers(-3, 3).map(float),
    st.sampled_from([-3e38, 3e38, -2.9e38, 2.9e38]),
    st.floats(-3e38, 3e38, allow_nan=False),
)


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    n_groups=st.integers(1, 5),
    n_zero=st.integers(1, 30),
    block=st.sampled_from([1, 2, 3, 5, 1 << 13]),
)
def test_reassign_matches_dense_argmin(data, n_groups, n_zero, block):
    extra = data.draw(st.lists(st.integers(1, n_groups), max_size=12))
    raw = data.draw(st.permutations(list(range(1, n_groups + 1)) + extra + [0] * n_zero))
    pos = data.draw(st.lists(st.tuples(COORD, COORD), min_size=len(raw), max_size=len(raw)))
    check_reassign_against_dense(pos, raw, n_groups, block)


@pytest.mark.parametrize(
    "pos, raw, n_groups, expected",
    [
        # equidistant from both centroids: the lower id wins
        ([(0, 0), (10, 0), (5, 0), (5, 3)], [2, 1, 0, 0], 2, [2, 1, 1, 1]),
        # coincident centroids: every vote goes to group 1
        ([(4, 4), (4, 4), (0, 0), (9, 9)], [3, 2, 1, 0], 3, [3, 2, 1, 2]),
        # one group takes every vote
        ([(0, 0), (1e38, -1e38), (-3e38, 3e38)], [0, 1, 0], 1, [1, 1, 1]),
        # far votes at +-3e38 pick the centroid on their own side
        ([(-3e38, 0), (3e38, 0), (-2e38, 1), (2e38, -1)], [1, 2, 0, 0], 2, [1, 2, 1, 2]),
    ],
    ids=["equidistant", "coincident", "one-group", "far"],
)
def test_reassign_edge_cases(pos, raw, n_groups, expected):
    for block in (1, 2, 1 << 13):
        check_reassign_against_dense(pos, raw, n_groups, block)
    cloud = cloud_from(GridDims(len(raw), 1), np.arange(len(raw)), pos)
    got = reassign_unlabeled(cloud, ClusterLabels(np.asarray(raw, dtype=np.int64), n_groups))
    assert list(got.labels) == expected


def test_reassign_more_votes_than_block():
    rng = np.random.default_rng(11)
    n = 5000
    pos = rng.uniform(-50, 50, (n, 2)).round()
    raw = rng.integers(0, 7, n)
    raw[:6] = np.arange(1, 7)
    for block in (1, 7, 64, 4999, 5000, 1 << 13):
        check_reassign_against_dense(pos, raw, 6, block)


def loop_reassign(cloud, labels):
    """Oracle: every group-0 vote against every centroid in group order, a
    running minimum of ``dx*dx + dy*dy`` replaced only when strictly closer
    (so ties go to the lowest id, and no finite distance means group 1)."""
    new = labels.labels.copy()
    if labels.n_groups == 0:
        return new
    centroids = [cloud.positions[labels.labels == g].mean(axis=0).tolist() for g in range(1, labels.n_groups + 1)]
    for v in np.flatnonzero(labels.labels == 0):
        x, y = cloud.positions[v]
        best, nearest = np.inf, 1
        for group, (cx, cy) in enumerate(centroids, start=1):
            d = (x - cx) * (x - cx) + (y - cy) * (y - cy)
            if d < best:
                best, nearest = d, group
        new[v] = nearest
    return new


# on cell edges (inside and outside the frame), at integers and halves
# (exact squared distances, so exact ties between integer centroids), at
# the float32 extremes, anywhere, and not finite
RESIDUAL_COORD = st.one_of(
    st.integers(-2, 6).map(lambda k: 16.0 * k),
    st.sampled_from([np.nextafter(16.0, 0.0), np.nextafter(32.0, 64.0), -0.0, 5e-324]),
    st.integers(-40, 200).map(lambda k: k / 2),
    st.sampled_from([-3e38, 3e38]),
    st.floats(-1e3, 1e3),
    st.sampled_from([np.nan, np.inf, -np.inf]),
)


@st.composite
def residual_frame(draw):
    """A cloud and labels whose group-0 votes test the nearest-centroid rule
    at cell edges, on exact bisectors of two centroids, outside the frame,
    at +-3e38 and at non-finite positions (which ``CenterCloud`` admits)."""
    n_groups = draw(st.integers(1, 5))
    # each group's first vote is at an integer point, so a group of one has an integer centroid
    anchors = [(float(draw(st.integers(-20, 90))), float(draw(st.integers(-20, 60)))) for _ in range(n_groups)]
    pos = list(anchors)
    raw = list(range(1, n_groups + 1))
    for group in draw(st.lists(st.integers(1, n_groups), max_size=4)):
        pos.append((draw(RESIDUAL_COORD), draw(RESIDUAL_COORD)))
        raw.append(group)
    residual = draw(st.lists(st.tuples(RESIDUAL_COORD, RESIDUAL_COORD), min_size=1, max_size=24))
    for _ in range(draw(st.integers(0, 6))):
        # on the perpendicular bisector of two anchors: m + t * p with p orthogonal to b - a
        (ax, ay), (bx, by) = draw(st.sampled_from(anchors)), draw(st.sampled_from(anchors))
        t = draw(st.integers(-3, 3))
        residual.append(((ax + bx) / 2 - t * (by - ay), (ay + by) / 2 + t * (bx - ax)))
    pos += residual
    raw += [0] * len(residual)
    order = draw(st.permutations(range(len(raw))))
    width = draw(st.integers(1, 70))
    height = max(draw(st.integers(1, 50)), -(-len(raw) // width))
    cloud = cloud_from(GridDims(width, height), np.arange(len(raw)), [pos[i] for i in order])
    return cloud, ClusterLabels(np.array([raw[i] for i in order], dtype=np.int64), n_groups)


@settings(max_examples=150, deadline=None)
@given(frame=residual_frame(), block=st.sampled_from([1, 3, 8, 1 << 15]))
def test_reassign_matches_loop_oracle(frame, block):
    cloud, labels = frame
    with warnings.catch_warnings(record=True) as seen, np.errstate(all="ignore"):
        warnings.simplefilter("always")
        expected = loop_reassign(cloud, labels)
        with mock.patch.object(instances_module, "_REASSIGN_BLOCK", block):
            got = reassign_unlabeled(cloud, labels)
    assert np.array_equal(got.labels, expected)
    # no position outside the cells is cast to an integer
    assert not any("cast" in str(w.message) for w in seen)


def test_reassign_decides_whole_cells_and_exact_ties():
    # centroids at x = 8 and x = 40: the cells x < 16 and x >= 32 go whole to one
    # group, the cells in between hold the bisector x = 24, an exact tie
    dims = GridDims(64, 16)
    pos = [(8.0, 8.0), (40.0, 8.0), (0.0, 0.0), (15.999, 15.0), (24.0, 3.0), (23.5, 3.0), (32.0, 0.0), (63.5, 15.5)]
    cloud = cloud_from(dims, np.arange(len(pos)), pos)
    labels = ClusterLabels(np.array([1, 2, 0, 0, 0, 0, 0, 0]), 2)
    assert instances_module._cell_groups(dims, np.array([[8.0, 8.0], [40.0, 8.0]])).tolist() == [[1, 0, 2, 2]]
    assert list(reassign_unlabeled(cloud, labels).labels) == [1, 2, 1, 1, 1, 1, 2, 2]


@pytest.mark.parametrize("width, height", [(64, 32), (70, 33), (16, 16), (5, 40)])
def test_reassign_on_cell_and_frame_edges(width, height):
    # every vote on a cell edge or just below one, from outside the frame's cells on one side to the other
    ticks = [t for k in range(-1, -(-max(width, height) // 16) + 3) for t in (16.0 * k, np.nextafter(16.0 * k, -1.0))]
    residual = [(x, y) for x in ticks for y in ticks]
    anchors = [(8.0, 24.0), (40.0, 8.0), (21.0, 3.0)]
    pos = anchors + residual
    dims = GridDims(width, max(height, -(-len(pos) // width)))
    cloud = cloud_from(dims, np.arange(len(pos)), pos)
    labels = ClusterLabels(np.r_[1, 2, 3, np.zeros(len(residual), dtype=np.int64)], 3)
    assert np.array_equal(reassign_unlabeled(cloud, labels).labels, loop_reassign(cloud, labels))


def flat_index_masks(cloud, traced):
    """Each group's mask, cut from a full frame with its votes' source pixels set."""
    masks = []
    for g in range(1, traced.n_groups + 1):
        frame = np.zeros(cloud.dims.npixels, dtype=bool)
        frame[cloud.source_pixels[traced.labels == g]] = True
        masks.append(BinaryMask(cloud.dims, frame.reshape(cloud.dims.shape)))
    return masks


@settings(max_examples=40, deadline=None)
@given(data=st.data(), rc2m=st.booleans())
def test_masks_match_flat_index_masks(data, rc2m):
    width, height = data.draw(st.integers(1, 40)), data.draw(st.integers(1, 24))
    n = data.draw(st.integers(1, min(width * height, 120)))
    if data.draw(st.booleans()):  # one run of pixels, across row ends
        first = data.draw(st.integers(0, width * height - n))
        src = np.arange(first, first + n)
    else:
        src = np.array(sorted(data.draw(st.sets(st.integers(0, width * height - 1), min_size=n, max_size=n))))
    n_groups = data.draw(st.integers(1, min(n, 6)))
    raw = data.draw(st.lists(st.integers(0, n_groups), min_size=n, max_size=n))
    raw[:n_groups] = range(1, n_groups + 1)
    raw = data.draw(st.permutations(raw))
    pos = data.draw(st.lists(st.tuples(st.integers(-5, 45), st.integers(-5, 30)), min_size=n, max_size=n))
    cloud = cloud_from(GridDims(width, height), src, np.array(pos, dtype=np.float64))
    labels = ClusterLabels(np.array(raw, dtype=np.int64), n_groups)
    traced = reassign_unlabeled(cloud, labels) if rc2m else labels
    got = instances_from_labels(cloud, labels, traced if rc2m else None)
    assert [inst.mask for inst in got] == flat_index_masks(cloud, traced)
    sizes = np.bincount(labels.labels, minlength=n_groups + 1)[1:]
    for g, inst in enumerate(got, start=1):
        center = cloud.positions[labels.labels == g].mean(axis=0)
        assert inst.predicted_center == (float(center[0]), float(center[1]))
        assert inst.score == sizes[g - 1] / sizes.max()


def test_masks_from_more_groups_than_an_8_bit_label():
    dims = GridDims(40, 10)
    n_groups = 300
    src = np.arange(n_groups + 2)
    cloud = cloud_from(dims, src, np.stack([src % 40, src // 40], axis=1).astype(np.float64))
    labels = ClusterLabels(np.r_[np.arange(1, n_groups + 1), 3, n_groups], n_groups)
    got = instances_from_labels(cloud, labels)
    assert [inst.mask for inst in got] == flat_index_masks(cloud, labels)
    assert got[-1].mask.bbox == (7, 8, 19, 22)


def test_masks_from_reassigned_labels_keep_clustered_centers():
    dims = GridDims(4, 4)
    cloud = cloud_from(dims, [0, 5, 10, 15], [[1, 1], [1, 1], [3, 3], [3, 2]])
    labels = ClusterLabels(np.array([1, 1, 2, 0]), 2)
    traced = reassign_unlabeled(cloud, labels)
    got = instances_from_labels(cloud, labels, traced)
    assert [list(np.flatnonzero(inst.mask.pixels)) for inst in got] == [[0, 5], [10, 15]]
    assert [inst.predicted_center for inst in got] == [(1.0, 1.0), (3.0, 3.0)]
    assert [inst.score for inst in got] == [1.0, 0.5]
    with pytest.raises(ValueError, match="mask groups"):
        instances_from_labels(cloud, labels, ClusterLabels(np.array([1, 1, 1, 1]), 1))


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


def test_grid_dbscan_matches_naive_on_retained_votes():
    _, sem, off, _ = make_two_piglet_frame()
    cfg = PipelineConfig(min_pts=10, min_neighbors=5)
    cloud = filter_centers(
        generate_centers(sem, off), radius_t=cfg.t, min_neighbors=cfg.min_neighbors, strategy=cfg.filter_strategy
    )
    votes = cloud.positions[~cloud.filtered]
    labels = dbscan(votes, cfg.eps, cfg.min_pts)
    assert labels.n_groups == 2
    assert labels == dbscan_naive(votes, cfg.eps, cfg.min_pts)


def test_full_scale_frame_memory(tmp_path):
    # the first FULLRES_GOLDEN frame at t=20 eps=2.5 min_pts=50, its maps
    # read and the frame segmented once before tracing: with the offset-magnitude filter the votes are
    # built in place and tested in blocks (the parent peaked at 10.7 MiB);
    # the density filter's count sets its own peak (32.7 MiB)
    scene = tmp_path / "scene.cfg"
    scene.write_text(FULLRES_SCENE)
    assert main(["synth", str(scene), "--out-dir", str(tmp_path), "--frames", "1"]) == 0
    sem = formats.read_semantic(tmp_path / "frame_0000.ccsm")
    off = formats.read_offsets(tmp_path / "frame_0000.ccof")
    for strategy, bound in (("offset-magnitude", 9), ("density", 36)):
        cfg = PipelineConfig(t=20.0, eps=2.5, min_pts=50, filter_strategy=strategy)
        segment_frame(sem, off, cfg)
        tracemalloc.start()
        try:
            segment_frame(sem, off, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= bound * 2**20, f"{strategy}: tracemalloc peak {peak / 2**20:.2f} MiB"


def _instance(mask=None, center=(1.0, 1.0)):
    dims = GridDims(4, 3)
    return Instance(BinaryMask.full(dims) if mask is None else mask, center, "piglet", 0.5)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: _instance(mask=BinaryMask.empty(GridDims(4, 3))), "instance mask must cover at least one pixel"),
        (lambda: _instance(center=(float("nan"), 1.0)), "predicted_center must be finite"),
        (lambda: _instance(center=(1.0, float("inf"))), "predicted_center must be finite"),
        (
            lambda: instances_from_labels(
                cloud_from(GridDims(4, 3), [0, 1, 2], np.zeros((3, 2))), ClusterLabels(np.array([1, 1]), 1)
            ),
            "2 labels for 3 votes",
        ),
    ],
)
def test_instances_validation_errors(make, message):
    with pytest.raises(ValueError) as info:
        make()
    assert info.type is ValueError and str(info.value) == message
