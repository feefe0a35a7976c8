"""Center vote generation and outlier filtering."""

import numpy as np
import pytest

from centerseg import (
    DimensionMismatch,
    GridDims,
    OffsetMap,
    SemanticMap,
    filter_centers,
    generate_centers,
)


def make_maps(dims, piglet_xy, offsets_by_xy=None):
    labels = np.zeros(dims.shape, dtype=np.uint8)
    vec = np.zeros((*dims.shape, 2), dtype=np.float32)
    for x, y in piglet_xy:
        labels[y, x] = 1
        if offsets_by_xy:
            vec[y, x] = offsets_by_xy[(x, y)]
    return SemanticMap(dims, labels), OffsetMap(dims, vec)


def test_zero_offsets_vote_own_pixel():
    dims = GridDims(6, 5)
    pix = [(1, 1), (4, 2), (0, 4)]
    sem, off = make_maps(dims, pix)
    cloud = generate_centers(sem, off)
    assert len(cloud) == 3
    got = {(x, y) for x, y in cloud.positions.tolist()}
    assert got == {(1.0, 1.0), (4.0, 2.0), (0.0, 4.0)}
    assert not cloud.filtered.any()


def test_offset_moves_vote():
    dims = GridDims(8, 8)
    sem, off = make_maps(dims, [(2, 1)], {(2, 1): (3.0, -1.0)})
    cloud = generate_centers(sem, off)
    assert cloud.positions[0].tolist() == [5.0, 0.0]


def test_coincident_votes():
    dims = GridDims(4, 4)
    pix = [(0, 0), (1, 0), (0, 1)]
    offs = {(x, y): (1.0 - x, 1.0 - y) for x, y in pix}
    sem, off = make_maps(dims, pix, offs)
    cloud = generate_centers(sem, off)
    assert len(cloud) == 3
    assert np.allclose(cloud.positions, [[1.0, 1.0]] * 3)


def test_votes_may_leave_grid():
    dims = GridDims(4, 4)
    sem, off = make_maps(dims, [(3, 3)], {(3, 3): (10.0, 10.0)})
    cloud = generate_centers(sem, off)
    assert cloud.positions[0].tolist() == [13.0, 13.0]


def test_dims_mismatch_rejected():
    sem, _ = make_maps(GridDims(4, 4), [(0, 0)])
    off = OffsetMap(GridDims(5, 4), np.zeros((4, 5, 2), dtype=np.float32))
    with pytest.raises(DimensionMismatch):
        generate_centers(sem, off)


def test_one_vote_per_piglet_pixel_and_ascending():
    rng = np.random.default_rng(3)
    dims = GridDims(20, 15)
    labels = (rng.random(dims.shape) < 0.3).astype(np.uint8)
    sem = SemanticMap(dims, labels)
    off = OffsetMap(dims, rng.normal(0, 2, (*dims.shape, 2)).astype(np.float32))
    cloud = generate_centers(sem, off)
    assert len(cloud) == int((labels == 1).sum())
    assert np.all(np.diff(cloud.source_pixels) > 0)
    # purity: same inputs, same cloud
    assert generate_centers(sem, off) == cloud


def test_translation_equivariance():
    rng = np.random.default_rng(11)
    dims = GridDims(16, 12)
    labels = (rng.random(dims.shape) < 0.4).astype(np.uint8)
    sem = SemanticMap(dims, labels)
    base = rng.normal(0, 3, (*dims.shape, 2)).astype(np.float32)
    shift = np.array([2.5, -1.25], dtype=np.float32)
    cloud_a = generate_centers(sem, OffsetMap(dims, base))
    cloud_b = generate_centers(sem, OffsetMap(dims, base + shift))
    assert np.allclose(cloud_b.positions - cloud_a.positions, shift.astype(np.float64))


def test_filter_min_neighbors_zero_keeps_all():
    rng = np.random.default_rng(5)
    dims = GridDims(30, 30)
    labels = (rng.random(dims.shape) < 0.2).astype(np.uint8)
    sem = SemanticMap(dims, labels)
    off = OffsetMap(dims, rng.normal(0, 5, (*dims.shape, 2)).astype(np.float32))
    cloud = filter_centers(generate_centers(sem, off), radius_t=1.0, min_neighbors=0, strategy="density")
    assert not cloud.filtered.any()


def test_filter_lone_outlier():
    # 60 coincident votes plus one vote 100 px away
    dims = GridDims(200, 2)
    labels = np.zeros(dims.shape, dtype=np.uint8)
    labels[0, :61] = 1
    vec = np.zeros((*dims.shape, 2), dtype=np.float32)
    for x in range(60):
        vec[0, x] = (50.0 - x, 0.0)
    vec[0, 60] = (150.0 - 60.0, 0.0)  # vote at x = 150, 100 px from the pack
    sem = SemanticMap(dims, labels)
    cloud = filter_centers(
        generate_centers(sem, OffsetMap(dims, vec)), radius_t=20.0, min_neighbors=10, strategy="density"
    )
    assert int(cloud.filtered.sum()) == 1
    assert bool(cloud.filtered[60])
    assert len(cloud) == 61  # votes are flagged, never deleted


def test_filter_matches_bruteforce():
    rng = np.random.default_rng(17)
    n = 300
    pos = rng.uniform(0, 60, (n, 2))
    dims = GridDims(400, 400)
    src = np.sort(rng.choice(dims.npixels, size=n, replace=False))
    from centerseg import CenterCloud

    cloud = CenterCloud(
        dims=dims,
        source_pixels=src,
        positions=pos,
        filtered=np.zeros(n, dtype=bool),
    )
    radius, need = 5.0, 4
    got = filter_centers(cloud, radius_t=radius, min_neighbors=need, strategy="density")
    d2 = ((pos[:, None, :] - pos[None, :, :]) ** 2).sum(-1)
    others = (d2 <= radius * radius).sum(1) - 1
    expected = ~(others >= need)
    assert np.array_equal(got.filtered, expected)


def test_filter_offset_magnitude_strategy():
    dims = GridDims(10, 10)
    labels = np.zeros(dims.shape, dtype=np.uint8)
    labels[0, 0] = labels[0, 1] = 1
    vec = np.zeros((*dims.shape, 2), dtype=np.float32)
    vec[0, 0] = (3.0, 4.0)  # magnitude 5
    vec[0, 1] = (6.0, 8.0)  # magnitude 10
    sem = SemanticMap(dims, labels)
    cloud = generate_centers(sem, OffsetMap(dims, vec))
    got = filter_centers(cloud, radius_t=5.0, min_neighbors=0, strategy="offset-magnitude")
    assert list(got.filtered) == [False, True]
    with pytest.raises(ValueError):
        filter_centers(cloud, radius_t=5.0, min_neighbors=0, strategy="nonsense")
