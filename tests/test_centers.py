"""Center vote generation and outlier filtering."""

from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from centerseg import (
    CenterCloud,
    DimensionMismatch,
    GridDims,
    OffsetMap,
    SemanticMap,
    centers,
    filter_centers,
    generate_centers,
)
from centerseg.clustering import neighbors_at_least


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


def test_source_pixel_coordinates_once_per_frame():
    dims = GridDims(7, 5)
    pix = [(0, 0), (6, 0), (3, 2), (6, 4)]
    sem, off = make_maps(dims, pix, {**dict.fromkeys(pix, (0.0, 0.0)), (3, 2): (1.5, -2.0)})
    cloud = generate_centers(sem, off)
    assert "_source_xy" in cloud.__dict__  # filled in, not computed again by the filter
    fresh = CenterCloud(cloud.dims, cloud.source_pixels, cloud.positions, cloud.filtered)
    for got, want in zip(cloud._source_xy, fresh._source_xy):
        assert np.array_equal(got, want) and got.dtype == np.float64 and not got.flags.writeable
    assert list(fresh._source_xy[0]) == [0.0, 6.0, 3.0, 6.0]
    assert list(fresh._source_xy[1]) == [0.0, 0.0, 2.0, 4.0]
    for t in (1.0, 2.5):
        got = filter_centers(cloud, radius_t=t, min_neighbors=0, strategy="offset-magnitude")
        assert got == filter_centers(fresh, radius_t=t, min_neighbors=0, strategy="offset-magnitude")
        assert list(got.filtered) == [False, False, t < 2.5, False]


TRIPLES = [(3, 4, 5), (5, 12, 13), (8, 15, 17), (12, 16, 20), (7, 24, 25)]
# the smallest and largest radii whose square is a normal float
T_MIN = float(np.sqrt(np.finfo(np.float64).tiny))
T_MAX = float(np.sqrt(np.finfo(np.float64).max))


@st.composite
def offsets_and_radius(draw):
    """``(dx, dy, t)``: t any radius the radius contract accepts, its two
    bounds included, and offsets of any float, on scaled Pythagorean
    triples and axis offsets within a few ulps of t, and at +-3e38."""
    t = draw(
        st.one_of(
            st.sampled_from([20.0, 10.0, 2.5, T_MIN, 1.5e-154, 1e150, 1.3e154, T_MAX, 3e38]),
            st.floats(min_value=T_MIN, max_value=T_MAX),
        )
    )

    def near(v):  # v moved by up to 3 ulps
        steps = draw(st.integers(-3, 3))
        for _ in range(abs(steps)):
            v = np.nextafter(v, np.inf if steps > 0 else -np.inf)
        return float(v)

    def offset():
        kind = draw(st.sampled_from(["any", "triple", "axis", "far"]))
        if kind == "any":
            return draw(st.floats()), draw(st.floats())
        sign = draw(st.sampled_from([-1.0, 1.0]))
        if kind == "triple":
            a, b, c = draw(st.sampled_from(TRIPLES))
            return near(sign * a * (t / c)), near(b * (t / c))
        if kind == "far":
            return draw(st.sampled_from([3e38, -3e38])), draw(st.sampled_from([3e38, -3e38, 0.0, 1.0]))
        return (near(sign * t), 0.0) if draw(st.booleans()) else (0.0, near(sign * t))

    pairs = [offset() for _ in range(draw(st.integers(1, 40)))]
    dx, dy = np.array(pairs, dtype=np.float64).reshape(-1, 2).T
    return dx.copy(), dy.copy(), t


def one_row_cloud(dx, dy):
    """One vote per pixel of a one-row frame, voting at its pixel + (dx, dy)."""
    n = dx.size
    return CenterCloud(GridDims(n, 1), np.arange(n), np.stack([np.arange(n) + dx, dy], 1), np.zeros(n, dtype=bool))


def offsets_at(t, pairs):
    dx, dy = np.array(pairs, dtype=np.float64).T
    return dx.copy(), dy.copy(), t


# offsets that np.hypot(dx, dy) <= t decides one way and dx*dx + dy*dy <= t*t
# the other (both ways at t = 7.3), then float32-range and non-finite offsets
HYPOT_DISAGREES = [
    offsets_at(20.0, [(12.000000000000002, 16.0), (7.69230769230769, 18.461538461538463),
                      (9.411764705882351, 17.647058823529413),
                      (3e38, -3e38), (-3e38, 0.0), (np.inf, 0.0), (0.0, -np.inf), (np.nan, 1.0)]),
    offsets_at(7.3, [(4.379999999999999, 5.840000000000001), (2.807692307692306, 6.738461538461539),
                     (3.4352941176470586, 6.4411764705882355), (2.0440000000000014, 7.008)]),
]


@settings(max_examples=400, deadline=None)
@given(case=offsets_and_radius())
@example(case=HYPOT_DISAGREES[0])
@example(case=HYPOT_DISAGREES[1])
def test_offset_magnitude_filter_is_the_closed_ball_rule(case):
    dx, dy, t = case
    cloud = one_row_cloud(dx, dy)
    # no errstate around the filter: a float32-range or non-finite vote raises no RuntimeWarning
    flagged = filter_centers(cloud, radius_t=t, min_neighbors=0, strategy="offset-magnitude").filtered
    ox, oy = cloud.positions[:, 0] - np.arange(len(cloud)), cloud.positions[:, 1]
    with np.errstate(over="ignore"):
        assert np.array_equal(flagged, ~(ox * ox + oy * oy <= t * t))


@settings(max_examples=100, deadline=None)
@given(case=offsets_and_radius())
@example(case=HYPOT_DISAGREES[0])
@example(case=HYPOT_DISAGREES[1])
def test_offset_magnitude_filter_keeps_a_vote_iff_it_neighbors_its_source_pixel(case):
    dx, dy, t = case
    cloud = one_row_cloud(dx, dy)
    kept = ~filter_centers(cloud, radius_t=t, min_neighbors=0, strategy="offset-magnitude").filtered
    for i, vote in enumerate(cloud.positions):
        pair = np.array([[i, 0.0], vote])
        assert kept[i] == neighbors_at_least(pair, t, 2)[1], (dx[i], dy[i], t)


@st.composite
def vote_maps(draw):
    """A semantic and an offset map: one-row and one-column frames among
    others, with no piglet pixel, every pixel a piglet, or any mix, and
    offsets of any float32 magnitude up to +-3e38."""
    width, height = draw(st.one_of(
        st.sampled_from([(1, 1), (1, 13), (13, 1)]), st.tuples(st.integers(1, 14), st.integers(1, 14))
    ))
    shape = (height, width)
    kind = draw(st.sampled_from(["none", "all", "mixed"]))
    if kind == "mixed":
        labels = draw(arrays(np.uint8, shape, elements=st.integers(0, 2)))
    else:
        labels = np.full(shape, 1 if kind == "all" else draw(st.sampled_from([0, 2])), dtype=np.uint8)
    far = float(np.float32(3e38))
    component = st.one_of(
        st.floats(-far, far, width=32), st.sampled_from([far, -far, 0.0]), st.floats(-30, 30, width=32)
    )
    vectors = draw(arrays(np.float32, (*shape, 2), elements=component))
    dims = GridDims(width, height)
    return SemanticMap(dims, labels), OffsetMap(dims, vectors)


@settings(max_examples=150, deadline=None)
@given(maps=vote_maps(), t=st.sampled_from([0.5, 2.5, 20.0]), k=st.integers(0, 4), block=st.sampled_from([1, 3, 4096]))
def test_built_clouds_equal_validated_ones(maps, t, k, block):
    sem, off = maps
    src = np.flatnonzero(sem.labels.ravel() == 1)
    vec = off.vectors.reshape(-1, 2)[src].astype(np.float64)
    xs, ys = (src % sem.dims.width).astype(np.float64), (src // sem.dims.width).astype(np.float64)
    want = CenterCloud(sem.dims, src, np.stack([xs + vec[:, 0], ys + vec[:, 1]], 1), np.zeros(src.size, dtype=bool))
    cloud = generate_centers(sem, off)
    assert cloud == want
    with np.errstate(over="ignore", invalid="ignore"):
        d2 = ((want.positions[:, None, :] - want.positions[None, :, :]) ** 2).sum(-1)
        flags = {
            "density": (d2 <= t * t).sum(1) - 1 < k,
            "offset-magnitude": ~((vec * vec).sum(1) <= t * t),
        }
    with mock.patch.object(centers, "_BLOCK", block):  # blocks of the offset-magnitude test
        for strategy, flagged in flags.items():
            got = filter_centers(cloud, radius_t=t, min_neighbors=k, strategy=strategy)
            assert got == replace(want, filtered=flagged)
    for c in (cloud, got):
        assert c.source_pixels.dtype == np.int64 and c.positions.dtype == np.float64 and c.filtered.dtype == bool
        assert c.positions.shape == (len(c), 2) and c.filtered.shape == (len(c),)
        assert not (c.source_pixels.flags.writeable or c.positions.flags.writeable or c.filtered.flags.writeable)
