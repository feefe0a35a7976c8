"""Grid primitives and the run-length mask codec."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from centerseg import BinaryMask, GridDims, rle_decode, rle_encode


def runs_by_scanning(bits):
    """Independent oracle: enumerate row-major bits into alternating runs."""
    runs, current, value = [], 0, False
    for b in bits:
        if bool(b) == value:
            current += 1
        else:
            runs.append(current)
            current, value = 1, bool(b)
    runs.append(current)
    return runs


def flat_mask(dims, indices):
    """The mask of the pixels at row-major flat ``indices``, cut from a full frame."""
    frame = np.zeros(dims.npixels, dtype=bool)
    frame[np.asarray(indices, dtype=np.int64)] = True
    return BinaryMask(dims, frame.reshape(dims.shape))


def test_dims_validation():
    with pytest.raises(ValueError):
        GridDims(0, 5)
    with pytest.raises(ValueError):
        GridDims(5, -1)


def test_rle_encode_examples():
    dims = GridDims(2, 2)
    mask = flat_mask(dims, [1, 2])  # pixels (1,0) and (0,1)
    assert rle_encode(mask).tolist() == runs_by_scanning([0, 1, 1, 0]) == [1, 2, 1]
    assert rle_encode(BinaryMask.empty(GridDims(3, 3))).tolist() == [9]
    assert rle_encode(BinaryMask.full(dims)).tolist() == [0, 4]
    assert rle_encode(mask).dtype == np.int64


def banded_edge_masks():
    """Masks whose set rows start or end mid-frame, at a row's first or last column."""
    dims = GridDims(5, 4)
    yield "first set pixel at column 0 below the first row", flat_mask(dims, [10, 11, 17])
    yield "last set pixel at the last column above the last row", flat_mask(dims, [6, 7, 14])
    yield "first flat pixel alone", flat_mask(dims, [0])
    yield "last flat pixel alone", flat_mask(dims, [19])
    yield "first and last flat pixels", flat_mask(dims, [0, 19])
    yield "one full middle row", flat_mask(dims, range(5, 10))
    yield "empty", BinaryMask.empty(dims)
    yield "full", BinaryMask.full(dims)
    yield "one pixel frame, set", BinaryMask.full(GridDims(1, 1))
    yield "one pixel frame, unset", BinaryMask.empty(GridDims(1, 1))
    yield "one column", flat_mask(GridDims(1, 6), [2, 3])
    yield "one row", flat_mask(GridDims(6, 1), [0, 5])


@pytest.mark.parametrize("name, mask", list(banded_edge_masks()))
def test_rle_encode_band_edges(name, mask):
    counts = rle_encode(mask)
    assert counts.tolist() == runs_by_scanning(mask.pixels.ravel()), name
    assert rle_decode(counts, mask.dims) == mask, name


def test_rle_decode_examples():
    assert rle_decode([9], GridDims(3, 3)) == BinaryMask.empty(GridDims(3, 3))
    assert rle_decode([0, 4], GridDims(2, 2)) == BinaryMask.full(GridDims(2, 2))
    # zero-length runs are legal input, the alternation just continues
    decoded = rle_decode([1, 1, 0, 1, 1], GridDims(2, 2))
    assert sorted(np.flatnonzero(decoded.pixels)) == [1, 2]
    assert decoded == rle_decode([1, 2, 1], GridDims(2, 2))


def test_rle_decode_sum_mismatch():
    with pytest.raises(ValueError, match="sum"):
        rle_decode([3, 2], GridDims(2, 2))
    with pytest.raises(ValueError):
        rle_decode([-1, 5], GridDims(2, 2))


def test_rle_round_trip_random():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        w = int(rng.integers(1, 24))
        h = int(rng.integers(1, 24))
        dims = GridDims(w, h)
        mask = BinaryMask(dims, rng.random((h, w)) < rng.random())
        counts = rle_encode(mask)
        assert sum(counts) == dims.npixels
        assert counts.tolist() == runs_by_scanning(mask.pixels.ravel())
        assert rle_decode(counts, dims) == mask


@settings(max_examples=60, deadline=None)
@given(
    w=st.integers(1, 12),
    h=st.integers(1, 12),
    bits=st.lists(st.booleans(), min_size=1, max_size=144),
)
def test_rle_round_trip_property(w, h, bits):
    dims = GridDims(w, h)
    flat = np.zeros(dims.npixels, dtype=bool)
    take = min(len(bits), dims.npixels)
    flat[:take] = bits[:take]
    mask = BinaryMask(dims, flat.reshape(dims.shape))
    assert rle_decode(rle_encode(mask), dims) == mask


def test_masks_are_immutable():
    mask = BinaryMask.empty(GridDims(3, 3))
    with pytest.raises(ValueError):
        mask.pixels[0, 0] = True
    decoded = rle_decode([3, 4, 1, 2, 10], GridDims(5, 4))
    assert decoded.bbox == (0, 2, 0, 5)
    for arr in (decoded.pixels, decoded.crop):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0, 0] = not arr[0, 0]
    assert rle_encode(decoded).tolist() == [3, 4, 1, 2, 10]


def test_mask_area_and_indices():
    dims = GridDims(5, 4)
    mask = flat_mask(dims, [0, 7, 19])
    assert mask.area == 3
    assert list(np.flatnonzero(mask.pixels)) == [0, 7, 19]


def test_bbox_and_area_of_empty_full_and_corner_pixels():
    dims = GridDims(5, 4)
    empty = BinaryMask.empty(dims)
    assert empty.bbox == (0, 0, 0, 0)
    assert empty.area == 0
    full = BinaryMask.full(dims)
    assert full.bbox == (0, 4, 0, 5)
    assert full.area == 20
    for x, y in [(0, 0), (4, 0), (0, 3), (4, 3)]:
        corner = flat_mask(dims, [y * dims.width + x])
        assert corner.bbox == (y, y + 1, x, x + 1)
        assert corner.area == 1


@settings(max_examples=80, deadline=None)
@given(
    w=st.integers(1, 9),
    h=st.integers(1, 9),
    bits=st.lists(st.booleans(), min_size=81, max_size=81),
)
def test_bbox_and_area_match_nonzero(w, h, bits):
    pixels = np.array(bits).reshape(9, 9)[:h, :w]
    mask = BinaryMask(GridDims(w, h), pixels)
    ys, xs = np.nonzero(pixels)
    expected = (0, 0, 0, 0) if ys.size == 0 else (ys.min(), ys.max() + 1, xs.min(), xs.max() + 1)
    assert mask.bbox == expected
    assert mask.area == int(pixels.sum())


def rle_decode_full_frame(counts, dims):
    """The decoder the crop decoder replaced: one np.repeat over the whole frame."""
    values = np.arange(len(counts)) % 2 == 1
    return np.repeat(values, [int(c) for c in counts]).reshape(dims.shape)


@st.composite
def runs_with_zeros(draw):
    """Dims and counts summing to width * height, zero-length runs anywhere."""
    dims = GridDims(draw(st.integers(1, 16)), draw(st.integers(1, 16)))
    cuts = sorted(draw(st.lists(st.integers(0, dims.npixels), max_size=24)))
    return dims, np.diff([0, *cuts, dims.npixels]).tolist()


@settings(max_examples=300, deadline=None)
@given(case=runs_with_zeros())
def test_rle_decode_matches_full_frame_decoder(case):
    dims, counts = case
    full = rle_decode_full_frame(counts, dims)
    mask = rle_decode(counts, dims)
    assert mask == BinaryMask(dims, full)
    assert np.array_equal(mask.pixels, full)
    assert mask.area == int(full.sum())
    assert rle_encode(mask).tolist() == runs_by_scanning(full.ravel())


@settings(max_examples=200, deadline=None)
@given(
    w=st.integers(1, 12),
    h=st.integers(1, 12),
    bits=st.lists(st.booleans(), min_size=144, max_size=144),
)
def test_equal_masks_from_every_constructor_are_equal_and_hash_equal(w, h, bits):
    dims = GridDims(w, h)
    full = np.array(bits).reshape(12, 12)[:h, :w]
    masks = [
        BinaryMask(dims, full),
        rle_decode(runs_by_scanning(full.ravel()), dims),
    ]
    if not full.any():
        masks.append(BinaryMask.empty(dims))
    if full.all():
        masks.append(BinaryMask.full(dims))
    for other in masks[1:]:
        assert other == masks[0]
        assert hash(other) == hash(masks[0])
        assert other.bbox == masks[0].bbox
    assert len(set(masks)) == 1
    flipped = full.copy()
    flipped[0, 0] = not flipped[0, 0]
    assert BinaryMask(dims, flipped) != masks[0]


@settings(max_examples=150, deadline=None)
@given(
    w=st.integers(1, 12),
    h=st.integers(1, 12),
    corner=st.tuples(st.integers(0, 11), st.integers(0, 11), st.integers(0, 12), st.integers(0, 12)),
    bits=st.lists(st.booleans(), min_size=144, max_size=144),
)
def test_mask_from_a_box_equals_mask_of_the_frame_holding_it(w, h, corner, bits):
    # a generator builds masks from the box a shape was computed over
    dims = GridDims(w, h)
    row0, col0 = min(corner[0], h), min(corner[1], w)
    rows, cols = min(corner[2], h - row0), min(corner[3], w - col0)
    box = np.array(bits).reshape(12, 12)[:rows, :cols]
    frame = np.zeros(dims.shape, dtype=bool)
    frame[row0 : row0 + rows, col0 : col0 + cols] = box
    mask = BinaryMask._from_box(dims, row0, col0, box)
    assert mask == BinaryMask(dims, frame)
    assert hash(mask) == hash(BinaryMask(dims, frame))


def test_mask_from_a_box_must_fit_the_frame():
    dims = GridDims(5, 4)
    for row0, col0, shape in [(-1, 0, (2, 2)), (0, -1, (2, 2)), (3, 0, (2, 2)), (0, 4, (2, 2)), (0, 0, (4, 6))]:
        with pytest.raises(ValueError, match="does not fit"):
            BinaryMask._from_box(dims, row0, col0, np.ones(shape, dtype=bool))


def test_decoded_full_scale_instance_holds_its_box_not_the_frame():
    dims = GridDims(1280, 720)
    ys, xs = np.mgrid[:720, :1280]
    blob = ((xs - 900) / 40.0) ** 2 + ((ys - 300) / 25.0) ** 2 <= 1.0  # an 81x51 box
    counts = rle_encode(BinaryMask(dims, blob))
    del ys, xs
    frame_bytes = dims.npixels  # one boolean frame, as the full-frame decoder held and built
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        mask = rle_decode(counts, dims)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert mask == BinaryMask(dims, blob)
    assert mask.crop.nbytes == 81 * 51
    assert held - before < 2 * mask.crop.nbytes + 4096
    assert peak - before < frame_bytes // 4
