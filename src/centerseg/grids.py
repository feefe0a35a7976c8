"""Grid and mask primitives shared by the whole pipeline.

Coordinate convention, fixed repo-wide: origin at the top-left corner,
x = column (rightward), y = row (downward); offset vectors are (dx, dy)
in the same frame. Flat pixel indices are row-major: p = y * width + x.

All types are immutable after construction (backing arrays are marked
read-only) and safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

BACKGROUND = 0
PIGLET = 1
SOW = 2

CLASS_PIGLET = "piglet"
CLASS_SOW = "sow"

# 8192 x 8192: the largest frame a manifest header or a scene file may
# ask for, so neither can make the program allocate without bound
MAX_FRAME_PIXELS = 2**26


class DimensionMismatch(ValueError):
    """Two grids that must share dimensions do not."""


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class GridDims:
    """Pixel grid size: width = columns, height = rows."""

    width: int
    height: int

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1:
            raise ValueError(f"grid must be at least 1x1, got {self.width}x{self.height}")

    @property
    def npixels(self) -> int:
        return self.width * self.height

    @property
    def shape(self) -> tuple[int, int]:
        """Numpy array shape (rows, cols)."""
        return (self.height, self.width)


@dataclass(frozen=True, eq=False, init=False)
class BinaryMask:
    """A set of pixels on a grid, stored as its bounding box and the crop.

    ``bbox`` is the half-open box ``(row0, row1, col0, col1)`` of the set
    pixels, ``(0, 0, 0, 0)`` when there are none, and ``crop`` the
    read-only boolean array of that box. The box is tight (the crop's
    first and last rows and columns each hold a set pixel), so equal
    pixel sets have equal fields. ``BinaryMask(dims, pixels)`` takes a
    full (rows, cols) frame and crops it; ``pixels`` builds that frame
    again on each access, and the pipeline itself reads only the crop.
    """

    dims: GridDims
    bbox: tuple[int, int, int, int]
    crop: np.ndarray
    area: int

    def __init__(self, dims: GridDims, pixels) -> None:
        px = np.asarray(pixels, dtype=bool)
        if px.shape != dims.shape:
            raise ValueError(f"mask shape {px.shape} does not match dims {dims.shape}")
        self._set_tight(dims, 0, 0, px)

    def _set_tight(self, dims: GridDims, row0: int, col0: int, px: np.ndarray) -> None:
        """Set the mask to the pixels of ``px``, a box of the frame whose
        top-left pixel is (row0, col0): the box shrinks to the set pixels
        and their crop is copied."""
        rows = np.flatnonzero(px.any(axis=1))
        if not rows.size:
            self._set(dims, (0, 0, 0, 0), np.zeros((0, 0), dtype=bool))
            return
        r0, r1 = int(rows[0]), int(rows[-1]) + 1
        cols = np.flatnonzero(px[r0:r1].any(axis=0))
        c0, c1 = int(cols[0]), int(cols[-1]) + 1
        self._set(dims, (row0 + r0, row0 + r1, col0 + c0, col0 + c1), px[r0:r1, c0:c1].copy())

    def _set(self, dims: GridDims, bbox: tuple[int, int, int, int], crop: np.ndarray) -> None:
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "bbox", bbox)
        object.__setattr__(self, "crop", _frozen(crop))
        object.__setattr__(self, "area", int(np.count_nonzero(crop)))

    @classmethod
    def _from_crop(cls, dims: GridDims, bbox: tuple[int, int, int, int], crop: np.ndarray) -> "BinaryMask":
        """A mask from a tight box and its crop, which it keeps (no copy)."""
        mask = cls.__new__(cls)
        mask._set(dims, bbox, crop)
        return mask

    @classmethod
    def _from_box(cls, dims: GridDims, row0: int, col0: int, pixels: np.ndarray) -> "BinaryMask":
        """The set pixels of ``pixels``, a boolean box of the frame whose
        top-left pixel is (row0, col0); equal to ``BinaryMask`` of the whole
        frame with that box placed in it."""
        rows, cols = pixels.shape
        if not (0 <= row0 and row0 + rows <= dims.height and 0 <= col0 and col0 + cols <= dims.width):
            raise ValueError(f"box {rows}x{cols} at ({row0}, {col0}) does not fit in dims {dims.shape}")
        mask = cls.__new__(cls)
        mask._set_tight(dims, row0, col0, np.asarray(pixels, dtype=bool))
        return mask

    @classmethod
    def empty(cls, dims: GridDims) -> "BinaryMask":
        return cls._from_crop(dims, (0, 0, 0, 0), np.zeros((0, 0), dtype=bool))

    @classmethod
    def full(cls, dims: GridDims) -> "BinaryMask":
        return cls._from_crop(dims, (0, dims.height, 0, dims.width), np.ones(dims.shape, dtype=bool))

    @property
    def pixels(self) -> np.ndarray:
        """The full (rows, cols) frame, read-only, built anew on each access."""
        out = np.zeros(self.dims.shape, dtype=bool)
        r0, r1, c0, c1 = self.bbox
        out[r0:r1, c0:c1] = self.crop
        return _frozen(out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BinaryMask):
            return NotImplemented
        return self.dims == other.dims and self.bbox == other.bbox and np.array_equal(self.crop, other.crop)

    def __hash__(self):
        return hash((self.dims, self.bbox, self.crop.tobytes()))


@dataclass(frozen=True, eq=False)
class SemanticMap:
    """Per-pixel class grid: 0 = background, 1 = piglet, 2 = sow."""

    dims: GridDims
    labels: np.ndarray

    def __post_init__(self) -> None:
        lab = np.asarray(self.labels, dtype=np.uint8)
        if lab.shape != self.dims.shape:
            raise ValueError(f"labels shape {lab.shape} does not match dims {self.dims.shape}")
        if lab.size and lab.max() > SOW:
            raise ValueError("labels must be in {0, 1, 2}")
        object.__setattr__(self, "labels", _frozen(lab))

    def class_mask(self, label: int) -> BinaryMask:
        return BinaryMask(self.dims, self.labels == label)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SemanticMap):
            return NotImplemented
        return self.dims == other.dims and np.array_equal(self.labels, other.labels)


@dataclass(frozen=True, eq=False)
class OffsetMap:
    """Per-pixel (dx, dy) displacement grid pointing toward object centers.

    Stored as float32, the on-disk precision, so a map written to a file
    re-parses to an equal value.
    """

    dims: GridDims
    vectors: np.ndarray

    def __post_init__(self) -> None:
        vec = np.asarray(self.vectors, dtype=np.float32)
        if vec.shape != (*self.dims.shape, 2):
            raise ValueError(f"vectors shape {vec.shape} does not match dims {self.dims.shape} + (2,)")
        if not np.all(np.isfinite(vec)):
            raise ValueError("offset components must be finite")
        object.__setattr__(self, "vectors", _frozen(vec))

    def __eq__(self, other) -> bool:
        if not isinstance(other, OffsetMap):
            return NotImplemented
        return self.dims == other.dims and np.array_equal(self.vectors, other.vectors)


def rle_encode(mask: BinaryMask) -> np.ndarray:
    """Run-length counts of a mask in row-major order, as a 1-D int64 array.

    Counts alternate unset/set runs and always start with the unset run
    (zero if the first pixel is set); they sum to width * height. Runs
    spanning a row boundary are merged, so the encoding is canonical:
    only the leading count may be zero.

    The runs are read from the crop, then placed at their frame offsets.
    A clear column after each crop row ends the row's runs there, unless
    the crop spans whole frame rows: then a run that ends a row goes on
    into the next.
    """
    if mask.area == 0:
        return np.array([mask.dims.npixels], dtype=np.int64)
    r0, _, c0, _ = mask.bbox
    rows, cols = mask.crop.shape
    width = mask.dims.width
    stride = cols + (cols < width)
    flat = np.zeros(rows * stride + 2, dtype=bool)  # a clear pixel before the first row and after the last
    flat[1:-1].reshape(rows, stride)[:, :cols] = mask.crop
    change = np.flatnonzero(flat[1:] != flat[:-1])  # each run's start, then its end
    # strided index i is crop row i // stride and column i % stride, so frame pixel
    # (r0 + i // stride) * width + c0 + i % stride: the edges between runs, with 0 and npixels
    edges = np.empty(change.size + 2, dtype=np.int64)
    edges[0], edges[-1] = 0, mask.dims.npixels
    edges[1:-1] = change + (change // stride) * (width - stride) + (r0 * width + c0)
    counts = edges[1:] - edges[:-1]
    return counts[:-1] if counts[-1] == 0 else counts


def rle_decode(counts, dims: GridDims) -> BinaryMask:
    """Inverse of :func:`rle_encode`.

    The counts are a 1-D integer array, or a sequence of ints (not
    bools); they must be non-negative and sum to width * height.
    Zero-length runs are accepted anywhere (the alternation simply
    continues). Only the set pixels are written, into a crop of their
    box, so the cost follows the number of runs plus the mask's area,
    not the frame's.
    """
    if isinstance(counts, np.ndarray):
        if counts.ndim != 1 or counts.dtype.kind not in "iu":
            raise ValueError(f"run lengths must be a 1-D integer array, got {counts.ndim}-D {counts.dtype}")
        runs = counts
    else:
        bad = set(map(type, counts)) - {int}
        if bad:
            raise ValueError(f"run lengths must be integers, got {', '.join(sorted(t.__name__ for t in bad))}")
        try:
            runs = np.fromiter(counts, dtype=np.int64, count=len(counts))
        except OverflowError:
            raise ValueError(f"run length out of range for {dims.width}x{dims.height}") from None
    if runs.size and runs.min() < 0:
        raise ValueError("run lengths must be non-negative")
    total = None
    if runs.size and runs.max() <= dims.npixels:  # then the int64 cumulative sum cannot wrap around
        runs = runs.astype(np.int64, copy=False)
        ends = np.cumsum(runs)
        total = int(ends[-1])
    if total != dims.npixels:
        raise ValueError(
            f"run lengths sum to {sum(runs.tolist())}, expected {dims.npixels} for {dims.width}x{dims.height}"
        )
    starts, ends = ends[:-1:2], ends[1::2]  # each set run starts where the unset run before it ends
    nonempty = ends > starts
    starts, ends = starts[nonempty], ends[nonempty]
    if starts.size == 0:
        return BinaryMask.empty(dims)
    # each set run's columns [lo, hi) in its first row; hi > w when it goes on into later rows
    w = dims.width
    row = starts // w
    lo = starts - row * w
    hi = ends - row * w
    c1 = int(hi.max())
    if c1 > w:  # cut the runs at row boundaries into pieces, one per row
        n_rows = (hi - 1) // w + 1
        run = np.repeat(np.arange(starts.size), n_rows)
        k = np.arange(run.size) - (np.cumsum(n_rows) - n_rows)[run]  # each piece's row within its run
        row = row[run] + k
        lo = np.maximum(lo[run] - k * w, 0)
        hi = np.minimum(hi[run] - k * w, w)
        c1 = int(hi.max())
    r0, r1 = int(row[0]), int(row[-1]) + 1
    c0 = int(lo.min())
    crop = np.zeros((r1 - r0, c1 - c0), dtype=bool)
    lengths = hi - lo
    first = (row - r0) * (c1 - c0) + (lo - c0)  # each piece's first pixel in the flat crop
    done = np.cumsum(lengths)
    pixels = np.repeat(first - (done - lengths), lengths) + np.arange(int(done[-1]))
    crop.reshape(-1)[pixels] = True
    return BinaryMask._from_crop(dims, (r0, r1, c0, c1), crop)
