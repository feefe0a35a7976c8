"""Grid and mask primitives shared by the whole pipeline.

Coordinate convention, fixed repo-wide: origin at the top-left corner,
x = column (rightward), y = row (downward); offset vectors are (dx, dy)
in the same frame. Flat pixel indices are row-major: p = y * width + x.

All types are immutable after construction (backing arrays are marked
read-only) and safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

BACKGROUND = 0
PIGLET = 1
SOW = 2

CLASS_PIGLET = "piglet"
CLASS_SOW = "sow"


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

    def flat_index(self, x: int, y: int) -> int:
        if not (0 <= x < self.width and 0 <= y < self.height):
            raise ValueError(f"pixel ({x}, {y}) out of bounds for {self.width}x{self.height}")
        return y * self.width + x

    def coords(self, p: int) -> tuple[int, int]:
        if not (0 <= p < self.npixels):
            raise ValueError(f"flat index {p} out of bounds for {self.width}x{self.height}")
        return (p % self.width, p // self.width)


def bounding_box(arr: np.ndarray) -> tuple[int, int, int, int]:
    """Half-open box ``(row0, row1, col0, col1)`` of the nonzero entries of
    a 2-D array, from two ``any`` reductions; ``(0, 0, 0, 0)`` when there
    are none."""
    rows = np.flatnonzero(arr.any(axis=1))
    if rows.size == 0:
        return (0, 0, 0, 0)
    r0, r1 = int(rows[0]), int(rows[-1]) + 1
    cols = np.flatnonzero(arr[r0:r1].any(axis=0))
    return (r0, r1, int(cols[0]), int(cols[-1]) + 1)


@dataclass(frozen=True, eq=False)
class BinaryMask:
    """A set of pixels on a grid, stored as a boolean (rows, cols) array.

    ``bbox`` and ``area`` are computed on first use and cached; that is
    safe because ``pixels`` is read-only.
    """

    dims: GridDims
    pixels: np.ndarray

    def __post_init__(self) -> None:
        px = np.asarray(self.pixels, dtype=bool)
        if px.shape != self.dims.shape:
            raise ValueError(f"mask shape {px.shape} does not match dims {self.dims.shape}")
        object.__setattr__(self, "pixels", _frozen(px))

    @classmethod
    def empty(cls, dims: GridDims) -> "BinaryMask":
        return cls(dims, np.zeros(dims.shape, dtype=bool))

    @classmethod
    def full(cls, dims: GridDims) -> "BinaryMask":
        return cls(dims, np.ones(dims.shape, dtype=bool))

    @classmethod
    def from_flat_indices(cls, dims: GridDims, indices) -> "BinaryMask":
        idx = np.asarray(indices, dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= dims.npixels):
            raise ValueError("flat index out of bounds")
        flat = np.zeros(dims.npixels, dtype=bool)
        flat[idx] = True
        return cls(dims, flat.reshape(dims.shape))

    @cached_property
    def bbox(self) -> tuple[int, int, int, int]:
        """Bounding box of the set pixels, see :func:`bounding_box`."""
        return bounding_box(self.pixels)

    @cached_property
    def area(self) -> int:
        r0, r1, c0, c1 = self.bbox
        return int(np.count_nonzero(self.pixels[r0:r1, c0:c1]))

    def __eq__(self, other) -> bool:
        if not isinstance(other, BinaryMask):
            return NotImplemented
        return self.dims == other.dims and np.array_equal(self.pixels, other.pixels)

    def __hash__(self):
        return hash((self.dims, self.pixels.tobytes()))


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


def rle_encode(mask: BinaryMask) -> list[int]:
    """Run-length counts of a mask in row-major order.

    Counts alternate unset/set runs and always start with the unset run
    (zero if the first pixel is set); they sum to width * height. Runs
    spanning a row boundary are merged, so the encoding is canonical:
    only the leading count may be zero.

    Only the rows of the cached ``bbox`` are scanned: the rows above it
    join the leading unset run and the rows below it the trailing one.
    """
    r0, r1, _, _ = mask.bbox
    if r0 == r1:
        return [mask.dims.npixels]
    width = mask.dims.width
    band = mask.pixels[r0:r1].ravel()
    starts = np.concatenate(([0], np.flatnonzero(np.diff(band)) + 1, [band.size]))
    counts = np.diff(starts).tolist()
    if band[0]:
        counts.insert(0, 0)
    counts[0] += r0 * width
    below = (mask.dims.height - r1) * width
    if not band[-1]:
        counts[-1] += below
    elif below:
        counts.append(below)
    return counts


def rle_decode(counts, dims: GridDims) -> BinaryMask:
    """Inverse of :func:`rle_encode`.

    Accepts zero-length runs anywhere (the alternation simply continues),
    so any counts list that sums to width * height decodes.
    """
    counts = [int(c) for c in counts]
    if any(c < 0 for c in counts):
        raise ValueError("run lengths must be non-negative")
    total = sum(counts)
    if total != dims.npixels:
        raise ValueError(
            f"run lengths sum to {total}, expected {dims.npixels} for {dims.width}x{dims.height}"
        )
    values = np.arange(len(counts)) % 2 == 1
    flat = np.repeat(values, counts)
    return BinaryMask(dims, flat.reshape(dims.shape))
