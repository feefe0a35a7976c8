"""Per-pixel center votes and the pre-clustering outlier filter.

Every piglet-labeled pixel casts one vote at pixel + offset. Votes keep
their source pixel index so clustered votes can be traced back to masks.
Filtering never deletes votes, it only flags them; flagged votes skip
clustering and can be reclaimed later by the residual reassignment step.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .clustering import _radius, neighbors_at_least
from .grids import PIGLET, DimensionMismatch, GridDims, OffsetMap, SemanticMap, _frozen

FILTER_DENSITY = "density"
FILTER_OFFSET_MAGNITUDE = "offset-magnitude"


@dataclass(frozen=True, eq=False)
class CenterCloud:
    """All votes of one frame, ordered by ascending source pixel."""

    dims: GridDims
    source_pixels: np.ndarray  # (n,) int64, strictly ascending
    positions: np.ndarray  # (n, 2) float64, may lie outside the grid
    filtered: np.ndarray  # (n,) bool

    def __post_init__(self) -> None:
        src = np.asarray(self.source_pixels, dtype=np.int64)
        pos = np.asarray(self.positions, dtype=np.float64).reshape(-1, 2)
        flt = np.asarray(self.filtered, dtype=bool)
        n = src.size
        if pos.shape[0] != n or flt.size != n:
            raise ValueError("cloud arrays must have equal length")
        if n:
            if src.min() < 0 or src.max() >= self.dims.npixels:
                raise ValueError("source pixel out of bounds")
            if np.any(np.diff(src) <= 0):
                raise ValueError("source pixels must be strictly ascending")
        object.__setattr__(self, "source_pixels", _frozen(src))
        object.__setattr__(self, "positions", _frozen(pos))
        object.__setattr__(self, "filtered", _frozen(flt))

    @classmethod
    def _trusted(
        cls, dims: GridDims, source_pixels: np.ndarray, positions: np.ndarray, filtered: np.ndarray
    ) -> "CenterCloud":
        """A cloud valid by construction: int64 source pixels strictly
        ascending within the grid, (n, 2) float64 positions and n bool
        flags, which it keeps (no check or copy)."""
        out = cls.__new__(cls)
        object.__setattr__(out, "dims", dims)
        object.__setattr__(out, "source_pixels", _frozen(source_pixels))
        object.__setattr__(out, "positions", _frozen(positions))
        object.__setattr__(out, "filtered", _frozen(filtered))
        return out

    def __len__(self) -> int:
        return int(self.source_pixels.size)

    @cached_property
    def _source_xy(self) -> tuple[np.ndarray, np.ndarray]:
        """Column and row of each vote's source pixel, as floats; computed
        on first use, or filled in by :func:`generate_centers`."""
        w = self.dims.width
        return (
            _frozen((self.source_pixels % w).astype(np.float64)),
            _frozen((self.source_pixels // w).astype(np.float64)),
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, CenterCloud):
            return NotImplemented
        return (
            self.dims == other.dims
            and np.array_equal(self.source_pixels, other.source_pixels)
            and np.array_equal(self.positions, other.positions)
            and np.array_equal(self.filtered, other.filtered)
        )


def generate_centers(semantic: SemanticMap, offsets: OffsetMap) -> CenterCloud:
    """One vote per piglet pixel at pixel coordinate + offset vector.

    Positions are not clamped; clustering happens in continuous space
    and votes may legitimately fall outside the grid.
    """
    if semantic.dims != offsets.dims:
        raise DimensionMismatch(
            f"semantic {semantic.dims.width}x{semantic.dims.height} vs "
            f"offsets {offsets.dims.width}x{offsets.dims.height}"
        )
    src = np.flatnonzero(semantic.labels.ravel() == PIGLET)
    xs = np.empty(src.size)
    ys = np.empty(src.size)
    np.divmod(src, semantic.dims.width, out=(ys, xs))
    # one gather of the offset rows, then the pixel coordinates added in
    # place: the same float64 sums as pixel + offset, built in one array
    pos = offsets.vectors.reshape(-1, 2).take(src, axis=0).astype(np.float64)
    pos[:, 0] += xs
    pos[:, 1] += ys
    cloud = CenterCloud._trusted(semantic.dims, src, pos, np.zeros(src.size, dtype=bool))
    cloud.__dict__["_source_xy"] = (_frozen(xs), _frozen(ys))  # for the offset-magnitude filter
    return cloud


# votes per block of the offset-magnitude test, which bounds its temporaries
_BLOCK = 1 << 15


def filter_centers(cloud: CenterCloud, radius_t: float, min_neighbors: int, strategy: str) -> CenterCloud:
    """Flag outlier votes before clustering.

    ``density``: a vote is retained iff at least
    ``min_neighbors`` OTHER votes lie within ``radius_t`` of it.
    ``offset-magnitude``: retained iff its displacement from the source
    pixel is at most ``radius_t`` by the closed-ball rule of
    :mod:`.clustering`, ``dx*dx + dy*dy <= radius_t*radius_t`` in float64:
    exactly when :func:`.neighbors_at_least` counts the vote and its
    source pixel as neighbors at ``radius_t``.

    The vote count never changes; previously set flags are recomputed.
    """
    radius_t = _radius(radius_t, "radius_t")
    if min_neighbors < 0:
        raise ValueError("min_neighbors must be >= 0")
    if strategy == FILTER_DENSITY:
        # the vote itself is one of the points within radius_t
        keep = neighbors_at_least(cloud.positions, radius_t, min_neighbors + 1)
    elif strategy == FILTER_OFFSET_MAGNITUDE:
        px, py = cloud._source_xy
        pos = cloud.positions
        tt = radius_t * radius_t
        keep = np.empty(len(cloud), dtype=bool)
        with np.errstate(over="ignore"):
            for i in range(0, len(cloud), _BLOCK):
                j = slice(i, i + _BLOCK)
                dx = pos[j, 0] - px[j]
                dy = pos[j, 1] - py[j]
                keep[j] = dx * dx + dy * dy <= tt
    else:
        raise ValueError(f"unknown filter strategy: {strategy!r}")
    return CenterCloud._trusted(cloud.dims, cloud.source_pixels, cloud.positions, ~keep)
