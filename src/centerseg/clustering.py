"""Clustering of 2-D vote positions.

DBSCAN contract, shared by :func:`dbscan` and the independent
:func:`dbscan_naive` oracle, which must agree bit for bit:
  - a radius (``eps`` here; also the grid index's, mean-shift's
    ``bandwidth`` and the vote filter's ``t``) is a float ``r > 0`` with
    ``r*r`` a normal float, about 1.49e-154 to 1.34e154; :func:`_radius`
    checks every one and raises ValueError for any other value;
  - neighborhoods are closed balls: q is a neighbor of p iff
    ``dx*dx + dy*dy <= eps*eps`` in float64, p itself included;
  - p is a core point iff it has at least ``min_pts`` neighbors, and
    cores linked by chains of core neighbors form one cluster;
  - clusters are numbered 1, 2, ... by their lowest core index;
  - each border point (not core, with a core neighbor) joins the
    lowest-numbered cluster that has a core within ``eps`` of it;
    every other point keeps label 0.

:func:`dbscan` computes this with the count-then-connect grid method of
Gan & Tao (SIGMOD 2015, "DBSCAN Revisited") and de Berg, Gunawan &
Roeloffzen (ISAAC 2017). Points are sorted into square cells of side
just under eps/sqrt(2), so every neighbor of a point lies in the 5x5
block of cells around its own, and every two points of one cell are
within ``eps`` of each other (the cell margin below). Each cell splits
into 2x2 sub-cells of half the side, and the 3x3 block of sub-cells
around a point's own is within ``eps`` of it too. Count: a cell of at
least ``min_pts`` points is all core, and so is a point whose 3x3
sub-cell block holds that many; other points add or skip whole
neighbor cells by bounding-box bounds. A point still undecided splits
each partly covered cell into its sub-cells and adds or skips those by
their own boxes; it tests single pairs only against sub-cells still
partly covered, and only if it is still undecided. Connect: the cores
of a cell form one set, and union-find joins core cells that hold a
core pair within ``eps``; border points then take the lowest cluster
among their core neighbors. Float rounding is monotone, so every
bounding-box shortcut agrees with the per-pair float test, whatever the
boxes; where a bound cannot decide, the pairs are tested.

The cell margin, with u = 2**-53: the side ``eps / sqrt(2) * _SHRINK``
is rounded three times, so it is at most ``eps / sqrt(2) * _SHRINK *
(1 + 3.01u)``. A cell coordinate is rounded twice: ``v - min`` in half
sides, at most 2**31, is off by under 2**-20 half sides; on the wide
path of :func:`_axis_cells`, ``v`` less its run's origin in sides, at
most 2**30, by under 2**-21 sides. Two points of one cell are then
under ``side * (1 + 2**-20)`` apart along each axis. So are two points
whose sub-cell coordinates differ by at most one along each axis, as
those of one cell do: their rounded coordinates in half sides then lie
in some ``[a, a + 2)``, under one side apart, and the true ones under
``side * (1 + 2**-20)``. That bounds the 3x3 block of sub-cells around
a point's own. On the wide path a cell is one sub-cell, whose
coordinate is twice the cell's, so along that axis the block reaches
no further than the point's own cell. The pair test rounds the two
differences, the two squares and the sum, each by at most u of its
value, and a square that underflows by at most 2**-1075,
no more than ``u * eps*eps`` as that is a normal float. So the test's
value is at most ``eps*eps * (_SHRINK**2 * (1 + 2**-18) + 4u)``, which
lies below the float ``eps*eps`` for ``_SHRINK = 1 - 2**-19``, though
not for ``1 - 2**-20``. On the wide path a coordinate stops at its cap of
2**30 only in a run spanning 2**30 cells, each vote within ``2*eps`` of
the next: over 2**28 votes. Run origins are sums of at most 7 cells a
vote, exact in float64, so two runs never share a cell.

Before the grid is built, a screen leaves out votes that are noise for
certain. The finite votes are counted in one dense histogram of square
coarse cells of side ``eps * _COARSE``, 2**-16 above ``2*eps``. A vote
whose 3x3 block of coarse cells holds fewer than ``min_pts`` votes has
fewer than ``min_pts`` votes within ``2*eps``, so neither it nor any
vote within ``eps`` of it is core: it is noise, and leaving it out
changes no other vote's decision. The votes kept go through the grid in
ascending order, so clusters keep their lowest-core numbering.

The screen's float margin: as ``eps*eps`` is a normal float, a pair test
within ``eps`` means a real distance of at most ``eps * (1 + 2**-51)``,
rounding and underflow included, so two votes joined by two pair tests
are at most ``2*eps * (1 + 2**-51)`` apart along each axis. The side is
rounded once, and a coarse coordinate ``(v - min) / side`` twice, so
the coordinate is off by at most 2**-52 times the cells along its axis:
2**-22 at most, as the screen runs only on grids of at most 2**30
cells. The two votes' coordinates then differ by at most
``(1 + 2**-50) / (1 + 2**-16) + 2**-21 < 1``, so their coarse cells are
equal or adjacent. On a grid of more than ``_TABLE_CELLS`` cells a vote
(float32-range votes, say), nothing is left out.

Both vote filters hold their radius ``t`` to the same closed-ball rule:
the density filter counts a vote's neighbors by it, and the
offset-magnitude filter keeps a vote iff ``dx*dx + dy*dy <= t*t`` in
float64 for the vote's offset from its source pixel.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, eq=False)
class ClusterLabels:
    """Per-point group labels: 0 = noise/unassigned, 1..n_groups = clusters."""

    labels: np.ndarray
    n_groups: int

    def __post_init__(self) -> None:
        lab = np.asarray(self.labels, dtype=np.int64)
        if lab.ndim != 1:
            raise ValueError("labels must be 1-D")
        if lab.size:
            if lab.min() < 0 or lab.max() > self.n_groups:
                raise ValueError("labels must lie in [0, n_groups]")
            if not np.bincount(lab, minlength=self.n_groups + 1)[1:].all():
                raise ValueError("every group in 1..n_groups must be non-empty")
        elif self.n_groups != 0:
            raise ValueError("empty label list cannot have groups")
        lab.flags.writeable = False
        object.__setattr__(self, "labels", lab)

    @classmethod
    def _trusted(cls, labels: np.ndarray, n_groups: int) -> "ClusterLabels":
        """Labels valid by construction: an int64 array in ``[0, n_groups]``
        with every group non-empty, which it keeps (no check or copy)."""
        out = cls.__new__(cls)
        labels.flags.writeable = False
        object.__setattr__(out, "labels", labels)
        object.__setattr__(out, "n_groups", n_groups)
        return out

    def __len__(self) -> int:
        return int(self.labels.size)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ClusterLabels):
            return NotImplemented
        return self.n_groups == other.n_groups and np.array_equal(self.labels, other.labels)


def _radius(value, name: str) -> float:
    """``value`` as a float if it is a radius under the module's contract:
    ``value > 0`` with ``value*value`` a normal float. Else ValueError."""
    r = float(value)
    if not (r > 0 and sys.float_info.min <= r * r <= sys.float_info.max):
        raise ValueError(f"{name} must be > 0, with {name}*{name} a normal float (about 1.49e-154 to 1.34e154)")
    return r


def _as_points(points) -> np.ndarray:
    pts = np.asarray(points, dtype=np.float64)
    if pts.size == 0:
        return pts.reshape(0, 2)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("points must have shape (n, 2)")
    return pts


# Cells have side just under r/sqrt(2), so a ball of radius r around a
# point reaches at most two cells away along each axis: 5x5 neighbor cells.
# _SHRINK leaves the margin that keeps every cell within r (module docstring).
_REACH = 2
_SHRINK = 1.0 - 2.0**-19
_STEPS = np.arange(-_REACH, _REACH + 1)
# a point's 3x3 block of sub-cells, its own in the middle, lies within r
# of it (module docstring), so counts_within settles points by it first
_SUB_STEPS = np.arange(-1, 2)
# a neighbor-table row lists offsets (dx, dy) with dx major; the twelve
# after (0, 0) visit every pair of distinct neighbor cells once
_FORWARD = np.arange(_STEPS.size**2 // 2 + 1, _STEPS.size**2)
# cap on a cell coordinate along one axis, so cell keys fit in int64
_AXIS_CELLS = float(2**30)
# the neighbor table is looked up in a dense array of all cell keys when
# there are at most this many keys per point, else by binary search
_TABLE_CELLS = 32
# pair tests run in blocks of about this many pairs, bounding memory
_PAIR_BLOCK = 1 << 16
# points whose neighbor-cell rows are bounded in one go
_QUERY_BLOCK = 1 << 13
# the coarse cells of the DBSCAN screen have side eps * _COARSE, 2**-16
# above 2 * eps, and there are at most _COARSE_LIMIT of them
_COARSE = 2.0 + 2.0**-15
_COARSE_LIMIT = float(2**30)


def _axis_cells(v: np.ndarray, side: float, gap: float) -> np.ndarray:
    """Integer sub-cell coordinates along one axis; ``>> 1`` gives the cell,
    and cells are at most 2**30 apart from each other.

    Normally ``floor((v - min) / (side / 2))``: two sub-cells per cell, and
    ``>> 1`` of it is ``floor((v - min) / side)``. When the range is too
    wide for that, each run of sorted values with no gap wider than
    ``gap`` gets its own origin, the runs are packed three cells apart,
    and each cell is one sub-cell. Either way values within ``gap / 2``
    of each other end up at most two cells apart, and no float outside
    the int64 range is cast.
    """
    if v.size == 0:
        return np.zeros(0, dtype=np.int64)
    lo = v.min()
    if (v.max() - lo) / side < _AXIS_CELLS:
        return np.floor((v - lo) / (side / 2)).astype(np.int64)
    order = np.argsort(v, kind="stable")
    s = v[order]
    opens = np.r_[True, s[1:] - s[:-1] > gap]
    run = np.cumsum(opens) - 1
    local = np.floor(np.minimum((s - s[opens][run]) / side, _AXIS_CELLS))
    width = np.maximum.reduceat(local, np.flatnonzero(opens)) + 3
    out = np.empty(v.size, dtype=np.int64)
    out[order] = 2 * ((np.cumsum(width) - width)[run] + local)
    return out


def _ragged(first: np.ndarray, size: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(k, p)``: every position ``first[k] <= p < first[k] + size[k]``, grouped by k."""
    end = np.cumsum(size)
    k = np.repeat(np.arange(size.size), size)
    return k, np.arange(end[-1] if end.size else 0) + np.repeat(first - (end - size), size)


def _runs(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start and length of each run of equal values in sorted non-negative ``keys``."""
    starts = np.flatnonzero(np.diff(keys, prepend=-1))
    return starts, np.diff(np.r_[starts, keys.size])


def _boxes(x: np.ndarray, y: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Bounding boxes (xlo, xhi, ylo, yhi) of the runs of points beginning at ``starts``."""
    if starts.size == 0:
        return np.zeros((4, 0))
    return np.stack(
        [
            np.minimum.reduceat(x, starts),
            np.maximum.reduceat(x, starts),
            np.minimum.reduceat(y, starts),
            np.maximum.reduceat(y, starts),
        ]
    )


def _point_boxes(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, ...]:
    return x, x, y, y


def _bounds(a, b) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper bounds on ``dx*dx + dy*dy`` between boxes ``a`` and ``b``.

    Each box is the four rows (xlo, xhi, ylo, yhi). Float subtraction,
    squaring and addition are monotone, so for any point in ``a`` and
    any point in ``b`` the float value of the pair test lies within the
    two bounds: ``lower > r*r`` rules every pair out and ``upper <= r*r``
    rules every pair in, exactly as testing the pairs one by one would.
    """
    with np.errstate(over="ignore"):
        nx = np.maximum(np.maximum(b[0] - a[1], a[0] - b[1]), 0.0)
        ny = np.maximum(np.maximum(b[2] - a[3], a[2] - b[3]), 0.0)
        fx = np.maximum(b[1] - a[0], a[1] - b[0])
        fy = np.maximum(b[3] - a[2], a[3] - b[2])
        return nx * nx + ny * ny, fx * fx + fy * fy


def _pair_tests(qx, qy, first, size, x, y, r2: float):
    """Closed-ball tests of query ``i`` against points ``first[i] : first[i] + size[i]``.

    Yields ``(i, j, hit)`` per block of about ``_PAIR_BLOCK`` pairs: the
    query, the candidate's position in ``x``/``y``, and the float test
    ``dx*dx + dy*dy <= r2`` that :func:`dbscan_naive` uses.
    """
    begin = np.cumsum(size) - size
    total = int(begin[-1] + size[-1]) if size.size else 0
    cuts = np.unique(np.r_[np.searchsorted(begin, np.arange(0, total, _PAIR_BLOCK)), size.size])
    for a, b in zip(cuts[:-1], cuts[1:]):
        k, j = _ragged(first[a:b], size[a:b])
        i = k + a
        with np.errstate(over="ignore"):
            dx = x[j] - qx[i]
            dy = y[j] - qy[i]
            yield i, j, dx * dx + dy * dy <= r2


def _union(parent: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
    """Merge the sets of each pair ``(a[k], b[k])`` in a flat union-find forest.

    ``parent`` maps every node straight to its root, and each root is the
    smallest node of its set; both hold again on return. Each round hooks
    the larger root of every split pair under the smaller one and then
    flattens by pointer jumping; every set that still has a split pair
    merges with at least one other, so the rounds are logarithmic.
    """
    while a.size:
        ra, rb = parent[a], parent[b]
        split = ra != rb
        a, b, ra, rb = a[split], b[split], ra[split], rb[split]
        np.minimum.at(parent, np.maximum(ra, rb), np.minimum(ra, rb))
        while True:
            up = parent[parent]
            if np.array_equal(up, parent):
                break
            parent[:] = up


class GridIndex:
    """Points sorted into square cells for closed-ball queries of one radius.

    Cells have side just under ``radius / sqrt(2)``, so every point within
    ``radius`` of a point lies in the 5x5 block of cells around its own.
    Each cell is split into up to 2x2 sub-cells of half its side. The
    points are kept sorted by cell and, within a cell, by sub-cell (``x``,
    ``y``), in no set order within a sub-cell, and ``order`` maps sorted
    positions back to indices. Cells and sub-cells each have a start, a
    count and a bounding box; ``sub_first`` and ``sub_count`` give each
    cell's run of sub-cells, and ``sub_keys`` each sub-cell's sorted key,
    its cell's key times 4 plus its parity bits along x and y.
    ``neighbors`` lists a cell's 25 neighbor cells and ``sub_blocks`` a
    sub-cell's 3x3 block of sub-cells. Every two points of one cell are
    within ``radius`` of each other, and so is every point of a sub-cell
    with every point of its block (see the module docstring). A point
    with a non-finite coordinate is within ``radius`` of no point, itself
    included, and is left out.
    """

    def __init__(self, points, radius: float):
        self.radius = _radius(radius, "radius")
        pts = _as_points(points)
        self.r2 = self.radius * self.radius
        self.size = pts.shape[0]
        finite = np.flatnonzero(np.isfinite(pts[:, 0]) & np.isfinite(pts[:, 1]))
        side = self.radius / math.sqrt(2.0) * _SHRINK
        with np.errstate(over="ignore"):
            fx = _axis_cells(pts[finite, 0], side, 2.0 * self.radius)
            fy = _axis_cells(pts[finite, 1], side, 2.0 * self.radius)
        span = int(fy.max(initial=0) >> 1) + 2 * _REACH + 1
        # the cell key in the top bits and the sub-cell below it: sorting by
        # it keeps every cell, and every sub-cell within it, contiguous
        fine = (((fx >> 1) + _REACH) * span + ((fy >> 1) + _REACH)) << 2 | (fx & 1) << 1 | (fy & 1)
        if fine.max(initial=0) < 2**16:  # numpy sorts 16-bit keys stably by radix
            by_cell = np.argsort(fine.astype(np.uint16), kind="stable")
        else:
            by_cell = np.argsort(fine)
        fine = fine[by_cell]
        self.order = finite[by_cell]
        self.x = pts[self.order, 0]
        self.y = pts[self.order, 1]
        self.sub_starts, self.sub_counts = _runs(fine)
        self.sub_box = _boxes(self.x, self.y, self.sub_starts)
        self.sub_keys = fine[self.sub_starts]
        self.sub_first, self.sub_count = _runs(self.sub_keys >> 2)
        self.cell_keys = self.sub_keys[self.sub_first] >> 2
        self.starts = self.sub_starts[self.sub_first]
        self.counts = np.diff(np.r_[self.starts, fine.size])
        self.cell_of = np.repeat(np.arange(self.starts.size), self.counts)
        self.box = _boxes(self.x, self.y, self.starts)
        self._span = span
        self._steps = (_STEPS[:, None] * span + _STEPS[None, :]).ravel()
        space = (int(fx.max(initial=0) >> 1) + 2 * _REACH + 1) * span
        self._table = None
        if space <= _TABLE_CELLS * max(fine.size, 1024):
            self._table = np.full(space, -1, dtype=np.int32)
            self._table[self.cell_keys] = np.arange(self.cell_keys.size)

    def __len__(self) -> int:
        return self.size

    def _cell_at(self, keys: np.ndarray) -> np.ndarray:
        """The cell with each key, -1 where there is none."""
        if self._table is not None:
            return self._table[keys]
        at = np.searchsorted(self.cell_keys, keys).clip(max=self.cell_keys.size - 1)
        return np.where(self.cell_keys[at] == keys, at, -1)

    def neighbors(self, cells: np.ndarray) -> np.ndarray:
        """Row per cell of its 25 neighbor cells, itself included, -1 where empty."""
        return self._cell_at(self.cell_keys[cells][:, None] + self._steps)

    def sub_blocks(self, subs: np.ndarray) -> np.ndarray:
        """Row per sub-cell ``subs`` of the sub-cells in its 3x3 block, itself
        included, -1 where empty.

        A sub-cell's key is its cell's key times 4 plus its parity bits
        along x and y, so a step along an axis adds the bit to the step:
        the sum's ``>> 1`` moves the cell and its ``& 1`` is the new bit.
        """
        n = self.sub_first.size
        # the sub-cell at 4 * cell + parity bits, -1 where empty; cell -1 reads the last four
        at = np.full(4 * n + 4, -1)
        at[4 * np.repeat(np.arange(n), self.sub_count) + (self.sub_keys & 3)] = np.arange(self.sub_keys.size)
        key = self.sub_keys[subs]
        sx = (key >> 1 & 1)[:, None] + _SUB_STEPS
        sy = (key & 1)[:, None] + _SUB_STEPS
        cells = self._cell_at(((key >> 2)[:, None] + (sx >> 1) * self._span)[:, :, None] + (sy >> 1)[:, None, :])
        bits = ((sx & 1) * 2)[:, :, None] + (sy & 1)[:, None, :]
        return at[cells * 4 + bits].reshape(key.size, _SUB_STEPS.size**2)

    def rows(self, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(k, cell)``: sorted position ``q[k]`` against each of its neighbor cells."""
        nbr = self.neighbors(self.cell_of[q])
        k, col = np.nonzero(nbr >= 0)
        return k, nbr[k, col]

    def _cover(self, n: int, k, qx, qy, boxes, sizes, at):
        """Add or skip whole boxes by bounds: query ``k`` in ``range(n)``,
        at ``(qx, qy)``, against box ``at`` of ``boxes``, which holds
        ``sizes[at]`` points. Returns per query the points in the boxes
        wholly within its ball and in the boxes that reach it at all, and
        which rows are partly covered."""
        lower, upper = _bounds(_point_boxes(qx, qy), boxes.take(at, axis=1))
        full = upper <= self.r2
        near = lower <= self.r2
        size = sizes[at]
        low = np.bincount(k, size * full, minlength=n).astype(np.int64)
        high = np.bincount(k, size * near, minlength=n).astype(np.int64)
        return low, high, near & ~full

    def counts_within(self, at_least: int) -> np.ndarray:
        """Neighbor count of each sorted position, itself included, refined
        only until it decides ``count >= at_least``, which the result then
        answers exactly.

        A cell of at least ``at_least`` points needs no work, as its
        points are within the radius of each other. The sub-cells of the
        other cells are counted next, each once, with the points of its
        3x3 block of sub-cells, which lie within the radius of each of
        its points; a point whose block holds ``at_least`` gets that
        count. Only the points left add or skip whole neighbor cells by
        bounding-box bounds. Points still undecided split each partly
        covered cell into its sub-cells and add or skip those by their
        own boxes; single pairs are tested only for points undecided
        after that, against partly covered sub-cells.
        """
        out = self.counts[self.cell_of]
        small = np.flatnonzero(self.counts < at_least)
        _, subs = _ragged(self.sub_first[small], self.sub_count[small])
        near = self.sub_blocks(subs)
        block = np.where(near >= 0, self.sub_counts[near], 0).sum(axis=1)
        k, todo = _ragged(self.sub_starts[subs], self.sub_counts[subs])
        out[todo] = block[k]
        todo = todo[out[todo] < at_least]

        def undecided(low, high):
            return (low < at_least) & (high >= at_least)

        for lo in range(0, todo.size, _QUERY_BLOCK):
            q = todo[lo : lo + _QUERY_BLOCK]
            k, cell = self.rows(q)
            qx, qy = self.x[q][k], self.y[q][k]
            low, high, part = self._cover(q.size, k, qx, qy, self.box, self.counts, cell)
            split = part & undecided(low, high)[k]
            j, sub = _ragged(self.sub_first[cell[split]], self.sub_count[cell[split]])
            k, qx, qy = k[split][j], qx[split][j], qy[split][j]
            inside, near, part = self._cover(q.size, k, qx, qy, self.sub_box, self.sub_counts, sub)
            low, high = low + inside, low + near
            test = part & undecided(low, high)[k]
            k, sub = k[test], sub[test]
            tests = _pair_tests(qx[test], qy[test], self.sub_starts[sub], self.sub_counts[sub], self.x, self.y, self.r2)
            for i, _, hit in tests:
                low += np.bincount(k[i[hit]], minlength=q.size)
            out[q] = low
        return out

    def unsorted(self, values: np.ndarray, fill) -> np.ndarray:
        """``values`` per sorted position, in point order; ``fill`` for left-out points."""
        out = np.full(len(self), fill, dtype=values.dtype)
        out[self.order] = values
        return out


def neighbors_at_least(points, radius: float, k: int) -> np.ndarray:
    """Whether each point has at least ``k`` points within ``radius``, itself included.

    Agrees with an exhaustive pairwise count, but each count is only
    refined as far as the answer needs.
    """
    index = GridIndex(points, radius)
    return index.unsorted(index.counts_within(k) >= k, k <= 0)


class _CoreCells:
    """The core points of a grid index, grouped by cell like the index."""

    def __init__(self, index: GridIndex, core: np.ndarray):
        at = np.flatnonzero(core)
        self.ids = index.order[at]
        self.x = index.x[at]
        self.y = index.y[at]
        per_cell = np.bincount(index.cell_of[at], minlength=index.counts.size)
        self.cells = np.flatnonzero(per_cell)
        self.slot = np.full(index.counts.size + 1, -1)  # an index of -1 picks the trailing -1
        self.slot[self.cells] = np.arange(self.cells.size)
        self.size = per_cell[self.cells]
        self.first = np.cumsum(self.size) - self.size
        self.own = np.repeat(np.arange(self.cells.size), self.size)
        self.box = _boxes(self.x, self.y, self.first)


def _connect(index: GridIndex, cores: _CoreCells) -> np.ndarray:
    """Root of each core point: the lowest core index of its cluster.

    The cores of a cell are within ``eps`` of each other, so union-find
    runs over core cells: one node per cell, O(core cells) memory. A
    pair of neighbor cells is joined by a probe of their first cores;
    the pairs still split are tested pair by pair, checking between
    blocks which pairs are still split.
    """
    r2 = index.r2
    parent = np.arange(cores.cells.size)
    a = np.repeat(np.arange(cores.cells.size), _FORWARD.size)
    b = cores.slot[index.neighbors(cores.cells)[:, _FORWARD]].ravel()
    a, b = a[b >= 0], b[b >= 0]

    # probe each pair of neighbor core cells with their first cores
    x, y, first = cores.x, cores.y, cores.first
    with np.errstate(over="ignore"):
        dx, dy = x[first[b]] - x[first[a]], y[first[b]] - y[first[a]]
        hit = dx * dx + dy * dy <= r2
    _union(parent, a[hit], b[hit])
    a, b = a[~hit], b[~hit]

    while a.size:
        # a few blocks of pair work at a time, dropping pairs joined meanwhile
        split = parent[a] != parent[b]
        a, b = a[split], b[split]
        take = max(1, int(np.searchsorted(np.cumsum(cores.size[a] * cores.size[b]), 4 * _PAIR_BLOCK)))
        k, q = _ragged(first[a[:take]], cores.size[a[:take]])
        cell = b[:take][k]
        near = _bounds(_point_boxes(x[q], y[q]), cores.box.take(cell, axis=1))[0] <= r2
        q, cell = q[near], cell[near]
        for i, _, hit in _pair_tests(x[q], y[q], first[cell], cores.size[cell], x, y, r2):
            _union(parent, cores.own[q[i[hit]]], cell[i[hit]])
        a, b = a[take:], b[take:]
    # number each set by the lowest core index among its cells
    low = np.full(cores.cells.size, len(index))
    np.minimum.at(low, parent, np.minimum.reduceat(cores.ids, first))
    return low[parent][cores.own]


def _border(index: GridIndex, core: np.ndarray, cores: _CoreCells, root: np.ndarray):
    """Non-core sorted positions with a core neighbor, and the lowest root among those."""
    r2 = index.r2
    todo = np.flatnonzero(~core)
    best = np.full(todo.size, len(index))
    for lo in range(0, todo.size, _QUERY_BLOCK):
        q = todo[lo : lo + _QUERY_BLOCK]
        k, cell = index.rows(q)
        s = cores.slot[cell]
        k, s = k[s >= 0], s[s >= 0]
        qx, qy = index.x[q][k], index.y[q][k]
        near = _bounds(_point_boxes(qx, qy), cores.box.take(s, axis=1))[0] <= r2
        k, s = k[near], s[near]
        for i, j, hit in _pair_tests(qx[near], qy[near], cores.first[s], cores.size[s], cores.x, cores.y, r2):
            np.minimum.at(best, lo + k[i[hit]], root[j[hit]])
    found = best < len(index)
    return todo[found], best[found]


def _crowded(pts: np.ndarray, eps: float, min_pts: int) -> np.ndarray | None:
    """Ascending indices of the votes whose 3x3 block of coarse cells holds
    at least ``min_pts`` finite votes, or None to keep every vote.

    The coarse cells have side ``eps * _COARSE`` and start at the lowest
    finite coordinate on each axis; see the module docstring for why a
    vote left out is noise. Every vote is kept when ``min_pts`` is 1, or
    when the grid would have more than ``_TABLE_CELLS`` cells per finite
    vote (1024 votes at least) or more than ``_COARSE_LIMIT`` cells.
    """
    if min_pts <= 1:
        return None
    finite = np.isfinite(pts[:, 0]) & np.isfinite(pts[:, 1])
    every = bool(finite.all())
    x, y = (pts[:, 0], pts[:, 1]) if every else (pts[finite, 0], pts[finite, 1])
    if x.size == 0:
        return np.zeros(0, dtype=np.intp)
    side = eps * _COARSE
    lo_x, lo_y = x.min(), y.min()
    with np.errstate(over="ignore"):
        wide, tall = (x.max() - lo_x) / side, (y.max() - lo_y) / side
        if not (wide + 1) * (tall + 1) <= min(_TABLE_CELLS * max(x.size, 1024), _COARSE_LIMIT):
            return None
    nx, ny = int(wide) + 1, int(tall) + 1
    # truncation is floor here: every coordinate is >= 0 and at most wide or tall
    key = ((x - lo_x) / side).astype(np.intp) * ny + ((y - lo_y) / side).astype(np.intp)
    counts = np.zeros((nx + 2, ny + 2), dtype=np.int64)
    counts[1:-1, 1:-1] = np.bincount(key, minlength=nx * ny).reshape(nx, ny)
    rows = counts[:-2] + counts[1:-1] + counts[2:]
    block = rows[:, :-2] + rows[:, 1:-1] + rows[:, 2:]
    keep = block.ravel()[key] >= min_pts
    if not every:
        return np.flatnonzero(finite)[keep]
    return None if keep.all() else np.flatnonzero(keep)


def dbscan(points, eps: float, min_pts: int) -> ClusterLabels:
    """Density clustering by the count-then-connect grid method.

    Follows the module's contract: closed balls of radius ``eps``; a point
    with at least ``min_pts`` neighbors, itself included, is core; clusters
    are numbered by their lowest core index; each border point joins the
    lowest-numbered cluster with a core within ``eps`` of it; every other
    point keeps label 0. The output is bit-identical to
    :func:`dbscan_naive`, and memory grows with the number of points, not
    with the sizes of their neighborhoods; the union-find holds one node
    per core cell. Only the votes the coarse screen keeps
    (:func:`_crowded`) are indexed; the rest are noise.
    """
    eps = _radius(eps, "eps")
    if min_pts < 1:
        raise ValueError("min_pts must be >= 1")
    pts = _as_points(points)
    kept = _crowded(pts, eps, min_pts)
    index = GridIndex(pts if kept is None else pts[kept], eps)
    labels = np.zeros(len(index), dtype=np.int64)
    core = index.counts_within(min_pts) >= min_pts
    n_groups = 0
    if core.any():
        cores = _CoreCells(index, core)
        root = _connect(index, cores)
        groups = np.unique(root)
        labels[cores.ids] = np.searchsorted(groups, root) + 1
        border, best = _border(index, core, cores, root)
        labels[index.order[border]] = np.searchsorted(groups, best) + 1
        n_groups = groups.size
    if kept is not None:
        full = np.zeros(len(pts), dtype=np.int64)
        full[kept] = labels
        labels = full
    # every group is a root of np.unique(root), so it holds a core
    return ClusterLabels._trusted(labels, n_groups)


def dbscan_naive(points, eps: float, min_pts: int) -> ClusterLabels:
    """Reference DBSCAN with exhaustive pairwise distances.

    Same contract and deterministic ordering as :func:`dbscan`; kept as a
    fully independent implementation so the two can cross-check each
    other bit for bit.
    """
    eps = _radius(eps, "eps")
    if min_pts < 1:
        raise ValueError("min_pts must be >= 1")
    pts = _as_points(points)
    n = pts.shape[0]
    if n == 0:
        return ClusterLabels(np.zeros(0, dtype=np.int64), 0)
    xs = pts[:, 0]
    ys = pts[:, 1]
    eps2 = eps * eps

    def scan(q: int) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):
            dx = xs - xs[q]
            dy = ys - ys[q]
            return np.flatnonzero(dx * dx + dy * dy <= eps2)

    labels = [0] * n
    processed = [False] * n
    cluster = 0
    for i in range(n):
        if processed[i]:
            continue
        processed[i] = True
        neigh = scan(i)
        if neigh.size < min_pts:
            continue
        cluster += 1
        labels[i] = cluster
        fifo = neigh.tolist()
        k = 0
        while k < len(fifo):
            j = fifo[k]
            k += 1
            if labels[j] == 0:
                labels[j] = cluster
            if processed[j]:
                continue
            processed[j] = True
            jn = scan(j)
            if jn.size >= min_pts:
                fifo.extend(jn.tolist())
    return ClusterLabels(np.asarray(labels, dtype=np.int64), cluster)


def _flat_window_means(
    modes: np.ndarray, pts: np.ndarray, pts_sq: np.ndarray, bw2: float
) -> np.ndarray:
    """Mean of the points within sqrt(bw2) of each mode row (flat kernel).

    Distances are computed against the full point set in row chunks,
    via the |a-b|^2 = |a|^2 + |b|^2 - 2ab expansion so the inner loop is
    a matrix product. A mode with an empty window (cannot happen when
    modes start on data points, guarded anyway) stays put.
    """
    out = np.empty_like(modes)
    for lo in range(0, modes.shape[0], 512):
        block = modes[lo : lo + 512]
        block_sq = (block * block).sum(axis=1)
        d2 = block @ pts.T
        d2 *= -2.0
        d2 += block_sq[:, None]
        d2 += pts_sq[None, :]
        within = d2 <= bw2
        cnt = within.sum(axis=1)
        sums = within @ pts
        keep = cnt == 0
        cnt = np.where(keep, 1, cnt)
        means = sums / cnt[:, None]
        means[keep] = block[keep]
        out[lo : lo + 512] = means
    return out


# mean-shift's round limit, and the shift below which a point stops
_MAX_ITER = 300
_SHIFT_TOL = 1e-3


def mean_shift(points, bandwidth: float) -> ClusterLabels:
    """Flat-kernel mean-shift mode seeking.

    Every point is iteratively moved to the mean of the original points
    within ``bandwidth`` of it until the shift falls below 1e-3 or 300
    rounds have run. Converged modes within ``bandwidth / 2`` merge into
    one group, scanning points in ascending order; every point gets its
    mode's label, so there is no noise label. Neighbor search is a
    deliberate exhaustive scan; this is the slow quadratic baseline the
    grid-indexed DBSCAN is measured against.
    """
    bandwidth = _radius(bandwidth, "bandwidth")
    pts = _as_points(points)
    n = pts.shape[0]
    if n == 0:
        return ClusterLabels(np.zeros(0, dtype=np.int64), 0)
    bw2 = bandwidth * bandwidth
    modes = pts.copy()
    pts_sq = (pts * pts).sum(axis=1)
    active = np.arange(n)
    for _ in range(_MAX_ITER):
        if active.size == 0:
            break
        shifted = _flat_window_means(modes[active], pts, pts_sq, bw2)
        moved = np.hypot(shifted[:, 0] - modes[active, 0], shifted[:, 1] - modes[active, 1])
        modes[active] = shifted
        active = active[moved >= _SHIFT_TOL]
    labels = np.zeros(n, dtype=np.int64)
    reps: list[np.ndarray] = []
    merge_radius = bandwidth / 2.0
    merge2 = merge_radius * merge_radius
    for i in range(n):
        if reps:
            rep_arr = np.asarray(reps)
            d2 = (rep_arr[:, 0] - modes[i, 0]) ** 2 + (rep_arr[:, 1] - modes[i, 1]) ** 2
            j = int(np.argmin(d2))
            if d2[j] <= merge2:
                labels[i] = j + 1
                continue
        reps.append(modes[i])
        labels[i] = len(reps)
    return ClusterLabels(labels, len(reps))
