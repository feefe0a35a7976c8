"""From cluster labels back to instance masks.

Tracing clustered votes to their source pixels turns each group into one
instance mask. The optional residual reassignment pass (config key
``rc2m``) gives every leftover group-0 vote, filtered or noise, the
group of the nearest cluster centroid so that no piglet pixel is
dropped; it never changes the clustering itself, only the masks.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .centers import CenterCloud, filter_centers, generate_centers
from .clustering import ClusterLabels, _bounds, _point_boxes, dbscan, mean_shift
from .config import PipelineConfig
from .grids import (
    CLASS_PIGLET,
    CLASS_SOW,
    SOW,
    BinaryMask,
    GridDims,
    OffsetMap,
    SemanticMap,
)


@dataclass(frozen=True, eq=False)
class Instance:
    """One detected object: mask, voted center, class, and confidence."""

    mask: BinaryMask
    predicted_center: tuple[float, float]
    cls: str
    score: float

    def __post_init__(self) -> None:
        if self.mask.area < 1:
            raise ValueError("instance mask must cover at least one pixel")
        cx, cy = self.predicted_center
        if not (np.isfinite(cx) and np.isfinite(cy)):
            raise ValueError("predicted_center must be finite")
        if not (0.0 <= self.score <= 1.0):
            raise ValueError("score must lie in [0, 1]")
        if self.cls not in (CLASS_PIGLET, CLASS_SOW):
            raise ValueError(f"unknown class {self.cls!r}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Instance):
            return NotImplemented
        return (
            self.mask == other.mask
            and self.predicted_center == other.predicted_center
            and self.cls == other.cls
            and self.score == other.score
        )


@dataclass
class FrameResult:
    """Segmentation output of one frame plus per-stage wall times."""

    instances: list[Instance]
    unassigned_pixel_count: int
    timings: dict[str, float]


def _check_alignment(cloud: CenterCloud, labels: ClusterLabels) -> None:
    if len(labels) != len(cloud):
        raise ValueError(f"{len(labels)} labels for {len(cloud)} votes")


def _boxes(dims: GridDims, source_pixels: np.ndarray, labels: np.ndarray, n_groups: int) -> np.ndarray:
    """Tight box (row0, row1, col0, col1) of the source pixels of each group 1..n_groups.

    The votes are in raster order, so each group's pixels come in runs:
    votes of one label at consecutive flat indices. A run that crosses a
    row boundary covers the last and the first column, so every box
    follows from the runs' ends, and only the runs are reduced per group.
    """
    w = dims.width
    ends = np.flatnonzero((labels[1:] != labels[:-1]) | (source_pixels[1:] - source_pixels[:-1] != 1))
    first = np.r_[0, ends + 1]
    last = np.r_[ends, labels.size - 1]
    group = labels[first]
    r0, c0 = np.divmod(source_pixels[first], w)
    r1, c1 = np.divmod(source_pixels[last], w)
    wraps = r1 > r0
    c0[wraps], c1[wraps] = 0, w - 1
    box = np.empty((4, n_groups + 1), dtype=np.int64)
    box[0], box[1], box[2], box[3] = dims.height, -1, w, -1
    np.minimum.at(box[0], group, r0)
    np.maximum.at(box[1], group, r1)
    np.minimum.at(box[2], group, c0)
    np.maximum.at(box[3], group, c1)
    box[[1, 3]] += 1
    return box[:, 1:]


def _group_means(cloud: CenterCloud, labels: ClusterLabels) -> tuple[np.ndarray, np.ndarray]:
    """Vote count and mean vote position of each group 1..n_groups, as
    ``(sizes, centroids)`` of shapes (n_groups,) and (n_groups, 2).

    Three bincounts over the grouped votes: the counts, then the x and y
    sums with the positions as weights. ``bincount`` adds each group's
    weights in ascending vote order, as the row-by-row axis-0 sum of
    ``positions.take(idx, axis=0).mean(axis=0)`` does, so the means are
    equal to it bit for bit.
    """
    grouped = np.flatnonzero(labels.labels)
    keys = labels.labels[grouped]
    n = labels.n_groups + 1
    sizes = np.bincount(keys, minlength=n)[1:]
    sums = [np.bincount(keys, cloud.positions[grouped, axis], minlength=n)[1:] for axis in (0, 1)]
    return sizes, np.stack(sums, axis=1) / sizes[:, None]


def instances_from_labels(
    cloud: CenterCloud, labels: ClusterLabels, mask_labels: ClusterLabels | None = None
) -> list[Instance]:
    """One piglet instance per group, tracing votes back to source pixels.

    The instance mask holds exactly the source pixels of the group's
    votes; the predicted center is the mean vote position; confidence is
    the group size divided by the largest group size in the frame. With
    ``mask_labels`` (the same groups after :func:`reassign_unlabeled`)
    the masks are traced from those labels instead, while centers and
    confidences still come from ``labels``.

    The traced labels are written once into a label image of the frame,
    of the narrowest unsigned type that holds ``n_groups``, and each mask
    is the crop of its group's tight box where the image holds the group.
    """
    _check_alignment(cloud, labels)
    if labels.n_groups == 0:
        return []
    traced = labels
    if mask_labels is not None and mask_labels is not labels:
        _check_alignment(cloud, mask_labels)
        if mask_labels.n_groups != labels.n_groups:
            raise ValueError(f"{mask_labels.n_groups} mask groups for {labels.n_groups} groups")
        traced = mask_labels
    dims = cloud.dims
    image = np.zeros(dims.npixels, dtype=np.min_scalar_type(labels.n_groups))
    image[cloud.source_pixels] = traced.labels
    image = image.reshape(dims.shape)
    boxes = _boxes(dims, cloud.source_pixels, traced.labels, labels.n_groups).T.tolist()
    sizes, centers = _group_means(cloud, labels)
    scores = (sizes / sizes.max()).tolist()
    out = []
    for group, (center, score, (r0, r1, c0, c1)) in enumerate(zip(centers.tolist(), scores, boxes), start=1):
        mask = BinaryMask._from_crop(dims, (r0, r1, c0, c1), image[r0:r1, c0:c1] == group)
        out.append(
            Instance(
                mask=mask,
                predicted_center=tuple(center),
                cls=CLASS_PIGLET,
                score=score,
            )
        )
    return out


# Side of the square cells, over the frame, in which the nearest centroid
# is decided once for all their votes: a power of two, so ``x / _CELL``
# and its floor are exact.
_CELL = 16.0
# Votes per block, and (cell, group) pairs per block of the cell pass, so
# both passes hold O(block) temporaries whatever the numbers of votes,
# cells and groups.
_REASSIGN_BLOCK = 1 << 15


def _cell_groups(dims: GridDims, centroids: np.ndarray) -> np.ndarray:
    """Per row and column of cells, the group nearest to every point of the
    cell, or 0 where no one group is.

    :func:`~centerseg.clustering._bounds` gives each (cell, centroid)
    pair the float bounds of ``dx*dx + dy*dy`` over the closed cell. When
    only one group has a lower bound at most the smallest upper bound,
    every other centroid is strictly farther from each point of the
    cell, or not a number, so that group wins the exact test too. (A
    non-finite smallest bound leaves one group only when there is only
    one.)
    """
    cols, rows = -(-dims.width // int(_CELL)), -(-dims.height // int(_CELL))
    grid = np.zeros((rows, cols), dtype=np.int64)
    # group first, so each reduction over the groups is elementwise over planes of cells
    centers = _point_boxes(centroids[:, 0, None, None], centroids[:, 1, None, None])
    ids = np.arange(1, len(centroids) + 1)[:, None, None]
    # blocks of whole rows of cells, or of part of one row when a row is too many pairs
    cells = max(1, _REASSIGN_BLOCK // len(centroids))
    tall, wide = max(1, cells // cols), min(cols, cells)
    for r in range(0, rows, tall):
        y0 = np.arange(r, min(r + tall, rows))[:, None] * _CELL
        for c in range(0, cols, wide):
            x0 = np.arange(c, min(c + wide, cols)) * _CELL
            # the x terms per (group, column) and the y terms per (group, row), summed per (group, row, column)
            lower, upper = _bounds((x0, x0 + _CELL, y0, y0 + _CELL), centers)
            near = lower <= upper.min(axis=0)
            # where one group is near, the sum of the near ids is that group
            grid[r : r + tall, c : c + wide] = np.where(near.sum(axis=0) == 1, (near * ids).sum(axis=0), 0)
    return grid


def _nearest(x: np.ndarray, y: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """The group of the nearest centroid to each point, by a running minimum
    of ``dx*dx + dy*dy`` over the centroids in group order; a group
    replaces the best so far only when strictly closer, so ties stay with
    the lowest id, and a point with no finite distance gets group 1."""
    d, dy2 = np.empty(x.size), np.empty(x.size)
    best = np.full(x.size, np.inf)
    closer = np.empty(x.size, dtype=bool)
    nearest = np.ones(x.size, dtype=np.int64)
    for group, (cx, cy) in enumerate(centroids.tolist(), start=1):
        np.subtract(x, cx, out=d)
        np.multiply(d, d, out=d)
        np.subtract(y, cy, out=dy2)
        np.multiply(dy2, dy2, out=dy2)
        np.add(d, dy2, out=d)
        np.less(d, best, out=closer)
        np.copyto(best, d, where=closer)
        np.copyto(nearest, group, where=closer)
    return nearest


def reassign_unlabeled(cloud: CenterCloud, labels: ClusterLabels) -> ClusterLabels:
    """Give every group-0 vote the group of the nearest cluster centroid.

    Centroids are the mean positions of the existing groups, computed
    once up front and frozen during reassignment (a single pass, not an
    iteration). Nearest means the smallest float ``dx*dx + dy*dy``; ties
    go to the lowest group id. With no groups the labels are returned
    unchanged. Running this twice equals running it once: after one
    pass no group-0 votes remain.

    The group is decided once per cell of side ``_CELL`` over the frame
    where bounds show one centroid nearest to the whole cell (see
    :func:`_cell_groups`), and the cell's votes take it in one gather.
    Votes in other cells, outside the frame's cells or at a non-finite
    position run the exact test against every centroid. The votes go in
    blocks of ``_REASSIGN_BLOCK``, and no position outside the cells is
    cast to an integer.
    """
    _check_alignment(cloud, labels)
    if labels.n_groups == 0:
        return labels
    zero = np.flatnonzero(labels.labels == 0)
    if zero.size == 0:
        return labels
    _, centroids = _group_means(cloud, labels)
    grid = _cell_groups(cloud.dims, centroids)
    rows, cols = grid.shape
    cell_group = np.r_[grid.ravel(), 0]  # and 0 for the votes outside the cells
    x_end, y_end = cols * _CELL, rows * _CELL
    xs, ys = cloud.positions[:, 0], cloud.positions[:, 1]
    new = labels.labels.copy()
    undecided = []
    for start in range(0, zero.size, _REASSIGN_BLOCK):
        idx = zero[start : start + _REASSIGN_BLOCK]
        x, y = xs[idx], ys[idx]
        inside = (x >= 0) & (x < x_end) & (y >= 0) & (y < y_end)
        with np.errstate(over="ignore", invalid="ignore"):  # in the branch that ``where`` drops
            cell = np.where(inside, np.floor(y / _CELL) * cols + np.floor(x / _CELL), rows * cols)
        group = cell_group[cell.astype(np.intp)]
        new[idx] = group
        undecided.append(idx[group == 0])
    todo = np.concatenate(undecided)
    for start in range(0, todo.size, _REASSIGN_BLOCK):
        idx = todo[start : start + _REASSIGN_BLOCK]
        new[idx] = _nearest(xs[idx], ys[idx], centroids)
    return ClusterLabels._trusted(new, labels.n_groups)


def sow_instance(semantic: SemanticMap) -> Instance | None:
    """The single sow instance: all sow-labeled pixels, centroid center.

    Scenes hold at most one sow, so the semantic map is the instance.
    Returns None when no sow pixels exist.
    """
    mask = semantic.class_mask(SOW)
    if mask.area == 0:
        return None
    r0, _, c0, _ = mask.bbox
    ys, xs = np.nonzero(mask.crop)
    return Instance(
        mask=mask,
        predicted_center=(float((xs + c0).mean()), float((ys + r0).mean())),
        cls=CLASS_SOW,
        score=1.0,
    )


def _cluster(points: np.ndarray, config: PipelineConfig) -> ClusterLabels:
    if config.algo == "dbscan":
        return dbscan(points, config.eps, config.min_pts)
    return mean_shift(points, bandwidth=config.bandwidth)


def segment_frame(
    semantic: SemanticMap, offsets: OffsetMap, config: PipelineConfig | None = None
) -> FrameResult:
    """Run the whole per-frame pipeline.

    Stages: vote generation, outlier filter, clustering of the retained
    votes, optional residual reassignment (``rc2m``), mask assembly, and
    the sow instance. Each mask is traced once, from the labels after
    reassignment; predicted centers and confidences always come from the
    clustered groups, before reassignment adds the outlier votes back
    in. Per-stage wall times are recorded in the result.
    """
    if config is None:
        config = PipelineConfig()
    timings: dict[str, float] = {}
    marks = [time.perf_counter()]

    def lap(stage: str) -> None:
        marks.append(time.perf_counter())
        timings[stage] = marks[-1] - marks[-2]

    cloud = generate_centers(semantic, offsets)
    lap("generate")

    cloud = filter_centers(
        cloud,
        radius_t=config.t,
        min_neighbors=config.min_neighbors,
        strategy=config.filter_strategy,
    )
    lap("filter")

    retained = np.flatnonzero(~cloud.filtered)
    sub = _cluster(cloud.positions.take(retained, axis=0), config)
    full = np.zeros(len(cloud), dtype=np.int64)
    full[retained] = sub.labels
    labels = ClusterLabels._trusted(full, sub.n_groups)
    lap("cluster")

    traced = reassign_unlabeled(cloud, labels) if config.rc2m else labels
    lap("reassign")

    instances = instances_from_labels(cloud, labels, traced)
    lap("assemble")

    sow = sow_instance(semantic)
    if sow is not None:
        instances.append(sow)
    lap("sow")

    timings["total"] = time.perf_counter() - marks[0]
    unassigned = int(np.count_nonzero(traced.labels == 0))
    return FrameResult(instances=instances, unassigned_pixel_count=unassigned, timings=timings)
