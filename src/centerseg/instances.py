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
from .clustering import ClusterLabels, dbscan, mean_shift
from .config import PipelineConfig
from .grids import (
    CLASS_PIGLET,
    CLASS_SOW,
    SOW,
    BinaryMask,
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
    """
    _check_alignment(cloud, labels)
    members = labels.members
    if not members:
        return []
    if mask_labels is None or mask_labels is labels:
        traced = members
    else:
        _check_alignment(cloud, mask_labels)
        if mask_labels.n_groups != labels.n_groups:
            raise ValueError(f"{mask_labels.n_groups} mask groups for {labels.n_groups} groups")
        traced = mask_labels.members
    largest = max(idx.size for idx in members)
    out = []
    for idx, pixels in zip(members, traced):
        mask = BinaryMask.from_flat_indices(cloud.dims, cloud.source_pixels[pixels])
        center = cloud.positions[idx].mean(axis=0)
        score = min(1.0, idx.size / largest)
        out.append(
            Instance(
                mask=mask,
                predicted_center=(float(center[0]), float(center[1])),
                cls=CLASS_PIGLET,
                score=score,
            )
        )
    return out


# Group-0 votes per block of the nearest-centroid pass. The block's
# buffers (about 50 bytes a vote) stay in cache, and the pass holds
# O(block) temporaries whatever the number of votes and groups.
_REASSIGN_BLOCK = 1 << 13


def reassign_unlabeled(cloud: CenterCloud, labels: ClusterLabels) -> ClusterLabels:
    """Give every group-0 vote the group of the nearest cluster centroid.

    Centroids are the mean positions of the existing groups, computed
    once up front and frozen during reassignment (a single pass, not an
    iteration). Ties go to the lowest group id. With no groups the
    labels are returned unchanged. Running this twice equals running it
    once: after one pass no group-0 votes remain.

    The group-0 votes go in blocks of ``_REASSIGN_BLOCK``; each block
    keeps a running minimum of the squared distance ``dx*dx + dy*dy``
    over the centroids in group order, and a group replaces the best so
    far only when strictly closer, so ties stay with the lowest id.
    """
    _check_alignment(cloud, labels)
    if labels.n_groups == 0:
        return labels
    zero = np.flatnonzero(labels.labels == 0)
    if zero.size == 0:
        return labels
    centroids = [cloud.positions[idx].mean(axis=0).tolist() for idx in labels.members]
    xs, ys = cloud.positions[:, 0], cloud.positions[:, 1]
    size = min(_REASSIGN_BLOCK, zero.size)
    buffers = (
        np.empty(size), np.empty(size), np.empty(size),
        np.empty(size, dtype=bool), np.empty(size, dtype=np.int64),
    )
    new = labels.labels.copy()
    for start in range(0, zero.size, size):
        idx = zero[start : start + size]
        x, y = xs[idx], ys[idx]
        d, dy2, best, closer, nearest = (buf[: idx.size] for buf in buffers)
        best.fill(np.inf)
        nearest.fill(1)
        for group, (cx, cy) in enumerate(centroids, start=1):
            np.subtract(x, cx, out=d)
            np.multiply(d, d, out=d)
            np.subtract(y, cy, out=dy2)
            np.multiply(dy2, dy2, out=dy2)
            np.add(d, dy2, out=d)
            np.less(d, best, out=closer)
            np.copyto(best, d, where=closer)
            np.copyto(nearest, group, where=closer)
        new[idx] = nearest
    return ClusterLabels(new, labels.n_groups)


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
    sub = _cluster(cloud.positions[retained], config)
    full = np.zeros(len(cloud), dtype=np.int64)
    full[retained] = sub.labels
    labels = ClusterLabels(full, sub.n_groups)
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
