"""From cluster labels back to instance masks.

Tracing clustered votes to their source pixels turns each group into one
instance mask. The optional residual reassignment pass (config key
``rc2m``) gives every leftover group-0 vote, filtered or noise, the
group of the nearest cluster centroid so that no piglet pixel is
dropped; it never changes the clustering itself, only the masks.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from .centers import CenterCloud, filter_centers, generate_centers
from .clustering import ClusterLabels, dbscan, dbscan_naive, mean_shift
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


def _group_members(labels: ClusterLabels) -> list[np.ndarray]:
    """Vote indices of groups 1..n_groups, each ascending, from one stable sort."""
    order = np.argsort(labels.labels, kind="stable")
    cuts = np.searchsorted(labels.labels[order], np.arange(1, labels.n_groups + 1))
    return np.split(order, cuts)[1:]


def instances_from_labels(cloud: CenterCloud, labels: ClusterLabels) -> list[Instance]:
    """One piglet instance per group, tracing votes back to source pixels.

    The instance mask holds exactly the source pixels of the group's
    votes; the predicted center is the mean vote position; confidence is
    the group size divided by the largest group size in the frame.
    """
    _check_alignment(cloud, labels)
    members = _group_members(labels)
    if not members:
        return []
    largest = max(idx.size for idx in members)
    out = []
    for idx in members:
        mask = BinaryMask.from_flat_indices(cloud.dims, cloud.source_pixels[idx])
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


def reassign_unlabeled(cloud: CenterCloud, labels: ClusterLabels) -> ClusterLabels:
    """Give every group-0 vote the group of the nearest cluster centroid.

    Centroids are the mean positions of the existing groups, computed
    once up front and frozen during reassignment (a single pass, not an
    iteration). Ties go to the lowest group id. With no groups the
    labels are returned unchanged. Running this twice equals running it
    once: after one pass no group-0 votes remain.
    """
    _check_alignment(cloud, labels)
    if labels.n_groups == 0:
        return labels
    zero = np.flatnonzero(labels.labels == 0)
    if zero.size == 0:
        return labels
    centroids = np.stack(
        [cloud.positions[idx].mean(axis=0) for idx in _group_members(labels)]
    )
    dx = cloud.positions[zero, 0][:, None] - centroids[None, :, 0]
    dy = cloud.positions[zero, 1][:, None] - centroids[None, :, 1]
    nearest = np.argmin(dx * dx + dy * dy, axis=1) + 1
    new = labels.labels.copy()
    new[zero] = nearest
    return ClusterLabels(new, labels.n_groups)


def sow_instance(semantic: SemanticMap) -> Instance | None:
    """The single sow instance: all sow-labeled pixels, centroid center.

    Scenes hold at most one sow, so the semantic map is the instance.
    Returns None when no sow pixels exist.
    """
    mask = semantic.class_mask(SOW)
    if mask.area == 0:
        return None
    ys, xs = np.nonzero(mask.pixels)
    return Instance(
        mask=mask,
        predicted_center=(float(xs.mean()), float(ys.mean())),
        cls=CLASS_SOW,
        score=1.0,
    )


def _cluster(points: np.ndarray, config: PipelineConfig) -> ClusterLabels:
    if config.algo == "dbscan":
        return dbscan(points, config.eps, config.min_pts)
    if config.algo == "dbscan-naive":
        return dbscan_naive(points, config.eps, config.min_pts)
    return mean_shift(
        points,
        bandwidth=config.bandwidth,
        max_iter=config.ms_max_iter,
        shift_tol=config.shift_tol,
        merge_radius=config.merge_radius,
    )


def segment_frame(
    semantic: SemanticMap, offsets: OffsetMap, config: PipelineConfig | None = None
) -> FrameResult:
    """Run the whole per-frame pipeline.

    Stages: vote generation, outlier filter, clustering of the retained
    votes, mask assembly, optional residual reassignment (``rc2m``), and
    the sow instance. Predicted centers and confidences always come from
    the clustered groups, before reassignment adds the outlier votes
    back in. Per-stage wall times are recorded in the result.
    """
    if config is None:
        config = PipelineConfig()
    timings: dict[str, float] = {}
    t_start = time.perf_counter()

    t0 = time.perf_counter()
    cloud = generate_centers(semantic, offsets)
    timings["generate"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    cloud = filter_centers(
        cloud,
        radius_t=config.t,
        min_neighbors=config.min_neighbors,
        strategy=config.filter_strategy,
    )
    timings["filter"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    retained = np.flatnonzero(~cloud.filtered)
    sub = _cluster(cloud.positions[retained], config)
    full = np.zeros(len(cloud), dtype=np.int64)
    full[retained] = sub.labels
    labels = ClusterLabels(full, sub.n_groups)
    timings["cluster"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    instances = instances_from_labels(cloud, labels)
    timings["assemble"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    if config.rc2m and labels.n_groups >= 1:
        labels = reassign_unlabeled(cloud, labels)
        for m, idx in enumerate(_group_members(labels)):
            mask = BinaryMask.from_flat_indices(cloud.dims, cloud.source_pixels[idx])
            instances[m] = replace(instances[m], mask=mask)
    timings["reassign"] = time.perf_counter() - t0
    unassigned = int(np.count_nonzero(labels.labels == 0))

    t0 = time.perf_counter()
    sow = sow_instance(semantic)
    if sow is not None:
        instances.append(sow)
    timings["sow"] = time.perf_counter() - t0

    timings["total"] = time.perf_counter() - t_start
    return FrameResult(instances=instances, unassigned_pixel_count=unassigned, timings=timings)
