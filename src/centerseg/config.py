"""Pipeline configuration shared by the library and the CLI."""

from __future__ import annotations

from dataclasses import dataclass

from .clustering import _radius

ALGORITHMS = ("dbscan", "mean-shift")
FILTER_STRATEGIES = ("density", "offset-magnitude")


@dataclass(frozen=True)
class PipelineConfig:
    """Knobs for the segmentation pipeline and its downstream consumers.

    Production defaults: vote filter radius t = 20 px, clustering radius
    eps = 2.5 px, cluster density floor min_pts = 50 votes, 7 frames/s.
    Synthetic desk-scale scenes typically need a smaller min_pts (the
    production value assumes full-resolution animals).
    """

    t: float = 20.0
    min_neighbors: int = 10
    filter_strategy: str = "density"
    eps: float = 2.5
    min_pts: int = 50
    rc2m: bool = True
    algo: str = "dbscan"
    bandwidth: float = 10.0
    min_iou: float = 0.0
    fps: float = 7.0

    def __post_init__(self) -> None:
        """Raise ValueError for the first value out of range. Each bound is
        written so that NaN fails it too; the radii ``t``, ``eps`` and
        ``bandwidth`` follow the radius contract of :mod:`.clustering`."""
        _radius(self.t, "t")
        if not self.min_neighbors >= 0:
            raise ValueError("min_neighbors must be >= 0")
        if self.filter_strategy not in FILTER_STRATEGIES:
            raise ValueError(f"filter_strategy must be one of {FILTER_STRATEGIES}")
        _radius(self.eps, "eps")
        if not self.min_pts >= 1:
            raise ValueError("min_pts must be >= 1")
        if self.algo not in ALGORITHMS:
            raise ValueError(f"algo must be one of {ALGORITHMS}")
        _radius(self.bandwidth, "bandwidth")
        if not self.min_iou >= 0:
            raise ValueError("min_iou must be >= 0")
        if not self.fps > 0:
            raise ValueError("fps must be > 0")
