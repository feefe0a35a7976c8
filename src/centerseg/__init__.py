"""Center-vote clustering instance segmentation.

Every piglet pixel votes for its object's center via a learned offset;
votes are filtered, clustered (DBSCAN by default), and traced back to
their source pixels to form instance masks, with an optional residual
pass that reassigns leftover votes to the nearest cluster so no piglet
pixel is dropped. The package also ships the training loss kernels,
mask-mAP evaluation, greedy IoU tracking with monitoring metrics, a
deterministic synthetic scene generator, and a CLI with bit-exact file
formats.
"""

from .centers import CenterCloud, filter_centers, generate_centers
from .clustering import (
    ClusterLabels,
    GridIndex,
    dbscan,
    dbscan_naive,
    mean_shift,
    neighbors_at_least,
)
from .config import PipelineConfig
from .evaluation import APResult, IOU_THRESHOLDS, map_eval, mask_iou
from .grids import (
    BACKGROUND,
    CLASS_PIGLET,
    CLASS_SOW,
    PIGLET,
    SOW,
    BinaryMask,
    DimensionMismatch,
    GridDims,
    OffsetMap,
    SemanticMap,
    rle_decode,
    rle_encode,
)
from .instances import (
    FrameResult,
    Instance,
    instances_from_labels,
    reassign_unlabeled,
    segment_frame,
    sow_instance,
)
from .losses import (
    FocalParams,
    LossValue,
    focal_loss,
    offset_loss,
    run_gradient_checks,
    total_loss,
)
from .synth import (
    GroundTruthInstance,
    NoiseModel,
    OccluderBar,
    SceneGenerationError,
    SceneSpec,
    SyntheticFrame,
    gen_frame,
    gen_sequence,
    gt_instances,
    perturb,
)
from .tracking import (
    Track,
    TrackMetrics,
    TrackState,
    heatmap,
    pair_frames,
    track_metrics,
    update_tracks,
)

__version__ = "0.1.0"

__all__ = [
    "BACKGROUND",
    "PIGLET",
    "SOW",
    "CLASS_PIGLET",
    "CLASS_SOW",
    "APResult",
    "BinaryMask",
    "CenterCloud",
    "ClusterLabels",
    "DimensionMismatch",
    "FocalParams",
    "FrameResult",
    "GridDims",
    "GridIndex",
    "GroundTruthInstance",
    "Instance",
    "IOU_THRESHOLDS",
    "LossValue",
    "NoiseModel",
    "OccluderBar",
    "OffsetMap",
    "PipelineConfig",
    "SceneGenerationError",
    "SceneSpec",
    "SemanticMap",
    "SyntheticFrame",
    "Track",
    "TrackMetrics",
    "TrackState",
    "dbscan",
    "dbscan_naive",
    "filter_centers",
    "focal_loss",
    "gen_frame",
    "gen_sequence",
    "generate_centers",
    "gt_instances",
    "heatmap",
    "instances_from_labels",
    "map_eval",
    "mask_iou",
    "mean_shift",
    "neighbors_at_least",
    "offset_loss",
    "pair_frames",
    "perturb",
    "reassign_unlabeled",
    "rle_decode",
    "rle_encode",
    "run_gradient_checks",
    "segment_frame",
    "sow_instance",
    "total_loss",
    "track_metrics",
    "update_tracks",
]
