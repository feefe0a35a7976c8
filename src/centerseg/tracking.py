"""Greedy IoU multi-object tracking and per-track monitoring metrics.

Pairing between consecutive frames repeatedly binds the globally
highest-IoU (previous, current) pair among the still-unpaired instances
until no pair exceeds the threshold; leftover current instances open new
tracks, leftover previous instances close theirs (no re-identification
after a drop). Track positions use the voted center, which stays on the
whole body even when only fragments are visible, never the visible-mask
centroid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .evaluation import _iou_matrix, mask_iou
from .grids import DimensionMismatch, GridDims
from .instances import FrameResult, Instance

TOP_AREA_KEEP = 5


@dataclass
class Track:
    """One object identity with its per-frame records and accumulators."""

    track_id: int
    cls: str
    dims: GridDims
    frames: list[int] = field(default_factory=list)
    centers: list[tuple[float, float]] = field(default_factory=list)
    movement: float = 0.0
    top_areas: list[int] = field(default_factory=list)  # descending, at most 5
    box: tuple[int, int, int, int] = field(default=(0, 0, 0, 0), init=False)  # union of the masks' boxes
    occupancy: np.ndarray = field(default_factory=lambda: np.zeros((0, 0), np.uint32), init=False)  # visits over box

    def add_record(self, frame_index: int, inst: Instance) -> None:
        if self.frames and frame_index <= self.frames[-1]:
            raise ValueError("frame indices must be strictly increasing")
        if self.centers:
            px, py = self.centers[-1]
            cx, cy = inst.predicted_center
            self.movement += math.hypot(cx - px, cy - py)
        self.frames.append(frame_index)
        self.centers.append(inst.predicted_center)
        area = inst.mask.area
        self.top_areas = sorted(self.top_areas + [area], reverse=True)[:TOP_AREA_KEEP]
        (r0, r1, c0, c1), (b0, b1, d0, d1) = inst.mask.bbox, self.box
        box = (min(r0, b0), max(r1, b1), min(c0, d0), max(c1, d1)) if self.occupancy.size else inst.mask.bbox
        if box != self.box:  # grow to the union; on the first record the old box is empty and pastes nothing
            grown = np.zeros((box[1] - box[0], box[3] - box[2]), dtype=np.uint32)
            grown[b0 - box[0] : b1 - box[0], d0 - box[2] : d1 - box[2]] = self.occupancy
            self.box, self.occupancy = box, grown
        self.occupancy[r0 - box[0] : r1 - box[0], c0 - box[2] : c1 - box[2]] += inst.mask.crop


@dataclass
class TrackState:
    """Mutable cross-frame identity table, advanced one frame at a time."""

    dims: GridDims
    fps: float
    min_iou: float
    next_id: int = 0
    frame_index: int = 0
    active: dict[int, Track] = field(default_factory=dict)
    closed: list[Track] = field(default_factory=list)
    # (track_id, instance) for the previous frame, in frame order
    prev: list[tuple[int, Instance]] = field(default_factory=list)
    # CSV-ready rows: (frame, track_id, cls, cx, cy, area, paired_iou|None)
    rows: list[tuple] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.fps > 0:  # NaN fails each bound
            raise ValueError("fps must be > 0")
        if not self.min_iou >= 0:
            raise ValueError("min_iou must be >= 0")

    def all_tracks(self) -> list[Track]:
        tracks = list(self.active.values()) + self.closed
        return sorted(tracks, key=lambda t: t.track_id)


def pair_frames(
    prev: list[Instance], cur: list[Instance], min_iou: float
) -> tuple[list[tuple[int, int, float]], list[int], list[int]]:
    """Greedy global-maximum IoU association between two instance lists.

    Returns (pairs, new, dropped): pairs as (prev_index, cur_index, iou)
    bound in descending IoU order with IoU strictly above ``min_iou``;
    ties break to the lower previous index, then the lower current
    index. ``new`` are unpaired current indices, ``dropped`` unpaired
    previous indices, both ascending. Only pairs whose boxes overlap go
    through :func:`mask_iou`; the rest have IoU 0.0 and never pair.
    """
    if not min_iou >= 0:  # NaN too: no IoU would ever fall to it
        raise ValueError("min_iou must be >= 0")
    m, k = len(prev), len(cur)
    pairs: list[tuple[int, int, float]] = []
    if m and k:
        table = _iou_matrix([p.mask for p in prev], [c.mask for c in cur], mask_iou)
        while True:
            flat = int(np.argmax(table))  # first occurrence = lowest (prev, cur)
            i, j = divmod(flat, k)
            best = float(table[i, j])
            if best <= min_iou:
                break
            pairs.append((i, j, best))
            table[i, :] = -1.0
            table[:, j] = -1.0
    paired_prev = {i for i, _, _ in pairs}
    paired_cur = {j for _, j, _ in pairs}
    new = [j for j in range(k) if j not in paired_cur]
    dropped = [i for i in range(m) if i not in paired_prev]
    return pairs, new, dropped


def update_tracks(state: TrackState, frame: FrameResult) -> TrackState:
    """Advance the identity table by one frame (mutates ``state``).

    Paired instances keep their track id, unpaired current instances get
    fresh increasing ids, and unpaired previous tracks are closed for
    good. Per-track movement, top areas, and occupancy are updated from
    the instances' voted centers and masks.
    """
    for inst in frame.instances:
        if inst.mask.dims != state.dims:
            raise DimensionMismatch(
                f"instance mask {inst.mask.dims.width}x{inst.mask.dims.height} vs "
                f"tracker {state.dims.width}x{state.dims.height}"
            )
    prev_insts = [inst for _, inst in state.prev]
    pairs, new, dropped = pair_frames(prev_insts, frame.instances, state.min_iou)
    fidx = state.frame_index

    assigned: dict[int, tuple[int, float | None]] = {}  # cur index -> (track id, iou)
    for pi, ci, iou in pairs:
        assigned[ci] = (state.prev[pi][0], iou)
    for ci in new:
        tid = state.next_id
        state.next_id += 1
        inst = frame.instances[ci]
        state.active[tid] = Track(track_id=tid, cls=inst.cls, dims=state.dims)
        assigned[ci] = (tid, None)
    for pi in dropped:
        tid = state.prev[pi][0]
        state.closed.append(state.active.pop(tid))

    next_prev: list[tuple[int, Instance]] = []
    for ci, inst in enumerate(frame.instances):
        tid, iou = assigned[ci]
        track = state.active[tid]
        track.add_record(fidx, inst)
        cx, cy = inst.predicted_center
        state.rows.append((fidx, tid, inst.cls, cx, cy, inst.mask.area, iou))
        next_prev.append((tid, inst))
    state.prev = next_prev
    state.frame_index += 1
    return state


@dataclass(frozen=True)
class TrackMetrics:
    """The monitoring summary of one track."""

    track_id: int
    cls: str
    movement_px: float
    avg_speed_px_s: float
    body_pixel_size: float
    space_usage: float


def track_metrics(track: Track, state: TrackState) -> TrackMetrics:
    """Movement, average speed, body size, and space usage of a track.

    Average speed divides accumulated movement by the track-local
    elapsed time (record count - 1 over fps); a single-record track has
    speed 0. Body pixel size is the mean of the up-to-five largest
    observed mask areas. Space usage is the fraction of the frame's
    pixels visited.
    """
    if not track.frames:
        raise ValueError("track has no records")
    n = len(track.frames)
    speed = 0.0 if n <= 1 else track.movement / ((n - 1) / state.fps)
    body = float(np.mean(track.top_areas))
    visited = int(np.count_nonzero(track.occupancy))
    return TrackMetrics(
        track_id=track.track_id,
        cls=track.cls,
        movement_px=track.movement,
        avg_speed_px_s=speed,
        body_pixel_size=body,
        space_usage=visited / state.dims.npixels,
    )


def heatmap(track: Track) -> np.ndarray:
    """Per-pixel visit counts of a track over the full frame (a new array)."""
    counts = np.zeros(track.dims.shape, dtype=np.uint32)
    r0, r1, c0, c1 = track.box
    counts[r0:r1, c0:c1] = track.occupancy
    return counts
