"""Deterministic synthetic scenes with known ground truth.

Piglets are ellipses, the sow is a stadium (rounded rectangle), and
occluders are straight bars spanning the frame, enough to realize both
occlusion patterns that matter: a bar through a body splits its visible
pixels into separate parts, a bar over an end shrinks the visible mask
without splitting it.

Stacking order: occluder bars hide everything, piglets with lower index
sit higher in the pile, the sow lies under all piglets. Offsets at every
visible piglet pixel point exactly at that piglet's full-body center
(not the fragment centroid), which is what makes the voted center
occlusion-resistant; the sow casts no votes.

Everything is a pure function of (spec, frame_index): identical inputs
give byte-identical frames.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grids import BACKGROUND, PIGLET, SOW, CLASS_PIGLET, CLASS_SOW
from .grids import MAX_FRAME_PIXELS, BinaryMask, GridDims, OffsetMap, SemanticMap
from .instances import Instance


class SceneGenerationError(RuntimeError):
    """Raised when a scene spec cannot be satisfied."""


@dataclass(frozen=True)
class OccluderBar:
    """An infinite strip: pixels within width/2 of the line through
    (cx, cy) with direction angle (radians, 0 = horizontal)."""

    cx: float
    cy: float
    angle: float
    width: float


@dataclass(frozen=True)
class NoiseModel:
    """Simulated imperfections of the upstream network heads."""

    flip_rate: float = 0.0  # piglet<->background label flips
    offset_sigma: float = 0.0  # i.i.d. Gaussian noise per offset component

    def __post_init__(self) -> None:
        if not (0.0 <= self.flip_rate < 1.0):
            raise ValueError("flip_rate must lie in [0, 1)")
        if not 0 <= self.offset_sigma < math.inf:  # NaN fails it too
            raise ValueError(f"offset_sigma must be finite and >= 0, got {self.offset_sigma}")


@dataclass(frozen=True)
class SceneSpec:
    """Parameters of a synthetic scene (or sequence of scenes).

    Random placement rejects candidates that violate the center
    separation or minimum visible area; explicit ``positions`` (and the
    matching optional ``axes``, ``orientations``, ``velocities``) bypass
    the rejection sampling for hand-built scenes.
    """

    dims: GridDims
    n_piglets: int
    seed: int = 0
    piglet_a: tuple[float, float] = (11.0, 16.0)  # semi-major axis range, px
    piglet_b: tuple[float, float] = (8.0, 11.0)  # semi-minor axis range, px
    sow: bool = True
    sow_half_length: float = 24.0
    sow_radius: float = 12.0
    sow_min_visible_area: int = 150
    occluders: tuple[OccluderBar, ...] = ()
    n_random_occluders: int = 0
    occluder_width: tuple[float, float] = (3.0, 7.0)
    max_speed: float = 0.0  # per-component velocity bound, px/frame
    min_visible_area: int = 180
    min_center_separation: float = 16.0
    # when central_radius > 0, placement also requires at least
    # min_central_visible visible pixels within that radius of the
    # center, so a vote filter keyed on displacement keeps a quorum
    central_radius: float = 0.0
    min_central_visible: int = 0
    noise: NoiseModel = NoiseModel()
    positions: tuple[tuple[float, float], ...] | None = None
    velocities: tuple[tuple[float, float], ...] | None = None
    axes: tuple[tuple[float, float], ...] | None = None
    orientations: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.dims.npixels > MAX_FRAME_PIXELS:  # a frame is rasterised whole, several arrays of it at once
            raise ValueError(f"{self.dims.width}x{self.dims.height} exceeds the {MAX_FRAME_PIXELS}-pixel limit")
        if self.n_piglets < 0:
            raise ValueError("n_piglets must be >= 0")
        if self.n_random_occluders < 0:
            raise ValueError("n_random_occluders must be >= 0")
        floats = ("sow_half_length", "sow_radius", "max_speed", "min_center_separation", "central_radius")
        bounds = {name: getattr(self, name) for name in floats}
        for name in ("piglet_a", "piglet_b", "occluder_width"):
            bounds[f"{name}_min"], bounds[f"{name}_max"] = getattr(self, name)
        for name, value in bounds.items():
            if not 0 <= value < math.inf:  # NaN fails it too
                raise ValueError(f"{name} must be finite and >= 0, got {value}")
        for name in ("positions", "velocities", "axes", "orientations"):
            val = getattr(self, name)
            if val is not None and len(val) != self.n_piglets:
                raise ValueError(f"{name} must list one entry per piglet")


@dataclass(frozen=True)
class GroundTruthInstance:
    cls: str
    full_mask: BinaryMask
    visible_mask: BinaryMask
    center: tuple[float, float]


@dataclass(frozen=True)
class SyntheticFrame:
    index: int
    dims: GridDims
    gt: tuple[GroundTruthInstance, ...]
    semantic: SemanticMap
    offsets: OffsetMap
    occluder_mask: BinaryMask


@dataclass
class _Layout:
    centers: np.ndarray  # (n, 2) float
    axes: np.ndarray  # (n, 2) float, (a, b)
    thetas: np.ndarray  # (n,)
    velocities: np.ndarray  # (n, 2)
    bars: tuple[OccluderBar, ...]
    sow_center: tuple[float, float] | None
    sow_theta: float


def _coord_grids(dims: GridDims) -> tuple[np.ndarray, np.ndarray]:
    xs = np.arange(dims.width, dtype=np.float64)[None, :]
    ys = np.arange(dims.height, dtype=np.float64)[:, None]
    return xs, ys


def _ellipse_mask(dims: GridDims, cx: float, cy: float, a: float, b: float, theta: float) -> np.ndarray:
    """Full-frame mask of the pixels inside a rotated ellipse.

    The test runs only over the ellipse's bounding box plus a pixel on
    each side, so that rounding cannot leave out a pixel; each pixel's
    arithmetic is the same as over the whole frame.
    """
    ex, ey = _ellipse_extent(a, b, theta)
    x0, x1 = max(0, math.floor(cx - ex) - 1), min(dims.width, math.ceil(cx + ex) + 2)
    y0, y1 = max(0, math.floor(cy - ey) - 1), min(dims.height, math.ceil(cy + ey) + 2)
    out = np.zeros(dims.shape, dtype=bool)
    if x0 >= x1 or y0 >= y1:
        return out
    dx = np.arange(x0, x1, dtype=np.float64)[None, :] - cx
    dy = np.arange(y0, y1, dtype=np.float64)[:, None] - cy
    ca, sa = math.cos(theta), math.sin(theta)
    u = (dx * ca + dy * sa) / a
    v = (-dx * sa + dy * ca) / b
    out[y0:y1, x0:x1] = u * u + v * v <= 1.0
    return out


def _stadium_mask(dims: GridDims, cx: float, cy: float, half_len: float, radius: float, theta: float) -> np.ndarray:
    xs, ys = _coord_grids(dims)
    dx = xs - cx
    dy = ys - cy
    ca, sa = math.cos(theta), math.sin(theta)
    u = dx * ca + dy * sa
    v = -dx * sa + dy * ca
    t = np.clip(u, -half_len, half_len)
    return (u - t) ** 2 + v**2 <= radius * radius


def _bar_mask(dims: GridDims, bar: OccluderBar) -> np.ndarray:
    xs, ys = _coord_grids(dims)
    dx = xs - bar.cx
    dy = ys - bar.cy
    dist = np.abs(-dx * math.sin(bar.angle) + dy * math.cos(bar.angle))
    return dist <= bar.width / 2.0


def _ellipse_extent(a: float, b: float, theta: float) -> tuple[float, float]:
    """Half extents of a rotated ellipse's bounding box."""
    ca, sa = math.cos(theta), math.sin(theta)
    ex = math.hypot(a * ca, b * sa)
    ey = math.hypot(a * sa, b * ca)
    return ex, ey


def _sample_layout(spec: SceneSpec) -> _Layout:
    rng = np.random.default_rng(spec.seed)
    dims = spec.dims
    w, h = dims.width, dims.height

    bars = list(spec.occluders)
    for _ in range(spec.n_random_occluders):
        if rng.random() < 0.3:
            angle = float(rng.uniform(0.0, math.pi))
        else:
            angle = float(rng.choice([0.0, math.pi / 2.0]))
        cx = float(rng.uniform(0.15 * w, 0.85 * w))
        cy = float(rng.uniform(0.15 * h, 0.85 * h))
        width = float(rng.uniform(*spec.occluder_width))
        bars.append(OccluderBar(cx=cx, cy=cy, angle=angle, width=width))
    bar_union = np.zeros(dims.shape, dtype=bool)
    for bar in bars:
        bar_union |= _bar_mask(dims, bar)

    n = spec.n_piglets
    centers = np.zeros((n, 2))
    axes = np.zeros((n, 2))
    thetas = np.zeros(n)
    free = np.ones(dims.shape, dtype=bool)  # not claimed by a higher piglet

    if spec.positions is not None:
        for i in range(n):
            if spec.axes is not None:
                a, b = spec.axes[i]
            else:
                a = float(rng.uniform(*spec.piglet_a))
                b = float(rng.uniform(*spec.piglet_b))
            theta = spec.orientations[i] if spec.orientations is not None else float(rng.uniform(0, math.pi))
            centers[i] = spec.positions[i]
            axes[i] = (a, b)
            thetas[i] = theta
            free &= ~_ellipse_mask(dims, centers[i, 0], centers[i, 1], a, b, theta)
    else:
        for i in range(n):
            placed = False
            for _ in range(300):
                a = float(rng.uniform(*spec.piglet_a))
                b = float(rng.uniform(*spec.piglet_b))
                theta = float(rng.uniform(0, math.pi))
                ex, ey = _ellipse_extent(a, b, theta)
                if 2 * ex >= w - 2 or 2 * ey >= h - 2:
                    continue
                cx = float(rng.uniform(ex, w - 1 - ex))
                cy = float(rng.uniform(ey, h - 1 - ey))
                if i:
                    dist = np.hypot(centers[:i, 0] - cx, centers[:i, 1] - cy)
                    if dist.min() < spec.min_center_separation:
                        continue
                ell = _ellipse_mask(dims, cx, cy, a, b, theta)
                visible = ell & free & ~bar_union
                if int(visible.sum()) < spec.min_visible_area:
                    continue
                if spec.central_radius > 0 and spec.min_central_visible > 0:
                    gx, gy = _coord_grids(dims)
                    near = (gx - cx) ** 2 + (gy - cy) ** 2 <= spec.central_radius**2
                    if int((visible & near).sum()) < spec.min_central_visible:
                        continue
                centers[i] = (cx, cy)
                axes[i] = (a, b)
                thetas[i] = theta
                free &= ~ell
                placed = True
                break
            if not placed:
                raise SceneGenerationError(
                    f"piglet {i}: no placement satisfied min_visible_area="
                    f"{spec.min_visible_area} and min_center_separation="
                    f"{spec.min_center_separation} after 300 attempts"
                )

    sow_center = None
    sow_theta = 0.0
    if spec.sow:
        margin = spec.sow_half_length + spec.sow_radius
        if 2 * margin >= min(w, h):
            raise SceneGenerationError("sow does not fit in the frame")
        for _ in range(300):
            cx = float(rng.uniform(margin, w - 1 - margin))
            cy = float(rng.uniform(margin, h - 1 - margin))
            theta = float(rng.uniform(0, math.pi))
            body = _stadium_mask(dims, cx, cy, spec.sow_half_length, spec.sow_radius, theta)
            visible = body & free & ~bar_union
            if int(visible.sum()) >= spec.sow_min_visible_area:
                sow_center = (cx, cy)
                sow_theta = theta
                break
        if sow_center is None:
            raise SceneGenerationError(
                f"sow: no placement reached sow_min_visible_area={spec.sow_min_visible_area}"
                " after 300 attempts"
            )

    if spec.velocities is not None:
        velocities = np.asarray(spec.velocities, dtype=np.float64).reshape(n, 2)
    elif spec.max_speed > 0:
        velocities = rng.uniform(-spec.max_speed, spec.max_speed, size=(n, 2))
    else:
        velocities = np.zeros((n, 2))

    return _Layout(
        centers=centers,
        axes=axes,
        thetas=thetas,
        velocities=velocities,
        bars=tuple(bars),
        sow_center=sow_center,
        sow_theta=sow_theta,
    )


def _advance(layout: _Layout, dims: GridDims, steps: int) -> None:
    """Move piglet centers ``steps`` frames, reflecting at the borders."""
    w, h = dims.width, dims.height
    for _ in range(steps):
        for i in range(layout.centers.shape[0]):
            a, b = layout.axes[i]
            ex, ey = _ellipse_extent(a, b, layout.thetas[i])
            for axis, (extent, limit) in enumerate(((ex, w - 1), (ey, h - 1))):
                cand = layout.centers[i, axis] + layout.velocities[i, axis]
                if cand - extent < 0 or cand + extent > limit:
                    layout.velocities[i, axis] = -layout.velocities[i, axis]
                layout.centers[i, axis] += layout.velocities[i, axis]


def _rasterize(spec: SceneSpec, layout: _Layout, frame_index: int) -> SyntheticFrame:
    dims = spec.dims
    n = spec.n_piglets
    EMPTY = -1
    SOW_OWNER = n
    owner = np.full(dims.shape, EMPTY, dtype=np.int32)
    full_masks = []
    for i in range(n):
        ell = _ellipse_mask(
            dims, layout.centers[i, 0], layout.centers[i, 1],
            layout.axes[i, 0], layout.axes[i, 1], layout.thetas[i],
        )
        full_masks.append(ell)
        owner[ell & (owner == EMPTY)] = i
    sow_full = None
    if layout.sow_center is not None:
        sow_full = _stadium_mask(
            dims, layout.sow_center[0], layout.sow_center[1],
            spec.sow_half_length, spec.sow_radius, layout.sow_theta,
        )
        owner[sow_full & (owner == EMPTY)] = SOW_OWNER

    bar_union = np.zeros(dims.shape, dtype=bool)
    for bar in layout.bars:
        bar_union |= _bar_mask(dims, bar)

    labels = np.zeros(dims.shape, dtype=np.uint8)
    offsets = np.zeros((*dims.shape, 2), dtype=np.float32)
    xs, ys = _coord_grids(dims)
    gt = []
    for i in range(n):
        visible = (owner == i) & ~bar_union
        cx, cy = float(layout.centers[i, 0]), float(layout.centers[i, 1])
        labels[visible] = PIGLET
        offsets[visible, 0] = (cx - np.broadcast_to(xs, dims.shape))[visible]
        offsets[visible, 1] = (cy - np.broadcast_to(ys, dims.shape))[visible]
        gt.append(
            GroundTruthInstance(
                cls=CLASS_PIGLET,
                full_mask=BinaryMask(dims, full_masks[i]),
                visible_mask=BinaryMask(dims, visible),
                center=(cx, cy),
            )
        )
    if sow_full is not None:
        sow_visible = (owner == SOW_OWNER) & ~bar_union
        labels[sow_visible] = SOW
        gt.append(
            GroundTruthInstance(
                cls=CLASS_SOW,
                full_mask=BinaryMask(dims, sow_full),
                visible_mask=BinaryMask(dims, sow_visible),
                center=(float(layout.sow_center[0]), float(layout.sow_center[1])),
            )
        )

    return SyntheticFrame(
        index=frame_index,
        dims=dims,
        gt=tuple(gt),
        semantic=SemanticMap(dims, labels),
        offsets=OffsetMap(dims, offsets),
        occluder_mask=BinaryMask(dims, bar_union),
    )


def gen_frame(spec: SceneSpec, frame_index: int = 0) -> SyntheticFrame:
    """The scene at ``frame_index`` under the spec's motion model."""
    if frame_index < 0:
        raise ValueError("frame_index must be >= 0")
    layout = _sample_layout(spec)
    _advance(layout, spec.dims, frame_index)
    return _rasterize(spec, layout, frame_index)


def gen_sequence(spec: SceneSpec, n_frames: int) -> list[SyntheticFrame]:
    """Frames 0..n_frames-1 with stable ground-truth identities."""
    if n_frames < 1:
        raise ValueError("n_frames must be >= 1")
    layout = _sample_layout(spec)
    frames = []
    for t in range(n_frames):
        frames.append(_rasterize(spec, layout, t))
        _advance(layout, spec.dims, 1)
    return frames


def perturb(frame: SyntheticFrame, noise: NoiseModel, seed: int) -> tuple[SemanticMap, OffsetMap]:
    """Simulate imperfect network heads on a clean frame.

    Each non-sow pixel's label flips between piglet and background
    independently with ``flip_rate``; i.i.d. Gaussian noise of standard
    deviation ``offset_sigma`` is added to every offset component.
    Deterministic per seed; zero noise returns values equal to the
    inputs.
    """
    rng = np.random.default_rng(seed)
    labels = frame.semantic.labels.copy()
    flip = (rng.random(labels.shape) < noise.flip_rate) & (labels != SOW)
    flipped = np.where(labels == PIGLET, BACKGROUND, PIGLET).astype(np.uint8)
    labels[flip] = flipped[flip]
    vec = frame.offsets.vectors.astype(np.float64)
    vec = vec + rng.normal(0.0, noise.offset_sigma, size=vec.shape)
    return SemanticMap(frame.dims, labels), OffsetMap(frame.dims, vec.astype(np.float32))


def gt_instances(frame: SyntheticFrame) -> list[Instance]:
    """Ground truth as instances (visible masks, unit score)."""
    out = []
    for g in frame.gt:
        if g.visible_mask.area == 0:
            continue
        out.append(
            Instance(mask=g.visible_mask, predicted_center=g.center, cls=g.cls, score=1.0)
        )
    return out
