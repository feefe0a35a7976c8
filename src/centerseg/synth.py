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
from collections.abc import Iterator
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
        if self.dims.npixels > MAX_FRAME_PIXELS:  # the output maps are whole frames
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


# Rows per block of whole-frame work (occluder bars, perturb): about 64k
# pixels, so its float64 temporaries stay near half a megabyte each.
_BLOCK_PIXELS = 1 << 16


def _row_blocks(dims: GridDims):
    """Consecutive row ranges ``(r0, r1)`` that tile the frame top to bottom."""
    step = max(1, _BLOCK_PIXELS // dims.width)
    for r0 in range(0, dims.height, step):
        yield r0, min(r0 + step, dims.height)


def _box(dims: GridDims, cx: float, cy: float, ex: float, ey: float) -> tuple[int, int, int, int]:
    """Rows ``[y0, y1)`` and columns ``[x0, x1)`` of the frame within one
    pixel of the box ``|x - cx| <= ex, |y - cy| <= ey``, so that rounding
    cannot leave out a pixel of a shape inside it; empty off the frame."""
    x0 = min(max(0, math.floor(cx - ex) - 1), dims.width)
    y0 = min(max(0, math.floor(cy - ey) - 1), dims.height)
    x1 = max(min(dims.width, math.ceil(cx + ex) + 2), x0)
    y1 = max(min(dims.height, math.ceil(cy + ey) + 2), y0)
    return y0, y1, x0, x1


def _window(frame: np.ndarray, row0: int, col0: int, crop: np.ndarray) -> np.ndarray:
    """The view of ``frame`` that ``crop`` covers when placed at (row0, col0)."""
    return frame[row0 : row0 + crop.shape[0], col0 : col0 + crop.shape[1]]


def _ellipse_mask(dims: GridDims, cx: float, cy: float, a: float, b: float, theta: float):
    """``(row0, col0, crop)``: the pixels inside a rotated ellipse, over its
    bounding box plus a pixel on each side, cut to the frame."""
    y0, y1, x0, x1 = _box(dims, cx, cy, *_ellipse_extent(a, b, theta))
    dx = np.arange(x0, x1, dtype=np.float64)[None, :] - cx
    dy = np.arange(y0, y1, dtype=np.float64)[:, None] - cy
    ca, sa = math.cos(theta), math.sin(theta)
    u = (dx * ca + dy * sa) / a
    v = (-dx * sa + dy * ca) / b
    return y0, x0, u * u + v * v <= 1.0


def _stadium_mask(dims: GridDims, cx: float, cy: float, half_len: float, radius: float, theta: float):
    """``(row0, col0, crop)``: the pixels within ``radius`` of a segment of
    half length ``half_len`` through (cx, cy), over its bounding box plus a
    pixel on each side, cut to the frame."""
    ca, sa = math.cos(theta), math.sin(theta)
    y0, y1, x0, x1 = _box(dims, cx, cy, half_len * abs(ca) + radius, half_len * abs(sa) + radius)
    dx = np.arange(x0, x1, dtype=np.float64)[None, :] - cx
    dy = np.arange(y0, y1, dtype=np.float64)[:, None] - cy
    u = dx * ca + dy * sa
    v = -dx * sa + dy * ca
    t = np.clip(u, -half_len, half_len)
    return y0, x0, (u - t) ** 2 + v**2 <= radius * radius


def _bar_union(dims: GridDims, bars) -> np.ndarray:
    """Full-frame mask of the pixels under any occluder bar, a row block at a time."""
    union = np.zeros(dims.shape, dtype=bool)
    if not bars:
        return union
    xs = np.arange(dims.width, dtype=np.float64)[None, :]
    for r0, r1 in _row_blocks(dims):
        ys = np.arange(r0, r1, dtype=np.float64)[:, None]
        for bar in bars:
            dx = xs - bar.cx
            dy = ys - bar.cy
            dist = np.abs(-dx * math.sin(bar.angle) + dy * math.cos(bar.angle))
            union[r0:r1] |= dist <= bar.width / 2.0
    return union


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
    hidden = _bar_union(dims, bars)  # then also the pixels under each piglet placed

    n = spec.n_piglets
    centers = np.zeros((n, 2))
    axes = np.zeros((n, 2))
    thetas = np.zeros(n)

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
            row0, col0, ell = _ellipse_mask(dims, centers[i, 0], centers[i, 1], a, b, theta)
            _window(hidden, row0, col0, ell)[...] |= ell
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
                row0, col0, ell = _ellipse_mask(dims, cx, cy, a, b, theta)
                box = _window(hidden, row0, col0, ell)
                visible = ell & ~box
                if int(visible.sum()) < spec.min_visible_area:
                    continue
                if spec.central_radius > 0 and spec.min_central_visible > 0:
                    # visible pixels lie in the ellipse's box, so the count needs no more of the frame
                    gx = np.arange(col0, col0 + ell.shape[1], dtype=np.float64)[None, :]
                    gy = np.arange(row0, row0 + ell.shape[0], dtype=np.float64)[:, None]
                    near = (gx - cx) ** 2 + (gy - cy) ** 2 <= spec.central_radius**2
                    if int((visible & near).sum()) < spec.min_central_visible:
                        continue
                centers[i] = (cx, cy)
                axes[i] = (a, b)
                thetas[i] = theta
                box |= ell
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
            row0, col0, body = _stadium_mask(dims, cx, cy, spec.sow_half_length, spec.sow_radius, theta)
            visible = body & ~_window(hidden, row0, col0, body)
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
    """The frame of a layout, written body by body over each body's box."""
    dims = spec.dims
    bodies = [
        (CLASS_PIGLET, (float(cx), float(cy)), _ellipse_mask(dims, cx, cy, a, b, theta))
        for (cx, cy), (a, b), theta in zip(layout.centers, layout.axes, layout.thetas)
    ]
    if layout.sow_center is not None:
        cx, cy = layout.sow_center
        body = _stadium_mask(dims, cx, cy, spec.sow_half_length, spec.sow_radius, layout.sow_theta)
        bodies.append((CLASS_SOW, (float(cx), float(cy)), body))

    hidden = _bar_union(dims, layout.bars)
    occluder_mask = BinaryMask(dims, hidden)  # a copy: from here on hidden also grows under each body laid
    labels = np.zeros(dims.shape, dtype=np.uint8)
    offsets = np.zeros((*dims.shape, 2), dtype=np.float32)
    gt = []
    for cls, (cx, cy), (row0, col0, full) in bodies:  # top of the pile first
        box = _window(hidden, row0, col0, full)
        visible = full & ~box
        box |= full
        if cls == CLASS_PIGLET:
            _window(labels, row0, col0, full)[visible] = PIGLET
            rows, cols = np.nonzero(visible)
            off = _window(offsets, row0, col0, full)
            off[rows, cols, 0] = cx - (col0 + cols)
            off[rows, cols, 1] = cy - (row0 + rows)
        else:
            _window(labels, row0, col0, full)[visible] = SOW
        gt.append(
            GroundTruthInstance(
                cls=cls,
                full_mask=BinaryMask._from_box(dims, row0, col0, full),
                visible_mask=BinaryMask._from_box(dims, row0, col0, visible),
                center=(cx, cy),
            )
        )

    return SyntheticFrame(
        index=frame_index,
        dims=dims,
        gt=tuple(gt),
        semantic=SemanticMap(dims, labels),
        offsets=OffsetMap(dims, offsets),
        occluder_mask=occluder_mask,
    )


def gen_frame(spec: SceneSpec, frame_index: int = 0) -> SyntheticFrame:
    """The scene at ``frame_index`` under the spec's motion model."""
    if frame_index < 0:
        raise ValueError("frame_index must be >= 0")
    layout = _sample_layout(spec)
    _advance(layout, spec.dims, frame_index)
    return _rasterize(spec, layout, frame_index)


def iter_sequence(spec: SceneSpec, n_frames: int) -> Iterator[SyntheticFrame]:
    """Frames 0..n_frames-1 with stable ground-truth identities, each made
    only when it is asked for. The scene is placed on the call, so an
    unplaceable one raises SceneGenerationError before any frame exists."""
    if n_frames < 1:
        raise ValueError("n_frames must be >= 1")
    layout = _sample_layout(spec)

    def frames():
        for t in range(n_frames):
            yield _rasterize(spec, layout, t)
            _advance(layout, spec.dims, 1)

    return frames()


def gen_sequence(spec: SceneSpec, n_frames: int) -> list[SyntheticFrame]:
    """Frames 0..n_frames-1 with stable ground-truth identities."""
    return list(iter_sequence(spec, n_frames))


def perturb(frame: SyntheticFrame, noise: NoiseModel, seed: int) -> tuple[SemanticMap, OffsetMap]:
    """Simulate imperfect network heads on a clean frame.

    Each non-sow pixel's label flips between piglet and background
    independently with ``flip_rate``; i.i.d. Gaussian noise of standard
    deviation ``offset_sigma`` is added to every offset component.
    Deterministic per seed; zero noise returns values equal to the
    inputs.
    """
    # Row blocks draw the same numbers as whole-frame draws would, in the
    # same order: every flip draw first, then every offset draw.
    rng = np.random.default_rng(seed)
    labels = frame.semantic.labels.copy()
    for r0, r1 in _row_blocks(frame.dims):
        block = labels[r0:r1]
        flip = (rng.random(block.shape) < noise.flip_rate) & (block != SOW)
        block[flip] = np.where(block[flip] == PIGLET, BACKGROUND, PIGLET)
    vectors = np.empty_like(frame.offsets.vectors)
    for r0, r1 in _row_blocks(frame.dims):
        vec = frame.offsets.vectors[r0:r1].astype(np.float64)
        vectors[r0:r1] = vec + rng.normal(0.0, noise.offset_sigma, size=vec.shape)
    return SemanticMap(frame.dims, labels), OffsetMap(frame.dims, vectors)


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
