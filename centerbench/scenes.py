"""Seeded synthetic inputs for the three workloads.

Everything here is a pure function of the workload seed. The program
under test only ever sees the files these functions write: binary maps,
ground-truth manifests and (for ``fullres-offline``) prediction
manifests.

Scene costs are kept comparable across seeds so that a run on one seed
measures the same amount of work as a run on another. Piglet sizes are
stratified over their ranges (each scene draws one size from each of n
equal strata), so a scene's vote count barely moves with the seed, and
bodies are placed apart:

- desk batches always hold the same piglet counts (spread over 3..20),
  placed on a jittered lattice: the vote filter's cost grows with how
  close the vote clusters sit, which free placement leaves to chance;
- full-scale scenes hold 14 piglets of the paper's size (semi-axes
  60..80 by 35..45 px), at least 160 px apart when placed.

The seed sets which lattice cells are used, the jitter, layout,
orientations, motion, occluders and noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

DESK_DIMS = (192, 144)
DESK_PIGLET_A = (11.0, 16.0)
DESK_PIGLET_B = (8.0, 11.0)
DESK_JITTER = 0.2  # of a lattice cell, each way
DESK_PIGLETS = (3, 5, 8, 10, 13, 15, 18, 20)
DESK_FRAMES_PER_SEQUENCE = 4

FULL_DIMS = (1280, 720)
FULL_PIGLETS = 14
FULL_PIGLET_A = (60.0, 80.0)
FULL_PIGLET_B = (35.0, 45.0)
FULL_SEPARATION = 160.0
FULL_SPEED = 4.0
LIVE_FRAMES = 6
OFFLINE_FRAMES = 4

FLIP_RATE = 0.02
OFFSET_SIGMA = 1.5


@dataclass(frozen=True)
class FrameFiles:
    """The files of one frame; ``pred`` is set only where setup segments."""

    key: str
    semantic: Path
    offsets: Path | None
    gt: Path
    pred: Path | None = None


def _noise(cs):
    return cs.NoiseModel(flip_rate=FLIP_RATE, offset_sigma=OFFSET_SIGMA)


def _sub_seed(seed: int, *parts: int) -> int:
    return int(np.random.SeedSequence([seed % 2**64, *parts]).generate_state(1)[0])


def stratified_axes(rng, n: int, a_range, b_range) -> tuple[tuple[float, float], ...]:
    """One (a, b) per piglet, each axis drawn once from each of n strata."""
    strata = (np.arange(n) + rng.random(n)) / n
    a = a_range[0] + (a_range[1] - a_range[0]) * rng.permutation(strata)
    b = b_range[0] + (b_range[1] - b_range[0]) * rng.permutation(strata)
    return tuple((float(x), float(y)) for x, y in zip(a, b))


def desk_spec(cs, seed: int, n_piglets: int, attempt: int):
    """Acceptance-suite frame and body sizes on a jittered lattice, moving."""
    rng = np.random.default_rng(_sub_seed(seed, 1, n_piglets, attempt))
    w, h = DESK_DIMS
    cols = int(np.ceil(np.sqrt(n_piglets * w / h)))
    rows = int(np.ceil(n_piglets / cols))
    cell_w, cell_h = w / cols, h / rows
    cells = rng.choice(cols * rows, size=n_piglets, replace=False)
    margin = DESK_PIGLET_A[1] + 1.0
    xs = (cells % cols + 0.5 + rng.uniform(-DESK_JITTER, DESK_JITTER, n_piglets)) * cell_w
    ys = (cells // cols + 0.5 + rng.uniform(-DESK_JITTER, DESK_JITTER, n_piglets)) * cell_h
    xs = np.clip(xs, margin, w - 1 - margin)
    ys = np.clip(ys, margin, h - 1 - margin)
    return cs.SceneSpec(
        dims=cs.GridDims(w, h),
        n_piglets=n_piglets,
        seed=_sub_seed(seed, 2, n_piglets, attempt),
        positions=tuple((float(x), float(y)) for x, y in zip(xs, ys)),
        axes=stratified_axes(rng, n_piglets, DESK_PIGLET_A, DESK_PIGLET_B),
        n_random_occluders=2,
        max_speed=1.5,
        noise=_noise(cs),
    )


def _first_placeable(cs, make, n_frames: int):
    """Frames of the first spec from ``make(attempt)`` that can be placed."""
    for attempt in range(100):
        try:
            spec = make(attempt)
            return spec, [cs.gen_frame(spec, i) for i in range(n_frames)]
        except cs.SceneGenerationError:
            continue
    raise RuntimeError("no placeable scene in 100 attempts")


def write_desk(cs, seed: int, batch_dir: Path, gt_dir: Path) -> list[list[FrameFiles]]:
    """One batch directory holding every desk sequence, frame by frame."""
    from centerseg import formats

    batch_dir.mkdir(parents=True)
    gt_dir.mkdir(parents=True)
    sequences = []
    for k, n in enumerate(DESK_PIGLETS):
        spec, frames = _first_placeable(
            cs, lambda attempt: desk_spec(cs, seed, n, attempt), DESK_FRAMES_PER_SEQUENCE
        )
        seq = []
        for frame in frames:
            key = f"s{k}_f{frame.index:02d}"
            sem, off = cs.perturb(frame, spec.noise, seed=_sub_seed(seed, 3, k, frame.index))
            files = FrameFiles(key, batch_dir / f"{key}.ccsm", batch_dir / f"{key}.ccof", gt_dir / f"{key}.json")
            formats.write_semantic(files.semantic, sem)
            formats.write_offsets(files.offsets, off)
            formats.write_manifest(files.gt, frame.index, frame.dims, cs.gt_instances(frame))
            seq.append(files)
        sequences.append(seq)
    return sequences


def full_spec(cs, seed: int, attempt: int):
    """A 1280x720 pen: 14 piglets of stratified size, a sow, two occluders."""
    rng = np.random.default_rng(_sub_seed(seed, 4, attempt))
    w, h = FULL_DIMS
    margin = FULL_PIGLET_A[1] + 2.0
    positions: list[tuple[float, float]] = []
    for _ in range(20000):
        if len(positions) == FULL_PIGLETS:
            break
        cand = (float(rng.uniform(margin, w - 1 - margin)), float(rng.uniform(margin, h - 1 - margin)))
        if all(np.hypot(cand[0] - x, cand[1] - y) >= FULL_SEPARATION for x, y in positions):
            positions.append(cand)
    if len(positions) < FULL_PIGLETS:
        raise cs.SceneGenerationError("piglets do not fit at the required separation")
    return cs.SceneSpec(
        dims=cs.GridDims(w, h),
        n_piglets=FULL_PIGLETS,
        seed=_sub_seed(seed, 5, attempt),
        positions=tuple(positions),
        axes=stratified_axes(rng, FULL_PIGLETS, FULL_PIGLET_A, FULL_PIGLET_B),
        sow_half_length=110.0,
        sow_radius=55.0,
        sow_min_visible_area=4000,
        n_random_occluders=2,
        max_speed=FULL_SPEED,
        noise=_noise(cs),
    )


def write_full(cs, seed: int, n_frames: int, out_dir: Path, config=None) -> list[FrameFiles]:
    """A moving full-scale sequence as maps plus ground-truth manifests.

    Without ``config`` the offset maps are written for the program to
    read. With it, set-up segments each frame in process instead and
    writes the prediction manifest in place of the offset map. Frames
    are generated one at a time, so set-up holds at most one full-scale
    frame in memory.
    """
    from centerseg import formats, instances

    out_dir.mkdir(parents=True)
    spec, (frame,) = _first_placeable(cs, lambda attempt: full_spec(cs, seed, attempt), 1)
    out = []
    for i in range(n_frames):
        if i:
            frame = cs.gen_frame(spec, i)
        sem, off = cs.perturb(frame, spec.noise, seed=_sub_seed(seed, 6, i))
        key = f"f{i:02d}"
        files = FrameFiles(
            key,
            semantic=out_dir / f"{key}.ccsm",
            offsets=None if config else out_dir / f"{key}.ccof",
            gt=out_dir / f"gt_{key}.json",
            pred=out_dir / f"pred_{key}.json" if config else None,
        )
        formats.write_semantic(files.semantic, sem)
        formats.write_manifest(files.gt, i, frame.dims, cs.gt_instances(frame))
        if config:
            result = instances.segment_frame(sem, off, config)
            formats.write_manifest(files.pred, i, frame.dims, result.instances)
        else:
            formats.write_offsets(files.offsets, off)
        out.append(files)
    return out
