"""Synthetic scene generator: determinism, occlusion patterns, noise.

``GENERATOR_GOLDEN`` pins the bytes the generator writes for scenes that
reach its edge cases: every map, every ground-truth mask and the
occluder mask of ``gen_frame`` and ``gen_sequence``, and the maps of
``perturb``. Its digests were generated by ``generator_digests`` at the
commit before the generator rasterised each shape over its own box, so
they pin that the boxes changed no byte.

Regenerate them with ``PYTHONPATH=src python tests/test_synth.py`` only
for a change that is meant to alter the scenes.
"""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from scipy import ndimage

from centerseg import (
    GridDims,
    NoiseModel,
    OccluderBar,
    SceneSpec,
    gen_frame,
    gen_sequence,
    perturb,
)
from centerseg.formats import scene_spec_loads
from centerseg.synth import iter_sequence
from test_golden import FULLRES_SCENE

EIGHT = np.ones((3, 3), dtype=int)
SMALL_SOW = {"sow_half_length": 14.0, "sow_radius": 8.0, "sow_min_visible_area": 80}


def n_components(mask):
    _, count = ndimage.label(mask.pixels, structure=EIGHT)
    return count


def test_blank_scene():
    spec = SceneSpec(dims=GridDims(64, 48), n_piglets=0, sow=False)
    fr = gen_frame(spec)
    assert fr.gt == ()
    assert not fr.semantic.labels.any()
    assert not fr.offsets.vectors.any()


def test_determinism_byte_identical():
    spec = SceneSpec(dims=GridDims(96, 72), n_piglets=5, seed=11, n_random_occluders=2, **SMALL_SOW)
    a = gen_frame(spec, 3)
    b = gen_frame(spec, 3)
    assert a.semantic == b.semantic
    assert a.offsets == b.offsets
    assert a.occluder_mask == b.occluder_mask
    assert all(x.visible_mask == y.visible_mask for x, y in zip(a.gt, b.gt))


def test_offsets_point_to_full_body_center():
    spec = SceneSpec(dims=GridDims(96, 72), n_piglets=4, seed=2, n_random_occluders=1, **SMALL_SOW)
    fr = gen_frame(spec)
    for g in fr.gt:
        if g.cls != "piglet":
            continue
        ys, xs = np.nonzero(g.visible_mask.pixels)
        vec = fr.offsets.vectors[ys, xs]
        expect_dx = np.float32(g.center[0] - xs.astype(np.float64))
        expect_dy = np.float32(g.center[1] - ys.astype(np.float64))
        assert np.array_equal(vec[:, 0], expect_dx)
        assert np.array_equal(vec[:, 1], expect_dy)


def test_semantic_consistent_with_visible_masks():
    spec = SceneSpec(dims=GridDims(96, 72), n_piglets=5, seed=4, n_random_occluders=2, **SMALL_SOW)
    fr = gen_frame(spec)
    piglet_union = np.zeros(fr.dims.shape, dtype=bool)
    for g in fr.gt:
        if g.cls == "piglet":
            assert not (piglet_union & g.visible_mask.pixels).any()
            piglet_union |= g.visible_mask.pixels
    assert np.array_equal(fr.semantic.labels == 1, piglet_union)
    sow = [g for g in fr.gt if g.cls == "sow"]
    if sow:
        assert np.array_equal(fr.semantic.labels == 2, sow[0].visible_mask.pixels)
    assert not (fr.semantic.labels.astype(bool) & fr.occluder_mask.pixels).any()


def test_bar_through_body_splits_it():
    dims = GridDims(96, 72)
    bar = OccluderBar(cx=48.0, cy=36.0, angle=np.pi / 2, width=5.0)
    spec = SceneSpec(
        dims=dims,
        n_piglets=1,
        sow=False,
        positions=((48.0, 36.0),),
        axes=((15.0, 9.0),),
        orientations=(0.0,),
        occluders=(bar,),
    )
    fr = gen_frame(spec)
    g = fr.gt[0]
    assert n_components(g.full_mask) == 1
    assert n_components(g.visible_mask) >= 2
    assert g.visible_mask.area < g.full_mask.area


def test_bar_over_end_shrinks_without_split():
    dims = GridDims(96, 72)
    bar = OccluderBar(cx=60.0, cy=36.0, angle=np.pi / 2, width=6.0)
    spec = SceneSpec(
        dims=dims,
        n_piglets=1,
        sow=False,
        positions=((48.0, 36.0),),
        axes=((14.0, 9.0),),
        orientations=(0.0,),
        occluders=(bar,),
    )
    fr = gen_frame(spec)
    g = fr.gt[0]
    assert n_components(g.visible_mask) == 1
    assert g.visible_mask.area < g.full_mask.area


def test_infeasible_spec_raises():
    from centerseg import SceneGenerationError

    spec = SceneSpec(
        dims=GridDims(48, 48),
        n_piglets=30,
        sow=False,
        min_visible_area=400,
        seed=0,
    )
    with pytest.raises(SceneGenerationError, match="piglet"):
        gen_frame(spec)


def test_zero_velocity_sequence_static():
    spec = SceneSpec(dims=GridDims(96, 72), n_piglets=3, seed=6, **SMALL_SOW)
    frames = gen_sequence(spec, 4)
    for later in frames[1:]:
        assert later.semantic == frames[0].semantic
        assert later.offsets == frames[0].offsets


def test_constant_velocity_arithmetic_centers():
    spec = SceneSpec(
        dims=GridDims(128, 48),
        n_piglets=1,
        sow=False,
        positions=((20.0, 24.0),),
        velocities=((3.0, 0.0),),
        axes=((10.0, 7.0),),
        orientations=(0.0,),
    )
    frames = gen_sequence(spec, 8)
    xs = [fr.gt[0].center[0] for fr in frames]
    assert xs == [20.0 + 3.0 * t for t in range(8)]


def test_border_reflection_reverses_velocity():
    spec = SceneSpec(
        dims=GridDims(64, 48),
        n_piglets=1,
        sow=False,
        positions=((50.0, 24.0),),
        velocities=((4.0, 0.0),),
        axes=((8.0, 6.0),),
        orientations=(0.0,),
    )
    frames = gen_sequence(spec, 6)
    xs = np.array([fr.gt[0].center[0] for fr in frames])
    assert xs.max() <= 64 - 1 - 8  # never leaves the frame
    assert np.any(np.diff(xs) < 0)  # came back


def test_sequence_matches_gen_frame():
    spec = SceneSpec(dims=GridDims(96, 72), n_piglets=3, seed=9, max_speed=2.0, **SMALL_SOW)
    frames = gen_sequence(spec, 5)
    for t in (0, 2, 4):
        assert gen_frame(spec, t).semantic == frames[t].semantic


def test_perturb_zero_noise_identity():
    spec = SceneSpec(dims=GridDims(96, 72), n_piglets=3, seed=1, **SMALL_SOW)
    fr = gen_frame(spec)
    sem, off = perturb(fr, NoiseModel(), seed=5)
    assert sem == fr.semantic
    assert off == fr.offsets


def test_perturb_flip_rate_binomial_bound():
    dims = GridDims(125, 80)  # 10,000 pixels
    spec = SceneSpec(dims=dims, n_piglets=0, sow=False)
    fr = gen_frame(spec)
    sem, _ = perturb(fr, NoiseModel(flip_rate=0.05), seed=3)
    flips = int((sem.labels != fr.semantic.labels).sum())
    sigma = np.sqrt(10_000 * 0.05 * 0.95)
    assert abs(flips - 500) <= 3 * sigma


def test_perturb_sow_labels_never_flip():
    spec = SceneSpec(dims=GridDims(96, 72), n_piglets=3, seed=8, **SMALL_SOW)
    fr = gen_frame(spec)
    sem, _ = perturb(fr, NoiseModel(flip_rate=0.3), seed=2)
    assert np.array_equal(sem.labels == 2, fr.semantic.labels == 2)


def test_perturb_offset_sigma_chi_square_bound():
    dims = GridDims(100, 100)
    spec = SceneSpec(dims=dims, n_piglets=0, sow=False)
    fr = gen_frame(spec)
    _, off = perturb(fr, NoiseModel(offset_sigma=1.0), seed=7)
    noise = off.vectors.astype(np.float64)  # offsets were all zero
    n = noise.size
    mean_sq = float((noise**2).mean())
    # chi-square concentration: Var(mean of X^2) = 2 sigma^4 / n
    assert abs(mean_sq - 1.0) <= 3 * np.sqrt(2.0 / n) + 1e-3


def test_perturb_deterministic_per_seed():
    spec = SceneSpec(dims=GridDims(96, 72), n_piglets=3, seed=8, **SMALL_SOW)
    fr = gen_frame(spec)
    noise = NoiseModel(flip_rate=0.05, offset_sigma=1.0)
    a = perturb(fr, noise, seed=42)
    b = perturb(fr, noise, seed=42)
    c = perturb(fr, noise, seed=43)
    assert a[0] == b[0] and a[1] == b[1]
    assert a[0] != c[0] or a[1] != c[1]


def test_min_visible_area_honored():
    spec = SceneSpec(dims=GridDims(160, 120), n_piglets=10, seed=13, n_random_occluders=2)
    fr = gen_frame(spec)
    for g in fr.gt:
        if g.cls == "piglet":
            assert g.visible_mask.area >= spec.min_visible_area


# --- pinned bytes and memory of the generator ---------------------------------

NOISE = NoiseModel(flip_rate=0.05, offset_sigma=1.0)

# (name, spec, frames): frame indices for gen_frame, or a count for gen_sequence
GENERATOR_CASES = [
    ("fullres", scene_spec_loads(FULLRES_SCENE), (0, 2)),
    (
        # bodies cut by each frame edge and a corner, and one wholly off the frame
        "edges",
        SceneSpec(
            dims=GridDims(96, 72),
            n_piglets=6,
            seed=3,
            positions=((1.5, 30.0), (94.0, 40.0), (50.0, 0.5), (40.0, 71.0), (-2.0, -3.0), (-40.0, 20.0)),
            noise=NOISE,
            **SMALL_SOW,
        ),
        (0,),
    ),
    (
        "bars",
        SceneSpec(
            dims=GridDims(160, 120),
            n_piglets=7,
            seed=21,
            occluders=(
                OccluderBar(cx=80.0, cy=40.5, angle=0.0, width=5.0),
                OccluderBar(cx=51.25, cy=60.0, angle=math.pi / 2, width=4.0),
                OccluderBar(cx=100.0, cy=70.0, angle=0.7, width=6.5),
            ),
            n_random_occluders=2,
            noise=NOISE,
            **SMALL_SOW,
        ),
        (0,),
    ),
    (
        # a sow spanning nearly the whole frame, so the frame cuts its box
        "sow-edge",
        SceneSpec(
            dims=GridDims(46, 46),
            n_piglets=1,
            seed=5,
            piglet_a=(6.0, 8.0),
            piglet_b=(4.0, 5.0),
            min_visible_area=40,
            noise=NOISE,
            **SMALL_SOW,
        ),
        (0,),
    ),
    (
        "central",
        SceneSpec(
            dims=GridDims(160, 120),
            n_piglets=6,
            seed=17,
            n_random_occluders=3,
            central_radius=6.0,
            min_central_visible=60,
            noise=NOISE,
            **SMALL_SOW,
        ),
        (0, 1),
    ),
    (
        "moving",
        SceneSpec(
            dims=GridDims(128, 96),
            n_piglets=5,
            seed=12,
            n_random_occluders=1,
            max_speed=4.0,
            noise=NOISE,
            **SMALL_SOW,
        ),
        6,
    ),
]

GENERATOR_GOLDEN = {
    'fullres/0/frame': '2728d2acbc7380b6577ed29db08a674c35821e43fe3c041d9c20499bcd65a952',
    'fullres/0/perturb': 'f90de1591ae1bbc99130a392b88a56b0cb1634f4c4e2abfe44180e1a6c3c8b92',
    'fullres/2/frame': 'be7e7714993c12db39392284928505fce0714948e0b03dfdef63fb1cb09b910f',
    'fullres/2/perturb': '5a18d7fdde5c78ec317f039f24fbae69cbad4db651c142b74ffdfb07f7fd4713',
    'edges/0/frame': 'a3d2b8c11e95b3e48c1588ed8e33023b5fd1d024c32c0b2b601fce7cd8e95122',
    'edges/0/perturb': 'fa642f66109bd69493a6e3f12fd11ad064bcfef953030bd9b05744b6abdde687',
    'bars/0/frame': '2c7d520686d37a445cba0fe12bcc1ec199410d703fc21c3dee4a73c473b95d17',
    'bars/0/perturb': '7ce626145678149394a0214e7914799347e969ae5006883fec603eebbdb92030',
    'sow-edge/0/frame': '080eb43f90718a43a71213dd20361742f971ca30482235500e8d6f6adc365d29',
    'sow-edge/0/perturb': '25cc3c992cf7aa2a3c1e67274bf7e2bae0475d31360a339553e2785afa84b062',
    'central/0/frame': '649211eda84bcc650fbc099a4ca7b9178ade432ebfd233bb17dc6c56320ac2f2',
    'central/0/perturb': 'c688e6f179233d1fdf51f524f6f6e155083173d32285fd216abad479069f3ad7',
    'central/1/frame': '649211eda84bcc650fbc099a4ca7b9178ade432ebfd233bb17dc6c56320ac2f2',
    'central/1/perturb': 'dc59206dce1e61aef6b6fd2de150e509a8c771c231e89ece196da145a301da9d',
    'moving/0/frame': '5b737bac42f63377c07379195dae1e44d6ca51d9952316108b2e3f37e8911818',
    'moving/0/perturb': '7ab0f69421732c5f38849062b1b283a09eca42b92458a988d0d90a2ebdabd8de',
    'moving/1/frame': '62f18675d85cfbfac166c4cbf1360986a36c0c3cf99790428a6a95b73d24e0be',
    'moving/1/perturb': 'a8ce02389d512f14f683e137955d5a838735d5742d0dac5430ccbb89f9cb422b',
    'moving/2/frame': 'b4ba36895fad3c9664c5d0d5d5a16948f3ed0edfe3b432deac0225a164282256',
    'moving/2/perturb': '922339d752bd8d50846be07ba1e747d26b12327a38f426261fcdf173a8be5b2d',
    'moving/3/frame': 'f0365e8119399c78ffc914d7e0ddc548b0f59612c1864b1fcfb8f6e1372e01d4',
    'moving/3/perturb': 'd88e774ff22db5eed11c37d63d4575fd19ea04c2f56b026989c667002ce3b33c',
    'moving/4/frame': '282053afc8acf90c3dfe0eb672726cd3c1e5d5afd60a837af610fbfb23ced974',
    'moving/4/perturb': '42d469ab8a1c1777b8ae0a60cbc1579e3e451df5f80506a4e6084cfe7d946928',
    'moving/5/frame': '5d0321b02e9845b8b4dea56dae5b2ed8c8c99e42b3ec2eeddd262cf888a986d6',
    'moving/5/perturb': 'a004c03624e983b71a9f70033f731f974c14f4f067d61de4229ed4275f1f7ecb',
}


def _mask_bytes(mask) -> bytes:
    return np.asarray(mask.bbox, dtype=np.int64).tobytes() + mask.crop.tobytes()


def frame_digests(frame, noise: NoiseModel, seed: int) -> dict[str, str]:
    """SHA-256 of a frame's maps, ground truth and occluder mask, and of
    the maps ``perturb`` makes of it."""
    h = hashlib.sha256(frame.semantic.labels.tobytes() + frame.offsets.vectors.tobytes())
    for g in frame.gt:
        h.update(f"{g.cls} {g.center!r}".encode() + _mask_bytes(g.full_mask) + _mask_bytes(g.visible_mask))
    h.update(_mask_bytes(frame.occluder_mask))
    sem, off = perturb(frame, noise, seed)
    noisy = hashlib.sha256(sem.labels.tobytes() + off.vectors.tobytes())
    return {"frame": h.hexdigest(), "perturb": noisy.hexdigest()}


def generator_digests(name: str, spec: SceneSpec, frames) -> dict[str, str]:
    made = gen_sequence(spec, frames) if isinstance(frames, int) else [gen_frame(spec, i) for i in frames]
    digests = {}
    for frame in made:
        for part, digest in frame_digests(frame, spec.noise, seed=1000 + frame.index).items():
            digests[f"{name}/{frame.index}/{part}"] = digest
    return digests


@pytest.mark.parametrize("name, spec, frames", GENERATOR_CASES, ids=[case[0] for case in GENERATOR_CASES])
def test_generator_bytes_match_golden(name, spec, frames):
    expected = {k: v for k, v in GENERATOR_GOLDEN.items() if k.startswith(f"{name}/")}
    assert generator_digests(name, spec, frames) == expected


def _traced_peak(fn, *args) -> tuple[object, int]:
    """``fn(*args)`` and the most memory it held at once beyond what was held before."""
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        out = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak - before


def test_fullres_generator_memory_follows_the_output_maps():
    spec = scene_spec_loads(FULLRES_SCENE)
    maps = spec.dims.npixels * 9  # uint8 labels and float32 (dx, dy) offsets
    frame, peak = _traced_peak(gen_frame, spec, 0)
    assert peak < 2 * maps, f"gen_frame tracemalloc peak {peak / 2**20:.1f} MB"
    _, peak = _traced_peak(perturb, frame, spec.noise, 1)
    assert peak < 3 * maps // 2, f"perturb tracemalloc peak {peak / 2**20:.1f} MB"


if __name__ == "__main__":
    print("GENERATOR_GOLDEN = {")
    for case in GENERATOR_CASES:
        for key, digest in generator_digests(*case).items():
            print(f"    {key!r}: {digest!r},")
    print("}")


DESK = GridDims(64, 48)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: SceneSpec(GridDims(2**13 + 1, 2**13), 1), "8193x8192 exceeds the 67108864-pixel limit"),
        (lambda: SceneSpec(DESK, -1), "n_piglets must be >= 0"),
        (lambda: SceneSpec(DESK, 1, n_random_occluders=-1), "n_random_occluders must be >= 0"),
        (lambda: SceneSpec(DESK, 2, positions=((20.0, 20.0),)), "positions must list one entry per piglet"),
        (lambda: SceneSpec(DESK, 1, orientations=(0.0, 1.0)), "orientations must list one entry per piglet"),
        (lambda: gen_frame(SceneSpec(DESK, 0, sow=False), -1), "frame_index must be >= 0"),
        (lambda: iter_sequence(SceneSpec(DESK, 0, sow=False), 0), "n_frames must be >= 1"),
    ],
)
def test_synth_validation_errors(make, message):
    with pytest.raises(ValueError) as info:
        make()
    assert info.type is ValueError and str(info.value) == message
