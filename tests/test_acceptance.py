"""Acceptance suite: the nine release criteria, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s``. Everything is seeded
and offline; the full module finishes well inside ten minutes on a
desktop. The synthetic suite uses desk-scale config values (small
frames, vote filter keyed on displacement, min_pts 25) documented in
the README; the clustering defaults eps = 2.5 and the full-scale
min_pts = 50 are exercised where the criterion calls for them.
"""

import time

import numpy as np
import pytest
from scipy import ndimage

import centerseg as cs
from centerseg.formats import (
    config_dumps,
    config_loads,
    manifest_dumps,
    manifest_loads,
    offsets_from_bytes,
    offsets_to_bytes,
    semantic_from_bytes,
    semantic_to_bytes,
    tracks_csv_dumps,
    tracks_csv_loads,
)

SUITE_DIMS = cs.GridDims(192, 144)
SUITE_KW = dict(t=10.0, filter_strategy="offset-magnitude", eps=2.5, min_pts=25)
NOISE = cs.NoiseModel(flip_rate=0.02, offset_sigma=1.5)
N_SCENES = 200


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def suite_spec(seed: int) -> cs.SceneSpec:
    return cs.SceneSpec(
        dims=SUITE_DIMS,
        n_piglets=3 + seed % 18,
        seed=seed,
        n_random_occluders=2,
        central_radius=10.0,
        min_central_visible=60,
    )


@pytest.fixture(scope="module")
def scene_suite():
    """200 seeded scenes: clean run, noisy run, and noisy run without
    the residual reassignment pass."""
    cfg_on = cs.PipelineConfig(rc2m=True, **SUITE_KW)
    cfg_off = cs.PipelineConfig(rc2m=False, **SUITE_KW)
    data = {
        "gt": [], "clean": [], "noisy_on": [], "noisy_off": [],
        "count_exact": [], "coverage_on": [], "coverage_delta": [], "off_residuals": [],
    }
    for seed in range(N_SCENES):
        frame = cs.gen_frame(suite_spec(seed))
        gt = cs.gt_instances(frame)
        n_gt_piglets = sum(1 for g in gt if g.cls == "piglet")

        clean = cs.segment_frame(frame.semantic, frame.offsets, cfg_on)
        n_pred = sum(1 for i in clean.instances if i.cls == "piglet")
        data["count_exact"].append(n_pred == n_gt_piglets)

        sem, off = cs.perturb(frame, NOISE, seed=500_000 + seed)
        on = cs.segment_frame(sem, off, cfg_on)
        off_run = cs.segment_frame(sem, off, cfg_off)

        piglet_px = sem.labels == 1
        union_on = np.zeros(SUITE_DIMS.shape, dtype=bool)
        for inst in on.instances:
            if inst.cls == "piglet":
                union_on |= inst.mask.pixels
        union_off = np.zeros(SUITE_DIMS.shape, dtype=bool)
        for inst in off_run.instances:
            if inst.cls == "piglet":
                union_off |= inst.mask.pixels
        data["coverage_on"].append(bool(np.array_equal(union_on, piglet_px)))
        data["coverage_delta"].append(int(union_on.sum()) - int(union_off.sum()))
        data["off_residuals"].append(off_run.unassigned_pixel_count)

        data["gt"].append(gt)
        data["clean"].append(clean.instances)
        data["noisy_on"].append(on.instances)
        data["noisy_off"].append(off_run.instances)
    return data


def test_c1_oracle_pipeline_correctness(scene_suite):
    count_rate = float(np.mean(scene_suite["count_exact"]))
    result = cs.map_eval(scene_suite["clean"], scene_suite["gt"])
    ok = count_rate >= 0.99 and abs(result.map - 1.0) <= 0.001
    report(
        "C1 oracle pipeline correctness",
        ok,
        f"instance count exact in {count_rate:.1%} of {N_SCENES} scenes, suite mAP {result.map:.4f}",
    )


def test_c2_noise_robustness(scene_suite):
    result = cs.map_eval(scene_suite["noisy_on"], scene_suite["gt"])
    ap50 = result.per_threshold[0.5]
    ok = ap50 >= 0.90
    report(
        "C2 noise robustness",
        ok,
        f"mAP@0.5 {ap50:.4f} at flip 0.02 / sigma 1.5 over {N_SCENES} scenes (full mAP {result.map:.4f})",
    )


def split_scene_spec(seed: int) -> tuple[cs.SceneSpec, tuple[float, float]]:
    rng = np.random.default_rng(90_000 + seed)
    cx = float(rng.uniform(45, 85))
    cy = float(rng.uniform(40, 100))
    other = (150.0, 40.0 if cy > 70 else 100.0)
    bar = cs.OccluderBar(cx=cx, cy=cy, angle=np.pi / 2, width=5.0)
    spec = cs.SceneSpec(
        dims=SUITE_DIMS,
        n_piglets=2,
        seed=seed,
        sow=False,
        positions=((cx, cy), other),
        axes=((15.0, 9.0), (13.0, 9.0)),
        orientations=(0.0, 0.0),
        occluders=(bar,),
    )
    return spec, (cx, cy)


def _split_case(frame, center, config, tol):
    result = cs.segment_frame(frame[0], frame[1], config)
    visible0 = frame[2]
    hits = []
    for inst in result.instances:
        if inst.cls != "piglet":
            continue
        inter = int(np.count_nonzero(inst.mask.pixels & visible0.pixels))
        union = int(np.count_nonzero(inst.mask.pixels | visible0.pixels))
        if union and inter / union > 0.1:
            hits.append(inst)
    if len(hits) != 1:
        return False
    cx, cy = hits[0].predicted_center
    return float(np.hypot(cx - center[0], cy - center[1])) <= tol


def test_c3_occlusion_resistant_center():
    cfg = cs.PipelineConfig(rc2m=True, **SUITE_KW)
    clean_ok = noisy_ok = 0
    eight = np.ones((3, 3), dtype=int)
    for seed in range(50):
        spec, center = split_scene_spec(seed)
        frame = cs.gen_frame(spec)
        visible0 = frame.gt[0].visible_mask
        _, parts = ndimage.label(visible0.pixels, structure=eight)
        assert parts >= 2, "occluder bar must split the body"
        clean_ok += _split_case((frame.semantic, frame.offsets, visible0), center, cfg, 1.0)
        sem, off = cs.perturb(frame, NOISE, seed=300_000 + seed)
        noisy_ok += _split_case((sem, off, visible0), center, cfg, 3.0)
    ok = clean_ok >= 48 and noisy_ok >= 48  # >= 95% of 50
    report(
        "C3 occlusion-resistant center",
        ok,
        f"single instance + center tolerance: clean {clean_ok}/50, noisy {noisy_ok}/50",
    )


def random_cloud(rng, n):
    kind = rng.random()
    if kind < 0.4:
        k = int(rng.integers(1, 8))
        centers = rng.uniform(0, 150, (k, 2))
        return centers[rng.integers(0, k, n)] + rng.normal(0, rng.uniform(0.4, 3.0), (n, 2))
    if kind < 0.7:
        return rng.uniform(0, rng.uniform(20, 400), (n, 2))
    k = int(rng.integers(1, 5))
    centers = rng.uniform(0, 100, (k, 2))
    blob = centers[rng.integers(0, k, n // 2)] + rng.normal(0, 1.0, (n // 2, 2))
    return np.vstack([blob, rng.uniform(0, 100, (n - n // 2, 2))])


def test_c4_dbscan_oracle_equivalence():
    rng = np.random.default_rng(4242)
    mismatches = 0
    for _ in range(100):
        n = int(rng.integers(0, 5001))
        pts = random_cloud(rng, n) if n else np.zeros((0, 2))
        eps = float(rng.uniform(0.5, 10.0))
        min_pts = int(rng.integers(1, 61))
        if cs.dbscan(pts, eps, min_pts) != cs.dbscan_naive(pts, eps, min_pts):
            mismatches += 1
    report(
        "C4 DBSCAN oracle equivalence",
        mismatches == 0,
        f"{mismatches} mismatches across 100 random clouds (n <= 5000)",
    )


def test_c5_clustering_speed_ratio():
    rng = np.random.default_rng(0)
    n = 50_000
    n_blobs = n // 1000
    centers = rng.uniform(0, 4000, (n_blobs, 2))
    pts = centers[rng.integers(0, n_blobs, n)] + rng.normal(0, 2.0, (n, 2))

    t0 = time.perf_counter()
    cs.dbscan(pts, 2.5, 50)
    dbscan_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    cs.mean_shift(pts, bandwidth=10.0)
    mean_shift_s = time.perf_counter() - t0
    ratio = mean_shift_s / dbscan_s
    report(
        "C5 clustering speed",
        dbscan_s <= mean_shift_s / 5.0,
        f"n=50000: dbscan {dbscan_s:.2f}s vs mean-shift {mean_shift_s:.2f}s ({ratio:.0f}x)",
    )


def test_c6_reassignment_direction(scene_suite):
    coverage_all = all(scene_suite["coverage_on"])
    # whenever the rc2m-off run left residual votes, its coverage is lower
    implication = all(
        delta > 0
        for delta, residuals in zip(scene_suite["coverage_delta"], scene_suite["off_residuals"])
        if residuals > 0
    )
    triggered = sum(1 for r in scene_suite["off_residuals"] if r > 0)
    m_on = cs.map_eval(scene_suite["noisy_on"], scene_suite["gt"])
    m_off = cs.map_eval(scene_suite["noisy_off"], scene_suite["gt"])
    ok = coverage_all and implication and triggered >= N_SCENES * 0.9 and m_on.map >= m_off.map
    report(
        "C6 reassignment ablation direction",
        ok,
        f"coverage 100% in {sum(scene_suite['coverage_on'])}/{N_SCENES} runs, "
        f"strictly-lower holds on all {triggered} residual runs, "
        f"mAP on {m_on.map:.4f} >= off {m_off.map:.4f}",
    )


def test_c7_loss_kernels():
    reports = cs.run_gradient_checks(n_cases=50, seed=7, tol=1e-4)
    grad_ok = all(r["passed"] for r in reports)
    worst = max(r["max_rel_error"] for r in reports)

    rng = np.random.default_rng(11)
    pred = rng.uniform(0.05, 0.95, (6, 6, 3))
    true = np.eye(3)[rng.integers(0, 3, (6, 6))]
    focal = cs.focal_loss(pred, true, cs.FocalParams(alpha=1.0, gamma=0.0)).value
    clamped = np.clip(pred, 1e-7, 1 - 1e-7)
    p_t = clamped * true + (1 - clamped) * (1 - true)
    ce = float(-np.log(p_t).sum() / 36)
    ce_ok = abs(focal - ce) <= 1e-12

    hand = np.zeros((1, 2, 2))
    hand[0, 0] = (3.0, 4.0)
    offset_ok = cs.offset_loss(hand, np.zeros((1, 2, 2)), np.array([[1.0, 0.0]])).value == 12.5

    ok = grad_ok and ce_ok and offset_ok
    report(
        "C7 loss kernels",
        ok,
        f"gradcheck max rel err {worst:.2e} (50 cases/loss), "
        f"cross-entropy delta {abs(focal - ce):.1e}, hand example {'12.5 exact' if offset_ok else 'WRONG'}",
    )


LANES = (20.0, 45.0, 70.0, 95.0, 120.0)


def lane_sequence_spec(seed: int) -> tuple[cs.SceneSpec, list[float]]:
    rng = np.random.default_rng(70_000 + seed)
    speeds = [float(rng.choice([1.5, 2.0, 2.5, 3.0])) for _ in LANES]
    positions, velocities = [], []
    for lane_y, vx in zip(LANES, speeds):
        going_right = rng.random() < 0.5
        x0 = float(rng.uniform(25, 55)) if going_right else float(rng.uniform(135, 165))
        positions.append((x0, lane_y))
        velocities.append((vx if going_right else -vx, 0.0))
    spec = cs.SceneSpec(
        dims=SUITE_DIMS,
        n_piglets=len(LANES),
        seed=seed,
        sow=False,
        positions=tuple(positions),
        velocities=tuple(velocities),
        axes=((10.0, 7.0),) * len(LANES),
        orientations=(0.0,) * len(LANES),
    )
    return spec, speeds


def test_c8_tracking():
    cfg = cs.PipelineConfig(rc2m=True, **SUITE_KW)
    n_frames = 30
    worst_movement_err = 0.0
    switches = 0
    for seed in range(20):
        spec, speeds = lane_sequence_spec(seed)
        frames = cs.gen_sequence(spec, n_frames)
        state = cs.TrackState(dims=SUITE_DIMS, fps=7.0, min_iou=0.0)
        for frame in frames:
            result = cs.segment_frame(frame.semantic, frame.offsets, cfg)
            cs.update_tracks(state, result)
        tracks = state.all_tracks()
        if state.next_id != len(LANES) or state.closed or any(
            len(t.frames) != n_frames for t in tracks
        ):
            switches += 1
            continue
        # match tracks to lanes via their first center's y coordinate
        for track in tracks:
            lane = int(np.argmin([abs(track.centers[0][1] - y) for y in LANES]))
            expected = (n_frames - 1) * speeds[lane]
            worst_movement_err = max(worst_movement_err, abs(track.movement - expected))

    # closed-form metric fixtures
    fixture_dims = cs.GridDims(10, 10)
    fixture_state = cs.TrackState(dims=fixture_dims, fps=7.0, min_iou=0.0)
    track = cs.Track(track_id=0, cls="piglet", dims=fixture_dims)
    for i, area in enumerate([10, 9, 8, 7, 6, 5]):
        px = np.zeros((10, 10), dtype=bool)
        px.ravel()[:area] = True
        track.add_record(
            i,
            cs.Instance(
                mask=cs.BinaryMask(fixture_dims, px),
                predicted_center=(float(i), 0.0),
                cls="piglet",
                score=1.0,
            ),
        )
    body_ok = cs.track_metrics(track, fixture_state).body_pixel_size == 8.0

    speed_track = cs.Track(track_id=1, cls="sow", dims=fixture_dims)
    full = cs.Instance(
        mask=cs.BinaryMask.full(fixture_dims), predicted_center=(4.5, 4.5), cls="sow", score=1.0
    )
    for i in range(29):
        speed_track.add_record(i, full)
    speed_track.movement = 155.0
    metrics = cs.track_metrics(speed_track, fixture_state)
    speed_ok = metrics.avg_speed_px_s == 38.75
    space_ok = metrics.space_usage == 1.0 and metrics.body_pixel_size == 100.0
    heat_ok = bool((cs.heatmap(speed_track) == 29).all())

    ok = (
        switches == 0
        and worst_movement_err <= 1e-6
        and body_ok and speed_ok and space_ok and heat_ok
    )
    report(
        "C8 tracking",
        ok,
        f"0 id switches required, got {switches}; worst movement error {worst_movement_err:.2e} px; "
        f"fixture formulas exact: body {body_ok}, speed {speed_ok}, space {space_ok}, heatmap {heat_ok}",
    )


def test_c9_format_fuzz():
    rng = np.random.default_rng(99)
    mismatches = 0
    cases = 0

    for _ in range(250):  # run-length codec
        dims = cs.GridDims(int(rng.integers(1, 41)), int(rng.integers(1, 41)))
        mask = cs.BinaryMask(dims, rng.random(dims.shape) < rng.random())
        cases += 1
        mismatches += cs.rle_decode(cs.rle_encode(mask), dims) != mask

    for _ in range(200):  # semantic map files
        dims = cs.GridDims(int(rng.integers(1, 33)), int(rng.integers(1, 33)))
        sm = cs.SemanticMap(dims, rng.integers(0, 3, dims.shape).astype(np.uint8))
        cases += 1
        mismatches += semantic_from_bytes(semantic_to_bytes(sm)) != sm

    for _ in range(200):  # offset map files
        dims = cs.GridDims(int(rng.integers(1, 33)), int(rng.integers(1, 33)))
        om = cs.OffsetMap(dims, rng.normal(0, 20, (*dims.shape, 2)).astype(np.float32))
        cases += 1
        mismatches += offsets_from_bytes(offsets_to_bytes(om)) != om

    for _ in range(200):  # instance manifests
        dims = cs.GridDims(int(rng.integers(4, 25)), int(rng.integers(4, 25)))
        instances = []
        for k in range(int(rng.integers(0, 6))):
            px = rng.random(dims.shape) < 0.4
            px.ravel()[int(rng.integers(0, dims.npixels))] = True
            mask = cs.BinaryMask(dims, px)
            instances.append(
                cs.Instance(
                    mask=mask,
                    predicted_center=(float(rng.normal(0, 50)), float(rng.normal(0, 50))),
                    cls="sow" if k == 0 and rng.random() < 0.3 else "piglet",
                    score=float(rng.random()),
                )
            )
        fid = int(rng.integers(0, 10_000))
        text = manifest_dumps(fid, dims, instances)
        got_fid, got_dims, got = manifest_loads(text)
        cases += 1
        mismatches += not (
            got_fid == fid and got_dims == dims and got == instances
            and manifest_dumps(got_fid, got_dims, got) == text
        )

    for _ in range(100):  # tracks CSV
        rows = []
        for f in range(int(rng.integers(1, 6))):
            rows.append(
                (
                    f,
                    int(rng.integers(0, 40)),
                    "sow" if rng.random() < 0.2 else "piglet",
                    float(rng.normal(50, 30)),
                    float(rng.normal(50, 30)),
                    int(rng.integers(1, 5000)),
                    None if rng.random() < 0.3 else float(rng.random()),
                )
            )
        text = tracks_csv_dumps(rows)
        cases += 1
        mismatches += not (tracks_csv_loads(text) == rows and tracks_csv_dumps(tracks_csv_loads(text)) == text)

    for _ in range(50):  # config files
        cfg = cs.PipelineConfig(
            t=float(rng.uniform(1, 40)),
            min_neighbors=int(rng.integers(0, 40)),
            filter_strategy=str(rng.choice(["density", "offset-magnitude"])),
            eps=float(rng.uniform(0.5, 10)),
            min_pts=int(rng.integers(1, 100)),
            rc2m=bool(rng.random() < 0.5),
            algo=str(rng.choice(["dbscan", "mean-shift"])),
            min_iou=float(rng.uniform(0, 0.5)),
            fps=float(rng.uniform(1, 30)),
        )
        text = config_dumps(cfg)
        cases += 1
        mismatches += not (config_loads(text) == cfg and config_dumps(config_loads(text)) == text)

    report("C9 format round-trip fuzz", mismatches == 0 and cases == 1000, f"{cases} cases, {mismatches} mismatches")
