"""Mask IoU and mAP."""

import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from centerseg import (
    BinaryMask,
    DimensionMismatch,
    GridDims,
    Instance,
    map_eval,
    mask_iou,
)
from centerseg import evaluation

DIMS = GridDims(16, 16)


def block(x0, y0, x1, y1, dims=DIMS):
    px = np.zeros(dims.shape, dtype=bool)
    px[y0:y1, x0:x1] = True
    return BinaryMask(dims, px)


def det(mask, score, cls="piglet"):
    return Instance(mask=mask, predicted_center=(0.0, 0.0), cls=cls, score=score)


def ap50(dets, gts):
    """Piglet AP at IoU 0.5 of one frame's detections against its ground-truth masks."""
    return map_eval([dets], [[det(g, 1.0) for g in gts]]).per_class_threshold[("piglet", 0.5)]


def test_iou_identical():
    m = block(2, 2, 6, 6)
    assert mask_iou(m, m) == 1.0


def test_iou_disjoint():
    assert mask_iou(block(0, 0, 3, 3), block(8, 8, 12, 12)) == 0.0


def test_iou_partial_overlap():
    a = block(0, 0, 2, 2)  # area 4
    b = block(1, 0, 3, 2)  # area 4, overlap 2
    assert mask_iou(a, b) == pytest.approx(2 / 6)
    assert mask_iou(b, a) == pytest.approx(2 / 6)


def test_iou_both_empty():
    e = BinaryMask.empty(DIMS)
    assert mask_iou(e, e) == 0.0


def test_iou_dims_mismatch():
    with pytest.raises(DimensionMismatch):
        mask_iou(block(0, 0, 2, 2), BinaryMask.empty(GridDims(8, 8)))


def test_ap_perfect_predictions():
    gts = [block(0, 0, 4, 4), block(8, 8, 12, 12)]
    dets = [det(gts[0], 0.3), det(gts[1], 0.9)]
    assert ap50(dets, gts) == 1.0


def test_ap_fp_then_tp_hand_case():
    gt = block(0, 0, 4, 4)  # area 16
    overlap = block(0, 0, 4, 3)  # IoU 12/16 = 0.75 >= 0.5
    miss = block(10, 10, 13, 13)
    dets = [det(miss, 0.9), det(overlap, 0.4)]
    assert ap50(dets, [gt]) == 0.5


def test_ap_no_detections():
    assert ap50([], [block(0, 0, 2, 2)]) == 0.0


def test_map_perfect_over_frames():
    frames_gt = []
    frames_pred = []
    rng = np.random.default_rng(0)
    for _ in range(10):
        gts = [
            det(block(0, 0, 4, 4), 1.0),
            det(block(8, 2, 13, 7), 1.0),
            det(block(2, 9, 7, 14), 1.0, cls="sow"),
        ]
        preds = [
            det(g.mask, float(rng.uniform(0.2, 1.0)), cls=g.cls) for g in gts
        ]
        frames_gt.append(gts)
        frames_pred.append(preds)
    result = map_eval(frames_pred, frames_gt)
    assert result.map == 1.0
    assert set(result.per_class) == {"piglet", "sow"}


def test_map_one_missing_of_twenty():
    # 20 identical-quality GT instances pooled; one frame misses one
    frames_gt, frames_pred = [], []
    for f in range(10):
        gts = [det(block(0, 0, 4, 4), 1.0), det(block(8, 8, 12, 12), 1.0)]
        preds = [det(g.mask, 0.9) for g in gts]
        if f == 0:
            preds = preds[:1]
        frames_gt.append(gts)
        frames_pred.append(preds)
    result = map_eval(frames_pred, frames_gt)
    for thr in result.per_threshold:
        assert result.per_threshold[thr] == pytest.approx(19 / 20)
    assert result.map == pytest.approx(0.95)


def test_map_vacuous_empty():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = map_eval([[], []], [[], []])
    assert result.map == 1.0
    assert caught


def test_map_detections_without_gt():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = map_eval([[det(block(0, 0, 2, 2), 0.5)]], [[]])
    assert result.map == 0.0
    assert caught


def test_map_misaligned_frames():
    with pytest.raises(ValueError):
        map_eval([[]], [[], []])


def test_ap_monotone_response():
    gt_a, gt_b = block(0, 0, 4, 4), block(8, 8, 12, 12)
    partial = [det(gt_a, 0.6)]
    ap_before = ap50(partial, [gt_a, gt_b])
    improved = [det(gt_b, 0.9)] + partial
    ap_after = ap50(improved, [gt_a, gt_b])
    assert ap_after >= ap_before


@settings(max_examples=40, deadline=None)
@given(
    scores=st.lists(st.floats(0.01, 0.99), min_size=1, max_size=6, unique=True),
    shift=st.sampled_from(["square", "half", "affine"]),
)
def test_ap_score_shift_invariance(scores, shift):
    rng = np.random.default_rng(42)
    gts, dets = [], []
    for i, s in enumerate(scores):
        x = (i % 3) * 5
        y = (i // 3) * 5
        m = block(x, y, x + 4, y + 4)
        gts.append(m)
        mask = m if rng.random() < 0.7 else block((x + 8) % 12, y, (x + 8) % 12 + 4, y + 4)
        dets.append(det(mask, s))
    transform = {
        "square": lambda v: v * v,
        "half": lambda v: v / 2,
        "affine": lambda v: 0.2 + 0.7 * v,
    }[shift]
    base = ap50(dets, gts)
    moved = [det(d.mask, transform(d.score)) for d in dets]
    assert ap50(moved, gts) == pytest.approx(base, abs=1e-12)


def full_frame_iou(a, b):
    """The full-frame kernel the bounding-box crop replaced."""
    inter = int(np.count_nonzero(a.pixels & b.pixels))
    union = int(np.count_nonzero(a.pixels | b.pixels))
    return 0.0 if union == 0 else inter / union


@st.composite
def boxed_mask(draw, box):
    """A mask whose pixels lie in ``box`` = (y0, y1, x0, x1), randomly filled."""
    y0, y1, x0, x1 = box
    px = np.zeros(DIMS.shape, dtype=bool)
    if draw(st.booleans()):
        px[y0:y1, x0:x1] = True
    else:
        n = (y1 - y0) * (x1 - x0)
        bits = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        px[y0:y1, x0:x1] = np.array(bits, dtype=bool).reshape(y1 - y0, x1 - x0)
    return BinaryMask(DIMS, px)


@st.composite
def box(draw, y_lo=0, y_hi=16, x_lo=0, x_hi=16):
    y0 = draw(st.integers(y_lo, y_hi - 1))
    x0 = draw(st.integers(x_lo, x_hi - 1))
    return (y0, draw(st.integers(y0 + 1, y_hi)), x0, draw(st.integers(x0 + 1, x_hi)))


@st.composite
def mask_pair(draw):
    """Two masks whose boxes are independent, nested, touching or disjoint,
    or one of them empty."""
    a_box = draw(box())
    y0, y1, x0, x1 = a_box
    relation = draw(st.sampled_from(["independent", "nested", "touching", "disjoint", "empty"]))
    if relation == "nested":
        b_box = draw(box(y0, y1, x0, x1))
    elif relation == "touching":  # shares the column x1 - 1 or starts right after it
        start = x1 - draw(st.integers(0, 1))
        if start >= 16:
            start = 15
        b_box = (y0, y1, start, draw(st.integers(start + 1, 16)))
    elif relation == "disjoint":  # below, right of, above or left of a's box
        sides = [
            dict(y_lo=y1), dict(x_lo=x1), dict(y_hi=y0), dict(x_hi=x0),
        ]
        sides = [s for s, room in zip(sides, (y1 < 16, x1 < 16, y0 > 0, x0 > 0)) if room] or [{}]
        b_box = draw(box(**draw(st.sampled_from(sides))))
    else:
        b_box = draw(box())
    a = draw(boxed_mask(a_box))
    b = BinaryMask.empty(DIMS) if relation == "empty" else draw(boxed_mask(b_box))
    return (a, b) if draw(st.booleans()) else (b, a)


@settings(max_examples=300, deadline=None)
@given(pair=mask_pair())
def test_iou_matches_full_frame_kernel(pair):
    a, b = pair
    assert mask_iou(a, b) == full_frame_iou(a, b)
    assert mask_iou(b, a) == full_frame_iou(a, b)


def test_iou_touching_and_nested_examples():
    assert mask_iou(block(0, 0, 4, 4), block(4, 0, 8, 4)) == 0.0  # edge-adjacent
    assert mask_iou(block(0, 0, 4, 4), block(3, 0, 8, 4)) == 4 / 32  # one shared column
    assert mask_iou(block(0, 0, 8, 8), block(2, 2, 4, 4)) == 4 / 64  # nested
    empty = BinaryMask.empty(DIMS)
    assert mask_iou(empty, block(0, 0, 2, 2)) == 0.0


def test_map_eval_rejects_masks_from_different_grids():
    pred = block(0, 0, 4, 2, dims=GridDims(8, 4))
    gt = block(0, 0, 2, 4, dims=GridDims(4, 8))
    with pytest.raises(DimensionMismatch):
        map_eval([[det(pred, 0.9)]], [[det(gt, 1.0)]])


def all_pairs_table(rows, cols):
    """The IoU table without the box test: :func:`mask_iou` on every pair."""
    return np.array([[mask_iou(a, b) for b in cols] for a in rows]).reshape(len(rows), len(cols))


def boxes_overlap(a, b):
    (ar0, ar1, ac0, ac1), (br0, br1, bc0, bc1) = a.bbox, b.bbox
    return max(ar0, br0) < min(ar1, br1) and max(ac0, bc0) < min(ac1, bc1)


@settings(max_examples=60, deadline=None)
@given(pairs=st.lists(mask_pair(), min_size=1, max_size=4), shift=st.integers(0, 3))
def test_iou_table_matches_all_pairs(pairs, shift):
    rows = [a for a, _ in pairs]
    cols = [b for _, b in pairs]
    cols = cols[shift % len(cols) :] + cols[: shift % len(cols)]
    measured = []

    def iou(a, b):
        measured.append((a, b))
        return mask_iou(a, b)

    table = evaluation._iou_matrix(rows, cols, iou)
    assert table.tobytes() == all_pairs_table(rows, cols).tobytes()  # the skipped entries are +0.0
    assert len(measured) == sum(boxes_overlap(a, b) for a in rows for b in cols)


def test_iou_table_skips_touching_and_empty_masks():
    a = block(0, 0, 4, 4)
    below = block(0, 4, 4, 8)  # a's last row ends where its first row starts: r1 == r0'
    right = block(4, 0, 8, 4)
    shared_row = block(0, 3, 4, 6)
    empty = BinaryMask.empty(DIMS)
    measured = []

    def iou(p, q):
        measured.append((p, q))
        return mask_iou(p, q)

    table = evaluation._iou_matrix([a, empty], [below, right, shared_row, empty], iou)
    assert table.tolist() == [[0.0, 0.0, 4 / 24, 0.0], [0.0, 0.0, 0.0, 0.0]]
    assert measured == [(a, shared_row)]
    assert evaluation._iou_matrix([], [a], iou).shape == (0, 1)


def test_iou_table_dims_mismatch_with_disjoint_boxes():
    a = block(0, 0, 2, 2, dims=GridDims(8, 8))
    b = block(5, 5, 7, 7, dims=GridDims(9, 8))
    with pytest.raises(DimensionMismatch, match="8x8 vs 9x8"):
        evaluation._iou_matrix([a, a], [a, b], mask_iou)
    with pytest.raises(DimensionMismatch):
        map_eval([[det(a, 0.9)]], [[det(b, 1.0)]])


@st.composite
def eval_frame(draw):
    def inst(score):
        y0, y1, x0, x1 = draw(box())
        return det(block(x0, y0, x1, y1), score, draw(st.sampled_from(["piglet", "sow"])))

    dets = [inst(draw(st.sampled_from([0.2, 0.5, 0.9, 1.0]))) for _ in range(draw(st.integers(0, 4)))]
    gts = [inst(1.0) for _ in range(draw(st.integers(0, 4)))]
    return dets, gts


@settings(max_examples=40, deadline=None)
@given(frames=st.lists(eval_frame(), min_size=1, max_size=3))
def test_map_eval_matches_all_pairs_tables(frames):
    preds = [dets for dets, _ in frames]
    gts = [g for _, g in frames]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # no ground truth at all is vacuous
        with mock.patch.object(evaluation, "_iou_matrix", lambda rows, cols, iou: all_pairs_table(rows, cols)):
            expected = map_eval(preds, gts)
        assert map_eval(preds, gts) == expected


# --- one matching pass for all thresholds ------------------------------------


def greedy_match_at(iou, scores, iou_thresh):
    """The matching rule at one threshold: the oracle for the one-pass
    matcher. Detections in stable descending-score order each take the
    free ground truth of highest IoU (first on ties) if that IoU is above
    0 and at or above the threshold."""
    order = sorted(range(len(scores)), key=lambda i: -scores[i])
    n_gt = iou.shape[1]
    taken = np.zeros(n_gt, dtype=bool)
    ranked = np.empty(len(scores))
    tp = np.zeros(len(scores), dtype=bool)
    for rank, di in enumerate(order):
        ranked[rank] = scores[di]
        if n_gt:
            row = np.where(taken, -1.0, iou[di])
            gi = int(np.argmax(row))
            if row[gi] > 0.0 and row[gi] >= iou_thresh:
                taken[gi] = True
                tp[rank] = True
    return ranked, tp


# zero, the thresholds themselves and one ulp below them, and values between
IOU_VALUES = [0.0, 1.0, 0.3, 0.62, 0.81, *evaluation.IOU_THRESHOLDS]
IOU_VALUES += [float(np.nextafter(t, 0.0)) for t in evaluation.IOU_THRESHOLDS]


@st.composite
def iou_tables(draw):
    """``(iou, scores)`` for one frame: sometimes no detections or no ground
    truth, IoUs drawn mostly from ``IOU_VALUES`` so rows tie, and scores from
    a few values so detections tie."""
    n_det, n_gt = draw(st.integers(0, 7)), draw(st.integers(0, 6))
    value = st.one_of(st.sampled_from(IOU_VALUES), st.floats(0.0, 1.0))
    iou = np.array(draw(st.lists(value, min_size=n_det * n_gt, max_size=n_det * n_gt))).reshape(n_det, n_gt)
    scores = draw(st.lists(st.sampled_from([0.0, 0.2, 0.5, 0.9, 1.0]), min_size=n_det, max_size=n_det))
    return iou, np.array(scores, dtype=np.float64)


@settings(max_examples=300, deadline=None)
@given(table=iou_tables())
def test_one_matching_pass_agrees_with_each_threshold_alone(table):
    iou, scores = table
    ranked, tp = evaluation._greedy_match(iou, scores, np.array(evaluation.IOU_THRESHOLDS))
    assert tp.shape == (len(evaluation.IOU_THRESHOLDS), len(scores))
    for flags, thr in zip(tp, evaluation.IOU_THRESHOLDS):
        want_ranked, want_tp = greedy_match_at(iou, scores, thr)
        assert np.array_equal(ranked, want_ranked)
        assert np.array_equal(flags, want_tp)
