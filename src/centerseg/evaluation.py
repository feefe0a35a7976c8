"""Mask IoU and multi-threshold mAP.

Protocol: detections are ranked by descending score and greedily matched
to the unmatched ground truth of highest IoU (a match needs IoU at or
above the threshold); matching is per frame, detections are pooled
across frames per class before the precision-recall curve; AP is the
area under the curve with interpolated (monotone non-increasing)
precision; mAP averages AP over the IoU thresholds 0.50:0.05:0.95 and
over the classes present in the ground truth. Detections and ground
truths are :class:`~centerseg.instances.Instance` records (ground-truth
scores are ignored).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .grids import BinaryMask, DimensionMismatch
from .instances import Instance

IOU_THRESHOLDS = tuple(round(0.50 + 0.05 * i, 2) for i in range(10))


def mask_iou(a: BinaryMask, b: BinaryMask) -> float:
    """Intersection over union of two masks; 0.0 when both are empty.

    The intersection is counted only over the overlap of the two
    bounding boxes (0 at once when they are disjoint), reading each
    crop at its box offset, and the union comes from the areas, so the
    cost follows the masks' extent, not the frame's.
    """
    if a.dims != b.dims:
        raise DimensionMismatch(
            f"{a.dims.width}x{a.dims.height} vs {b.dims.width}x{b.dims.height}"
        )
    ar0, ar1, ac0, ac1 = a.bbox
    br0, br1, bc0, bc1 = b.bbox
    r0, r1 = max(ar0, br0), min(ar1, br1)
    c0, c1 = max(ac0, bc0), min(ac1, bc1)
    if r0 >= r1 or c0 >= c1:
        return 0.0
    inter = int(np.count_nonzero(
        a.crop[r0 - ar0 : r1 - ar0, c0 - ac0 : c1 - ac0] & b.crop[r0 - br0 : r1 - br0, c0 - bc0 : c1 - bc0]
    ))
    return inter / (a.area + b.area - inter)


def _iou_matrix(rows: list[BinaryMask], cols: list[BinaryMask], iou) -> np.ndarray:
    """Pairwise IoU table, ``rows`` by ``cols``, from the kernel ``iou``.

    One test over all pairs of bounding boxes finds the pairs that
    overlap; only those go through ``iou``, in row-major order, and every
    other entry is the exact 0.0 that :func:`mask_iou` gives disjoint
    boxes. Pairs on grids of different dims go through ``iou`` too, so
    it raises on the first of them as it would without the test.
    """
    table = np.zeros((len(rows), len(cols)))
    if table.size == 0:
        return table
    a = np.array([m.bbox for m in rows])[:, None, :]
    b = np.array([m.bbox for m in cols])[None, :, :]
    todo = (np.maximum(a[..., 0], b[..., 0]) < np.minimum(a[..., 1], b[..., 1])) & (
        np.maximum(a[..., 2], b[..., 2]) < np.minimum(a[..., 3], b[..., 3])
    )
    if len({m.dims for m in (*rows, *cols)}) > 1:
        todo |= np.array([[p.dims != q.dims for q in cols] for p in rows])
    for i, j in zip(*np.nonzero(todo)):
        table[i, j] = iou(rows[i], cols[j])
    return table


def _greedy_match(iou: np.ndarray, scores: np.ndarray, thresholds: np.ndarray):
    """Greedy score-ordered matching at every IoU threshold in one pass,
    given a detection x gt IoU matrix.

    Returns (scores_ranked, tp_flags): the scores in rank order and, per
    threshold, the true-positive flag of each rank. Score ties keep the
    original detection order; at each threshold a detection takes the
    ground truth of highest IoU not yet taken at that threshold, IoU ties
    going to the lowest ground-truth index, and a match needs IoU above
    0 and at or above the threshold.
    """
    order = np.argsort(-scores, kind="stable")
    tp = np.zeros((thresholds.size, order.size), dtype=bool)
    if iou.shape[1]:
        taken = np.zeros((thresholds.size, iou.shape[1]), dtype=bool)
        each = np.arange(thresholds.size)
        for rank, di in enumerate(order):
            row = np.where(taken, -1.0, iou[di])
            gi = np.argmax(row, axis=1)
            best = row[each, gi]
            hit = (best > 0.0) & (best >= thresholds)
            taken[each[hit], gi[hit]] = True
            tp[:, rank] = hit
    return scores[order], tp


def _ap_from_pool(scores: np.ndarray, tp: np.ndarray, n_gt: int) -> float:
    """Area under the interpolated precision-recall curve, for a class
    with ``n_gt >= 1`` ground-truth instances."""
    if scores.size == 0:
        return 0.0
    order = np.argsort(-scores, kind="stable")
    tp_sorted = tp[order].astype(np.float64)
    cum_tp = np.cumsum(tp_sorted)
    cum_fp = np.cumsum(1.0 - tp_sorted)
    recall = cum_tp / n_gt
    precision = cum_tp / (cum_tp + cum_fp)
    mrec = np.concatenate(([0.0], recall, [1.0]))
    mpre = np.maximum.accumulate(np.concatenate(([0.0], precision, [0.0]))[::-1])[::-1]
    steps = np.flatnonzero(mrec[1:] != mrec[:-1]) + 1
    return float(((mrec[steps] - mrec[steps - 1]) * mpre[steps]).sum())


@dataclass
class APResult:
    """Per-threshold, per-class, and combined average precision."""

    per_class_threshold: dict[tuple[str, float], float]
    per_threshold: dict[float, float]
    per_class: dict[str, float]
    map: float


def map_eval(pred_frames: list[list[Instance]], gt_frames: list[list[Instance]]) -> APResult:
    """Multi-frame mAP over the IoU thresholds ``IOU_THRESHOLDS``.

    Frame lists must be aligned. Classes enter the average only when
    they appear in the ground truth. A fully empty evaluation (no ground
    truth anywhere) is vacuous: mAP 1.0 when there are no detections
    either, 0.0 otherwise, with a warning in both cases.
    """
    if len(pred_frames) != len(gt_frames):
        raise ValueError(f"{len(pred_frames)} prediction frames vs {len(gt_frames)} ground-truth frames")
    classes = sorted({inst.cls for frame in gt_frames for inst in frame})
    if not classes:
        n_dets = sum(len(frame) for frame in pred_frames)
        warnings.warn("no ground-truth instances; mAP is vacuous", stacklevel=2)
        value = 1.0 if n_dets == 0 else 0.0
        return APResult({}, {}, {}, value)

    thresholds = np.array(IOU_THRESHOLDS)
    per_ct: dict[tuple[str, float], float] = {}
    for cls in classes:
        cls_preds = [[d for d in frame if d.cls == cls] for frame in pred_frames]
        cls_gts = [[g.mask for g in frame if g.cls == cls] for frame in gt_frames]
        n_gt = sum(len(frame) for frame in cls_gts)
        # one IoU matrix per frame, matched at all thresholds in one pass
        matches = [
            _greedy_match(
                _iou_matrix([d.mask for d in dets], gts, mask_iou), np.array([d.score for d in dets]), thresholds
            )
            for dets, gts in zip(cls_preds, cls_gts)
        ]
        ranked = np.concatenate([scores for scores, _ in matches])
        tp = np.concatenate([flags for _, flags in matches], axis=1)
        for thr, flags in zip(IOU_THRESHOLDS, tp):
            per_ct[(cls, thr)] = _ap_from_pool(ranked, flags, n_gt)

    per_threshold = {
        thr: float(np.mean([per_ct[(cls, thr)] for cls in classes])) for thr in IOU_THRESHOLDS
    }
    per_class = {
        cls: float(np.mean([per_ct[(cls, thr)] for thr in IOU_THRESHOLDS])) for cls in classes
    }
    overall = float(np.mean(list(per_class.values())))
    return APResult(per_ct, per_threshold, per_class, overall)
