"""Training loss kernels with analytic gradients.

Standalone numerical implementations of the two head losses and their
weighted combination, usable by any external trainer and verifiable by
finite differences. Inputs are plain float arrays; double precision is
used internally so gradient checks at step 1e-5 are meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import DimensionMismatch

PROB_CLAMP = 1e-7  # keeps log() finite on saturated predictions


@dataclass(frozen=True)
class FocalParams:
    """Per-class weights and the focusing exponent of the focal loss."""

    alpha: float | np.ndarray = 1.0
    gamma: float = 2.0

    def __post_init__(self) -> None:
        alpha_arr = np.atleast_1d(np.asarray(self.alpha, dtype=np.float64))
        if not np.all(np.isfinite(alpha_arr)) or np.any(alpha_arr < 0):
            raise ValueError("alpha weights must be finite and >= 0")
        if not np.isfinite(self.gamma) or self.gamma < 0:
            raise ValueError("gamma must be finite and >= 0")
        object.__setattr__(self, "alpha", alpha_arr)
        object.__setattr__(self, "gamma", float(self.gamma))


@dataclass(frozen=True)
class LossValue:
    """A scalar loss and its gradient w.r.t. the differentiated input."""

    value: float
    gradient: np.ndarray

    def __post_init__(self) -> None:
        if self.value < 0 or not np.isfinite(self.value):
            raise ValueError("loss value must be finite and >= 0")
        if not np.all(np.isfinite(self.gradient)):
            raise ValueError("gradient must be finite")


def _as_prob_stack(arr) -> np.ndarray:
    """Flatten (..., C) probability arrays to (N, C) float64."""
    a = np.asarray(arr, dtype=np.float64)
    if a.ndim == 0:
        a = a.reshape(1, 1)
    elif a.ndim == 1:
        a = a.reshape(-1, 1)
    else:
        a = a.reshape(-1, a.shape[-1])
    return a


def focal_loss(pred_probs, true_probs, params: FocalParams | None = None) -> LossValue:
    """Focal loss over per-pixel class probabilities.

    ``pred_probs`` and ``true_probs`` have matching shape (..., C) with C
    probability components per pixel (a single component is the scalar
    binary form, truth in {0, 1}). Per component, the probability of
    being correct is p_t = pred * true + (1 - pred) * (1 - true); the
    loss is the mean over pixels of

        sum_c -alpha_c * (1 - p_t)^gamma * log(p_t)

    with predictions clamped to [1e-7, 1 - 1e-7]. At gamma = 0 and unit
    alpha this is exactly the summed cross-entropy of the p_t terms.
    The gradient is w.r.t. ``pred_probs`` (zero inside clamped regions).
    """
    if params is None:
        params = FocalParams()
    pred_in = np.asarray(pred_probs, dtype=np.float64)
    true_in = np.asarray(true_probs, dtype=np.float64)
    if pred_in.shape != true_in.shape:
        raise ValueError(f"shape mismatch: {pred_in.shape} vs {true_in.shape}")
    pred = _as_prob_stack(pred_in)
    true = _as_prob_stack(true_in)
    n_pixels, n_classes = pred.shape
    alpha = params.alpha
    if alpha.size == 1:
        alpha = np.full(n_classes, alpha[0])
    if alpha.size != n_classes:
        raise ValueError(f"{alpha.size} alpha weights for {n_classes} classes")

    clamped = np.clip(pred, PROB_CLAMP, 1.0 - PROB_CLAMP)
    in_range = (pred > PROB_CLAMP) & (pred < 1.0 - PROB_CLAMP)
    p_t = clamped * true + (1.0 - clamped) * (1.0 - true)
    one_minus = 1.0 - p_t
    log_pt = np.log(p_t)
    gamma = params.gamma
    focal = one_minus**gamma
    value = float((-alpha[None, :] * focal * log_pt).sum() / n_pixels)

    # d/dp_t of -(1-p_t)^g log(p_t), with the g=0 branch avoiding 0^-1
    if gamma == 0.0:
        d_pt = -1.0 / p_t
    else:
        d_pt = gamma * one_minus ** (gamma - 1.0) * log_pt - focal / p_t
    dpt_dpred = 2.0 * true - 1.0
    grad = (alpha[None, :] * d_pt * dpt_dpred) / n_pixels
    grad = np.where(in_range, grad, 0.0).reshape(pred_in.shape)
    return LossValue(value=max(value, 0.0), gradient=grad)


def offset_loss(pred_offsets, true_offsets, piglet_mask) -> LossValue:
    """Masked mean squared displacement error.

    value = (1/N) * sum_x mask(x) * ||true(x) - pred(x)||^2 with N the
    total pixel count (not the masked count). The offsets are (..., 2)
    arrays and the mask an array of the matching leading shape. Gradient
    is w.r.t. the predictions: (2/N) * mask * (pred - true).
    """
    pred_arr = np.asarray(pred_offsets, dtype=np.float64)
    true_arr = np.asarray(true_offsets, dtype=np.float64)
    mask_arr = np.asarray(piglet_mask, dtype=np.float64)
    if pred_arr.shape != true_arr.shape:
        raise DimensionMismatch(f"shape mismatch: {pred_arr.shape} vs {true_arr.shape}")
    if mask_arr.shape != pred_arr.shape[:-1]:
        raise DimensionMismatch(f"mask shape {mask_arr.shape} does not match {pred_arr.shape[:-1]}")
    n = mask_arr.size
    diff = pred_arr - true_arr
    sq = (diff**2).sum(axis=-1)
    value = float((mask_arr * sq).sum() / n)
    grad = (2.0 / n) * mask_arr[..., None] * diff
    return LossValue(value=max(value, 0.0), gradient=grad)


def total_loss(l1: float, l2: float, lam: float = 0.5) -> float:
    """Weighted combination lam * l1 + (1 - lam) * l2, lam in [0, 1]."""
    if not (0.0 <= lam <= 1.0):
        raise ValueError(f"lambda must lie in [0, 1], got {lam}")
    return lam * l1 + (1.0 - lam) * l2


def finite_difference_gradient(func, arr: np.ndarray, step: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function of one array."""
    arr = np.asarray(arr, dtype=np.float64)
    grad = np.zeros_like(arr)
    flat = arr.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        hi = func(arr)
        flat[i] = orig - step
        lo = func(arr)
        flat[i] = orig
        gflat[i] = (hi - lo) / (2.0 * step)
    return grad


def max_relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Worst per-component relative disagreement between two gradients.

    Components where both gradients are essentially zero contribute
    nothing (the finite difference of an exactly-zero derivative is pure
    rounding noise).
    """
    a = np.asarray(analytic, dtype=np.float64).ravel()
    b = np.asarray(numeric, dtype=np.float64).ravel()
    if a.shape != b.shape:
        raise ValueError("gradient shapes differ")
    diff = np.abs(a - b)
    scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-6)
    rel = diff / scale
    rel[(np.abs(a) < 1e-12) & (np.abs(b) < 1e-10)] = 0.0
    return float(rel.max()) if rel.size else 0.0


def run_gradient_checks(n_cases: int, seed: int, tol: float = 1e-4, corrupt: bool = False):
    """Finite-difference checks of both loss gradients on random inputs.

    Returns a list of dict reports, one per loss, with the max relative
    error and the offending case/component. ``corrupt`` perturbs one
    analytic gradient component per case (a negative-control hook for
    verifying the harness fails when it should).
    """
    rng = np.random.default_rng(seed)
    reports = []
    for name in ("focal", "offset"):
        worst = 0.0
        worst_case = -1
        worst_comp = -1
        for case in range(n_cases):
            h = int(rng.integers(2, 9))
            w = int(rng.integers(2, 9))
            if name == "focal":
                n_classes = 3
                logits = rng.uniform(-1.5, 1.5, size=(h, w, n_classes))
                expd = np.exp(logits)
                pred = expd / expd.sum(axis=-1, keepdims=True)
                pred = np.clip(pred, 0.05, 0.95)
                true_idx = rng.integers(0, n_classes, size=(h, w))
                true = np.eye(n_classes)[true_idx]
                params = FocalParams(alpha=rng.uniform(0.2, 2.0, size=n_classes),
                                     gamma=float(rng.choice([0.0, 0.5, 1.0, 2.0])))
                analytic = focal_loss(pred, true, params).gradient
                numeric = finite_difference_gradient(
                    lambda a: focal_loss(a, true, params).value, pred.copy()
                )
            else:
                pred = rng.normal(0, 3, size=(h, w, 2))
                true = rng.normal(0, 3, size=(h, w, 2))
                mask = rng.random((h, w)) < 0.6
                analytic = offset_loss(pred, true, mask.astype(np.float64)).gradient
                numeric = finite_difference_gradient(
                    lambda a: offset_loss(a, true, mask.astype(np.float64)).value, pred.copy()
                )
            if corrupt:
                analytic = analytic.copy()
                analytic.flat[0] += 1e-3
            err = max_relative_error(analytic, numeric)
            if err > worst:
                worst = err
                worst_case = case
                flat_rel = np.abs(analytic - numeric).ravel()
                worst_comp = int(np.argmax(flat_rel))
        reports.append(
            {
                "loss": name,
                "cases": n_cases,
                "max_rel_error": worst,
                "worst_case": worst_case,
                "worst_component": worst_comp,
                "passed": worst <= tol,
            }
        )
    return reports
