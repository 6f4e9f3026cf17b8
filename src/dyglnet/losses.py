"""Training losses and binary-segmentation metrics.

The Dice and cross-entropy losses are fused autodiff ops with
hand-written backward passes; the hybrid loss combines them as an
exact linear blend. Metrics reduce per image and average over the
batch while the raw confusion counts are summed globally.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Value
from .errors import ContractError, DimensionError
from .tensor import Tensor, _sigmoid_forward


_DICE_EPS = 1e-6  # smoothing term of the soft Dice ratio


def _pair(a: Value, b: Tensor, a_name: str, b_name: str) -> np.ndarray:
    """Check a loss input against its target; returns the target array."""
    if not isinstance(a, Value):
        raise ContractError(f"{a_name} must be a Value, got {type(a).__name__}")
    if not isinstance(b, Tensor):
        raise ContractError(f"{b_name} must be a Tensor, got {type(b).__name__}")
    if a.tensor.shape != b.shape:
        raise DimensionError(f"{a_name} shape {a.tensor.shape} != {b_name} shape {b.shape}")
    if a.tensor.dtype != b.dtype:
        raise ContractError(f"{a_name} dtype {a.tensor.dtype} != {b_name} dtype {b.dtype}")
    return b.data


def _check_binary(t: np.ndarray, name: str) -> None:
    if not np.all((t == 0.0) | (t == 1.0)):
        raise ContractError(f"{name} must contain only 0 and 1")


def dice_loss(probs: Value, target: Tensor) -> Value:
    """Soft Dice loss, reduced over every element of the batch at once:
    1 - (2 sum(p t) + eps) / (sum(p) + sum(t) + eps), eps = ``_DICE_EPS``.

    ``probs`` must already be probabilities in [0,1]; ``target`` is a
    binary mask of the same shape. Differentiable in ``probs`` only.
    """
    td = _pair(probs, target, "probs", "target")
    pd = probs.tensor.data
    if pd.min() < -1e-6 or pd.max() > 1.0 + 1e-6:
        raise ContractError(
            f"probs outside [0,1]: range [{pd.min()}, {pd.max()}]"
        )
    _check_binary(td, "target")
    dt = pd.dtype
    num = 2.0 * float(np.sum(pd * td, dtype=np.float64)) + _DICE_EPS
    den = (
        float(np.sum(pd, dtype=np.float64))
        + float(np.sum(td, dtype=np.float64))
        + _DICE_EPS
    )
    loss = Tensor._wrap(np.asarray([1.0 - num / den], dtype=dt))

    def vjp(g):
        return ((g[0] * (num - 2.0 * td * den) / (den * den)).astype(dt),)

    return ad.record_op(loss, (probs,), vjp)


def bce_loss(logits: Value, target: Tensor) -> Value:
    """Binary cross-entropy on raw logits, fused log-sigmoid form.

    Uses mean(max(x,0) - x*t + log1p(exp(-|x|))), which stays finite
    for logits of any magnitude. Differentiable in ``logits`` only.
    """
    td = _pair(logits, target, "logits", "target")
    _check_binary(td, "target")
    xd = logits.tensor.data
    dt = xd.dtype
    m = xd.size
    per = np.maximum(xd, 0) - xd * td + np.log1p(np.exp(-np.abs(xd)))
    loss = Tensor._wrap(
        np.asarray([np.sum(per, dtype=np.float64) / m], dtype=dt)
    )

    def vjp(g):
        return ((g[0] * (_sigmoid_forward(xd) - td) / dt.type(m)).astype(dt),)

    return ad.record_op(loss, (logits,), vjp)


def hybrid_loss(logits: Value, target: Tensor, lambda_: float) -> Value:
    """lambda_ * BCE + (1 - lambda_) * Dice, with Dice fed sigmoid(logits).

    The blend is an exact linear combination: lambda_=1 reproduces
    bce_loss bit-for-bit and lambda_=0 reproduces dice_loss. The weight
    is not checked here: ``TrainConfig.lambda_`` holds it to [0, 1].
    """
    bce = bce_loss(logits, target)
    dice = dice_loss(ad.sigmoid(logits), target)
    return ad.add(ad.scale(bce, lambda_), ad.scale(dice, 1.0 - lambda_))


# ---------------------------------------------------------------------------
# Metrics


@dataclass
class MetricsReport:
    """Six ratio metrics (per-image averaged) plus summed pixel counts."""

    dice: float
    iou: float
    precision: float
    recall: float
    specificity: float
    accuracy: float
    tp: int
    fp: int
    fn: int
    tn: int

    _METRICS = ("dice", "iou", "precision", "recall", "specificity", "accuracy")

    def to_text(self) -> str:
        lines = [f"{k:<12} {getattr(self, k):.6f}" for k in self._METRICS]
        lines.append(
            f"{'counts':<12} tp={self.tp} fp={self.fp} fn={self.fn} tn={self.tn}"
        )
        return "\n".join(lines)


def _safe_div(num: int, den: int, err: int) -> float:
    if den > 0:
        return num / den
    return 1.0 if err == 0 else 0.0


def _image_metrics(tp: int, fp: int, fn: int, tn: int) -> tuple[float, ...]:
    dice = _safe_div(2 * tp, 2 * tp + fp + fn, fp + fn)
    iou = _safe_div(tp, tp + fp + fn, fp + fn)
    precision = _safe_div(tp, tp + fp, fn)
    recall = _safe_div(tp, tp + fn, fp)
    specificity = _safe_div(tn, tn + fp, fn)
    accuracy = (tp + tn) / (tp + fp + fn + tn)
    return dice, iou, precision, recall, specificity, accuracy


def _check_threshold(threshold: float) -> None:
    """A foreground threshold is a probability in [0, 1], not NaN."""
    if not 0.0 <= threshold <= 1.0:
        raise ContractError(f"threshold must lie in [0, 1], got {threshold}")


def evaluate(pred_logits: Tensor, target: Tensor, threshold: float = 0.5) -> MetricsReport:
    """Threshold sigmoid(logits) and score against a binary target.

    Both are [N, C, H, W] batches: ratio metrics are computed per image
    and averaged, while tp/fp/fn/tn are summed over the whole batch.
    Zero-denominator ratios score 1.0 when the corresponding error count
    is zero, else 0.0 (the empty-mask convention).
    """
    _check_threshold(threshold)
    if pred_logits.rank != 4 or pred_logits.shape != target.shape:
        raise DimensionError(
            f"expected equal [N,C,H,W] shapes, got {pred_logits.shape} and {target.shape}"
        )
    _check_binary(target.data, "target")
    pred = _sigmoid_forward(pred_logits.data) > threshold
    tgt = target.data > 0.5
    sums = np.zeros(6, dtype=np.float64)
    counts = np.zeros(4, dtype=np.int64)
    for p, t in zip(pred, tgt):
        c = [int(np.count_nonzero(m)) for m in (p & t, p & ~t, ~p & t, ~p & ~t)]
        sums += np.asarray(_image_metrics(*c))
        counts += c
    means = sums / len(pred)
    return MetricsReport(*(float(m) for m in means), *(int(k) for k in counts))
