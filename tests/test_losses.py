"""Loss functions and evaluation metrics: pinned closed-form values,
exact linear-blend structure, and exact agreement with the loop-counted
confusion oracle."""
from __future__ import annotations

import math

import numpy as np
import pytest

import oracles
from dyglnet import autodiff as ad
from dyglnet.errors import ContractError, DimensionError
from dyglnet.losses import (
    _DICE_EPS,
    MetricsReport,
    bce_loss,
    dice_loss,
    evaluate,
    hybrid_loss,
)
from dyglnet.tensor import Tensor


def t64(a):
    return Tensor(np.asarray(a, dtype=np.float64), dtype="f64")


def v64(a):
    return ad.constant(t64(a))


def scalar(value):
    return float(value.tensor.item())


# ---------------------------------------------------------------------------
# Dice


def test_dice_perfect_overlap_near_zero():
    probs = v64([1.0, 0.0, 1.0])
    target = t64([1.0, 0.0, 1.0])
    assert scalar(dice_loss(probs, target)) == pytest.approx(0.0, abs=1e-6)


def test_dice_disjoint_pinned():
    loss = scalar(dice_loss(v64([1.0, 0.0]), t64([0.0, 1.0])))
    eps = 1e-6
    assert loss == pytest.approx(1.0 - eps / (2.0 + eps), abs=1e-12)
    assert loss == pytest.approx(1.0, abs=1e-5)


def test_dice_half_probs_evaluates_the_formula():
    # overlap = 0.5, prob sum = 1, target sum = 1:
    # loss = 1 - (2*0.5 + eps) / (1 + 1 + eps)
    eps = _DICE_EPS
    loss = scalar(dice_loss(v64([0.5, 0.5]), t64([1.0, 0.0])))
    want = 1.0 - (2.0 * 0.5 + eps) / (1.0 + 1.0 + eps)
    assert loss == pytest.approx(want, abs=1e-12)
    assert loss == pytest.approx(0.5, abs=1e-6)


def test_dice_batch_global_reduction():
    # Two images pooled into one sum, not averaged per image.
    probs = np.array([[[[1.0, 0.0]]], [[[0.0, 0.0]]]])
    target = np.array([[[[1.0, 0.0]]], [[[1.0, 0.0]]]])
    eps = 1e-6
    want = 1.0 - (2.0 * 1.0 + eps) / (1.0 + 2.0 + eps)
    assert scalar(dice_loss(v64(probs), t64(target))) == pytest.approx(want, abs=1e-12)


def test_dice_range_contract():
    with pytest.raises(ContractError):
        dice_loss(v64([1.5, 0.0]), t64([1.0, 0.0]))
    with pytest.raises(ContractError):
        dice_loss(v64([-0.2, 0.0]), t64([0.0, 0.0]))
    with pytest.raises(ContractError):
        dice_loss(v64([0.5, 0.5]), t64([0.3, 1.0]))  # non-binary target


def test_dice_permutation_invariance():
    rng = np.random.default_rng(3)
    probs = rng.random(24)
    target = (rng.random(24) > 0.5).astype(np.float64)
    base = scalar(dice_loss(v64(probs), t64(target)))
    for seed in range(5):
        perm = np.random.default_rng(seed).permutation(24)
        shuffled = scalar(dice_loss(v64(probs[perm]), t64(target[perm])))
        assert shuffled == pytest.approx(base, rel=1e-12)


def test_dice_in_valid_range():
    rng = np.random.default_rng(5)
    for _ in range(20):
        probs = rng.random((1, 1, 3, 3))
        target = (rng.random((1, 1, 3, 3)) > 0.5).astype(np.float64)
        loss = scalar(dice_loss(v64(probs), t64(target)))
        assert 0.0 <= loss < 1.0


# ---------------------------------------------------------------------------
# BCE


def test_bce_zero_logit_pinned():
    assert scalar(bce_loss(v64([0.0]), t64([1.0]))) == pytest.approx(
        0.693147, abs=1e-5
    )


def test_bce_saturated_correct_is_stable():
    loss = scalar(bce_loss(v64([50.0]), t64([1.0])))
    assert math.isfinite(loss)
    assert loss == pytest.approx(0.0, abs=1e-6)
    loss_neg = scalar(bce_loss(v64([-50.0]), t64([0.0])))
    assert math.isfinite(loss_neg)
    assert loss_neg == pytest.approx(0.0, abs=1e-6)


def test_bce_mean_pinned():
    loss = scalar(bce_loss(v64([0.0, 2.0]), t64([1.0, 0.0])))
    assert loss == pytest.approx(1.410038, abs=1e-4)


def test_bce_extreme_logits_finite():
    loss = scalar(bce_loss(v64([1e3, -1e3]), t64([0.0, 1.0])))
    assert math.isfinite(loss)
    assert loss == pytest.approx(1e3, rel=1e-6)


def test_bce_non_negative():
    rng = np.random.default_rng(7)
    for _ in range(20):
        logits = rng.normal(scale=3.0, size=16)
        target = (rng.random(16) > 0.5).astype(np.float64)
        assert scalar(bce_loss(v64(logits), t64(target))) >= 0.0


def test_bce_shape_mismatch():
    with pytest.raises(DimensionError):
        bce_loss(v64([0.0, 1.0]), t64([1.0]))


@pytest.mark.parametrize("loss_fn", [dice_loss, bce_loss])
def test_losses_name_an_input_of_the_wrong_type(loss_fn):
    # the prediction is a Value, the target a Tensor: a raw array or a
    # swapped pair is named as such, not reported as a dtype mismatch
    with pytest.raises(ContractError, match="target must be a Tensor, got ndarray"):
        loss_fn(v64([0.5, 0.5]), np.array([1.0, 0.0]))
    with pytest.raises(ContractError, match="target must be a Tensor, got Value"):
        loss_fn(v64([0.5, 0.5]), v64([1.0, 0.0]))
    with pytest.raises(ContractError, match="must be a Value, got Tensor"):
        loss_fn(t64([0.5, 0.5]), t64([1.0, 0.0]))
    with pytest.raises(ContractError, match="target must be a Tensor, got ndarray"):
        hybrid_loss(v64([0.5, 0.5]), np.array([1.0, 0.0]), 0.5)


# ---------------------------------------------------------------------------
# Hybrid


def test_hybrid_is_exact_blend():
    rng = np.random.default_rng(9)
    logits = rng.normal(size=(1, 1, 4, 4))
    target = (rng.random((1, 1, 4, 4)) > 0.5).astype(np.float64)
    bce = scalar(bce_loss(v64(logits), t64(target)))
    dice = scalar(dice_loss(ad.sigmoid(v64(logits)), t64(target)))
    for lam in (0.0, 0.25, 0.5, 1.0):
        got = scalar(hybrid_loss(v64(logits), t64(target), lam))
        assert got == lam * bce + (1.0 - lam) * dice


def test_hybrid_endpoints_exact():
    rng = np.random.default_rng(11)
    logits = rng.normal(size=(2, 1, 3, 3))
    target = (rng.random((2, 1, 3, 3)) > 0.5).astype(np.float64)
    only_bce = scalar(hybrid_loss(v64(logits), t64(target), 1.0))
    only_dice = scalar(hybrid_loss(v64(logits), t64(target), 0.0))
    assert only_bce == scalar(bce_loss(v64(logits), t64(target)))
    assert only_dice == scalar(
        dice_loss(ad.sigmoid(v64(logits)), t64(target))
    )


def test_hybrid_linear_in_lambda():
    rng = np.random.default_rng(13)
    logits = rng.normal(size=(1, 1, 3, 3))
    target = (rng.random((1, 1, 3, 3)) > 0.5).astype(np.float64)
    at = {
        lam: scalar(hybrid_loss(v64(logits), t64(target), lam))
        for lam in (0.0, 0.5, 1.0)
    }
    assert at[0.5] == pytest.approx(0.5 * (at[0.0] + at[1.0]), rel=1e-15)


def test_hybrid_gradient_matches_fd():
    rng = np.random.default_rng(17)
    w = ad.Parameter("logits", t64(rng.normal(size=(1, 1, 4, 4))))
    target = t64((rng.random((1, 1, 4, 4)) > 0.5).astype(np.float64))

    def fn():
        return hybrid_loss(ad.watch(w), target, 0.5)

    report = ad.grad_check(fn, [w], tol=1e-5)
    assert report.passed, report.max_rel_err


# ---------------------------------------------------------------------------
# evaluate / MetricsReport


def _logits_for(pred):
    # logit +4 -> sigmoid ~0.982 > 0.5; logit -4 -> ~0.018 < 0.5
    return np.where(np.asarray(pred) > 0.5, 4.0, -4.0)


def test_evaluate_perfect_prediction():
    rng = np.random.default_rng(19)
    target = (rng.random((1, 1, 4, 4)) > 0.5).astype(np.float64)
    report = evaluate(t64(_logits_for(target)), t64(target))
    for name in ("dice", "iou", "precision", "recall", "specificity", "accuracy"):
        assert getattr(report, name) == 1.0
    assert report.fp == report.fn == 0
    assert report.tp + report.tn == 16


def test_evaluate_2x2_confusion_pinned():
    # One each of TP, FP, FN, TN.
    target = np.array([[[[1.0, 0.0], [1.0, 0.0]]]])
    pred = np.array([[[[1.0, 1.0], [0.0, 0.0]]]])
    report = evaluate(t64(_logits_for(pred)), t64(target))
    assert (report.tp, report.fp, report.fn, report.tn) == (1, 1, 1, 1)
    assert report.dice == pytest.approx(0.5)
    assert report.iou == pytest.approx(1.0 / 3.0)
    assert report.precision == pytest.approx(0.5)
    assert report.recall == pytest.approx(0.5)
    assert report.specificity == pytest.approx(0.5)
    assert report.accuracy == pytest.approx(0.5)


def test_evaluate_empty_mask_convention():
    target = np.zeros((1, 1, 3, 3))
    pred = np.zeros((1, 1, 3, 3))
    report = evaluate(t64(_logits_for(pred)), t64(target))
    assert report.dice == 1.0
    assert report.iou == 1.0
    assert report.precision == 1.0
    assert report.recall == 1.0
    assert report.specificity == 1.0
    assert report.accuracy == 1.0


def test_evaluate_empty_target_nonempty_pred():
    target = np.zeros((1, 1, 2, 2))
    pred = np.array([[[[1.0, 0.0], [0.0, 0.0]]]])
    report = evaluate(t64(_logits_for(pred)), t64(target))
    assert report.recall == 0.0  # tp=0, fn=0 but fp>0
    assert report.dice == 0.0
    assert report.precision == 0.0


def test_evaluate_matches_confusion_oracle_exactly_1000_masks():
    rng = np.random.default_rng(23)
    for case in range(1000):
        h, w = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        target = (rng.random((1, 1, h, w)) > rng.random()).astype(np.float64)
        logits = rng.normal(scale=3.0, size=(1, 1, h, w))
        report = evaluate(t64(logits), t64(target))
        pred = 1.0 / (1.0 + np.exp(-logits)) > 0.5
        tgt = target > 0.5
        want = oracles.metrics_naive(pred, tgt)
        got = (
            report.dice,
            report.iou,
            report.precision,
            report.recall,
            report.specificity,
            report.accuracy,
        )
        assert got == tuple(want), f"case {case}"
        assert (report.tp, report.fp, report.fn, report.tn) == oracles.confusion_naive(
            pred, tgt
        ), f"case {case}"


def test_evaluate_batch_averages_per_image_ratios():
    rng = np.random.default_rng(29)
    n = 4
    logits = rng.normal(scale=2.0, size=(n, 1, 3, 3))
    target = (rng.random((n, 1, 3, 3)) > 0.5).astype(np.float64)
    report = evaluate(t64(logits), t64(target))
    pred = 1.0 / (1.0 + np.exp(-logits)) > 0.5
    tgt = target > 0.5
    sums = np.zeros(6, dtype=np.float64)
    counts = np.zeros(4, dtype=np.int64)
    for i in range(n):
        sums += np.asarray(oracles.metrics_naive(pred[i], tgt[i]))
        counts += np.asarray(oracles.confusion_naive(pred[i], tgt[i]))
    means = sums / n
    got = np.array(
        [report.dice, report.iou, report.precision, report.recall,
         report.specificity, report.accuracy]
    )
    np.testing.assert_array_equal(got, means)
    assert (report.tp, report.fp, report.fn, report.tn) == tuple(counts)


def test_evaluate_threshold_respected():
    logits = np.array([[[[0.2, -0.2]]]])  # sigmoid ~0.55, ~0.45
    target = np.array([[[[1.0, 0.0]]]])
    r_default = evaluate(t64(logits), t64(target), threshold=0.5)
    assert (r_default.tp, r_default.tn) == (1, 1)
    r_high = evaluate(t64(logits), t64(target), threshold=0.9)
    assert r_high.tp == 0 and r_high.fn == 1


@pytest.mark.parametrize("threshold", [math.nan, -0.1, 1.5])
def test_evaluate_rejects_threshold_outside_unit_interval(threshold):
    # Any of these would otherwise score an all-background (or all-
    # foreground) mask without a word.
    logits = np.array([[[[0.2, -0.2]]]])
    target = np.array([[[[1.0, 0.0]]]])
    with pytest.raises(ContractError, match="threshold"):
        evaluate(t64(logits), t64(target), threshold=threshold)


def test_report_invariants_and_formats():
    target = np.array([[[[1.0, 0.0], [1.0, 0.0]]]])
    pred = np.array([[[[1.0, 1.0], [0.0, 0.0]]]])
    report = evaluate(t64(_logits_for(pred)), t64(target))
    total = report.tp + report.fp + report.fn + report.tn
    assert total == 4
    assert report.accuracy == (report.tp + report.tn) / total
    text = report.to_text()
    lines = text.splitlines()
    assert lines[0] == f"{'dice':<12} 0.500000" and len(lines) == 7
    for key in ("dice", "iou", "precision", "recall", "specificity", "accuracy"):
        assert key in text
    assert lines[-1] == f"{'counts':<12} tp=1 fp=1 fn=1 tn=1"


def test_evaluate_rejects_mismatched_shapes():
    with pytest.raises(DimensionError):
        evaluate(t64(np.zeros((1, 1, 2, 2))), t64(np.zeros((1, 1, 2, 3))))


@pytest.mark.parametrize("shape", [(4,), (2, 2), (1, 2, 2), (1, 1, 1, 2, 2)])
def test_evaluate_takes_only_nchw_batches(shape):
    # No lower-rank input counts as one image.
    with pytest.raises(DimensionError):
        evaluate(t64(np.zeros(shape)), t64(np.zeros(shape)))


def test_evaluate_rejects_non_binary_target():
    with pytest.raises(ContractError):
        evaluate(t64(np.zeros((1, 1, 2, 2))), t64(np.full((1, 1, 2, 2), 0.3)))
