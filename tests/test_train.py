"""Training loop: schedule anchors, optimizer identities, gradient
clipping, bit-exact determinism, logging format, and the non-finite
abort path."""
from __future__ import annotations

import ctypes
import math
import re

import numpy as np
import pytest

from dyglnet import autodiff as ad
from dyglnet.autodiff import Parameter
from dyglnet.data import AugmentConfig, synth_dataset
from dyglnet.errors import ConfigurationError, ContractError, NumericError
from dyglnet.losses import hybrid_loss
from dyglnet.network import Model, ModelConfig, load
from dyglnet.tensor import Tensor
from dyglnet.train import AdamW, TrainConfig, clip_grad_norm, evaluate_model, lr_at, train


# ---------------------------------------------------------------------------
# Learning-rate schedule


def test_lr_warmup_anchors_exact():
    cfg = TrainConfig()  # lr0=1e-3, warmup=10, total=130, power=0.9
    assert lr_at(0, cfg) == 0.0
    assert lr_at(5, cfg) == 5e-4
    assert lr_at(10, cfg) == 1e-3


def test_lr_decay_reaches_zero_exactly():
    cfg = TrainConfig()
    assert lr_at(130, cfg) == 0.0
    assert lr_at(500, cfg) == 0.0


def test_lr_warmup_boundary_continuity():
    cfg = TrainConfig()
    assert lr_at(9, cfg) == cfg.lr0 * 9 / 10
    # The jump across the boundary is one warmup increment, no more.
    assert abs(lr_at(10, cfg) - lr_at(9, cfg)) <= cfg.lr0 / cfg.warmup_epochs + 1e-15


def test_lr_monotone_after_warmup():
    cfg = TrainConfig()
    rates = [lr_at(e, cfg) for e in range(10, 131)]
    assert all(a >= b for a, b in zip(rates, rates[1:]))
    assert all(r >= 0.0 for r in rates)


def test_lr_no_warmup_starts_at_peak():
    cfg = TrainConfig(warmup_epochs=0, total_epochs=20)
    assert lr_at(0, cfg) == cfg.lr0


def test_lr_negative_epoch_rejected():
    with pytest.raises(ContractError):
        lr_at(-1, TrainConfig())


# ---------------------------------------------------------------------------
# AdamW


def _param(name, arr):
    return Parameter(name, Tensor(np.asarray(arr, np.float32), dtype="f32"))


def test_adamw_zero_grad_no_decay_is_identity():
    rng = np.random.default_rng(0)
    p = _param("w", rng.normal(size=(4, 3)))
    before = p.value.data.copy()
    opt = AdamW([p], TrainConfig(weight_decay=0.0))
    opt.step(0.5)
    np.testing.assert_array_equal(p.value.data, before)


def test_adamw_zero_grad_decay_is_exact_rescale():
    rng = np.random.default_rng(1)
    p = _param("w", rng.normal(size=(5,)))
    before = p.value.data.copy()
    opt = AdamW([p], TrainConfig(weight_decay=0.1))
    opt.step(0.1)
    np.testing.assert_array_equal(p.value.data, before * np.float32(1.0 - 0.1 * 0.1))


def test_adamw_first_step_unit_gradient():
    p = _param("w", [1.0])
    p.grad[:] = 1.0
    opt = AdamW([p], TrainConfig(weight_decay=0.0))
    opt.step(0.1)
    # Bias correction makes the first step ~lr regardless of the betas.
    assert float(p.value.data[0]) == pytest.approx(0.9, abs=1e-3)


def test_adamw_constant_gradient_steps_linearly():
    # With g constant, bias-corrected m_hat = g and v_hat = g^2, so each
    # step subtracts lr / (1 + adam_eps).
    p = _param("w", [1.0])
    opt = AdamW([p], TrainConfig(weight_decay=0.0))
    for _ in range(3):
        p.grad[:] = 1.0
        opt.step(0.1)
    assert float(p.value.data[0]) == pytest.approx(0.7, abs=1e-5)


def test_adamw_zero_grad_clears_buffers():
    p = _param("w", [1.0, 2.0])
    p.grad[:] = 3.0
    AdamW([p], TrainConfig()).zero_grad()
    np.testing.assert_array_equal(p.grad, 0.0)


def test_adamw_rejects_empty_params():
    with pytest.raises(ContractError):
        AdamW([], TrainConfig())


def _two_param_adamw():
    """An AdamW one step in, over two parameters whose gradients are 1."""
    params = [_param("a", [1.0, -1.0]), _param("b", [2.0])]
    opt = AdamW(params, TrainConfig())
    for p in params:
        p.grad[:] = 1.0
    opt.step(0.1)
    for p in params:
        p.grad[:] = 1.0
    state = [p.value.data.copy() for p in params] + [m.copy() for m in opt._m + opt._v]
    return params, opt, state


def _assert_adamw_unchanged(params, opt, state):
    assert opt.step_count == 1
    now = [p.value.data for p in params] + opt._m + opt._v
    for got, want in zip(now, state, strict=True):
        np.testing.assert_array_equal(got, want)


def test_adamw_rejects_nonfinite_grad():
    # A NaN in the second gradient is refused before the first parameter,
    # any moment or the step count moves.
    params, opt, state = _two_param_adamw()
    params[1].grad[:] = np.nan
    with pytest.raises(NumericError, match="'b'"):
        opt.step(0.1)
    _assert_adamw_unchanged(params, opt, state)


@pytest.mark.parametrize("lr", [math.nan, math.inf, -math.inf, -1e-3])
def test_adamw_rejects_a_bad_lr_before_any_update(lr):
    params, opt, state = _two_param_adamw()
    with pytest.raises(ContractError, match="lr must be finite and >= 0"):
        opt.step(lr)
    _assert_adamw_unchanged(params, opt, state)


# ---------------------------------------------------------------------------
# Gradient clipping


def test_clip_below_threshold_untouched():
    p = _param("w", [0.0, 0.0])
    p.grad[:] = [0.3, 0.4]
    before = p.grad.copy()
    assert clip_grad_norm([p], 1.0) == 1.0
    np.testing.assert_array_equal(p.grad, before)


def test_clip_scales_to_threshold():
    p = _param("w", [0.0, 0.0])
    p.grad[:] = [3.0, 4.0]
    scale = clip_grad_norm([p], 1.0)
    assert scale == pytest.approx(0.2, rel=1e-12)
    np.testing.assert_allclose(p.grad, [0.6, 0.8], atol=1e-6)


def test_clip_joint_norm_across_params():
    rng = np.random.default_rng(2)
    params = [_param(f"w{i}", rng.normal(size=(7,))) for i in range(3)]
    for p in params:
        p.grad[:] = rng.normal(size=7) * 10
    clip_grad_norm(params, 1.0)
    total = sum(float(np.sum(p.grad.astype(np.float64) ** 2)) for p in params)
    assert np.sqrt(total) <= 1.0 + 1e-6


def test_clip_validation():
    p = _param("w", [1.0])
    with pytest.raises(ContractError):
        clip_grad_norm([p], 0.0)
    p.grad[:] = np.inf
    with pytest.raises(NumericError):
        clip_grad_norm([p], 1.0)


def test_clip_raises_when_a_finite_gradients_squared_sum_overflows():
    # Each entry is finite, but 1e200**2 overflows f64: the norm is inf,
    # which would scale every gradient to zero. The clip refuses it and
    # leaves the gradients as they were.
    p = Parameter("w", Tensor(np.array([1e200, 3.0]), dtype="f64"))
    p.grad[:] = [1e200, 3.0]
    with np.errstate(over="ignore"):
        with pytest.raises(NumericError, match=r"gradient norm inf, non-finite in none \(overflow\)"):
            clip_grad_norm([p], 1.0)
    np.testing.assert_array_equal(p.grad, [1e200, 3.0])


@pytest.mark.parametrize("max_norm", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_clip_rejects_max_norm_outside_open_positive_range(max_norm):
    # A NaN bound would scale every gradient to NaN.
    p = _param("w", [0.0, 0.0])
    p.grad[:] = [3.0, 4.0]
    with pytest.raises(ContractError, match="max_norm"):
        clip_grad_norm([p], max_norm)
    np.testing.assert_array_equal(p.grad, [3.0, 4.0])


# ---------------------------------------------------------------------------
# TrainConfig validation


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(lr0=0.0),
        dict(lr0=-1.0),
        dict(weight_decay=-1e-6),
        dict(beta1=1.0),
        dict(beta2=-0.1),
        dict(adam_eps=0.0),
        dict(warmup_epochs=-1),
        dict(total_epochs=0),
        dict(warmup_epochs=10, total_epochs=10),
        dict(poly_power=0.0),
        dict(batch_size=0),
        dict(batch_size=1),
        dict(clip_norm=0.0),
        dict(lambda_=1.5),
        dict(lambda_=-0.1),
        dict(lambda_=math.nan),
        dict(seed=-1),
        # the wrong type: range() or numpy would fail mid-run with a
        # bare TypeError
        dict(seed=1.5),
        dict(seed=True),
        dict(batch_size=4.0),
    ],
)
def test_train_config_validation(kwargs):
    with pytest.raises(ConfigurationError):
        TrainConfig(**kwargs)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("name", ["lr0", "weight_decay", "adam_eps", "poly_power", "clip_norm"])
def test_train_config_rejects_non_finite_floats(name, value):
    # NaN passes a bare `x <= 0` test, and inf would train with an
    # unbounded step or no clipping at all.
    with pytest.raises(ConfigurationError, match=name):
        TrainConfig(**{name: value})


# ---------------------------------------------------------------------------
# Training loop (small end-to-end runs)

_MODEL_CFG = ModelConfig.tiny(input_size=32)


def _datasets():
    return synth_dataset(8, seed=7, size=32), synth_dataset(2, seed=8, size=32)


def _small_cfg(**overrides):
    base = dict(total_epochs=2, warmup_epochs=1, batch_size=4, seed=1)
    base.update(overrides)
    return TrainConfig(**base)


def test_train_bit_exact_determinism():
    train_set, valid_set = _datasets()
    results = []
    weights = []
    logs = [[], []]
    for log in logs:
        model = Model(_MODEL_CFG, seed=0)
        results.append(train(model, _small_cfg(), train_set, valid_set, log=log.append))
        weights.append({p.name: p.value.data.copy() for p in model.parameters()})
    a, b = results
    assert a.step_losses == b.step_losses
    assert logs[0] == logs[1]
    assert a.final_metrics.dice == b.final_metrics.dice
    assert weights[0].keys() == weights[1].keys()
    for name in weights[0]:
        np.testing.assert_array_equal(weights[0][name], weights[1][name])


def test_train_with_augmentation_replays_and_differs_from_plain():
    train_set, valid_set = _datasets()
    runs = []
    for aug in (AugmentConfig(), AugmentConfig(), None):
        model = Model(_MODEL_CFG, seed=0)
        result = train(model, _small_cfg(), train_set, valid_set, aug=aug)
        runs.append((result.step_losses, [p.value.data for p in model.parameters()]))
    (a, wa), (b, wb), (plain, wp) = runs
    assert len(a) == 4 and a == b
    for x, y in zip(wa, wb):
        np.testing.assert_array_equal(x, y)
    assert a != plain
    assert any(not np.array_equal(x, y) for x, y in zip(wa, wp))


def test_train_first_step_loss_matches_recomputation():
    # Replicate the shuffle and loss of step 1 independently: same seed,
    # same fresh weights, first batch of the first permutation.
    train_set, valid_set = _datasets()
    cfg = _small_cfg()
    model = Model(_MODEL_CFG, seed=0)
    result = train(model, cfg, train_set, valid_set, max_steps=1)

    order = np.random.default_rng(cfg.seed).permutation(len(train_set))
    batch = [train_set[int(i)] for i in order[: cfg.batch_size]]
    x = Tensor(np.stack([s.image.data for s in batch]), dtype="f32")
    y = Tensor(np.stack([s.mask.data for s in batch]), dtype="f32")
    fresh = Model(_MODEL_CFG, seed=0)
    logits = fresh(ad.constant(x), training=True)
    loss = hybrid_loss(logits, y, cfg.lambda_)
    assert result.step_losses[0] == float(loss.tensor.item())


def test_train_loss_depends_on_lambda():
    train_set, valid_set = _datasets()
    losses = []
    for lam in (0.0, 1.0):
        model = Model(_MODEL_CFG, seed=0)
        r = train(model, _small_cfg(lambda_=lam), train_set, valid_set, max_steps=1)
        losses.append(r.step_losses[0])
    assert losses[0] != losses[1]


@pytest.mark.parametrize("n, steps", [(5, 2), (1, 1)])
def test_train_drops_a_trailing_one_sample_batch(n, steps):
    # Batches of 2, 2 and 1: the last is dropped. A set of one sample
    # trains on it, since nothing else would.
    train_set = synth_dataset(n, seed=7, size=32)
    cfg = TrainConfig(total_epochs=2, warmup_epochs=1, batch_size=2, seed=1)
    result = train(Model(_MODEL_CFG, seed=0), cfg, train_set, _datasets()[1])
    assert result.epochs_run == 2
    assert result.steps_run == len(result.step_losses) == 2 * steps


def test_train_log_line_format():
    train_set, valid_set = _datasets()
    model = Model(_MODEL_CFG, seed=0)
    lines = []
    result = train(model, _small_cfg(), train_set, valid_set, log=lines.append)
    pat = re.compile(
        r"^epoch=\d+ lr=[0-9.e+-]+ loss=[0-9.e+-]+ "
        r"val_dice=[0-9.e+-]+ val_iou=[0-9.e+-]+$"
    )
    assert lines
    for line in lines:
        assert pat.match(line), line
    assert result.epochs_run == 2
    assert result.steps_run == 4
    assert len(result.step_losses) == 4


def test_train_max_steps_and_checkpoints(tmp_path):
    train_set, valid_set = _datasets()
    model = Model(_MODEL_CFG, seed=0)
    out = str(tmp_path)
    result = train(model, _small_cfg(), train_set, valid_set, out_dir=out, max_steps=3)
    assert result.steps_run == 3
    assert not result.aborted
    for name in ("last.ckpt", "best.ckpt", "final.ckpt"):
        assert (tmp_path / name).exists(), name
    # final.ckpt holds exactly the in-memory weights.
    reloaded = load(str(tmp_path / "final.ckpt"))
    got = {p.name: p.value.data for p in reloaded.parameters()}
    for p in model.parameters():
        np.testing.assert_array_equal(got[p.name], p.value.data)


def test_train_rejects_empty_datasets():
    train_set, valid_set = _datasets()
    model = Model(_MODEL_CFG, seed=0)
    with pytest.raises(ContractError):
        train(model, _small_cfg(), [], valid_set)
    with pytest.raises(ContractError):
        train(model, _small_cfg(), train_set, [])
    with pytest.raises(ContractError):
        evaluate_model(model, [])


class _MustNotRun:
    def __call__(self, *args, **kwargs):
        raise AssertionError("the model ran")


@pytest.mark.parametrize("threshold", [float("nan"), -0.1, 1.5])
def test_evaluate_model_rejects_bad_threshold(threshold):
    # rejected before any forward pass
    _, valid_set = _datasets()
    with pytest.raises(ContractError, match="threshold"):
        evaluate_model(_MustNotRun(), valid_set, threshold=threshold)


class _LibcWithoutMallopt:
    def __init__(self, name, *args, **kwargs):
        pass


def _unloadable_libc(name, *args, **kwargs):
    raise OSError("cannot load")


@pytest.mark.parametrize("cdll", [_LibcWithoutMallopt, _unloadable_libc])
def test_train_runs_without_mallopt(monkeypatch, cdll):
    train_set, valid_set = _datasets()
    want = train(Model(_MODEL_CFG, seed=0), _small_cfg(), train_set, valid_set)
    opened = []

    def fake(name, *args, **kwargs):
        opened.append(name)
        return cdll(name, *args, **kwargs)

    monkeypatch.setattr(ctypes, "CDLL", fake)
    got = train(Model(_MODEL_CFG, seed=0), _small_cfg(), train_set, valid_set)
    assert opened
    assert got.steps_run == want.steps_run > 0
    assert got.step_losses == want.step_losses


def test_train_divergence_aborts_cleanly(tmp_path):
    # An absurd learning rate blows the weights up after the first
    # post-warmup step; the next forward pass hits non-finite values.
    # The loop must abort instead of crashing, keep the last completed
    # epoch's checkpoint, and replay bit-identically.
    train_set, valid_set = _datasets()
    cfg = TrainConfig(
        lr0=1e8, warmup_epochs=1, total_epochs=4, batch_size=4, seed=1, clip_norm=1e9
    )
    runs = []
    logs = [[], []]
    for attempt, log in enumerate(logs):
        model = Model(_MODEL_CFG, seed=0)
        out = str(tmp_path / f"run{attempt}")
        with np.errstate(all="ignore"):
            result = train(model, cfg, train_set, valid_set, out_dir=out, log=log.append)
        assert result.aborted
        assert result.steps_run == 3
        assert log[-1].startswith("abort:")
        assert "keeping the last completed checkpoint" in log[-1]
        # Epoch 0 completed, so last.ckpt survives; no final.ckpt.
        assert (tmp_path / f"run{attempt}" / "last.ckpt").exists()
        assert not (tmp_path / f"run{attempt}" / "final.ckpt").exists()
        reloaded = load(str(tmp_path / f"run{attempt}" / "last.ckpt"))
        for p in reloaded.parameters():
            assert np.all(np.isfinite(p.value.data)), p.name
        runs.append(result)
    assert logs[0] == logs[1]
    assert runs[0].step_losses == runs[1].step_losses


def test_train_aborts_on_a_nan_gradient_before_any_weight_moves(tmp_path, monkeypatch):
    # One parameter's VJP hands it a NaN gradient in the first step of
    # epoch 1. backward completes; the clip's norm check aborts the run
    # naming that parameter, and that step moves no weight.
    target, bad_step = "enc.stage3.block0.attn.norm.alpha", 2
    train_set, valid_set = _datasets()
    model = Model(_MODEL_CFG, seed=0)
    params = model.parameters(trainable_only=True)
    watch, taped, before = ad.watch, [], {}

    def nan_watch(param):
        v = watch(param)
        if param.name == target and v._slot is not None:
            taped.append(param.name)
            if len(taped) == bad_step + 1:
                before.update({p.name: p.value.data.copy() for p in params})
                vjp = v._slot.vjp
                v._slot.vjp = lambda g: vjp(np.full_like(g, np.nan))
        return v

    monkeypatch.setattr(ad, "watch", nan_watch)
    log = []
    result = train(model, _small_cfg(), train_set, valid_set, out_dir=str(tmp_path),
                   log=log.append)
    assert result.aborted and result.steps_run == bad_step
    assert log[-1] == (f"abort: gradient norm nan, non-finite in {target!r} at epoch=1 "
                       f"step={bad_step}; keeping the last completed checkpoint")
    assert before.keys() == {p.name for p in params}
    for p in params:
        np.testing.assert_array_equal(p.value.data, before[p.name], err_msg=p.name)
    saved = {p.name: p.value.data for p in load(str(tmp_path / "last.ckpt")).parameters()}
    for p in params:
        np.testing.assert_array_equal(saved[p.name], before[p.name], err_msg=p.name)
    assert not (tmp_path / "final.ckpt").exists()


def test_evaluate_model_matches_training_validation():
    train_set, valid_set = _datasets()
    model = Model(_MODEL_CFG, seed=0)
    result = train(model, _small_cfg(), train_set, valid_set)
    again = evaluate_model(model, valid_set)
    assert again.dice == result.final_metrics.dice
    assert again.iou == result.final_metrics.iou
