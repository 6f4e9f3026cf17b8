"""Acceptance gate: eight end-to-end criteria, one test each.

Every test prints (and records for the terminal summary) a single
``ACCEPTANCE criterion N PASS``/``FAIL`` line. The checks here are
deliberately self-contained: they re-derive expectations from the naive
oracles in ``oracles.py`` or from exact arithmetic identities rather
than trusting any intermediate test file.
"""
from __future__ import annotations

import functools
import time

import numpy as np
import pytest
from conftest import record_criterion

import oracles
from dyglnet import autodiff as ad
from dyglnet import network
from dyglnet.autodiff import Parameter
from dyglnet.blocks import DyFusionUp
from dyglnet.cli import main
from dyglnet.data import synth_dataset
from dyglnet.errors import FormatError
from dyglnet.gradsuite import CHECKS, run_suite
from dyglnet.losses import bce_loss, dice_loss, evaluate, hybrid_loss
from dyglnet.network import Model, ModelConfig
from dyglnet.tensor import Tensor, bilinear_sample, matmul
from dyglnet.train import AdamW, TrainConfig, lr_at, train


def criterion(number):
    """Print the verdict line for one acceptance criterion."""

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(record_criterion(number, False))
                raise
            print(record_criterion(number, True))

        return wrapper

    return decorate


def _t(arr):
    return Tensor._wrap(np.asarray(arr, dtype=np.float64))


# ---------------------------------------------------------------------------
# 1. Gradient fidelity: every learned block plus the full tiny network
#    agrees with central finite differences to < 1e-4 over >= 5 seeds.


@criterion(1)
def test_criterion_1_gradient_fidelity():
    expected = {
        "dyt", "attention", "msdc", "ffn", "shdc",
        "dyfusion", "dice", "bce", "hybrid", "network",
    }
    assert set(CHECKS) == expected
    start = time.perf_counter()
    rows = run_suite(seeds=(0, 1, 2, 3, 4))
    elapsed = time.perf_counter() - start
    assert len(rows) == 50
    for row in rows:
        assert row.report.checked > 0, (row.name, row.seed)
        assert row.report.passed, (row.name, row.seed, row.report.max_rel_err)
        assert row.report.max_rel_err < 1e-4, (row.name, row.seed)
    assert elapsed < 300.0, f"gradient suite took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 2. Oracle equivalence: vectorized kernels vs naive loops (200 random
#    cases each at 1e-6) and exact confusion-count metrics on 1000 masks.


def _conv_cases(rng, count):
    for _ in range(count):
        k = int(rng.choice([1, 3]))
        dilation = int(rng.choice([1, 2, 3])) if k == 3 else 1
        stride = int(rng.integers(1, 3))
        padding = int(rng.integers(0, 3))
        cin = int(rng.integers(1, 5))
        groups = 1 if cin == 1 else int(rng.choice([1, cin]))
        cout = groups * int(rng.integers(1, 4))
        eff = dilation * (k - 1) + 1
        low = max(1, eff - 2 * padding)
        h = int(rng.integers(low, low + 5))
        w = int(rng.integers(low, low + 5))
        n = int(rng.integers(1, 3))
        yield n, cin, cout, h, w, k, stride, padding, dilation, groups


@criterion(2)
def test_criterion_2_oracle_equivalence():
    rng = np.random.default_rng(2026)

    # conv2d
    from dyglnet.tensor import ConvSpec, conv2d

    for case in _conv_cases(rng, 200):
        n, cin, cout, h, w, k, stride, padding, dilation, groups = case
        x = rng.standard_normal((n, cin, h, w))
        wt = rng.standard_normal((cout, cin // groups, k, k))
        b = rng.standard_normal(cout)
        got = conv2d(
            _t(x), _t(wt), _t(b),
            ConvSpec(stride=stride, padding=padding, dilation=dilation, groups=groups),
        ).data
        want = oracles.conv2d_naive(
            x, wt, b, stride=stride, padding=padding, dilation=dilation, groups=groups
        )
        assert np.max(np.abs(got - want)) <= 1e-6, case

    # matmul
    for _ in range(200):
        m, k, n2 = (int(rng.integers(1, 7)) for _ in range(3))
        a = rng.standard_normal((m, k))
        b = rng.standard_normal((k, n2))
        got = matmul(_t(a), _t(b)).data
        assert np.max(np.abs(got - oracles.matmul_naive(a, b))) <= 1e-6

    # attention (scaled dot-product over token sequences)
    for _ in range(200):
        n, t, d = int(rng.integers(1, 3)), int(rng.integers(1, 6)), int(rng.integers(1, 5))
        q = rng.standard_normal((n, t, d))
        kt = rng.standard_normal((n, d, t))
        v = rng.standard_normal((n, t, d))
        scores = ad.scale(ad.matmul(ad.constant(_t(q)), ad.constant(_t(kt))),
                          1.0 / np.sqrt(d))
        out = ad.matmul(ad.softmax(scores, axis=2), ad.constant(_t(v)))
        for i in range(n):
            want, _ = oracles.attention_naive(q[i], kt[i].T, v[i])
            assert np.max(np.abs(out.tensor.data[i] - want)) <= 1e-6

    # bilinear_sample
    for _ in range(200):
        n, c = int(rng.integers(1, 3)), int(rng.integers(1, 4))
        h, w = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        oh, ow = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        x = rng.standard_normal((n, c, h, w))
        grid = rng.uniform(-1.3, 1.3, size=(n, oh, ow, 2))
        got = bilinear_sample(_t(x), _t(grid)).data
        want = oracles.bilinear_sample_naive(x, grid.reshape(n, -1, 2))
        assert np.max(np.abs(got - want.reshape(n, c, oh, ow))) <= 1e-6

    # evaluate: exact agreement with loop-counted confusion metrics on
    # 1000 random masks (per-image ratio averaging, summed counts).
    n_masks, side = 1000, 8
    logits = rng.standard_normal((n_masks, 1, side, side))
    target = (rng.uniform(size=(n_masks, 1, side, side)) < 0.5).astype(np.float64)
    report = evaluate(_t(logits), _t(target), threshold=0.5)
    pred = 1.0 / (1.0 + np.exp(-logits)) > 0.5
    sums = np.zeros(6)
    tot = np.zeros(4, dtype=np.int64)
    for i in range(n_masks):
        sums += np.asarray(oracles.metrics_naive(pred[i], target[i]))
        tot += np.asarray(oracles.confusion_naive(pred[i], target[i]))
    means = sums / n_masks
    got = (report.dice, report.iou, report.precision, report.recall,
           report.specificity, report.accuracy)
    assert got == tuple(means)
    assert (report.tp, report.fp, report.fn, report.tn) == tuple(int(v) for v in tot)


# ---------------------------------------------------------------------------
# 3. Static degradation: with the offset predictor at its zero
#    initialization, the dynamic upsampler IS quarter-pixel bilinear 2x.


@criterion(3)
def test_criterion_3_zero_offset_equals_bilinear():
    for seed, (n, c, h, w, groups) in enumerate(
        [(1, 4, 3, 5, 2), (2, 6, 4, 4, 3), (1, 2, 7, 2, 1), (2, 8, 5, 5, 4)]
    ):
        rng = np.random.default_rng(seed)
        widths = (6, 12, 24, 48) if groups == 3 else (8, 16, 32, 64)
        cfg = ModelConfig.tiny(stage_channels=widths, sampler_groups=groups)
        block = DyFusionUp("up", cfg, c, 3, rng, dtype="f64")
        x = rng.standard_normal((n, c, h, w))
        got = block.upsample(ad.constant(_t(x))).tensor.data
        want = oracles.resize_bilinear_naive(x, 2 * h, 2 * w)
        assert np.max(np.abs(got - want)) <= 1e-6, (n, c, h, w, groups)


# ---------------------------------------------------------------------------
# 4. Loss contract: the hybrid objective is an exact affine blend of the
#    two single losses at every lambda, including both endpoints.


@criterion(4)
def test_criterion_4_hybrid_blend_exact():
    rng = np.random.default_rng(4)
    logits = _t(rng.standard_normal((2, 1, 6, 6)))
    target = _t((rng.uniform(size=(2, 1, 6, 6)) < 0.5).astype(np.float64))
    bce = float(bce_loss(ad.constant(logits), target).tensor.item())
    dice = float(
        dice_loss(ad.sigmoid(ad.constant(logits)), target).tensor.item()
    )
    half = float(
        hybrid_loss(ad.constant(logits), target, 0.5).tensor.item()
    )
    assert half == 0.5 * bce + 0.5 * dice
    at_one = float(
        hybrid_loss(ad.constant(logits), target, 1.0).tensor.item()
    )
    at_zero = float(
        hybrid_loss(ad.constant(logits), target, 0.0).tensor.item()
    )
    assert at_one == bce
    assert at_zero == dice


# ---------------------------------------------------------------------------
# 5. Schedule and optimizer identities, all exact.


@criterion(5)
def test_criterion_5_schedule_and_optimizer():
    cfg = TrainConfig()
    assert lr_at(5, cfg) == 5e-4
    assert lr_at(10, cfg) == 1e-3
    assert lr_at(130, cfg) == 0.0

    rng = np.random.default_rng(5)
    p = Parameter("w", Tensor(rng.standard_normal(8).astype(np.float32), dtype="f32"))
    before = p.value.data.copy()
    AdamW([p], TrainConfig(weight_decay=0.0)).step(0.7)
    assert np.array_equal(p.value.data, before)

    p2 = Parameter("w", Tensor(rng.standard_normal(8).astype(np.float32), dtype="f32"))
    before2 = p2.value.data.copy()
    AdamW([p2], TrainConfig(weight_decay=0.1)).step(0.1)
    assert np.array_equal(p2.value.data, before2 * np.float32(1.0 - 0.1 * 0.1))


# ---------------------------------------------------------------------------
# 6. End-to-end desk-scale training: 200 optimizer steps on synthetic
#    64x64 data reach validation Dice >= 0.90, and replay bit-identically.


@criterion(6)
def test_criterion_6_training_run():
    model_cfg = ModelConfig.tiny()  # stage widths (8, 16, 32, 64), input 64
    cfg = TrainConfig(total_epochs=50, warmup_epochs=10, batch_size=16, seed=42)
    train_set = synth_dataset(64, seed=42, size=64)
    valid_set = synth_dataset(16, seed=43, size=64)

    start = time.perf_counter()
    model = Model(model_cfg, seed=cfg.seed)
    result = train(model, cfg, train_set, valid_set)
    elapsed = time.perf_counter() - start

    assert result.steps_run == 200
    assert not result.aborted
    assert result.final_metrics.dice >= 0.90, result.final_metrics.dice
    assert elapsed < 600.0, f"training took {elapsed:.1f}s"

    # Bit-identical replay of the first ten optimizer steps.
    rerun_model = Model(model_cfg, seed=cfg.seed)
    rerun = train(rerun_model, cfg, train_set, valid_set, max_steps=10)
    assert rerun.step_losses == result.step_losses[:10]


# ---------------------------------------------------------------------------
# 7. Accounting: the info command states the default config's trainable
#    parameter count and its ratio to the reference budget.


@criterion(7)
def test_criterion_7_parameter_accounting(tmp_path, capsys):
    model = Model(ModelConfig(), seed=0)
    path = str(tmp_path / "default.ckpt")
    network.save(model, path)
    assert main(["info", "--ckpt", path]) == 0
    out = capsys.readouterr().out
    count = network.param_count(model)
    assert f"trainable parameters: {count}" in out
    assert str(network.REFERENCE_PARAM_BUDGET) in out
    assert f"ratio:                {count / network.REFERENCE_PARAM_BUDGET:.4f}" in out


# ---------------------------------------------------------------------------
# 8. Serialization: bit-identical round trip; truncation rejected.


@criterion(8)
def test_criterion_8_serialization(tmp_path):
    cfg = ModelConfig.tiny(input_size=32)
    model = Model(cfg, seed=9)
    rng = np.random.default_rng(8)
    x = Tensor(rng.standard_normal((2, 3, 32, 32)).astype(np.float32), dtype="f32")
    logits = model.predict(x)
    path = str(tmp_path / "model.ckpt")
    network.save(model, path)

    reloaded = network.load(path)
    assert reloaded.cfg == cfg
    saved = {p.name: p.value.data for p in model.parameters()}
    for p in reloaded.parameters():
        assert np.array_equal(p.value.data, saved[p.name]), p.name
    assert np.array_equal(reloaded.predict(x).data, logits.data)

    blob = open(path, "rb").read()
    truncated = str(tmp_path / "cut.ckpt")
    with open(truncated, "wb") as f:
        f.write(blob[: len(blob) // 2])
    with pytest.raises(FormatError):
        network.load(truncated)
    # The failed load leaves nothing behind: the intact file still loads.
    assert np.array_equal(network.load(path).predict(x).data, logits.data)
