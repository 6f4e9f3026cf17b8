"""Neural building blocks: pinned closed-form behaviors, loop-oracle
agreement for the attention path, structural identities of the dynamic
upsampler, and single-seed gradient sweeps."""
from __future__ import annotations

import math

import numpy as np
import pytest

import oracles
from conftest import recorded_ops
from dyglnet import autodiff as ad
from dyglnet import gradsuite
from dyglnet import tensor as T
from dyglnet.blocks import (
    _OFFSET_RANGE,
    DYT_ALPHA_INIT,
    DyFusionUp,
    DyT,
    FeedForward,
    MultiScaleDilatedConv,
    ShdcBlock,
    SingleHeadAttention,
)
from dyglnet.errors import ConfigurationError, DimensionError
from dyglnet.network import ModelConfig
from dyglnet.tensor import Tensor

# Blocks read their hyperparameters from a validated model config.
TINY = ModelConfig.tiny()


def t64(a):
    return Tensor(np.asarray(a, dtype=np.float64), dtype="f64")


def v64(a):
    return ad.constant(t64(a))


def assign64(p, arr):
    p.assign(Tensor(np.asarray(arr, dtype=np.float64), dtype="f64"))


# ---------------------------------------------------------------------------
# DyT


def test_dyt_zero_input_returns_beta():
    rng = np.random.default_rng(0)
    block = DyT("dyt", 3, dtype="f64")
    beta = rng.normal(size=3)
    assign64(block.beta, beta)
    y = block(v64(np.zeros((2, 3, 4, 4)))).tensor.data
    np.testing.assert_array_equal(y, np.broadcast_to(beta.reshape(1, 3, 1, 1), y.shape))


def test_dyt_near_identity_at_small_input():
    block = DyT("dyt", 1, dtype="f64")
    assign64(block.alpha, [1.0])
    y = block(v64(np.full((1, 1, 1, 1), 1e-3))).tensor.data
    assert y.ravel()[0] == pytest.approx(1e-3, abs=1e-6)


def test_dyt_pinned_value():
    block = DyT("dyt", 2, dtype="f64")
    assign64(block.alpha, [2.0])
    assign64(block.gamma, [3.0, 3.0])
    assign64(block.beta, [1.0, 1.0])
    y = block(v64(np.full((1, 2, 1, 1), 0.5))).tensor.data
    want = 3.0 * math.tanh(1.0) + 1.0
    assert want == pytest.approx(3.28478, abs=1e-4)
    np.testing.assert_allclose(y, want, atol=1e-12)


def test_dyt_default_alpha_init():
    block = DyT("dyt", 1, "f32")
    assert block.alpha.value.data[0] == np.float32(DYT_ALPHA_INIT)


def test_dyt_strictly_monotone_for_positive_gains():
    rng = np.random.default_rng(1)
    block = DyT("dyt", 1, dtype="f64")
    assign64(block.alpha, [0.7])
    assign64(block.gamma, [2.5])
    xs = np.unique(np.sort(rng.normal(scale=2.0, size=64)))[:49]
    y = block(v64(xs.reshape(1, 1, 7, 7))).tensor.data.ravel()
    assert np.all(np.diff(y) > 0)


def test_dyt_channel_mismatch():
    block = DyT("dyt", 3, dtype="f64")
    with pytest.raises(DimensionError):
        block(v64(np.zeros((1, 2, 2, 2))))


# ---------------------------------------------------------------------------
# Single-head attention


def _attention_oracle(block, x):
    """Recompute the block's output with the per-token loop oracle."""
    alpha = block.norm.alpha.value.data[0]
    gamma = block.norm.gamma.value.data
    beta = block.norm.beta.value.data
    z = gamma.reshape(1, -1, 1, 1) * np.tanh(alpha * x) + beta.reshape(1, -1, 1, 1)
    wq = block.qkv.weight.value.data[:, :, 0, 0]  # [3C, C]
    bq = block.qkv.bias.value.data
    n, c, h, w = x.shape
    qkv = np.einsum("oc,nchw->nohw", wq, z) + bq.reshape(1, -1, 1, 1)
    outs, weights = [], []
    for i in range(n):
        q = qkv[i, :c].reshape(c, h * w).T
        k = qkv[i, c : 2 * c].reshape(c, h * w).T
        v = qkv[i, 2 * c :].reshape(c, h * w).T
        o, wmat = oracles.attention_naive(q, k, v)
        outs.append(o.T.reshape(c, h, w))
        weights.append(wmat)
    return np.stack(outs), np.stack(weights)


def test_attention_single_token_equals_value_projection():
    rng = np.random.default_rng(3)
    block = SingleHeadAttention("attn", TINY, 4, rng, dtype="f64")
    x = rng.normal(size=(2, 4, 1, 1))
    got = block(v64(x)).tensor.data
    want, wmat = _attention_oracle(block, x)
    np.testing.assert_array_equal(wmat, np.ones((2, 1, 1)))
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_attention_constant_input_uniform_weights():
    rng = np.random.default_rng(5)
    block = SingleHeadAttention("attn", TINY, 3, rng, dtype="f64")
    x = np.full((1, 3, 4, 4), 0.37)
    got = block(v64(x)).tensor.data
    want, wmat = _attention_oracle(block, x)
    np.testing.assert_allclose(wmat, 1.0 / 16.0, atol=1e-12)
    np.testing.assert_allclose(got, want, atol=1e-10)
    # Every spatial position carries the same output vector.
    flat = got.reshape(1, 3, 16)
    np.testing.assert_allclose(
        flat, np.broadcast_to(flat[:, :, :1], flat.shape), atol=1e-10
    )


def test_attention_random_vs_token_loop_oracle():
    rng = np.random.default_rng(7)
    block = SingleHeadAttention("attn", TINY, 8, rng, dtype="f64")
    x = rng.normal(size=(1, 8, 4, 4))
    got = block(v64(x)).tensor.data
    want, wmat = _attention_oracle(block, x)
    np.testing.assert_allclose(got, want, atol=1e-6)
    np.testing.assert_allclose(wmat.sum(axis=2), 1.0, atol=1e-6)


# ---------------------------------------------------------------------------
# Multi-scale dilated convolution


def _neutralize_bn(bn):
    # eval mode divides by sqrt(running_var + _BN_EPS), which is then 1
    c = bn.gamma.value.shape[0]
    assign64(bn.gamma, np.ones(c))
    assign64(bn.beta, np.zeros(c))
    assign64(bn.running_mean, np.zeros(c))
    assign64(bn.running_var, np.full(c, 1.0 - T._BN_EPS))


def test_msdc_zero_branches_neutral_bn_identity():
    rng = np.random.default_rng(13)
    block = MultiScaleDilatedConv("msdc", TINY, 3, rng, dtype="f64")
    for wt in block.weights:
        assign64(wt, np.zeros(wt.value.shape))
    _neutralize_bn(block.bn)
    x = rng.normal(size=(1, 3, 5, 5))
    y = block(v64(x), training=False).tensor.data
    np.testing.assert_allclose(y, x, atol=1e-6)


def test_msdc_delta_kernels_quadruple():
    rng = np.random.default_rng(17)
    block = MultiScaleDilatedConv("msdc", TINY, 2, rng, dtype="f64")  # rates (1,2,3)
    delta = np.zeros((2, 1, 3, 3))
    delta[:, 0, 1, 1] = 1.0
    for wt in block.weights:
        assign64(wt, delta)
    _neutralize_bn(block.bn)
    x = rng.normal(size=(1, 2, 6, 6))
    y = block(v64(x), training=False).tensor.data
    np.testing.assert_allclose(y, 4.0 * x, atol=1e-6)


def test_msdc_random_vs_loop_oracle():
    rng = np.random.default_rng(19)
    cfg = ModelConfig.tiny(dilation_rates=(1, 2))
    block = MultiScaleDilatedConv("msdc", cfg, 3, rng, dtype="f64")
    _neutralize_bn(block.bn)
    x = rng.normal(size=(1, 3, 6, 6))
    want = x.copy()
    assert block.rates == (1, 2)
    for r, wt in zip(block.rates, block.weights):
        want += oracles.conv2d_naive(
            x, wt.value.data, None, padding=r, dilation=r, groups=3
        )
    y = block(v64(x), training=False).tensor.data
    np.testing.assert_allclose(y, want, atol=1e-6)


def test_msdc_shape_preserved_and_bad_rates():
    rng = np.random.default_rng(23)
    block = MultiScaleDilatedConv("msdc", TINY, 4, rng, dtype="f64")
    x = rng.normal(size=(2, 4, 7, 5))
    assert block(v64(x), training=True).tensor.shape == (2, 4, 7, 5)
    # The config rejects bad rates before any block can read them.
    with pytest.raises(ConfigurationError):
        ModelConfig.tiny(dilation_rates=())
    with pytest.raises(ConfigurationError):
        ModelConfig.tiny(dilation_rates=(0,))


def _watched(monkeypatch):
    """Record ``(param, slot)`` for every ``ad.watch`` call."""
    watched = []
    watch = ad.watch

    def recording(p):
        v = watch(p)
        watched.append((p, v._slot))
        return v

    monkeypatch.setattr(ad, "watch", recording)
    return watched


def _assert_leaves_are_watched(tape, watched, params):
    # the tape's leaf slots are the watched parameters', in watch order
    assert [s for s in tape._nodes if not s.parents] == [s for _, s in watched]
    assert [p for p, _ in watched] == params


def test_msdc_records_one_node_before_batchnorm(monkeypatch):
    # The identity and all branches are one fused op, so the tape holds
    # its output and the batchnorm's, not a partial sum per branch.
    rng = np.random.default_rng(29)
    block = MultiScaleDilatedConv("msdc", TINY, 4, rng, dtype="f64")
    watched = _watched(monkeypatch)
    with ad.Tape() as tape:
        block(v64(rng.normal(size=(2, 4, 5, 5))), training=True)
    assert len([s for s in tape._nodes if s.parents]) == 2
    _assert_leaves_are_watched(tape, watched, block.parameters(trainable_only=True))


# ---------------------------------------------------------------------------
# Feed-forward


def test_ffn_zero_weights_pure_residual():
    rng = np.random.default_rng(29)
    block = FeedForward("ffn", TINY, 3, rng, dtype="f64")
    assign64(block.expand.weight, np.zeros(block.expand.weight.value.shape))
    assign64(block.expand.bias, np.zeros(block.expand.bias.value.shape))
    assign64(block.project.weight, np.zeros(block.project.weight.value.shape))
    assign64(block.project.bias, np.zeros(block.project.bias.value.shape))
    x = rng.normal(size=(1, 3, 4, 4))
    np.testing.assert_array_equal(block(v64(x)).tensor.data, x)


def test_ffn_identity_weights_double_positive_constant():
    rng = np.random.default_rng(31)
    c, ratio = 2, 2.0
    block = FeedForward("ffn", ModelConfig.tiny(ffn_ratio=ratio), c, rng, dtype="f64")
    hidden = block.expand.weight.value.shape[0]
    assert hidden == 4
    wexp = np.zeros((hidden, c, 1, 1))
    for i in range(c):
        wexp[i, i, 0, 0] = 1.0
    wproj = np.zeros((c, hidden, 1, 1))
    for i in range(c):
        wproj[i, i, 0, 0] = 1.0
    assign64(block.expand.weight, wexp)
    assign64(block.expand.bias, np.zeros(hidden))
    assign64(block.project.weight, wproj)
    assign64(block.project.bias, np.zeros(c))
    k = 0.75
    y = block(v64(np.full((1, c, 3, 3), k))).tensor.data
    np.testing.assert_allclose(y, 2.0 * k, atol=1e-12)


def test_ffn_hidden_width_rounding():
    rng = np.random.default_rng(37)
    half, tenth = ModelConfig.tiny(ffn_ratio=0.5), ModelConfig.tiny(ffn_ratio=0.1)
    assert FeedForward("f", half, 3, rng, "f32").expand.weight.value.shape[0] == 2
    assert FeedForward("f", tenth, 1, rng, "f32").expand.weight.value.shape[0] == 1
    with pytest.raises(ConfigurationError):
        ModelConfig.tiny(ffn_ratio=0.0)


# ---------------------------------------------------------------------------
# SHDC block


def test_shdc_fusionless_zero_weights_identity():
    rng = np.random.default_rng(41)
    block = ShdcBlock("shdc", TINY, 4, False, rng, dtype="f64")
    for p in (block.pre_weight, block.pre_bias, block.ffn.expand.weight,
              block.ffn.expand.bias, block.ffn.project.weight, block.ffn.project.bias):
        assign64(p, np.zeros(p.value.shape))
    x = rng.normal(size=(1, 4, 5, 5))
    np.testing.assert_array_equal(block(v64(x)).tensor.data, x)


def test_shdc_split_arithmetic():
    cfg = ModelConfig(split_ratio=0.5)
    assert cfg.global_channels(48) == 24
    assert 48 - cfg.global_channels(48) == 24


def test_shdc_shape_preserved_random_configs():
    rng = np.random.default_rng(43)
    for channels, ratio, rates in [(6, 0.5, (1, 2)), (8, 0.25, (1,)), (5, 0.6, (1, 2))]:
        cfg = ModelConfig.tiny(split_ratio=ratio, dilation_rates=rates, ffn_ratio=1.0)
        block = ShdcBlock("shdc", cfg, channels, True, rng, dtype="f64")
        x = rng.normal(size=(2, channels, 6, 6)) * 0.5
        for training in (False, True):
            assert block(v64(x), training=training).tensor.shape == (2, channels, 6, 6)


def test_shdc_channel_mismatch():
    rng = np.random.default_rng(0)
    block = ShdcBlock("s", TINY, 4, False, rng, "f32")
    with pytest.raises(DimensionError):
        block(ad.constant(Tensor(np.zeros((1, 3, 4, 4), np.float32), dtype="f32")))
    # The block checks no width itself: its first op, the depthwise
    # residual, rejects the input, with or without the fusion branches.
    fused = ShdcBlock("s", TINY, 4, True, rng, "f32")
    for c in (3, 6):
        with pytest.raises(DimensionError):
            fused(ad.constant(Tensor(np.zeros((1, c, 4, 4), np.float32), dtype="f32")))


# ---------------------------------------------------------------------------
# DyFusionUp


def _up_block(rng, in_ch=1, skip_ch=1, groups=1, mode="dynamic"):
    cfg = ModelConfig.tiny(
        sampler_groups=groups, dilation_rates=(1, 2), upsample_mode=mode
    )
    return DyFusionUp("up", cfg, in_ch, skip_ch, rng, dtype="f64")


def test_dyfusion_zero_offsets_match_quarter_pixel_oracle():
    rng = np.random.default_rng(47)
    block = _up_block(rng, in_ch=2, groups=2)
    x = rng.normal(size=(1, 2, 3, 4))
    got = block.upsample(v64(x)).tensor.data
    want = oracles.resize_bilinear_naive(x, 6, 8)
    np.testing.assert_allclose(got, want, atol=1e-6)


def test_dyfusion_zero_offsets_bitwise_equal_resize():
    rng = np.random.default_rng(53)
    block = _up_block(rng, in_ch=4, groups=2)
    x = rng.normal(size=(2, 4, 3, 3))
    got = block.upsample(v64(x)).tensor.data
    u = T._resize_coords(2, 3, 3, 6, 6, np.dtype(np.float64))
    ref = T._sample_pixel_forward(x, u).reshape(2, 4, 6, 6)
    np.testing.assert_array_equal(got, ref)


def test_dyfusion_pinned_2x2_upsample():
    rng = np.random.default_rng(59)
    block = _up_block(rng)
    x = np.array([[[[0.0, 1.0], [2.0, 3.0]]]])
    got = block.upsample(v64(x)).tensor.data[0, 0]
    assert got[0, 0] == 0.0  # clamped corner
    want = np.array(
        [
            [0.0, 0.25, 0.75, 1.0],
            [0.5, 0.75, 1.25, 1.5],
            [1.5, 1.75, 2.25, 2.5],
            [2.0, 2.25, 2.75, 3.0],
        ]
    )
    np.testing.assert_allclose(got, want, atol=1e-12)
    np.testing.assert_allclose(
        oracles.resize_bilinear_naive(x, 4, 4)[0, 0], want, atol=1e-12
    )


def test_dyfusion_unit_offset_prediction_scaled_to_quarter():
    rng = np.random.default_rng(61)
    block = _up_block(rng, in_ch=2, groups=2)
    # 2 coordinates x 2 groups x 4 sub-pixels
    assert block.offset.weight.value.shape == (16, 2, 1, 1)
    assign64(block.offset.bias, np.ones(16))
    # A unit offset moves each group's every coordinate by _OFFSET_RANGE
    # in x and y: the block samples the 2x resize lattice plus that.
    x = rng.normal(size=(1, 2, 3, 3))
    got = block.upsample(v64(x)).tensor.data
    u = T._resize_coords(2, 3, 3, 6, 6, np.dtype(np.float64)) + _OFFSET_RANGE
    assert _OFFSET_RANGE == 0.25
    np.testing.assert_array_equal(got, T._sample_pixel_forward(x.reshape(2, 1, 3, 3), u)
                                  .reshape(1, 2, 6, 6))
    with pytest.raises(DimensionError):  # offsets of another extent
        ad.pixel_sample(v64(x), block.offset(v64(rng.normal(size=(1, 2, 3, 4)))), 2,
                        _OFFSET_RANGE)


@pytest.mark.parametrize("groups", [2, 4])
def test_dyfusion_group_fold_matches_per_group_oracle(groups):
    # Every group and image gets its own non-zero offsets, so a mix-up of
    # group and offset channel, or of batch and group, in the fold changes
    # the result. Offset channel (2g + coord)*4 + 2a + b holds sub-pixel
    # (row a, column b) of group g's x (coord 0) or y (coord 1) field.
    rng = np.random.default_rng(83 + groups)
    n, c, h, w = 2, 8, 3, 4
    cg = c // groups
    block = _up_block(rng, in_ch=c, groups=groups)
    wt = rng.normal(size=block.offset.weight.value.shape)
    bias = rng.normal(size=8 * groups)
    assign64(block.offset.weight, wt)
    assign64(block.offset.bias, bias)
    x = rng.normal(size=(n, c, h, w))
    got = block.upsample(v64(x)).tensor.data
    raw = np.einsum("oi,nihw->nohw", wt[:, :, 0, 0], x) + bias.reshape(1, -1, 1, 1)
    oy, ox = np.mgrid[0 : 2 * h, 0 : 2 * w]
    sub = (oy % 2) * 2 + ox % 2
    want = np.empty((n, c, 2 * h, 2 * w))
    for g in range(groups):
        dx = raw[:, 8 * g + sub, oy // 2, ox // 2] * _OFFSET_RANGE
        dy = raw[:, 8 * g + 4 + sub, oy // 2, ox // 2] * _OFFSET_RANGE
        ux = (ox + 0.5) / 2.0 - 0.5 + dx
        uy = (oy + 0.5) / 2.0 - 0.5 + dy
        grid = np.stack([(ux + 0.5) * 2.0 / w - 1.0, (uy + 0.5) * 2.0 / h - 1.0], axis=-1)
        part = oracles.bilinear_sample_naive(x[:, g * cg : (g + 1) * cg], grid.reshape(n, -1, 2))
        want[:, g * cg : (g + 1) * cg] = part.reshape(n, cg, 2 * h, 2 * w)
    assert np.abs(dx).max() > 0.1
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)


def test_dyfusion_offsets_shift_sampling():
    # A constant offset of +0.25 pixels shifts every sample coordinate;
    # on a linear ramp the sampled value shifts linearly (interior).
    rng = np.random.default_rng(67)
    block = _up_block(rng)
    x = np.arange(16.0).reshape(1, 1, 4, 4)  # ramp: value = 4*y + x
    base = block.upsample(v64(x)).tensor.data
    assign64(block.offset.bias, np.ones(8))
    shifted = block.upsample(v64(x)).tensor.data
    # Interior samples move by 0.25 in x and y: value changes by 0.25*(1+4).
    np.testing.assert_allclose(
        shifted[0, 0, 2:5, 2:5] - base[0, 0, 2:5, 2:5], 1.25, atol=1e-9
    )


def test_dyfusion_full_block_shape_and_modes():
    rng = np.random.default_rng(71)
    for mode in ("dynamic", "bilinear"):
        cfg = ModelConfig.tiny(
            sampler_groups=2, dilation_rates=(1, 2), upsample_mode=mode
        )
        block = DyFusionUp("up", cfg, 4, 3, rng, dtype="f64")
        x_low = rng.normal(size=(2, 4, 4, 4)) * 0.5
        x_skip = rng.normal(size=(2, 3, 8, 8)) * 0.5
        y = block(v64(x_low), v64(x_skip), training=True)
        assert y.tensor.shape == (2, 3, 8, 8)


def test_dyfusion_bilinear_mode_matches_dynamic_at_init():
    # Zero-initialized offsets: the two modes agree bit for bit, in the
    # sampled values and in the gradient they send back to x_low.
    rng1 = np.random.default_rng(73)
    rng2 = np.random.default_rng(73)
    dyn = _up_block(rng1, in_ch=2, groups=1, mode="dynamic")
    stat = _up_block(rng2, in_ch=2, groups=1, mode="bilinear")
    x = np.random.default_rng(74).normal(size=(1, 2, 3, 3))
    gy = np.random.default_rng(75).normal(size=(1, 2, 6, 6))
    outs, grads = [], []
    for block in (dyn, stat):
        xp = ad.Parameter("x", t64(x))
        with ad.Tape() as tape:
            y = block.upsample(ad.watch(xp))
            ad.backward(ad.mean_all(ad.mul(y, v64(gy))), tape)
        outs.append(y.tensor.data)
        grads.append(xp.grad)
    np.testing.assert_array_equal(outs[0], outs[1])
    np.testing.assert_array_equal(grads[0], grads[1])


def test_dyfusion_dynamic_upsample_records_two_nodes(monkeypatch):
    # offset conv and pixel_sample: the sampler reads the offsets in the
    # groups' layout and builds the coordinates (the offsets'
    # depth_to_space, scaled, plus the resize lattice) itself, so no
    # reshape, transpose or narrow sits around it.
    rng = np.random.default_rng(79)
    block = _up_block(rng, in_ch=4, groups=2)
    watched = _watched(monkeypatch)
    with ad.Tape() as tape:
        block.upsample(v64(rng.normal(size=(2, 4, 3, 3))))
    assert recorded_ops(tape) == ["conv2d", "pixel_sample"]
    _assert_leaves_are_watched(
        tape, watched, block.offset.parameters(trainable_only=True)
    )


def _projecting_block(rng, mode, offset_scale):
    # G'·skip < in_channels: 2·3 < 8 in dynamic mode and 1·3 < 8 in
    # bilinear mode, so the block projects before it samples.
    block = _up_block(rng, in_ch=8, skip_ch=3, groups=2, mode=mode)
    assert block.projects_first
    if mode == "dynamic":
        ow = block.offset.weight
        assign64(ow, rng.uniform(-offset_scale, offset_scale, size=ow.value.shape))
    assign64(block.align.bias, rng.normal(size=3))
    return block


@pytest.mark.parametrize("mode", ["dynamic", "bilinear"])
def test_dyfusion_projected_path_matches_sample_then_align_oracle(mode):
    # Reference: every channel read by the scalar oracle at its group's
    # coordinates (the 2x resize lattice plus the offset field), then the
    # six-loop 1x1 conv. Offset channel (2g + coord)*4 + 2a + b holds
    # sub-pixel (row a, column b) of group g's x or y field.
    rng = np.random.default_rng(97)
    n, c, h, w, groups = 2, 8, 3, 4, 2
    block = _projecting_block(rng, mode, 0.8)
    x = rng.normal(size=(n, c, h, w))
    got = block.aligned_upsample(v64(x)).tensor.data
    raw = np.zeros((n, 8 * groups, h, w))
    if mode == "dynamic":
        raw = np.einsum("oi,nihw->nohw", block.offset.weight.value.data[:, :, 0, 0], x)
        assert np.abs(raw).max() * _OFFSET_RANGE > 0.5
    sampled = np.empty((n, c, 2 * h, 2 * w))
    for i, ci, oy, ox in np.ndindex(sampled.shape):
        g = ci // (c // groups) if mode == "dynamic" else 0
        sub = (oy % 2) * 2 + ox % 2
        ux = (ox + 0.5) / 2.0 - 0.5 + raw[i, 8 * g + sub, oy // 2, ox // 2] * _OFFSET_RANGE
        uy = (oy + 0.5) / 2.0 - 0.5 + raw[i, 8 * g + 4 + sub, oy // 2, ox // 2] * _OFFSET_RANGE
        sampled[i, ci, oy, ox] = oracles.sample_pixel_naive(x[i, ci], ux, uy)
    want = oracles.conv2d_naive(
        sampled, block.align.weight.value.data, block.align.bias.value.data
    )
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)
    own = block.align(block.upsample(v64(x))).tensor.data
    np.testing.assert_allclose(got, own, rtol=0, atol=1e-12)


@pytest.mark.parametrize("mode", ["dynamic", "bilinear"])
def test_dyfusion_projected_path_gradients(mode):
    # Small offsets keep the coordinates off the sampler's lattice kinks.
    rng = np.random.default_rng(101)
    block = _projecting_block(rng, mode, 0.02)
    x = ad.Parameter("x_low", t64(rng.normal(size=(2, 8, 3, 4))))
    weight = v64(rng.normal(size=(2, 3, 6, 8)))
    params = [x, block.align.weight, block.align.bias]
    if mode == "dynamic":
        params.append(block.offset.weight)
    report = ad.grad_check(
        lambda: ad.mean_all(ad.mul(block.aligned_upsample(ad.watch(x)), weight)),
        params, max_entries_per_param=24, rng=np.random.default_rng(103),
    )
    assert report.passed, f"max_rel_err={report.max_rel_err:g}"
    assert report.checked == sum(min(p.value.size, 24) for p in params)


@pytest.mark.parametrize("mode", ["dynamic", "bilinear"])
@pytest.mark.parametrize(
    "low, skip",
    [
        ((2, 3, 4, 4), (2, 3, 8, 8)),  # input width not divisible by the groups
        ((2, 6, 4, 4), (2, 3, 8, 8)),  # input width divisible, still wrong
        ((2, 4, 4, 4), (2, 2, 8, 8)),  # skip width
        ((2, 4, 4, 4), (2, 3, 8, 7)),  # skip extent
        ((2, 4, 4, 4), (1, 3, 8, 8)),  # skip batch
    ],
    ids=["width-3", "width-6", "skip-width", "skip-extent", "skip-batch"],
)
def test_dyfusion_wrong_shapes_rejected_by_its_ops(mode, low, skip):
    # DyFusionUp(in 4, skip 3, groups 2) checks no shape itself; the
    # offset conv, the fold reshape, the align conv, concat and the
    # fuse stage reject each of these.
    rng = np.random.default_rng(89)
    cfg = ModelConfig.tiny(sampler_groups=2, dilation_rates=(1, 2), upsample_mode=mode)
    block = DyFusionUp("up", cfg, 4, 3, rng, dtype="f64")
    with pytest.raises(DimensionError):
        block(v64(np.zeros(low)), v64(np.zeros(skip)))


def test_dyfusion_spatial_mismatch_rejected():
    rng = np.random.default_rng(79)
    block = _up_block(rng, in_ch=2, skip_ch=2, groups=1)
    x_low = v64(np.zeros((1, 2, 4, 4)))
    bad_skip = v64(np.zeros((1, 2, 7, 8)))
    with pytest.raises(DimensionError):
        block(x_low, bad_skip)


# ---------------------------------------------------------------------------
# Gradient sweeps (one seed here; the acceptance suite runs five)


@pytest.mark.parametrize(
    "name", ["dyt", "attention", "msdc", "ffn", "shdc", "dyfusion"]
)
def test_block_gradients_single_seed(name):
    [row] = [r.report for r in gradsuite.run_suite([name], seeds=(0,))]
    assert row.passed, f"{name}: max_rel_err={row.max_rel_err:g}"
    assert row.max_rel_err < 1e-4


def test_gradient_suite_rejects_unknown_name_before_running(monkeypatch):
    ran = []
    monkeypatch.setitem(gradsuite.CHECKS, "dyt", ran.append)
    with pytest.raises(ConfigurationError, match="warp_core"):
        gradsuite.run_suite(["dyt", "warp_core"])
    assert ran == []
