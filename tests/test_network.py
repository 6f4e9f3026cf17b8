"""Assembled network: build determinism, shape contracts, an independent
shape-arithmetic oracle for the trainable-parameter count, and the
checkpoint round-trip / corruption contracts."""
from __future__ import annotations

import hashlib
import math
import os
import stat
import struct
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from conftest import recorded_ops
from dyglnet import autodiff as ad, cli, configtext, gradsuite
from dyglnet.autodiff import Parameter
from dyglnet.blocks import BatchNorm2d, Conv2d, SingleHeadAttention, he_normal
from dyglnet.checkpoint import read_checkpoint, write_checkpoint
from dyglnet.errors import (
    ConfigurationError,
    ContractError,
    DimensionError,
    FormatError,
    VersionError,
)
from dyglnet.losses import hybrid_loss
from dyglnet.network import (
    MAX_BLOCKS_PER_STAGE,
    MAX_FFN_CHANNELS,
    MAX_INPUT_SIZE,
    MAX_STAGE_CHANNELS,
    REFERENCE_PARAM_BUDGET,
    Model,
    ModelConfig,
    load,
    param_count,
    save,
)
from dyglnet.tensor import Tensor


def t32(a):
    return Tensor(np.asarray(a, dtype=np.float32), dtype="f32")


# ---------------------------------------------------------------------------
# Analytic parameter-count oracle, written from the architecture contract
# (not from the module code): every component's trainable scalars are the
# sum of its declared weight/bias/affine shapes.


def _conv_params(cin, cout, k, bias=True):
    return cout * cin * k * k + (cout if bias else 0)


def _dw_conv_params(c, k=3, bias=True):
    return c * k * k + (c if bias else 0)


def _bn_params(c):
    return 2 * c  # gamma + beta; running stats are not trainable


def _dyt_params(c):
    return 1 + 2 * c  # scalar alpha + per-channel gamma/beta


def _attention_params(cg):
    # norm + shared qkv 1x1 conv to 3*d channels (d == cg, so no proj)
    return _dyt_params(cg) + _conv_params(cg, 3 * cg, 1)


def _msdc_params(c, n_rates):
    return n_rates * _dw_conv_params(c, 3, bias=False) + _bn_params(c)


def _ffn_params(c, ratio):
    hidden = max(1, int(math.floor(ratio * c + 0.5)))
    return _conv_params(c, hidden, 1) + _conv_params(hidden, c, 1)


def _shdc_params(c, ratio, n_rates, ffn_ratio, fusion):
    total = _dw_conv_params(c, 3)  # residual depthwise pre-conv
    if fusion:
        cg = int(math.floor(ratio * c + 0.5))
        total += _attention_params(cg)
        total += _msdc_params(c - cg, n_rates)
        total += _conv_params(c, c, 1)  # fusion 1x1
    total += _ffn_params(c, ffn_ratio)
    return total


def _dyfusion_params(cin, cskip, groups, n_rates):
    total = _conv_params(cin, 2 * groups * 4, 1)  # offset predictor
    total += _conv_params(cin, cskip, 1)  # channel alignment
    total += _msdc_params(2 * cskip, n_rates)  # fusion stage
    total += _conv_params(2 * cskip, cskip, 3)  # spatial fusion
    return total


def expected_param_count(cfg: ModelConfig) -> int:
    c1, c2, c3, c4 = cfg.stage_channels
    b1, b2, b3, b4 = cfg.blocks_per_stage
    nr = len(cfg.dilation_rates)
    total = _conv_params(cfg.input_channels, c1, 3)  # stem downsampling conv
    total += b1 * _conv_params(c1, c1, 3)  # stem stride-1 convs
    for cin, cout, blocks, fusion in (
        (c1, c2, b2, False),
        (c2, c3, b3, True),
        (c3, c4, b4, True),
    ):
        total += _conv_params(cin, cout, 3)  # stride-2 downsampling
        total += blocks * _shdc_params(
            cout, cfg.split_ratio, nr, cfg.ffn_ratio, fusion
        )
    for cin, cskip in ((c4, c3), (c3, c2), (c2, c1), (c1, cfg.input_channels)):
        total += _dyfusion_params(cin, cskip, cfg.sampler_groups, nr)
    total += _conv_params(cfg.input_channels, cfg.output_channels, 1)  # head
    return total


# ---------------------------------------------------------------------------
# Build / config


def test_build_deterministic_from_seed():
    cfg = ModelConfig.tiny()
    m1 = Model(cfg, seed=42)
    m2 = Model(cfg, seed=42)
    p1 = {p.name: p.value.data for p in m1.parameters()}
    p2 = {p.name: p.value.data for p in m2.parameters()}
    assert p1.keys() == p2.keys()
    for name in p1:
        np.testing.assert_array_equal(p1[name], p2[name])


def test_build_seed_changes_weights():
    cfg = ModelConfig.tiny()
    a = Model(cfg, seed=1)
    b = Model(cfg, seed=2)
    diffs = [
        not np.array_equal(pa.value.data, pb.value.data)
        for pa, pb in zip(a.parameters(trainable_only=True),
                          b.parameters(trainable_only=True))
        if pa.value.data.std() > 0
    ]
    assert any(diffs)


def test_config_validation():
    with pytest.raises(ConfigurationError):
        ModelConfig(stage_channels=(8, 16, 32))
    with pytest.raises(ConfigurationError):
        ModelConfig(stage_channels=(32, 32, 64, 128))
    with pytest.raises(ConfigurationError):
        ModelConfig(stage_channels=(9, 18, 36, 72))
    with pytest.raises(ConfigurationError):
        ModelConfig(sampler_groups=3)
    with pytest.raises(ConfigurationError):
        ModelConfig(input_size=100)
    with pytest.raises(ConfigurationError):
        ModelConfig(upsample_mode="nearest")


def test_odd_stage_widths_are_accepted_and_pass_grad_check():
    # No block needs an even width: odd widths with three sampler groups
    # build, round-trip through their text and differentiate correctly.
    cfg = ModelConfig.tiny(stage_channels=(3, 9, 15, 21), sampler_groups=3, input_size=32)
    assert ModelConfig.from_text(cfg.to_text()) == cfg
    model = Model(cfg, seed=0, dtype="f64")
    rng = np.random.default_rng(11)
    x = Tensor(rng.standard_normal((1, 3, 32, 32)), dtype="f64")
    target = Tensor(rng.uniform(size=(1, 1, 32, 32)) < 0.5, dtype="f64")
    report = ad.grad_check(
        lambda: hybrid_loss(model(ad.constant(x), training=True), target, 0.5),
        model.parameters(trainable_only=True),
        max_entries_per_param=1,
        rng=np.random.default_rng(0),
    )
    assert report.passed and report.checked > 0, report.max_rel_err


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_ffn_ratio_must_be_finite_and_positive(value):
    # Checked by the config, before a block turns it into a hidden width.
    with pytest.raises(ConfigurationError, match="ffn_ratio"):
        ModelConfig.tiny(ffn_ratio=value)


@pytest.mark.parametrize(
    "overrides, match",
    [
        (dict(stage_channels=(32, 64, 128, 2**40)), "stage channels"),
        (dict(stage_channels=(8, 16, 32, MAX_STAGE_CHANNELS + 1)), "stage channels"),
        (dict(blocks_per_stage=(2, 4, 6, 10**8)), "blocks per stage"),
        (dict(blocks_per_stage=(MAX_BLOCKS_PER_STAGE + 1, 1, 1, 1)), "blocks per stage"),
        # once turned into a hidden width this overflowed int()
        (dict(ffn_ratio=1e308), "ffn_ratio"),
        (dict(ffn_ratio=(MAX_FFN_CHANNELS + 1) / 64), "ffn_ratio"),
        (dict(input_size=2**40), "input_size"),
        (dict(input_size=MAX_INPUT_SIZE + 16), "input_size"),
        (dict(dilation_rates=(1, 10**9)), "dilation_rates"),
        (dict(dilation_rates=(65,)), "dilation_rates"),  # over the tiny input_size 64
        # two branches would share one checkpoint name
        (dict(dilation_rates=(1, 1)), "dilation_rates"),
        (dict(input_channels=2**40), "channels"),
        (dict(output_channels=MAX_STAGE_CHANNELS + 1), "channels"),
    ],
    ids=[
        "widths-2**40", "widths-over", "depths-1e8", "depths-over", "ffn-1e308", "ffn-over",
        "size-2**40", "size-over", "rate-1e9", "rate-over-size", "rate-repeated",
        "image-channels-2**40",
        "mask-channels-over",
    ],
)
def test_config_bounds_the_model_size_before_building(overrides, match):
    with pytest.raises(ConfigurationError, match=match):
        ModelConfig.tiny(**overrides)


def test_config_accepts_the_size_bounds():
    cfg = ModelConfig.tiny(
        stage_channels=(8, 16, 32, MAX_STAGE_CHANNELS),
        blocks_per_stage=(MAX_BLOCKS_PER_STAGE,) * 4,
        ffn_ratio=MAX_FFN_CHANNELS / MAX_STAGE_CHANNELS, input_size=MAX_INPUT_SIZE,
        dilation_rates=(1, MAX_INPUT_SIZE), input_channels=MAX_STAGE_CHANNELS,
        output_channels=MAX_STAGE_CHANNELS,
    )
    assert ModelConfig.from_text(cfg.to_text()) == cfg


@pytest.mark.parametrize(
    "overrides",
    [
        dict(stage_channels=(1, 16, 32, 64)),
        dict(split_ratio=0.0),
        dict(split_ratio=1.0),
        dict(split_ratio=math.nan),
        # rounds the attention branch of stage 3's 32 channels to zero
        dict(split_ratio=0.01),
        dict(dilation_rates=()),
        dict(dilation_rates=(0,)),
        dict(upsample_mode="zero_offset"),
        dict(upsample_mode="nearest"),
        dict(sampler_groups=3),
    ],
    ids=[
        "width-1", "split-0", "split-1", "split-nan", "split-0.01", "rates-empty",
        "rates-0", "mode-zero_offset", "mode-nearest", "groups-3",
    ],
)
def test_config_rejects_bad_block_values(overrides):
    # The blocks check none of these values: the config is their only
    # check, both when built in code and when parsed from config text.
    with pytest.raises(ConfigurationError):
        ModelConfig.tiny(**overrides)
    text = ModelConfig.tiny().to_text() + configtext.format_mapping(overrides)
    with pytest.raises(ConfigurationError):
        ModelConfig.from_text(text)


def test_config_text_round_trip():
    cfg = ModelConfig.tiny(split_ratio=0.25, dilation_rates=(1, 2))
    assert ModelConfig.from_text(cfg.to_text()) == cfg


@pytest.mark.parametrize(
    "overrides",
    [
        # its own config text would not parse back
        dict(dilation_rates=(1.5,)),
        # would run as rate 1
        dict(dilation_rates=(True,)),
        dict(dilation_rates=(1, 2.0)),
        dict(stage_channels=(8, 16, 32, 64.0)),
        dict(stage_channels=[8, 16, 32, 64]),
        dict(blocks_per_stage=(True, 1, 1, 1)),
        dict(sampler_groups=True),
        dict(input_size=np.int64(64)),
        dict(use_dyt="false"),
        dict(ffn_ratio=True),
    ],
    ids=[
        "rates-1.5", "rates-true", "rates-2.0", "widths-float", "widths-list",
        "depths-true", "groups-true", "size-np.int64", "dyt-str", "ffn-true",
    ],
)
def test_config_rejects_values_of_the_wrong_type(overrides):
    with pytest.raises(ConfigurationError, match=next(iter(overrides))):
        ModelConfig.tiny(**overrides)


def test_every_accepted_config_round_trips_through_text():
    # Random configs drawn from good and badly typed values: whatever
    # the config accepts, its own text must give it back.
    pools = dict(
        stage_channels=[(8, 16, 32, 64), (4, 8, 12, 16), (8, 16, 32, 64.0), [8, 16, 32, 64]],
        blocks_per_stage=[(1, 1, 1, 1), (1, 2, 2, 1), (True, 1, 1, 1), (1, 1, 1, 1.0)],
        split_ratio=[0.5, 0.25, 1 / 3, np.float64(0.75), True, "0.5"],
        dilation_rates=[(1, 2, 3), (1,), (2, 5), (1.5,), (True,), 3],
        ffn_ratio=[4.0, 2, 1 / 3, np.float64(1.5), True, 1e-3],
        sampler_groups=[1, 2, 4, True, 2.0],
        input_channels=[3, 1, True, 3.0],
        output_channels=[1, 2, True],
        input_size=[32, 64, 64.0, True],
        use_dyt=[True, False, 1, "false"],
        upsample_mode=["dynamic", "bilinear", "Dynamic", 1],
    )
    rng = np.random.default_rng(2026)
    accepted = rejected = 0
    for _ in range(400):
        names = rng.choice(sorted(pools), size=rng.integers(1, 4), replace=False)
        overrides = {str(k): pools[k][rng.integers(len(pools[k]))] for k in names}
        try:
            cfg = ModelConfig.tiny(**overrides)
        except ConfigurationError:
            rejected += 1
            continue
        accepted += 1
        assert ModelConfig.from_text(cfg.to_text()) == cfg, overrides
    assert accepted >= 50 and rejected >= 50


def test_config_text_rejects_unknown_keys():
    with pytest.raises(FormatError):
        ModelConfig.from_text("stage_channels = [8, 16, 32, 64]\nbogus = 1\n")


# ---------------------------------------------------------------------------
# Forward shapes


def test_forward_shape_224():
    model = Model(ModelConfig.tiny(), seed=0)
    x = t32(np.random.default_rng(0).normal(size=(1, 3, 224, 224)) * 0.1)
    assert model.predict(x).shape == (1, 1, 224, 224)


def test_forward_shape_32():
    model = Model(ModelConfig.tiny(input_size=32), seed=0)
    x = t32(np.random.default_rng(1).normal(size=(2, 3, 32, 32)) * 0.1)
    assert model.predict(x).shape == (2, 1, 32, 32)


def test_forward_rejects_indivisible_extents():
    model = Model(ModelConfig.tiny(), seed=0)
    with pytest.raises(DimensionError):
        model.predict(t32(np.zeros((1, 3, 40, 32))))
    with pytest.raises(DimensionError):
        model.predict(t32(np.zeros((1, 3, 32, 20))))
    with pytest.raises(DimensionError):
        model.predict(t32(np.zeros((1, 4, 32, 32))))


def test_encoder_extent_halving_and_decoder_doubling():
    # The output preserving the input extents across 4 halvings and 4
    # doublings implies each stage divides/multiplies exactly by 2;
    # verify end-to-end on several sizes.
    model = Model(ModelConfig.tiny(), seed=0)
    for size in (32, 48, 64):
        x = t32(np.zeros((1, 3, size, size), np.float32))
        assert model.predict(x).shape == (1, 1, size, size)


def test_eval_mode_is_pure():
    model = Model(ModelConfig.tiny(input_size=32), seed=3)
    x = t32(np.random.default_rng(2).normal(size=(1, 3, 32, 32)) * 0.1)
    y1 = model.predict(x).data
    y2 = model.predict(x).data
    np.testing.assert_array_equal(y1, y2)


def test_training_mode_advances_bn_stats_only():
    model = Model(ModelConfig.tiny(input_size=32), seed=4)
    x = t32(np.random.default_rng(3).normal(size=(2, 3, 32, 32)) * 0.1)
    before = {
        p.name: p.value.data.copy()
        for p in model.parameters()
        if "running_" in p.name
    }
    model(ad.constant(x), training=True)
    after = {
        p.name: p.value.data
        for p in model.parameters()
        if "running_" in p.name
    }
    changed = [n for n in before if not np.array_equal(before[n], after[n])]
    assert changed  # training mode moved at least one running statistic


@pytest.mark.parametrize(
    "cfg, nodes",
    [(ModelConfig(), 84), (ModelConfig.tiny(), 79), (ModelConfig(upsample_mode="bilinear"), 95)],
    ids=["default", "tiny", "bilinear"],
)
def test_train_step_tape_records_each_op_on_the_blocks_layouts(cfg, nodes):
    # The attention op reads the qkv map and pixel_sample the grouped
    # offsets, from which it builds its coordinates, so no reshape,
    # transpose or narrow sits around either, and a dynamic upsampler
    # records two nodes: its offset conv and pixel_sample. The layout
    # ops that remain: each fused SHDC
    # block splits its channels with two narrows, and an upsampler that
    # projects first lays out its grouped align weight with two reshapes
    # and a transpose.
    model = Model(cfg, seed=0)
    with ad.Tape() as tape:
        logits = model(ad.constant(t32(np.zeros((2, 3, 32, 32)))), training=True)
        hybrid_loss(logits, t32(np.zeros((2, 1, 32, 32))), 0.5)
    ops = Counter(recorded_ops(tape))
    projecting = sum(up.projects_first for up in model.ups)
    assert sum(ops.values()) == nodes
    assert ops["narrow"] == 2 * ops["attention"] == 4
    assert ops["reshape"] == 2 * ops["transpose"] == 2 * projecting
    if cfg == ModelConfig():
        assert ops == {
            "conv2d": 28, "add": 9, "depthwise_residual": 9, "_batchnorm2d_vjp": 6,
            "relu": 5, "mul": 4, "narrow": 4, "pixel_sample": 4,
            "attention": 2, "concat": 2, "reshape": 2, "scale": 2, "tanh": 2,
            "transpose": 1, "sum_groups": 1, "bce_loss": 1, "dice_loss": 1, "sigmoid": 1,
        }


def _step_memory(cfg, batch):
    """Traced bytes an f32 train step's tape holds after the forward, and
    the peak its backward reaches, at cfg's input size."""
    model = Model(cfg, seed=0)
    rng = np.random.default_rng(9)
    size = cfg.input_size
    x = t32(rng.normal(size=(batch, 3, size, size)))
    y = t32(rng.uniform(size=(batch, 1, size, size)) < 0.4)
    tracemalloc.start()
    try:
        with ad.Tape() as tape:
            loss = hybrid_loss(model(ad.constant(x), training=True), y, 0.5)
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            ad.backward(loss, tape)
            peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return held, peak


@pytest.fixture(scope="module")
def default_step_memory():
    """A default batch-2 step at 224x224."""
    return _step_memory(ModelConfig(), 2)


@pytest.fixture(scope="module")
def tiny_step_memory():
    """A tiny batch-16 step at 64x64: the tiny-train workload's step."""
    return _step_memory(ModelConfig.tiny(), 16)


def test_default_train_forward_keeps_no_input_its_producer_can_remake(
    default_step_memory,
):
    # Each DyFusionUp's align conv reads a pixel_sample output (up1-up3)
    # and its out conv a batchnorm output (up1-up4); each FFN's project
    # conv reads a relu of its expand conv, each attention its qkv conv
    # and each sampler its offset conv. Each boxes the producer's remake,
    # which reads arrays the tape keeps anyway, not the array (at batch
    # 2: 10.7 + 13.0 MiB, then 10.7 FFN hiddens, less their 2.7 MiB of
    # relu masks, 4.2 of offset maps and 1.8 of qkv
    # maps). The tape holds about 48.9 MiB: 62.8 when only the batchnorm
    # and sampler outputs were remade, 86.5 when the convs kept their
    # inputs. The backward peaks at about 59.0 MiB (69.7, 91.2): each VJP
    # on the peak holds only the arrays it still reads plus at most one
    # remade input, and dec.up4's 12 sampled channels get one gradient
    # array from sum_groups.
    held, peak = default_step_memory
    assert held <= 52 * 2**20
    assert peak <= 62 * 2**20


def test_default_train_forward_holds_no_full_width_sampled_map(default_step_memory):
    # dec.up4 projects 32 channels to 4 groups x 3 before it samples, so
    # the tape keeps no 32-channel 224x224 map for align's weight
    # gradient (12.25 MiB at batch 2): it held about 86.5 MiB before the
    # convs kept remakes (48.9 now), 109 when it sampled the full width.
    held, _ = default_step_memory
    assert held <= 103 * 2**20


def test_default_train_forward_holds_no_skip_concatenation_or_attention_weights(
    default_step_memory,
):
    # Each DyFusionUp's fuse stage reads [skip, aligned] as two parts, so
    # the tape holds no joined copy of the skip (6.5 MiB at batch 2), and
    # the attention op rebuilds its [n, hw, hw] weights in the backward
    # instead of keeping them (5.0 MiB): it held about 86.5 MiB before
    # the convs kept remakes (48.9 now), 98 with both.
    held, _ = default_step_memory
    assert held <= 90 * 2**20


def test_tiny_train_step_peaks_within_a_sampler_chunk_of_its_tape(tiny_step_memory):
    # A tiny batch-16 step at 64x64 peaks in dec.up4's sampler VJP, whose
    # 64 rows of 4,096 points it walks in chunks of whole rows. Each
    # chunk's plan, corner buffer and temporaries add to the peak: it
    # reaches about 14.7 MiB in all, over a 10.5 MiB tape, with 16K-point
    # chunks and 18.1 MiB with 64K-point chunks.
    _, peak = tiny_step_memory
    assert peak <= 16 * 2**20


def test_tiny_predict_peaks_within_a_sampler_chunk():
    # A tiny batch-8 predict at 64x64 peaks at about 4.4 MiB with
    # 16K-point sampler chunks, 7.8 MiB with 64K-point chunks.
    model = Model(ModelConfig.tiny(), seed=0)
    x = t32(np.random.default_rng(5).normal(size=(8, 3, 64, 64)))
    _, _, peak = _traced(lambda: model.predict(x))
    assert peak <= 6 * 2**20


def test_projected_path_runs_where_it_samples_fewer_channels(monkeypatch):
    # An upsampler projects first when G'·skip < in_channels, G' being
    # sampler_groups in dynamic mode and 1 in bilinear mode; the channels
    # its one sampler call reads (batch 1) show which order ran.
    sampled = []
    sample = ad.pixel_sample
    monkeypatch.setattr(
        ad, "pixel_sample",
        lambda x, *a: sampled.append(x.tensor.shape[0] * x.tensor.shape[1]) or sample(x, *a),
    )
    x = t32(np.zeros((1, 3, 32, 32)))
    for cfg, projects, channels in (
        (ModelConfig(), [False, False, False, True], [256, 128, 64, 12]),
        (ModelConfig.tiny(), [False] * 4, [64, 32, 16, 8]),
        (ModelConfig(upsample_mode="bilinear"), [True] * 4, [128, 64, 32, 3]),
    ):
        model = Model(cfg, seed=0)
        assert [up.projects_first for up in model.ups] == projects
        sampled.clear()
        model.predict(x)
        assert sampled == channels


def test_projecting_first_changes_no_parameter():
    # align keeps its [skip, in, 1, 1] weight, so names, their order, the
    # count and checkpoints are those of the sample-then-align order: the
    # digest is of the default model's names in order as that order had them.
    model = Model(ModelConfig(), seed=0)
    names = [p.name for p in model.parameters()]
    assert len(names) == 110
    assert [p.name for p in model.ups[3].parameters()][:4] == [
        "dec.up4.offset.weight", "dec.up4.offset.bias",
        "dec.up4.align.weight", "dec.up4.align.bias",
    ]
    digest = hashlib.sha256("\n".join(names).encode()).hexdigest()
    assert digest == "e4a1afad967a1c9f93eec1b7255252475b6034684ee02efe5978350b281dfc60"
    assert model.ups[3].align.weight.value.shape == (3, 32, 1, 1)
    assert param_count(model) == 1_702_236 == expected_param_count(ModelConfig())


def _traced(fn):
    """fn's result, the bytes it leaves allocated and its traced peak."""
    tracemalloc.start()
    try:
        out = fn()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, held, peak


def test_inference_models_hold_no_gradient_buffers(tmp_path):
    # A parameter allocates its gradient on first use, so a built or a
    # loaded model holds its weights and little else (a zero-filled
    # gradient per parameter used to double it).
    Model(ModelConfig.tiny(input_size=32), seed=0)  # first-call caches
    path = str(tmp_path / "model.ckpt")
    save(Model(ModelConfig(), seed=0), path)
    for build in (lambda: Model(ModelConfig(), seed=0), lambda: load(path)):
        model, held, _ = _traced(build)
        weights = sum(p.value.data.nbytes for p in model.parameters())
        assert held <= 1.25 * weights
        assert all(p._grad is None for p in model.parameters())


def test_default_predict_frees_activations_after_their_last_reader():
    # Off the tape every forward drops an activation once its last reader
    # has run, so a batch-2 224x224 predict peaks at about twice the
    # sampler output of dec.up4, its largest array ([2, 32, 224, 224]).
    model = Model(ModelConfig(), seed=0)
    x = t32(np.random.default_rng(5).normal(size=(2, 3, 224, 224)))
    _, _, peak = _traced(lambda: model.predict(x))
    assert peak <= 2.25 * (2 * 32 * 224 * 224 * 4)


# ---------------------------------------------------------------------------
# Parameter accounting


def test_single_conv_param_arithmetic():
    rng = np.random.default_rng(0)
    conv = Conv2d("c", 8, 4, 1, rng, "f32")
    total = conv.weight.value.size + conv.bias.value.size
    assert total == 8 * 4 + 4 == 36
    assert _conv_params(8, 4, 1) == 36


def test_init_replays_he_normal_in_parameter_order():
    # Model draws every weight from one default_rng(seed), in parameter
    # order, He-normal at fan-in prod(shape[1:]); the zero-initialized
    # offset predictors and every bias, affine and running statistic
    # draw nothing.
    seed = 3
    model = Model(ModelConfig.tiny(), seed)
    rng = np.random.default_rng(seed)
    weights = [p for p in model.parameters() if p.name.endswith(".weight")]
    assert len(weights) == 49
    for p in weights:
        shape = p.value.shape
        if p.name.endswith(".offset.weight"):
            want = np.zeros(shape, dtype=np.float32)
        else:
            want = he_normal(rng, shape, "f32").data
        np.testing.assert_array_equal(p.value.data, want, err_msg=p.name)


def test_param_count_matches_shape_arithmetic_oracle_tiny():
    cfg = ModelConfig.tiny()
    model = Model(cfg, seed=0)
    assert param_count(model) == expected_param_count(cfg)


def test_param_count_matches_oracle_other_configs():
    for cfg in (
        ModelConfig.tiny(dilation_rates=(1, 2), ffn_ratio=2.0),
        ModelConfig.tiny(sampler_groups=2, split_ratio=0.25),
        ModelConfig.tiny(blocks_per_stage=(2, 1, 2, 1)),
    ):
        model = Model(cfg, seed=0)
        assert param_count(model) == expected_param_count(cfg)


def test_param_count_excludes_running_stats():
    model = Model(ModelConfig.tiny(), seed=0)
    trainable = param_count(model)
    everything = sum(p.value.size for p in model.parameters())
    assert everything > trainable


def test_reference_budget_constant():
    assert REFERENCE_PARAM_BUDGET == 9_980_000


# ---------------------------------------------------------------------------
# Checkpoint round trip


def _tiny_model(seed=7):
    return Model(ModelConfig.tiny(input_size=32), seed=seed)


def test_save_load_round_trip_bit_identical(tmp_path):
    model = _tiny_model()
    path = str(tmp_path / "model.ckpt")
    save(model, path)
    loaded = load(path)
    assert loaded.cfg == model.cfg
    orig = {p.name: p.value.data for p in model.parameters()}
    back = {p.name: p.value.data for p in loaded.parameters()}
    assert orig.keys() == back.keys()
    for name in orig:
        np.testing.assert_array_equal(orig[name], back[name])
    x = t32(np.random.default_rng(5).normal(size=(1, 3, 32, 32)) * 0.1)
    np.testing.assert_array_equal(model.predict(x).data, loaded.predict(x).data)


def test_use_dyt_false_builds_batchnorm_attention(tmp_path):
    # The README's DyT ablation switch: every attention norm becomes a
    # batchnorm, its gradients check out, and checkpoints round-trip.
    cfg = ModelConfig.tiny(input_size=32, use_dyt=False)
    model = Model(cfg, seed=7)
    blocks = model.stages[1][1:] + model.stages[2][1:]
    assert blocks and all(isinstance(b.attn.norm, BatchNorm2d) for b in blocks)
    rng = np.random.default_rng(3)
    attn = SingleHeadAttention("attn", cfg, 4, rng, dtype="f64")
    assert isinstance(attn.norm, BatchNorm2d)
    x = Parameter("input", Tensor(rng.standard_normal((2, 4, 4, 3)), dtype="f64"))
    report = gradsuite._module_check(attn, x, [], seed=0, probes=6)
    assert report.passed and report.checked > 0, report.max_rel_err
    model(ad.constant(t32(rng.normal(size=(2, 3, 32, 32)))), training=True)  # moves the BN statistics
    path = str(tmp_path / "nodyt.ckpt")
    save(model, path)
    loaded = load(path)
    assert loaded.cfg == cfg
    for a, b in zip(model.parameters(), loaded.parameters()):
        assert a.name == b.name
        np.testing.assert_array_equal(a.value.data, b.value.data)
    x32 = t32(rng.normal(size=(1, 3, 32, 32)) * 0.1)
    np.testing.assert_array_equal(model.predict(x32).data, loaded.predict(x32).data)


def test_depthwise_parameter_layout_pinned_for_checkpoints(tmp_path):
    # The fused depthwise-residual op reads the weights of the `pre` and
    # `local.branch*` convs; their names, shapes and positions are the
    # checkpoint layout, so files written before the fusion still load.
    model = _tiny_model()
    params = model.parameters()
    assert len(params) == 110
    got = [
        (i, p.name, p.value.shape)
        for i, p in enumerate(params)
        if ".pre." in p.name or ".local.branch" in p.name
    ]
    want = [(6, "enc.stage2.block0.pre.weight", (16, 1, 3, 3)),
            (7, "enc.stage2.block0.pre.bias", (16,))]
    for stage, c, first in ((3, 32, 14), (4, 64, 36)):
        name = f"enc.stage{stage}.block0"
        want += [(first, f"{name}.pre.weight", (c, 1, 3, 3)),
                 (first + 1, f"{name}.pre.bias", (c,))]
        want += [(first + 6 + r, f"{name}.local.branch{r}.weight", (c // 2, 1, 3, 3))
                 for r in (1, 2, 3)]
    assert got == want
    path = str(tmp_path / "model.ckpt")
    save(model, path)
    tensors, _ = read_checkpoint(path)
    assert list(tensors) == [p.name for p in params]
    loaded = load(path)
    x = t32(np.random.default_rng(6).normal(size=(2, 3, 32, 32)) * 0.1)
    np.testing.assert_array_equal(model.predict(x).data, loaded.predict(x).data)


def test_checkpoint_rejects_bad_magic(tmp_path):
    path = str(tmp_path / "bad.ckpt")
    with open(path, "wb") as f:
        f.write(b"NOPE" + b"\x00" * 64)
    with pytest.raises(FormatError) as err:
        load(path)
    assert err.value.offset == 0


def test_checkpoint_rejects_wrong_version(tmp_path):
    model = _tiny_model()
    path = str(tmp_path / "m.ckpt")
    save(model, path)
    with open(path, "rb") as f:
        buf = bytearray(f.read())
    buf[4:8] = struct.pack("<I", 99)
    with open(path, "wb") as f:
        f.write(buf)
    with pytest.raises(VersionError):
        load(path)


def test_checkpoint_rejects_truncation_everywhere(tmp_path):
    model = _tiny_model()
    path = str(tmp_path / "m.ckpt")
    save(model, path)
    with open(path, "rb") as f:
        buf = f.read()
    cut_points = [3, 7, 11, 13, 40, len(buf) // 2, len(buf) - 1]
    for cut in cut_points:
        trunc = str(tmp_path / f"trunc{cut}.ckpt")
        with open(trunc, "wb") as f:
            f.write(buf[:cut])
        with pytest.raises(FormatError):
            load(trunc)


def test_checkpoint_rejects_oversized_dims_with_offset(tmp_path):
    # 65536**4 elements overflow an int64 product to 0; the payload size
    # must stay exact so the read fails as truncated, at the payload.
    path = str(tmp_path / "huge.ckpt")
    name = b"w"
    head = b"DYGL" + struct.pack("<II", 1, 1) + struct.pack("<H", len(name)) + name
    head += struct.pack("<B", 4) + struct.pack("<4I", *(65536,) * 4) + struct.pack("<B", 0)
    with open(path, "wb") as f:
        f.write(head)
    with pytest.raises(FormatError) as err:
        read_checkpoint(path)
    assert err.value.offset == len(head)
    assert "payload" in str(err.value)


def _record(name, dims, code=0):
    """One tensor record of the checkpoint layout, with a zero payload."""
    payload = bytes(math.prod(dims) * {0: 4, 1: 8}.get(code, 0))
    return (struct.pack("<H", len(name)) + name + struct.pack("<B", len(dims))
            + struct.pack(f"<{len(dims)}I", *dims) + struct.pack("<B", code) + payload)


_GOOD = _record(b"w", (2,))


@pytest.mark.parametrize(
    "records, config, offset, match",
    [
        ([_GOOD, _GOOD], b"", 12 + len(_GOOD), "duplicate tensor name"),
        ([_record(b"w", ())], b"", 15, "rank 0 outside"),
        ([_record(b"w", (1,) * 5)], b"", 15, "rank 5 outside"),
        ([_record(b"w", (2, 0))], b"", 16, "zero extent"),
        ([_record(b"w", (2,), code=2)], b"", 20, "unknown dtype code 2"),
        ([_record(b"\xff", (2,))], b"", 12, "name is not UTF-8"),
        ([_GOOD], b"\xff", 12 + len(_GOOD), "config snapshot is not UTF-8"),
    ],
    ids=["duplicate-name", "rank-0", "rank-5", "zero-extent", "dtype-code",
         "name-not-utf8", "config-not-utf8"],
)
def test_checkpoint_header_faults_name_their_offset(tmp_path, capsys, records, config,
                                                    offset, match):
    # Each file is well-formed up to one fault, which the reader names
    # with the byte offset where it starts; `info` exits 2 on it.
    path = str(tmp_path / "forged.ckpt")
    with open(path, "wb") as f:
        f.write(b"DYGL" + struct.pack("<II", 1, len(records)) + b"".join(records)
                + struct.pack("<I", len(config)) + config)
    with pytest.raises(FormatError, match=match) as err:
        read_checkpoint(path)
    assert err.value.offset == offset
    assert cli.main(["info", "--ckpt", path]) == 2
    assert f"(byte offset {offset})" in capsys.readouterr().err


@pytest.mark.parametrize(
    "fault, error", [("no-tensors", FormatError), ("shape", DimensionError),
                     ("dtype", ContractError)]
)
def test_load_rejects_tensors_the_config_cannot_take(tmp_path, capsys, fault, error):
    # A file that reads cleanly but holds no tensors, or one tensor of
    # another shape or dtype than its parameter, loads no model.
    model = _tiny_model()
    tensors = [(p.name, p.value) for p in model.parameters()]
    name, value = tensors[1]
    if fault == "no-tensors":
        tensors = []
    elif fault == "shape":
        tensors[1] = (name, Tensor(np.ones(value.size + 1, np.float32), dtype="f32"))
    else:
        tensors[1] = (name, value.astype("f64"))
    path = str(tmp_path / "m.ckpt")
    write_checkpoint(path, tensors, model.cfg.to_text())
    with pytest.raises(error, match="no tensors" if not tensors else name):
        load(path)
    assert cli.main(["info", "--ckpt", path]) == 2
    capsys.readouterr()


def test_checkpoint_rejects_trailing_bytes(tmp_path):
    model = _tiny_model()
    path = str(tmp_path / "m.ckpt")
    save(model, path)
    with open(path, "ab") as f:
        f.write(b"\x00\x01")
    with pytest.raises(FormatError) as err:
        load(path)
    assert "trailing" in str(err.value)


def test_checkpoint_rejects_unknown_config_key(tmp_path):
    path = str(tmp_path / "m.ckpt")
    t = Tensor(np.ones(3, np.float32), dtype="f32")
    write_checkpoint(path, [("enc.stem.conv0.bias", t)], "mystery_field = 3\n")
    with pytest.raises(FormatError):
        load(path)


def test_checkpoint_rejects_tensor_name_mismatch(tmp_path):
    model = _tiny_model()
    path = str(tmp_path / "m.ckpt")
    cfg_text = model.cfg.to_text()
    write_checkpoint(
        path, [("definitely.not.a.param", Tensor(np.ones(2, np.float32), dtype="f32"))],
        cfg_text,
    )
    with pytest.raises(FormatError):
        load(path)


def test_checkpoint_low_level_round_trip(tmp_path):
    path = str(tmp_path / "raw.ckpt")
    rng = np.random.default_rng(11)
    tensors = [
        ("a", Tensor(rng.normal(size=(3,)).astype(np.float32), dtype="f32")),
        ("b.c", Tensor(rng.normal(size=(2, 2, 2, 2)), dtype="f64")),
    ]
    write_checkpoint(path, tensors, "note = 1\n")
    back, text = read_checkpoint(path)
    assert text == "note = 1\n"
    assert list(back) == ["a", "b.c"]
    for name, t in tensors:
        assert back[name].dtype == t.dtype
        np.testing.assert_array_equal(back[name].data, t.data)


def test_checkpoint_write_refuses_a_repeated_name_before_writing(tmp_path):
    # read_checkpoint refuses a file with a repeated name, so the writer
    # refuses it too, before it creates its temp file.
    path = str(tmp_path / "dup.ckpt")
    t = Tensor(np.arange(4.0), dtype="f64")
    with pytest.raises(FormatError, match="duplicate tensor name 'a'"):
        write_checkpoint(path, [("a", t), ("b", t), ("a", t)], "note = 1\n")
    assert os.listdir(tmp_path) == []


def test_checkpoint_write_failure_keeps_old_file(tmp_path, monkeypatch):
    # A write that dies midway must leave the previous file byte for byte
    # and no temp file behind.
    path = str(tmp_path / "best.ckpt")
    t = Tensor(np.arange(4.0), dtype="f64")
    write_checkpoint(path, [("a", t)], "note = 1\n")
    with open(path, "rb") as f:
        before = f.read()

    def fail(fd):
        raise OSError("disk full")

    monkeypatch.setattr(os, "fsync", fail)
    with pytest.raises(OSError, match="disk full"):
        write_checkpoint(path, [("a", Tensor(np.ones(4), dtype="f64"))], "note = 2\n")
    with open(path, "rb") as f:
        assert f.read() == before
    assert os.listdir(tmp_path) == ["best.ckpt"]


def test_checkpoint_write_fsyncs_the_directory_after_the_file(tmp_path, monkeypatch):
    # The rename is durable only once the directory entry is on disk, so
    # the file's fsync is followed by its directory's.
    if not hasattr(os, "O_DIRECTORY"):
        pytest.skip("this OS cannot open a directory for fsync")
    path = str(tmp_path / "best.ckpt")
    fsync, seen = os.fsync, []

    def recording_fsync(fd):
        st = os.fstat(fd)
        seen.append((stat.S_ISDIR(st.st_mode), st.st_ino))
        fsync(fd)

    monkeypatch.setattr(os, "fsync", recording_fsync)
    write_checkpoint(path, [("a", Tensor(np.arange(4.0), dtype="f64"))], "note = 1\n")
    assert seen == [(False, os.stat(path).st_ino), (True, os.stat(tmp_path).st_ino)]
    assert os.listdir(tmp_path) == ["best.ckpt"]


def test_checkpoint_failure_returns_no_partial_state(tmp_path):
    # A load that fails must raise, not hand back a half-filled model.
    model = _tiny_model()
    path = str(tmp_path / "m.ckpt")
    save(model, path)
    with open(path, "rb") as f:
        buf = f.read()
    with open(path, "wb") as f:
        f.write(buf[: len(buf) - 5])
    with pytest.raises(FormatError):
        load(path)
    assert os.path.exists(path)
