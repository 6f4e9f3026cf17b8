"""Building blocks: DyT, single-head spatial attention, multi-scale
dilated depthwise convolution, the hybrid encoder block, and the
offset-based dynamic 2x upsampler.

Every block is a :class:`Module` owning named parameters and callable
on autodiff values, so the whole network differentiates end to end. A
block that reads a hyperparameter takes the validated ``ModelConfig``
plus its own widths, and checks none of its values again.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter, Value
from .errors import DimensionError
from .tensor import ConvSpec, Tensor

if TYPE_CHECKING:
    from .network import ModelConfig


class Module:
    """Minimal parameter container with deterministic traversal order."""

    def parameters(self, trainable_only: bool = False) -> list[Parameter]:
        out: list[Parameter] = []
        self._collect(self, out)
        if trainable_only:
            out = [p for p in out if p.trainable]
        return out

    @staticmethod
    def _collect(obj, out: list[Parameter]) -> None:
        """Parameters in attribute order, through modules and nested lists."""
        if isinstance(obj, Parameter):
            out.append(obj)
        elif isinstance(obj, Module):
            for attr in obj.__dict__.values():
                Module._collect(attr, out)
        elif isinstance(obj, (list, tuple)):
            for item in obj:
                Module._collect(item, out)

    def __call__(self, x: Value, training: bool = False) -> Value:
        raise NotImplementedError


def he_normal(rng: np.random.Generator, shape: tuple[int, ...], dtype: str) -> Tensor:
    """N(0, 2 / fan_in) weights, fan_in = prod(shape[1:])."""
    std = math.sqrt(2.0 / math.prod(shape[1:]))
    return Tensor(rng.normal(0.0, std, size=shape), dtype=dtype)


class Conv2d(Module):
    """Dense 2-d convolution layer (cross-correlation) with a bias."""

    def __init__(
        self,
        name: str,
        in_channels: int,
        out_channels: int,
        kernel: int,
        rng: np.random.Generator,
        dtype: str,
        stride: int = 1,
        padding: int = 0,
        zero_init: bool = False,
    ):
        self.spec = ConvSpec(stride, padding)
        wshape = (out_channels, in_channels, kernel, kernel)
        if zero_init:
            w = Tensor(np.zeros(wshape), dtype=dtype)
        else:
            w = he_normal(rng, wshape, dtype)
        self.weight = Parameter(f"{name}.weight", w)
        self.bias = Parameter(f"{name}.bias", Tensor(np.zeros(out_channels), dtype=dtype))

    def __call__(self, x: Value, training: bool = False) -> Value:
        return ad.conv2d(x, ad.watch(self.weight), ad.watch(self.bias), self.spec)


class BatchNorm2d(Module):
    """Per-channel batch normalization with tracked running statistics."""

    def __init__(self, name: str, channels: int, dtype: str):
        self.gamma = Parameter(f"{name}.gamma", Tensor(np.ones(channels), dtype=dtype))
        self.beta = Parameter(f"{name}.beta", Tensor(np.zeros(channels), dtype=dtype))
        self.running_mean = Parameter(
            f"{name}.running_mean", Tensor(np.zeros(channels), dtype=dtype),
            trainable=False,
        )
        self.running_var = Parameter(
            f"{name}.running_var", Tensor(np.ones(channels), dtype=dtype),
            trainable=False,
        )

    def __call__(self, x: Value, training: bool = False) -> Value:
        y, new_mean, new_var = ad.batchnorm2d(
            x,
            ad.watch(self.gamma),
            ad.watch(self.beta),
            self.running_mean.value,
            self.running_var.value,
            training,
        )
        if training:
            self.running_mean.assign(new_mean)
            self.running_var.assign(new_var)
        return y


DYT_ALPHA_INIT = 0.5


class DyT(Module):
    """Learnable tanh normalization: y = gamma_c * tanh(alpha * x) + beta_c.

    ``alpha`` is a single scalar; ``gamma``/``beta`` are per-channel.
    """

    def __init__(self, name: str, channels: int, dtype: str):
        self.alpha = Parameter(f"{name}.alpha", Tensor([DYT_ALPHA_INIT], dtype=dtype))
        self.gamma = Parameter(f"{name}.gamma", Tensor(np.ones(channels), dtype=dtype))
        self.beta = Parameter(f"{name}.beta", Tensor(np.zeros(channels), dtype=dtype))
        self.channels = channels

    def __call__(self, x: Value, training: bool = False) -> Value:
        # No op below checks this width: a one-channel gamma or beta
        # would broadcast over any input as a scalar.
        if x.tensor.rank != 4 or x.tensor.shape[1] != self.channels:
            raise DimensionError(
                f"dyt expects [N,{self.channels},H,W], got {x.tensor.shape}"
            )
        t = ad.tanh(ad.mul(x, ad.watch(self.alpha)))
        return ad.add(ad.mul(t, ad.watch(self.gamma)), ad.watch(self.beta))


class SingleHeadAttention(Module):
    """Global self-attention over the H*W spatial tokens of a feature map.

    A norm layer feeds one shared 1x1 conv producing Q, K, V of the
    input width C per token, as the three channel thirds of one map;
    scores are softmax(Q K^T / sqrt(C)) over keys, and the attended
    values are the output. The scores and the product are one
    ``attention`` op on that map, so a tape keeps the map but not the
    [N, HW, HW] weights.
    """

    def __init__(
        self,
        name: str,
        cfg: ModelConfig,
        channels: int,
        rng: np.random.Generator,
        dtype: str,
    ):
        self.norm: Module = (
            DyT(f"{name}.norm", channels, dtype)
            if cfg.use_dyt
            else BatchNorm2d(f"{name}.norm", channels, dtype)
        )
        self.qkv = Conv2d(f"{name}.qkv", channels, 3 * channels, 1, rng, dtype)

    def __call__(self, x: Value, training: bool = False) -> Value:
        return ad.attention(self.qkv(self.norm(x, training)))


class MultiScaleDilatedConv(Module):
    """Parallel dilated depthwise 3x3 branches summed with the identity,
    then one shared batchnorm. Padding equals each branch's dilation so
    the spatial extents are preserved. The sum is one fused
    ``depthwise_residual`` op over one [C, 1, 3, 3] weight per rate of
    ``cfg.dilation_rates``. The input may come as several channel parts,
    whose concatenation the op reads without forming it."""

    def __init__(
        self,
        name: str,
        cfg: ModelConfig,
        channels: int,
        rng: np.random.Generator,
        dtype: str,
    ):
        self.rates = cfg.dilation_rates
        self.weights = [
            Parameter(
                f"{name}.branch{r}.weight",
                he_normal(rng, (channels, 1, 3, 3), dtype),
            )
            for r in self.rates
        ]
        self.bn = BatchNorm2d(f"{name}.bn", channels, dtype)

    def __call__(self, *parts: Value, training: bool = False) -> Value:
        s = ad.depthwise_residual(parts, [ad.watch(w) for w in self.weights], self.rates)
        return self.bn(s, training)


class FeedForward(Module):
    """1x1 expansion to ``cfg.ffn_ratio`` times the width -> relu -> 1x1
    projection with a residual add."""

    def __init__(
        self,
        name: str,
        cfg: ModelConfig,
        channels: int,
        rng: np.random.Generator,
        dtype: str,
    ):
        hidden = max(1, int(math.floor(cfg.ffn_ratio * channels + 0.5)))
        self.expand = Conv2d(f"{name}.expand", channels, hidden, 1, rng, dtype)
        self.project = Conv2d(f"{name}.project", hidden, channels, 1, rng, dtype)

    def __call__(self, x: Value, training: bool = False) -> Value:
        return ad.add(x, self.project(ad.relu(self.expand(x))))


class ShdcBlock(Module):
    """Hybrid encoder block.

    A residual depthwise 3x3 conv feeds (when fusion is enabled) a
    channel split into a global attention path and a local multi-scale
    dilated path, whose concatenation passes a 1x1 fusion conv with a
    residual add; a feed-forward stage closes the block. With fusion
    disabled only the depthwise conv and the feed-forward stage remain.
    The split gives ``cfg.global_channels(channels)`` to attention.
    """

    def __init__(
        self,
        name: str,
        cfg: ModelConfig,
        channels: int,
        fusion: bool,
        rng: np.random.Generator,
        dtype: str,
    ):
        c = channels
        self.cfg = cfg
        self.channels = c
        self.fusion = fusion
        self.pre_weight = Parameter(
            f"{name}.pre.weight", he_normal(rng, (c, 1, 3, 3), dtype)
        )
        self.pre_bias = Parameter(f"{name}.pre.bias", Tensor(np.zeros(c), dtype=dtype))
        if fusion:
            cg = cfg.global_channels(c)
            self.attn = SingleHeadAttention(f"{name}.attn", cfg, cg, rng, dtype)
            self.local = MultiScaleDilatedConv(f"{name}.local", cfg, c - cg, rng, dtype)
            self.fuse = Conv2d(f"{name}.fuse", c, c, 1, rng, dtype)
        self.ffn = FeedForward(f"{name}.ffn", cfg, c, rng, dtype)

    def __call__(self, x: Value, training: bool = False) -> Value:
        h = ad.depthwise_residual(
            [x], [ad.watch(self.pre_weight)], [1], ad.watch(self.pre_bias)
        )
        if self.fusion:
            cg = self.cfg.global_channels(self.channels)
            g_out = self.attn(ad.narrow(h, 0, cg), training)
            l_in = ad.narrow(h, cg, self.channels - cg)
            cat = ad.concat([g_out, self.local(l_in, training=training)])
            del g_out, l_in
            fused = self.fuse(cat)
            del cat
            h = ad.add(h, fused)
        return self.ffn(h, training)


_SCALE = 2  # the upsampler doubles each spatial extent
_OFFSET_RANGE = 0.25  # DySample's static scope factor on the predicted offsets
_UPSAMPLE_MODES = ("dynamic", "bilinear")


class DyFusionUp(Module):
    """Dynamic 2x upsampler with skip fusion.

    Pipeline: a zero-initialized 1x1 conv on the low-resolution input
    predicts per-group sub-pixel offsets (rearranged depth-to-space to
    the doubled lattice and scaled by ``_OFFSET_RANGE``); each channel
    group is bilinearly sampled at quarter-pixel-plus-offset positions,
    all groups in one ``pixel_sample`` call that reads the offsets;
    a 1x1 conv aligns the result to the skip width; a multi-scale dilated
    stage reads the skip and the aligned map as the two channel parts of
    one input, skip first, without joining them, and it plus a 3x3 conv
    fuse the pair down to ``skip_channels``.

    The offsets are added to the sampling coordinates of a 2x bilinear
    resize, so with zero offsets the sampling stage equals static 2x
    bilinear upsampling exactly. ``cfg.upsample_mode`` "dynamic" learns
    offsets for each of the G = ``cfg.sampler_groups`` groups, and
    "bilinear" samples the 2x resize lattice itself, so the sampler reads
    G' coordinate sets: G in "dynamic" mode, one in "bilinear" mode. Where
    G'·skip < in_channels the block aligns before it samples
    (``aligned_upsample``).
    """

    def __init__(
        self,
        name: str,
        cfg: ModelConfig,
        in_channels: int,
        skip_channels: int,
        rng: np.random.Generator,
        dtype: str,
    ):
        self.cfg = cfg
        self.groups = cfg.sampler_groups if cfg.upsample_mode == "dynamic" else 1
        self.projects_first = self.groups * skip_channels < in_channels
        if cfg.upsample_mode == "dynamic":
            # Offset conv output channel (2g + coord)*s*s + a*s + b holds
            # sub-pixel (a, b) of group g's x (coord 0) or y (coord 1) field.
            self.offset = Conv2d(
                f"{name}.offset", in_channels, 2 * cfg.sampler_groups * _SCALE * _SCALE,
                1, rng, dtype, zero_init=True,
            )
        self.align = Conv2d(f"{name}.align", in_channels, skip_channels, 1, rng, dtype)
        self.fuse = MultiScaleDilatedConv(
            f"{name}.fuse", cfg, 2 * skip_channels, rng, dtype
        )
        self.out = Conv2d(
            f"{name}.out", 2 * skip_channels, skip_channels, 3, rng, dtype, padding=1
        )

    def upsample(self, x_low: Value, x: Value | None = None) -> Value:
        """The sampling stage alone: x ([N, G'·k, h, w], x_low by default)
        -> [N, G'·k, 2h, 2w], one ``pixel_sample`` whose channel group j
        reads the 2x resize lattice, shifted by group j's offsets from
        x_low in "dynamic" mode."""
        o = self.offset(x_low) if self.cfg.upsample_mode == "dynamic" else None
        return ad.pixel_sample(x_low if x is None else x, o, _SCALE, _OFFSET_RANGE)

    def aligned_upsample(self, x_low: Value) -> Value:
        """align(upsample(x_low)). Sampling is linear, so where G'·skip <
        in_channels it runs as sum_g sample_g(W_g x_g) + b: W_g, align's
        columns for group g, is row block g of a grouped 1x1 conv at the
        low resolution, and one sampler call reads G'·skip channels."""
        if not self.projects_first:
            return self.align(self.upsample(x_low))
        (k, c, _, _), g = self.align.weight.value.shape, self.groups
        w = ad.reshape(ad.watch(self.align.weight), (k, g, c // g, 1))
        w = ad.reshape(ad.transpose(w, (1, 0, 2, 3)), (g * k, c // g, 1, 1))
        zero = ad.constant(Tensor._wrap(np.zeros(g * k, x_low.tensor.data.dtype)))
        proj = ad.conv2d(x_low, w, zero, ConvSpec(groups=g))
        summed = ad.sum_groups(self.upsample(x_low, proj), g)
        return ad.add(summed, ad.watch(self.align.bias))

    def __call__(self, x_low: Value, x_skip: Value, training: bool = False) -> Value:
        aligned = self.aligned_upsample(x_low)
        fused = self.fuse(x_skip, aligned, training=training)
        del x_skip, aligned
        return self.out(fused)
