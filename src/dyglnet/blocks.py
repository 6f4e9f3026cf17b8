"""Building blocks: DyT, single-head spatial attention, multi-scale
dilated depthwise convolution, the hybrid encoder block, and the
offset-based dynamic 2x upsampler.

Every block is a :class:`Module` owning named parameters and callable
on autodiff values, so the whole network differentiates end to end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import tensor as T
from .autodiff import Parameter, Value
from .errors import ConfigurationError, DimensionError
from .tensor import ConvSpec, Tensor


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
        for attr in obj.__dict__.values():
            if isinstance(attr, Parameter):
                out.append(attr)
            elif isinstance(attr, Module):
                Module._collect(attr, out)
            elif isinstance(attr, (list, tuple)):
                for item in attr:
                    if isinstance(item, Parameter):
                        out.append(item)
                    elif isinstance(item, Module):
                        Module._collect(item, out)

    def __call__(self, x: Value, training: bool = False) -> Value:
        raise NotImplementedError


def he_normal(
    rng: np.random.Generator, shape: tuple[int, ...], fan_in: int, dtype: str
) -> Tensor:
    std = math.sqrt(2.0 / fan_in)
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
        dtype: str = "f32",
        stride: int = 1,
        padding: int = 0,
        zero_init: bool = False,
    ):
        self.spec = ConvSpec(stride, padding)
        wshape = (out_channels, in_channels, kernel, kernel)
        if zero_init:
            w = Tensor(np.zeros(wshape), dtype=dtype)
        else:
            w = he_normal(rng, wshape, in_channels * kernel * kernel, dtype)
        self.weight = Parameter(f"{name}.weight", w)
        self.bias = Parameter(f"{name}.bias", Tensor(np.zeros(out_channels), dtype=dtype))

    def __call__(self, x: Value, training: bool = False) -> Value:
        return ad.conv2d(x, ad.watch(self.weight), ad.watch(self.bias), self.spec)


class BatchNorm2d(Module):
    """Per-channel batch normalization with tracked running statistics."""

    def __init__(self, name: str, channels: int, dtype: str = "f32"):
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

    def __init__(self, name: str, channels: int, dtype: str = "f32"):
        self.alpha = Parameter(f"{name}.alpha", Tensor([DYT_ALPHA_INIT], dtype=dtype))
        self.gamma = Parameter(f"{name}.gamma", Tensor(np.ones(channels), dtype=dtype))
        self.beta = Parameter(f"{name}.beta", Tensor(np.zeros(channels), dtype=dtype))
        self.channels = channels

    def __call__(self, x: Value, training: bool = False) -> Value:
        if x.tensor.rank != 4 or x.tensor.shape[1] != self.channels:
            raise DimensionError(
                f"dyt expects [N,{self.channels},H,W], got {x.tensor.shape}"
            )
        t = ad.tanh(ad.mul(x, ad.watch(self.alpha)))
        return ad.add(ad.mul(t, ad.watch(self.gamma)), ad.watch(self.beta))


class SingleHeadAttention(Module):
    """Global self-attention over the H*W spatial tokens of a feature map.

    A norm layer feeds one shared 1x1 conv producing Q, K, V of the
    input width C per token; scores are softmax(Q K^T / sqrt(C)) over
    keys, and the attended values are the output.
    """

    def __init__(
        self,
        name: str,
        channels: int,
        rng: np.random.Generator,
        dtype: str = "f32",
        use_dyt: bool = True,
    ):
        self.norm: Module = (
            DyT(f"{name}.norm", channels, dtype)
            if use_dyt
            else BatchNorm2d(f"{name}.norm", channels, dtype)
        )
        self.qkv = Conv2d(f"{name}.qkv", channels, 3 * channels, 1, rng, dtype)

    def __call__(self, x: Value, training: bool = False) -> Value:
        n, c, h, w = x.tensor.shape
        p = h * w
        z = self.norm(x, training)
        qkv = self.qkv(z)
        q, k, v = ad.split(qkv, 1, [c, c, c])
        q_tok = ad.transpose(ad.reshape(q, (n, c, p)), (0, 2, 1))  # [n,p,c]
        k_map = ad.reshape(k, (n, c, p))  # [n,c,p]
        v_tok = ad.transpose(ad.reshape(v, (n, c, p)), (0, 2, 1))
        scores = ad.scale(ad.matmul(q_tok, k_map), 1.0 / math.sqrt(c))
        attn = ad.softmax(scores, axis=2)
        out = ad.matmul(attn, v_tok)  # [n,p,c]
        return ad.reshape(ad.transpose(out, (0, 2, 1)), (n, c, h, w))


class MultiScaleDilatedConv(Module):
    """Parallel dilated depthwise 3x3 branches summed with the identity,
    then one shared batchnorm. Padding equals each branch's dilation so
    the spatial extents are preserved. The sum is one fused
    ``depthwise_residual`` op over one [C, 1, 3, 3] weight per rate."""

    def __init__(
        self,
        name: str,
        channels: int,
        rng: np.random.Generator,
        dtype: str = "f32",
        rates: tuple[int, ...] = (1, 2, 3),
    ):
        if not rates or any(r < 1 for r in rates):
            raise ConfigurationError(f"{name}: dilation rates must be positive, got {rates}")
        self.rates = rates
        self.weights = [
            Parameter(
                f"{name}.branch{r}.weight",
                he_normal(rng, (channels, 1, 3, 3), 9, dtype),
            )
            for r in rates
        ]
        self.bn = BatchNorm2d(f"{name}.bn", channels, dtype)

    def __call__(self, x: Value, training: bool = False) -> Value:
        s = ad.depthwise_residual(x, [ad.watch(w) for w in self.weights], self.rates)
        return self.bn(s, training)


class FeedForward(Module):
    """1x1 expansion -> relu -> 1x1 projection with a residual add."""

    def __init__(
        self,
        name: str,
        channels: int,
        rng: np.random.Generator,
        dtype: str = "f32",
        ratio: float = 4.0,
    ):
        if ratio <= 0:
            raise ConfigurationError(f"{name}: ffn ratio must be positive, got {ratio}")
        hidden = max(1, int(math.floor(ratio * channels + 0.5)))
        self.expand = Conv2d(f"{name}.expand", channels, hidden, 1, rng, dtype)
        self.project = Conv2d(f"{name}.project", hidden, channels, 1, rng, dtype)

    def __call__(self, x: Value, training: bool = False) -> Value:
        return ad.add(x, self.project(ad.relu(self.expand(x))))


@dataclass(frozen=True)
class ShdcConfig:
    """Hyperparameters of one hybrid encoder block."""

    channels: int
    split_ratio: float = 0.5
    dilation_rates: tuple[int, ...] = (1, 2, 3)
    ffn_ratio: float = 4.0
    use_fusion: bool = True
    use_dyt: bool = True

    def __post_init__(self):
        if self.channels < 2:
            raise ConfigurationError(f"channels must be >= 2, got {self.channels}")
        if not 0.0 < self.split_ratio < 1.0:
            raise ConfigurationError(
                f"split_ratio must lie in (0,1), got {self.split_ratio}"
            )
        if not self.dilation_rates or any(r < 1 for r in self.dilation_rates):
            raise ConfigurationError(
                f"dilation_rates must be positive, got {self.dilation_rates}"
            )
        if self.use_fusion and not 0 < self.global_channels < self.channels:
            raise ConfigurationError(
                f"split {self.split_ratio} of {self.channels} channels leaves "
                f"an empty branch"
            )

    @property
    def global_channels(self) -> int:
        return int(math.floor(self.split_ratio * self.channels + 0.5))


class ShdcBlock(Module):
    """Hybrid encoder block.

    A residual depthwise 3x3 conv feeds (when fusion is enabled) a
    channel split into a global attention path and a local multi-scale
    dilated path, whose concatenation passes a 1x1 fusion conv with a
    residual add; a feed-forward stage closes the block. With fusion
    disabled only the depthwise conv and the feed-forward stage remain.
    """

    def __init__(
        self, name: str, cfg: ShdcConfig, rng: np.random.Generator, dtype: str = "f32"
    ):
        c = cfg.channels
        self.cfg = cfg
        self.pre_weight = Parameter(
            f"{name}.pre.weight", he_normal(rng, (c, 1, 3, 3), 9, dtype)
        )
        self.pre_bias = Parameter(f"{name}.pre.bias", Tensor(np.zeros(c), dtype=dtype))
        if cfg.use_fusion:
            cg = cfg.global_channels
            self.attn = SingleHeadAttention(
                f"{name}.attn", cg, rng, dtype, use_dyt=cfg.use_dyt
            )
            self.local = MultiScaleDilatedConv(
                f"{name}.local", c - cg, rng, dtype, cfg.dilation_rates
            )
            self.fuse = Conv2d(f"{name}.fuse", c, c, 1, rng, dtype)
        self.ffn = FeedForward(f"{name}.ffn", c, rng, dtype, cfg.ffn_ratio)

    def __call__(self, x: Value, training: bool = False) -> Value:
        if x.tensor.shape[1] != self.cfg.channels:
            raise DimensionError(
                f"block expects {self.cfg.channels} channels, got {x.tensor.shape}"
            )
        h = ad.depthwise_residual(
            x, [ad.watch(self.pre_weight)], [1], ad.watch(self.pre_bias)
        )
        if self.cfg.use_fusion:
            cg = self.cfg.global_channels
            g_in, l_in = ad.split(h, 1, [cg, self.cfg.channels - cg])
            g_out = self.attn(g_in, training)
            l_out = self.local(l_in, training)
            h = ad.add(h, self.fuse(ad.concat([g_out, l_out], 1)))
        return self.ffn(h, training)


_SCALE = 2  # the upsampler doubles each spatial extent
_OFFSET_RANGE = 0.25  # DySample's static scope factor on the predicted offsets
_UPSAMPLE_MODES = ("dynamic", "bilinear")


@dataclass(frozen=True)
class DyFusionUpConfig:
    """Hyperparameters of one dynamic 2x upsampling stage."""

    in_channels: int
    skip_channels: int
    groups: int = 4
    fuse_dilations: tuple[int, ...] = (1, 2, 3)
    mode: str = "dynamic"

    def __post_init__(self):
        if self.groups < 1 or self.in_channels % self.groups:
            raise ConfigurationError(
                f"groups {self.groups} must divide in_channels {self.in_channels}"
            )
        if self.skip_channels < 1:
            raise ConfigurationError("skip_channels must be >= 1")
        if self.mode not in _UPSAMPLE_MODES:
            raise ConfigurationError(
                f"mode must be one of {_UPSAMPLE_MODES}, got {self.mode!r}"
            )

    @property
    def offset_channels(self) -> int:
        return 2 * self.groups * _SCALE * _SCALE


class DyFusionUp(Module):
    """Dynamic 2x upsampler with skip fusion.

    Pipeline: a zero-initialized 1x1 conv on the low-resolution input
    predicts per-group sub-pixel offsets (rearranged depth-to-space to
    the doubled lattice and scaled by ``_OFFSET_RANGE``); each channel
    group is bilinearly sampled at quarter-pixel-plus-offset positions,
    all groups in one sampler call with the groups folded into the batch;
    a 1x1 conv aligns the result to the skip width; the skip is
    concatenated in front; a multi-scale dilated stage plus a 3x3 conv
    fuse the pair down to ``skip_channels``.

    The offsets are added to the sampling coordinates of a 2x bilinear
    resize, so with zero offsets the sampling stage equals static 2x
    bilinear upsampling exactly. Modes: "dynamic" learns offsets, and
    "bilinear" samples the 2x resize lattice itself.
    """

    def __init__(
        self,
        name: str,
        cfg: DyFusionUpConfig,
        rng: np.random.Generator,
        dtype: str = "f32",
    ):
        self.cfg = cfg
        if cfg.mode == "dynamic":
            # Offset conv output channel (2g + coord)*s*s + a*s + b holds
            # sub-pixel (a, b) of group g's x (coord 0) or y (coord 1) field.
            self.offset = Conv2d(
                f"{name}.offset", cfg.in_channels, cfg.offset_channels, 1,
                rng, dtype, zero_init=True,
            )
        self.align = Conv2d(
            f"{name}.align", cfg.in_channels, cfg.skip_channels, 1, rng, dtype
        )
        self.fuse = MultiScaleDilatedConv(
            f"{name}.fuse", 2 * cfg.skip_channels, rng, dtype, cfg.fuse_dilations
        )
        self.out = Conv2d(
            f"{name}.out", 2 * cfg.skip_channels, cfg.skip_channels, 3, rng, dtype,
            padding=1,
        )

    def offset_field(self, x_low: Value) -> Value:
        """The scaled offset field on the doubled lattice, groups folded
        into the batch: [N*G, 2, 4hw], row i*G + j holding image i, group
        j, with x then y on axis 1."""
        n, _, h, w = x_low.tensor.shape
        s, g = _SCALE, self.cfg.groups
        raw = self.offset(x_low)  # [n, 2g*s*s, h, w]
        planes = ad.depth_to_space(raw, s)  # [n, 2g, s*h, s*w]
        return ad.reshape(ad.scale(planes, _OFFSET_RANGE), (n * g, 2, s * h * s * w))

    def upsample(self, x_low: Value) -> Value:
        """The sampling stage alone: [N,C',h,w] -> [N,C',2h,2w], as one
        ``pixel_sample`` of [N*G, C'/G, h, w], the G groups folded into
        the batch, at [N*G, 2, 4hw] coordinates: the 2x resize lattice,
        plus the offset field in "dynamic" mode."""
        n, c, h, w = x_low.tensor.shape
        g = self.cfg.groups
        h2, w2 = _SCALE * h, _SCALE * w
        base = T._resize_coords(n * g, h, w, h2, w2, x_low.tensor.data.dtype)
        u = ad.constant(Tensor._wrap(base))
        if self.cfg.mode == "dynamic":
            u = ad.add(self.offset_field(x_low), u)
        folded = ad.reshape(x_low, (n * g, c // g, h, w))
        return ad.reshape(ad.pixel_sample(folded, u), (n, c, h2, w2))

    def __call__(self, x_low: Value, x_skip: Value, training: bool = False) -> Value:
        n, c, h, w = x_low.tensor.shape
        if c != self.cfg.in_channels:
            raise DimensionError(
                f"expected {self.cfg.in_channels} input channels, got {c}"
            )
        expected = (n, self.cfg.skip_channels, _SCALE * h, _SCALE * w)
        if x_skip.tensor.shape != expected:
            raise DimensionError(
                f"skip shape {x_skip.tensor.shape} != required {expected}"
            )
        up = self.upsample(x_low)
        aligned = self.align(up)
        cat = ad.concat([x_skip, aligned], 1)
        fused = self.fuse(cat, training)
        return self.out(fused)
