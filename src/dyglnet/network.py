"""Full encoder-decoder segmentation network.

Encoder: a two-conv stem (stride 2 then stride 1) and three further
stages, each a stride-2 downsampling conv followed by hybrid blocks;
the first block stage runs without the attention/local fusion. Decoder:
four dynamic 2x upsampling stages consuming the matching encoder skip,
the outermost using the raw input as its skip, then a 1x1 head conv to
the logit map. Spatial extents halve per encoder stage and double per
decoder stage, so H and W must be divisible by 16.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import configtext
from .autodiff import Value
from .blocks import _UPSAMPLE_MODES, Conv2d, DyFusionUp, Module, ShdcBlock
from .checkpoint import read_checkpoint, write_checkpoint
from .errors import ConfigurationError, DimensionError, FormatError
from .tensor import Tensor

REFERENCE_PARAM_BUDGET = 9_980_000  # target trainable-parameter budget at full scale

TINY_STAGE_CHANNELS = (8, 16, 32, 64)

# Encoder stages whose blocks fuse attention with the local branch; stage 2
# runs its blocks local only (stage 1 is the stem).
_FUSED_STAGES = (3, 4)

# Size bounds, checked before any weight is allocated: 2048 channels (a
# stage, the image or the mask) is 8 times the default's widest stage,
# 64 blocks is nearly twice the deepest ResNet-152 stage, 8192 FFN
# channels are the default ratio 4 on a 2048-channel stage, and 4096
# pixels is 18 times the paper's 224. A dilation rate is at most
# input_size: beyond that, as at it, every off-centre tap reads only zero
# padding.
MAX_STAGE_CHANNELS = 2048
MAX_BLOCKS_PER_STAGE = 64
MAX_FFN_CHANNELS = 8192
MAX_INPUT_SIZE = 4096


@dataclass(frozen=True)
class ModelConfig:
    """Every architecture hyperparameter left open by the block designs,
    each checked here, once, before any block is built."""

    stage_channels: tuple[int, int, int, int] = (32, 64, 128, 256)
    blocks_per_stage: tuple[int, int, int, int] = (1, 1, 1, 1)
    split_ratio: float = 0.5
    dilation_rates: tuple[int, ...] = (1, 2, 3)
    ffn_ratio: float = 4.0
    sampler_groups: int = 4
    input_channels: int = 3
    output_channels: int = 1
    input_size: int = 224
    use_dyt: bool = True
    upsample_mode: str = "dynamic"

    def __post_init__(self):
        configtext.check_types(self)
        if len(self.stage_channels) != 4 or len(self.blocks_per_stage) != 4:
            raise ConfigurationError("exactly four stages are required")
        if any(c < 2 for c in self.stage_channels):
            raise ConfigurationError(
                f"stage channels must be >= 2, got {self.stage_channels}"
            )
        if any(
            a >= b for a, b in zip(self.stage_channels, self.stage_channels[1:])
        ):
            raise ConfigurationError(
                f"stage channels must strictly increase, got {self.stage_channels}"
            )
        if self.stage_channels[-1] > MAX_STAGE_CHANNELS:
            raise ConfigurationError(
                f"stage channels must be <= {MAX_STAGE_CHANNELS}, got {self.stage_channels}"
            )
        if any(not 1 <= b <= MAX_BLOCKS_PER_STAGE for b in self.blocks_per_stage):
            raise ConfigurationError(
                f"blocks per stage must lie in [1, {MAX_BLOCKS_PER_STAGE}], "
                f"got {self.blocks_per_stage}"
            )
        if self.sampler_groups < 1 or any(
            c % self.sampler_groups for c in self.stage_channels
        ):
            raise ConfigurationError(
                f"sampler_groups {self.sampler_groups} must divide every stage "
                f"width {self.stage_channels}"
            )
        # NaN fails every comparison; a fusing stage splits its width into
        # an attention and a local branch.
        fused = tuple(self.stage_channels[i - 1] for i in _FUSED_STAGES)
        if not 0.0 < self.split_ratio < 1.0 or any(
            not 0 < self.global_channels(c) < c for c in fused
        ):
            raise ConfigurationError(
                f"split_ratio must lie in (0, 1) and leave both branches of "
                f"{fused} channels non-empty, got {self.split_ratio}"
            )
        # each rate names its own branch weight in a checkpoint
        if (not self.dilation_rates or min(self.dilation_rates) < 1
                or len(set(self.dilation_rates)) < len(self.dilation_rates)):
            raise ConfigurationError(
                f"dilation_rates must be non-empty, distinct and >= 1, got {self.dilation_rates}"
            )
        configtext.check_positive(self, "ffn_ratio")
        # the product is compared as a float: at ffn_ratio 1e308 it is inf
        if self.ffn_ratio * self.stage_channels[-1] > MAX_FFN_CHANNELS:
            raise ConfigurationError(
                f"ffn_ratio {self.ffn_ratio} gives the widest stage more than "
                f"{MAX_FFN_CHANNELS} FFN channels"
            )
        if not (1 <= self.input_channels <= MAX_STAGE_CHANNELS
                and 1 <= self.output_channels <= MAX_STAGE_CHANNELS):
            raise ConfigurationError(
                f"input and output channels must lie in [1, {MAX_STAGE_CHANNELS}]"
            )
        if not 16 <= self.input_size <= MAX_INPUT_SIZE or self.input_size % 16:
            raise ConfigurationError(
                f"input_size must be a multiple of 16 in [16, {MAX_INPUT_SIZE}], "
                f"got {self.input_size}"
            )
        if max(self.dilation_rates) > self.input_size:
            raise ConfigurationError(
                f"dilation_rates must be <= input_size {self.input_size}, "
                f"got {self.dilation_rates}"
            )
        if self.upsample_mode not in _UPSAMPLE_MODES:
            raise ConfigurationError(
                f"upsample_mode must be one of {_UPSAMPLE_MODES}, "
                f"got {self.upsample_mode!r}"
            )

    def global_channels(self, channels: int) -> int:
        """Width of the attention branch when a block splits ``channels``."""
        return int(math.floor(self.split_ratio * channels + 0.5))

    @classmethod
    def tiny(cls, **overrides) -> "ModelConfig":
        overrides.setdefault("stage_channels", TINY_STAGE_CHANNELS)
        overrides.setdefault("input_size", 64)
        return cls(**overrides)

    def to_text(self) -> str:
        return configtext.format_mapping(dataclasses.asdict(self))

    @classmethod
    def from_text(cls, text: str) -> "ModelConfig":
        kwargs, rest = configtext.coerce_fields(cls, configtext.parse_text(text))
        if rest:
            raise FormatError(f"unknown model config keys: {sorted(rest)}")
        return cls(**kwargs)


class Model(Module):
    """The assembled network; callable on autodiff values."""

    def __init__(self, cfg: ModelConfig, seed: int, dtype: str = "f32"):
        rng = np.random.default_rng(seed)
        w = (cfg.input_channels, *cfg.stage_channels)  # w[i]: stage i's width
        self.cfg = cfg
        self.stem = [
            Conv2d("enc.stem.conv0", w[0], w[1], 3, rng, dtype, stride=2, padding=1)
        ]
        for j in range(cfg.blocks_per_stage[0]):
            self.stem.append(
                Conv2d(f"enc.stem.conv{j + 1}", w[1], w[1], 3, rng, dtype, padding=1)
            )
        # Stages 2-4 each downsample with a stride-2 conv, then run their
        # blocks.
        self.stages: list[list[Module]] = []
        for i in (2, 3, 4):
            stage: list[Module] = [
                Conv2d(f"enc.stage{i}.down", w[i - 1], w[i], 3, rng, dtype,
                       stride=2, padding=1)
            ]
            for j in range(cfg.blocks_per_stage[i - 1]):
                stage.append(ShdcBlock(f"enc.stage{i}.block{j}", cfg, w[i],
                                       i in _FUSED_STAGES, rng, dtype))
            self.stages.append(stage)
        # up k lifts stage 5-k's output onto stage 4-k's skip; the outermost
        # skip is the input image.
        self.ups = [
            DyFusionUp(f"dec.up{k}", cfg, w[5 - k], w[4 - k], rng, dtype)
            for k in (1, 2, 3, 4)
        ]
        self.head = Conv2d("head", w[0], cfg.output_channels, 1, rng, dtype)

    def __call__(self, x: Value, training: bool = False) -> Value:
        shape = x.tensor.shape
        if len(shape) != 4 or shape[1] != self.cfg.input_channels:
            raise DimensionError(
                f"expected [N,{self.cfg.input_channels},H,W], got {shape}"
            )
        h, w = shape[2], shape[3]
        if h % 16 or w % 16:
            raise DimensionError(
                f"spatial extents must be divisible by 16, got {h}x{w}"
            )
        f = x
        for conv in self.stem:
            f = ad.relu(conv(f))
        # Each encoder stage pushes its input as a skip; the decoder pops
        # them innermost first, down to the image itself.
        skips = [x]
        for stage in self.stages:
            skips.append(f)
            for layer in stage:
                f = layer(f, training)
        for up in self.ups:
            f = up(f, skips.pop(), training)
        return self.head(f)

    def predict(self, x: Tensor) -> Tensor:
        """Forward in eval mode outside any tape; returns raw logits. Off the
        tape the blocks drop each activation once its last reader has run,
        and the parameters allocate no gradient buffers."""
        return self(ad.constant(x), training=False).tensor


def param_count(model: Model) -> int:
    return sum(p.value.size for p in model.parameters(trainable_only=True))


def save(model: Model, path: str) -> None:
    tensors = [(p.name, p.value) for p in model.parameters()]
    write_checkpoint(path, tensors, model.cfg.to_text())


def load(path: str) -> Model:
    tensors, config_text = read_checkpoint(path)
    cfg = ModelConfig.from_text(config_text)
    if not tensors:
        raise FormatError("checkpoint holds no tensors")
    dtype = next(iter(tensors.values())).dtype
    model = Model(cfg, seed=0, dtype=dtype)
    params = model.parameters()
    expected = {p.name for p in params}
    got = set(tensors)
    if expected != got:
        missing = sorted(expected - got)[:4]
        extra = sorted(got - expected)[:4]
        raise FormatError(
            f"checkpoint tensors do not match the config: missing {missing}, "
            f"unexpected {extra}"
        )
    for p in params:
        p.assign(tensors[p.name])
    return model
