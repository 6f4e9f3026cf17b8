"""Named finite-difference gradient checks over every learned block.

Each entry builds a small f64 instance of one block (or the whole
network), wires a scalar readout over random inputs, and compares
analytic gradients against central differences. The same registry
backs the ``gradcheck`` CLI subcommand and the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import GradCheckReport, Parameter, grad_check
from .blocks import (
    DyFusionUp,
    DyT,
    FeedForward,
    Module,
    MultiScaleDilatedConv,
    ShdcBlock,
    SingleHeadAttention,
)
from .errors import ConfigurationError
from .losses import bce_loss, dice_loss, hybrid_loss
from .network import Model, ModelConfig
from .tensor import Tensor


def _randn(rng: np.random.Generator, shape) -> Tensor:
    return Tensor._wrap(rng.standard_normal(shape))


def _rand_mask(rng: np.random.Generator, shape) -> Tensor:
    return Tensor._wrap((rng.uniform(size=shape) < 0.5).astype(np.float64))


def _input_param(rng: np.random.Generator, shape, scale: float = 1.0) -> Parameter:
    return Parameter("input", Tensor._wrap(scale * rng.standard_normal(shape)))


def _module_check(
    module: Module,
    x: Parameter,
    seed: int,
    max_entries: int | None = 6,
) -> GradCheckReport:
    params = [x] + module.parameters(trainable_only=True)
    # Random-weighted readout: a plain mean is blind to anything a
    # trailing batchnorm absorbs (its output mean is constant), which
    # would leave near-zero gradients drowned in difference noise.
    w = ad.constant(_randn(np.random.default_rng([seed, 0xEE]), x.value.shape))

    def fn():
        return ad.mean_all(ad.mul(module(ad.watch(x), training=True), w))

    return grad_check(
        fn,
        params,
        max_entries_per_param=max_entries,
        rng=np.random.default_rng([seed, 0xFD]),
    )


def check_dyt(seed: int) -> GradCheckReport:
    rng = np.random.default_rng([seed, 1])
    m = DyT("dyt", 3, dtype="f64")
    x = _input_param(rng, (2, 3, 5, 4))
    return _module_check(m, x, seed)


def check_attention(seed: int) -> GradCheckReport:
    rng = np.random.default_rng([seed, 2])
    m = SingleHeadAttention("attn", ModelConfig.tiny(), 4, rng, dtype="f64")
    x = _input_param(rng, (2, 4, 4, 3))
    return _module_check(m, x, seed)


def check_msdc(seed: int) -> GradCheckReport:
    rng = np.random.default_rng([seed, 3])
    cfg = ModelConfig.tiny(dilation_rates=(1, 2))
    m = MultiScaleDilatedConv("msdc", cfg, 3, rng, dtype="f64")
    x = _input_param(rng, (2, 3, 6, 6))
    return _module_check(m, x, seed)


def check_ffn(seed: int) -> GradCheckReport:
    rng = np.random.default_rng([seed, 4])
    m = FeedForward("ffn", ModelConfig.tiny(ffn_ratio=2.0), 3, rng, dtype="f64")
    x = _input_param(rng, (2, 3, 4, 4))
    return _module_check(m, x, seed)


def check_shdc(seed: int) -> GradCheckReport:
    rng = np.random.default_rng([seed, 5])
    cfg = ModelConfig.tiny(dilation_rates=(1, 2))
    m = ShdcBlock("shdc", cfg, 6, True, rng, dtype="f64")
    x = _input_param(rng, (2, 6, 4, 4))
    return _module_check(m, x, seed, max_entries=4)


def check_dyfusion(seed: int) -> GradCheckReport:
    rng = np.random.default_rng([seed, 6])
    cfg = ModelConfig.tiny(sampler_groups=2, dilation_rates=(1, 2))
    m = DyFusionUp("up", cfg, 4, 3, rng, dtype="f64")
    # Nudge the zero-initialized offset predictor so the coordinate
    # path carries real gradients while staying far from the sampler's
    # integer-lattice kinks.
    ow = m.offset.weight
    ow.assign(Tensor._wrap(rng.uniform(-0.02, 0.02, size=ow.value.shape)))
    x_low = _input_param(rng, (2, 4, 4, 4), scale=0.5)
    skip = ad.constant(_randn(rng, (2, 3, 8, 8)))
    params = [x_low] + m.parameters(trainable_only=True)
    w = ad.constant(_randn(np.random.default_rng([seed, 0xEE]), (2, 3, 8, 8)))

    def fn():
        return ad.mean_all(ad.mul(m(ad.watch(x_low), skip, training=True), w))

    return grad_check(
        fn, params, max_entries_per_param=4,
        rng=np.random.default_rng([seed, 0xFD]),
    )


def check_dice(seed: int) -> GradCheckReport:
    rng = np.random.default_rng([seed, 7])
    x = _input_param(rng, (2, 1, 5, 5))
    target = _rand_mask(rng, (2, 1, 5, 5))

    def fn():
        return dice_loss(ad.sigmoid(ad.watch(x)), target)

    return grad_check(fn, [x])


def check_bce(seed: int) -> GradCheckReport:
    rng = np.random.default_rng([seed, 8])
    x = _input_param(rng, (2, 1, 5, 5))
    target = _rand_mask(rng, (2, 1, 5, 5))

    def fn():
        return bce_loss(ad.watch(x), target)

    return grad_check(fn, [x])


def check_hybrid(seed: int) -> GradCheckReport:
    rng = np.random.default_rng([seed, 9])
    x = _input_param(rng, (2, 1, 5, 5))
    target = _rand_mask(rng, (2, 1, 5, 5))

    def fn():
        return hybrid_loss(ad.watch(x), target, 0.6)

    return grad_check(fn, [x])


def check_network(seed: int) -> GradCheckReport:
    rng = np.random.default_rng([seed, 10])
    model = Model(ModelConfig.tiny(input_size=32), seed=seed, dtype="f64")
    x = Tensor._wrap(rng.standard_normal((1, 3, 32, 32)))
    target = _rand_mask(rng, (1, 1, 32, 32))
    params = model.parameters(trainable_only=True)

    def fn():
        return hybrid_loss(model(ad.constant(x), training=True), target, 0.5)

    return grad_check(
        fn,
        params,
        max_entries_per_param=1,
        rng=np.random.default_rng([seed, 0xFD]),
    )


CHECKS = {
    "dyt": check_dyt,
    "attention": check_attention,
    "msdc": check_msdc,
    "ffn": check_ffn,
    "shdc": check_shdc,
    "dyfusion": check_dyfusion,
    "dice": check_dice,
    "bce": check_bce,
    "hybrid": check_hybrid,
    "network": check_network,
}


@dataclass
class SuiteRow:
    name: str
    seed: int
    report: GradCheckReport


def run_suite(
    names: list[str] | None = None, seeds: tuple[int, ...] = (0,)
) -> list[SuiteRow]:
    """Run the named checks (all of ``CHECKS`` by default) at each seed;
    an unknown name raises before any check runs."""
    names = sorted(CHECKS) if names is None else names
    unknown = [name for name in names if name not in CHECKS]
    if unknown:
        raise ConfigurationError(
            f"unknown gradient check {unknown[0]!r}; choose from {sorted(CHECKS)}"
        )
    return [SuiteRow(name, seed, CHECKS[name](seed)) for name in names for seed in seeds]
