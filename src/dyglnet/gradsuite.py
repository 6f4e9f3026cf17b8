"""Named finite-difference gradient checks over every learned block.

Each check builds a small f64 instance of one block, loss or the whole
network, wires a scalar readout over random inputs, and compares
analytic gradients against central differences. The blocks and the
losses are rows of two tables, each run by one driver; the same
registry backs the ``gradcheck`` CLI subcommand and the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from . import autodiff as ad
from .autodiff import GradCheckReport, Parameter, Value, grad_check
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


def _module_check(
    module: Module, x: Parameter, rest: list[Value], seed: int, probes: int
) -> GradCheckReport:
    """Check ``module(x, *rest)`` with respect to x and every trainable
    parameter, probing ``probes`` entries of each; the last input has the
    block's output shape."""
    params = [x] + module.parameters(trainable_only=True)
    # Random-weighted readout: a plain mean is blind to anything a
    # trailing batchnorm absorbs (its output mean is constant), which
    # would leave near-zero gradients drowned in difference noise.
    out_shape = rest[-1].tensor.shape if rest else x.value.shape
    w = ad.constant(_randn(np.random.default_rng([seed, 0xEE]), out_shape))

    def fn():
        return ad.mean_all(ad.mul(module(ad.watch(x), *rest, training=True), w))

    return grad_check(
        fn, params, max_entries_per_param=probes,
        rng=np.random.default_rng([seed, 0xFD]),
    )


def _dyfusion(rng: np.random.Generator) -> DyFusionUp:
    cfg = ModelConfig.tiny(sampler_groups=2, dilation_rates=(1, 2))
    m = DyFusionUp("up", cfg, 4, 3, rng, dtype="f64")
    # Nudge the zero-initialized offset predictor so the coordinate
    # path carries real gradients while staying far from the sampler's
    # integer-lattice kinks.
    ow = m.offset.weight
    ow.assign(Tensor._wrap(rng.uniform(-0.02, 0.02, size=ow.value.shape)))
    return m


# name: (RNG tag, block builder, input scale, input shapes, probes per
# parameter). The first input is checked; the others (DyFusionUp's skip)
# are constants drawn after it.
_BLOCKS = {
    "dyt": (1, lambda rng: DyT("dyt", 3, dtype="f64"), 1.0, [(2, 3, 5, 4)], 6),
    "attention": (
        2, lambda rng: SingleHeadAttention(
            "attn", ModelConfig.tiny(), 4, rng, dtype="f64"),
        1.0, [(2, 4, 4, 3)], 6,
    ),
    "msdc": (
        3, lambda rng: MultiScaleDilatedConv(
            "msdc", ModelConfig.tiny(dilation_rates=(1, 2)), 3, rng, dtype="f64"),
        1.0, [(2, 3, 6, 6)], 6,
    ),
    "ffn": (
        4, lambda rng: FeedForward(
            "ffn", ModelConfig.tiny(ffn_ratio=2.0), 3, rng, dtype="f64"),
        1.0, [(2, 3, 4, 4)], 6,
    ),
    "shdc": (
        5, lambda rng: ShdcBlock(
            "shdc", ModelConfig.tiny(dilation_rates=(1, 2)), 6, True, rng, dtype="f64"),
        1.0, [(2, 6, 4, 4)], 4,
    ),
    "dyfusion": (6, _dyfusion, 0.5, [(2, 4, 4, 4), (2, 3, 8, 8)], 4),
}


def _block_check(name: str, seed: int) -> GradCheckReport:
    tag, build, scale, shapes, probes = _BLOCKS[name]
    rng = np.random.default_rng([seed, tag])
    module = build(rng)
    x = Parameter("input", Tensor._wrap(scale * rng.standard_normal(shapes[0])))
    rest = [ad.constant(_randn(rng, s)) for s in shapes[1:]]
    return _module_check(module, x, rest, seed, probes)


# name: (RNG tag, loss of the logits and a random binary mask)
_LOSSES = {
    "dice": (7, lambda x, t: dice_loss(ad.sigmoid(x), t)),
    "bce": (8, bce_loss),
    "hybrid": (9, lambda x, t: hybrid_loss(x, t, 0.6)),
}


def _loss_check(name: str, seed: int) -> GradCheckReport:
    tag, loss = _LOSSES[name]
    rng = np.random.default_rng([seed, tag])
    x = Parameter("input", _randn(rng, (2, 1, 5, 5)))
    target = _rand_mask(rng, (2, 1, 5, 5))
    return grad_check(lambda: loss(ad.watch(x), target), [x])


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
    **{name: partial(_block_check, name) for name in _BLOCKS},
    **{name: partial(_loss_check, name) for name in _LOSSES},
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
