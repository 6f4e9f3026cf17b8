"""Training loop: AdamW with decoupled decay, warmup + poly decay, clipping.

The loop is fully deterministic for a fixed seed: shuffling, batching,
augmentation draws, and every numeric update replay bit-identically.
"""

from __future__ import annotations

import ctypes
import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter, Tape
from .configtext import check_positive, check_types
from .data import AugmentConfig, SegmentationSample, augment
from .errors import ConfigurationError, ContractError, NumericError
from .losses import MetricsReport, _check_threshold, evaluate, hybrid_loss
from .network import Model, save as save_model
from .tensor import Tensor


@dataclass(frozen=True)
class TrainConfig:
    """Optimizer and schedule settings."""

    lr0: float = 1e-3
    weight_decay: float = 3e-5
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    warmup_epochs: int = 10
    total_epochs: int = 130
    poly_power: float = 0.9
    batch_size: int = 16
    clip_norm: float = 1.0
    seed: int = 42
    lambda_: float = 0.5

    def __post_init__(self):
        check_types(self)
        check_positive(self, "lr0", "adam_eps", "poly_power", "clip_norm")
        check_positive(self, "weight_decay", zero_ok=True)
        for name in ("beta1", "beta2"):
            b = getattr(self, name)
            if not 0.0 <= b < 1.0:
                raise ConfigurationError(f"{name} must lie in [0,1), got {b}")
        if self.warmup_epochs < 0:
            raise ConfigurationError(f"warmup_epochs must be >= 0, got {self.warmup_epochs}")
        if self.total_epochs < 1:
            raise ConfigurationError(f"total_epochs must be >= 1, got {self.total_epochs}")
        if self.warmup_epochs >= self.total_epochs:
            raise ConfigurationError(
                f"warmup_epochs {self.warmup_epochs} must be smaller than "
                f"total_epochs {self.total_epochs}"
            )
        if self.seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {self.seed}")
        if self.batch_size < 2:
            # train() drops one-sample batches from sets of two or more
            # samples, so a batch size of 1 would run no step at all.
            raise ConfigurationError(f"batch_size must be >= 2, got {self.batch_size}")
        if not 0.0 <= self.lambda_ <= 1.0:
            raise ConfigurationError(f"lambda_ must lie in [0,1], got {self.lambda_}")


def lr_at(epoch: int, cfg: TrainConfig) -> float:
    """Linear warmup to lr0, then polynomial decay to zero.

    During warmup the rate is lr0 * epoch / warmup_epochs (zero at
    epoch 0); afterwards it is lr0 * (1 - progress)^poly_power where
    progress spans the remaining epochs and reaches exactly 1 at
    total_epochs.
    """
    if epoch < 0:
        raise ContractError(f"epoch must be >= 0, got {epoch}")
    if cfg.warmup_epochs > 0 and epoch < cfg.warmup_epochs:
        return cfg.lr0 * epoch / cfg.warmup_epochs
    span = cfg.total_epochs - cfg.warmup_epochs
    progress = (epoch - cfg.warmup_epochs) / span
    if progress >= 1.0:
        return 0.0
    return cfg.lr0 * (1.0 - progress) ** cfg.poly_power


def clip_grad_norm(params: list[Parameter], max_norm: float) -> float:
    """Scale all gradients so their joint L2 norm is at most max_norm.

    Returns the applied scale (1.0 when untouched); ``max_norm`` must be
    finite and positive. The f64 norm is ``train``'s gradient check: a
    non-finite one raises ``NumericError``, naming each non-finite gradient.
    """
    if not 0.0 < max_norm < math.inf:
        raise ContractError(f"max_norm must be finite and positive, got {max_norm}")
    norm = math.sqrt(sum(float(np.sum(p.grad.astype(np.float64) ** 2)) for p in params))
    if not math.isfinite(norm):
        bad = ", ".join(repr(p.name) for p in params if not np.isfinite(p.grad).all())
        raise NumericError(f"gradient norm {norm}, non-finite in {bad or 'none (overflow)'}")
    if norm <= max_norm:
        return 1.0
    scale = max_norm / norm
    for p in params:
        p.grad *= p.grad.dtype.type(scale)
    return scale


class AdamW:
    """Adam with bias correction and decoupled weight decay.

    The decay is applied multiplicatively: theta <- theta * (1 - lr*wd)
    before the gradient-driven update is subtracted, so a zero-gradient
    step is an exact rescale of the weights.
    """

    def __init__(self, params: list[Parameter], cfg: TrainConfig):
        if not params:
            raise ContractError("optimizer needs at least one parameter")
        self.params = params
        self.cfg = cfg
        self.step_count = 0
        self._m = [np.zeros_like(p.value.data) for p in params]
        self._v = [np.zeros_like(p.value.data) for p in params]

    def step(self, lr: float) -> None:
        """One update; a bad ``lr`` or gradient raises before any state moves."""
        if not 0.0 <= lr < math.inf:
            raise ContractError(f"lr must be finite and >= 0, got {lr}")
        for p in self.params:
            if not np.isfinite(p.grad).all():
                raise NumericError(f"non-finite gradient for parameter {p.name!r}")
        cfg = self.cfg
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - cfg.beta1**t
        bc2 = 1.0 - cfg.beta2**t
        for p, m, v in zip(self.params, self._m, self._v):
            g = p.grad
            dt = p.value.data.dtype
            b1, b2 = dt.type(cfg.beta1), dt.type(cfg.beta2)
            m *= b1
            m += (dt.type(1.0) - b1) * g
            v *= b2
            v += (dt.type(1.0) - b2) * g * g
            m_hat = m / dt.type(bc1)
            v_hat = v / dt.type(bc2)
            update = dt.type(lr) * m_hat / (np.sqrt(v_hat) + dt.type(cfg.adam_eps))
            decay = dt.type(1.0 - lr * cfg.weight_decay)
            p.assign(Tensor._wrap(p.value.data * decay - update))

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()


# glibc mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_heap_pages() -> None:
    """Ask glibc's malloc to keep freed memory for the next step.

    ``backward`` frees the tape while it walks it. By default glibc
    returns the exposed heap top to the OS, and the next VJP faults
    the same pages back in. Blocks up to 32 MiB go to the heap, and the
    heap is never trimmed. Setting the trim threshold alone would also
    switch off glibc's dynamic mmap threshold, so both are set. A libc
    without ``mallopt`` is left as it is.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 2**31 - 1)


@dataclass
class TrainResult:
    epochs_run: int
    steps_run: int
    best_val_dice: float
    best_epoch: int
    final_metrics: MetricsReport | None
    step_losses: list[float] = field(default_factory=list)
    aborted: bool = False


def _stack(samples: list[SegmentationSample]) -> tuple[Tensor, Tensor]:
    x = np.stack([s.image.data for s in samples])
    y = np.stack([s.mask.data for s in samples])
    return Tensor._wrap(x), Tensor._wrap(y)


_EVAL_CHUNK = 8  # validation samples per forward


def evaluate_model(
    model: Model,
    samples: list[SegmentationSample],
    threshold: float = 0.5,
) -> MetricsReport:
    """Run the model over a sample list in eval mode, ``_EVAL_CHUNK``
    samples per forward, and score it."""
    if not samples:
        raise ContractError("cannot evaluate on an empty sample list")
    _check_threshold(threshold)
    logits = []
    for i in range(0, len(samples), _EVAL_CHUNK):
        x = np.stack([s.image.data for s in samples[i : i + _EVAL_CHUNK]])
        logits.append(model.predict(Tensor._wrap(x)).data)
    pred = Tensor._wrap(np.concatenate(logits, axis=0))
    target = Tensor._wrap(np.stack([s.mask.data for s in samples]))
    return evaluate(pred, target, threshold=threshold)


def train(
    model: Model,
    cfg: TrainConfig,
    train_samples: list[SegmentationSample],
    valid_samples: list[SegmentationSample],
    out_dir: str | None = None,
    aug: AugmentConfig | None = None,
    log=None,
    max_steps: int | None = None,
) -> TrainResult:
    """Optimize the model; returns the loss/metric trace.

    Per epoch: deterministic reshuffle, hybrid-loss steps over batches
    (a trailing batch smaller than two samples is dropped), then a
    validation pass. The best-validation-Dice weights go to best.ckpt,
    the most recent completed epoch to last.ckpt, and the final weights
    to final.ckpt. A non-finite loss or gradient norm aborts the step
    before a weight moves and keeps the last completed epoch's
    checkpoint. On glibc, freed heap pages are kept for the next step.
    """
    if not train_samples:
        raise ContractError("training set is empty")
    if not valid_samples:
        raise ContractError("validation set is empty")
    _keep_freed_heap_pages()
    params = model.parameters(trainable_only=True)
    opt = AdamW(params, cfg)
    shuffle_rng = np.random.default_rng(cfg.seed)
    aug_rng = np.random.default_rng([cfg.seed, 0xA06])
    result = TrainResult(0, 0, -1.0, -1, None)
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
    emit = log if log is not None else (lambda line: None)
    for epoch in range(cfg.total_epochs):
        lr = lr_at(epoch, cfg)
        order = shuffle_rng.permutation(len(train_samples))
        epoch_losses = []
        for start in range(0, len(order), cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            if len(idx) < 2 and len(order) >= 2:
                continue
            batch = [train_samples[int(i)] for i in idx]
            if aug is not None:
                batch = [augment(s, aug_rng) for s in batch]
            x, y = _stack(batch)
            try:
                with Tape() as tape:
                    logits = model(ad.constant(x), training=True)
                    loss = hybrid_loss(logits, y, cfg.lambda_)
                    loss_val = float(loss.tensor.item())
                    ad.backward(loss, tape)
                clip_grad_norm(params, cfg.clip_norm)
                opt.step(lr)
            except NumericError as e:
                emit(
                    f"abort: {e} at epoch={epoch} step={result.steps_run}; "
                    f"keeping the last completed checkpoint"
                )
                result.aborted = True
                return result
            opt.zero_grad()
            epoch_losses.append(loss_val)
            result.step_losses.append(loss_val)
            result.steps_run += 1
            if max_steps is not None and result.steps_run >= max_steps:
                break
        metrics = evaluate_model(model, valid_samples)
        result.final_metrics = metrics
        result.epochs_run = epoch + 1
        mean_loss = sum(epoch_losses) / len(epoch_losses)
        emit(
            f"epoch={epoch} lr={lr:g} loss={mean_loss:g} "
            f"val_dice={metrics.dice:g} val_iou={metrics.iou:g}"
        )
        if out_dir is not None:
            save_model(model, os.path.join(out_dir, "last.ckpt"))
        if metrics.dice > result.best_val_dice:
            result.best_val_dice = metrics.dice
            result.best_epoch = epoch
            if out_dir is not None:
                save_model(model, os.path.join(out_dir, "best.ckpt"))
        if max_steps is not None and result.steps_run >= max_steps:
            break
    if out_dir is not None:
        save_model(model, os.path.join(out_dir, "final.ckpt"))
    return result
