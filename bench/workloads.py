"""The three benchmark workloads, each a closed loop with one client.

A workload builds its inputs from the seed in :meth:`setup`, then
:meth:`run_pass` performs a fixed amount of work and returns one
:class:`Op` per unit of user-visible work, with its output checked:

- ``tiny-train``: ``train()`` on ``ModelConfig.tiny()`` (64x64), batch 16,
  64 train / 16 valid images, augmentation on, checkpoints each epoch.
  One op is one epoch (4 steps, validation, checkpoint save).
- ``default-train``: ``train()`` on the default config (224x224), batch 2,
  two train / two valid images, no augmentation or checkpoints. One op
  is one epoch (one step and validation).
- ``default-infer``: a checkpoint saved with ``network.save`` and read back
  with ``network.load``, then ``Model.predict`` on batch-1 224x224 images,
  scored with ``losses.evaluate``. One op is one predict.

Every op of a training workload trains one epoch from a freshly
initialised model, so all ops of one seed must give bit-identical step
losses; the first complete op is the reference the later ones are checked
against.
"""

from __future__ import annotations

import importlib
import math
import os
import sys
from dataclasses import dataclass
from time import perf_counter as now

import numpy as np

from dyglnet import data, losses, network
from dyglnet.tensor import Tensor

# The package re-exports a function named ``train``; the module is wanted.
train = importlib.import_module("dyglnet.train")


@dataclass
class Op:
    """One unit of timed work: seconds is None when it never completed."""

    seconds: float | None
    samples: int
    ok: bool


@dataclass(frozen=True)
class TrainSize:
    model: network.ModelConfig
    n_train: int
    n_valid: int
    batch: int
    augment: bool
    checkpoints: bool


def _train_size(name: str, smoke: bool) -> TrainSize:
    if name == "tiny-train":
        if smoke:
            return TrainSize(network.ModelConfig.tiny(input_size=32), 4, 2, 2, True, True)
        return TrainSize(network.ModelConfig.tiny(), 64, 16, 16, True, True)
    if smoke:
        return TrainSize(network.ModelConfig(input_size=32), 2, 1, 2, False, False)
    return TrainSize(network.ModelConfig(), 2, 2, 2, False, False)


class TrainWorkload:
    """One op is one complete single-epoch ``train()`` run from a fresh
    model: steps, validation and checkpoint saves. Every op of a seed
    repeats the same work, so its step losses must repeat bit for bit."""

    def __init__(self, name: str, seed: int, smoke: bool, workdir: str, fault: bool):
        self.size = _train_size(name, smoke)
        s = self.size
        if s.n_train % s.batch:
            raise ValueError("train set must split into full batches")
        self.seed = seed
        self.fault = fault
        self.cfg = train.TrainConfig(
            total_epochs=1, warmup_epochs=0, batch_size=s.batch, seed=seed
        )
        self.aug = data.AugmentConfig(seed=seed) if s.augment else None
        self.ckpt_dir = os.path.join(workdir, "ckpt") if s.checkpoints else None
        self.steps = s.n_train // s.batch
        self.reference: train.TrainResult | None = None
        self.model: network.Model | None = None

    def setup(self) -> None:
        s = self.size
        size = s.model.input_size
        self.train_set = data.synth_dataset(s.n_train, self.seed, size)
        self.valid_set = data.synth_dataset(s.n_valid, self.seed + 1, size)
        self.model = network.Model(s.model, self.seed)
        # Warm-up forward in eval mode: it leaves the weights and the
        # batchnorm statistics untouched.
        self.model.predict(Tensor._wrap(self.valid_set[0].image.data[None].copy()))

    def prepare_checks(self) -> None:
        pass

    @property
    def val_dice(self) -> float:
        return self.reference.best_val_dice if self.reference else float("nan")

    def run_pass(self) -> list[Op]:
        model = self.model or network.Model(self.size.model, self.seed)
        self.model = None
        t0 = now()
        try:
            result = train.train(
                model, self.cfg, self.train_set, self.valid_set,
                out_dir=self.ckpt_dir, aug=self.aug,
            )
        except Exception as e:  # a run that raises is a failed op
            print(f"{type(e).__name__} in train(): {e}", file=sys.stderr)
            return [Op(None, 0, False)]
        seconds = now() - t0
        step_losses = list(result.step_losses)
        if self.fault:
            step_losses[0] = math.nan
            self.fault = False
        ok = (
            not result.aborted
            and result.steps_run == self.steps
            and all(math.isfinite(v) for v in step_losses)
            and math.isfinite(result.best_val_dice)
        )
        ref = self.reference
        if ref is None:
            if ok:
                self.reference = result
        else:
            ok = ok and step_losses == ref.step_losses and (
                result.best_val_dice == ref.best_val_dice
            )
        return [Op(seconds, self.steps * self.cfg.batch_size, ok)]


# Largest |logit| difference allowed between the f32 model and its f64
# copy, relative to the largest |logit| of the f64 copy. An untrained
# default model gives logits near 5e4 and differences near 2e-6 of that.
F64_LOGIT_RTOL = 1e-4
F64_CHECKED = 2  # images whose logits are compared against the f64 copy


class InferWorkload:
    """One pass predicts every image of the pool once; one op is one predict."""

    def __init__(self, seed: int, smoke: bool, workdir: str, fault: bool):
        self.cfg = network.ModelConfig(input_size=32) if smoke else network.ModelConfig()
        self.pool = 2 if smoke else 4
        self.seed = seed
        self.fault = fault
        self.path = os.path.join(workdir, "model.ckpt")
        self.first: dict[int, tuple[np.ndarray, float]] = {}

    def setup(self) -> None:
        size = self.cfg.input_size
        samples = data.synth_dataset(self.pool, self.seed, size)
        self.inputs = [Tensor._wrap(s.image.data[None].copy()) for s in samples]
        self.targets = [Tensor._wrap(s.mask.data[None].copy()) for s in samples]
        network.save(network.Model(self.cfg, self.seed), self.path)
        self.model = network.load(self.path)
        self.model64 = network.Model(self.cfg, seed=0, dtype="f64")
        for p64, p in zip(self.model64.parameters(), self.model.parameters()):
            p64.assign(p.value.astype("f64"))
        self.model.predict(self.inputs[0])

    def prepare_checks(self) -> None:
        """f64 reference logits; checker work, so it stays out of set-up time."""
        self.ref64 = [
            self.model64.predict(x.astype("f64")).data for x in self.inputs[:F64_CHECKED]
        ]

    @property
    def val_dice(self) -> float:
        if len(self.first) < self.pool:
            return float("nan")
        return float(np.mean([dice for _, dice in self.first.values()]))

    def run_pass(self) -> list[Op]:
        ops = []
        for i, (x, target) in enumerate(zip(self.inputs, self.targets)):
            t0 = now()
            try:
                logits = self.model.predict(x)
                dice = losses.evaluate(logits, target).dice
            except Exception as e:  # a predict that raises is a failed op
                print(f"{type(e).__name__} in predict(): {e}", file=sys.stderr)
                ops.append(Op(None, 1, False))
                continue
            seconds = now() - t0
            out = logits.data
            if self.fault:
                out = out.copy()
                out.flat[0] = np.nan
                self.fault = False
            ok = out.shape == (1, self.cfg.output_channels) + x.shape[2:] and bool(
                np.isfinite(out).all()
            )
            if ok and i < len(self.ref64):
                ref = self.ref64[i]
                err = float(np.max(np.abs(out - ref)))
                ok = err <= F64_LOGIT_RTOL * max(1.0, float(np.max(np.abs(ref))))
            if i in self.first:
                prev, prev_dice = self.first[i]
                ok = ok and np.array_equal(out, prev) and dice == prev_dice
            elif ok:
                self.first[i] = (out.copy(), dice)
            ops.append(Op(seconds, 1, ok))
        return ops


def make(name: str, seed: int, smoke: bool, workdir: str, fault: bool):
    if name == "default-infer":
        return InferWorkload(seed, smoke, workdir, fault)
    return TrainWorkload(name, seed, smoke, workdir, fault)
