"""Span tracer that measures the dyglnet modules from outside.

:func:`installed` replaces public functions and methods of the
``tensor``-level autodiff ops, ``autodiff``, ``blocks``, ``network``,
``losses``, ``train``, ``data`` and ``checkpoint`` modules with timing
wrappers, and restores the originals on exit. Every autodiff op that
records onto a tape also gets its vector-Jacobian closure wrapped, so
backward time is split per kernel kind. Nothing in ``src/`` changes.

Spans nest: a span's self time is its duration minus its children's,
and a span with no children is a leaf. Aggregates, not individual
spans, are kept, because a tiny training epoch opens ~5000 spans.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import time
from collections import defaultdict

from dyglnet import autodiff, blocks, checkpoint, data, losses, network
from dyglnet.tensor import Tensor

# The package re-exports a function named ``train``; the module is wanted.
train = importlib.import_module("dyglnet.train")

_now = time.perf_counter


class Tracer:
    """Nested span timer with per-name totals and exact counters."""

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self.total = defaultdict(float)  # span name -> inclusive seconds
        self.self_s = defaultdict(float)  # span name -> exclusive seconds
        self.calls = defaultdict(int)  # span name -> times entered
        self.count = defaultdict(float)  # counter name -> sum
        self.leaf_s = 0.0
        self.missing: list[str] = []  # traced callables absent from the modules
        self._stack: list[list] = []  # [start, child seconds, has child]

    def enter(self) -> None:
        self._stack.append([_now(), 0.0, False])

    def exit(self, name: str) -> None:
        end = _now()
        start, child_s, has_child = self._stack.pop()
        d = end - start
        self.total[name] += d
        self.self_s[name] += d - child_s
        self.calls[name] += 1
        if not has_child:
            self.leaf_s += d
        if self._stack:
            parent = self._stack[-1]
            parent[1] += d
            parent[2] = True

    def span(self, name: str, fn, after=None):
        """Wrap ``fn`` in a span; ``after(args, result)`` runs outside it."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.enter()
            try:
                out = fn(*args, **kwargs)
            finally:
                self.exit(name)
            if after is not None:
                after(args, out)
            return out

        return wrapper

    def op(self, kind_of, fn):
        """Wrap an autodiff op: time its forward under ``tensor.<kind>.fwd``
        and, when it records onto a tape, its VJP under ``.vjp``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            kind = kind_of(*args)
            self.enter()
            try:
                out = fn(*args, **kwargs)
            finally:
                self.exit(f"tensor.{kind}.fwd")
            v = out[0] if isinstance(out, tuple) else out
            flops, in_bytes = _work(kind, args, v)
            out_bytes = v.tensor.data.nbytes
            self.count[f"{kind}.flop"] += flops
            self.count[f"{kind}.bytes"] += in_bytes + out_bytes
            if v._vjp is not None:
                self.count["tape_nodes"] += 1
                v._vjp = self.timed_vjp(
                    kind, v._vjp, 2 * flops, 2 * in_bytes + out_bytes
                )
            return out

        return wrapper

    def timed_vjp(self, kind: str, vjp, flops: float, nbytes: float):
        """Wrap a VJP closure in a ``tensor.<kind>.vjp`` span."""
        name = f"tensor.{kind}.vjp"

        def timed(g):
            self.enter()
            try:
                return vjp(g)
            finally:
                self.exit(name)
                self.count[f"{kind}.flop"] += flops
                self.count[f"{kind}.bytes"] += nbytes

        return timed


# ---------------------------------------------------------------------------
# Kernel kinds and computed work (labelled "computed": derived from shapes,
# not measured). Forward bytes are the inputs read plus the output
# written; a VJP reads the saved inputs and the upstream gradient and
# writes one gradient per input, and for every counted kind its FLOPs are
# taken as twice the forward's (exact for conv and matmul: one product
# each for the input and the weight gradient).


def _conv_kind(x, w, b, spec) -> str:
    cout, cin_g, kh, kw = w.tensor.shape
    if spec.groups > 1 and cin_g == 1 and spec.groups == cout:
        return "conv_dw"
    if kh == kw == 1 and spec.groups == 1:
        return "conv_1x1"
    return "conv_dense3x3"  # every other conv of the model is a dense 3x3


def _nbytes(args) -> int:
    total = 0
    for a in args:
        if isinstance(a, autodiff.Value):
            total += a.tensor.data.nbytes
        elif isinstance(a, Tensor):
            total += a.data.nbytes
    return total


# FLOPs per output element of the element-wise kernels: the sampler does
# three lerps (sub, mul, add); softmax max, subtract, exp, sum, divide;
# batchnorm mean, subtract, square, mean, normalize (sub, div), affine
# (mul, add).
_PER_ELEMENT = {"sampler": 9, "softmax": 5, "batchnorm": 8}


def _work(kind: str, args, v) -> tuple[float, float]:
    """(forward FLOPs, input bytes) of one op call."""
    if kind in ("conv_dw", "conv_1x1", "conv_dense3x3"):
        _, cin_g, kh, kw = args[1].tensor.shape
        return 2.0 * v.tensor.size * cin_g * kh * kw, _nbytes(args[:3])
    if kind == "attn_matmul":
        k = args[0].tensor.shape[-1]
        return 2.0 * v.tensor.size * k, _nbytes(args[:2])
    if kind in _PER_ELEMENT:
        return float(_PER_ELEMENT[kind] * v.tensor.size), _nbytes(args[:5])
    return 0.0, 0.0


def _const(kind: str):
    return lambda *args: kind


_ELEMENTWISE = ("add", "sub", "mul", "scale", "tanh", "sigmoid", "relu", "sum_all", "mean_all")
_LAYOUT = ("narrow", "concat", "reshape", "transpose", "depth_to_space")


def _patches(tr: Tracer) -> list[tuple[object, str, object]]:
    """(owner, attribute, wrap) for every traced callable, where
    ``wrap(original)`` returns the replacement. A name imported into
    another module is patched where it is looked up as well."""
    ad = autodiff
    p: list[tuple[object, str, object]] = []

    def op(kind_of):
        return lambda fn: tr.op(kind_of, fn)

    def span(name, after=None):
        return lambda fn: tr.span(name, fn, after)

    # tensor kernels, reached through their autodiff ops
    p.append((ad, "conv2d", op(_conv_kind)))
    p.append((ad, "pixel_sample", op(_const("sampler"))))
    p.append((ad, "resize_bilinear", op(_const("sampler"))))
    p.append((ad, "matmul", op(_const("attn_matmul"))))
    p.append((ad, "softmax", op(_const("softmax"))))
    p.append((ad, "batchnorm2d", op(_const("batchnorm"))))
    p += [(ad, name, op(_const("elementwise"))) for name in _ELEMENTWISE]
    p += [(ad, name, op(_const("layout"))) for name in _LAYOUT]

    # the fused loss ops: forward in losses, VJP through record_op
    p.append((losses, "bce_loss", span("tensor.loss.fwd")))
    p.append((losses, "dice_loss", span("tensor.loss.fwd")))

    def record_op(fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            v = fn(*args, **kwargs)
            if v._vjp is not None:
                tr.count["tape_nodes"] += 1
                v._vjp = tr.timed_vjp("loss", v._vjp, 0.0, 0.0)
            return v

        return traced

    p.append((ad, "record_op", record_op))

    # autodiff and the training loop
    p.append((ad, "backward", span("train.backward")))
    p.append((train, "clip_grad_norm", span("train.clip")))
    p.append((train.AdamW, "step", span("train.adamw")))
    p.append((train, "evaluate_model", span("train.validate")))

    # blocks: the paper's components
    for cls in (
        blocks.ShdcBlock,
        blocks.SingleHeadAttention,
        blocks.MultiScaleDilatedConv,
        blocks.DyFusionUp,
    ):
        p.append((cls, "__call__", span(f"blocks.{cls.__name__}")))
    p.append((blocks.DyFusionUp, "upsample", span("blocks.DyFusionUp.upsample")))

    # network, losses, data, checkpoint
    p.append((network.Model, "__call__", span("network.forward")))
    p += [(network, "save", span("network.save")), (train, "save_model", span("network.save"))]
    p.append((network, "load", span("network.load")))
    for owner in (losses, train):
        p.append((owner, "hybrid_loss", span("losses.hybrid_loss")))
        p.append((owner, "evaluate", span("losses.evaluate")))
    for owner in (data, train):
        p.append((owner, "augment", span("data.augment")))
    p.append((data, "synth_dataset", span("data.synth")))

    def file_bytes(args, _out):
        tr.count["checkpoint.bytes"] += os.path.getsize(args[0])
        tr.count["checkpoint.files"] += 1

    for owner in (checkpoint, network):
        p.append((owner, "write_checkpoint", span("checkpoint.write", file_bytes)))
        p.append((owner, "read_checkpoint", span("checkpoint.read", file_bytes)))
    return p


@contextlib.contextmanager
def installed(tr: Tracer):
    """Route the dyglnet modules through ``tr`` for the ``with`` body.

    A callable that no longer exists is skipped and listed in
    ``tr.missing``; its time then shows as unattributed."""
    saved = []
    for owner, attr, wrap in _patches(tr):
        original = owner.__dict__.get(attr)
        if original is None:
            tr.missing.append(f"{owner.__name__}.{attr}")
            continue
        saved.append((owner, attr, original))
        setattr(owner, attr, wrap(original))
    try:
        yield tr
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
