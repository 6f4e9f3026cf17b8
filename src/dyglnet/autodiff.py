"""Reverse-mode automatic differentiation: the tape and every op.

The element-wise ops (add, mul, scale, tanh, sigmoid, relu, mean_all,
sum_groups) and the layout ops (concat and narrow on the channel axis,
reshape, transpose) are defined here whole: argument checks, forward and
VJP. The other ops call a ``tensor`` kernel and the VJP defined next to
it, and check the arguments of a kernel that takes arrays; ``attention``
chains the matmul, softmax and scale kernels in one node, and
``pixel_sample`` builds its coordinates from the offsets and folds
channel groups into the sampler's batch. The kernels know nothing of the
tape: every box, remake and ``StateError`` below lives in this module.

A :class:`Tape` records every differentiable op executed inside its
``with`` block as a gradient slot: its parents' slots, the VJP closure
the op hands it (upstream gradient to one gradient per parent), the
gradient summed so far and, where the op offers one, a remake that
rebuilds the output bit for bit with the forward's calls from arrays
the tape keeps anyway. A watched :class:`Parameter` is a node too, with
no parents; its VJP adds the gradient that reaches it into the
parameter's ``grad`` buffer. Only the :class:`Value` an op returns holds
its tensor, and every closure here keeps only what it reads.

Remakes follow one rule. A producer offers one where its output is
cheap to rebuild: ``batchnorm2d`` and ``pixel_sample`` from the arrays
their VJPs keep, a stride-1, unpadded 1x1 ``conv2d`` by its forward on
the input it boxes, and ``relu`` (which then keeps only its mask) from
its input's remake. A consumer that would keep its input, ``conv2d``,
``attention`` and ``pixel_sample`` (its offsets), keeps the remake
instead. ``conv2d``, ``depthwise_residual``, ``attention`` and
``pixel_sample`` keep each input in a one-item box that the VJP empties
(``_take``), running a boxed remake, before it hands the array to a
kernel, so a VJP runs once: a second call raises ``StateError``; a
remake reads its producer's box without emptying it (``_peek``).
``conv2d`` and ``depthwise_residual`` hand their kernel VJPs the array in
a one-item list of their own, which the kernel pops to free the input
mid-VJP. :func:`backward` replays the slots in reverse
creation order, so every remake runs before its producer's VJP, and
releases each slot as soon as its VJP has run. Each slot names its tape
until then, and an op whose input belongs to another tape, or to a
released slot, raises ``ContractError``. With no active tape the ops run
forward-only and record nothing, so evaluation keeps no closures and no
slots.

:func:`grad_check` compares analytic gradients against central finite
differences in float64, re-probing suspect entries at two extra step
sizes so genuine failures are separated from kink-straddling ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import tensor as T
from .errors import ContractError, DimensionError, StateError
from .tensor import ConvSpec, Tensor


class Parameter:
    """Named, trainable tensor with a gradient buffer allocated on first use.

    ``grad`` accumulates across backward passes until :meth:`zero_grad`
    releases it; read before any gradient arrives, it is zeros. So a
    model used only for inference holds no gradient memory. Non-trainable
    parameters (running statistics) are carried by the same type but
    never receive gradients or optimizer updates.
    """

    def __init__(self, name: str, value: Tensor, trainable: bool = True):
        self.name = name
        self.value = value
        self.trainable = trainable
        self._grad: np.ndarray | None = None

    @property
    def grad(self) -> np.ndarray:
        if self._grad is None:
            self._grad = np.zeros(self.value.shape, dtype=self.value.data.dtype)
        return self._grad

    @grad.setter
    def grad(self, g: np.ndarray) -> None:
        self._grad = g

    def zero_grad(self) -> None:
        self._grad = None

    def assign(self, value: Tensor) -> None:
        if value.shape != self.value.shape:
            raise DimensionError(
                f"assign to {self.name}: shape {value.shape} != {self.value.shape}"
            )
        if value.dtype != self.value.dtype:
            raise ContractError(
                f"assign to {self.name}: dtype {value.dtype} != {self.value.dtype}"
            )
        self.value = value


class _Slot:
    """What the tape keeps of one node: its parents' slots (``None`` for
    an input off the tape), its VJP, its summed upstream gradient, its
    tape (``None`` once backward has released it) and its remake or None."""

    __slots__ = ("parents", "vjp", "grad", "tape", "remake")

    def __init__(self, parents: tuple, vjp: Callable, tape: "Tape",
                 remake: Callable | None):
        self.parents, self.vjp, self.grad = parents, vjp, None
        self.tape, self.remake = tape, remake


class Value:
    """A tensor plus its gradient slot, which the tape holds instead of
    the tensor; ``_slot`` is None off the tape (constants, untaped ops)."""

    __slots__ = ("tensor", "_slot")

    def __init__(self, tensor: Tensor, slot: _Slot | None = None):
        self.tensor = tensor
        self._slot = slot

    @property
    def _vjp(self) -> Callable | None:
        """The slot's VJP, or None. Only ``bench/tracer.py`` uses it, to wrap
        VJPs in timers; it goes with that wrapping (ROADMAP item 1)."""
        return None if self._slot is None else self._slot.vjp

    @_vjp.setter
    def _vjp(self, vjp: Callable) -> None:
        self._slot.vjp = vjp


_ACTIVE: "Tape | None" = None


class Tape:
    """Recording context for one backward pass: slots only, no tensors."""

    def __init__(self):
        self._nodes: list[_Slot] = []
        self._consumed = False
        self._outer: Tape | None = None

    def __enter__(self) -> "Tape":
        global _ACTIVE
        self._outer = _ACTIVE
        _ACTIVE = self
        return self

    def __exit__(self, *exc) -> None:
        global _ACTIVE
        _ACTIVE = self._outer
        self._outer = None


def watch(param: Parameter) -> Value:
    """Graph input for a parameter: on an active tape, a node with no
    parents whose VJP adds the gradient that reaches it into
    ``param.grad``, unchecked: the optimizer checks gradients once."""

    def vjp(g):
        if param.trainable:
            # a first gradient lands as a new array g + 0: bitwise zeros + g
            g0 = param._grad
            param._grad = g + g.dtype.type(0) if g0 is None else g0 + g
        return ()

    return _record(param.value, (), vjp)


def constant(x) -> Value:
    """Non-differentiable graph input."""
    return Value(x if isinstance(x, Tensor) else Tensor(x))


def backward(loss: Value, tape: Tape) -> None:
    """Accumulate d(loss)/d(param) into every watched parameter's grad."""
    if tape._consumed:
        raise StateError("tape already consumed by a backward pass")
    if loss.tensor.size != 1:
        raise ContractError(f"loss must be scalar, got shape {loss.tensor.shape}")
    if loss._slot is None or loss._slot.tape is not tape:
        raise ContractError("loss was not recorded on this tape")
    tape._consumed = True
    loss._slot.grad = np.ones((1,), dtype=loss.tensor.data.dtype)
    nodes = tape._nodes
    while nodes:
        # Pop each slot and drop its closure, upstream gradient and
        # parent links as soon as its VJP has run, so the activations
        # and gradients the rest of the walk no longer needs are freed.
        s = nodes.pop()
        gv, vjp, parents = s.grad, s.vjp, s.parents
        s.grad, s.vjp, s.parents, s.tape, s.remake = None, None, (), None, None
        if gv is None:
            continue
        grads = vjp(gv)
        del gv, vjp
        for parent, g in zip(parents, grads):
            if g is None or parent is None:
                continue
            if parent.grad is None:
                parent.grad = g
            else:
                parent.grad = parent.grad + g


def _record(y: Tensor, parents: tuple, vjp: Callable, remake: Callable | None = None) -> Value:
    tape = _ACTIVE
    if tape is None:
        return Value(y)
    slots = tuple(p._slot for p in parents)
    if any(s is not None and s.tape is not tape for s in slots):
        raise ContractError(
            "an op input was recorded on another tape, or its tape already "
            "ran backward"
        )
    tape._nodes.append(slot := _Slot(slots, vjp, tape, remake))
    return Value(y, slot)


def _take(box: list) -> np.ndarray:
    """The array (or the remake, called) that a VJP's one-item box gives
    up so that the VJP can free it; an empty box means it ran."""
    x = _peek(box)
    box.clear()
    return x


def _peek(box: list) -> np.ndarray:
    """What ``_take`` gives, leaving the box as it is: a remake that reads
    the array before the VJP frees it."""
    if not box:
        raise StateError("this VJP already ran and released its saved input")
    return box[0]() if callable(box[0]) else box[0]


def record_op(y: Tensor, parents: tuple, vjp: Callable) -> Value:
    """Register a custom differentiable op.

    ``vjp`` maps the upstream gradient array to one gradient array (or
    None) per parent; it is kept only when a tape is active.
    """
    return _record(y, parents, vjp)


def _reduce_to(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient down to a broadcast operand's shape."""
    if g.shape == shape:
        return g
    if shape == (1,):
        return np.asarray([np.sum(g, dtype=np.float64)], dtype=g.dtype)
    # per-channel vector against NCHW
    return g.sum(axis=(0, 2, 3))


# ---------------------------------------------------------------------------
# Element-wise ops

# A binary op's second operand has the first's shape, is a scalar of
# shape (1,), or is a per-channel vector [C] against an NCHW operand.


def _broadcast_other(x: np.ndarray, o: np.ndarray) -> np.ndarray:
    if o.shape == x.shape or o.shape == (1,):
        ob = o
    elif x.ndim == 4 and o.ndim == 1 and o.shape[0] == x.shape[1]:
        ob = o.reshape(1, -1, 1, 1)
    else:
        raise DimensionError(f"cannot broadcast operand {o.shape} against {x.shape}")
    T._check_same_dtype(x, o)
    return ob


def add(x: Value, other: Value) -> Value:
    xd, oshape = x.tensor.data, other.tensor.shape
    y = Tensor._wrap(xd + _broadcast_other(xd, other.tensor.data))
    return _record(y, (x, other), lambda g: (g, _reduce_to(g, oshape)))


def mul(x: Value, other: Value) -> Value:
    xd, od = x.tensor.data, other.tensor.data
    ob = _broadcast_other(xd, od)
    y = Tensor._wrap(xd * ob)
    return _record(y, (x, other), lambda g: (g * ob, _reduce_to(g * xd, od.shape)))


def scale(x: Value, s: float) -> Value:
    c = x.tensor.data.dtype.type(s)
    y = Tensor._wrap(x.tensor.data * c)
    return _record(y, (x,), lambda g: (g * c,))


def tanh(x: Value) -> Value:
    yd = np.tanh(x.tensor.data)
    return _record(Tensor._wrap(yd), (x,), lambda g: (g * (1.0 - yd * yd),))


def sigmoid(x: Value) -> Value:
    yd = T._sigmoid_forward(x.tensor.data)
    return _record(Tensor._wrap(yd), (x,), lambda g: (g * yd * (1.0 - yd),))


def relu(x: Value) -> Value:
    yd, s = np.maximum(x.tensor.data, 0), x._slot
    if s is None or s.remake is None:
        return _record(Tensor._wrap(yd), (x,), lambda g: (g * (yd > 0),))
    mask, src = yd > 0, s.remake  # keep the mask, remake the output
    return _record(Tensor._wrap(yd), (x,), lambda g: (g * mask,), lambda: np.maximum(src(), 0))


# ---------------------------------------------------------------------------
# Linear algebra


def matmul(a: Value, b: Value) -> Value:
    y = T.matmul(a.tensor, b.tensor)
    ad, bd = a.tensor.data, b.tensor.data
    return _record(y, (a, b), lambda g: T._matmul_vjp(ad, bd, g))


def softmax(x: Value, axis: int = -1) -> Value:
    xd = x.tensor.data
    if not -xd.ndim <= axis < xd.ndim:
        raise DimensionError(f"axis {axis} out of range for shape {xd.shape}")
    yd = T._softmax_forward(xd, axis)
    return _record(Tensor._wrap(yd), (x,), lambda g: (T._softmax_vjp(yd, g, axis),))


def attention(qkv: Value) -> Value:
    """Single-head attention over the h*w tokens of qkv [n, 3c, h, w],
    whose channel thirds are q, k and v: softmax(q^T k / sqrt(c)) v over
    the keys, as [n, c, h, w]. One node that keeps qkv, or boxes its
    remake: the VJP rebuilds the operands and the [n, hw, hw] weights
    with the forward's calls, runs the matmul, softmax, scale and matmul
    VJPs and returns one [n, 3c, h, w] gradient."""
    d = qkv.tensor.data
    if d.ndim != 4 or d.shape[1] % 3:
        raise DimensionError(f"attention needs a [n, 3c, h, w] qkv map, got {d.shape}")
    n, c3, h, w = shape = d.shape
    c, p = c3 // 3, h * w
    s, src = d.dtype.type(1.0 / math.sqrt(c)), None if qkv._slot is None else qkv._slot.remake
    box = [d if src is None else src]  # the VJP takes qkv out of its box

    def operands(d: np.ndarray) -> tuple[np.ndarray, ...]:
        """q and v as contiguous [n, p, c] tokens, k as contiguous
        [n, c, p] rows, and the weights: (q, k, softmax(q @ k * s), v)."""
        rows = d.reshape(n, 3, c, p)
        q = np.ascontiguousarray(rows[:, 0].transpose(0, 2, 1))
        k = np.ascontiguousarray(rows[:, 1])
        a = np.matmul(q, k) * s
        return q, k, T._softmax_forward(a, 2), np.ascontiguousarray(rows[:, 2].transpose(0, 2, 1))

    def vjp(g):
        q, k, a, v = operands(_take(box))
        g = np.ascontiguousarray(g.reshape(n, c, p).transpose(0, 2, 1))
        ga, gv = T._matmul_vjp(a, v, g)
        gs = T._softmax_vjp(a, ga, 2)
        del a, ga, v
        gs *= s
        gq, gk = T._matmul_vjp(q, k, gs)
        gd = np.empty((n, 3, c, p), dtype=g.dtype)
        gd[:, 0], gd[:, 1], gd[:, 2] = gq.transpose(0, 2, 1), gk, gv.transpose(0, 2, 1)
        return (gd.reshape(shape),)

    y = np.matmul(*operands(d)[2:]).transpose(0, 2, 1)  # [n, c, p]
    return _record(Tensor._wrap(y.reshape(n, c, h, w)), (qkv,), vjp)


def conv2d(x: Value, weight: Value, bias: Value, spec: ConvSpec) -> Value:
    y = T.conv2d(x.tensor, weight.tensor, bias.tensor, spec)
    src = None if x._slot is None else x._slot.remake
    xs = [x.tensor.data if src is None else src]  # the VJP takes x out of its box
    wd, bd = weight.tensor.data, bias.tensor.data
    with_gx = x._slot is not None  # gx is None for a constant input
    remake = None
    if wd.shape[2:] == (1, 1) and (spec.stride, spec.padding) == (1, 0):
        def remake():  # a stride-1, unpadded 1x1 conv's forward on its boxed input
            return T._conv2d_forward(_peek(xs), wd, bd, spec)

    return _record(
        y, (x, weight, bias), lambda g: T._conv2d_vjp([_take(xs)], wd, spec, g, with_gx), remake
    )


def depthwise_residual(
    parts: Sequence[Value],
    weights: Sequence[Value],
    dilations: Sequence[int],
    bias: Value | None = None,
) -> Value:
    """x + sum_k dwconv3x3(x, weights[k]; dilation = padding = dilations[k])
    (+ bias) as one op and one tape node, x being the channel concatenation
    of ``parts``, never formed. Each weight is [C, 1, 3, 3]; the bias is
    per-channel or None. A part off the tape gets no input gradient."""
    parts, dilations = tuple(parts), tuple(dilations)
    with_bias = bias is not None
    xds, wds = [p.tensor.data for p in parts], [w.tensor.data for w in weights]
    bd = bias.tensor.data if with_bias else None
    c = _check_channel_parts(xds)  # no parts fail the weight shape check below
    if not wds or len(wds) != len(dilations):
        raise ContractError(f"{len(wds)} weights for dilations {dilations}; need one each")
    if any(d < 1 for d in dilations):
        raise ContractError(f"dilations must be >= 1, got {dilations}")
    for wd in wds:
        if wd.shape != (c, 1, 3, 3):
            raise DimensionError(f"depthwise weight shape {wd.shape} != ({c}, 1, 3, 3)")
    if with_bias and bd.shape != (c,):
        raise DimensionError(f"bias shape {bd.shape} != ({c},)")
    T._check_same_dtype(xds[0], *wds, *([bd] if with_bias else []))
    y = Tensor._wrap(T._dw_residual_forward(xds, wds, dilations, bd))
    xs = [[xd] for xd in xds]  # the VJP takes each part out of its box
    with_gx = [p._slot is not None for p in parts]
    parents = (*parts, *weights, bias) if with_bias else (*parts, *weights)

    def vjp(g):
        taken = [[_take(box)] for box in xs]  # the kernel pops each part
        gxs, gws, gb = T._dw_residual_vjp(taken, wds, dilations, g, with_gx, with_bias)
        return (*gxs, *gws, gb) if with_bias else (*gxs, *gws)

    return _record(y, parents, vjp)


def batchnorm2d(
    x: Value,
    gamma: Value,
    beta: Value,
    running_mean: Tensor,
    running_var: Tensor,
    training: bool,
) -> tuple[Value, Tensor, Tensor]:
    """Per-channel batchnorm of an NCHW batch, as ``(y, new running mean,
    new running var)``: the running statistics flow outside the graph,
    and eval mode normalizes with them and returns them unchanged. The
    output's remake normalizes the x the VJP keeps once more."""
    xd, gd, bd = x.tensor.data, gamma.tensor.data, beta.tensor.data
    if xd.ndim != 4:
        raise DimensionError(f"batchnorm2d input must be rank 4, got {xd.shape}")
    per_channel = {"gamma": gd, "beta": bd, "running_mean": running_mean.data,
                   "running_var": running_var.data}
    for name, a in per_channel.items():
        if a.shape != (xd.shape[1],):
            raise DimensionError(f"{name} shape {a.shape} != ({xd.shape[1]},)")
    T._check_same_dtype(xd, *per_channel.values())
    if training:
        mean, var, new_mean, new_var = T._bn_train_stats(xd, running_mean.data, running_var.data)
        new_mean, new_var = Tensor._wrap(new_mean), Tensor._wrap(new_var)
    else:
        mean, var = running_mean.data, running_var.data
        new_mean, new_var = running_mean, running_var

    def remake():
        return T._bn_normalize(xd, mean, var, gd, bd)

    vjp = T._batchnorm2d_vjp(xd, gd, mean, var, training)
    return _record(Tensor._wrap(remake()), (x, gamma, beta), vjp, remake), new_mean, new_var


# ---------------------------------------------------------------------------
# Sampling


def pixel_sample(x: Value, o: Value | None, s: int, scale: float) -> Value:
    """DySample's sampling stage: x [N, C, H, W] read bilinearly at the
    s x resize lattice plus depth_to_space(o, s) * scale, giving [N, C,
    s*H, s*W]; see tensor module for the border convention. Offset
    channel (2j + coord)*s*s + a*s + b of o [N, 2G*s*s, H, W] shifts
    sub-pixel (a, b) of channel group j's x (coord 0) or y (coord 1);
    with o None, G = 1 and x is read at the lattice itself. The groups
    fold into the sampler's batch as numpy views ([N*G, C/G, H, W] at
    [N*G, 2, s*s*H*W] pixel coordinates), so G groups are one call. The
    tape keeps only x and o, or o's remake: the VJP builds the
    coordinates again, and the corners and fractions chunk by chunk, and
    computes no offset gradient for constant offsets. The output's remake
    builds the coordinates and hands them to the VJP, so a VJP after a
    remake builds none."""
    xd, od = x.tensor.data, None if o is None else o.tensor.data
    if xd.ndim != 4 or s < 1:
        raise DimensionError(f"pixel_sample by {s} needs a rank-4 input, got {xd.shape}")
    xshape, oshape, g = xd.shape, None, 1
    n, c, h, w = xshape
    if od is not None:
        oshape = od.shape
        if od.ndim != 4 or (oshape[0], *oshape[2:]) != (n, h, w) or oshape[1] % (2 * s * s):
            raise DimensionError(f"offsets {oshape} for input {xshape} sampled by {s}")
        T._check_same_dtype(xd, od)
        g = oshape[1] // (2 * s * s)
    if c % g:
        raise DimensionError(f"{c} channels do not split into {g} offset groups")
    xf, folded, dt = xd.reshape(n * g, c // g, h, w), (n * g, 2, s * s * h * w), xd.dtype
    k, with_go = dt.type(scale), o is not None and o._slot is not None

    def coords(offsets):
        u = T._resize_coords(n * g, h, w, s * h, s * w, dt)
        if offsets is not None:  # depth_to_space(offsets, s), a view until it is scaled
            d = offsets.reshape(n, 2 * g, s, s, h, w).transpose(0, 1, 4, 2, 5, 3)
            u += np.multiply(d, k, order="C").reshape(folded)
        return u

    src = None if o is None or o._slot is None else o._slot.remake
    obox = [od if src is None else src]
    ubox = [lambda: coords(_peek(obox))]  # the VJP takes u out of its box

    def remake():
        ubox[0] = u = _peek(ubox)
        return T._sample_pixel_forward(xf, u).reshape(n, c, s * h, s * w)

    def vjp(gy):
        gx, gu = T._sample_pixel_vjp(xf, _take(ubox), gy.reshape(n * g, c // g, -1), with_go)
        if not with_go:
            return gx.reshape(xshape), None
        go = gu.reshape(n, 2 * g, h, s, w, s).transpose(0, 1, 3, 5, 2, 4)  # space_to_depth
        return gx.reshape(xshape), np.multiply(go, k, order="C").reshape(oshape)

    y = T._sample_pixel_forward(xf, coords(od)).reshape(n, c, s * h, s * w)
    return _record(Tensor._wrap(y), (x,) if o is None else (x, o), vjp, remake)


# ---------------------------------------------------------------------------
# Structure ops


def _check_channel_parts(parts: list[np.ndarray]) -> int:
    """The channel count of rank-4 maps that differ only in channels and
    share one dtype; 0 for no parts."""
    for a in parts:
        if a.ndim != 4 or a.shape[:1] + a.shape[2:] != parts[0].shape[:1] + parts[0].shape[2:]:
            raise DimensionError(f"channel parts {parts[0].shape} and {a.shape} are "
                                 "not rank-4 maps differing only in channels")
    T._check_same_dtype(*parts)
    return sum(a.shape[1] for a in parts)


def concat(parts: Sequence[Value]) -> Value:
    """The channel concatenation of rank-4 maps."""
    if not parts:
        raise ContractError("concat of zero tensors")
    arrays = [p.tensor.data for p in parts]
    _check_channel_parts(arrays)
    y = Tensor._wrap(np.concatenate(arrays, axis=1))
    ends = np.cumsum([0] + [a.shape[1] for a in arrays]).tolist()
    return _record(y, tuple(parts), lambda g: tuple(
        np.ascontiguousarray(g[:, a:b]) for a, b in zip(ends, ends[1:])
    ))


def narrow(x: Value, start: int, size: int) -> Value:
    """Channels [start, start + size) of a rank-4 map."""
    xd = x.tensor.data
    if xd.ndim != 4 or start < 0 or size < 1 or start + size > xd.shape[1]:
        raise DimensionError(f"cannot narrow {xd.shape} to channels [{start}:{start + size})")
    y = Tensor._wrap(xd[:, start : start + size].copy())
    xshape = xd.shape

    def vjp(g):
        gx = np.zeros(xshape, dtype=g.dtype)
        gx[:, start : start + size] = g
        return (gx,)

    return _record(y, (x,), vjp)


def reshape(x: Value, shape: tuple[int, ...]) -> Value:
    xshape = x.tensor.shape
    if int(np.prod(shape)) != x.tensor.size or any(s < 1 for s in shape):
        raise DimensionError(f"cannot reshape {xshape} to {shape}")
    y = Tensor._wrap(x.tensor.data.reshape(shape))
    return _record(y, (x,), lambda g: (g.reshape(xshape),))


def transpose(x: Value, axes: tuple[int, ...]) -> Value:
    if sorted(axes) != list(range(x.tensor.rank)):
        raise DimensionError(
            f"axes {axes} is not a permutation of rank {x.tensor.rank}"
        )
    y = Tensor._wrap(np.ascontiguousarray(x.tensor.data.transpose(axes)))
    inv = tuple(np.argsort(axes))
    return _record(y, (x,), lambda g: (np.ascontiguousarray(g.transpose(inv)),))


def sum_groups(x: Value, groups: int) -> Value:
    """[N, G*C, H, W] -> [N, C, H, W], the sum of the G channel groups;
    the VJP tiles the gradient into one array, not G zero-padded ones."""
    if x.tensor.rank != 4 or groups < 1:
        raise DimensionError(f"cannot sum {x.tensor.shape} over {groups} channel groups")
    n, gc, h, w = x.tensor.shape
    if gc % groups:
        raise DimensionError(f"{gc} channels do not split into {groups} groups")
    y = Tensor._wrap(x.tensor.data.reshape(n, groups, gc // groups, h, w).sum(axis=1))
    return _record(y, (x,), lambda g: (np.tile(g, (1, groups, 1, 1)),))


def mean_all(x: Value) -> Value:
    xd = x.tensor.data
    shape, dt, n = xd.shape, xd.dtype, xd.size
    y = Tensor._wrap(np.asarray([np.sum(xd, dtype=np.float64) / n], dtype=dt))
    return _record(y, (x,), lambda g: (np.full(shape, g[0] / n, dtype=dt),))


# ---------------------------------------------------------------------------
# Finite-difference gradient checking

_FD_EPS = 1e-5  # central-difference step; re-probes use twice and half of it
_FD_TOL = 1e-4  # largest relative error an entry may show and pass


@dataclass
class GradCheckReport:
    """Outcome of one finite-difference sweep."""

    max_rel_err: float = 0.0
    checked: int = 0
    skipped: int = 0

    @property
    def passed(self) -> bool:
        return self.checked > 0 and self.max_rel_err <= _FD_TOL


def _rel_err(a: float, n: float) -> float:
    return abs(a - n) / max(abs(a), abs(n), 1e-8)


def grad_check(
    fn: Callable[[], Value],
    params: Sequence[Parameter],
    max_entries_per_param: int | None = None,
    rng: np.random.Generator | None = None,
) -> GradCheckReport:
    """Compare analytic gradients of ``fn()`` against central differences
    of step ``_FD_EPS``, to relative error ``_FD_TOL``.

    ``fn`` must rebuild the scalar loss from the current parameter
    values on every call. All parameters must be float64. When
    ``max_entries_per_param`` is set, a seeded random subset of entries
    is probed instead of every entry. Entries where the finite
    difference itself is unstable under step-size changes (a kink
    within the probe window) are skipped, not failed.
    """
    trainables = [p for p in params if p.trainable]
    for p in trainables:
        if p.value.dtype != "f64":
            raise ContractError(f"grad_check requires f64 parameters ({p.name})")
    for p in trainables:
        p.zero_grad()
    with Tape() as tape:
        loss = fn()
    backward(loss, tape)
    analytic = {p.name: p.grad.copy() for p in trainables}

    def eval_at(param: Parameter, idx: tuple, delta: float) -> float:
        base = param.value
        arr = base.numpy()
        arr[idx] += delta
        param.assign(Tensor._wrap(arr))
        out = fn().tensor.item()
        param.assign(base)
        return out

    def fd(param: Parameter, idx: tuple, h: float) -> float:
        return (eval_at(param, idx, h) - eval_at(param, idx, -h)) / (2.0 * h)

    report = GradCheckReport()
    for p in trainables:
        size = p.value.size
        if max_entries_per_param is not None and size > max_entries_per_param:
            if rng is None:
                raise ContractError("sampled grad_check needs an rng")
            flat = np.sort(rng.choice(size, size=max_entries_per_param, replace=False))
        else:
            flat = np.arange(size)
        for f in flat:
            idx = np.unravel_index(int(f), p.value.shape)
            a = float(analytic[p.name][idx])
            n = fd(p, idx, _FD_EPS)
            err = _rel_err(a, n)
            if err > _FD_TOL:
                # Re-probe at other step sizes: a difference quotient
                # that moves with the step is either a kink or pure
                # rounding noise (a structurally zero gradient), and
                # neither says anything about the analytic value.
                probes = [n, fd(p, idx, 2 * _FD_EPS), fd(p, idx, _FD_EPS / 2)]
                span = max(probes) - min(probes)
                scale_p = max(abs(q) for q in probes)
                if scale_p > 0.0 and span > 0.1 * scale_p:
                    report.skipped += 1
                    continue
                n = probes[2]
                err = _rel_err(a, n)
            report.checked += 1
            report.max_rel_err = max(report.max_rel_err, err)
    return report
