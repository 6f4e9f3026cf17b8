"""Reverse-mode automatic differentiation: the tape and every op.

The element-wise ops (add, mul, scale, tanh, sigmoid, relu, mean_all)
and the layout ops (concat, narrow, split, reshape, transpose) are
defined here whole: argument checks, forward and VJP.
The other ops wrap a ``tensor`` kernel and the VJP defined next to it.

A :class:`Tape` records every differentiable op executed inside its
``with`` block as a gradient slot: its parents' slots, the VJP closure
the op hands it (upstream gradient to one gradient per parent) and the
gradient summed so far. A watched :class:`Parameter` is a node too, with
no parents; its VJP adds the gradient that reaches it into the
parameter's ``grad`` buffer. Only the :class:`Value` an op returns holds
its tensor, so the tape keeps an output alive only through a VJP that
reads it; every closure here keeps only what it reads. ``conv2d`` and
``depthwise_residual`` hand their input to the VJP in a one-item box,
and the VJP releases it once read, so it runs once: a second call
raises ``StateError``. :func:`backward` replays the slots in reverse
creation order and releases each one as soon as its VJP has run. Each
slot names its tape until then, and an op whose input belongs to
another tape, or to a released slot, raises ``ContractError``. With no
active tape the ops run forward-only and record nothing, so evaluation
keeps no closures and no slots.

:func:`grad_check` compares analytic gradients against central finite
differences in float64, re-probing suspect entries at two extra step
sizes so genuine failures are separated from kink-straddling ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import tensor as T
from .errors import ContractError, DimensionError, NumericError, StateError
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
    an input off the tape), its VJP, its summed upstream gradient and its
    tape (``None`` once backward has released it)."""

    __slots__ = ("parents", "vjp", "grad", "tape")

    def __init__(self, parents: tuple, vjp: Callable, tape: "Tape"):
        self.parents, self.vjp, self.grad, self.tape = parents, vjp, None, tape


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
    ``param.grad``. A non-finite gradient raises ``NumericError``."""

    def vjp(g):
        if param.trainable:
            if not np.isfinite(g).all():
                raise NumericError(f"non-finite gradient for {param.name}")
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
        s.grad, s.vjp, s.parents, s.tape = None, None, (), None
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


def _record(y: Tensor, parents: tuple, vjp: Callable) -> Value:
    tape = _ACTIVE
    if tape is None:
        return Value(y)
    slots = tuple(p._slot for p in parents)
    if any(s is not None and s.tape is not tape for s in slots):
        raise ContractError(
            "an op input was recorded on another tape, or its tape already "
            "ran backward"
        )
    tape._nodes.append(slot := _Slot(slots, vjp, tape))
    return Value(y, slot)


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
    yd = np.maximum(x.tensor.data, 0)
    return _record(Tensor._wrap(yd), (x,), lambda g: (g * (yd > 0),))


# ---------------------------------------------------------------------------
# Linear algebra


def matmul(a: Value, b: Value) -> Value:
    y = T.matmul(a.tensor, b.tensor)
    ad, bd = a.tensor.data, b.tensor.data
    return _record(y, (a, b), lambda g: T._matmul_vjp(ad, bd, g))


def softmax(x: Value, axis: int = -1) -> Value:
    y = T.softmax(x.tensor, axis)
    yd = y.data
    return _record(y, (x,), lambda g: (T._softmax_vjp(yd, g, axis),))


def conv2d(x: Value, weight: Value, bias: Value, spec: ConvSpec) -> Value:
    y = T.conv2d(x.tensor, weight.tensor, bias.tensor, spec)
    xs, wd = [x.tensor.data], weight.tensor.data  # the VJP takes x out of its box
    with_gx = x._slot is not None  # gx is None for a constant input
    return _record(
        y, (x, weight, bias), lambda g: T._conv2d_vjp(xs, wd, spec, g, with_gx)
    )


def depthwise_residual(
    x: Value,
    weights: Sequence[Value],
    dilations: Sequence[int],
    bias: Value | None = None,
) -> Value:
    """x + sum_k dwconv3x3(x, weights[k]; dilation = padding = dilations[k])
    (+ bias), as one op and one tape node. Each weight is [C, 1, 3, 3];
    the bias is per-channel or None."""
    dilations = tuple(dilations)
    with_bias = bias is not None
    b = bias.tensor if with_bias else None
    T._check_dw_residual_args(x.tensor, [w.tensor for w in weights], dilations, b)
    xs = [x.tensor.data]  # the VJP takes x out of its box
    wds = [w.tensor.data for w in weights]
    y = Tensor._wrap(
        T._dw_residual_forward(xs[0], wds, dilations, b.data if with_bias else None)
    )
    parents = (x, *weights, bias) if with_bias else (x, *weights)

    def vjp(g):
        gx, gws, gb = T._dw_residual_vjp(xs, wds, dilations, g, with_bias)
        return (gx, *gws, gb) if with_bias else (gx, *gws)

    return _record(y, parents, vjp)


def batchnorm2d(
    x: Value,
    gamma: Value,
    beta: Value,
    running_mean: Tensor,
    running_var: Tensor,
    training: bool,
) -> tuple[Value, Tensor, Tensor]:
    """Differentiable batchnorm; running statistics flow outside the graph."""
    y, new_mean, new_var, mean, var = T.batchnorm2d(
        x.tensor, gamma.tensor, beta.tensor, running_mean, running_var, training
    )
    vjp = T._batchnorm2d_vjp(x.tensor.data, gamma.tensor.data, mean, var, training)
    return _record(y, (x, gamma, beta), vjp), new_mean, new_var


# ---------------------------------------------------------------------------
# Sampling and rearrangement


def pixel_sample(x: Value, u: Value) -> Value:
    """Bilinear gather at pixel coordinates; see tensor module for the
    border convention. x: [N,C,H,W], u: [N,2,P] (x then y on axis 1)
    -> [N,C,P]. G channel groups read at G coordinate sets are one call
    with the groups folded into the batch ([N*G, C/G, H, W] at
    [N*G, 2, P]). The tape keeps only x and u: the VJP rebuilds the
    corners and fractions chunk by chunk, and computes no coordinate
    gradient for constant coordinates."""
    xd, ud = x.tensor.data, u.tensor.data
    if xd.ndim != 4 or ud.ndim != 3 or ud.shape[:2] != (xd.shape[0], 2):
        raise DimensionError(f"coordinate shape {ud.shape} for input {xd.shape}")
    T._check_same_dtype(xd, ud)
    y = Tensor._wrap(T._sample_pixel_forward(xd, ud))

    with_gu = u._slot is not None
    return _record(y, (x, u), lambda g: T._sample_pixel_vjp(xd, ud, g, with_gu))


def depth_to_space(x: Value, s: int) -> Value:
    y = T.depth_to_space(x.tensor, s)
    return _record(y, (x,), lambda g: (T._space_to_depth_forward(g, s),))


# ---------------------------------------------------------------------------
# Structure ops


def concat(parts: Sequence[Value], axis: int) -> Value:
    if not parts:
        raise ContractError("concat of zero tensors")
    arrays = [p.tensor.data for p in parts]
    rank = arrays[0].ndim
    if not -rank <= axis < rank:
        raise DimensionError(f"axis {axis} out of range for rank {rank}")
    ax = axis % rank
    for a in arrays[1:]:
        if a.ndim != rank:
            raise DimensionError("concat operands differ in rank")
        if any(a.shape[i] != arrays[0].shape[i] for i in range(rank) if i != ax):
            raise DimensionError(
                f"concat shapes {arrays[0].shape} and {a.shape} differ off-axis"
            )
    T._check_same_dtype(*arrays)
    y = Tensor._wrap(np.concatenate(arrays, axis=ax))
    sizes = [a.shape[ax] for a in arrays]

    def vjp(g):
        out = []
        start = 0
        sl = [slice(None)] * rank
        for s in sizes:
            sl[ax] = slice(start, start + s)
            out.append(np.ascontiguousarray(g[tuple(sl)]))
            start += s
        return tuple(out)

    return _record(y, tuple(parts), vjp)


def narrow(x: Value, axis: int, start: int, size: int) -> Value:
    """Contiguous slice of ``size`` entries from ``start`` along ``axis``."""
    xd = x.tensor.data
    if not -xd.ndim <= axis < xd.ndim:
        raise DimensionError(f"axis {axis} out of range for shape {xd.shape}")
    if start < 0 or size < 1 or start + size > xd.shape[axis]:
        raise DimensionError(
            f"slice [{start}:{start + size}) exceeds extent {xd.shape[axis]}"
        )
    sl = [slice(None)] * xd.ndim
    sl[axis] = slice(start, start + size)
    sl = tuple(sl)
    y = Tensor._wrap(xd[sl].copy())
    xshape = xd.shape

    def vjp(g):
        gx = np.zeros(xshape, dtype=g.dtype)
        gx[sl] = g
        return (gx,)

    return _record(y, (x,), vjp)


def split(x: Value, axis: int, sizes: Sequence[int]) -> list[Value]:
    if sum(sizes) != x.tensor.shape[axis % x.tensor.rank]:
        raise DimensionError(
            f"split sizes {list(sizes)} do not sum to extent "
            f"{x.tensor.shape[axis % x.tensor.rank]}"
        )
    out = []
    start = 0
    for s in sizes:
        out.append(narrow(x, axis, start, s))
        start += s
    return out


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
