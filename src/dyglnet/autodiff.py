"""Reverse-mode automatic differentiation: the tape and every op.

The element-wise ops (add, mul, scale, tanh, sigmoid, relu, sum_all,
mean_all) and the layout ops (concat, narrow, split, reshape,
transpose) are defined here whole: argument checks, forward and VJP.
The other ops wrap a ``tensor`` kernel and the VJP defined next to it.

A :class:`Tape` records every differentiable op executed inside its
``with`` block as a :class:`Value` node holding a vector-Jacobian
closure. :func:`backward` replays the nodes in reverse creation order,
accumulating into each watched :class:`Parameter`'s ``grad`` buffer.
When no tape is active the same op functions run forward-only and keep
no closures, so evaluation costs nothing extra.

:func:`grad_check` compares analytic gradients against central finite
differences in float64, re-probing suspect entries at two extra step
sizes so genuine failures are separated from kink-straddling ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import tensor as T
from .errors import ContractError, DimensionError, NumericError, StateError
from .tensor import ConvSpec, Tensor


class Parameter:
    """Named, trainable tensor with a persistent gradient buffer.

    ``grad`` accumulates across backward passes until :meth:`zero_grad`.
    Non-trainable parameters (running statistics) are carried by the
    same type but never receive gradients or optimizer updates.
    """

    def __init__(self, name: str, value: Tensor, trainable: bool = True):
        self.name = name
        self.value = value
        self.trainable = trainable
        self.grad = np.zeros(value.shape, dtype=value.data.dtype)

    def zero_grad(self) -> None:
        self.grad = np.zeros(self.value.shape, dtype=self.value.data.dtype)

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

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, shape={self.value.shape})"


class Value:
    """One node of the computation graph: a tensor plus its VJP."""

    __slots__ = ("tensor", "_parents", "_vjp", "_grad")

    def __init__(self, tensor: Tensor, parents=(), vjp=None):
        self.tensor = tensor
        self._parents = parents
        self._vjp = vjp
        self._grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.tensor.shape

    def item(self) -> float:
        return self.tensor.item()

    def __repr__(self) -> str:
        return f"Value(shape={self.shape}, dtype={self.tensor.dtype})"


_ACTIVE: "Tape | None" = None


class Tape:
    """Recording context; one backward pass per recording."""

    def __init__(self):
        self._nodes: list[Value] = []
        self._leaves: list[tuple[Parameter, Value]] = []
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

    def _add(self, v: Value) -> Value:
        self._nodes.append(v)
        return v


def watch(param: Parameter) -> Value:
    """Leaf node for a parameter; registers it on the active tape."""
    v = Value(param.value)
    if _ACTIVE is not None:
        _ACTIVE._leaves.append((param, v))
    return v


def constant(x) -> Value:
    """Non-differentiable graph input."""
    return Value(x if isinstance(x, Tensor) else Tensor(x))


def as_value(x) -> Value:
    if isinstance(x, Value):
        return x
    return constant(x)


def backward(loss: Value, tape: Tape) -> None:
    """Accumulate d(loss)/d(param) into every watched parameter's grad."""
    if tape._consumed:
        raise StateError("tape already consumed by a backward pass")
    if loss.tensor.size != 1:
        raise ContractError(f"loss must be scalar, got shape {loss.shape}")
    tape._consumed = True
    loss._grad = np.ones((1,), dtype=loss.tensor.data.dtype)
    for v in reversed(tape._nodes):
        if v._grad is None or v._vjp is None:
            continue
        grads = v._vjp(v._grad)
        for parent, g in zip(v._parents, grads):
            if g is None:
                continue
            if parent._grad is None:
                parent._grad = g
            else:
                parent._grad = parent._grad + g
    for param, leaf in tape._leaves:
        if leaf._grad is not None and param.trainable:
            if not np.isfinite(leaf._grad).all():
                raise NumericError(f"non-finite gradient for {param.name}")
            param.grad = param.grad + leaf._grad
    tape._nodes.clear()


def zero_grads(params: Sequence[Parameter]) -> None:
    for p in params:
        p.zero_grad()


def _record(y: Tensor, parents: tuple, make_vjp: Callable) -> Value:
    if _ACTIVE is None:
        return Value(y)
    return _ACTIVE._add(Value(y, parents, make_vjp()))


def record_op(y: Tensor, parents: tuple, make_vjp: Callable) -> Value:
    """Register a custom differentiable op.

    ``make_vjp`` is called only when a tape is active and must return a
    closure mapping the upstream gradient array to one gradient array
    (or None) per parent.
    """
    return _record(y, parents, make_vjp)


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
    xd, od = x.tensor.data, other.tensor.data
    y = Tensor._wrap(xd + _broadcast_other(xd, od))
    return _record(y, (x, other), lambda: lambda g: (g, _reduce_to(g, od.shape)))


def mul(x: Value, other: Value) -> Value:
    xd, od = x.tensor.data, other.tensor.data
    ob = _broadcast_other(xd, od)
    y = Tensor._wrap(xd * ob)
    return _record(
        y, (x, other), lambda: lambda g: (g * ob, _reduce_to(g * xd, od.shape))
    )


def scale(x: Value, s: float) -> Value:
    c = x.tensor.data.dtype.type(s)
    y = Tensor._wrap(x.tensor.data * c)
    return _record(y, (x,), lambda: lambda g: (g * c,))


def tanh(x: Value) -> Value:
    yd = np.tanh(x.tensor.data)
    return _record(Tensor._wrap(yd), (x,), lambda: lambda g: (g * (1.0 - yd * yd),))


def sigmoid(x: Value) -> Value:
    yd = T._sigmoid_forward(x.tensor.data)
    return _record(Tensor._wrap(yd), (x,), lambda: lambda g: (g * yd * (1.0 - yd),))


def relu(x: Value) -> Value:
    xd = x.tensor.data
    y = Tensor._wrap(np.maximum(xd, 0))
    return _record(y, (x,), lambda: lambda g: (g * (xd > 0),))


# ---------------------------------------------------------------------------
# Linear algebra


def matmul(a: Value, b: Value) -> Value:
    y = T.matmul(a.tensor, b.tensor)
    ad, bd = a.tensor.data, b.tensor.data
    return _record(y, (a, b), lambda: lambda g: T._matmul_vjp(ad, bd, g))


def softmax(x: Value, axis: int = -1) -> Value:
    y = T.softmax(x.tensor, axis)
    yd = y.data
    return _record(y, (x,), lambda: lambda g: (T._softmax_vjp(yd, g, axis),))


def conv2d(x: Value, weight: Value, bias: Value | None, spec: ConvSpec) -> Value:
    b = bias.tensor if bias is not None else None
    y = T.conv2d(x.tensor, weight.tensor, b, spec)
    xd, wd = x.tensor.data, weight.tensor.data
    with_bias = bias is not None
    parents = (x, weight, bias) if with_bias else (x, weight)

    def mk():
        # (gx, gw, gb), where gb is None without a bias
        return lambda g: T._conv2d_vjp(xd, wd, spec, g, with_bias)[: len(parents)]

    return _record(y, parents, mk)


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
    xd = x.tensor.data
    wds = [w.tensor.data for w in weights]
    y = Tensor._wrap(
        T._dw_residual_forward(xd, wds, dilations, b.data if with_bias else None)
    )
    parents = (x, *weights, bias) if with_bias else (x, *weights)

    def mk():
        def vjp(g):
            gx, gws, gb = T._dw_residual_vjp(xd, wds, dilations, g, with_bias)
            return (gx, *gws, gb) if with_bias else (gx, *gws)

        return vjp

    return _record(y, parents, mk)


def batchnorm2d(
    x: Value,
    gamma: Value,
    beta: Value,
    running_mean: Tensor,
    running_var: Tensor,
    training: bool,
    momentum: float = 0.1,
    eps: float = 1e-5,
) -> tuple[Value, Tensor, Tensor]:
    """Differentiable batchnorm; running statistics flow outside the graph."""
    y, new_mean, new_var = T.batchnorm2d(
        x.tensor, gamma.tensor, beta.tensor, running_mean, running_var,
        training, momentum, eps,
    )
    xd, gd = x.tensor.data, gamma.tensor.data

    def mk():
        return T._batchnorm2d_vjp(
            xd, gd, running_mean.data, running_var.data, training, eps
        )

    out = _record(y, (x, gamma, beta), mk)
    return out, new_mean, new_var


# ---------------------------------------------------------------------------
# Sampling and rearrangement


def pixel_sample(x: Value, ux: Value, uy: Value) -> Value:
    """Bilinear gather at pixel coordinates; see tensor module for the
    border convention. x: [N,C,H,W], ux/uy: [N,P] -> [N,C,P]. G channel
    groups read at G coordinate sets are one call with the groups folded
    into the batch ([N*G, C/G, H, W] at [N*G, P]). The VJP reuses the
    forward's corner plan."""
    xd = x.tensor.data
    uxd, uyd = ux.tensor.data, uy.tensor.data
    if uxd.ndim != 2 or uxd.shape != uyd.shape or uxd.shape[0] != xd.shape[0]:
        raise DimensionError(
            f"coordinate shapes {uxd.shape}/{uyd.shape} for input {xd.shape}"
        )
    T._check_same_dtype(xd, uxd, uyd)
    plan = T._sample_plan(uxd, uyd, xd.shape[2], xd.shape[3])
    y = Tensor._wrap(T._sample_pixel_forward(xd, plan))

    def mk():
        return lambda g: T._sample_pixel_vjp(xd, uxd, uyd, plan, g)

    return _record(y, (x, ux, uy), mk)


def resize_bilinear(x: Value, out_h: int, out_w: int) -> Value:
    y = T.resize_bilinear(x.tensor, out_h, out_w)
    xd = x.tensor.data
    n, c, h, w = xd.shape

    def mk():
        if (out_h, out_w) == (h, w):
            return lambda g: (g,)
        plan = T._resize_plan(xd, out_h, out_w)
        return lambda g: (T._sample_scatter(plan, g.reshape(n, c, -1), h, w),)

    return _record(y, (x,), mk)


def depth_to_space(x: Value, s: int) -> Value:
    y = T.depth_to_space(x.tensor, s)
    return _record(y, (x,), lambda: lambda g: (T._space_to_depth_forward(g, s),))


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

    def mk():
        def vjp(g):
            out = []
            start = 0
            sl = [slice(None)] * rank
            for s in sizes:
                sl[ax] = slice(start, start + s)
                out.append(np.ascontiguousarray(g[tuple(sl)]))
                start += s
            return tuple(out)

        return vjp

    return _record(y, tuple(parts), mk)


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

    def mk():
        def vjp(g):
            gx = np.zeros(xd.shape, dtype=g.dtype)
            gx[sl] = g
            return (gx,)

        return vjp

    return _record(y, (x,), mk)


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
    return _record(y, (x,), lambda: lambda g: (g.reshape(xshape),))


def transpose(x: Value, axes: tuple[int, ...]) -> Value:
    if sorted(axes) != list(range(x.tensor.rank)):
        raise DimensionError(
            f"axes {axes} is not a permutation of rank {x.tensor.rank}"
        )
    y = Tensor._wrap(np.ascontiguousarray(x.tensor.data.transpose(axes)))
    inv = tuple(np.argsort(axes))
    return _record(
        y, (x,), lambda: lambda g: (np.ascontiguousarray(g.transpose(inv)),)
    )


def sum_all(x: Value) -> Value:
    xd = x.tensor.data
    y = Tensor._wrap(np.asarray([np.sum(xd, dtype=np.float64)], dtype=xd.dtype))
    return _record(
        y, (x,), lambda: lambda g: (np.full(xd.shape, g[0], dtype=xd.dtype),)
    )


def mean_all(x: Value) -> Value:
    xd = x.tensor.data
    n = xd.size
    y = Tensor._wrap(np.asarray([np.sum(xd, dtype=np.float64) / n], dtype=xd.dtype))
    return _record(
        y, (x,), lambda: lambda g: (np.full(xd.shape, g[0] / n, dtype=xd.dtype),)
    )


# ---------------------------------------------------------------------------
# Finite-difference gradient checking


@dataclass
class GradCheckReport:
    """Outcome of one finite-difference sweep."""

    max_rel_err: float = 0.0
    worst_param: str = ""
    worst_index: tuple = ()
    per_param: dict[str, float] = field(default_factory=dict)
    checked: int = 0
    skipped: int = 0
    tol: float = 1e-4

    @property
    def passed(self) -> bool:
        return self.checked > 0 and self.max_rel_err <= self.tol


def _rel_err(a: float, n: float) -> float:
    return abs(a - n) / max(abs(a), abs(n), 1e-8)


def grad_check(
    fn: Callable[[], Value],
    params: Sequence[Parameter],
    eps: float = 1e-5,
    tol: float = 1e-4,
    max_entries_per_param: int | None = None,
    rng: np.random.Generator | None = None,
) -> GradCheckReport:
    """Compare analytic gradients of ``fn()`` against central differences.

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
    zero_grads(trainables)
    with Tape() as tape:
        loss = fn()
    backward(loss, tape)
    analytic = {p.name: p.grad.copy() for p in trainables}
    for p in trainables:
        if not np.isfinite(analytic[p.name]).all():
            raise NumericError(f"non-finite analytic gradient for {p.name}")

    def eval_at(param: Parameter, idx: tuple, delta: float) -> float:
        base = param.value
        arr = base.numpy()
        arr[idx] += delta
        param.assign(Tensor._wrap(arr))
        out = fn().item()
        param.assign(base)
        return out

    def fd(param: Parameter, idx: tuple, h: float) -> float:
        return (eval_at(param, idx, h) - eval_at(param, idx, -h)) / (2.0 * h)

    report = GradCheckReport(tol=tol)
    for p in trainables:
        size = p.value.size
        if max_entries_per_param is not None and size > max_entries_per_param:
            if rng is None:
                raise ContractError("sampled grad_check needs an rng")
            flat = np.sort(rng.choice(size, size=max_entries_per_param, replace=False))
        else:
            flat = np.arange(size)
        worst = 0.0
        for f in flat:
            idx = np.unravel_index(int(f), p.value.shape)
            a = float(analytic[p.name][idx])
            n = fd(p, idx, eps)
            err = _rel_err(a, n)
            if err > tol:
                # Re-probe at other step sizes: a difference quotient
                # that moves with the step is either a kink or pure
                # rounding noise (a structurally zero gradient), and
                # neither says anything about the analytic value.
                probes = [n, fd(p, idx, 2 * eps), fd(p, idx, eps / 2)]
                span = max(probes) - min(probes)
                scale_p = max(abs(q) for q in probes)
                if scale_p > 0.0 and span > 0.1 * scale_p:
                    report.skipped += 1
                    continue
                n = probes[2]
                err = _rel_err(a, n)
            report.checked += 1
            worst = max(worst, err)
            if err > report.max_rel_err:
                report.max_rel_err = err
                report.worst_param = p.name
                report.worst_index = tuple(int(i) for i in idx)
        report.per_param[p.name] = worst
    return report
