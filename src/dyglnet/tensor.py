"""Dense CPU tensors and the numeric kernels, each next to its VJP.

Tensors are immutable rank-1..4 float arrays; feature maps use NCHW
layout. The kernels are convolution, the fused depthwise residual,
matmul, softmax, batchnorm, bilinear sampling and resize, and
depth-to-space; the element-wise and layout ops live in ``autodiff``.
Kernels are vectorized with numpy but keep a shape discipline
that mirrors the obvious loop nest: convolution walks kernel taps over
strided views, bilinear sampling gathers four neighbours per point.
All operations are deterministic, never mutate their inputs, and
reject non-finite values at construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ContractError,
    DegenerateStatisticsError,
    DimensionError,
    NumericError,
)

_DTYPES = {"f32": np.float32, "f64": np.float64}
_DTYPE_NAMES = {np.dtype(np.float32): "f32", np.dtype(np.float64): "f64"}


def _np_dtype(dtype: str) -> np.dtype:
    if dtype not in _DTYPES:
        raise ContractError(f"unknown dtype {dtype!r}; expected 'f32' or 'f64'")
    return np.dtype(_DTYPES[dtype])


class Tensor:
    """Immutable dense array, rank 1 to 4, float32 or float64.

    Scalars are represented as shape ``(1,)``. The backing buffer is
    C-contiguous and marked read-only; operations return new tensors.
    """

    __slots__ = ("_data",)

    def __init__(self, data, dtype: str | None = None):
        arr = np.asarray(data)
        if dtype is not None:
            arr = np.array(arr, dtype=_np_dtype(dtype), order="C", copy=True)
        elif arr.dtype in (np.float32, np.float64):
            arr = np.array(arr, order="C", copy=True)
        else:
            arr = np.array(arr, dtype=np.float64, order="C", copy=True)
        if arr.ndim == 0:
            arr = arr.reshape(1)
        self._data = _validated(arr)

    @classmethod
    def _wrap(cls, arr: np.ndarray) -> "Tensor":
        # Trusted path for freshly computed kernel outputs: skips the
        # defensive copy but still enforces every invariant.
        t = object.__new__(cls)
        t._data = _validated(np.ascontiguousarray(arr))
        return t

    @property
    def data(self) -> np.ndarray:
        return self._data

    @property
    def shape(self) -> tuple[int, ...]:
        return self._data.shape

    @property
    def rank(self) -> int:
        return self._data.ndim

    @property
    def dtype(self) -> str:
        return _DTYPE_NAMES[self._data.dtype]

    @property
    def size(self) -> int:
        return self._data.size

    def item(self) -> float:
        if self._data.size != 1:
            raise ContractError(f"item() on tensor of shape {self.shape}")
        return float(self._data.reshape(-1)[0])

    def astype(self, dtype: str) -> "Tensor":
        return Tensor._wrap(self._data.astype(_np_dtype(dtype)))

    def numpy(self) -> np.ndarray:
        return self._data.copy()

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.dtype})"


def _validated(arr: np.ndarray) -> np.ndarray:
    if not 1 <= arr.ndim <= 4:
        raise DimensionError(f"rank {arr.ndim} outside supported range 1..4")
    if arr.size == 0:
        raise DimensionError(f"every extent must be >= 1, got shape {arr.shape}")
    if arr.dtype not in (np.float32, np.float64):
        raise ContractError(f"unsupported dtype {arr.dtype}")
    if not np.isfinite(arr).all():
        raise NumericError("tensor contains NaN or Inf")
    arr.setflags(write=False)
    return arr


def _check_same_dtype(*arrays: np.ndarray) -> None:
    first = arrays[0].dtype
    for a in arrays[1:]:
        if a.dtype != first:
            raise ContractError(f"mixed dtypes {first} and {a.dtype}")


# ---------------------------------------------------------------------------
# Convolution


@dataclass(frozen=True)
class ConvSpec:
    """Geometry of a 2-d convolution (cross-correlation, no kernel flip)."""

    stride: int = 1
    padding: int = 0
    dilation: int = 1
    groups: int = 1

    def __post_init__(self):
        if self.stride < 1 or self.dilation < 1 or self.groups < 1:
            raise ContractError(f"stride/dilation/groups must be >= 1, got {self}")
        if self.padding < 0:
            raise ContractError(f"padding must be >= 0, got {self}")

    def out_size(self, size: int, k: int) -> int:
        eff = self.dilation * (k - 1) + 1
        out = (size + 2 * self.padding - eff) // self.stride + 1
        if out < 1:
            raise DimensionError(
                f"kernel {k} (dilation {self.dilation}) does not fit input "
                f"extent {size} with padding {self.padding}"
            )
        return out


def _taps(spec: ConvSpec, kh: int, kw: int, ho: int, wo: int):
    """Yield ``(i, j, rows, cols)`` for each kernel tap in row-major order:
    the slices of the padded input that tap (i, j) reads for an
    ``ho`` x ``wo`` output."""
    for i in range(kh):
        for j in range(kw):
            hi = i * spec.dilation
            wi = j * spec.dilation
            rows = slice(hi, hi + spec.stride * (ho - 1) + 1, spec.stride)
            cols = slice(wi, wi + spec.stride * (wo - 1) + 1, spec.stride)
            yield i, j, rows, cols


def _conv2d_forward(
    x: np.ndarray, w: np.ndarray, b: np.ndarray | None, spec: ConvSpec
) -> np.ndarray:
    n, cin, h, wid = x.shape
    cout, cin_g, kh, kw = w.shape
    g = spec.groups
    ho = spec.out_size(h, kh)
    wo = spec.out_size(wid, kw)
    cout_g = cout // g
    p = spec.padding
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p))) if p else x
    xg = xp.reshape(n, g, cin_g, xp.shape[2], xp.shape[3])
    wg = w.reshape(g, cout_g, cin_g, kh, kw)
    acc = np.zeros((n, g, ho * wo, cout_g), dtype=x.dtype)
    for i, j, rows, cols in _taps(spec, kh, kw, ho, wo):
        # [n,g,P,cin_g] @ [g,cin_g,cout_g] -> [n,g,P,cout_g]
        pm = xg[:, :, :, rows, cols].reshape(n, g, cin_g, ho * wo)
        acc += np.matmul(
            pm.transpose(0, 1, 3, 2), wg[:, :, :, i, j].transpose(0, 2, 1)
        )
    y = acc.transpose(0, 1, 3, 2).reshape(n, cout, ho, wo)
    if b is not None:
        y = y + b.reshape(1, cout, 1, 1)
    return y


def _conv2d_vjp(
    x: np.ndarray,
    w: np.ndarray,
    spec: ConvSpec,
    gy: np.ndarray,
    with_bias: bool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    n, _, h, wid = x.shape
    cout, cin_g, kh, kw = w.shape
    g = spec.groups
    cout_g = cout // g
    _, _, ho, wo = gy.shape
    p = spec.padding
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p))) if p else x
    gxp = np.zeros_like(xp)
    gw = np.zeros_like(w)
    xg = xp.reshape(n, g, cin_g, xp.shape[2], xp.shape[3])
    wg = w.reshape(g, cout_g, cin_g, kh, kw)
    gyg = gy.reshape(n, g, cout_g, ho * wo).transpose(0, 1, 3, 2)  # [n,g,P,cout_g]
    gxg = gxp.reshape(n, g, cin_g, xp.shape[2], xp.shape[3])
    gwg = gw.reshape(g, cout_g, cin_g, kh, kw)
    for i, j, rows, cols in _taps(spec, kh, kw, ho, wo):
        pm = xg[:, :, :, rows, cols].reshape(n, g, cin_g, ho * wo)  # [n,g,cin_g,P]
        # weight grad: sum_n  [g,cin_g,P] @ [g,P,cout_g]
        gwg[:, :, :, i, j] += np.matmul(pm, gyg).sum(axis=0).transpose(0, 2, 1)
        # input grad: [n,g,P,cout_g] @ [g,cout_g,cin_g] -> [n,g,P,cin_g]
        gpatch = np.matmul(gyg, wg[:, :, :, i, j])
        gxg[:, :, :, rows, cols] += gpatch.transpose(0, 1, 3, 2).reshape(
            n, g, cin_g, ho, wo
        )
    gx = gxp[:, :, p : p + h, p : p + wid] if p else gxp
    gb = gy.sum(axis=(0, 2, 3)) if with_bias else None
    return np.ascontiguousarray(gx), gw, gb


def conv2d(
    x: Tensor, weight: Tensor, bias: Tensor | None, spec: ConvSpec
) -> Tensor:
    """Grouped, dilated 2-d cross-correlation over an NCHW batch.

    ``weight`` has shape [out_channels, in_channels/groups, kh, kw];
    ``bias`` is per-output-channel or None.
    """
    if x.rank != 4:
        raise DimensionError(f"conv2d input must be rank 4, got {x.shape}")
    if weight.rank != 4:
        raise DimensionError(f"conv2d weight must be rank 4, got {weight.shape}")
    cout, cin_g, _, _ = weight.shape
    cin = x.shape[1]
    if cin % spec.groups or cout % spec.groups:
        raise DimensionError(
            f"channels in={cin} out={cout} not divisible by groups {spec.groups}"
        )
    if cin_g != cin // spec.groups:
        raise DimensionError(
            f"weight expects {cin_g} channels per group, input provides "
            f"{cin // spec.groups}"
        )
    arrays = [x.data, weight.data]
    if bias is not None:
        if bias.shape != (cout,):
            raise DimensionError(f"bias shape {bias.shape} != ({cout},)")
        arrays.append(bias.data)
    _check_same_dtype(*arrays)
    b = bias.data if bias is not None else None
    return Tensor._wrap(_conv2d_forward(x.data, weight.data, b, spec))


# ---------------------------------------------------------------------------
# Depthwise residual: x + sum_k dwconv3x3(x, w_k; dilation = padding = d_k)

# Bytes of one [n, channel block, h, w] slab. A block's taps all re-read
# the same slab, so it is sized to stay in a core's L2 cache.
_DW_BLOCK_BYTES = 1 << 18


def _dw_blocks(x: np.ndarray) -> tuple[list[slice], np.ndarray]:
    """The channel blocks of x [n,c,h,w] and one scratch slab as large
    as a full block."""
    n, c, h, w = x.shape
    cb = max(1, min(c, _DW_BLOCK_BYTES // (n * h * w * x.itemsize)))
    blocks = [slice(c0, min(c0 + cb, c)) for c0 in range(0, c, cb)]
    return blocks, np.empty((n, cb, h, w), dtype=x.dtype)


def _dw_accumulate(
    out: np.ndarray,
    src: np.ndarray,
    ws: list[np.ndarray],
    dilations: tuple[int, ...],
    pad: int,
    tmp: np.ndarray,
    mirror: bool,
) -> None:
    """out += sum_k dwconv3x3(src, ws[k]; dilation = padding = dilations[k])
    on one channel block, where ``src`` is the block padded by ``pad`` >=
    every dilation. ``mirror`` flips each kernel: that is the transpose,
    so it maps an output gradient to the input gradient."""
    _, cb, h, w = out.shape
    t = tmp[:, :cb]
    for wk, d in zip(ws, dilations):
        view = src[:, :, pad - d :, pad - d :]
        for i, j, rows, cols in _taps(ConvSpec(dilation=d), 3, 3, h, w):
            tap = wk[:, 0, 2 - i, 2 - j] if mirror else wk[:, 0, i, j]
            np.multiply(view[:, :, rows, cols], tap.reshape(cb, 1, 1), out=t)
            out += t


def _dw_residual_forward(
    x: np.ndarray,
    ws: list[np.ndarray],
    dilations: tuple[int, ...],
    b: np.ndarray | None,
) -> np.ndarray:
    """x + sum_k dwconv3x3(x, ws[k]; dilation = padding = dilations[k])
    (+ b): one pad by the largest dilation, then each channel block's
    output starts as its slice of x and takes every tap of every branch."""
    pad = max(dilations)
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    y = np.empty_like(x)
    blocks, tmp = _dw_blocks(x)
    for blk in blocks:
        yb = y[:, blk]
        if b is None:
            yb[...] = x[:, blk]
        else:
            np.add(x[:, blk], b[blk].reshape(-1, 1, 1), out=yb)
        _dw_accumulate(yb, xp[:, blk], [w[blk] for w in ws], dilations, pad, tmp, False)
    return y


def _dw_residual_vjp(
    x: np.ndarray,
    ws: list[np.ndarray],
    dilations: tuple[int, ...],
    gy: np.ndarray,
    with_bias: bool,
) -> tuple[np.ndarray, list[np.ndarray], np.ndarray | None]:
    """(gx, [gw_k], gb) of ``_dw_residual_forward``; pads x and gy itself,
    so the tape keeps nothing but the op's output."""
    pad = max(dilations)
    widths = ((0, 0), (0, 0), (pad, pad), (pad, pad))
    xp = np.pad(x, widths)
    gyp = np.pad(gy, widths)
    gx = gy.copy()  # the identity term
    gws = [np.empty_like(w) for w in ws]
    _, _, h, w = x.shape
    blocks, tmp = _dw_blocks(x)
    for blk in blocks:
        _dw_accumulate(gx[:, blk], gyp[:, blk], [wk[blk] for wk in ws], dilations, pad, tmp, True)
        gyb = gy[:, blk]
        for gw, d in zip(gws, dilations):
            view = xp[:, blk, pad - d :, pad - d :]
            for i, j, rows, cols in _taps(ConvSpec(dilation=d), 3, 3, h, w):
                gw[blk, 0, i, j] = np.einsum("nchw,nchw->c", view[:, :, rows, cols], gyb)
    gb = gy.sum(axis=(0, 2, 3)) if with_bias else None
    return gx, gws, gb


def _check_dw_residual_args(
    x: Tensor,
    weights: list[Tensor],
    dilations: tuple[int, ...],
    bias: Tensor | None,
) -> None:
    if x.rank != 4:
        raise DimensionError(f"depthwise_residual input must be rank 4, got {x.shape}")
    if not weights or len(weights) != len(dilations):
        raise ContractError(
            f"{len(weights)} weights for dilations {tuple(dilations)}; need one each"
        )
    if any(d < 1 for d in dilations):
        raise ContractError(f"dilations must be >= 1, got {tuple(dilations)}")
    c = x.shape[1]
    for w in weights:
        if w.shape != (c, 1, 3, 3):
            raise DimensionError(f"depthwise weight shape {w.shape} != ({c}, 1, 3, 3)")
    arrays = [x.data] + [w.data for w in weights]
    if bias is not None:
        if bias.shape != (c,):
            raise DimensionError(f"bias shape {bias.shape} != ({c},)")
        arrays.append(bias.data)
    _check_same_dtype(*arrays)


# ---------------------------------------------------------------------------
# Matmul / softmax


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of rank-2 or batched rank-3 operands."""
    if a.rank not in (2, 3) or b.rank not in (2, 3):
        raise DimensionError(f"matmul supports rank 2/3, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise DimensionError(f"inner dims differ: {a.shape} @ {b.shape}")
    if a.rank == 3 and b.rank == 3 and a.shape[0] != b.shape[0]:
        raise DimensionError(f"batch dims differ: {a.shape} @ {b.shape}")
    _check_same_dtype(a.data, b.data)
    return Tensor._wrap(np.matmul(a.data, b.data))


def _matmul_vjp(
    a: np.ndarray, b: np.ndarray, g: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(ga, gb) of a @ b; a rank-2 operand of a batched product gets the
    batch sum."""
    ga = np.matmul(g, np.swapaxes(b, -1, -2))
    gb = np.matmul(np.swapaxes(a, -1, -2), g)
    if ga.ndim > a.ndim:
        ga = ga.sum(axis=0)
    if gb.ndim > b.ndim:
        gb = gb.sum(axis=0)
    return ga, gb


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along one axis (max-subtracted)."""
    if not -x.rank <= axis < x.rank:
        raise DimensionError(f"axis {axis} out of range for shape {x.shape}")
    m = np.max(x.data, axis=axis, keepdims=True)
    e = np.exp(x.data - m)
    s = np.sum(e, axis=axis, keepdims=True, dtype=np.float64)
    return Tensor._wrap((e / s).astype(x.data.dtype))


def _softmax_vjp(y: np.ndarray, g: np.ndarray, axis: int) -> np.ndarray:
    """Input gradient of a softmax with output ``y``."""
    dot = np.sum(g * y, axis=axis, keepdims=True)
    return y * (g - dot)


# ---------------------------------------------------------------------------
# Batch normalization


def _bn_batch_stats(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    m = x.shape[0] * x.shape[2] * x.shape[3]
    mean = x.mean(axis=(0, 2, 3), dtype=np.float64)
    var = np.square(x - mean.reshape(1, -1, 1, 1)).mean(axis=(0, 2, 3), dtype=np.float64)
    return mean.astype(x.dtype), var.astype(x.dtype), m


def batchnorm2d(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    running_mean: Tensor,
    running_var: Tensor,
    training: bool,
    momentum: float = 0.1,
    eps: float = 1e-5,
) -> tuple[Tensor, Tensor, Tensor]:
    """Per-channel batch normalization over an NCHW batch.

    Training mode normalizes with biased batch statistics and returns
    running statistics advanced by ``(1-momentum)*old + momentum*new``
    (the running variance uses the unbiased estimate). Eval mode
    normalizes with the running statistics and returns them unchanged.
    """
    if x.rank != 4:
        raise DimensionError(f"batchnorm2d input must be rank 4, got {x.shape}")
    c = x.shape[1]
    for name, t in (
        ("gamma", gamma),
        ("beta", beta),
        ("running_mean", running_mean),
        ("running_var", running_var),
    ):
        if t.shape != (c,):
            raise DimensionError(f"{name} shape {t.shape} != ({c},)")
    _check_same_dtype(x.data, gamma.data, beta.data, running_mean.data, running_var.data)
    if training:
        mean, var, m = _bn_batch_stats(x.data)
        if m == 1:
            raise DegenerateStatisticsError(
                "batch statistics over a single element (N*H*W == 1)"
            )
        xhat = (x.data - mean.reshape(1, c, 1, 1)) / np.sqrt(
            var.reshape(1, c, 1, 1) + x.data.dtype.type(eps)
        )
        unbiased = var * (m / (m - 1))
        new_mean = (1.0 - momentum) * running_mean.data + momentum * mean
        new_var = (1.0 - momentum) * running_var.data + momentum * unbiased
        y = gamma.data.reshape(1, c, 1, 1) * xhat + beta.data.reshape(1, c, 1, 1)
        return (
            Tensor._wrap(y.astype(x.data.dtype)),
            Tensor._wrap(new_mean.astype(x.data.dtype)),
            Tensor._wrap(new_var.astype(x.data.dtype)),
        )
    xhat = (x.data - running_mean.data.reshape(1, c, 1, 1)) / np.sqrt(
        running_var.data.reshape(1, c, 1, 1) + x.data.dtype.type(eps)
    )
    y = gamma.data.reshape(1, c, 1, 1) * xhat + beta.data.reshape(1, c, 1, 1)
    return Tensor._wrap(y.astype(x.data.dtype)), running_mean, running_var


def _batchnorm2d_vjp(
    x: np.ndarray,
    gamma: np.ndarray,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    training: bool,
    eps: float,
):
    """The VJP of ``batchnorm2d``: a closure g -> (gx, ggamma, gbeta).
    Training mode differentiates through the batch statistics too."""
    c = x.shape[1]
    dt = x.dtype
    if training:
        mean, var, m = _bn_batch_stats(x)
    else:
        mean, var = running_mean, running_var
    istd = (1.0 / np.sqrt(var.astype(np.float64) + eps)).astype(dt)
    xhat = (x - mean.reshape(1, c, 1, 1)) * istd.reshape(1, c, 1, 1)

    def vjp(g):
        ggamma = (g * xhat).sum(axis=(0, 2, 3))
        gbeta = g.sum(axis=(0, 2, 3))
        gi = gamma.reshape(1, c, 1, 1) * istd.reshape(1, c, 1, 1)
        if not training:
            return g * gi, ggamma, gbeta
        gsum = g.sum(axis=(0, 2, 3)).reshape(1, c, 1, 1)
        gxhat = ggamma.reshape(1, c, 1, 1)
        gx = gi / m * (m * g - gsum - xhat * gxhat)
        return gx.astype(dt), ggamma, gbeta

    return vjp


# ---------------------------------------------------------------------------
# Bilinear sampling

# Convention: pixel i of an extent-S axis sits at continuous coordinate i,
# and normalized coordinate (2*i + 1)/S - 1, so the normalized range [-1, 1]
# spans the outer pixel edges. Out-of-range points clamp to the border and
# contribute zero gradient to the coordinates.


def _pixel_coords(g: np.ndarray, size: int) -> np.ndarray:
    return (g + 1.0) * (size / 2.0) - 0.5


def _sample_plan(ux: np.ndarray, uy: np.ndarray, h: int, w: int) -> tuple:
    """(r00, sx, sy, fx, fy) of a bilinear read at pixel coords [n, p]:
    the top-left corner as a flat row of the n*h*w pixel axis, the steps
    to the right and lower corners (x0 <= w - 2, so a step is 1 unless
    its axis has one pixel) and the lerp fractions."""
    ucx = np.clip(ux, 0.0, w - 1.0)
    ucy = np.clip(uy, 0.0, h - 1.0)
    x0 = np.minimum(np.floor(ucx), max(w - 2, 0))
    y0 = np.minimum(np.floor(ucy), max(h - 2, 0))
    r00 = y0.astype(np.int64) * w + x0.astype(np.int64)
    r00 += np.arange(0, ux.shape[0] * h * w, h * w)[:, None]
    # Exact in the input precision: x0 <= ucx <= x0 + 1 (Sterbenz).
    return r00, min(1, w - 1), w * min(1, h - 1), ucx - x0, ucy - y0


def _corners(plane: np.ndarray, plan: tuple):
    """The four corner values [n, p] of one channel plane [n*h*w]."""
    r, sx, sy = plan[:3]
    return (np.take(plane, r), np.take(plane[sx:], r),
            np.take(plane[sy:], r), np.take(plane[sy + sx:], r))


def _sample_pixel_forward(x: np.ndarray, plan: tuple) -> np.ndarray:
    """Bilinear gather. x: [n,c,h,w]; plan from pixel coords [n,p] -> [n,c,p].

    One channel at a time, so temporaries stay at one [n, p] plane."""
    n, c = x.shape[:2]
    fx, fy = plan[3:]
    out = np.empty((n, c, fx.shape[1]), dtype=x.dtype)
    for ci, plane in enumerate(x.transpose(1, 0, 2, 3).reshape(c, -1)):
        top, v01, bot, v11 = _corners(plane, plan)
        v01 -= top
        v01 *= fx
        top += v01
        v11 -= bot
        v11 *= fx
        bot += v11
        bot -= top
        bot *= fy
        np.add(top, bot, out=out[:, ci])
    return out


def _sample_scatter(plan: tuple, gy: np.ndarray, h: int, w: int) -> np.ndarray:
    """Input gradient of a bilinear read: gy [n,c,p] -> gx [n,c,h,w].

    Each corner is summed in float64 by ``bincount`` and the four sums
    are added in float32, in the fixed order 00, 01, 10, 11."""
    n, c, _ = gy.shape
    r00, sx, sy, fx, fy = plan
    gfx = 1.0 - fx
    gfy = 1.0 - fy
    rows = (r00, r00 + sx, r00 + sy, r00 + (sy + sx))
    weights = (gfx * gfy, fx * gfy, gfx * fy, fx * fy)
    gx = np.empty((n, c, h * w), dtype=gy.dtype)
    for ci in range(c):
        g = gy[:, ci]
        a00, a01, a10, a11 = (
            np.bincount(rk.ravel(), (g * wk).ravel(), n * h * w).astype(gy.dtype)
            for rk, wk in zip(rows, weights)
        )
        gx[:, ci] = (a00 + a01 + a10 + a11).reshape(n, h * w)
    return gx.reshape(n, c, h, w)


def _sample_pixel_vjp(
    x: np.ndarray, ux: np.ndarray, uy: np.ndarray, plan: tuple, gy: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    c, h, w = x.shape[1:]
    fx, fy = plan[3:]
    gfx = 1.0 - fx
    gfy = 1.0 - fy
    gux = np.zeros_like(fx)
    guy = np.zeros_like(fy)
    for ci, plane in enumerate(x.transpose(1, 0, 2, 3).reshape(c, -1)):
        g = gy[:, ci]
        v00, v01, v10, v11 = _corners(plane, plan)
        du = (v01 - v00) * gfy
        du += (v11 - v10) * fy
        du *= g
        gux += du
        dv = (v10 - v00) * gfx
        dv += (v11 - v01) * fx
        dv *= g
        guy += dv
    gux *= ((ux >= 0.0) & (ux <= w - 1.0)).astype(x.dtype)
    guy *= ((uy >= 0.0) & (uy <= h - 1.0)).astype(x.dtype)
    return _sample_scatter(plan, gy, h, w), gux, guy


def bilinear_sample(x: Tensor, grid: Tensor) -> Tensor:
    """Sample ``x`` at normalized grid points.

    ``grid`` has shape [N, H', W', 2] with (gx, gy) in [-1, 1] mapping to
    the outer pixel edges; returns [N, C, H', W'].
    """
    if x.rank != 4:
        raise DimensionError(f"sample input must be rank 4, got {x.shape}")
    if grid.rank != 4 or grid.shape[3] != 2:
        raise DimensionError(f"grid must be [N,H',W',2], got {grid.shape}")
    if grid.shape[0] != x.shape[0]:
        raise DimensionError(
            f"grid batch {grid.shape[0]} != input batch {x.shape[0]}"
        )
    _check_same_dtype(x.data, grid.data)
    n, c, h, w = x.shape
    oh, ow = grid.shape[1], grid.shape[2]
    g2 = grid.data.reshape(n, oh * ow, 2)
    ux = _pixel_coords(g2[:, :, 0], w)
    uy = _pixel_coords(g2[:, :, 1], h)
    y = _sample_pixel_forward(x.data, _sample_plan(ux, uy, h, w))
    return Tensor._wrap(y.reshape(n, c, oh, ow))


def _resize_coords(
    n: int, h: int, w: int, out_h: int, out_w: int, dtype: np.dtype
) -> tuple[np.ndarray, np.ndarray]:
    """Pixel coords [n, out_h*out_w] of an h x w -> out_h x out_w resize:
    output pixel j samples (j + 0.5) * in/out - 0.5."""
    dt = dtype.type
    ux = (np.arange(out_w, dtype=dt) + dt(0.5)) * (w / out_w) - dt(0.5)
    uy = (np.arange(out_h, dtype=dt) + dt(0.5)) * (h / out_h) - dt(0.5)
    ux = np.broadcast_to(ux, (n, out_h, out_w)).reshape(n, -1)
    uy = np.broadcast_to(uy[:, None], (n, out_h, out_w)).reshape(n, -1)
    return ux, uy


def _resize_plan(x: np.ndarray, out_h: int, out_w: int) -> tuple:
    n, _, h, w = x.shape
    return _sample_plan(*_resize_coords(n, h, w, out_h, out_w, x.dtype), h, w)


def resize_bilinear(x: Tensor, out_h: int, out_w: int) -> Tensor:
    """Resize an NCHW batch with edge-aligned-to-pixel-centers bilinear."""
    if x.rank != 4:
        raise DimensionError(f"resize input must be rank 4, got {x.shape}")
    if out_h < 1 or out_w < 1:
        raise DimensionError(f"output extents must be >= 1, got {out_h}x{out_w}")
    n, c, h, w = x.shape
    if (out_h, out_w) == (h, w):
        return Tensor._wrap(x.data.copy())
    y = _sample_pixel_forward(x.data, _resize_plan(x.data, out_h, out_w))
    return Tensor._wrap(y.reshape(n, c, out_h, out_w))


# ---------------------------------------------------------------------------
# Channel/space rearrangement


def _depth_to_space_forward(x: np.ndarray, s: int) -> np.ndarray:
    n, cs2, h, w = x.shape
    c = cs2 // (s * s)
    return (
        x.reshape(n, c, s, s, h, w)
        .transpose(0, 1, 4, 2, 5, 3)
        .reshape(n, c, h * s, w * s)
    )


def _space_to_depth_forward(y: np.ndarray, s: int) -> np.ndarray:
    n, c, hs, ws = y.shape
    h, w = hs // s, ws // s
    return (
        y.reshape(n, c, h, s, w, s)
        .transpose(0, 1, 3, 5, 2, 4)
        .reshape(n, c * s * s, h, w)
    )


def depth_to_space(x: Tensor, s: int) -> Tensor:
    """Rearrange [N, C*s*s, H, W] to [N, C, s*H, s*W].

    Output pixel (s*i + a, s*j + b) of channel c reads input channel
    c*s*s + a*s + b at (i, j).
    """
    if x.rank != 4:
        raise DimensionError(f"depth_to_space input must be rank 4, got {x.shape}")
    if s < 1 or x.shape[1] % (s * s):
        raise DimensionError(
            f"channel count {x.shape[1]} not divisible by {s}*{s}"
        )
    return Tensor._wrap(_depth_to_space_forward(x.data, s))


# ---------------------------------------------------------------------------
# Sigmoid, shared by the autodiff op, the fused BCE loss and predict


def _sigmoid_forward(x: np.ndarray) -> np.ndarray:
    z = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + z), z / (1.0 + z)).astype(x.dtype)
