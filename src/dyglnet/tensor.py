"""Dense CPU tensors and the numeric kernels, each next to its VJP.

Tensors are immutable rank-1..4 float arrays; feature maps use NCHW
layout. The kernels are convolution, the fused depthwise residual,
matmul, softmax, batchnorm, bilinear sampling and resize, and
depth-to-space; the element-wise and layout ops live in ``autodiff``.
Kernels are vectorized with numpy but keep a shape discipline
that mirrors the obvious loop nest: convolution walks kernel taps over
runs of a flat padded lattice, bilinear sampling gathers four neighbours
per point.
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
    StateError,
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
        if dtype is None:  # keep f32 or f64, read anything else as f64
            dtype = _DTYPE_NAMES.get(arr.dtype, "f64")
        arr = np.array(arr, dtype=_np_dtype(dtype), order="C", copy=True)
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
#
# Every conv kernel reads a flat lattice (``_lattice``), so tap (i, j) reads
# one contiguous run per channel, which a GEMM or a multiply takes as a
# strided view: no per-tap copy. The output is computed on an ho x wq
# lattice whose last wq - wo columns are dropped once.


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


def _lattice(x: np.ndarray, s: int, p: int, slack: bool) -> tuple[np.ndarray, int]:
    """x [n,c,h,w] zero-padded by p and split into s² phases, as
    ([n, c·s², rows·wq], wq): phase a·s + b of channel k holds padded
    pixel (r·s + a, q·s + b) at r·wq + q. ``slack`` adds a zero row, so a
    run of whole rows may start up to wq - 1 past a row's start. With
    s = 1, p = 0 and no slack it is a view of x."""
    n, c, h, w = x.shape
    hq, wq = -(-(h + 2 * p) // s), -(-(w + 2 * p) // s)
    if s == 1 and p == 0 and not slack:
        return x.reshape(n, c, h * w), wq
    xp = np.zeros((n, c, (hq + slack) * s, wq * s), dtype=x.dtype)
    xp[:, :, p : p + h, p : p + w] = x
    return _space_to_depth_forward(xp, s).reshape(n, c * s * s, -1), wq


def _take(x: np.ndarray | list[np.ndarray]) -> np.ndarray:
    """x, or the array a VJP's one-item box gives up so that the VJP can
    free it once read; an empty box means the VJP already ran."""
    if isinstance(x, list) and not x:
        raise StateError("this VJP already ran and released its saved input")
    return x.pop() if isinstance(x, list) else x


def _runs(kh: int, kw: int, d: int, s: int, wq: int):
    """Yield ``(i, j, phase, start)`` per kernel tap in row-major order:
    the lattice run that tap (i, j) reads, in which output (y, x) of an
    ho x wq lattice sits at y·wq + x."""
    for i in range(kh):
        for j in range(kw):
            (r, a), (q, b) = divmod(i * d, s), divmod(j * d, s)
            yield i, j, a * s + b, r * wq + q


def _conv2d_forward(
    x: np.ndarray, w: np.ndarray, b: np.ndarray, spec: ConvSpec
) -> np.ndarray:
    n, _, h, wid = x.shape
    cout, cin_g, kh, kw = w.shape
    g, s = spec.groups, spec.stride
    ho, wo = spec.out_size(h, kh), spec.out_size(wid, kw)
    xl, wq = _lattice(x, s, spec.padding, kw > 1)
    xg = xl.reshape(n, g, cin_g, s * s, -1)
    wg = w.reshape(g, cout // g, cin_g, kh, kw)
    run = ho * wq
    taps = [(wg[:, :, :, i, j], xg[:, :, :, ph, at : at + run])
            for i, j, ph, at in _runs(kh, kw, spec.dilation, s, wq)]
    acc = np.matmul(*taps[0])  # [n,g,cout_g,run]; the later taps add in place
    for wt, xt in taps[1:]:
        acc += np.matmul(wt, xt)
    y = acc.reshape(n, cout, ho, wq)[..., :wo]
    y += b.reshape(1, cout, 1, 1)
    return y


def _conv2d_vjp(
    x: np.ndarray | list[np.ndarray],
    w: np.ndarray,
    spec: ConvSpec,
    gy: np.ndarray,
    with_gx: bool,
) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    """(gx, gw, gb); gx is None unless ``with_gx``. gy goes on the output
    lattice with zeros in its pad columns, so every tap is two GEMMs. x
    (an array or a ``_take`` box) and its lattice are dropped before the
    gx taps; a stride-1, unpadded 1x1 conv's gx is its one GEMM."""
    x = _take(x)
    n, cin, h, wid = x.shape
    cout, cin_g, kh, kw = w.shape
    g, s, p = spec.groups, spec.stride, spec.padding
    cout_g = cout // g
    _, _, ho, wo = gy.shape
    xl, wq = _lattice(x, s, p, kw > 1)
    xg = xl.reshape(n, g, cin_g, s * s, -1)
    del x, xl  # xg is the last holder of x's lattice
    run = ho * wq
    gyl = gyg = np.ascontiguousarray(gy).reshape(n, g, cout_g, ho, wo)
    if wq > wo:
        gyl = np.zeros((n, g, cout_g, ho, wq), dtype=gy.dtype)
        gyl[..., :wo] = gyg
    gyl = gyl.reshape(n, g, cout_g, run)
    gb = gyg.sum(axis=(0, 3, 4)).reshape(cout)
    gw = np.empty_like(w)
    gwg = gw.reshape(g, cout_g, cin_g, kh, kw)
    for i, j, ph, at in _runs(kh, kw, spec.dilation, s, wq):
        # weight grad: sum_n [n,g,cout_g,run] @ [n,g,run,cin_g] -> [g,cout_g,cin_g]
        xr = xg[:, :, :, ph, at : at + run].transpose(0, 1, 3, 2)
        gwg[:, :, :, i, j] = np.matmul(gyl, xr).sum(axis=0)
    lattice = xg.shape
    del xg, xr
    if not with_gx:
        return None, gw, gb
    # input grad: [g,cin_g,cout_g] @ [n,g,cout_g,run] -> [n,g,cin_g,run]
    wt = w.reshape(g, cout_g, cin_g, kh, kw).transpose(0, 2, 1, 3, 4)
    if s == 1 and p == 0 and kh == kw == 1:  # x is its own lattice
        return np.matmul(wt[..., 0, 0], gyl).reshape(n, cin, h, wid), gw, gb
    gxl = np.zeros(lattice, dtype=gy.dtype)
    for i, j, ph, at in _runs(kh, kw, spec.dilation, s, wq):
        gxl[:, :, :, ph, at : at + run] += np.matmul(wt[..., i, j], gyl)
    gxp = _depth_to_space_forward(gxl.reshape(n, cin * s * s, -1, wq), s)  # off the phases
    return np.ascontiguousarray(gxp[:, :, p : p + h, p : p + wid]), gw, gb


def conv2d(x: Tensor, weight: Tensor, bias: Tensor, spec: ConvSpec) -> Tensor:
    """Grouped, dilated 2-d cross-correlation over an NCHW batch, plus a bias.

    ``weight`` has shape [out_channels, in_channels/groups, kh, kw];
    ``bias`` is per-output-channel.
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
    if bias.shape != (cout,):
        raise DimensionError(f"bias shape {bias.shape} != ({cout},)")
    _check_same_dtype(x.data, weight.data, bias.data)
    return Tensor._wrap(_conv2d_forward(x.data, weight.data, bias.data, spec))


# ---------------------------------------------------------------------------
# Depthwise residual: x + sum_k dwconv3x3(x, w_k; dilation = padding = d_k)

# Bytes of one [n, channel block, lattice run] slab. A block's taps all
# re-read the same slab, so it is sized to stay in a core's L2 cache.
_DW_BLOCK_BYTES = 1 << 18


def _dw_blocks(n: int, c: int, run: int, dtype: np.dtype) -> list[slice]:
    """The blocks of c channels whose [n, block, run] slab fits
    ``_DW_BLOCK_BYTES``: full ones, then what is left."""
    cb = max(1, min(c, _DW_BLOCK_BYTES // (n * run * dtype.itemsize)))
    return [slice(c0, min(c0 + cb, c)) for c0 in range(0, c, cb)]


def _dw_residual_forward(
    x: np.ndarray,
    ws: list[np.ndarray],
    dilations: tuple[int, ...],
    b: np.ndarray | None,
) -> np.ndarray:
    """x + sum_k dwconv3x3(x, ws[k]; dilation = padding = dilations[k])
    (+ b), on one lattice padded by the largest dilation."""
    xl, wq = _lattice(x, 1, max(dilations), True)
    return _dw_residual_taps(xl, wq, x.shape, ws, dilations, b)


def _dw_residual_taps(xl: np.ndarray, wq: int, shape: tuple, ws: list, dilations: tuple, b):
    """``_dw_residual_forward`` of an x of ``shape`` laid on lattice xl:
    each channel block's output starts as its run of x, then takes every tap."""
    n, c, h, w = shape
    pad = max(dilations)
    run, mid = h * wq, pad * (wq + 1)
    y = np.empty(shape, dtype=xl.dtype)
    blocks = _dw_blocks(n, c, run, xl.dtype)
    tmp, acc = np.empty((2, n, blocks[0].stop, run), dtype=xl.dtype)
    for blk in blocks:
        cb = blk.stop - blk.start
        ab, t = acc[:, :cb], tmp[:, :cb]
        if b is None:
            ab[...] = xl[:, blk, mid : mid + run]
        else:
            np.add(xl[:, blk, mid : mid + run], b[blk].reshape(cb, 1), out=ab)
        for wk, d in zip(ws, dilations):
            view = xl[:, blk, (pad - d) * (wq + 1) :]  # the lattice as if padded by d
            for i, j, _, at in _runs(3, 3, d, 1, wq):
                np.multiply(view[:, :, at : at + run], wk[blk, 0, i, j].reshape(cb, 1), out=t)
                ab += t
        y[:, blk] = ab.reshape(n, cb, h, wq)[..., :w]
    return y


def _dw_residual_vjp(
    x: np.ndarray | list[np.ndarray],
    ws: list[np.ndarray],
    dilations: tuple[int, ...],
    gy: np.ndarray,
    with_bias: bool,
) -> tuple[np.ndarray, list[np.ndarray], np.ndarray | None]:
    """(gx, [gw_k], gb) of ``_dw_residual_forward``; x is an array or a box
    (``_take``). It lays x and gy on lattices itself and drops x's after
    the gw taps. gx is the forward of gy with every kernel mirrored (the
    transpose), run on the same gy lattice."""
    n, c, h, w = gy.shape
    pad = max(dilations)
    xl, wq = _lattice(_take(x), 1, pad, True)
    gyl, _ = _lattice(gy, 1, pad, True)
    run, mid = h * wq, pad * (wq + 1)
    gws = [np.empty_like(w) for w in ws]
    for blk in _dw_blocks(n, c, run, xl.dtype):
        gyb = gyl[:, blk, mid : mid + run]  # gy, zero in the pad columns
        for gw, d in zip(gws, dilations):
            view = xl[:, blk, (pad - d) * (wq + 1) :]
            for i, j, _, at in _runs(3, 3, d, 1, wq):
                gw[blk, 0, i, j] = np.einsum("ncp,ncp->c", view[:, :, at : at + run], gyb)
    del xl, view
    gx = _dw_residual_taps(gyl, wq, gy.shape, [wk[:, :, ::-1, ::-1] for wk in ws], dilations, None)
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
    """Matrix product of two rank-2 or two batched rank-3 operands."""
    if a.rank != b.rank or a.rank not in (2, 3):
        raise DimensionError(
            f"matmul needs two rank-2 or two rank-3 operands, got {a.shape} @ {b.shape}"
        )
    if a.shape[-1] != b.shape[-2]:
        raise DimensionError(f"inner dims differ: {a.shape} @ {b.shape}")
    if a.shape[:-2] != b.shape[:-2]:
        raise DimensionError(f"batch dims differ: {a.shape} @ {b.shape}")
    _check_same_dtype(a.data, b.data)
    return Tensor._wrap(np.matmul(a.data, b.data))


def _matmul_vjp(
    a: np.ndarray, b: np.ndarray, g: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(ga, gb) of a @ b."""
    return np.matmul(g, np.swapaxes(b, -1, -2)), np.matmul(np.swapaxes(a, -1, -2), g)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along one axis (max-subtracted), in one
    buffer: the float64 quotient is rounded once into the exponentials."""
    if not -x.rank <= axis < x.rank:
        raise DimensionError(f"axis {axis} out of range for shape {x.shape}")
    e = x.data - np.max(x.data, axis=axis, keepdims=True)
    np.exp(e, out=e)
    s = np.sum(e, axis=axis, keepdims=True, dtype=np.float64)
    return Tensor._wrap(np.divide(e, s, out=e, casting="unsafe"))


def _softmax_vjp(y: np.ndarray, g: np.ndarray, axis: int) -> np.ndarray:
    """Input gradient of a softmax with output ``y``."""
    dot = np.sum(g * y, axis=axis, keepdims=True)
    return y * (g - dot)


# ---------------------------------------------------------------------------
# Batch normalization


_BN_MOMENTUM = 0.1  # weight of the batch statistics in the running update
_BN_EPS = 1e-5  # added to the variance before its square root


def _bn_batch_stats(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    m = x.shape[0] * x.shape[2] * x.shape[3]
    mean = x.mean(axis=(0, 2, 3), dtype=np.float64)
    # the float64 squared deviations, one image at a time, in one buffer
    dev, mc = np.empty(x.shape[1:], dtype=np.float64), mean.reshape(-1, 1, 1)
    ss = sum(np.square(np.subtract(xi, mc, out=dev), out=dev).sum(axis=(1, 2)) for xi in x)
    return mean.astype(x.dtype), (ss / m).astype(x.dtype), m


def batchnorm2d(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    running_mean: Tensor,
    running_var: Tensor,
    training: bool,
) -> tuple[Tensor, Tensor, Tensor, np.ndarray, np.ndarray]:
    """Per-channel batch normalization over an NCHW batch.

    Returns ``(y, new_running_mean, new_running_var, mean, var)``, where
    ``mean`` and ``var`` are the statistics ``y`` was normalized with;
    the VJP reuses them instead of computing them again. Training mode
    normalizes with biased batch statistics and returns running
    statistics advanced by ``(1-m)*old + m*new``, m = ``_BN_MOMENTUM``
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
        unbiased = var * (m / (m - 1))
        new_mean = (1.0 - _BN_MOMENTUM) * running_mean.data + _BN_MOMENTUM * mean
        new_var = (1.0 - _BN_MOMENTUM) * running_var.data + _BN_MOMENTUM * unbiased
        new_mean = Tensor._wrap(new_mean.astype(x.data.dtype))
        new_var = Tensor._wrap(new_var.astype(x.data.dtype))
    else:
        mean, var = running_mean.data, running_var.data
        new_mean, new_var = running_mean, running_var
    # gamma * (x - mean) / sqrt(var + _BN_EPS) + beta, in one buffer
    y = x.data - mean.reshape(1, c, 1, 1)
    y /= np.sqrt(var.reshape(1, c, 1, 1) + x.data.dtype.type(_BN_EPS))
    y *= gamma.data.reshape(1, c, 1, 1)
    y += beta.data.reshape(1, c, 1, 1)
    return Tensor._wrap(y), new_mean, new_var, mean, var


def _batchnorm2d_vjp(
    x: np.ndarray,
    gamma: np.ndarray,
    mean: np.ndarray,
    var: np.ndarray,
    training: bool,
):
    """The VJP of ``batchnorm2d`` normalized with ``mean`` and ``var``: a
    closure g -> (gx, ggamma, gbeta). It keeps ``x`` and forms the
    normalized input only when it runs. Training mode differentiates
    through the batch statistics too."""
    c = x.shape[1]
    m = x.shape[0] * x.shape[2] * x.shape[3]
    istd = (1.0 / np.sqrt(var.astype(np.float64) + _BN_EPS)).astype(x.dtype)

    def vjp(g):
        xhat = x - mean.reshape(1, c, 1, 1)
        xhat *= istd.reshape(1, c, 1, 1)
        ggamma = (g * xhat).sum(axis=(0, 2, 3))
        gbeta = g.sum(axis=(0, 2, 3))
        gi = gamma.reshape(1, c, 1, 1) * istd.reshape(1, c, 1, 1)
        if not training:
            return g * gi, ggamma, gbeta
        # gx = gi / m * (m * g - sum(g) - xhat * ggamma), in place
        gx = m * g
        gx -= gbeta.reshape(1, c, 1, 1)
        xhat *= ggamma.reshape(1, c, 1, 1)
        gx -= xhat
        gx *= gi / m
        return gx, ggamma, gbeta

    return vjp


# ---------------------------------------------------------------------------
# Bilinear sampling

# Convention: pixel i of an extent-S axis sits at continuous coordinate i,
# and normalized coordinate (2*i + 1)/S - 1, so the normalized range [-1, 1]
# spans the outer pixel edges. Out-of-range points clamp to the border and
# contribute zero gradient to the coordinates. Every sampler takes pixel
# coordinates u [n, 2, p], x then y on axis 1.

# The sampler walks the coordinate array u in chunks of whole rows,
# about this many points each, and rebuilds each chunk's corner indices
# and lerp fractions from the coordinates; the tape keeps only x and u.
# Only a row's own points reach its image, so a chunk of whole rows
# scatters into whole image planes: each bin's float64 ``bincount`` sum
# sees the same addends in the same order as one scatter over the batch.
_SAMPLE_CHUNK = 1 << 16


def _sample_chunks(u: np.ndarray, c: int, h: int, w: int):
    """Per chunk of whole rows of pixel coords u [n, 2, p], yields (rows,
    at, bins, steps, fx, fy): the row slice; the top-left corner as a flat
    index into x [n,c,h,w] at channel 0 and as a bin of the chunk's own
    [rows, h*w] planes; the steps to the four corners 00, 01, 10, 11
    (x0 <= w - 2, so a step is 1 unless its axis has one pixel); and the
    lerp fractions."""
    n, _, p = u.shape
    hw = h * w
    sx, sy = min(1, w - 1), w * min(1, h - 1)
    steps = (0, sx, sy, sy + sx)
    nr = max(1, _SAMPLE_CHUNK // max(p, 1))
    for r0 in range(0, n, nr):
        rows = slice(r0, min(r0 + nr, n))
        fx = np.clip(u[rows, 0], 0.0, w - 1.0)
        fy = np.clip(u[rows, 1], 0.0, h - 1.0)
        x0 = np.minimum(np.floor(fx), max(w - 2, 0))
        y0 = np.minimum(np.floor(fy), max(h - 2, 0))
        # Exact in the input precision: x0 <= fx <= x0 + 1 (Sterbenz).
        fx -= x0
        fy -= y0
        bins = y0.astype(np.int64) * w + x0.astype(np.int64)
        del x0, y0  # the generator's frame would keep them past the yield
        k = np.arange(rows.stop - r0)[:, None]
        at = bins + (r0 + k) * (c * hw)
        bins += k * hw
        yield rows, at, bins, steps, fx, fy


def _sample_pixel_forward(x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Bilinear gather. x: [n,c,h,w] at pixel coords u [n,2,p] -> [n,c,p].

    One chunk and one channel at a time, read from x's flat view, so
    temporaries stay at one chunk of one channel."""
    n, c, h, w = x.shape
    out = np.empty((n, c, u.shape[2]), dtype=x.dtype)
    xf = x.reshape(-1)
    for rows, at, _, steps, fx, fy in _sample_chunks(u, c, h, w):
        for ci in range(c):
            top, v01, bot, v11 = (np.take(xf[ci * h * w + s :], at) for s in steps)
            v01 -= top
            v01 *= fx
            top += v01
            v11 -= bot
            v11 *= fx
            bot += v11
            bot -= top
            bot *= fy
            np.add(top, bot, out=out[rows, ci])
    return out


def _sample_pixel_vjp(
    x: np.ndarray, u: np.ndarray, gy: np.ndarray, with_gu: bool
) -> tuple[np.ndarray, np.ndarray | None]:
    """(gx, gu) of a bilinear read at pixel coords u [n, 2, p]; gu is
    None when ``with_gu`` is false.

    gx is scattered by ``bincount``: each corner is summed in float64 and
    the four sums are added in the input precision, in the fixed order
    00, 01, 10, 11. Out-of-range coordinates get zero gradient."""
    n, c, h, w = x.shape
    hw = h * w
    xf = x.reshape(-1)
    gx = np.empty((n, c, hw), dtype=gy.dtype)
    gu = np.zeros(u.shape, dtype=x.dtype) if with_gu else None
    for rows, at, bins, steps, fx, fy in _sample_chunks(u, c, h, w):
        gfx = 1.0 - fx
        gfy = 1.0 - fy
        g = gy[rows]
        if with_gu:
            gux, guy = gu[rows, 0], gu[rows, 1]
            for ci in range(c):
                v00, v01, v10, v11 = (np.take(xf[ci * hw + s :], at) for s in steps)
                du = (v01 - v00) * gfy
                du += (v11 - v10) * fy
                du *= g[:, ci]
                gux += du
                dv = (v10 - v00) * gfx
                dv += (v11 - v01) * fx
                dv *= g[:, ci]
                guy += dv
            ux, uy = u[rows, 0], u[rows, 1]
            gux *= ((ux >= 0.0) & (ux <= w - 1.0)).astype(x.dtype)
            guy *= ((uy >= 0.0) & (uy <= h - 1.0)).astype(x.dtype)
        gxr = gx[rows]
        for k, (s, wx, wy) in enumerate(zip(steps, (gfx, fx, gfx, fx), (gfy, gfy, fy, fy))):
            b = (bins + s).ravel()
            wk = wx * wy
            for ci in range(c):
                a = np.bincount(b, (g[:, ci] * wk).ravel(), gxr.shape[0] * hw)
                a = a.astype(gy.dtype).reshape(-1, hw)
                if k == 0:
                    gxr[:, ci] = a
                else:
                    gxr[:, ci] += a
    return gx.reshape(n, c, h, w), gu


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
    g = grid.data.reshape(n, oh * ow, 2).transpose(0, 2, 1)
    half = np.asarray([[w], [h]], dtype=g.dtype) / 2  # normalized -> pixel coords
    y = _sample_pixel_forward(x.data, (g + 1.0) * half - 0.5)
    return Tensor._wrap(y.reshape(n, c, oh, ow))


def _resize_coords(
    n: int, h: int, w: int, out_h: int, out_w: int, dtype: np.dtype
) -> np.ndarray:
    """Pixel coords [n, 2, out_h*out_w] of an h x w -> out_h x out_w
    resize: output pixel j samples (j + 0.5) * in/out - 0.5."""
    dt = dtype.type
    ux = (np.arange(out_w, dtype=dt) + dt(0.5)) * (w / out_w) - dt(0.5)
    uy = (np.arange(out_h, dtype=dt) + dt(0.5)) * (h / out_h) - dt(0.5)
    u = np.empty((n, 2, out_h, out_w), dtype=dtype)
    u[:, 0] = ux
    u[:, 1] = uy[:, None]
    return u.reshape(n, 2, -1)


def resize_bilinear(x: Tensor, out_h: int, out_w: int) -> Tensor:
    """Resize an NCHW batch with edge-aligned-to-pixel-centers bilinear."""
    if x.rank != 4:
        raise DimensionError(f"resize input must be rank 4, got {x.shape}")
    if out_h < 1 or out_w < 1:
        raise DimensionError(f"output extents must be >= 1, got {out_h}x{out_w}")
    n, c, h, w = x.shape
    if (out_h, out_w) == (h, w):
        return Tensor._wrap(x.data.copy())
    u = _resize_coords(n, h, w, out_h, out_w, x.data.dtype)
    y = _sample_pixel_forward(x.data, u)
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
