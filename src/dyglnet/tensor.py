"""Dense CPU tensors and the numeric kernels, each next to its VJP.

Tensors are immutable rank-1..4 float arrays; feature maps use NCHW
layout. The kernels are convolution, the fused depthwise residual,
matmul, softmax, batchnorm and bilinear sampling; the element-wise and
layout ops live in ``autodiff``.
Only ``conv2d``, ``matmul`` and ``bilinear_sample`` take tensors and
check them; the other kernels take arrays, and ``autodiff``, which owns
the tape, checks their arguments and hands their VJPs plain arrays.
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

from .errors import ContractError, DegenerateStatisticsError, DimensionError, NumericError

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
    for a in arrays[1:]:
        if a.dtype != arrays[0].dtype:
            raise ContractError(f"mixed dtypes {arrays[0].dtype} and {a.dtype}")


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


def _phases(h: int, w: int, s: int, p: int):
    """Yield ``(at, of)`` per phase a·s + b of an h x w map x padded by p
    and split by stride s: x[of] is what the phase holds, at lattice[at]
    of a [..., s·s, rows, wq] lattice."""

    def axis(k: int, size: int) -> tuple[slice, slice]:  # x's pixels, the phase's
        i0 = (k - p) % s
        r0 = (i0 + p - k) // s
        return slice(i0, None, s), slice(r0, r0 + len(range(i0, size, s)))

    for a in range(s):
        for b in range(s):
            (xr, lr), (xc, lc) = axis(a, h), axis(b, w)
            yield (..., a * s + b, lr, lc), (..., xr, xc)


def _lattice(x: np.ndarray, s: int, p: int, slack: bool) -> tuple[np.ndarray, int]:
    """x [n,c,h,w] zero-padded by p and split into s² phases, as
    ([n, c·s², rows·wq], wq): phase a·s + b of channel k holds padded
    pixel (r·s + a, q·s + b) at r·wq + q. ``slack`` adds a zero row, so a
    run of whole rows may start up to wq - 1 past a row's start. With
    s = 1, p = 0 and no slack it is a view of x; otherwise x is written
    straight into its phases."""
    n, c, h, w = x.shape
    hq, wq = -(-(h + 2 * p) // s), -(-(w + 2 * p) // s)
    if s == 1 and p == 0 and not slack:
        return x.reshape(n, c, h * w), wq
    xl = np.zeros((n, c, s * s, hq + slack, wq), dtype=x.dtype)
    for at, of in _phases(h, w, s, p):
        xl[at] = x[of]
    return xl.reshape(n, c * s * s, -1), wq


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
    x: list,
    w: np.ndarray,
    spec: ConvSpec,
    gy: np.ndarray,
    with_gx: bool,
) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    """(gx, gw, gb); gx is None unless ``with_gx``. gy goes on the output
    lattice with zeros in its pad columns, so every tap is two GEMMs. x
    comes as a one-item list, so that popping it here lets x and its
    lattice go before the gx taps; a stride-1, unpadded 1x1 conv's gx is
    its one GEMM."""
    x = x.pop()
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
    gxl, gx = gxl.reshape(n, cin, s * s, -1, wq), np.empty((n, cin, h, wid), dtype=gy.dtype)
    for at, of in _phases(h, wid, s, p):  # the unpadded pixels, off the phases
        gx[of] = gxl[at]
    return gx, gw, gb


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

# Bytes of one channel block's lattice runs. A block's taps all re-read
# the same slab, so it is sized to stay in a core's L2 cache. The forward
# lays a block as [cb, rows, W]: each row holds the batch's images side
# by side, so a channel is one run of h·W elements.
_DW_BLOCK_BYTES = 1 << 18


def _dw_blocks(c: int, run: int, dtype: np.dtype) -> list[slice]:
    """The blocks of c channels whose [block, run] slab fits
    ``_DW_BLOCK_BYTES``: full ones, then what is left."""
    cb = max(1, min(c, _DW_BLOCK_BYTES // (run * dtype.itemsize)))
    return [slice(c0, min(c0 + cb, c)) for c0 in range(0, c, cb)]


def _dw_residual_forward(
    xs: list[np.ndarray],
    ws: list[np.ndarray],
    dilations: tuple[int, ...],
    b: np.ndarray | None,
) -> np.ndarray:
    """x + sum_k dwconv3x3(x, ws[k]; dilation = padding = dilations[k])
    (+ b) for x the channel concatenation of the parts xs, never formed.
    Each channel block of each part is laid on one zeroed slab [cb, h +
    2·pad + 1, W], pad the largest dilation: its rows hold the n images
    side by side, W = n·(w + pad) + pad, so neighbours share pad zero
    columns and a tap never reaches another image. A channel's output
    starts as its run of h·W (plus its bias), then takes every tap; at
    n = 1 this is one image's lattice."""
    n, _, h, w = xs[0].shape
    pad = max(dilations)
    wr = n * (w + pad) + pad
    run, mid = h * wr, pad * (wr + 1)
    y = np.empty((n, sum(x.shape[1] for x in xs), h, w), dtype=xs[0].dtype)
    c0 = 0
    for x in xs:
        blocks = _dw_blocks(x.shape[1], run, x.dtype)
        slab = np.zeros((blocks[0].stop, h + 2 * pad + 1, wr), dtype=x.dtype)
        tmp, acc = np.empty((2, blocks[0].stop, run), dtype=x.dtype)
        for blk in blocks:
            cb, out = blk.stop - blk.start, slice(c0 + blk.start, c0 + blk.stop)
            # both reshapes split a contiguous axis, so they are views
            slab[:cb, pad : pad + h, pad:].reshape(cb, h, n, w + pad)[..., :w] = (
                x[:, blk].transpose(1, 2, 0, 3))
            xl, ab, t = slab[:cb].reshape(cb, -1), acc[:cb], tmp[:cb]
            if b is None:
                ab[...] = xl[:, mid : mid + run]
            else:
                np.add(xl[:, mid : mid + run], b[out].reshape(cb, 1), out=ab)
            for wk, d in zip(ws, dilations):
                view = xl[:, (pad - d) * (wr + 1) :]  # the lattice as if padded by d
                for i, j, _, at in _runs(3, 3, d, 1, wr):
                    np.multiply(view[:, at : at + run], wk[out, 0, i, j].reshape(cb, 1), out=t)
                    ab += t
            y[:, out] = ab.reshape(cb, h, wr)[:, :, : wr - pad].reshape(cb, h, n, w + pad)[
                ..., :w].transpose(2, 0, 1, 3)
        c0 += x.shape[1]
    return y


def _dw_residual_vjp(
    xs: list[list[np.ndarray]],
    ws: list[np.ndarray],
    dilations: tuple[int, ...],
    gy: np.ndarray,
    with_gx: list[bool],
    with_bias: bool,
) -> tuple[list[np.ndarray | None], list[np.ndarray], np.ndarray | None]:
    """([gx per part], [gw_k], gb) of ``_dw_residual_forward``. Each part
    comes as a one-item list and is popped, so it is dropped after its gw
    taps, which read its blocks and gy's on per-image lattices
    (``_lattice``: folding the batch would change each einsum's summation
    order); the branches' centre taps read one run, so their gw is one
    einsum. A part's gx (None unless its ``with_gx``) is the forward of
    its gy with every kernel mirrored, so it lays the batch side by side
    too."""
    n, _, h, w = gy.shape
    pad = max(dilations)
    wq = w + 2 * pad
    run, mid = h * wq, pad * (wq + 1)
    gws = [np.empty_like(wk) for wk in ws]
    gxs, c0 = [], 0
    for box, want_gx in zip(xs, with_gx):
        x = box.pop()
        part = slice(c0, c0 + x.shape[1])
        for blk in _dw_blocks(x.shape[1], n * run, x.dtype):
            out = slice(c0 + blk.start, c0 + blk.stop)
            xl = _lattice(x[:, blk], 1, pad, True)[0]
            gyb = _lattice(gy[:, out], 1, pad, True)[0][:, :, mid : mid + run]  # zero pad columns
            centre = np.einsum("ncp,ncp->c", xl[:, :, mid : mid + run], gyb)
            for gw, d in zip(gws, dilations):
                view = xl[:, :, (pad - d) * (wq + 1) :]
                for i, j, _, at in _runs(3, 3, d, 1, wq):
                    gw[out, 0, i, j] = centre if i == j == 1 else np.einsum(
                        "ncp,ncp->c", view[:, :, at : at + run], gyb
                    )
        del x, xl, view  # the last block's lattice holds a copy of x
        mirrored = [wk[part, :, ::-1, ::-1] for wk in ws]
        gx = _dw_residual_forward([gy[:, part]], mirrored, dilations, None) if want_gx else None
        gxs.append(gx)
        c0 = part.stop
    gb = gy.sum(axis=(0, 2, 3)) if with_bias else None
    return gxs, gws, gb


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


def _softmax_forward(x: np.ndarray, axis: int) -> np.ndarray:
    """Numerically stable softmax along one axis (max-subtracted), in one
    buffer: the float64 quotient is rounded once into the exponentials."""
    e = x - np.max(x, axis=axis, keepdims=True)
    np.exp(e, out=e)
    s = np.sum(e, axis=axis, keepdims=True, dtype=np.float64)
    return np.divide(e, s, out=e, casting="unsafe")


def _softmax_vjp(y: np.ndarray, g: np.ndarray, axis: int) -> np.ndarray:
    """Input gradient of a softmax with output ``y``."""
    dot = np.sum(g * y, axis=axis, keepdims=True)
    return y * (g - dot)


# ---------------------------------------------------------------------------
# Batch normalization


_BN_MOMENTUM = 0.1  # weight of the batch statistics in the running update
_BN_EPS = 1e-5  # added to the variance before its square root


def _bn_train_stats(x, running_mean, running_var) -> tuple[np.ndarray, ...]:
    """(mean, var, new running mean, new running var) of a training-mode
    batchnorm of x [n, c, h, w]: the biased batch statistics, and the
    running ones advanced by ``(1-m)*old + m*new``, m = ``_BN_MOMENTUM``
    (the running variance takes the unbiased estimate)."""
    m = x.shape[0] * x.shape[2] * x.shape[3]
    if m == 1:
        raise DegenerateStatisticsError("batch statistics over a single element (N*H*W == 1)")
    mean = x.mean(axis=(0, 2, 3), dtype=np.float64)
    # the float64 squared deviations, one image at a time, in one buffer
    dev, mc = np.empty(x.shape[1:], dtype=np.float64), mean.reshape(-1, 1, 1)
    ss = sum(np.square(np.subtract(xi, mc, out=dev), out=dev).sum(axis=(1, 2)) for xi in x)
    mean, var = mean.astype(x.dtype), (ss / m).astype(x.dtype)
    unbiased = var * (m / (m - 1))
    new_mean = (1.0 - _BN_MOMENTUM) * running_mean + _BN_MOMENTUM * mean
    new_var = (1.0 - _BN_MOMENTUM) * running_var + _BN_MOMENTUM * unbiased
    return mean, var, new_mean.astype(x.dtype), new_var.astype(x.dtype)


def _bn_normalize(x, mean, var, gamma, beta) -> np.ndarray:
    """gamma * (x - mean) / sqrt(var + _BN_EPS) + beta per channel of x
    [n, c, h, w], in one buffer."""
    c = x.shape[1]
    y = x - mean.reshape(1, c, 1, 1)
    y /= np.sqrt(var.reshape(1, c, 1, 1) + x.dtype.type(_BN_EPS))
    y *= gamma.reshape(1, c, 1, 1)
    y += beta.reshape(1, c, 1, 1)
    return y


def _batchnorm2d_vjp(
    x: np.ndarray,
    gamma: np.ndarray,
    mean: np.ndarray,
    var: np.ndarray,
    training: bool,
):
    """The VJP of a batchnorm normalized with ``mean`` and ``var``: a
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
# At 16K f32 points a chunk's plan (at, bins, fx, fy), corner buffer and
# VJP temporaries come to about 1 MiB, inside one core's 2 MiB L2. Of the
# sizes tried on a tiny batch-16 step (64x64), 1 << 13 made the dec.up4
# VJP 13% slower (13.6 -> 15.4 ms), and 1 << 15 cut only 2.3 MiB off the
# step's traced peak, which 1 << 14 cuts by 3.5 MiB (18.1 -> 14.7).
_SAMPLE_CHUNK = 1 << 14


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
        bins = y0.astype(np.int64)  # y0 * w + x0, in place
        bins *= w
        bins += x0.astype(np.int64)
        del x0, y0  # the generator's frame would keep them past the yield
        k = np.arange(rows.stop - r0)[:, None]
        at = bins + (r0 + k) * (c * hw)
        bins += k * hw
        yield rows, at, bins, steps, fx, fy


def _sample_pixel_forward(x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Bilinear gather. x: [n,c,h,w] at pixel coords u [n,2,p] -> [n,c,p].

    One chunk and one channel at a time, read from x's flat view into
    one corner buffer per chunk, so temporaries stay at one chunk."""
    n, c, h, w = x.shape
    out = np.empty((n, c, u.shape[2]), dtype=x.dtype)
    xf = x.reshape(-1)
    for rows, at, _, steps, fx, fy in _sample_chunks(u, c, h, w):
        top, v01, bot, v11 = v = np.empty((4, *at.shape), dtype=x.dtype)
        for ci in range(c):
            for vk, s in zip(v, steps):  # "clip" writes to out unbuffered;
                np.take(xf[ci * h * w + s :], at, out=vk, mode="clip")  # no index clips
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
    00, 01, 10, 11. Out-of-range coordinates get zero gradient. A chunk's
    buffers serve every channel; its float64 weights are input-precision
    products, cast once as ``bincount`` would cast them."""
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
            v00, v01, v10, v11 = v = np.empty((4, *at.shape), dtype=x.dtype)
            for ci in range(c):
                for vk, s in zip(v, steps):  # "clip" writes to out unbuffered;
                    np.take(xf[ci * hw + s :], at, out=vk, mode="clip")  # no index clips
                du = (v01 - v00) * gfy
                du += (v11 - v10) * fy
                du *= g[:, ci]
                gux += du
                dv = (v10 - v00) * gfx
                dv += (v11 - v01) * fx
                dv *= g[:, ci]
                guy += dv
            del v, v00, v01, v10, v11, du, dv
            ux, uy = u[rows, 0], u[rows, 1]
            gux *= ((ux >= 0.0) & (ux <= w - 1.0)).astype(x.dtype)
            guy *= ((uy >= 0.0) & (uy <= h - 1.0)).astype(x.dtype)
        gxr = gx[rows]
        wk, w64 = np.empty_like(fx), np.empty(fx.shape, dtype=np.float64)
        moves = np.diff(steps, prepend=0)  # bins steps to each corner in place
        for k, (ds, wx, wy) in enumerate(zip(moves, (gfx, fx, gfx, fx), (gfy, gfy, fy, fy))):
            bins += ds
            np.multiply(wx, wy, out=wk)
            for ci in range(c):
                np.multiply(g[:, ci], wk, out=w64)
                a = np.bincount(bins.ravel(), w64.ravel(), gxr.shape[0] * hw).reshape(-1, hw)
                if k == 0:
                    gxr[:, ci] = a
                else:
                    gxr[:, ci] += a.astype(gy.dtype)
        del at, bins, fx, fy, gfx, gfy, wk, w64  # before the next chunk's are built
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


# ---------------------------------------------------------------------------
# Sigmoid, shared by the autodiff op, the fused BCE loss and predict


def _sigmoid_forward(x: np.ndarray) -> np.ndarray:
    z = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + z), z / (1.0 + z)).astype(x.dtype)
