"""Kernel-level checks: pinned hand values plus randomized agreement with
the loop oracles in oracles.py."""
from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

import oracles
from dyglnet import autodiff as ad
from dyglnet import tensor as T
from dyglnet.errors import (
    ContractError,
    DegenerateStatisticsError,
    DimensionError,
    NumericError,
)
from dyglnet.network import Model, ModelConfig
from dyglnet.tensor import ConvSpec, Tensor


def t64(a):
    return Tensor(np.asarray(a, dtype=np.float64), dtype="f64")


# ---------------------------------------------------------------------------
# Tensor container invariants


def test_tensor_accepts_rank_1_through_4():
    for shape in [(3,), (2, 3), (2, 3, 4), (1, 2, 3, 4)]:
        t = Tensor(np.zeros(shape), dtype="f32")
        assert t.shape == shape and t.rank == len(shape)


def test_tensor_scalar_promotes_rank_5_rejects():
    # A bare scalar is stored as shape (1,); rank 5 has no representation.
    assert Tensor(3.0, dtype="f64").shape == (1,)
    with pytest.raises(DimensionError):
        Tensor(np.zeros((1, 1, 1, 1, 1)), dtype="f32")
    with pytest.raises(DimensionError):
        Tensor(np.zeros((0, 2)), dtype="f32")


def test_tensor_rejects_non_finite():
    with pytest.raises(NumericError):
        Tensor(np.array([1.0, np.nan]), dtype="f64")
    with pytest.raises(NumericError):
        Tensor(np.array([np.inf, 0.0]), dtype="f32")


def test_tensor_dtype_and_item():
    t = Tensor(np.array([2.5]), dtype="f32")
    assert t.dtype == "f32" and t.data.dtype == np.float32
    assert t.item() == np.float32(2.5)
    with pytest.raises(ContractError):
        Tensor(np.array([1.0, 2.0]), dtype="f64").item()


def test_tensor_astype_round_trips_and_rejects_unknown_dtypes():
    x = np.random.default_rng(2).normal(size=(2, 3)).astype(np.float32)
    t = Tensor(x, dtype="f32")
    wide = t.astype("f64")
    assert wide.dtype == "f64" and wide.data.dtype == np.float64
    np.testing.assert_array_equal(wide.data, x.astype(np.float64))
    back = wide.astype("f32")
    assert back.dtype == "f32"
    assert back.data.tobytes() == x.tobytes()
    with pytest.raises(ContractError, match="f16"):
        t.astype("f16")


# ---------------------------------------------------------------------------
# conv2d


def test_conv2d_ones_kernel_pinned():
    x = t64(np.ones((1, 1, 3, 3)))
    w = t64(np.ones((1, 1, 3, 3)))
    y = T.conv2d(x, w, t64(np.zeros(1)), ConvSpec(stride=1, padding=1)).data[0, 0]
    assert y[1, 1] == pytest.approx(9.0, abs=1e-12)
    for corner in (y[0, 0], y[0, 2], y[2, 0], y[2, 2]):
        assert corner == pytest.approx(4.0, abs=1e-12)


def test_conv2d_identity_kernel_grouped():
    rng = np.random.default_rng(0)
    x = t64(rng.normal(size=(1, 2, 4, 4)))
    w = t64(np.ones((2, 1, 1, 1)))
    y = T.conv2d(x, w, t64(np.zeros(2)), ConvSpec(groups=2))
    np.testing.assert_array_equal(y.data, x.data)


def test_conv2d_dilated_depthwise_vs_oracle():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(1, 4, 8, 8))
    w = rng.normal(size=(4, 1, 3, 3))
    got = T.conv2d(
        t64(x), t64(w), t64(np.zeros(4)), ConvSpec(padding=2, dilation=2, groups=4)
    )
    want = oracles.conv2d_naive(x, w, None, padding=2, dilation=2, groups=4)
    np.testing.assert_allclose(got.data, want, atol=1e-6)


def test_conv2d_200_random_cases_vs_oracle():
    # Strides up to 3 split the padded input into up to 9 phases, and
    # 5-wide kernels read them at nonzero row and column offsets.
    rng = np.random.default_rng(7)
    seen = set()
    for case in range(200):
        n = int(rng.integers(1, 3))
        cin = int(rng.integers(1, 5))
        k = int(rng.choice([1, 3, 5]))
        dilation = int(rng.choice([1, 2, 3])) if k > 1 else 1
        groups = int(rng.choice([1, cin]))
        cout = int(rng.integers(1, 3)) * groups
        stride = int(rng.choice([1, 2, 3]))
        seen.add((stride, k))
        pad = int(rng.integers(0, 3))
        eff = dilation * (k - 1) + 1
        low = max(1, eff - 2 * pad)
        h = int(rng.integers(low, low + 5))
        w = int(rng.integers(low, low + 5))
        x = rng.normal(size=(n, cin, h, w))
        wt = rng.normal(size=(cout, cin // groups, k, k))
        b = rng.normal(size=(cout,)) if rng.random() < 0.5 else None
        spec = ConvSpec(stride=stride, padding=pad, dilation=dilation, groups=groups)
        got = T.conv2d(t64(x), t64(wt), t64(np.zeros(cout) if b is None else b), spec)
        want = oracles.conv2d_naive(x, wt, b, stride, pad, dilation, groups)
        np.testing.assert_allclose(got.data, want, atol=1e-6, err_msg=f"case {case}")
    assert seen == {(s, k) for s in (1, 2, 3) for k in (1, 3, 5)}


def test_conv2d_depthwise_sweep_vs_oracle():
    # Strict depthwise (groups == cin == cout) at up to 16 channels.
    rng = np.random.default_rng(8)
    for case in range(40):
        c = int(rng.integers(1, 17))
        k = int(rng.choice([1, 3]))
        dilation = int(rng.integers(1, 4))
        stride = int(rng.choice([1, 2]))
        pad = int(rng.integers(0, 4))
        low = max(1, dilation * (k - 1) + 1 - 2 * pad)
        h, w = rng.integers(low, low + 6, 2)
        x = rng.normal(size=(int(rng.integers(1, 3)), c, h, w))
        wt = rng.normal(size=(c, 1, k, k))
        b = rng.normal(size=(c,)) if rng.random() < 0.5 else None
        spec = ConvSpec(stride=stride, padding=pad, dilation=dilation, groups=c)
        got = T.conv2d(t64(x), t64(wt), t64(np.zeros(c) if b is None else b), spec)
        want = oracles.conv2d_naive(x, wt, b, stride, pad, dilation, c)
        np.testing.assert_allclose(got.data, want, atol=1e-6, err_msg=f"case {case}")


def test_conv2d_vjp_adjoint_vs_oracle():
    # y = conv(x, w) + b is linear in x and in w separately, so for any
    # cotangent gy each VJP term must reproduce <y_nobias, gy> (and the
    # bias term <b broadcast, gy>). Covers strict depthwise, grouped with
    # a channel multiplier, and dense convs, at strides 1-3 and kernels
    # 1, 3 and 5.
    rng = np.random.default_rng(9)
    seen = set()
    for case in range(200):
        kind = case % 3
        if kind == 0:
            groups = int(rng.integers(1, 9))
            cin_g, cout_g = 1, 1
        elif kind == 1:
            groups = int(rng.integers(1, 4))
            cin_g, cout_g = int(rng.integers(1, 3)), int(rng.integers(2, 4))
        else:
            groups = 1
            cin_g, cout_g = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        k = int(rng.choice([1, 3, 5]))
        dilation = int(rng.integers(1, 4))
        stride = int(rng.choice([1, 2, 3]))
        seen.add((stride, k))
        pad = int(rng.integers(0, 4))
        low = max(1, dilation * (k - 1) + 1 - 2 * pad)
        n = int(rng.integers(1, 3))
        x = rng.normal(size=(n, groups * cin_g, *rng.integers(low, low + 5, 2)))
        wt = rng.normal(size=(groups * cout_g, cin_g, k, k))
        b = rng.normal(size=(groups * cout_g,))
        spec = ConvSpec(stride=stride, padding=pad, dilation=dilation, groups=groups)
        y = oracles.conv2d_naive(x, wt, None, stride, pad, dilation, groups)
        gy = rng.normal(size=y.shape)
        gx, gw, gb = T._conv2d_vjp(x, wt, spec, gy, True)
        assert gx.shape == x.shape and gw.shape == wt.shape
        terms = [
            (np.vdot(x, gx), np.vdot(y, gy)),
            (np.vdot(wt, gw), np.vdot(y, gy)),
            (np.vdot(b, gb), np.sum(b.reshape(1, -1, 1, 1) * gy)),
        ]
        for got, want in terms:
            assert abs(got - want) <= 1e-6 * max(1.0, abs(want)), f"case {case}"
    assert seen == {(s, k) for s in (1, 2, 3) for k in (1, 3, 5)}


def _conv_jacobians(x, w, stride, pad, dilation, groups):
    """Dense Jacobians of y = conv(x, w) (raveled) with respect to x and
    to w. conv is linear in each, so column k is the oracle applied to
    the k-th unit input (or unit weight) with the other operand fixed."""

    def column(xk, wk):
        return oracles.conv2d_naive(xk, wk, None, stride, pad, dilation, groups).ravel()

    jx = np.stack([column(e.reshape(x.shape), w) for e in np.eye(x.size)], axis=1)
    jw = np.stack([column(x, e.reshape(w.shape)) for e in np.eye(w.size)], axis=1)
    return jx, jw


@pytest.mark.parametrize(
    "x_shape, w_shape, stride, pad, dilation, groups",
    [
        ((2, 4, 4, 5), (6, 2, 3, 3), 1, 1, 1, 2),  # groups, channel multiplier 3
        ((2, 2, 7, 9), (3, 2, 2, 2), 2, 0, 1, 1),  # stride 2, odd extents
        ((1, 2, 9, 8), (3, 2, 3, 3), 1, 2, 2, 1),  # dilation 2
        ((2, 2, 8, 7), (2, 1, 3, 3), 1, 1, 3, 2),  # dilation 3, grouped
        ((1, 3, 4, 5), (2, 3, 3, 3), 2, 3, 1, 1),  # padding 3 > d(k-1) = 2
    ],
)
def test_conv2d_vjp_entrywise_vs_dense_jacobian(
    x_shape, w_shape, stride, pad, dilation, groups
):
    # gx = Jx^T gy and gw = Jw^T gy, compared entry by entry, so a
    # gradient landing on the wrong tap, channel or pixel fails even
    # where an inner-product check could balance it out.
    rng = np.random.default_rng(sum(x_shape) + 7 * sum(w_shape))
    x = rng.normal(size=x_shape)
    wt = rng.normal(size=w_shape)
    spec = ConvSpec(stride=stride, padding=pad, dilation=dilation, groups=groups)
    y = oracles.conv2d_naive(x, wt, None, stride, pad, dilation, groups)
    gy = rng.normal(size=y.shape)
    jx, jw = _conv_jacobians(x, wt, stride, pad, dilation, groups)
    gx, gw, _ = T._conv2d_vjp(x, wt, spec, gy, True)
    np.testing.assert_allclose(gx, (jx.T @ gy.ravel()).reshape(x.shape), rtol=0, atol=1e-9)
    np.testing.assert_allclose(gw, (jw.T @ gy.ravel()).reshape(wt.shape), rtol=0, atol=1e-9)
    if stride == 2 and pad == 0:
        # No output reads the last input row or column: 7 and 9 leave
        # one over after 2-wide taps at stride 2.
        assert not gx[:, :, -1, :].any() and not gx[:, :, :, -1].any()


def _default_model_conv_geometries(monkeypatch):
    """(weight shape, spec) of every conv2d call one forward of the
    default model makes, in call order, without repeats."""
    seen = []
    conv2d = ad.conv2d

    def spy(x, weight, bias, spec):
        geometry = (weight.tensor.shape, spec)
        if geometry not in seen:
            seen.append(geometry)
        return conv2d(x, weight, bias, spec)

    with monkeypatch.context() as m:
        m.setattr(ad, "conv2d", spy)
        Model(ModelConfig(), seed=0).predict(Tensor(np.zeros((1, 3, 32, 32)), dtype="f32"))
    return seen


def test_conv2d_vjp_adjoint_on_default_model_geometries(monkeypatch):
    # Every dense conv of the default model at its own channel counts,
    # kernel, stride and padding, on a 9..16 px input: <x, gx> and
    # <w, gw> must both equal <conv(x, w), gy>.
    geometries = _default_model_conv_geometries(monkeypatch)
    assert {spec.stride for _, spec in geometries} == {1, 2}
    assert {w_shape[2] for w_shape, _ in geometries} == {1, 3}
    rng = np.random.default_rng(17)
    for (cout, cin_g, kh, kw), spec in geometries:
        x = rng.normal(size=(2, cin_g * spec.groups, *rng.integers(9, 17, 2)))
        wt = rng.normal(size=(cout, cin_g, kh, kw))
        y = T.conv2d(t64(x), t64(wt), t64(np.zeros(cout)), spec).data
        gy = rng.normal(size=y.shape)
        gx, gw, _ = T._conv2d_vjp(x, wt, spec, gy, True)
        want = np.vdot(y, gy)
        for got in (np.vdot(x, gx), np.vdot(wt, gw)):
            assert abs(got - want) <= 1e-9 * abs(want), (cout, cin_g, kh, spec)


def test_conv2d_vjp_non_contiguous_cotangent_bit_identical():
    rng = np.random.default_rng(23)
    x = rng.normal(size=(2, 6, 11, 10))
    wt = rng.normal(size=(4, 3, 3, 3))
    spec = ConvSpec(stride=2, padding=1, groups=2)
    ho, wo = spec.out_size(11, 3), spec.out_size(10, 3)
    # reversed channels, every other row, transposed spatial axes
    gy = rng.normal(size=(2, 4, wo, 2 * ho))[:, ::-1, :, ::2].transpose(0, 1, 3, 2)
    assert gy.shape == (2, 4, ho, wo) and not gy.flags.c_contiguous
    got = T._conv2d_vjp(x, wt, spec, gy, True)
    want = T._conv2d_vjp(x, wt, spec, np.ascontiguousarray(gy), True)
    for a, b in zip(got, want):
        np.testing.assert_array_equal(a, b)


def test_conv2d_group_divisibility_error():
    x = t64(np.zeros((1, 3, 4, 4)))
    w = t64(np.zeros((2, 1, 1, 1)))
    with pytest.raises(DimensionError):
        T.conv2d(x, w, t64(np.zeros(2)), ConvSpec(groups=2))


# ---------------------------------------------------------------------------
# depthwise residual: x + sum_k dwconv3x3(x, w_k; dilation = padding = d_k)

_DW_BLOCK_BYTES = T._DW_BLOCK_BYTES


def _dw_branch(x, w, d):
    return oracles.conv2d_naive(x, w, None, padding=d, dilation=d, groups=x.shape[1])


def _dw_residual_oracle(x, ws, dilations, b):
    want = np.array(x, dtype=np.float64)
    for w, d in zip(ws, dilations):
        want += _dw_branch(x, w, d)
    if b is not None:
        want += b.reshape(1, -1, 1, 1)
    return want


def _run(h, w, dilations):
    # one channel's lattice run: h rows of pitch w + 2 * max(dilations)
    return h * (w + 2 * max(dilations))


def _channel_blocks(x, dilations):
    n, c, h, w = x.shape
    return [(s.start, s.stop) for s in T._dw_blocks(n, c, _run(h, w, dilations), x.dtype)]


@pytest.mark.parametrize(
    "n, c, h, w, dilations, bias, block_channels",
    [
        (2, 5, 6, 7, (1, 2, 3), True, None),
        (1, 4, 5, 5, (1, 2, 3), False, None),
        (2, 3, 5, 4, (2, 2), True, None),  # duplicate rates
        (2, 4, 2, 2, (1, 2, 3), False, None),  # rate >= extent (the tiny net's 2x2 maps)
        (1, 2, 1, 3, (3,), True, None),
        (2, 7, 4, 5, (1, 2, 3), True, 3),  # blocks 3, 3 and a partial 1
        (1, 10, 3, 3, (1, 3), False, 4),  # blocks 4, 4 and a partial 2
        (3, 3, 64, 64, (2,), True, None),  # the real block size: 2 channels, then 1
    ],
)
def test_dw_residual_vs_oracle(n, c, h, w, dilations, bias, block_channels, monkeypatch):
    run = _run(h, w, dilations)
    if block_channels is not None:
        monkeypatch.setattr(T, "_DW_BLOCK_BYTES", block_channels * n * run * 8)
    rng = np.random.default_rng(n * 1000 + c * 100 + h)
    x = rng.normal(size=(n, c, h, w))
    ws = [rng.normal(size=(c, 1, 3, 3)) for _ in dilations]
    b = rng.normal(size=(c,)) if bias else None
    blocks = _channel_blocks(x, dilations)
    if block_channels is not None or c * n * run * 8 > _DW_BLOCK_BYTES:
        # spans several channel blocks and ends on a partial one
        assert len(blocks) > 1 and blocks[-1][1] - blocks[-1][0] < blocks[0][1] - blocks[0][0]
    got = T._dw_residual_forward(x, ws, dilations, b)
    want = _dw_residual_oracle(x, ws, dilations, b)
    assert got.shape == x.shape
    assert np.max(np.abs(got - want)) <= 1e-6


def test_dw_residual_vjp_adjoint_vs_oracle(monkeypatch):
    # y = x + sum_k conv_k(x) + b is linear in x and in each w_k, so for
    # any cotangent gy: <x, gx> = <y - b, gy>, <w_k, gw_k> = <conv_k(x), gy>
    # and <b, gb> = <b broadcast, gy>. Odd cases use blocks of 1-3 channels.
    rng = np.random.default_rng(23)
    for case in range(60):
        n = int(rng.integers(1, 3))
        c = int(rng.integers(1, 9))
        h, w = (int(v) for v in rng.integers(1, 7, 2))
        dilations = tuple(int(d) for d in rng.integers(1, 5, int(rng.integers(1, 4))))
        block = n * _run(h, w, dilations) * 8 * int(rng.integers(1, 4)) if case % 2 else _DW_BLOCK_BYTES
        monkeypatch.setattr(T, "_DW_BLOCK_BYTES", block)
        x = rng.normal(size=(n, c, h, w))
        ws = [rng.normal(size=(c, 1, 3, 3)) for _ in dilations]
        b = rng.normal(size=(c,))
        with_bias = rng.random() < 0.5
        branches = [_dw_branch(x, wk, d) for wk, d in zip(ws, dilations)]
        gy = rng.normal(size=x.shape)
        gx, gws, gb = T._dw_residual_vjp(x, ws, dilations, gy, with_bias)
        assert gx.shape == x.shape and [g.shape for g in gws] == [wk.shape for wk in ws]
        y_lin = x + sum(branches)
        terms = [(np.vdot(x, gx), np.vdot(y_lin, gy))]
        terms += [(np.vdot(wk, g), np.vdot(yk, gy)) for wk, g, yk in zip(ws, gws, branches)]
        if with_bias:
            terms.append((np.vdot(b, gb), np.sum(b.reshape(1, -1, 1, 1) * gy)))
        else:
            assert gb is None
        for got, want in terms:
            assert abs(got - want) <= 1e-6 * max(1.0, abs(want)), f"case {case}"


# ---------------------------------------------------------------------------
# matmul


def test_matmul_identity():
    a = t64([[1.0, 0.0], [0.0, 1.0]])
    b = t64([[5.0, 6.0], [7.0, 8.0]])
    np.testing.assert_array_equal(T.matmul(a, b).data, b.data)


def test_matmul_dot_product_pinned():
    a = t64([[1.0, 2.0]])
    b = t64([[3.0], [4.0]])
    np.testing.assert_array_equal(T.matmul(a, b).data, [[11.0]])


def test_matmul_random_vs_triple_loop():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(3, 5))
    b = rng.normal(size=(5, 2))
    got = T.matmul(t64(a), t64(b)).data
    np.testing.assert_allclose(got, oracles.matmul_naive(a, b), atol=1e-6)


def test_matmul_200_random_cases_vs_oracle():
    rng = np.random.default_rng(11)
    for case in range(200):
        m, k, n = (int(rng.integers(1, 7)) for _ in range(3))
        a = rng.normal(size=(m, k))
        b = rng.normal(size=(k, n))
        got = T.matmul(t64(a), t64(b)).data
        np.testing.assert_allclose(
            got, oracles.matmul_naive(a, b), atol=1e-6, err_msg=f"case {case}"
        )


def test_matmul_batched_and_errors():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(2, 3, 4))
    b = rng.normal(size=(2, 4, 5))
    got = T.matmul(t64(a), t64(b)).data
    for i in range(2):
        np.testing.assert_allclose(got[i], oracles.matmul_naive(a[i], b[i]), atol=1e-12)
    with pytest.raises(DimensionError):
        T.matmul(t64(np.zeros((2, 3))), t64(np.zeros((4, 2))))
    with pytest.raises(DimensionError):
        T.matmul(t64(np.zeros((3,))), t64(np.zeros((3, 2))))
    # Both operands share one rank: no implicit batch broadcast.
    with pytest.raises(DimensionError):
        T.matmul(t64(np.zeros((2, 3, 4))), t64(np.zeros((4, 5))))
    with pytest.raises(DimensionError):
        T.matmul(t64(np.zeros((3, 4))), t64(np.zeros((2, 4, 5))))


# ---------------------------------------------------------------------------
# softmax


def test_softmax_symmetry():
    y = T.softmax(t64([[0.0, 0.0]]), axis=1).data
    np.testing.assert_allclose(y, [[0.5, 0.5]], atol=1e-12)


def test_softmax_large_logit_stable():
    y = T.softmax(t64([[1000.0, 0.0]]), axis=1).data
    assert np.all(np.isfinite(y))
    np.testing.assert_allclose(y, [[1.0, 0.0]], atol=1e-12)


def test_softmax_pinned_values():
    y = T.softmax(t64([[1.0, 2.0, 3.0]]), axis=1).data[0]
    np.testing.assert_allclose(y, [0.09003, 0.24473, 0.66524], atol=1e-5)


def test_softmax_rows_sum_to_one_up_to_1e3():
    rng = np.random.default_rng(9)
    x = rng.uniform(-1e3, 1e3, size=(4, 7))
    y = T.softmax(t64(x), axis=1).data
    assert np.all(y >= 0)
    np.testing.assert_allclose(y.sum(axis=1), np.ones(4), atol=1e-6)


def test_softmax_is_the_float64_quotient_in_one_buffer():
    # Bit for bit the quotient of the exponentials by their float64 row
    # sums, rounded once to the input dtype. Of the arrays the size of the
    # input, it allocates only its output (the finiteness check's boolean
    # mask and the ufunc's cast buffers come on top).
    rng = np.random.default_rng(4)
    for dtype in (np.float32, np.float64):
        x = rng.normal(scale=4.0, size=(1, 784, 784)).astype(dtype)  # attention
        for axis in (2, 1):
            e = np.exp(x - x.max(axis=axis, keepdims=True))
            s = e.sum(axis=axis, keepdims=True, dtype=np.float64)
            xt = Tensor._wrap(x)
            tracemalloc.start()
            try:
                y = T.softmax(xt, axis=axis).data
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert y.dtype == dtype and y.flags.c_contiguous
            np.testing.assert_array_equal(y.view(np.uint8), (e / s).astype(dtype).view(np.uint8))
            assert peak <= 1.5 * x.nbytes


def test_softmax_bad_axis():
    with pytest.raises(DimensionError):
        T.softmax(t64([[1.0, 2.0]]), axis=2)


# ---------------------------------------------------------------------------
# batchnorm2d


def _bn_params(c, dtype="f64"):
    one = Tensor(np.ones(c), dtype=dtype)
    zero = Tensor(np.zeros(c), dtype=dtype)
    return one, zero


def test_batchnorm_eval_affine_pinned():
    x = t64(np.ones((1, 1, 2, 2)))
    gamma = t64([2.0])
    beta = t64([3.0])
    rm = t64([0.0])
    rv = t64([1.0])
    y, *_ = T.batchnorm2d(x, gamma, beta, rm, rv, training=False)
    np.testing.assert_allclose(y.data, 5.0, atol=1e-5)


def test_batchnorm_training_plus_minus_one():
    x = np.zeros((1, 1, 2, 2))
    x[0, 0] = [[-1.0, 1.0], [-1.0, 1.0]]
    gamma, beta = t64([1.0]), t64([0.0])
    rm, rv = t64([0.0]), t64([1.0])
    y, *_ = T.batchnorm2d(t64(x), gamma, beta, rm, rv, training=True)
    np.testing.assert_allclose(y.data, x, atol=1e-3)


def test_batchnorm_training_statistics_recomputed():
    rng = np.random.default_rng(21)
    x = rng.normal(size=(2, 3, 4, 4))
    gamma, beta = _bn_params(3)
    rm = t64(np.zeros(3))
    rv = t64(np.ones(3))
    y, new_m, new_v, _, _ = T.batchnorm2d(t64(x), gamma, beta, rm, rv, training=True)
    out_mean = y.data.mean(axis=(0, 2, 3))
    out_var = y.data.var(axis=(0, 2, 3))
    np.testing.assert_allclose(out_mean, 0.0, atol=1e-4)
    np.testing.assert_allclose(out_var, 1.0, atol=1e-4)
    m = 2 * 4 * 4
    want_m = 0.9 * 0.0 + 0.1 * x.mean(axis=(0, 2, 3))
    want_v = 0.9 * 1.0 + 0.1 * x.var(axis=(0, 2, 3)) * m / (m - 1)
    np.testing.assert_allclose(new_m.data, want_m, atol=1e-12)
    np.testing.assert_allclose(new_v.data, want_v, atol=1e-12)


def test_batchnorm_single_element_degenerate():
    x = t64(np.ones((1, 2, 1, 1)))
    gamma, beta = _bn_params(2)
    with pytest.raises(DegenerateStatisticsError):
        T.batchnorm2d(x, gamma, beta, t64(np.zeros(2)), t64(np.ones(2)), training=True)


# ---------------------------------------------------------------------------
# bilinear_sample


def test_bilinear_sample_center_pinned():
    x = t64(np.array([[[[0.0, 1.0], [2.0, 3.0]]]]))
    grid = t64(np.zeros((1, 1, 1, 2)))
    y = T.bilinear_sample(x, grid)
    assert y.shape == (1, 1, 1, 1)
    assert y.data.ravel()[0] == pytest.approx(1.5, abs=1e-12)


def test_bilinear_sample_corner_clamp():
    x = t64(np.array([[[[0.0, 1.0], [2.0, 3.0]]]]))
    grid = t64(np.full((1, 1, 1, 2), -1.0))
    assert T.bilinear_sample(x, grid).data.ravel()[0] == pytest.approx(0.0, abs=1e-12)


def test_bilinear_sample_50_points_vs_oracle():
    rng = np.random.default_rng(17)
    x = rng.normal(size=(1, 2, 5, 5))
    grid = rng.uniform(-1.2, 1.2, size=(1, 5, 10, 2))
    got = T.bilinear_sample(t64(x), t64(grid)).data
    want = oracles.bilinear_sample_naive(x, grid.reshape(1, 50, 2)).reshape(1, 2, 5, 10)
    np.testing.assert_allclose(got, want, atol=1e-6)


def test_bilinear_sample_200_random_cases_vs_oracle():
    rng = np.random.default_rng(19)
    for case in range(200):
        n = int(rng.integers(1, 3))
        c = int(rng.integers(1, 4))
        h, w = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        oh, ow = int(rng.integers(1, 4)), int(rng.integers(1, 5))
        x = rng.normal(size=(n, c, h, w))
        grid = rng.uniform(-1.3, 1.3, size=(n, oh, ow, 2))
        got = T.bilinear_sample(t64(x), t64(grid)).data
        want = oracles.bilinear_sample_naive(x, grid.reshape(n, oh * ow, 2))
        np.testing.assert_allclose(
            got.reshape(n, c, oh * ow), want, atol=1e-6, err_msg=f"case {case}"
        )


def test_bilinear_sample_identity_grid():
    rng = np.random.default_rng(23)
    x = rng.normal(size=(1, 3, 4, 6))
    ys, xs = np.meshgrid(np.arange(4), np.arange(6), indexing="ij")
    gx = (2.0 * xs + 1.0) / 6.0 - 1.0
    gy = (2.0 * ys + 1.0) / 4.0 - 1.0
    grid = np.stack([gx, gy], axis=-1)[None]
    y = T.bilinear_sample(t64(x), t64(grid))
    np.testing.assert_allclose(y.data, x, atol=1e-6)


def test_bilinear_sample_grid_shape_error():
    x = t64(np.zeros((1, 1, 2, 2)))
    with pytest.raises(DimensionError):
        T.bilinear_sample(x, t64(np.zeros((1, 1, 1, 3))))
    with pytest.raises(DimensionError):
        T.bilinear_sample(x, t64(np.zeros((1, 4, 2))))


# ---------------------------------------------------------------------------
# resize_bilinear


def test_resize_constant_stays_constant():
    x = Tensor(np.full((1, 1, 2, 2), 7.0), dtype="f32")
    y = T.resize_bilinear(x, 224, 224)
    assert y.shape == (1, 1, 224, 224)
    np.testing.assert_array_equal(y.data, np.full((1, 1, 224, 224), 7.0, np.float32))


def test_resize_2x_corners_pinned():
    x = t64(np.array([[[[0.0, 1.0], [2.0, 3.0]]]]))
    y = T.resize_bilinear(x, 4, 4).data[0, 0]
    assert y[0, 0] == pytest.approx(0.0, abs=1e-12)
    assert y[0, 3] == pytest.approx(1.0, abs=1e-12)
    assert y[3, 0] == pytest.approx(2.0, abs=1e-12)
    assert y[3, 3] == pytest.approx(3.0, abs=1e-12)
    want = oracles.resize_bilinear_naive(x.data, 4, 4)
    np.testing.assert_allclose(y, want[0, 0], atol=1e-12)


def test_resize_identity_bit_exact():
    rng = np.random.default_rng(29)
    x = Tensor(rng.normal(size=(2, 3, 5, 7)).astype(np.float32), dtype="f32")
    y = T.resize_bilinear(x, 5, 7)
    np.testing.assert_array_equal(y.data, x.data)


def test_resize_random_vs_oracle():
    rng = np.random.default_rng(31)
    for _ in range(20):
        h, w = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        oh, ow = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        x = rng.normal(size=(1, 2, h, w))
        got = T.resize_bilinear(t64(x), oh, ow).data
        np.testing.assert_allclose(
            got, oracles.resize_bilinear_naive(x, oh, ow), atol=1e-6
        )


# ---------------------------------------------------------------------------
# elementwise / concat / depth_to_space


def c64(a):
    return ad.constant(t64(a))


def test_elementwise_pinned():
    assert ad.sigmoid(c64([0.0])).tensor.item() == pytest.approx(0.5, abs=1e-12)
    assert ad.tanh(c64([0.0])).tensor.item() == 0.0
    assert ad.tanh(c64([50.0])).tensor.item() == pytest.approx(1.0, abs=1e-9)
    np.testing.assert_array_equal(
        ad.add(c64([1.0, 2.0]), c64([3.0, 4.0])).tensor.data, [4.0, 6.0]
    )
    np.testing.assert_array_equal(ad.relu(c64([-2.0, 3.0])).tensor.data, [0.0, 3.0])
    np.testing.assert_array_equal(
        ad.scale(c64([2.0, -1.0]), 3.0).tensor.data, [6.0, -3.0]
    )


def test_elementwise_saturation_no_nan():
    x = c64([-1e3, 1e3])
    assert np.all(np.isfinite(ad.tanh(x).tensor.data))
    assert np.all(np.isfinite(ad.sigmoid(x).tensor.data))


def test_elementwise_per_channel_broadcast():
    rng = np.random.default_rng(37)
    x = rng.normal(size=(2, 3, 4, 4))
    v = rng.normal(size=(3,))
    got = ad.mul(c64(x), c64(v)).tensor.data
    np.testing.assert_array_equal(got, x * v.reshape(1, 3, 1, 1))


def test_elementwise_shape_mismatch():
    with pytest.raises(DimensionError):
        ad.add(c64([1.0, 2.0]), c64([1.0, 2.0, 3.0]))


def test_concat_shapes():
    a = c64(np.zeros((1, 2, 2, 2)))
    b = c64(np.ones((1, 3, 2, 2)))
    y = ad.concat([a, b], axis=1)
    assert y.tensor.shape == (1, 5, 2, 2)


def test_depth_to_space_reference_layout():
    # Output pixel (s*i + a, s*j + b) of channel c reads input channel
    # c*s*s + a*s + b at (i, j).
    x = np.arange(1 * 4 * 2 * 2, dtype=np.float64).reshape(1, 4, 2, 2)
    y = T.depth_to_space(t64(x), 2).data
    assert y.shape == (1, 1, 4, 4)
    for i in range(2):
        for j in range(2):
            for a in range(2):
                for b in range(2):
                    assert y[0, 0, 2 * i + a, 2 * j + b] == x[0, a * 2 + b, i, j]


def test_depth_to_space_bad_channels():
    with pytest.raises(DimensionError):
        T.depth_to_space(t64(np.zeros((1, 3, 2, 2))), 2)


# ---------------------------------------------------------------------------
# determinism


def test_kernels_deterministic():
    rng = np.random.default_rng(43)
    x = rng.normal(size=(1, 4, 6, 6))
    w = rng.normal(size=(4, 1, 3, 3))
    spec = ConvSpec(padding=1, groups=4)
    a = T.conv2d(t64(x), t64(w), t64(np.zeros(4)), spec).data
    b = T.conv2d(t64(x), t64(w), t64(np.zeros(4)), spec).data
    np.testing.assert_array_equal(a, b)
    g = rng.uniform(-1, 1, size=(1, 3, 3, 2))
    s1 = T.bilinear_sample(t64(x), t64(g)).data
    s2 = T.bilinear_sample(t64(x), t64(g)).data
    np.testing.assert_array_equal(s1, s2)
