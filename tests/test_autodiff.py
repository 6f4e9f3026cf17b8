"""Reverse-mode differentiation: exact pinned gradients, structural
contracts (tape lifecycle, accumulation), and finite-difference sweeps
over each differentiable kernel."""
from __future__ import annotations

import numpy as np
import pytest

import oracles
from dyglnet import autodiff as ad
from dyglnet import tensor as T
from dyglnet.autodiff import Parameter, Tape, grad_check
from dyglnet.errors import ContractError, DimensionError, StateError
from dyglnet.losses import dice_loss
from dyglnet.tensor import ConvSpec, Tensor


def param(name, arr):
    return Parameter(name, Tensor(np.asarray(arr, dtype=np.float64), dtype="f64"))


def const64(arr):
    return ad.constant(Tensor(np.asarray(arr, dtype=np.float64), dtype="f64"))


# ---------------------------------------------------------------------------
# Pinned exact gradients


def test_linear_loss_gradient_equals_input_exactly():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(3, 4))
    w = param("w", rng.normal(size=(3, 4)))
    with Tape() as tape:
        loss = ad.sum_all(ad.mul(ad.watch(w), const64(x)))
        ad.backward(loss, tape)
    np.testing.assert_array_equal(w.grad, x)


def test_tanh_gradient_at_zero_is_ones():
    w = param("w", np.zeros((2, 3)))
    with Tape() as tape:
        loss = ad.sum_all(ad.tanh(ad.watch(w)))
        ad.backward(loss, tape)
    np.testing.assert_array_equal(w.grad, np.ones((2, 3)))


def test_zero_upstream_gives_exactly_zero_grads():
    w = param("w", np.array([0.3, -0.7, 1.1]))
    with Tape() as tape:
        loss = ad.scale(ad.sum_all(ad.tanh(ad.watch(w))), 0.0)
        ad.backward(loss, tape)
    np.testing.assert_array_equal(w.grad, np.zeros(3))


def test_grad_additivity():
    # Dyadic-rational values make every accumulation order bit-exact.
    xv = np.array([0.5, -0.25, 1.0, 2.0])
    x1 = const64(xv)
    x2 = const64(xv * 2.0)

    def joint():
        w = param("w", np.array([0.5, 1.5, -2.0, 0.125]))
        with Tape() as tape:
            loss = ad.add(
                ad.sum_all(ad.mul(ad.watch(w), x1)),
                ad.sum_all(ad.mul(ad.watch(w), x2)),
            )
            ad.backward(loss, tape)
        return w.grad

    def separate():
        w = param("w", np.array([0.5, 1.5, -2.0, 0.125]))
        with Tape() as t1:
            ad.backward(ad.sum_all(ad.mul(ad.watch(w), x1)), t1)
        with Tape() as t2:
            ad.backward(ad.sum_all(ad.mul(ad.watch(w), x2)), t2)
        return w.grad

    np.testing.assert_array_equal(joint(), separate())


def test_grad_additivity_random_values():
    rng = np.random.default_rng(5)
    xv = rng.normal(size=(2, 3))
    wv = rng.normal(size=(2, 3))

    def run(split):
        w = param("w", wv)
        if split:
            with Tape() as t1:
                ad.backward(ad.sum_all(ad.tanh(ad.watch(w))), t1)
            with Tape() as t2:
                ad.backward(ad.sum_all(ad.mul(ad.watch(w), const64(xv))), t2)
        else:
            with Tape() as tape:
                loss = ad.add(
                    ad.sum_all(ad.tanh(ad.watch(w))),
                    ad.sum_all(ad.mul(ad.watch(w), const64(xv))),
                )
                ad.backward(loss, tape)
        return w.grad

    np.testing.assert_allclose(run(False), run(True), rtol=1e-12, atol=0)


def test_grad_accumulates_across_backward_calls():
    x = np.array([1.0, 2.0, 3.0])
    w = param("w", np.array([0.1, 0.2, 0.3]))
    for _ in range(2):
        with Tape() as tape:
            ad.backward(ad.sum_all(ad.mul(ad.watch(w), const64(x))), tape)
    np.testing.assert_array_equal(w.grad, 2.0 * x)
    w.zero_grad()
    np.testing.assert_array_equal(w.grad, np.zeros(3))


# ---------------------------------------------------------------------------
# Tape lifecycle contracts


def test_backward_rejects_non_scalar_loss():
    w = param("w", np.ones(3))
    with Tape() as tape:
        y = ad.tanh(ad.watch(w))
        with pytest.raises(ContractError):
            ad.backward(y, tape)


def test_backward_on_consumed_tape_raises():
    w = param("w", np.ones(2))
    with Tape() as tape:
        loss = ad.sum_all(ad.watch(w))
        ad.backward(loss, tape)
        with pytest.raises(StateError):
            ad.backward(loss, tape)


def test_unreached_parameter_gets_zero_contribution():
    used = param("used", np.array([1.0, 2.0]))
    unused = param("unused", np.array([3.0]))
    with Tape() as tape:
        ad.backward(ad.sum_all(ad.watch(used)), tape)
    np.testing.assert_array_equal(used.grad, np.ones(2))
    np.testing.assert_array_equal(unused.grad, np.zeros(1))


# ---------------------------------------------------------------------------
# grad_check itself


def test_grad_check_square_function_pinned():
    w = param("w", np.array([3.0]))

    def fn():
        wv = ad.watch(w)
        return ad.sum_all(ad.mul(wv, wv))

    report = grad_check(fn, [w], eps=1e-5, tol=1e-9)
    assert report.passed
    assert report.max_rel_err < 1e-9
    # Analytic derivative of x^2 at 3 is 6.
    w.zero_grad()
    with Tape() as tape:
        ad.backward(fn(), tape)
    assert w.grad[0] == pytest.approx(6.0, abs=1e-12)


def test_grad_check_dice_of_sigmoid():
    rng = np.random.default_rng(7)
    w = param("logits", rng.normal(size=(1, 1, 4, 4)))
    target = Tensor((rng.random((1, 1, 4, 4)) > 0.5).astype(np.float64), dtype="f64")

    def fn():
        return dice_loss(ad.sigmoid(ad.watch(w)), ad.constant(target))

    report = grad_check(fn, [w], eps=1e-5, tol=1e-5)
    assert report.passed, report
    assert report.max_rel_err < 1e-5


def test_grad_check_reports_worst_param():
    w = param("w", np.array([2.0]))

    def fn():
        wv = ad.watch(w)
        return ad.sum_all(ad.mul(wv, wv))

    report = grad_check(fn, [w], eps=1e-5, tol=1e-4)
    assert report.worst_param == "w"
    assert report.checked == 1


# ---------------------------------------------------------------------------
# FD sweeps over individual kernels


def _fd_ok(fn, params, tol=1e-4):
    report = grad_check(fn, params, eps=1e-5, tol=tol)
    assert report.passed, (
        f"max_rel_err={report.max_rel_err:g} worst={report.worst_param}"
        f"{report.worst_index}"
    )


def test_fd_matmul():
    rng = np.random.default_rng(11)
    a = param("a", rng.normal(size=(3, 4)))
    b = param("b", rng.normal(size=(4, 2)))
    _fd_ok(lambda: ad.sum_all(ad.tanh(ad.matmul(ad.watch(a), ad.watch(b)))), [a, b])


def test_fd_conv2d():
    rng = np.random.default_rng(13)
    x = param("x", rng.normal(size=(1, 2, 5, 5)))
    w = param("w", rng.normal(size=(4, 1, 3, 3)) * 0.5)
    b = param("b", rng.normal(size=(4,)))
    spec = ConvSpec(stride=2, padding=1, dilation=2, groups=2)

    def fn():
        y = ad.conv2d(ad.watch(x), ad.watch(w), ad.watch(b), spec)
        return ad.mean_all(ad.tanh(y))

    _fd_ok(fn, [x, w, b])


def test_fd_conv2d_depthwise():
    rng = np.random.default_rng(14)
    x = param("x", rng.normal(size=(2, 3, 6, 6)))
    w = param("w", rng.normal(size=(3, 1, 3, 3)) * 0.5)
    b = param("b", rng.normal(size=(3,)))
    spec = ConvSpec(stride=2, padding=2, dilation=2, groups=3)

    def fn():
        y = ad.conv2d(ad.watch(x), ad.watch(w), ad.watch(b), spec)
        return ad.mean_all(ad.tanh(y))

    _fd_ok(fn, [x, w, b])


@pytest.mark.parametrize("with_bias", [True, False])
def test_fd_depthwise_residual(with_bias):
    rng = np.random.default_rng(16)
    x = param("x", rng.normal(size=(2, 3, 4, 5)))
    ws = [param(f"w{k}", rng.normal(size=(3, 1, 3, 3)) * 0.5) for k in range(3)]
    b = param("b", rng.normal(size=(3,)))
    dilations = (1, 2, 4)  # 4 reaches past the 4-row extent

    def fn():
        bias = ad.watch(b) if with_bias else None
        y = ad.depthwise_residual(ad.watch(x), [ad.watch(w) for w in ws], dilations, bias)
        return ad.mean_all(ad.tanh(y))

    _fd_ok(fn, [x, *ws, b] if with_bias else [x, *ws])


def test_depthwise_residual_rejects_bad_arguments():
    x = const64(np.zeros((1, 3, 4, 4)))
    w = const64(np.zeros((3, 1, 3, 3)))
    for bad in [(3, 1, 5, 5), (2, 1, 3, 3), (3, 2, 3, 3)]:
        with pytest.raises(DimensionError):
            ad.depthwise_residual(x, [w, const64(np.zeros(bad))], (1, 2))
    with pytest.raises(DimensionError):
        ad.depthwise_residual(x, [w], (1,), const64(np.zeros(2)))
    w32 = ad.constant(Tensor(np.zeros((3, 1, 3, 3)), dtype="f32"))
    with pytest.raises(ContractError):
        ad.depthwise_residual(x, [w, w32], (1, 2))
    with pytest.raises(ContractError):
        ad.depthwise_residual(x, [w], (1,), ad.constant(Tensor(np.zeros(3), dtype="f32")))
    with pytest.raises(ContractError):
        ad.depthwise_residual(x, [w, w], (1,))
    with pytest.raises(ContractError):
        ad.depthwise_residual(x, [w], (0,))


def const32(arr):
    return ad.constant(Tensor(np.asarray(arr, dtype=np.float32), dtype="f32"))


_X4 = np.zeros((2, 3, 4, 4))


@pytest.mark.parametrize(
    "op, err",
    [
        pytest.param(lambda: ad.mul(const64(_X4), const64(np.zeros(4))),
                     DimensionError, id="mul-per-channel-extent"),
        pytest.param(lambda: ad.add(const64([1.0, 2.0]), const32([1.0, 2.0])),
                     ContractError, id="add-mixed-dtype"),
        pytest.param(lambda: ad.mul(const64(_X4), const32(np.zeros(3))),
                     ContractError, id="mul-mixed-dtype"),
        pytest.param(lambda: ad.concat([], 0), ContractError, id="concat-empty"),
        pytest.param(lambda: ad.concat([const64(_X4), const64(_X4)], 4),
                     DimensionError, id="concat-axis"),
        pytest.param(lambda: ad.concat([const64(_X4), const64(np.zeros((2, 3, 4)))], 1),
                     DimensionError, id="concat-rank"),
        pytest.param(lambda: ad.concat([const64(_X4), const64(np.zeros((2, 3, 5, 4)))], 1),
                     DimensionError, id="concat-off-axis"),
        pytest.param(lambda: ad.concat([const64(_X4), const32(_X4)], 1),
                     ContractError, id="concat-mixed-dtype"),
        pytest.param(lambda: ad.narrow(const64(_X4), 1, 2, 2), DimensionError,
                     id="narrow-past-end"),
        pytest.param(lambda: ad.narrow(const64(_X4), 1, -1, 1), DimensionError,
                     id="narrow-negative-start"),
        pytest.param(lambda: ad.narrow(const64(_X4), 1, 0, 0), DimensionError,
                     id="narrow-empty"),
        pytest.param(lambda: ad.narrow(const64(_X4), -5, 0, 1), DimensionError,
                     id="narrow-axis"),
        pytest.param(lambda: ad.reshape(const64(_X4), (2, 3, 4, 5)), DimensionError,
                     id="reshape-size"),
        pytest.param(lambda: ad.transpose(const64(_X4), (0, 1, 2, 2)),
                     DimensionError, id="transpose-repeat"),
        pytest.param(lambda: ad.transpose(const64(_X4), (0, 1, 2)), DimensionError,
                     id="transpose-rank"),
        pytest.param(lambda: ad.resize_bilinear(const64(_X4), 0, 4), DimensionError,
                     id="resize-extent"),
        pytest.param(lambda: ad.resize_bilinear(const64(np.zeros((3, 4, 4))), 2, 2),
                     DimensionError, id="resize-rank"),
    ],
)
def test_elementwise_and_layout_ops_reject_bad_arguments(op, err):
    with pytest.raises(err):
        op()


def test_fd_softmax():
    rng = np.random.default_rng(17)
    x = param("x", rng.normal(size=(2, 5)))
    wgt = const64(np.random.default_rng(18).normal(size=(2, 5)))
    _fd_ok(lambda: ad.sum_all(ad.mul(ad.softmax(ad.watch(x), axis=1), wgt)), [x])


def test_fd_batchnorm_training():
    rng = np.random.default_rng(19)
    x = param("x", rng.normal(size=(2, 3, 4, 4)))
    gamma = param("gamma", rng.normal(size=(3,)) + 1.5)
    beta = param("beta", rng.normal(size=(3,)))
    rm = Tensor(np.zeros(3), dtype="f64")
    rv = Tensor(np.ones(3), dtype="f64")
    wgt = const64(np.random.default_rng(20).normal(size=(2, 3, 4, 4)))

    def fn():
        y, _, _ = ad.batchnorm2d(
            ad.watch(x), ad.watch(gamma), ad.watch(beta), rm, rv, training=True
        )
        return ad.mean_all(ad.mul(y, wgt))

    _fd_ok(fn, [x, gamma, beta])


def test_fd_pixel_sample_values_and_coordinates():
    rng = np.random.default_rng(23)
    x = param("x", rng.normal(size=(1, 2, 5, 5)))
    # Keep coordinates away from integer lattice kinks so FD stays clean.
    ux = param("ux", rng.uniform(0.3, 3.7, size=(1, 6)).round(1) + 0.05)
    uy = param("uy", rng.uniform(0.3, 3.7, size=(1, 6)).round(1) + 0.05)
    wgt = const64(np.random.default_rng(24).normal(size=(1, 2, 6)))

    def fn():
        y = ad.pixel_sample(ad.watch(x), ad.watch(ux), ad.watch(uy))
        return ad.sum_all(ad.mul(y, wgt))

    _fd_ok(fn, [x, ux, uy])


def test_pixel_sample_clamped_coordinate_gradient_is_zero():
    x = const64(np.arange(16.0).reshape(1, 1, 4, 4))
    ux = param("ux", np.array([[-2.0]]))
    uy = param("uy", np.array([[1.5]]))
    with Tape() as tape:
        y = ad.pixel_sample(x, ad.watch(ux), ad.watch(uy))
        ad.backward(ad.sum_all(y), tape)
    np.testing.assert_array_equal(ux.grad, np.zeros((1, 1)))


def _pixel_sample_grads(x, ux, uy, gy):
    xp, uxp, uyp = param("x", x), param("ux", ux), param("uy", uy)
    with Tape() as tape:
        y = ad.pixel_sample(ad.watch(xp), ad.watch(uxp), ad.watch(uyp))
        ad.backward(ad.sum_all(ad.mul(y, const64(gy))), tape)
    return xp.grad, uxp.grad, uyp.grad


def _random_sample_case(rng, n_lo):
    n, c = int(rng.integers(n_lo, 4)), int(rng.integers(1, 5))
    h, w = (int(v) for v in rng.integers(1, 7, 2))
    p = int(rng.integers(1, 10))
    return rng.normal(size=(n, c, h, w)), n, c, h, w, p


def test_pixel_sample_vjp_adjoint_vs_oracle():
    # The sampler is linear in x, so <sample(x, u), gy> = <x, gx> for any
    # cotangent gy. Extents of 1 give a zero corner step; coordinates
    # reach 1.5 pixels outside the image on every side.
    rng = np.random.default_rng(37)
    for case in range(200):
        x, n, c, h, w, p = _random_sample_case(rng, 1)
        ux = rng.uniform(-1.5, w + 0.5, size=(n, p))
        uy = rng.uniform(-1.5, h + 0.5, size=(n, p))
        gy = rng.normal(size=(n, c, p))
        gx, _, _ = _pixel_sample_grads(x, ux, uy, gy)
        y = np.array([
            [[oracles.sample_pixel_naive(x[i, k], ux[i, j], uy[i, j]) for j in range(p)]
             for k in range(c)]
            for i in range(n)
        ])
        want = np.vdot(y, gy)
        assert abs(np.vdot(x, gx) - want) <= 1e-9 * max(1.0, abs(want)), f"case {case}"


def test_pixel_sample_coordinate_grads_vs_central_differences():
    # Coordinates keep >= 0.1 px from every integer, so no probe crosses a
    # lattice kink or a clamp border; clamped points must get exactly 0.
    rng = np.random.default_rng(43)
    eps = 1e-6
    for case in range(60):
        x, n, c, h, w, p = _random_sample_case(rng, 2)
        ux = rng.integers(-2, w + 1, size=(n, p)) + rng.uniform(0.1, 0.9, size=(n, p))
        uy = rng.integers(-2, h + 1, size=(n, p)) + rng.uniform(0.1, 0.9, size=(n, p))
        gy = rng.normal(size=(n, c, p))
        _, gux, guy = _pixel_sample_grads(x, ux, uy, gy)

        def f(i, j, dx, dy):
            return sum(
                gy[i, k, j] * oracles.sample_pixel_naive(x[i, k], ux[i, j] + dx, uy[i, j] + dy)
                for k in range(c)
            )

        for i in range(n):
            for j in range(p):
                fd_x = (f(i, j, eps, 0.0) - f(i, j, -eps, 0.0)) / (2 * eps)
                fd_y = (f(i, j, 0.0, eps) - f(i, j, 0.0, -eps)) / (2 * eps)
                assert abs(gux[i, j] - fd_x) <= 1e-6, f"case {case} ux[{i},{j}]"
                assert abs(guy[i, j] - fd_y) <= 1e-6, f"case {case} uy[{i},{j}]"
                if not 0.0 < ux[i, j] < w - 1:
                    assert gux[i, j] == 0.0
                if not 0.0 < uy[i, j] < h - 1:
                    assert guy[i, j] == 0.0


def test_fd_resize_and_depth_to_space():
    rng = np.random.default_rng(31)
    x = param("x", rng.normal(size=(1, 4, 3, 3)))
    wgt = const64(np.random.default_rng(32).normal(size=(1, 4, 6, 6)))
    _fd_ok(
        lambda: ad.sum_all(ad.mul(ad.resize_bilinear(ad.watch(x), 6, 6), wgt)), [x]
    )
    wgt2 = const64(np.random.default_rng(33).normal(size=(1, 1, 6, 6)))
    _fd_ok(
        lambda: ad.sum_all(ad.mul(ad.depth_to_space(ad.watch(x), 2), wgt2)), [x]
    )


def test_fd_concat_split_narrow():
    rng = np.random.default_rng(37)
    a = param("a", rng.normal(size=(1, 2, 3, 3)))
    b = param("b", rng.normal(size=(1, 3, 3, 3)))

    def fn():
        joined = ad.concat([ad.watch(a), ad.watch(b)], axis=1)
        parts = ad.split(joined, 1, [2, 3])
        return ad.add(
            ad.sum_all(ad.tanh(parts[0])),
            ad.mean_all(ad.narrow(parts[1], 1, 1, 2)),
        )

    _fd_ok(fn, [a, b])


@pytest.mark.parametrize("channels", [64, 48])
def test_split_concat_round_trip_bit_identical(channels):
    rng = np.random.default_rng(41)
    x = ad.constant(Tensor(rng.normal(size=(1, channels, 3, 3)), dtype="f32"))
    half = channels // 2
    parts = ad.split(x, 1, [half, half])
    assert [p.tensor.shape[1] for p in parts] == [half, half]
    back = ad.concat(parts, axis=1)
    np.testing.assert_array_equal(back.tensor.data, x.tensor.data)


def test_split_size_mismatch():
    x = ad.constant(Tensor(np.zeros((1, 4, 2, 2)), dtype="f64"))
    with pytest.raises(DimensionError):
        ad.split(x, 1, [3, 2])


def test_parameter_assign_and_trainable_flag():
    p = param("p", np.array([1.0, 2.0]))
    assert p.trainable
    p.assign(Tensor(np.array([5.0, 6.0]), dtype="f64"))
    np.testing.assert_array_equal(p.value.data, [5.0, 6.0])
    frozen = Parameter("f", Tensor(np.zeros(2), dtype="f64"), trainable=False)
    assert not frozen.trainable
