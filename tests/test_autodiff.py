"""Reverse-mode differentiation: exact pinned gradients, structural
contracts (tape lifecycle, accumulation), and finite-difference sweeps
over each differentiable kernel."""
from __future__ import annotations

import tracemalloc
import weakref

import numpy as np
import pytest

import oracles
from dyglnet import autodiff as ad
from dyglnet import tensor as T
from dyglnet.autodiff import Parameter, Tape, grad_check
from dyglnet.errors import ContractError, DimensionError, NumericError, StateError
from dyglnet.losses import dice_loss
from dyglnet.tensor import ConvSpec, Tensor


def param(name, arr):
    return Parameter(name, Tensor(np.asarray(arr, dtype=np.float64), dtype="f64"))


def const64(arr):
    return ad.constant(Tensor(np.asarray(arr, dtype=np.float64), dtype="f64"))


def sum_all(x):
    """Sum of every entry as a [1] value, whose VJP spreads the upstream
    gradient unscaled, so pinned gradients read exactly."""
    xd = x.tensor.data
    shape, dt = xd.shape, xd.dtype
    y = Tensor._wrap(np.asarray([np.sum(xd, dtype=np.float64)], dtype=dt))
    return ad.record_op(y, (x,), lambda g: (np.full(shape, g[0], dtype=dt),))


# ---------------------------------------------------------------------------
# Pinned exact gradients


def test_linear_loss_gradient_equals_input_exactly():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(3, 4))
    w = param("w", rng.normal(size=(3, 4)))
    with Tape() as tape:
        loss = sum_all(ad.mul(ad.watch(w), const64(x)))
        ad.backward(loss, tape)
    np.testing.assert_array_equal(w.grad, x)


def test_tanh_gradient_at_zero_is_ones():
    w = param("w", np.zeros((2, 3)))
    with Tape() as tape:
        loss = sum_all(ad.tanh(ad.watch(w)))
        ad.backward(loss, tape)
    np.testing.assert_array_equal(w.grad, np.ones((2, 3)))


def test_zero_upstream_gives_exactly_zero_grads():
    w = param("w", np.array([0.3, -0.7, 1.1]))
    with Tape() as tape:
        loss = ad.scale(sum_all(ad.tanh(ad.watch(w))), 0.0)
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
                sum_all(ad.mul(ad.watch(w), x1)),
                sum_all(ad.mul(ad.watch(w), x2)),
            )
            ad.backward(loss, tape)
        return w.grad

    def separate():
        w = param("w", np.array([0.5, 1.5, -2.0, 0.125]))
        with Tape() as t1:
            ad.backward(sum_all(ad.mul(ad.watch(w), x1)), t1)
        with Tape() as t2:
            ad.backward(sum_all(ad.mul(ad.watch(w), x2)), t2)
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
                ad.backward(sum_all(ad.tanh(ad.watch(w))), t1)
            with Tape() as t2:
                ad.backward(sum_all(ad.mul(ad.watch(w), const64(xv))), t2)
        else:
            with Tape() as tape:
                loss = ad.add(
                    sum_all(ad.tanh(ad.watch(w))),
                    sum_all(ad.mul(ad.watch(w), const64(xv))),
                )
                ad.backward(loss, tape)
        return w.grad

    np.testing.assert_allclose(run(False), run(True), rtol=1e-12, atol=0)


def test_grad_accumulates_across_backward_calls():
    x = np.array([1.0, 2.0, 3.0])
    w = param("w", np.array([0.1, 0.2, 0.3]))
    for _ in range(2):
        with Tape() as tape:
            ad.backward(sum_all(ad.mul(ad.watch(w), const64(x))), tape)
    np.testing.assert_array_equal(w.grad, 2.0 * x)
    w.zero_grad()
    np.testing.assert_array_equal(w.grad, np.zeros(3))


def test_parameter_allocates_its_gradient_on_first_use():
    # An inference model never reads a gradient, so it holds no buffer.
    w = param("w", np.array([0.5, -1.5]))
    assert w._grad is None
    g = w.grad  # reading allocates the zeros
    assert w._grad is g and g.dtype == np.float64
    np.testing.assert_array_equal(g, np.zeros(2))
    w.zero_grad()
    assert w._grad is None
    w.grad[:] = [3.0, -4.0]  # in place, as clip_grad_norm and the tests do
    w.grad *= 0.5
    np.testing.assert_array_equal(w.grad, [1.5, -2.0])
    w.zero_grad()
    assert w._grad is None
    w.grad *= 2.0  # an in-place op on a released buffer sees zeros
    np.testing.assert_array_equal(w.grad, np.zeros(2))


def test_first_gradient_lands_as_zeros_plus_g():
    # A -0.0 gradient reaching an unallocated buffer lands as +0.0, the
    # bits that adding it to a zero-filled buffer gave; later ones add.
    x = np.array([-0.0, 0.0, -2.5])
    w = param("w", np.array([1.0, 2.0, 3.0]))
    for expected in ([0.0, 0.0, -2.5], [0.0, 0.0, -5.0]):
        with Tape() as tape:
            ad.backward(sum_all(ad.mul(ad.watch(w), const64(x))), tape)
        np.testing.assert_array_equal(w.grad, expected)
        assert not np.signbit(w.grad[:2]).any()
    w.zero_grad()
    assert w._grad is None
    with Tape() as tape:
        ad.backward(sum_all(ad.mul(ad.watch(w), const64(x))), tape)
    assert not np.signbit(w.grad[:2]).any()
    # add's VJP hands one array to both operands; each parameter still
    # gets a buffer of its own, so scaling one in place leaves the other
    v = param("v", np.zeros(3))
    w.zero_grad()
    with Tape() as tape:
        ad.backward(sum_all(ad.add(ad.watch(w), ad.watch(v))), tape)
    w.grad *= 2.0
    np.testing.assert_array_equal(v.grad, np.ones(3))


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
        loss = sum_all(ad.watch(w))
        ad.backward(loss, tape)
        with pytest.raises(StateError):
            ad.backward(loss, tape)


def test_backward_rejects_a_loss_not_recorded_on_its_tape():
    w = param("w", np.array([1.0, -2.0, 3.0]))
    # built after the with block: the loss is on no tape
    with Tape() as tape:
        wv = ad.watch(w)
    with pytest.raises(ContractError, match="not recorded on this tape"):
        ad.backward(sum_all(ad.mul(wv, wv)), tape)
    # recorded on another tape
    with Tape() as other:
        loss = sum_all(ad.mul(ad.watch(w), const64([1.0, 1.0, 1.0])))
    with pytest.raises(ContractError, match="not recorded on this tape"):
        ad.backward(loss, tape)
    np.testing.assert_array_equal(w.grad, np.zeros(3))
    ad.backward(loss, other)
    np.testing.assert_array_equal(w.grad, np.ones(3))


# A value recorded on one tape cannot feed an op on another: its gradient
# would land in a slot nothing reads, leaving w.grad at [0, 0] instead of
# d(sum w*w)/dw = [2, 4].


def test_op_rejects_a_value_recorded_on_another_tape():
    w = param("w", [1.0, 2.0])
    with Tape():
        wv = ad.watch(w)
    with Tape():
        with pytest.raises(ContractError, match="another tape"):
            ad.mul(wv, wv)
    np.testing.assert_array_equal(w.grad, np.zeros(2))


def test_op_rejects_a_value_whose_tape_ran_backward():
    w = param("w", [1.0, 2.0])
    with Tape() as a:
        wv = ad.watch(w)
        ad.backward(sum_all(wv), a)
    with Tape():
        with pytest.raises(ContractError, match="already ran backward"):
            ad.mul(wv, wv)
    np.testing.assert_array_equal(w.grad, np.ones(2))


def test_op_on_a_nested_tape_rejects_an_outer_tape_value():
    w = param("w", [1.0, 2.0])
    with Tape() as outer:
        wv = ad.watch(w)
        with Tape():
            with pytest.raises(ContractError, match="another tape"):
                ad.mul(wv, wv)
        # the outer tape itself still takes the value
        ad.backward(sum_all(ad.mul(wv, wv)), outer)
    np.testing.assert_array_equal(w.grad, [2.0, 4.0])


def test_backward_peak_memory_does_not_grow_with_the_chain():
    # The tape of a 30-op chain holds 30 activations. backward drops
    # each upstream gradient once its node's VJP has run, so what it
    # allocates stays at a few arrays, not one per node.
    w = param("w", np.random.default_rng(0).normal(size=(128, 1024)))  # 1 MiB
    with Tape() as tape:
        v = ad.watch(w)
        for _ in range(30):
            v = ad.tanh(v)
        loss = sum_all(v)
        del v
        tracemalloc.start()
        try:
            ad.backward(loss, tape)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 6 * w.value.data.nbytes


def _probe(x, on_vjp):
    """Identity op whose VJP passes its upstream gradient to ``on_vjp``
    and returns a copy of it."""

    def vjp(g):
        on_vjp(g)
        return (g.copy(),)

    return ad.record_op(x.tensor, (x,), vjp)


def test_backward_releases_the_tape_as_it_walks_it():
    refs, alive = [], []
    w = param("w", np.linspace(-1.0, 1.0, 6))
    with Tape() as tape:
        h = ad.tanh(ad.watch(w))
        # runs last: is the gradient the later probe saw still held?
        h = _probe(h, lambda g: alive.append(refs[0]() is not None))
        h = ad.tanh(ad.tanh(h))
        h = _probe(h, lambda g: refs.append(weakref.ref(g)))
        ad.backward(sum_all(h), tape)
        assert tape._nodes == []
    assert alive == [False]
    np.testing.assert_array_equal(w.grad != 0.0, np.ones(6, dtype=bool))


def test_tape_keeps_only_what_vjps_read():
    # The tape holds gradient slots, not tensors, so an op output lives
    # on only while a VJP closure reads it: relu keeps its output, add
    # its second operand's shape and narrow its input's shape.
    rng = np.random.default_rng(67)
    x = param("x", rng.normal(size=(1, 2, 4, 4)))
    w = param("w", rng.normal(size=(2, 2, 3, 3)))
    refs, reached, passed = {}, [], []
    with Tape() as tape:
        xv = ad.watch(x)
        conv = ad.conv2d(xv, ad.watch(w), const64(np.zeros(2)), ConvSpec(padding=1))
        operand = ad.scale(xv, 0.5)
        wide = ad.concat([xv, xv], axis=1)
        refs.update((name, weakref.ref(v.tensor.data)) for name, v in (
            ("conv", conv), ("add operand", operand), ("narrow input", wide)))
        h = ad.mul(ad.add(ad.relu(conv), operand), ad.narrow(wide, 1, 1, 2))
        # the sigmoid's VJP reads its output: alive until backward passes it
        h = _probe(h, lambda g: passed.append(refs["sigmoid"]() is None))
        h = ad.sigmoid(h)
        refs["sigmoid"] = weakref.ref(h.tensor.data)
        h = _probe(h, lambda g: reached.append(refs["sigmoid"]() is not None))
        loss = sum_all(h)
        del xv, conv, operand, wide, h
        freed = {name: ref() is None for name, ref in refs.items()}
        assert freed == {"conv": True, "add operand": True,
                         "narrow input": True, "sigmoid": False}
        ad.backward(loss, tape)
    assert reached == [True] and passed == [True]
    assert np.all(x.grad != 0.0) and np.all(w.grad != 0.0)


def test_constant_input_conv_gets_no_input_gradient():
    rng = np.random.default_rng(21)
    xd = rng.normal(size=(2, 3, 7, 7))
    w = param("w", rng.normal(size=(4, 3, 3, 3)))
    b = param("b", rng.normal(size=(4,)))
    gy = rng.normal(size=(2, 4, 4, 4))
    spec = ConvSpec(stride=2, padding=1)
    x = const64(xd)
    # a VJP runs once: the direct call and backward each get a tape
    with Tape() as tape:
        ad.conv2d(x, ad.watch(w), ad.watch(b), spec)
        assert tape._nodes[-1].vjp(gy)[0] is None
    with Tape() as tape:
        y = ad.conv2d(x, ad.watch(w), ad.watch(b), spec)
        ad.backward(sum_all(ad.mul(y, const64(gy))), tape)
    assert x._slot is None
    # the same weight and bias gradients as the VJP that forms gx too
    _, gw, gb = T._conv2d_vjp(xd, w.value.data, spec, gy, True)
    np.testing.assert_array_equal(w.grad, gw)
    np.testing.assert_array_equal(b.grad, gb)


def test_one_by_one_conv_vjp_frees_its_input_before_forming_gx():
    # The conv's input is an op output that only the tape holds. Its VJP
    # drops it once gw is done, and gx is the GEMM's own output, so
    # between the probes around the conv it adds less than half a gx.
    x = param("x", np.random.default_rng(5).normal(size=(2, 32, 48, 48)))
    w = param("w", np.random.default_rng(6).normal(size=(2, 32, 1, 1)))
    levels = {}

    def enter(g):
        levels["entry"] = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()

    tracemalloc.start()  # before the forward, so freeing the input counts
    try:
        with Tape() as tape:
            h = _probe(ad.scale(ad.watch(x), 0.5), lambda g: levels.update(
                peak=tracemalloc.get_traced_memory()[1]))
            h = ad.conv2d(h, ad.watch(w), const64(np.zeros(2)), ConvSpec())
            loss = sum_all(_probe(h, enter))
            del h
            ad.backward(loss, tape)
    finally:
        tracemalloc.stop()
    assert levels["peak"] - levels["entry"] <= 0.5 * x.value.data.nbytes
    assert np.all(x.grad != 0.0)


@pytest.mark.parametrize("op", ["conv2d", "depthwise_residual"])
def test_a_vjp_that_released_its_input_refuses_a_second_run(op):
    rng = np.random.default_rng(8)
    x = param("x", rng.normal(size=(1, 2, 5, 5)))
    w = param("w", rng.normal(size=(2, 1, 3, 3)))
    gy = rng.normal(size=(1, 2, 5, 5))
    with Tape() as tape:
        xv, wv = ad.watch(x), ad.watch(w)
        if op == "conv2d":
            ad.conv2d(xv, wv, const64(np.zeros(2)), ConvSpec(padding=1, groups=2))
        else:
            ad.depthwise_residual(xv, [wv], (1,))
        vjp = tape._nodes[-1].vjp
    gx = vjp(gy)[0]
    assert gx.shape == x.value.shape
    with pytest.raises(StateError, match="already ran"):
        vjp(gy)


def test_parameter_watched_twice_gets_the_sum_of_both_paths():
    # dyadic values: both accumulation orders are exact
    x1, x2 = np.array([0.5, -0.25, 2.0]), np.array([1.5, 4.0, -0.125])
    w = param("w", np.array([1.0, -3.0, 0.75]))
    with Tape() as tape:
        w1, w2 = ad.watch(w), ad.watch(w)
        loss = ad.add(
            sum_all(ad.mul(w1, const64(x1))),
            sum_all(ad.mul(w2, const64(x2))),
        )
        assert [s for s in tape._nodes if not s.parents] == [w1._slot, w2._slot]
        assert w1.tensor is w.value and w2.tensor is w.value
        ad.backward(loss, tape)
    np.testing.assert_array_equal(w.grad, x1 + x2)


def test_parameter_watched_outside_a_tape_records_no_node():
    w = param("w", np.array([1.0, 2.0]))
    v = ad.watch(w)
    assert v._slot is None and v.tensor is w.value
    with Tape() as tape:
        loss = sum_all(ad.mul(v, const64([3.0, 4.0])))
        assert all(s.parents for s in tape._nodes)
        ad.backward(loss, tape)
    np.testing.assert_array_equal(w.grad, np.zeros(2))


def test_non_finite_gradient_at_a_watched_parameter_names_it():
    w = param("enc.stage2.block0.pre.weight", np.array([1.0, 2.0]))
    with Tape() as tape:
        v = ad.watch(w)
        nan = ad.record_op(v.tensor, (v,), lambda g: (np.full_like(g, np.nan),))
        loss = sum_all(nan)
        with pytest.raises(NumericError, match=r"enc\.stage2\.block0\.pre\.weight"):
            ad.backward(loss, tape)
    np.testing.assert_array_equal(w.grad, np.zeros(2))


def test_unreached_parameter_gets_zero_contribution():
    used = param("used", np.array([1.0, 2.0]))
    unused = param("unused", np.array([3.0]))
    with Tape() as tape:
        ad.backward(sum_all(ad.watch(used)), tape)
    np.testing.assert_array_equal(used.grad, np.ones(2))
    np.testing.assert_array_equal(unused.grad, np.zeros(1))


def test_backward_skips_a_node_that_never_reaches_the_loss():
    # A node whose output the loss never reads gets no gradient, so its
    # VJP never runs and the parameters' gradients are those of a tape
    # without it, bit for bit.
    x = np.random.default_rng(31).normal(size=(3, 4))
    grads = []
    for with_dead in (False, True):
        w = param("w", np.linspace(-1.0, 1.0, 12).reshape(3, 4))
        calls = []
        with Tape() as tape:
            h = ad.tanh(ad.mul(ad.watch(w), const64(x)))
            if with_dead:
                dead = ad.record_op(h.tensor, (h,), lambda g: calls.append(g) or (g,))
                ad.scale(dead, 2.0)
            ad.backward(sum_all(ad.mul(h, h)), tape)
        assert calls == []
        grads.append(w.grad)
    np.testing.assert_array_equal(grads[0], grads[1])


# ---------------------------------------------------------------------------
# grad_check itself


def test_grad_check_square_function_pinned():
    w = param("w", np.array([3.0]))

    def fn():
        wv = ad.watch(w)
        return sum_all(ad.mul(wv, wv))

    report = grad_check(fn, [w])
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
        return dice_loss(ad.sigmoid(ad.watch(w)), target)

    report = grad_check(fn, [w])
    assert report.passed, report
    assert report.max_rel_err < 1e-5


def test_grad_check_fails_a_wrong_analytic_gradient():
    # w -> w*w recorded with the VJP g -> g*w, half the true derivative:
    # at w = 2 the analytic 2 meets the finite difference 4.
    w = param("w", np.array([2.0]))

    def fn(factor):
        wv = ad.watch(w)
        wd = w.value.data
        sq = ad.record_op(Tensor._wrap(wd * wd), (wv,), lambda g: (factor * g * wd,))
        return sum_all(sq)

    right = grad_check(lambda: fn(2.0), [w])
    assert right.passed and right.checked == 1
    wrong = grad_check(lambda: fn(1.0), [w])
    assert not wrong.passed
    assert wrong.checked == 1 and wrong.skipped == 0
    assert wrong.max_rel_err == pytest.approx(0.5, rel=1e-6)


# ---------------------------------------------------------------------------
# FD sweeps over individual kernels


def _fd_ok(fn, params):
    report = grad_check(fn, params)
    assert report.passed, report


def test_fd_matmul():
    rng = np.random.default_rng(11)
    a = param("a", rng.normal(size=(3, 4)))
    b = param("b", rng.normal(size=(4, 2)))
    _fd_ok(lambda: sum_all(ad.tanh(ad.matmul(ad.watch(a), ad.watch(b)))), [a, b])


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
        pytest.param(lambda: T.resize_bilinear(Tensor(_X4, dtype="f64"), 0, 4),
                     DimensionError, id="resize-extent"),
        pytest.param(lambda: T.resize_bilinear(Tensor(np.zeros((3, 4, 4)), dtype="f64"), 2, 2),
                     DimensionError, id="resize-rank"),
        pytest.param(lambda: ad.pixel_sample(const64(np.zeros((3, 4, 4))),
                                             const64(np.zeros((3, 2, 5)))),
                     DimensionError, id="pixel-sample-x-rank"),
        pytest.param(lambda: ad.pixel_sample(const64(_X4), const64(np.zeros((2, 5)))),
                     DimensionError, id="pixel-sample-u-rank"),
        pytest.param(lambda: ad.pixel_sample(const64(_X4), const64(np.zeros((2, 3, 5)))),
                     DimensionError, id="pixel-sample-u-pair"),
        pytest.param(lambda: ad.pixel_sample(const64(_X4), const64(np.zeros((3, 2, 5)))),
                     DimensionError, id="pixel-sample-u-batch"),
        pytest.param(lambda: ad.pixel_sample(const64(_X4), const32(np.zeros((2, 2, 5)))),
                     ContractError, id="pixel-sample-mixed-dtype"),
    ],
)
def test_elementwise_and_layout_ops_reject_bad_arguments(op, err):
    with pytest.raises(err):
        op()


def test_fd_softmax():
    rng = np.random.default_rng(17)
    x = param("x", rng.normal(size=(2, 5)))
    wgt = const64(np.random.default_rng(18).normal(size=(2, 5)))
    _fd_ok(lambda: sum_all(ad.mul(ad.softmax(ad.watch(x), axis=1), wgt)), [x])


def test_fd_batchnorm_training():
    # Both modes: training differentiates through the batch statistics,
    # eval mode normalizes with the running ones, which a taped eval
    # forward (model(x, training=False) under a Tape) reaches.
    rng = np.random.default_rng(19)
    x = param("x", rng.normal(size=(2, 3, 4, 4)))
    gamma = param("gamma", rng.normal(size=(3,)) + 1.5)
    beta = param("beta", rng.normal(size=(3,)))
    rm = Tensor(rng.normal(size=(3,)), dtype="f64")
    rv = Tensor(rng.uniform(0.5, 2.0, size=(3,)), dtype="f64")
    wgt = const64(np.random.default_rng(20).normal(size=(2, 3, 4, 4)))

    def loss(training):
        y, _, _ = ad.batchnorm2d(
            ad.watch(x), ad.watch(gamma), ad.watch(beta), rm, rv, training
        )
        return ad.mean_all(ad.mul(y, wgt))

    for training in (True, False):
        _fd_ok(lambda: loss(training), [x, gamma, beta])


def test_fd_pixel_sample_values_and_coordinates():
    rng = np.random.default_rng(23)
    x = param("x", rng.normal(size=(1, 2, 5, 5)))
    # Keep coordinates away from integer lattice kinks so FD stays clean.
    u = param("u", rng.uniform(0.3, 3.7, size=(1, 2, 6)).round(1) + 0.05)
    wgt = const64(np.random.default_rng(24).normal(size=(1, 2, 6)))

    def fn():
        y = ad.pixel_sample(ad.watch(x), ad.watch(u))
        return sum_all(ad.mul(y, wgt))

    _fd_ok(fn, [x, u])


def test_pixel_sample_clamped_coordinate_gradient_is_zero():
    x = const64(np.arange(16.0).reshape(1, 1, 4, 4))
    u = param("u", np.array([[[-2.0], [1.5]]]))
    with Tape() as tape:
        y = ad.pixel_sample(x, ad.watch(u))
        ad.backward(sum_all(y), tape)
    assert u.grad[0, 0, 0] == 0.0
    assert u.grad[0, 1, 0] != 0.0


def _pixel_sample_grads(x, u, gy):
    """(y, gx, gu) of pixel_sample(x, u) under the cotangent gy."""
    xp, up = param("x", x), param("u", u)
    with Tape() as tape:
        y = ad.pixel_sample(ad.watch(xp), ad.watch(up))
        yd = y.tensor.data
        ad.backward(sum_all(ad.mul(y, const64(gy))), tape)
    return yd, xp.grad, up.grad


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
        _, gx, _ = _pixel_sample_grads(x, np.stack([ux, uy], axis=1), gy)
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
        _, _, gu = _pixel_sample_grads(x, np.stack([ux, uy], axis=1), gy)
        gux, guy = gu[:, 0], gu[:, 1]

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


def test_pixel_sample_constant_coordinates_get_no_gradient():
    # Constant coordinates (the bilinear lattice) skip the coordinate
    # gradient; the input gradient is the same as with watched ones.
    rng = np.random.default_rng(41)
    x = rng.normal(size=(2, 3, 4, 5))
    u = rng.uniform(-1.0, 5.0, size=(2, 2, 7))
    gy = rng.normal(size=(2, 3, 7))
    xp = param("x", x)
    with Tape() as tape:
        gx, gu = ad.pixel_sample(ad.watch(xp), const64(u))._slot.vjp(gy)
    assert gu is None
    np.testing.assert_array_equal(gx, _pixel_sample_grads(x, u, gy)[1])


@pytest.mark.parametrize("chunk", [12, 4], ids=["partial-last-chunk", "row-longer-than-chunk"])
def test_pixel_sample_chunks_match_one_pass(monkeypatch, chunk):
    # 5 rows of 6 points: a 12-point chunk holds 2 whole rows (the last
    # one row), a 4-point chunk holds one row longer than itself.
    # Coordinates keep >= 0.1 px from every integer (no FD kinks) and
    # reach outside the 4x5 image on every side.
    rng = np.random.default_rng(53)
    x = rng.normal(size=(5, 3, 4, 5))
    ux = rng.integers(-2, 6, size=(5, 6)) + rng.uniform(0.1, 0.9, size=(5, 6))
    uy = rng.integers(-2, 5, size=(5, 6)) + rng.uniform(0.1, 0.9, size=(5, 6))
    u = np.stack([ux, uy], axis=1)
    gy = rng.normal(size=(5, 3, 6))
    whole = _pixel_sample_grads(x, u, gy)
    monkeypatch.setattr(T, "_SAMPLE_CHUNK", chunk)
    chunked = _pixel_sample_grads(x, u, gy)
    for a, b in zip(chunked, whole):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    grid = np.stack([(2.0 * ux + 1.0) / 5 - 1.0, (2.0 * uy + 1.0) / 4 - 1.0], axis=2)
    np.testing.assert_allclose(chunked[0], oracles.bilinear_sample_naive(x, grid),
                               rtol=0, atol=1e-6)
    xp, up = param("x", x), param("u", u)
    _fd_ok(lambda: sum_all(ad.mul(ad.pixel_sample(ad.watch(xp), ad.watch(up)),
                                  const64(gy))), [xp, up])


def test_pixel_sample_memory_is_bounded_by_the_chunk():
    # The tape keeps only x and u, and the VJP rebuilds corners and
    # fractions one chunk of whole rows at a time: with 4 rows a chunk,
    # 8 and 32 rows reach the same peak above gx + gu.
    p = T._SAMPLE_CHUNK // 4
    extra = {}
    for n in (8, 32):
        rng = np.random.default_rng(n)
        x = param("x", rng.normal(size=(n, 2, 32, 32)))
        u = param("u", rng.uniform(-1.0, 32.0, size=(n, 2, p)))
        gy = rng.normal(size=(n, 2, p))
        with Tape():
            xv, uv = ad.watch(x), ad.watch(u)
            tracemalloc.start()
            try:
                y = ad.pixel_sample(xv, uv)
                retained = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                gx, gu = y._slot.vjp(gy)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert retained - y.tensor.data.nbytes < 64 << 10, f"n={n}"
        extra[n] = peak - retained - gx.nbytes - gu.nbytes
    assert abs(extra[32] - extra[8]) <= 0.1 * extra[8], extra


def test_fd_resize_and_depth_to_space():
    # pixel_sample at the constant coordinates of a 3x3 -> 6x6 resize:
    # the bilinear upsampler's path, gradient to x only.
    rng = np.random.default_rng(31)
    x = param("x", rng.normal(size=(1, 4, 3, 3)))
    u = const64(T._resize_coords(4, 3, 3, 6, 6, np.dtype(np.float64)))
    wgt = const64(np.random.default_rng(32).normal(size=(4, 1, 36)))
    _fd_ok(
        lambda: sum_all(ad.mul(
            ad.pixel_sample(ad.reshape(ad.watch(x), (4, 1, 3, 3)), u), wgt
        )),
        [x],
    )
    wgt2 = const64(np.random.default_rng(33).normal(size=(1, 1, 6, 6)))
    _fd_ok(
        lambda: sum_all(ad.mul(ad.depth_to_space(ad.watch(x), 2), wgt2)), [x]
    )


def test_fd_concat_split_narrow():
    rng = np.random.default_rng(37)
    a = param("a", rng.normal(size=(1, 2, 3, 3)))
    b = param("b", rng.normal(size=(1, 3, 3, 3)))

    def fn():
        joined = ad.concat([ad.watch(a), ad.watch(b)], axis=1)
        parts = ad.split(joined, 1, [2, 3])
        return ad.add(
            sum_all(ad.tanh(parts[0])),
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
