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
from dyglnet.train import clip_grad_norm


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
        wide = ad.concat([xv, xv])
        refs.update((name, weakref.ref(v.tensor.data)) for name, v in (
            ("conv", conv), ("add operand", operand), ("narrow input", wide)))
        h = ad.mul(ad.add(ad.relu(conv), operand), ad.narrow(wide, 1, 2))
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
    _, gw, gb = T._conv2d_vjp([xd], w.value.data, spec, gy, True)
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


@pytest.mark.parametrize("op", ["conv2d", "conv2d-of-a-remake", "depthwise_residual"])
def test_a_vjp_that_released_its_input_refuses_a_second_run(op):
    # conv2d-of-a-remake reads a batchnorm output, so its box holds the
    # batchnorm's remake instead of the array
    rng = np.random.default_rng(8)
    x = param("x", rng.normal(size=(1, 2, 5, 5)))
    w = param("w", rng.normal(size=(2, 1, 3, 3)))
    gy = rng.normal(size=(1, 2, 5, 5))
    with Tape() as tape:
        xv, wv = ad.watch(x), ad.watch(w)
        if op == "conv2d-of-a-remake":
            stats = Tensor(np.zeros(2), dtype="f64")
            xv, _, _ = ad.batchnorm2d(xv, const64(np.ones(2)), const64(np.zeros(2)),
                                      stats, stats, True)
        if op.startswith("conv2d"):
            ad.conv2d(xv, wv, const64(np.zeros(2)), ConvSpec(padding=1, groups=2))
        else:
            ad.depthwise_residual([xv], [wv], (1,))
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
    # watch's VJP only accumulates: backward completes with the NaN in
    # the gradient, and the clip, the training loop's one gradient check,
    # names the parameter before it scales anything.
    w = param("enc.stage2.block0.pre.weight", np.array([1.0, 2.0]))
    ok = param("enc.stage2.block0.pre.bias", np.array([3.0]))
    with Tape() as tape:
        v = ad.watch(w)
        nan = ad.record_op(v.tensor, (v,), lambda g: (np.full_like(g, np.nan),))
        ad.backward(ad.add(sum_all(nan), sum_all(ad.watch(ok))), tape)
    assert np.isnan(w.grad).all()
    with pytest.raises(NumericError, match=r"gradient norm nan, non-finite in "
                       r"'enc\.stage2\.block0\.pre\.weight'$"):
        clip_grad_norm([ok, w], 1e-3)
    assert np.isnan(w.grad).all()
    np.testing.assert_array_equal(ok.grad, [1.0])


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
        y = ad.depthwise_residual([ad.watch(x)], [ad.watch(w) for w in ws], dilations, bias)
        return ad.mean_all(ad.tanh(y))

    _fd_ok(fn, [x, *ws, b] if with_bias else [x, *ws])


def test_depthwise_residual_rejects_bad_arguments():
    x = const64(np.zeros((1, 3, 4, 4)))
    w = const64(np.zeros((3, 1, 3, 3)))
    for bad in [(3, 1, 5, 5), (2, 1, 3, 3), (3, 2, 3, 3)]:
        with pytest.raises(DimensionError):
            ad.depthwise_residual([x], [w, const64(np.zeros(bad))], (1, 2))
    with pytest.raises(DimensionError):
        ad.depthwise_residual([x], [w], (1,), const64(np.zeros(2)))
    w32 = ad.constant(Tensor(np.zeros((3, 1, 3, 3)), dtype="f32"))
    with pytest.raises(ContractError):
        ad.depthwise_residual([x], [w, w32], (1, 2))
    with pytest.raises(ContractError):
        ad.depthwise_residual([x], [w], (1,), ad.constant(Tensor(np.zeros(3), dtype="f32")))
    with pytest.raises(ContractError):
        ad.depthwise_residual([x], [w, w], (1,))
    with pytest.raises(ContractError):
        ad.depthwise_residual([x], [w], (0,))


def _dw_grads(dtype, parts, ws, b, dilations, gy, joined):
    """y, each input's gradient, every gw and gb of one depthwise residual
    over ``parts``, fed either as parts or as their ad.concat."""
    ps = [Parameter(f"x{k}", Tensor(x, dtype=dtype)) for k, x in enumerate(parts)]
    wp = [Parameter(f"w{k}", Tensor(w, dtype=dtype)) for k, w in enumerate(ws)]
    bp = Parameter("b", Tensor(b, dtype=dtype))
    readout = ad.constant(Tensor(gy, dtype=dtype))
    with Tape() as tape:
        xs = [ad.watch(p) for p in ps]
        y = ad.depthwise_residual(
            [ad.concat(xs)] if joined else xs, [ad.watch(w) for w in wp], dilations,
            ad.watch(bp),
        )
        ad.backward(sum_all(ad.mul(y, readout)), tape)
    return [y.tensor.data] + [p.grad for p in ps + wp + [bp]]


@pytest.mark.parametrize("dtype", ["f32", "f64"])
@pytest.mark.parametrize("block_channels", [None, 2])
def test_depthwise_residual_of_two_parts_matches_their_concatenation(
    dtype, block_channels, monkeypatch
):
    # Per channel the parts run the joined input's arithmetic, so y, each
    # part's gx, every gw and gb are the same bits; blocks of 2 channels
    # end each part (3 and 4 wide) on a partial block.
    rng = np.random.default_rng(37)
    dilations = (1, 2, 3)
    n, h, w = 2, 6, 5
    if block_channels is not None:
        run = h * (w + 2 * max(dilations))
        monkeypatch.setattr(T, "_DW_BLOCK_BYTES", block_channels * n * run * 8)
    parts = [rng.normal(size=(n, 3, h, w)), rng.normal(size=(n, 4, h, w))]
    ws = [rng.normal(size=(7, 1, 3, 3)) for _ in dilations]
    b, gy = rng.normal(size=7), rng.normal(size=(n, 7, h, w))
    split = _dw_grads(dtype, parts, ws, b, dilations, gy, joined=False)
    joined = _dw_grads(dtype, parts, ws, b, dilations, gy, joined=True)
    for got, want in zip(split, joined):
        np.testing.assert_array_equal(got, want)
    if dtype == "f64":
        x = np.concatenate(parts, 1)
        want = x + b.reshape(1, -1, 1, 1) + sum(
            oracles.conv2d_naive(x, wk, None, padding=d, dilation=d, groups=7)
            for wk, d in zip(ws, dilations)
        )
        assert np.max(np.abs(split[0] - want)) <= 1e-6


def test_fd_depthwise_residual_of_two_parts():
    rng = np.random.default_rng(41)
    x1, x2 = param("x1", rng.normal(size=(2, 2, 4, 5))), param("x2", rng.normal(size=(2, 3, 4, 5)))
    ws = [param(f"w{k}", rng.normal(size=(5, 1, 3, 3)) * 0.5) for k in range(2)]

    def fn():
        parts = [ad.watch(x1), ad.watch(x2)]
        y = ad.depthwise_residual(parts, [ad.watch(w) for w in ws], (1, 2))
        return ad.mean_all(ad.tanh(y))

    _fd_ok(fn, [x1, x2, *ws])


def test_depthwise_residual_part_off_the_tape_gets_no_gradient_and_runs_once():
    rng = np.random.default_rng(43)
    x = param("x", rng.normal(size=(1, 2, 5, 5)))
    w = param("w", rng.normal(size=(5, 1, 3, 3)))
    gy = rng.normal(size=(1, 5, 5, 5))
    with Tape() as tape:
        ad.depthwise_residual([const64(rng.normal(size=(1, 3, 5, 5))), ad.watch(x)], [ad.watch(w)], (1,))
        vjp = tape._nodes[-1].vjp
    g_image, gx, gw = vjp(gy)
    assert g_image is None and gx.shape == x.value.shape and gw.shape == w.value.shape
    with pytest.raises(StateError, match="already ran"):
        vjp(gy)


@pytest.mark.parametrize(
    "second, channels, err",
    [
        ((2, 3, 64, 64), 6, DimensionError),  # batch
        ((1, 3, 64, 63), 6, DimensionError),  # extent
        ((1, 3, 64, 64), 5, DimensionError),  # widths sum to 6, not 5
        ((1, 3, 64, 64), 6, ContractError),  # f32 part, f64 first part
    ],
    ids=["batch", "extent", "width", "dtype"],
)
def test_depthwise_residual_rejects_mismatched_parts_before_allocating(second, channels, err):
    first = const64(np.zeros((1, 3, 64, 64)))
    other = (const32 if err is ContractError else const64)(np.zeros(second))
    w = const64(np.zeros((channels, 1, 3, 3)))
    tracemalloc.start()
    try:
        with pytest.raises(err):
            ad.depthwise_residual([first, other], [w], (1,))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 64 * 8  # less than one channel plane of the output
    with pytest.raises(DimensionError):  # no channels for the weights' 6
        ad.depthwise_residual([], [w], (1,))


def _same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("dtype", ["f32", "f64"])
def test_attention_matches_the_composed_graph_bit_for_bit(dtype):
    # The op lays out its thirds of qkv as the graph's narrows, reshapes
    # and transposes do, rebuilds the weights with the same calls and runs
    # the same VJPs, so y and the qkv gradient are the graph's bits.
    rng = np.random.default_rng(47)
    n, c, h, w = 2, 4, 3, 3
    p = h * w
    arr = rng.normal(size=(n, 3 * c, h, w))
    readout = ad.constant(Tensor(rng.normal(size=(n, c, h, w)), dtype=dtype))
    results = []
    for fused in (True, False):
        qkv = Parameter("qkv", Tensor(arr, dtype=dtype))
        with Tape() as tape:
            x = ad.watch(qkv)
            if fused:
                y = ad.attention(x)
            else:
                q, k, v = (ad.reshape(ad.narrow(x, i * c, c), (n, c, p)) for i in range(3))
                q, v = ad.transpose(q, (0, 2, 1)), ad.transpose(v, (0, 2, 1))
                scores = ad.scale(ad.matmul(q, k), 1.0 / np.sqrt(c))
                out = ad.matmul(ad.softmax(scores, axis=2), v)
                y = ad.reshape(ad.transpose(out, (0, 2, 1)), (n, c, h, w))
            ad.backward(sum_all(ad.mul(y, readout)), tape)
        results.append((y.tensor.data, qkv.grad))
    for got, want in zip(*results):
        _same_bits(got, want)


def test_fd_attention():
    rng = np.random.default_rng(53)
    qkv = param("qkv", rng.normal(size=(2, 9, 2, 3)))
    wgt = const64(rng.normal(size=(2, 3, 2, 3)))
    _fd_ok(lambda: sum_all(ad.mul(ad.attention(ad.watch(qkv)), wgt)), [qkv])


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
        pytest.param(lambda: ad.concat([]), ContractError, id="concat-empty"),
        pytest.param(lambda: ad.concat([const64(_X4), const64(np.zeros((2, 3, 4)))]),
                     DimensionError, id="concat-rank"),
        pytest.param(lambda: ad.concat([const64(_X4), const64(np.zeros((2, 3, 5, 4)))]),
                     DimensionError, id="concat-off-axis"),
        pytest.param(lambda: ad.concat([const64(_X4), const32(_X4)]),
                     ContractError, id="concat-mixed-dtype"),
        pytest.param(lambda: ad.narrow(const64(_X4), 2, 2), DimensionError,
                     id="narrow-past-end"),
        pytest.param(lambda: ad.narrow(const64(_X4), -1, 1), DimensionError,
                     id="narrow-negative-start"),
        pytest.param(lambda: ad.narrow(const64(_X4), 0, 0), DimensionError,
                     id="narrow-empty"),
        pytest.param(lambda: ad.reshape(const64(_X4), (2, 3, 4, 5)), DimensionError,
                     id="reshape-size"),
        pytest.param(lambda: ad.transpose(const64(_X4), (0, 1, 2, 2)),
                     DimensionError, id="transpose-repeat"),
        pytest.param(lambda: ad.transpose(const64(_X4), (0, 1, 2)), DimensionError,
                     id="transpose-rank"),
        pytest.param(lambda: ad.sum_groups(const64(np.zeros((2, 6, 4))), 2), DimensionError,
                     id="sum-groups-rank"),
        pytest.param(lambda: ad.sum_groups(const64(_X4), 0), DimensionError,
                     id="sum-groups-zero"),
        pytest.param(lambda: ad.sum_groups(const64(np.zeros((2, 4, 4, 4))), -2),
                     DimensionError, id="sum-groups-negative"),
        pytest.param(lambda: ad.sum_groups(const64(_X4), 2), DimensionError,
                     id="sum-groups-split"),
        pytest.param(lambda: ad.pixel_sample(const64(np.zeros((3, 4, 4))),
                                             const64(np.zeros((3, 8, 4, 4))), 2, 0.25),
                     DimensionError, id="pixel-sample-x-rank"),
        pytest.param(lambda: ad.pixel_sample(const64(_X4), const64(np.zeros((2, 8, 16))), 2, 0.25),
                     DimensionError, id="pixel-sample-offset-rank"),
        pytest.param(lambda: ad.pixel_sample(const64(_X4), const64(np.zeros((2, 6, 4, 4))), 2, 0.25),
                     DimensionError, id="pixel-sample-offset-channels"),
        pytest.param(lambda: ad.pixel_sample(const64(_X4), const64(np.zeros((3, 8, 4, 4))), 2, 0.25),
                     DimensionError, id="pixel-sample-offset-batch"),
        pytest.param(lambda: ad.pixel_sample(const64(_X4), const64(np.zeros((2, 8, 4, 5))), 2, 0.25),
                     DimensionError, id="pixel-sample-offset-extent"),
        pytest.param(lambda: ad.pixel_sample(const64(_X4), const64(np.zeros((2, 16, 4, 4))), 2, 0.25),
                     DimensionError, id="pixel-sample-groups"),
        pytest.param(lambda: ad.pixel_sample(const64(_X4), const32(np.zeros((2, 8, 4, 4))), 2, 0.25),
                     ContractError, id="pixel-sample-mixed-dtype"),
        pytest.param(lambda: ad.pixel_sample(const64(_X4), None, 0, 0.25),
                     DimensionError, id="pixel-sample-factor"),
        pytest.param(lambda: ad.attention(const64(np.zeros((2, 6, 9)))), DimensionError,
                     id="attention-rank"),
        pytest.param(lambda: ad.attention(const64(_X4[:, :2])), DimensionError,
                     id="attention-thirds"),
    ],
)
def test_elementwise_and_layout_ops_reject_bad_arguments(op, err):
    with pytest.raises(err):
        op()


_MAP = np.zeros((1, 6, 64, 64))


@pytest.mark.parametrize(
    "op, args, err",
    [
        (ad.attention, [const64(_MAP[:, :5])], DimensionError),
        (ad.pixel_sample, [const64(_MAP), const64(_MAP[:, :3]), 2, 0.25], DimensionError),
        (ad.pixel_sample, [const64(_MAP), const64(np.zeros((1, 32, 64, 64))), 2, 0.25],
         DimensionError),
        (ad.pixel_sample, [const64(_MAP), const64(np.zeros((2, 8, 64, 64))), 2, 0.25],
         DimensionError),
        (ad.pixel_sample, [const64(_MAP), const32(np.zeros((1, 8, 64, 64))), 2, 0.25],
         ContractError),
    ],
    ids=["qkv-thirds", "offset-channels", "groups", "batch", "dtype"],
)
def test_attention_and_pixel_sample_reject_bad_inputs_before_allocating(op, args, err):
    # 5 qkv channels, 3 offset channels, 6 channels in 4 groups, a batch
    # of 2 offset maps for 1 image, f32 offsets for f64 x
    tracemalloc.start()
    try:
        with pytest.raises(err):
            op(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 64 * 8  # less than one channel plane of an input


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


def _identity_lattice(n, h, w):
    """The s = 1 lattice of h x w maps, [n, 2, h, w]: pixel (i, j) reads
    (x, y) = (j, i), so the offsets of pixel_sample(x, o, 1, 1.0) are its
    coordinates less their pixel's own position."""
    return T._resize_coords(n, h, w, h, w, np.dtype(np.float64)).reshape(n, 2, h, w)


def test_fd_pixel_sample_values_and_offsets():
    rng = np.random.default_rng(23)
    x = param("x", rng.normal(size=(1, 2, 5, 5)))
    # Keep coordinates away from integer lattice kinks so FD stays clean.
    u = rng.uniform(0.3, 3.7, size=(1, 2, 5, 5)).round(1) + 0.05
    o = param("o", u - _identity_lattice(1, 5, 5))
    wgt = const64(np.random.default_rng(24).normal(size=(1, 2, 5, 5)))

    def fn():
        y = ad.pixel_sample(ad.watch(x), ad.watch(o), 1, 1.0)
        return sum_all(ad.mul(y, wgt))

    _fd_ok(fn, [x, o])


def test_pixel_sample_clamped_coordinate_gradient_is_zero():
    # Pixel (0, 0) reads (x, y) = (-2, 1.5): x clamps to the border, so
    # its offset gets no gradient, and y's does.
    x = const64(np.arange(16.0).reshape(1, 1, 4, 4))
    offsets = np.zeros((1, 2, 4, 4))
    offsets[0, :, 0, 0] = (-2.0, 1.5)
    o = param("o", offsets)
    with Tape() as tape:
        y = ad.pixel_sample(x, ad.watch(o), 1, 1.0)
        ad.backward(sum_all(y), tape)
    assert o.grad[0, 0, 0, 0] == 0.0
    assert o.grad[0, 1, 0, 0] != 0.0


def _sample_grads(x, o, gy, s=1, scale=1.0):
    """(y, gx, go) of pixel_sample(x, o, s, scale) under the cotangent gy."""
    xp, op = param("x", x), param("o", o)
    with Tape() as tape:
        y = ad.pixel_sample(ad.watch(xp), ad.watch(op), s, scale)
        ad.backward(sum_all(ad.mul(y, const64(gy))), tape)
    return y.tensor.data, xp.grad, op.grad


def _random_sample_case(rng, n_lo):
    n, c = int(rng.integers(n_lo, 4)), int(rng.integers(1, 5))
    h, w = (int(v) for v in rng.integers(1, 7, 2))
    p = int(rng.integers(1, 10))
    return rng.normal(size=(n, c, h, w)), n, c, h, w, p


def test_pixel_sample_vjp_adjoint_vs_oracle():
    # The sampler kernel is linear in x, so <sample(x, u), gy> = <x, gx>
    # for any cotangent gy. Extents of 1 give a zero corner step;
    # coordinates reach 1.5 pixels outside the image on every side.
    rng = np.random.default_rng(37)
    for case in range(200):
        x, n, c, h, w, p = _random_sample_case(rng, 1)
        ux = rng.uniform(-1.5, w + 0.5, size=(n, p))
        uy = rng.uniform(-1.5, h + 0.5, size=(n, p))
        gy = rng.normal(size=(n, c, p))
        gx, _ = T._sample_pixel_vjp(x, np.stack([ux, uy], axis=1), gy, False)
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
        _, gu = T._sample_pixel_vjp(x, np.stack([ux, uy], axis=1), gy, True)
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


def test_pixel_sample_constant_offsets_get_no_gradient():
    # Constant offsets, and none (the bare 2x lattice), skip the offset
    # gradient; the input gradient is the same as with watched offsets.
    rng = np.random.default_rng(41)
    x = rng.normal(size=(2, 3, 4, 5))
    o = rng.normal(size=(2, 8, 4, 5))
    gy = rng.normal(size=(2, 3, 8, 10))
    for offsets, taped in ((const64(o), o), (None, np.zeros_like(o))):
        xp = param("x", x)
        with Tape():
            gx, go = ad.pixel_sample(ad.watch(xp), offsets, 2, 0.25)._slot.vjp(gy)
        assert go is None
        np.testing.assert_array_equal(gx, _sample_grads(x, taped, gy, 2, 0.25)[1])


@pytest.mark.parametrize("chunk", [40, 8], ids=["partial-last-chunk", "row-longer-than-chunk"])
def test_pixel_sample_chunks_match_one_pass(monkeypatch, chunk):
    # 5 rows of 20 points (4x5 maps at s = 1): a 40-point chunk holds 2
    # whole rows (the last one row), an 8-point chunk holds one row longer
    # than itself. Coordinates keep >= 0.1 px from every integer (no FD
    # kinks) and reach outside the 4x5 image on every side.
    rng = np.random.default_rng(53)
    x = rng.normal(size=(5, 3, 4, 5))
    ux = rng.integers(-2, 6, size=(5, 4, 5)) + rng.uniform(0.1, 0.9, size=(5, 4, 5))
    uy = rng.integers(-2, 5, size=(5, 4, 5)) + rng.uniform(0.1, 0.9, size=(5, 4, 5))
    lattice = _identity_lattice(5, 4, 5)
    o = np.stack([ux, uy], axis=1) - lattice
    u = (o + lattice).reshape(5, 2, 20)  # the coordinates the op reads
    gy = rng.normal(size=(5, 3, 4, 5))
    whole = _sample_grads(x, o, gy)
    monkeypatch.setattr(T, "_SAMPLE_CHUNK", chunk)
    chunked = _sample_grads(x, o, gy)
    for a, b in zip(chunked, whole):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    grid = np.stack([(2.0 * u[:, 0] + 1.0) / 5 - 1.0, (2.0 * u[:, 1] + 1.0) / 4 - 1.0], axis=2)
    np.testing.assert_allclose(chunked[0].reshape(5, 3, 20),
                               oracles.bilinear_sample_naive(x, grid), rtol=0, atol=1e-6)
    xp, op = param("x", x), param("o", o)
    _fd_ok(lambda: sum_all(ad.mul(ad.pixel_sample(ad.watch(xp), ad.watch(op), 1, 1.0),
                                  const64(gy))), [xp, op])


@pytest.mark.parametrize("dtype", ["f32", "f64"])
@pytest.mark.parametrize("groups", [2, 4])
def test_grouped_pixel_sample_matches_one_call_per_group(dtype, groups):
    # Channel group j reads offset channels 8j to 8j + 7 (s = 2). The op
    # folds the groups into the sampler's batch, whose rows are
    # independent, so each group's y, gx and go are the bits of its own
    # single-group call. Offsets of about a pixel reach outside the image.
    rng = np.random.default_rng(59 + groups)
    k, h, w = 3, 3, 4
    x = rng.normal(size=(2, groups * k, h, w))
    o = rng.normal(size=(2, 8 * groups, h, w)) * 4.0
    gy = rng.normal(size=(2, groups * k, 2 * h, 2 * w))

    def grads(xa, oa, ga):
        xp, op = Parameter("x", Tensor(xa, dtype=dtype)), Parameter("o", Tensor(oa, dtype=dtype))
        with Tape() as tape:
            y = ad.pixel_sample(ad.watch(xp), ad.watch(op), 2, 0.25)
            ad.backward(sum_all(ad.mul(y, ad.constant(Tensor(ga, dtype=dtype)))), tape)
        return y.tensor.data, xp.grad, op.grad

    y, gx, go = grads(x, o, gy)
    assert y.shape == (2, groups * k, 2 * h, 2 * w)
    for j in range(groups):
        cs, os_ = slice(j * k, (j + 1) * k), slice(8 * j, 8 * j + 8)
        for got, want in zip(grads(x[:, cs], o[:, os_], gy[:, cs]),
                             (y[:, cs], gx[:, cs], go[:, os_])):
            _same_bits(got, np.ascontiguousarray(want))


def test_fd_grouped_pixel_sample():
    rng = np.random.default_rng(61)
    x = param("x", rng.normal(size=(2, 4, 3, 3)))
    # The 2x lattice sits on quarter pixels; offsets of at most 0.175 px
    # keep the coordinates off the integer lattice kinks.
    o = param("o", rng.uniform(-0.7, 0.7, size=(2, 16, 3, 3)))
    wgt = const64(rng.normal(size=(2, 4, 6, 6)))
    _fd_ok(lambda: sum_all(ad.mul(ad.pixel_sample(ad.watch(x), ad.watch(o), 2, 0.25), wgt)),
           [x, o])


def test_pixel_sample_memory_is_bounded_by_the_chunk():
    # The tape keeps only x and o, and the VJP builds the coordinates and
    # then corners and fractions one chunk of whole rows at a time: with
    # 4 rows a chunk (32x32 maps sampled by 4), 8 and 32 rows reach the
    # same peak above gx and the coordinates and their gradient, each the
    # offsets' size.
    s = 4
    assert s * s * 32 * 32 == T._SAMPLE_CHUNK // 4
    extra = {}
    for n in (8, 32):
        rng = np.random.default_rng(n)
        x = param("x", rng.normal(size=(n, 2, 32, 32)))
        o = param("o", rng.uniform(-4.0, 4.0, size=(n, 2 * s * s, 32, 32)))
        gy = rng.normal(size=(n, 2, s * 32, s * 32))
        with Tape():
            xv, ov = ad.watch(x), ad.watch(o)
            tracemalloc.start()
            try:
                y = ad.pixel_sample(xv, ov, s, 1.0)
                retained = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                gx, go = y._slot.vjp(gy)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert retained - y.tensor.data.nbytes < 64 << 10, f"n={n}"
        extra[n] = peak - retained - gx.nbytes - 2 * go.nbytes
    assert abs(extra[32] - extra[8]) <= 0.1 * extra[8], extra


# ---------------------------------------------------------------------------
# Remakes: a batchnorm, pixel_sample, 1x1 conv or relu-of-a-remake
# output leaves a remake, and a conv, attention or pixel_sample (its
# offsets) that reads it boxes the remake, not the array


def _remade_matches_kept(dtype, arrays, produce, consume, gy):
    """Runs consume(produce(ps), ps) under the cotangent gy twice, ps
    being ``arrays`` as parameters: the consumer reads the producer's
    output, and so boxes its remake, or reads it behind ad.scale(·, 1.0),
    which leaves no remake, so the consumer keeps that array. The
    consumer's input outlives its Value only when kept, and y and every
    parameter's gradient are the same bits in both runs."""
    runs = []
    for kept in (False, True):
        ps = {k: Parameter(k, Tensor(a, dtype=dtype)) for k, a in arrays.items()}
        with Tape() as tape:
            h = produce(ps)
            assert h._slot.remake is not None
            h = ad.scale(h, 1.0) if kept else h
            y = consume(h, ps)
            ref = weakref.ref(h.tensor.data)
            del h
            assert (ref() is not None) == kept
            ad.backward(sum_all(ad.mul(y, ad.constant(Tensor(gy, dtype=dtype)))), tape)
        runs.append([y.tensor.data] + [p.grad for p in ps.values()])
    for got, want in zip(*runs):
        _same_bits(got, want)


def _conv_by(spec):
    """A consumer for ``_remade_matches_kept``: conv(h, ps["w"], ps["b"])."""
    return lambda h, ps: ad.conv2d(h, ad.watch(ps["w"]), ad.watch(ps["b"]), spec)


@pytest.mark.parametrize("dtype", ["f32", "f64"])
@pytest.mark.parametrize("training", [True, False], ids=["training", "eval"])
def test_conv_of_a_batchnorm_remake_matches_a_kept_input_bit_for_bit(dtype, training):
    # The remake normalizes the input the batchnorm's VJP keeps with the
    # forward's statistics and call. Eval mode runs on a tape here, as a
    # taped eval forward (model(x, training=False) under a Tape) does.
    rng = np.random.default_rng(71)
    arrays = {"x": rng.normal(size=(2, 3, 5, 6)), "gamma": rng.normal(size=3) + 1.5,
              "beta": rng.normal(size=3), "w": rng.normal(size=(4, 3, 3, 3)),
              "b": rng.normal(size=4)}
    rm = Tensor(rng.normal(size=3), dtype=dtype)
    rv = Tensor(rng.uniform(0.5, 2.0, size=3), dtype=dtype)

    def produce(ps):
        y, _, _ = ad.batchnorm2d(ad.watch(ps["x"]), ad.watch(ps["gamma"]),
                                 ad.watch(ps["beta"]), rm, rv, training)
        return y

    gy = rng.normal(size=(2, 4, 5, 6))
    _remade_matches_kept(dtype, arrays, produce, _conv_by(ConvSpec(padding=1)), gy)


@pytest.mark.parametrize("dtype", ["f32", "f64"])
@pytest.mark.parametrize("groups", [1, 4])
@pytest.mark.parametrize("offsets", ["none", "constant", "taped"])
def test_conv_of_a_pixel_sample_remake_matches_a_kept_input_bit_for_bit(
    dtype, groups, offsets
):
    # The remake runs the sampler's forward again on the folded view of x
    # that the VJP keeps, at coordinates built from the offsets it keeps;
    # offsets of about a pixel reach outside the image.
    rng = np.random.default_rng(73 + groups)
    arrays = {"x": rng.normal(size=(2, 2 * groups, 3, 4)),
              "o": rng.normal(size=(2, 8 * groups, 3, 4)) * 4.0,
              "w": rng.normal(size=(3, 2 * groups, 1, 1)), "b": rng.normal(size=3)}

    def produce(ps):
        o = None
        if offsets == "constant":
            o = ad.constant(ps["o"].value)
        elif offsets == "taped":
            o = ad.watch(ps["o"])
        return ad.pixel_sample(ad.watch(ps["x"]), o, 2, 0.25)

    gy = rng.normal(size=(2, 3, 6, 8))
    _remade_matches_kept(dtype, arrays, produce, _conv_by(ConvSpec()), gy)


def test_a_held_batchnorm_output_keeps_no_input_after_backward():
    # The output's slot holds the remake, which reads the batchnorm's
    # input; backward drops it with the VJP, so a Value the caller still
    # holds keeps no input alive.
    rng = np.random.default_rng(79)
    x = param("x", rng.normal(size=(2, 3, 4, 4)))
    w = param("w", rng.normal(size=(2, 3, 1, 1)))
    with Tape() as tape:
        xin = ad.scale(ad.watch(x), 0.5)
        ref = weakref.ref(xin.tensor.data)
        stats = Tensor(np.zeros(3), dtype="f64")
        h, _, _ = ad.batchnorm2d(xin, const64(np.ones(3)), const64(np.zeros(3)),
                                 stats, stats, True)
        del xin
        loss = sum_all(ad.conv2d(h, ad.watch(w), const64(np.zeros(2)), ConvSpec()))
        assert ref() is not None
        ad.backward(loss, tape)
    assert h._slot.remake is None and ref() is None
    assert np.all(x.grad != 0.0)


def test_fd_conv_of_a_remake():
    # batchnorm -> 3x3 conv and pixel_sample -> 1x1 conv, the chains whose
    # conv weight and input gradients come from a remade input
    rng = np.random.default_rng(83)
    x = param("x", rng.normal(size=(2, 3, 4, 4)))
    gamma = param("gamma", rng.normal(size=(3,)) + 1.5)
    beta = param("beta", rng.normal(size=(3,)))
    w3 = param("w3", rng.normal(size=(2, 3, 3, 3)) * 0.5)
    b = param("b", rng.normal(size=(2,)))
    stats = Tensor(np.zeros(3), dtype="f64")

    def bn_conv():
        h, _, _ = ad.batchnorm2d(ad.watch(x), ad.watch(gamma), ad.watch(beta),
                                 stats, stats, True)
        return ad.mean_all(ad.tanh(ad.conv2d(h, ad.watch(w3), ad.watch(b), ConvSpec(padding=1))))

    _fd_ok(bn_conv, [x, gamma, beta, w3, b])
    xs = param("xs", rng.normal(size=(2, 4, 2, 3)))
    # away from the integer lattice kinks, as in the single-op sweeps
    o = param("o", rng.uniform(-0.7, 0.7, size=(2, 16, 2, 3)))
    w1 = param("w1", rng.normal(size=(2, 4, 1, 1)))

    def sample_conv():
        h = ad.pixel_sample(ad.watch(xs), ad.watch(o), 2, 0.25)
        return ad.mean_all(ad.tanh(ad.conv2d(h, ad.watch(w1), ad.watch(b), ConvSpec())))

    _fd_ok(sample_conv, [xs, o, w1, b])


# The model's 1x1-conv remake paths: the FFN's expand conv -> relu ->
# project conv, the qkv conv -> attention (after a kept input, or after a
# batchnorm when use_dyt is false), and the upsampler's offset conv ->
# pixel_sample, whose output an align conv may read.


def _ffn_arrays(rng):
    return {"x": rng.normal(size=(2, 3, 4, 5)), "we": rng.normal(size=(6, 3, 1, 1)),
            "be": rng.normal(size=6), "w": rng.normal(size=(3, 6, 1, 1)),
            "b": rng.normal(size=3)}


def _ffn_hidden(ps):
    e = ad.conv2d(ad.watch(ps["x"]), ad.watch(ps["we"]), ad.watch(ps["be"]), ConvSpec())
    return ad.relu(e)


def _qkv_arrays(rng, c=2):
    return {"x": rng.normal(size=(2, c, 3, 4)), "gamma": rng.normal(size=c) + 1.5,
            "beta": rng.normal(size=c), "wq": rng.normal(size=(3 * c, c, 1, 1)),
            "bq": rng.normal(size=3 * c)}


def _qkv(ps, use_bn):
    h = ad.watch(ps["x"])
    if use_bn:
        stats = Tensor(np.zeros(ps["x"].value.shape[1]), dtype=ps["x"].value.dtype)
        h, _, _ = ad.batchnorm2d(h, ad.watch(ps["gamma"]), ad.watch(ps["beta"]),
                                 stats, stats, True)
    return ad.conv2d(h, ad.watch(ps["wq"]), ad.watch(ps["bq"]), ConvSpec())


def _offsets_arrays(rng, groups=2):
    # offsets of at most ~0.2 pixel keep the coordinates off the integer
    # lattice, where the sampler's gradient has kinks
    return {"xl": rng.normal(size=(2, 3, 3, 4)),
            "wo": rng.uniform(-0.1, 0.1, size=(8 * groups, 3, 1, 1)),
            "bo": rng.uniform(-0.3, 0.3, size=8 * groups),
            "xs": rng.normal(size=(2, 2 * groups, 3, 4)),
            "w": rng.normal(size=(3, 2 * groups, 1, 1)), "b": rng.normal(size=3)}


def _offsets(ps):
    return ad.conv2d(ad.watch(ps["xl"]), ad.watch(ps["wo"]), ad.watch(ps["bo"]), ConvSpec())


def _sample(o, ps):
    return ad.pixel_sample(ad.watch(ps["xs"]), o, 2, 0.25)


@pytest.mark.parametrize("dtype", ["f32", "f64"])
def test_conv_of_an_ffn_hidden_remake_matches_a_kept_input_bit_for_bit(dtype):
    # The relu keeps its mask and remakes its output from the expand
    # conv's remake, which runs that conv's forward on the input it boxes.
    rng = np.random.default_rng(89)
    gy = rng.normal(size=(2, 3, 4, 5))
    _remade_matches_kept(dtype, _ffn_arrays(rng), _ffn_hidden, _conv_by(ConvSpec()), gy)


@pytest.mark.parametrize("dtype", ["f32", "f64"])
@pytest.mark.parametrize("use_bn", [False, True], ids=["kept-input", "batchnorm-input"])
def test_attention_of_a_qkv_remake_matches_a_kept_map_bit_for_bit(dtype, use_bn):
    # With a batchnorm in front (use_dyt = false) the qkv conv's remake
    # calls the batchnorm's remake in turn.
    rng = np.random.default_rng(97)
    gy = rng.normal(size=(2, 2, 3, 4))
    _remade_matches_kept(dtype, _qkv_arrays(rng), lambda ps: _qkv(ps, use_bn),
                         lambda h, ps: ad.attention(h), gy)


@pytest.mark.parametrize("dtype", ["f32", "f64"])
@pytest.mark.parametrize("aligned", [False, True], ids=["sampled", "aligned"])
def test_pixel_sample_of_an_offset_conv_remake_matches_kept_offsets_bit_for_bit(
    dtype, aligned
):
    # The sampler boxes the offset conv's remake and builds its
    # coordinates from it. With a 1x1 align conv after the sampler, the
    # sampler's output remake builds them in align's VJP and hands them
    # to the sampler's VJP.
    rng = np.random.default_rng(101)
    arrays = _offsets_arrays(rng)

    def consume(o, ps):
        y = _sample(o, ps)
        return _conv_by(ConvSpec())(y, ps) if aligned else y

    gy = rng.normal(size=(2, 3 if aligned else 4, 6, 8))
    _remade_matches_kept(dtype, arrays, _offsets, consume, gy)


def test_an_aligned_sample_rebuilds_its_coordinates_once(monkeypatch):
    # In align's VJP the sampler's output remake builds the coordinates,
    # running the offset conv's forward and the lattice once; the
    # sampler's VJP takes them. align offers a remake of its own on top
    # of the sampler's, and backward never runs it.
    rng = np.random.default_rng(103)
    ps = {k: param(k, a) for k, a in _offsets_arrays(rng).items()}
    calls = []
    forward, lattice = T._conv2d_forward, T._resize_coords
    monkeypatch.setattr(T, "_conv2d_forward", lambda *a: calls.append(a[1].shape) or forward(*a))
    monkeypatch.setattr(T, "_resize_coords", lambda *a: calls.append("lattice") or lattice(*a))
    with Tape() as tape:
        y = _conv_by(ConvSpec())(_sample(_offsets(ps), ps), ps)
        align_remake = y._slot.remake
        assert align_remake is not None
        y._slot.remake = lambda: calls.append("align remake") or align_remake()
        loss = sum_all(y)
        calls.clear()
        ad.backward(loss, tape)
    assert calls == [ps["wo"].value.shape, "lattice"]
    assert np.all(ps["wo"].grad != 0.0) and np.all(ps["xs"].grad != 0.0)


def test_fd_the_1x1_conv_remake_paths():
    rng = np.random.default_rng(107)
    ps = {k: param(k, a) for k, a in _ffn_arrays(rng).items()}
    _fd_ok(lambda: ad.mean_all(ad.tanh(_conv_by(ConvSpec())(_ffn_hidden(ps), ps))),
           list(ps.values()))
    for use_bn in (False, True):
        ps = {k: param(k, a) for k, a in _qkv_arrays(rng).items()}
        _fd_ok(lambda: ad.mean_all(ad.tanh(ad.attention(_qkv(ps, use_bn)))),
               [p for k, p in ps.items() if use_bn or k not in ("gamma", "beta")])
    ps = {k: param(k, a) for k, a in _offsets_arrays(rng).items()}

    def aligned_sample():
        y = _sample(_offsets(ps), ps)
        return ad.mean_all(ad.tanh(_conv_by(ConvSpec())(y, ps)))

    _fd_ok(aligned_sample, list(ps.values()))


@pytest.mark.parametrize("path", ["ffn", "qkv", "bn-qkv", "offsets"])
def test_a_consumer_of_a_1x1_conv_remake_refuses_a_second_vjp_run(path):
    # The consumer takes the remake out of its box, so a second run finds
    # it empty. The remakes read the 1x1 conv's box, so once the conv's
    # VJP has released its input they find that box empty too.
    rng = np.random.default_rng(109)
    arrays = {"ffn": _ffn_arrays, "offsets": _offsets_arrays}.get(path, _qkv_arrays)(rng)
    ps = {k: param(k, a) for k, a in arrays.items()}
    with Tape() as tape:
        if path == "ffn":
            h = _ffn_hidden(ps)
            y = _conv_by(ConvSpec())(h, ps)
        elif path == "offsets":
            h = _offsets(ps)
            y = _sample(h, ps)
        else:
            h = _qkv(ps, path == "bn-qkv")
            y = ad.attention(h)
    conv = next(s for s in tape._nodes if s.parents and s.vjp.__qualname__.startswith("conv2d"))
    gy = np.ones(y.tensor.shape)
    y._slot.vjp(gy)
    with pytest.raises(StateError, match="already ran"):
        y._slot.vjp(gy)
    conv.vjp(np.ones_like(conv.remake()))
    with pytest.raises(StateError, match="already ran"):
        h._slot.remake()


def test_fd_lattice_sample_without_and_with_zero_offsets():
    # A 3x3 -> 6x6 sample of 4 channels: with no offsets (the bilinear
    # upsampler's path) the gradient reaches x only; with zero offsets,
    # as a fresh offset conv gives, the quarter-pixel lattice sits off the
    # integer kinks, and the gradient reaches the offsets too.
    rng = np.random.default_rng(31)
    x = param("x", rng.normal(size=(1, 4, 3, 3)))
    o = param("o", np.zeros((1, 32, 3, 3)))
    wgt = const64(np.random.default_rng(32).normal(size=(1, 4, 6, 6)))
    _fd_ok(lambda: sum_all(ad.mul(ad.pixel_sample(ad.watch(x), None, 2, 0.25), wgt)), [x])
    _fd_ok(lambda: sum_all(ad.mul(ad.pixel_sample(ad.watch(x), ad.watch(o), 2, 0.25), wgt)),
           [x, o])


def test_fd_concat_split_narrow():
    rng = np.random.default_rng(37)
    a = param("a", rng.normal(size=(1, 2, 3, 3)))
    b = param("b", rng.normal(size=(1, 3, 3, 3)))

    def fn():
        joined = ad.concat([ad.watch(a), ad.watch(b)])
        return ad.add(
            sum_all(ad.tanh(ad.narrow(joined, 0, 2))),
            ad.mean_all(ad.narrow(ad.narrow(joined, 2, 3), 1, 2)),
        )

    _fd_ok(fn, [a, b])


@pytest.mark.parametrize("channels", [64, 48])
def test_split_concat_round_trip_bit_identical(channels):
    # a channel split as two narrows, joined again by concat
    rng = np.random.default_rng(41)
    x = ad.constant(Tensor(rng.normal(size=(1, channels, 3, 3)), dtype="f32"))
    half = channels // 2
    parts = [ad.narrow(x, 0, half), ad.narrow(x, half, half)]
    assert [p.tensor.shape[1] for p in parts] == [half, half]
    back = ad.concat(parts)
    np.testing.assert_array_equal(back.tensor.data, x.tensor.data)


def test_parameter_assign_and_trainable_flag():
    p = param("p", np.array([1.0, 2.0]))
    assert p.trainable
    p.assign(Tensor(np.array([5.0, 6.0]), dtype="f64"))
    np.testing.assert_array_equal(p.value.data, [5.0, 6.0])
    frozen = Parameter("f", Tensor(np.zeros(2), dtype="f64"), trainable=False)
    assert not frozen.trainable
