import math
import threading
import weakref
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ucam import conformer as cf
from ucam import tensor as tc
from ucam import wrcnn as wr
from ucam.errors import ConfigError, DataError, GraphError, NumericError, ShapeError
from ucam.masking import (NormParams, SequenceMask, apply_mask,
                          masked_softmax, utterance_batchnorm,
                          utterance_layernorm)
from ucam.rng import keyed


def rand(rng, *shape):
    return rng.standard_normal(shape)


def fd_scalar(f, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central finite differences of a scalar function of one array."""
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        lp = f(x)
        flat[i] = orig - eps
        lm = f(x)
        flat[i] = orig
        gf[i] = (lp - lm) / (2 * eps)
    return g


def analytic_grad(build, x: np.ndarray) -> np.ndarray:
    t = tc.parameter(x, dtype=np.float64)
    loss = tc.sum_all(build(t))
    tc.backward(loss)
    return t.grad


def check_op_grad(build, x: np.ndarray, tol: float = 1e-6):
    got = analytic_grad(build, x)

    def f(arr):
        return tc.sum_all(build(tc.tensor(arr, dtype=np.float64))).item()

    want = fd_scalar(f, x.copy())
    np.testing.assert_allclose(got, want, rtol=tol, atol=tol)


class TestMatmul:
    def test_identity(self):
        a = tc.tensor([[1.0, 0.0], [0.0, 1.0]])
        b = tc.tensor([[3.0], [4.0]])
        np.testing.assert_array_equal(tc.matmul(a, b).data, [[3.0], [4.0]])

    def test_hand_arithmetic(self):
        out = tc.matmul(tc.tensor([[1.0, 2.0]]), tc.tensor([[3.0], [4.0]]))
        np.testing.assert_array_equal(out.data, [[11.0]])

    def test_gradient_vs_central_differences(self):
        rng = np.random.default_rng(0)
        a = tc.parameter(rand(rng, 5, 4), dtype=np.float64)
        b = tc.parameter(rand(rng, 4, 3), dtype=np.float64)
        r = tc.tensor(rand(rng, 5, 3), dtype=np.float64)
        err = tc.grad_check(lambda ps: tc.sum_all(tc.mul(
            tc.matmul(ps["a"], ps["b"]), r)),
            {"a": a, "b": b}, eps=1e-4, samples_per_tensor=100)
        assert err < 1e-6

    def test_shape_error_names_both_shapes(self):
        a = tc.tensor(np.zeros((2, 3)))
        b = tc.tensor(np.zeros((4, 5)))
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(4, 5\)"):
            tc.matmul(a, b)

    def test_batched_matmul_gradient(self):
        rng = np.random.default_rng(1)
        check_op_grad(lambda t: tc.matmul(
            t, tc.tensor(rand(np.random.default_rng(2), 2, 3, 4, 5),
                         dtype=np.float64)), rand(rng, 2, 3, 6, 4))

    def test_linear_map_gradient(self):
        rng = np.random.default_rng(3)
        w = rand(rng, 4, 3)
        check_op_grad(lambda t: tc.matmul(
            t, tc.tensor(w, dtype=np.float64)), rand(rng, 2, 5, 4))

    def test_associativity_float64(self):
        rng = np.random.default_rng(4)
        a, b, c = (tc.tensor(rand(rng, *s), dtype=np.float64)
                   for s in ((4, 5), (5, 6), (6, 3)))
        left = tc.matmul(tc.matmul(a, b), c)
        right = tc.matmul(a, tc.matmul(b, c))
        np.testing.assert_allclose(left.data, right.data, rtol=1e-10, atol=1e-10)

    def test_mismatched_leading_dims_rejected(self):
        a = tc.tensor(np.zeros((2, 3, 4)))
        b = tc.tensor(np.zeros((3, 4, 5)))
        with pytest.raises(ShapeError):
            tc.matmul(a, b)


class TestActivations:
    def test_swish_at_zero(self):
        assert tc.swish(tc.tensor([0.0])).data[0] == 0.0

    def test_elu_at_minus_one(self):
        # closed form of ELU with alpha=1: exp(-1) - 1
        got = tc.elu(tc.tensor([-1.0], dtype=np.float64)).data[0]
        assert got == pytest.approx(math.exp(-1) - 1, abs=1e-12)
        assert got == pytest.approx(-0.6321, abs=1e-4)

    def test_glu_hand_evaluation(self):
        # value 2 gated by sigmoid(0) = 0.5
        got = tc.glu(tc.tensor([2.0, 0.0])).data
        np.testing.assert_allclose(got, [1.0])

    def test_glu_odd_channels_rejected(self):
        with pytest.raises(ShapeError):
            tc.glu(tc.tensor([1.0, 2.0, 3.0]))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_saturated_swish_and_glu_stay_finite(self, dtype):
        x = np.array([1e4, -1e4], dtype=dtype)
        with np.errstate(over="raise", invalid="raise"):
            s = tc.swish(tc.tensor(x)).data
            # value 1 gated by +-1e4: the gate is 1, then 0
            g = tc.glu(tc.tensor(np.array([[1.0, 1e4], [1.0, -1e4]],
                                          dtype=dtype))).data
        np.testing.assert_array_equal(s, [1e4, 0.0])
        np.testing.assert_array_equal(g, [[1.0], [0.0]])
        assert s.dtype == g.dtype == dtype

    @pytest.mark.parametrize("kind", ["swish", "relu", "elu"])
    def test_elementwise_gradients(self, kind):
        # str hashes are salted per process; crc32 gives each kind one draw
        rng = np.random.default_rng(zlib.crc32(kind.encode()))
        # keep away from the relu/elu kink
        x = rand(rng, 3, 7)
        x[np.abs(x) < 1e-3] = 0.5
        check_op_grad(getattr(tc, kind), x)

    def test_glu_gradient(self):
        rng = np.random.default_rng(7)
        check_op_grad(lambda t: tc.glu(t, axis=-1), rand(rng, 3, 8))
        check_op_grad(lambda t: tc.glu(t, axis=1), rand(rng, 2, 6, 3))


class TestBackward:
    def test_linear_case(self):
        # loss = sum(W @ x) with x fixed: dW broadcasts x across rows
        w = tc.parameter(np.ones((3, 2)))
        x = tc.tensor([[5.0], [7.0]])
        tc.backward(tc.sum_all(tc.matmul(w, x)))
        np.testing.assert_allclose(w.grad, np.tile([[5.0, 7.0]], (3, 1)))

    def test_swish_grad_at_zero(self):
        # d/dx x*sigmoid(x) at 0 is sigmoid(0) = 0.5
        x = tc.parameter(np.zeros(4))
        tc.backward(tc.sum_all(tc.swish(x)))
        np.testing.assert_allclose(x.grad, np.full(4, 0.5))

    def test_non_scalar_loss_rejected(self):
        x = tc.parameter(np.ones(3))
        with pytest.raises(GraphError):
            tc.backward(tc.scale(x, 2.0))

    def test_backward_twice_is_an_error(self):
        x = tc.parameter(np.ones(3))
        loss = tc.sum_all(x)
        tc.backward(loss)
        with pytest.raises(GraphError):
            tc.backward(loss)

    def test_graph_spent_by_an_earlier_backward_is_an_error(self):
        # the second loss would silently miss the gradient through h
        x = tc.parameter(np.ones(3))
        h = tc.scale(x, 2.0)
        tc.backward(tc.sum_all(h))
        tc.zero_grad([("x", x)])
        with pytest.raises(GraphError, match="op 'scale' reads a tensor "
                           "whose graph an earlier backward spent"):
            tc.backward(tc.sum_all(tc.scale(h, 3.0)))

    def test_backward_without_reset_is_an_error(self):
        x = tc.parameter(np.ones(3))
        tc.backward(tc.sum_all(x))
        with pytest.raises(GraphError, match="zero_grad"):
            tc.backward(tc.sum_all(tc.scale(x, 2.0)))
        tc.zero_grad([("x", x)])
        tc.backward(tc.sum_all(tc.scale(x, 2.0)))
        np.testing.assert_allclose(x.grad, np.full(3, 2.0))

    def test_fan_out_sums_both_paths(self):
        x = tc.parameter(np.array([3.0]))
        y = tc.add(tc.scale(x, 2.0), tc.mul(x, x))  # 2x + x^2
        tc.backward(tc.sum_all(y))
        np.testing.assert_allclose(x.grad, [2.0 + 2.0 * 3.0])

    def test_constant_loss_rejected(self):
        with pytest.raises(GraphError):
            tc.backward(tc.sum_all(tc.tensor([1.0, 2.0])))

    def test_no_grad_builds_no_graph(self):
        x = tc.parameter(np.ones(3))
        with tc.no_grad():
            y = tc.sum_all(tc.scale(x, 2.0))
        assert y._parents is None and not y.requires_grad


def in_modes(wait_in, inside, wait_out, left):
    """A thread that waits for ``wait_in``, enters ``no_grad`` and
    ``finite_checks``, sets ``inside``, waits for ``wait_out``, leaves both
    and sets ``left``; and the list of what ``needs_grad`` read inside."""
    def body():
        assert wait_in.wait(10)
        with tc.no_grad(), tc.finite_checks():
            seen.append(tc.needs_grad(x))
            inside.set()
            assert wait_out.wait(10)
        left.set()
    seen = []
    x = tc.parameter(np.ones(3))
    return threading.Thread(target=body), seen


def recording_and_unchecked():
    """Whether this thread records a graph and lets a non-finite value by."""
    x = tc.parameter(np.ones(3))
    tc.backward(tc.sum_all(tc.scale(x, 2.0)))
    inf = tc.scale(tc.tensor(np.array([np.inf])), 1.0)
    return x.grad.tolist() == [2.0] * 3 and np.isinf(inf.data).all()


def test_grad_and_finite_modes_are_per_thread():
    go, inside, release, left = (threading.Event() for _ in range(4))
    go.set()
    # another thread sits inside both blocks while this one trains
    held, seen = in_modes(go, inside, release, left)
    held.start()
    try:
        assert inside.wait(10)
        assert recording_and_unchecked()
    finally:
        release.set()
        held.join(10)
    assert not held.is_alive() and left.is_set() and seen == [False]
    # two threads enter, then leave in the order they entered
    a_in, b_in, a_out, b_out = (threading.Event() for _ in range(4))
    (first, seen_a), (second, seen_b) = (in_modes(go, a_in, b_in, a_out),
                                         in_modes(a_in, b_in, a_out, b_out))
    for t in (first, second):
        t.start()
    for t in (first, second):
        t.join(10)
        assert not t.is_alive()
    assert a_out.is_set() and b_out.is_set() and seen_a == seen_b == [False]
    assert recording_and_unchecked()


class TestShapeDiscipline:
    def test_add_requires_same_shape(self):
        a = tc.tensor(np.zeros((2, 3)))
        assert tc.add(a, tc.tensor(np.ones((2, 3)))).shape == (2, 3)
        for shape in ((3,), (1, 3), (2,)):
            with pytest.raises(ShapeError):
                tc.add(a, tc.tensor(np.ones(shape)))

    def test_bias_gradient_sums_leading_axes(self):
        b = tc.parameter(np.zeros(3))
        x = tc.tensor(np.ones((4, 5, 2)))
        w = tc.tensor(np.ones((3, 2)))
        tc.backward(tc.sum_all(tc.linear(x, w, b)))
        np.testing.assert_allclose(b.grad, np.full(3, 20.0))

    def test_linear_shape_errors(self):
        x = tc.tensor(np.zeros((2, 4)))
        with pytest.raises(ShapeError, match="weight"):
            tc.linear(x, tc.tensor(np.zeros((3, 5))))
        with pytest.raises(ShapeError, match="weight"):
            tc.linear(tc.tensor(np.zeros(4)), tc.tensor(np.zeros((3, 4))))
        with pytest.raises(ShapeError, match="bias"):
            tc.linear(x, tc.tensor(np.zeros((3, 4))), tc.tensor(np.zeros(4)))
        with pytest.raises(ShapeError, match="dtype"):
            tc.linear(x, tc.tensor(np.zeros((3, 4)), dtype=np.float32))

    def test_mul_requires_exact_shape(self):
        with pytest.raises(ShapeError):
            tc.mul(tc.tensor(np.ones((2, 3))), tc.tensor(np.ones(3)))

    def test_mixed_dtype_rejected(self):
        a = tc.tensor(np.ones(3), dtype=np.float32)
        b = tc.tensor(np.ones(3), dtype=np.float64)
        with pytest.raises(ShapeError, match="dtype"):
            tc.add(a, b)


class TestReshapeTranspose:
    def test_transpose_gradient(self):
        rng = np.random.default_rng(11)
        check_op_grad(lambda t: tc.mul(
            tc.transpose(t, (1, 2, 0)),
            tc.tensor(rand(np.random.default_rng(12), 3, 4, 2), dtype=np.float64)),
            rand(rng, 2, 3, 4))

    def test_reshape_gradient(self):
        rng = np.random.default_rng(13)
        check_op_grad(lambda t: tc.reshape(t, (6, 2)), rand(rng, 3, 4))


class TestSoftmaxGather:
    def test_log_softmax_normalizes(self):
        rng = np.random.default_rng(21)
        y = tc.log_softmax(tc.tensor(rand(rng, 4, 7)))
        np.testing.assert_allclose(np.exp(y.data).sum(-1), np.ones(4), rtol=1e-6)

    def test_log_softmax_gradient(self):
        rng = np.random.default_rng(22)
        w = rand(np.random.default_rng(23), 3, 5)
        check_op_grad(lambda t: tc.mul(
            tc.log_softmax(t), tc.tensor(w, dtype=np.float64)), rand(rng, 3, 5))

    def test_take_along_last(self):
        x = tc.tensor([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        idx = np.array([2, 0])
        np.testing.assert_array_equal(tc.take_along_last(x, idx).data, [3.0, 4.0])

    def test_take_along_last_out_of_range(self):
        x = tc.tensor(np.zeros((2, 3)))
        with pytest.raises(DataError, match=r"\(1,\)"):
            tc.take_along_last(x, np.array([0, 3]))

    def test_take_along_last_gradient(self):
        rng = np.random.default_rng(24)
        idx = np.array([[1, 0], [2, 2]])
        check_op_grad(lambda t: tc.take_along_last(t, idx), rand(rng, 2, 2, 3))


class TestDropout:
    def test_p_zero_is_identity(self):
        x = tc.tensor([1.0, 2.0])
        assert tc.dropout(x, 0.0, None) is x

    def test_requires_rng(self):
        with pytest.raises(ConfigError):
            tc.dropout(tc.tensor([1.0]), 0.5, None)

    def test_inverted_scaling_preserves_mean(self):
        rng = np.random.default_rng(31)
        x = tc.tensor(np.ones(200_000))
        y = tc.dropout(x, 0.25, rng)
        kept = y.data[y.data > 0]
        assert kept[0] == pytest.approx(1.0 / 0.75)
        assert y.data.mean() == pytest.approx(1.0, abs=0.01)

    def test_gradient_matches_mask(self):
        rng = np.random.default_rng(32)
        x = tc.parameter(np.ones(100))
        y = tc.dropout(x, 0.5, rng)
        tc.backward(tc.sum_all(y))
        np.testing.assert_array_equal(x.grad, y.data)


# dropout keeps its boolean draw and rebuilds its factor; swish and glu keep
# their input and rebuild its sigmoid. Outputs and gradients must be the
# closed forms over the forward's own arrays, byte for byte, here too.
SPECIAL = [0.0, -0.0, 88.0, -88.0, 1e4, -1e4, np.nan, 1.0, -1.0, 0.5]


def _special_input(dtype):
    """[2, 20] with every special value in both halves of the last axis."""
    x = np.concatenate([SPECIAL, 3 * np.random.default_rng(41).standard_normal(
        10)]).astype(dtype)
    return np.stack([x, x[::-1]])


def _assert_bytes(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_rebuilt_kernels_match_closed_forms_bitwise(dtype):
    x = _special_input(dtype)
    g = np.random.default_rng(42).standard_normal(x.shape).astype(dtype)
    half = g[:, :10]

    s = tc._sigmoid_raw(x)
    y = tc.swish(tc.parameter(x))
    _assert_bytes(y.data, x * s)
    _assert_bytes(y._backward_fn(g)[0], g * (s * (1.0 + x * (1.0 - s))))

    v, u = x[:, :10], x[:, 10:]
    s = tc._sigmoid_raw(u)
    y = tc.glu(tc.parameter(x))
    _assert_bytes(y.data, v * s)
    _assert_bytes(y._backward_fn(half)[0], np.concatenate(
        [half * s, half * v * s * (1.0 - s)], axis=-1))

    rng, ref = keyed(5, "dropout", 1), keyed(5, "dropout", 1)
    y = tc.dropout(tc.parameter(x), 0.15, rng)
    k = (ref.random(x.shape) >= 0.15).astype(dtype)
    k /= 1.0 - 0.15
    _assert_bytes(y.data, x * k)
    _assert_bytes(y._backward_fn(g)[0], g * k)
    # the draw takes exactly what rng.random(shape) takes from the stream
    assert rng.random(4).tobytes() == ref.random(4).tobytes()


class TestGradCheck:
    def test_quadratic(self):
        rng = np.random.default_rng(41)
        x = tc.parameter(rand(rng, 6), dtype=np.float64)
        err = tc.grad_check(
            lambda ps: tc.scale(tc.sum_all(tc.mul(ps["x"], ps["x"])), 0.5),
            {"x": x}, eps=1e-4)
        assert err < 1e-9

    def test_rejects_float32(self):
        x = tc.parameter(np.ones(3), dtype=np.float32)
        with pytest.raises(ConfigError):
            tc.grad_check(lambda ps: tc.sum_all(ps["x"]), {"x": x})

    def test_finite_checks_name_the_op(self):
        x = tc.parameter(np.array([800.0]), dtype=np.float64)
        with pytest.raises(NumericError, match="exp|sum_all|mul"):
            # exp overflow: implemented via swish of a huge negative scale
            tc.grad_check(lambda ps: tc.sum_all(
                tc.mul(ps["x"], tc.tensor(np.array([np.inf]), dtype=np.float64))),
                {"x": x})


# ---------------------------------------------------------------------------
# needs-grad contract: an op computes no gradient for an operand that does
# not need one, and every other operand's gradient is unchanged


def _needs_grad_cases():
    """(operand arrays, op) on micro_config shapes, float64, lengths 6 and 4."""
    rng = np.random.default_rng(51)
    mask = SequenceMask(np.array([6, 4]))
    return {
        "conv2d": ({"x": rand(rng, 2, 2, 8, 6), "w": rand(rng, 4, 2, 3, 3)},
                   lambda p: wr.conv2d(p["x"], p["w"], stride_f=2)),
        # the stem's shape in float32: a constant input, a trained kernel
        "conv2d_stem_f32": ({"x": rand(rng, 2, 3, 7, 6).astype(np.float32),
                             "w": rand(rng, 4, 3, 3, 3).astype(np.float32)},
                            lambda p: wr.conv2d(p["x"], p["w"])),
        "matmul_linear": ({"x": rand(rng, 2, 6, 8), "w": rand(rng, 8, 32)},
                          lambda p: tc.matmul(p["x"], p["w"])),
        "matmul_stacked": ({"q": rand(rng, 2, 2, 6, 4),
                            "k": rand(rng, 2, 2, 4, 6)},
                           lambda p: tc.matmul(p["q"], p["k"])),
        "linear": ({"x": rand(rng, 2, 6, 8), "w": rand(rng, 32, 8),
                    "b": rand(rng, 32)},
                   lambda p: tc.linear(p["x"], p["w"], p["b"])),
        "linear_nobias": ({"x": rand(rng, 2, 6, 8), "w": rand(rng, 32, 8)},
                          lambda p: tc.linear(p["x"], p["w"])),
        "linear_2d": ({"x": rand(rng, 6, 8), "w": rand(rng, 32, 8),
                       "b": rand(rng, 32)},
                      lambda p: tc.linear(p["x"], p["w"], p["b"])),
        "linear_2d_nobias": ({"x": rand(rng, 6, 8), "w": rand(rng, 32, 8)},
                             lambda p: tc.linear(p["x"], p["w"])),
        "depthwise_conv1d": ({"x": rand(rng, 2, 8, 6), "w": rand(rng, 8, 3)},
                             lambda p: cf.depthwise_conv1d(p["x"], p["w"])),
        "utterance_layernorm": (
            {"x": rand(rng, 2, 6, 8), "gamma": 1.0 + rand(rng, 8),
             "beta": rand(rng, 8)},
            lambda p: utterance_layernorm(
                p["x"], mask, NormParams(p["gamma"], p["beta"]))),
        "utterance_batchnorm": (
            {"x": rand(rng, 2, 4, 2, 6), "gamma": 1.0 + rand(rng, 4),
             "beta": rand(rng, 4)},
            lambda p: utterance_batchnorm(
                p["x"], mask, NormParams(p["gamma"], p["beta"]))),
    }


def _run_needs_grad_case(arrays, op, frozen=None):
    """Closure outputs and backward grads with operand ``frozen`` constant."""
    ops = {n: tc.tensor(a.copy(), requires_grad=n != frozen)
           for n, a in arrays.items()}
    out = op(ops)
    g = np.random.default_rng(52).standard_normal(out.shape).astype(
        out.data.dtype)
    closure = dict(zip(ops, out._backward_fn(g)))
    tc.backward(tc.sum_all(tc.mul(out, tc.tensor(g))))
    return closure, {n: t.grad for n, t in ops.items()}


NEEDS_GRAD_CASES = [(case, operand)
                    for case, (arrays, _) in _needs_grad_cases().items()
                    for operand in arrays]


@pytest.mark.parametrize("case,frozen", NEEDS_GRAD_CASES)
def test_frozen_operand_gets_no_gradient_work(case, frozen):
    arrays, op = _needs_grad_cases()[case]
    live_closure, live = _run_needs_grad_case(arrays, op)
    closure, grads = _run_needs_grad_case(arrays, op, frozen)
    assert closure[frozen] is None
    assert grads[frozen] is None
    for name in arrays:
        if name != frozen:
            assert closure[name].tobytes() == live_closure[name].tobytes()
            assert grads[name].tobytes() == live[name].tobytes()


def _composite_linear(x, w, b=None):
    """The three-node chain a linear layer used to record: matmul with a
    transposed weight, then a bias node with its own backward."""
    y = tc.matmul(x, tc.transpose(w, (1, 0)))
    if b is None:
        return y
    need_y, need_b = tc.needs_grad(y), tc.needs_grad(b)

    def bwd(g):
        return (g if need_y else None,
                g.reshape(-1, b.shape[0]).sum(axis=0) if need_b else None)
    return tc.from_op(y.data + b.data, (y, b), bwd, "add_bias")


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
@pytest.mark.parametrize("x_shape", [(6, 8), (2, 6, 8)], ids=["2d", "3d"])
@pytest.mark.parametrize("bias,frozen", [
    (bias, frozen) for bias in (True, False)
    for frozen in (None, "x", "w") + (("b",) if bias else ())])
def test_linear_node_matches_composite_chain_bitwise(dtype, x_shape, bias,
                                                     frozen):
    rng = np.random.default_rng(53)
    arrays = {"x": rand(rng, *x_shape), "w": rand(rng, 32, 8),
              "b": rand(rng, 32)}
    if not bias:
        del arrays["b"]
    g = rand(rng, *x_shape[:-1], 32).astype(dtype)
    runs = []
    for op in (tc.linear, _composite_linear):
        ops = {n: tc.tensor(a, requires_grad=n != frozen, dtype=dtype)
               for n, a in arrays.items()}
        out = op(*ops.values())
        tc.backward(tc.sum_all(tc.mul(out, tc.tensor(g))))
        runs.append((out.data, {n: t.grad for n, t in ops.items()}))
    (out, grads), (want, want_grads) = runs
    assert out.dtype == want.dtype == dtype
    assert out.tobytes() == want.tobytes()
    for n in arrays:
        if n == frozen:
            assert grads[n] is None and want_grads[n] is None
        else:
            assert grads[n].dtype == dtype
            assert grads[n].tobytes() == want_grads[n].tobytes(), n


def test_linear_is_one_matmul_node():
    x = tc.parameter(np.ones((2, 3, 4)))
    w, b = tc.parameter(np.ones((5, 4))), tc.parameter(np.ones(5))
    out = tc.linear(x, w, b)
    assert out._op == "matmul" and out._parents == (x, w, b)
    assert tc.linear(x, w)._parents == (x, w)


def test_a_zero_d_array_wraps_as_zero_d():
    assert tc.tensor(2.0).shape == ()
    total = tc.sum_all(tc.tensor(np.arange(6.0).reshape(2, 3)))
    assert tc.tensor(total.data).shape == total.shape
    p = tc.parameter(np.float32(3))
    tc.backward(tc.mul(p, p))
    assert p.grad.shape == () and p.grad == 6.0


def test_needs_grad():
    w = tc.parameter(np.ones(2))
    c = tc.tensor(np.ones(2))
    assert tc.needs_grad(w) and not tc.needs_grad(c)
    assert tc.needs_grad(tc.add(c, w)) and not tc.needs_grad(tc.add(c, c))
    with tc.no_grad():
        assert not tc.needs_grad(w)


# ---------------------------------------------------------------------------
# the graph keeps only the arrays backward reads


MASK_43 = SequenceMask([4, 3])


def _const(rng, *shape):
    return tc.tensor(rand(rng, *shape))


def _trained_norm(rng, dim):
    return NormParams(tc.parameter(1.0 + rand(rng, dim)),
                      tc.parameter(rand(rng, dim)))


# op -> (input shape, the op on that input). A weight is a constant unless
# the name says trained; the norms' gamma and beta are trained, and the
# other operand of add and mul is an op output, as the input is
GRAPH_OPS = {
    "add": ((2, 4, 6), lambda x, r: tc.add(x, tc.scale(
        tc.parameter(rand(r, 2, 4, 6)), 1.0))),
    "scale": ((2, 4, 6), lambda x, r: tc.scale(x, 3.0)),
    "apply_mask": ((2, 4, 6), lambda x, r: apply_mask(x, MASK_43)),
    "add_position": ((2, 4, 6), lambda x, r: cf.add_position(x, MASK_43)),
    "utterance_layernorm": ((2, 4, 6), lambda x, r: utterance_layernorm(
        x, MASK_43, _trained_norm(r, 6))),
    "utterance_batchnorm": ((2, 3, 5, 4), lambda x, r: utterance_batchnorm(
        x, MASK_43, _trained_norm(r, 3))),
    "masked_softmax": ((2, 2, 4, 4), lambda x, r: masked_softmax(x, MASK_43)),
    "dropout": ((2, 4, 6), lambda x, r: tc.dropout(x, 0.5, r)),
    "linear_frozen": ((2, 4, 6), lambda x, r: tc.linear(
        x, _const(r, 5, 6), _const(r, 5))),
    "conv2d_frozen": ((2, 3, 5, 4), lambda x, r: wr.conv2d(
        x, _const(r, 4, 3, 3, 3), stride_f=2)),
    "depthwise_conv1d_frozen": ((2, 3, 4), lambda x, r: cf.depthwise_conv1d(
        x, _const(r, 3, 5))),
    "mul": ((2, 4, 6), lambda x, r: tc.mul(x, tc.scale(
        tc.parameter(rand(r, 2, 4, 6)), 1.0))),
    "matmul": ((2, 4, 6), lambda x, r: tc.matmul(
        x, tc.parameter(rand(r, 6, 5)))),
    "swish": ((2, 4, 6), lambda x, r: tc.swish(x)),
    "glu": ((2, 4, 6), lambda x, r: tc.glu(x)),
    "relu": ((2, 4, 6), lambda x, r: tc.relu(x)),
    "linear_trained": ((2, 4, 6), lambda x, r: tc.linear(
        x, tc.parameter(rand(r, 5, 6)), tc.parameter(rand(r, 5)))),
    "conv2d_trained": ((2, 3, 5, 4), lambda x, r: wr.conv2d(
        x, tc.parameter(rand(r, 4, 3, 3, 3)), stride_f=2)),
}
# the ops whose backward reads their input: dW of a trained weight, the
# other factor of a product, swish's and glu's derivatives
READS_INPUT = {"mul", "matmul", "swish", "glu", "linear_trained",
               "conv2d_trained"}
# the ops whose backward reads their output: the softmax's, and relu's
# derivative, since out > 0 wherever x > 0
READS_OUTPUT = {"masked_softmax", "relu"}


@pytest.mark.parametrize("name", list(GRAPH_OPS))
def test_graph_keeps_an_input_array_only_if_backward_reads_it(name):
    shape, op = GRAPH_OPS[name]
    rng = np.random.default_rng(61)
    leaf = tc.parameter(rand(rng, *shape))
    x = tc.scale(leaf, 1.0)  # an op output that only this test holds
    ref = weakref.ref(x.data)
    y = op(x, rng)
    del x
    assert (ref() is not None) == (name in READS_INPUT)
    loss = tc.sum_all(tc.mul(y, tc.tensor(rand(rng, *y.shape))))
    out_ref = weakref.ref(y.data)
    del y
    assert (out_ref() is not None) == (name in READS_OUTPUT)
    tc.backward(loss)
    assert ref() is None and out_ref() is None
    assert leaf.grad is not None and leaf.grad.shape == shape


def test_backward_failing_part_way_spends_the_loss():
    x = tc.parameter(np.ones(3))
    h = tc.scale(x, 2.0)
    # an op whose backward hands its parent a NaN gradient
    bad = tc.from_op(h.data.copy(), (h,), lambda g: (g * np.nan,), "inject")
    loss = tc.sum_all(tc.swish(bad))
    with tc.finite_checks():
        with pytest.raises(NumericError, match="flowing into op 'scale'"):
            tc.backward(loss)
    # the nodes run before the failure are released; the rest still hold
    # their closures, but the loss is spent
    assert bad._parents is None and h._backward_fn is not None
    with pytest.raises(GraphError, match="already ran"):
        tc.backward(loss)
    assert x.grad is None
    tc.backward(tc.sum_all(tc.swish(tc.scale(x, 2.0))))
    assert np.isfinite(x.grad).all()


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(2, 5), st.integers(2, 6))
def test_property_elementwise_chain_gradient(seed, n, m):
    """Analytic gradients match finite differences over random shapes/seeds."""
    rng = np.random.default_rng(seed)
    x = rand(rng, n, m)
    x[np.abs(x) < 1e-3] = 0.25
    w = rand(rng, m, n + 1)

    def build(t):
        return tc.swish(tc.matmul(tc.elu(t), tc.tensor(w, dtype=np.float64)))
    check_op_grad(build, x, tol=1e-5)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_property_fan_out_additivity(seed):
    rng = np.random.default_rng(seed)
    x = tc.parameter(rand(rng, 4), dtype=np.float64)
    shared = tc.swish(x)
    loss = tc.sum_all(tc.add(tc.scale(shared, 3.0), tc.mul(shared, shared)))
    tc.backward(loss)
    got = x.grad.copy()

    # independent recomputation: d/ds (3s + s^2) = 3 + 2s applied via chain rule
    s = tc.parameter(x.data.copy(), dtype=np.float64)
    tc.backward(tc.sum_all(tc.swish(s)))
    sw = tc.swish(tc.tensor(x.data, dtype=np.float64)).data
    np.testing.assert_allclose(got, (3.0 + 2.0 * sw) * s.grad, rtol=1e-12)
