"""The in-place kernels against the allocating expressions they replaced.

Each ``ref_*`` function is the earlier form of a kernel: the same IEEE
operations in the same order, with a fresh temporary for every step. The
kernels must reproduce it byte for byte and in the same memory layout,
because the layout sets the rounding of later sums. That holds forward and
backward, in float32 and float64, for contiguous and transposed inputs, and
with gradients on and off. A transposed input gets its output gradient in
the transposed layout too, as the model's transposes deliver it: swish's
gradient always takes its input's layout, and the reference's does so
whenever input and gradient share one. A second test checks that a
kernel's backward writes into no array it does not own.
"""

import functools

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from ucam import conformer as cf
from ucam import tensor as tc
from ucam.masking import (NormParams, SequenceMask, masked_softmax,
                          utterance_batchnorm, utterance_layernorm)

MASK = SequenceMask([7, 4, 6])


# ---------------------------------------------------------------------------
# references: each returns (output, [gradient per operand])


def ref_sigmoid(x):
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def ref_swish(ops, g):
    (x,) = ops
    s = ref_sigmoid(x)
    return x * s, [g * (s * (1.0 + x * (1.0 - s)))]


def ref_glu(ops, g, axis):
    (x,) = ops
    c = x.shape[axis]
    v = np.take(x, range(c // 2), axis=axis)
    u = np.take(x, range(c // 2, c), axis=axis)
    s = ref_sigmoid(u)
    dv = g * s
    du = g * v * s * (1.0 - s)
    return v * s, [np.concatenate([dv, du], axis=axis)]


def ref_dropout(ops, g, p, seed):
    (x,) = ops
    keep = ((np.random.default_rng(seed).random(x.shape) >= p)
            .astype(x.dtype) / (1.0 - p))
    return x * keep, [g * keep]


def ref_masked_norm(x, gamma, beta, g, m, axes, counts, cshape, eps=1e-5):
    xd = x * m
    mu = xd.sum(axis=axes, keepdims=True) / counts
    var = (((xd - mu) ** 2) * m).sum(axis=axes, keepdims=True) / counts
    inv = 1.0 / np.sqrt(var + np.asarray(eps, dtype=xd.dtype))
    xhat = (xd - mu) * inv
    gamma, beta = gamma.reshape(cshape), beta.reshape(cshape)
    y = (xhat * gamma + beta) * m
    param_axes = tuple(a for a, n in enumerate(cshape) if n == 1)
    gm = g * m
    dgamma = (gm * xhat).sum(axis=param_axes).reshape(-1)
    dbeta = gm.sum(axis=param_axes).reshape(-1)
    ghat = gm * gamma
    mean_g = ghat.sum(axis=axes, keepdims=True) / counts
    mean_gx = (ghat * xhat).sum(axis=axes, keepdims=True) / counts
    dx = inv * (ghat - mean_g - xhat * mean_gx) * m
    return y, [dx, dgamma, dbeta]


def ref_layernorm(ops, g):
    x, gamma, beta = ops
    d = gamma.shape[0]
    m = MASK.indicator().astype(x.dtype)[:, :, None]
    return ref_masked_norm(x, gamma, beta, g, m, (2,), d, (1, 1, d))


def ref_batchnorm(ops, g):
    x, gamma, beta = ops
    lead = (x.shape[0],) + (1,) * (x.ndim - 2)
    m = MASK.indicator().astype(x.dtype).reshape(*lead, -1)
    n_spatial = int(np.prod(x.shape[2:-1], initial=1))
    counts = (MASK.lengths.astype(x.dtype) * n_spatial).reshape(*lead, 1)
    cshape = (1, gamma.shape[0]) + (1,) * (x.ndim - 2)
    return ref_masked_norm(x, gamma, beta, g, m, tuple(range(2, x.ndim)),
                           counts, cshape)


def ref_softmax(ops, g):
    (scores,) = ops
    dt = scores.dtype
    mk = MASK.indicator().astype(dt)[:, None, None, :]
    mq = mk.swapaxes(-1, -2)
    z = scores - (1.0 - mk) * np.asarray(1e9, dtype=dt)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z) * mk
    y = e / e.sum(axis=-1, keepdims=True)
    y = y * mq
    return y, [y * (g - (g * y).sum(axis=-1, keepdims=True))]


def ref_depthwise(ops, g):
    x, w = ops
    t, kk = x.shape[-1], w.shape[1]
    pl = (kk - 1) // 2
    xp = np.pad(x, ((0, 0), (0, 0), (pl, kk - 1 - pl)))
    out = np.zeros_like(x)
    for j in range(kk):
        out += w[:, j][None, :, None] * xp[:, :, j:j + t]
    dw = np.einsum("bct,bctk->ck", g, sliding_window_view(xp, kk, -1))
    dxp = np.zeros_like(xp)
    for j in range(kk):
        dxp[:, :, j:j + t] += g * w[:, j][None, :, None]
    return out, [dxp[:, :, pl:pl + t], dw]


def norm(fn):
    return lambda o: fn(o[0], MASK, NormParams(o[1], o[2]))


# name: (operand shapes, time axis of padding junk or None, kernel, reference)
CASES = {
    "swish": ([(3, 7, 8)], None, lambda o: tc.swish(o[0]), ref_swish),
    "glu": ([(3, 7, 8)], None, lambda o: tc.glu(o[0]),
            functools.partial(ref_glu, axis=-1)),
    "glu_axis1": ([(3, 8, 7)], None, lambda o: tc.glu(o[0], axis=1),
                  functools.partial(ref_glu, axis=1)),
    "dropout": ([(3, 7, 8)], None,
                lambda o: tc.dropout(o[0], 0.3, np.random.default_rng(5)),
                functools.partial(ref_dropout, p=0.3, seed=5)),
    "layernorm": ([(3, 7, 8), (8,), (8,)], 1, norm(utterance_layernorm),
                  ref_layernorm),
    "batchnorm": ([(3, 8, 7), (8,), (8,)], -1, norm(utterance_batchnorm),
                  ref_batchnorm),
    "batchnorm_4d": ([(3, 4, 5, 7), (4,), (4,)], -1,
                     norm(utterance_batchnorm), ref_batchnorm),
    "masked_softmax": ([(3, 2, 7, 7)], None,
                       lambda o: masked_softmax(o[0], MASK), ref_softmax),
    "depthwise_conv1d": ([(3, 6, 7), (6, 4)], None,
                         lambda o: cf.depthwise_conv1d(o[0], o[1]),
                         ref_depthwise),
}


def operands(case, dtype, transposed):
    """The case's operand arrays; the first one, optionally, as a view with
    its last two axes swapped, and with junk beyond float32's square range
    in the padded frames of a norm's input."""
    shapes, junk_axis, _, _ = CASES[case]
    rng = np.random.default_rng(sorted(CASES).index(case))
    x_shape = shapes[0]
    if transposed:
        x = rng.standard_normal(x_shape[:-2] + x_shape[:-3:-1]).astype(
            dtype).swapaxes(-1, -2)
        assert not x.flags.c_contiguous
    else:
        x = rng.standard_normal(x_shape).astype(dtype)
    if junk_axis is not None:
        for b, n in enumerate(MASK.lengths):
            if junk_axis == 1:
                x[b, n:] = 1e20
            else:
                x[b, ..., n:] = -1e20
    rest = [1.0 + 0.1 * rng.standard_normal(s).astype(dtype)
            for s in shapes[1:]]
    return [x] + rest


def gradient(shape, dtype, transposed):
    """An output gradient, in the transposed layout when the input is."""
    rng = np.random.default_rng(99)
    if transposed:
        return rng.standard_normal(shape[:-2] + shape[:-3:-1]).astype(
            dtype).swapaxes(-1, -2)
    return rng.standard_normal(shape).astype(dtype)


def assert_same_bytes(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.strides == want.strides
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64],
                         ids=["f32", "f64"])
@pytest.mark.parametrize("transposed", [False, True],
                         ids=["contiguous", "transposed"])
@pytest.mark.parametrize("grad", [True, False], ids=["grad", "no_grad"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_kernel_matches_allocating_reference(case, grad, transposed, dtype):
    arrays = operands(case, dtype, transposed)
    _, _, kernel, ref = CASES[case]
    with np.errstate(over="raise", invalid="raise"):
        ops = [tc.Tensor(a, requires_grad=grad) for a in arrays]
        out = kernel(ops)
        g = gradient(out.shape, dtype, transposed)
        want, want_grads = ref(arrays, g)
        assert_same_bytes(out.data, want)
        if not grad:
            assert out._backward_fn is None
            return
        got_grads = out._backward_fn(g)
    assert len(got_grads) == len(want_grads)
    for got, w in zip(got_grads, want_grads):
        assert_same_bytes(got, w)


def test_sigmoid_matches_reference_at_extremes():
    special = [0.0, -0.0, np.inf, -np.inf, 1e30, -1e30, 88.7, -88.7,
               -103.9, -745.0, 1e-45, -1e-45, 1e-300, -1e-300]
    rng = np.random.default_rng(7)
    for dtype in (np.float32, np.float64):
        with np.errstate(over="ignore", under="ignore"):
            x = np.concatenate([np.array(special), 30 * rng.standard_normal(
                200)]).astype(dtype)
        assert_same_bytes(tc._sigmoid_raw(x), ref_sigmoid(x))


@pytest.mark.parametrize("case", sorted(CASES))
def test_backward_writes_only_arrays_it_allocated(case):
    # add hands one gradient array to both parents, so the kernel's incoming
    # gradient is also `other.grad`: a write into it would show there
    _, _, kernel, _ = CASES[case]
    ops = [tc.parameter(a) for a in operands(case, np.float64, False)]
    before = [t.data.tobytes() for t in ops]
    out = kernel(ops)
    out_before = out.data.tobytes()
    other = tc.parameter(np.zeros(out.shape))
    g = np.random.default_rng(98).standard_normal(out.shape)
    tc.backward(tc.sum_all(tc.mul(tc.add(out, other), tc.tensor(g))))
    assert other.grad.tobytes() == g.tobytes()
    assert out.data.tobytes() == out_before
    assert [t.data.tobytes() for t in ops] == before
    assert all(t.grad is not None for t in ops)
