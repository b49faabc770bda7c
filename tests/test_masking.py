import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ucam import conformer as cf
from ucam import tensor as tc
from ucam import wrcnn as wr
from ucam.errors import ConfigError, ShapeError
from ucam.masking import (NORM_EPS, NormParams, SequenceMask, apply_mask,
                          masked_softmax, utterance_batchnorm,
                          utterance_layernorm)
from ucam.model import (ModelParams, micro_config, model_forward,
                        walk_parameters)
from ucam.rng import keyed


def mask_of(lengths, max_len=None):
    return SequenceMask(lengths, max_len)


def write_garbage(x, mask, time_axis, rng, scale=100.0):
    """Overwrite padded positions with finite junk; returns a copy."""
    out = x.copy()
    m = mask.indicator(bool)
    for b in range(out.shape[0]):
        if time_axis == 1:
            out[b, ~m[b]] = scale * rng.standard_normal(out[b, ~m[b]].shape)
        else:
            out[b, ..., ~m[b]] = scale * rng.standard_normal(
                out[b, ..., ~m[b]].shape)
    return out


# ---------------------------------------------------------------------------
# reference loops: slice each utterance to its true length, normalize alone


def layernorm_loop(x, lengths, gamma, beta, eps):
    y = np.zeros_like(x)
    for b, L in enumerate(lengths):
        seg = x[b, :L]
        mu = seg.mean(axis=-1, keepdims=True)
        var = seg.var(axis=-1, keepdims=True)
        y[b, :L] = (seg - mu) / np.sqrt(var + eps) * gamma + beta
    return y


def batchnorm_loop(x, lengths, gamma, beta, eps):
    y = np.zeros_like(x)
    for b, L in enumerate(lengths):
        seg = x[b, ..., :L]  # [C, L] or [C, F, L]
        axes = tuple(range(1, seg.ndim))
        mu = seg.mean(axis=axes, keepdims=True)
        var = seg.var(axis=axes, keepdims=True)
        cshape = (seg.shape[0],) + (1,) * (seg.ndim - 1)
        y[b, ..., :L] = ((seg - mu) / np.sqrt(var + eps)
                         * gamma.reshape(cshape) + beta.reshape(cshape))
    return y


def softmax_loop(scores, lengths):
    b, h, t, _ = scores.shape
    y = np.zeros_like(scores)
    for bi, L in enumerate(lengths):
        for hi in range(h):
            block = scores[bi, hi, :L, :L]
            e = np.exp(block - block.max(axis=-1, keepdims=True))
            y[bi, hi, :L, :L] = e / e.sum(axis=-1, keepdims=True)
    return y


class TestSequenceMask:
    def test_indicator(self):
        m = mask_of([2, 3], max_len=4)
        np.testing.assert_array_equal(
            m.indicator(), [[1, 1, 0, 0], [1, 1, 1, 0]])
        assert m.valid_frames() == 5

    def test_indicator_is_cached_and_read_only(self):
        m = mask_of([2, 3], max_len=4)
        ind = m.indicator()
        assert m.indicator(np.float32) is ind
        assert not ind.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            ind[0, 3] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            ind.reshape(2, 1, 4)[0, 0, 3] = 1.0
        b = m.indicator(bool)
        assert b is m.indicator(np.bool_) and not b.flags.writeable
        assert b.dtype == bool and m.indicator(np.float64).dtype == np.float64
        np.testing.assert_array_equal(ind, [[1, 1, 0, 0], [1, 1, 1, 0]])

    def test_invalid_lengths(self):
        with pytest.raises(ConfigError):
            mask_of([0, 2], max_len=3)
        with pytest.raises(ConfigError):
            mask_of([5], max_len=3)


class TestApplyMask:
    def test_full_length_unchanged(self):
        x = tc.tensor(np.random.default_rng(0).standard_normal((2, 3, 4)))
        out = apply_mask(x, mask_of([3, 3]))
        np.testing.assert_array_equal(out.data, x.data)

    def test_zeroes_padded_rows(self):
        x = tc.tensor(np.ones((1, 3, 2)))
        out = apply_mask(x, mask_of([1], max_len=3))
        np.testing.assert_array_equal(out.data[0], [[1, 1], [0, 0], [0, 0]])

    def test_idempotence_after_garbage(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((3, 5, 4)).astype(np.float32)
        m = mask_of([2, 5, 3])
        clean = apply_mask(tc.tensor(x), m).data
        dirty = write_garbage(x, m, 1, rng)
        np.testing.assert_array_equal(
            apply_mask(tc.tensor(dirty), m).data, clean)

    def test_gradient_zero_at_padding(self):
        x = tc.parameter(np.random.default_rng(2).standard_normal((2, 4, 3)))
        m = mask_of([2, 3], max_len=4)
        tc.backward(tc.sum_all(apply_mask(x, m)))
        ind = m.indicator()
        np.testing.assert_array_equal(x.grad, ind[:, :, None] * np.ones(3))

    def test_time_last_layout(self):
        x = tc.tensor(np.ones((1, 2, 3, 4)))
        out = apply_mask(x, mask_of([2], max_len=4), time_axis=-1)
        np.testing.assert_array_equal(out.data[..., 2:], 0.0)
        np.testing.assert_array_equal(out.data[..., :2], 1.0)

    def test_dim_mismatch(self):
        with pytest.raises(ShapeError):
            apply_mask(tc.tensor(np.ones((2, 3, 4))), mask_of([2, 2], max_len=5))


class TestUtteranceLayerNorm:
    def test_constant_frame_is_zeroed(self):
        x = tc.tensor(np.full((1, 2, 8), 3.7))
        p = NormParams.create(8)
        out = utterance_layernorm(x, mask_of([2]), p)
        np.testing.assert_allclose(out.data, 0.0, atol=1e-5)

    def test_affine_collapse(self):
        p = NormParams.create(4)
        p.gamma.data[:] = 0.0
        p.beta.data[:] = 2.5
        x = tc.tensor(np.random.default_rng(3)
                      .standard_normal((2, 3, 4)).astype(np.float32))
        out = utterance_layernorm(x, mask_of([1, 3]), p)
        ind = mask_of([1, 3]).indicator()
        want = np.broadcast_to(ind[:, :, None] * 2.5, out.shape)
        np.testing.assert_allclose(out.data, want, atol=1e-7)

    def test_matches_sliced_loop(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((2, 5, 6)).astype(np.float32)
        lengths = [3, 5]
        p = NormParams.create(6)
        p.gamma.data[:] = rng.standard_normal(6)
        p.beta.data[:] = rng.standard_normal(6)
        got = utterance_layernorm(tc.tensor(x), mask_of(lengths), p).data
        want = layernorm_loop(x, lengths, p.gamma.data, p.beta.data, NORM_EPS)
        np.testing.assert_allclose(got, want, atol=1e-6)

    def test_valid_frames_standardized(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((3, 7, 16))
        m = mask_of([4, 7, 2])
        out = utterance_layernorm(tc.tensor(x), m, NormParams.create(16)).data
        for b, L in enumerate(m.lengths):
            assert np.abs(out[b, :L].mean(axis=-1)).max() < 1e-6
            np.testing.assert_allclose(out[b, :L].var(axis=-1), 1.0, atol=1e-4)

    def test_padding_garbage_changes_nothing(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((2, 6, 5)).astype(np.float32)
        m = mask_of([2, 4], max_len=6)
        p = NormParams.create(5)
        clean = utterance_layernorm(tc.tensor(x), m, p).data
        dirty = write_garbage(x, m, 1, rng)
        got = utterance_layernorm(tc.tensor(dirty), m, p).data
        valid = m.indicator(bool)
        np.testing.assert_allclose(got[valid], clean[valid], atol=1e-6)

    def test_gradients(self):
        rng = np.random.default_rng(7)
        x = tc.parameter(rng.standard_normal((2, 4, 5)), dtype=np.float64)
        p = NormParams.create(5, dtype=np.float64)
        m = mask_of([2, 4])
        r = tc.tensor(rng.standard_normal((2, 4, 5)), dtype=np.float64)

        def f(ps):
            return tc.sum_all(tc.mul(
                utterance_layernorm(ps["x"], m, p), r))
        err = tc.grad_check(f, {"x": x, "gamma": p.gamma, "beta": p.beta},
                            samples_per_tensor=50)
        assert err < 1e-5

    def test_gradient_exactly_zero_at_padding(self):
        rng = np.random.default_rng(8)
        x = tc.parameter(rng.standard_normal((2, 5, 4)).astype(np.float32))
        m = mask_of([3, 2], max_len=5)
        out = utterance_layernorm(x, m, NormParams.create(4))
        tc.backward(tc.sum_all(tc.mul(
            out, tc.tensor(rng.standard_normal((2, 5, 4)).astype(np.float32)))))
        invalid = ~m.indicator(bool)
        assert np.all(x.grad[invalid] == 0.0)

    def test_gamma_beta_grads_ignore_padding(self):
        # gradients for the affine parameters must come from valid frames only
        rng = np.random.default_rng(9)
        x = rng.standard_normal((2, 6, 4)).astype(np.float32)
        m = mask_of([2, 4], max_len=6)

        def run(arr):
            p = NormParams.create(4)
            out = utterance_layernorm(tc.tensor(arr), m, p)
            tc.backward(tc.sum_all(out))
            return p.gamma.grad.copy(), p.beta.grad.copy()

        g1 = run(x)
        g2 = run(write_garbage(x, m, 1, rng))
        np.testing.assert_array_equal(g1[0], g2[0])
        np.testing.assert_array_equal(g1[1], g2[1])

    def test_shape_validation(self):
        x = tc.tensor(np.ones((2, 3, 4)))
        with pytest.raises(ShapeError):
            utterance_layernorm(x, mask_of([3, 3]), NormParams.create(5))
        with pytest.raises(ShapeError):
            utterance_layernorm(tc.tensor(np.ones((2, 3))), mask_of([3, 3]),
                                NormParams.create(3))


class TestUtteranceBatchNorm:
    def test_constant_channel_zeroed_before_affine(self):
        x = np.zeros((1, 2, 6), dtype=np.float32)
        x[0, 0] = 4.0
        x[0, 1] = -1.0
        out = utterance_batchnorm(tc.tensor(x), mask_of([6]),
                                  NormParams.create(2))
        np.testing.assert_allclose(out.data, 0.0, atol=1e-4)

    def test_length_one_utterance_is_valid(self):
        x = tc.tensor(np.ones((1, 3, 1)))
        out = utterance_batchnorm(x, mask_of([1]), NormParams.create(3))
        assert np.isfinite(out.data).all()

    @pytest.mark.parametrize("shape,lengths", [((2, 3, 7), [4, 7]),
                                               ((2, 3, 4, 6), [6, 2])])
    def test_matches_sliced_loop(self, shape, lengths):
        rng = np.random.default_rng(10)
        x = rng.standard_normal(shape).astype(np.float32)
        p = NormParams.create(shape[1])
        p.gamma.data[:] = rng.standard_normal(shape[1])
        p.beta.data[:] = rng.standard_normal(shape[1])
        got = utterance_batchnorm(tc.tensor(x),
                                  mask_of(lengths, shape[-1]), p).data
        want = batchnorm_loop(x, lengths, p.gamma.data, p.beta.data, NORM_EPS)
        np.testing.assert_allclose(got, want, atol=1e-5)

    def test_padding_contamination(self):
        # huge values in utterance 2's padding leave utterance 1 bit-identical
        rng = np.random.default_rng(11)
        x = rng.standard_normal((2, 3, 8)).astype(np.float32)
        m = mask_of([8, 5])
        x[1, :, 5:] = 0.0
        p = NormParams.create(3)
        clean = utterance_batchnorm(tc.tensor(x), m, p).data
        dirty = x.copy()
        dirty[1, :, 5:] = 1e4
        got = utterance_batchnorm(tc.tensor(dirty), m, p).data
        np.testing.assert_array_equal(got[0], clean[0])

    def test_train_eval_identical(self):
        # no running statistics: the op has no mode at all, two calls agree
        rng = np.random.default_rng(12)
        x = tc.tensor(rng.standard_normal((2, 4, 5)).astype(np.float32))
        m = mask_of([5, 3])
        p = NormParams.create(4)
        a = utterance_batchnorm(x, m, p).data
        b = utterance_batchnorm(x, m, p).data
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("shape,lengths", [((2, 3, 5), [3, 5]),
                                               ((2, 2, 3, 4), [4, 2])])
    def test_gradients(self, shape, lengths):
        rng = np.random.default_rng(13)
        x = tc.parameter(rng.standard_normal(shape), dtype=np.float64)
        p = NormParams.create(shape[1], dtype=np.float64)
        m = mask_of(lengths, shape[-1])
        r = tc.tensor(rng.standard_normal(shape), dtype=np.float64)

        def f(ps):
            return tc.sum_all(tc.mul(utterance_batchnorm(ps["x"], m, p), r))
        err = tc.grad_check(f, {"x": x, "gamma": p.gamma, "beta": p.beta},
                            samples_per_tensor=40)
        assert err < 1e-5


class TestMaskedSoftmax:
    def test_single_valid_frame(self):
        scores = tc.tensor(np.random.default_rng(14)
                           .standard_normal((1, 2, 3, 3)).astype(np.float32))
        out = masked_softmax(scores, mask_of([1], max_len=3)).data
        np.testing.assert_array_equal(out[0, :, 0, 0], 1.0)
        assert np.all(out[0, :, :, 1:] == 0.0)
        assert np.all(out[0, :, 1:, :] == 0.0)

    def test_uniform_scores(self):
        scores = tc.tensor(np.zeros((1, 1, 5, 5), dtype=np.float32))
        out = masked_softmax(scores, mask_of([4], max_len=5)).data
        np.testing.assert_allclose(out[0, 0, :4, :4], 0.25, atol=1e-7)

    def test_matches_sliced_softmax(self):
        rng = np.random.default_rng(15)
        scores = rng.standard_normal((3, 2, 6, 6)).astype(np.float32)
        lengths = [6, 3, 5]
        got = masked_softmax(tc.tensor(scores), mask_of(lengths)).data
        want = softmax_loop(scores, lengths)
        np.testing.assert_allclose(got, want, atol=1e-6)

    def test_rows_sum_to_one_padded_cols_exact_zero(self):
        rng = np.random.default_rng(16)
        scores = rng.standard_normal((2, 2, 7, 7)).astype(np.float32)
        m = mask_of([4, 7])
        out = masked_softmax(tc.tensor(scores), m).data
        for b, L in enumerate(m.lengths):
            np.testing.assert_allclose(out[b, :, :L].sum(-1), 1.0, atol=1e-6)
            assert np.all(out[b, :, :, L:] == 0.0)
            assert np.all(out[b, :, L:, :] == 0.0)

    def test_huge_garbage_scores_in_padding(self):
        rng = np.random.default_rng(17)
        scores = rng.standard_normal((1, 1, 5, 5)).astype(np.float32)
        m = mask_of([3], max_len=5)
        clean = masked_softmax(tc.tensor(scores), m).data
        dirty = scores.copy()
        dirty[0, 0, :, 3:] = 1e7  # would dominate the max-shift if unmasked
        dirty[0, 0, 3:, :] = -1e7
        got = masked_softmax(tc.tensor(dirty), m).data
        np.testing.assert_allclose(got[0, 0, :3, :3], clean[0, 0, :3, :3],
                                   atol=1e-6)

    def test_gradient(self):
        rng = np.random.default_rng(18)
        scores = tc.parameter(rng.standard_normal((2, 2, 4, 4)),
                              dtype=np.float64)
        m = mask_of([3, 4])
        r = tc.tensor(rng.standard_normal((2, 2, 4, 4)), dtype=np.float64)
        err = tc.grad_check(
            lambda ps: tc.sum_all(tc.mul(masked_softmax(ps["s"], m), r)),
            {"s": scores}, samples_per_tensor=64)
        assert err < 1e-5

    def test_gradient_exactly_zero_at_masked_positions(self):
        rng = np.random.default_rng(19)
        scores = tc.parameter(rng.standard_normal((1, 1, 4, 4))
                              .astype(np.float32))
        m = mask_of([2], max_len=4)
        out = masked_softmax(scores, m)
        tc.backward(tc.sum_all(tc.mul(
            out, tc.tensor(rng.standard_normal((1, 1, 4, 4)).astype(np.float32)))))
        assert np.all(scores.grad[0, 0, :, 2:] == 0.0)
        assert np.all(scores.grad[0, 0, 2:, :] == 0.0)

    def test_shape_validation(self):
        with pytest.raises(ShapeError):
            masked_softmax(tc.tensor(np.ones((1, 2, 3, 4))), mask_of([2]))


@pytest.mark.parametrize("norm, shape, time_axis", [
    (utterance_layernorm, (2, 6, 5), 1),
    (utterance_batchnorm, (2, 5, 6), -1)], ids=["layernorm", "batchnorm"])
def test_padding_junk_beyond_float_range_changes_nothing(norm, shape,
                                                         time_axis):
    # junk whose square overflows float32 must never reach a statistic
    rng = np.random.default_rng(12)
    m = mask_of([2, 4], max_len=6)
    x = rng.standard_normal(shape).astype(np.float32)

    def run(arr):
        p = NormParams.create(5)
        xt = tc.parameter(arr)
        out = norm(xt, m, p)
        tc.backward(tc.sum_all(tc.mul(out, out)))
        return out.data, xt.grad, p.gamma.grad, p.beta.grad

    with np.errstate(over="raise", invalid="raise"):
        clean = run(x)
        dirty = run(write_garbage(x, m, time_axis, rng, scale=1e20))
    for a, b in zip(clean, dirty):
        np.testing.assert_array_equal(a, b)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(1, 4), st.integers(2, 8))
def test_property_padding_independence(seed, batch, max_len):
    """Garbage at padded positions never changes valid outputs, for every op."""
    rng = np.random.default_rng(seed)
    lengths = rng.integers(1, max_len + 1, size=batch)
    lengths[rng.integers(batch)] = max_len
    m = mask_of(lengths, max_len)
    d = 6
    x = rng.standard_normal((batch, max_len, d)).astype(np.float32)
    xg = write_garbage(x, m, 1, rng)
    p = NormParams.create(d)
    valid = m.indicator(bool)

    for op in (lambda t: apply_mask(t, m),
               lambda t: utterance_layernorm(t, m, p)):
        a = op(tc.tensor(x)).data
        b = op(tc.tensor(xg)).data
        np.testing.assert_allclose(b[valid], a[valid], atol=1e-6)

    xt = np.swapaxes(x, 1, 2).copy()
    xtg = write_garbage(xt, m, -1, rng)
    a = utterance_batchnorm(tc.tensor(xt), m, p).data
    b = utterance_batchnorm(tc.tensor(xtg), m, p).data
    np.testing.assert_allclose(np.swapaxes(b, 1, 2)[valid],
                               np.swapaxes(a, 1, 2)[valid], atol=1e-6)

    s = rng.standard_normal((batch, 2, max_len, max_len)).astype(np.float32)
    sg = s.copy()
    for b_i in range(batch):
        sg[b_i, :, :, lengths[b_i]:] = 50.0 * rng.standard_normal(
            sg[b_i, :, :, lengths[b_i]:].shape)
    a = masked_softmax(tc.tensor(s), m).data
    bb = masked_softmax(tc.tensor(sg), m).data
    for b_i, L in enumerate(lengths):
        np.testing.assert_allclose(bb[b_i, :, :L, :L], a[b_i, :, :L, :L],
                                   atol=1e-6)


# ---------------------------------------------------------------------------
# padding junk through whole modules: the masks the modules leave out must
# not matter


def _model_train(x, p, m):
    return model_forward(x, m, p, train=True, rng=keyed(5, "dropout", 1))


# name: (make(rng, dtype), forward(x, params, mask), input shape, input and
# output time axes); every module's output is zero at padding for a
# zero-padded input, except the model's log-posteriors
MODULES = {
    "ffn": (lambda r, dt: cf.FFNParams.create(8, r, dt),
            cf.ffn_forward, (3, 7, 8), 1, 1),
    "conv_module": (lambda r, dt: cf.ConvModuleParams.create(8, 3, r, dt),
                    cf.conv_module_forward, (3, 7, 8), 1, 1),
    "residual_block": (
        lambda r, dt: wr.ResidualBlockParams.create(3, 3, 1, 3, r, dt),
        wr.residual_block_forward, (3, 3, 6, 7), -1, -1),
    "residual_block_proj": (
        lambda r, dt: wr.ResidualBlockParams.create(2, 4, 2, 3, r, dt),
        wr.residual_block_forward, (3, 2, 6, 7), -1, -1),
    "wrcnn": (lambda r, dt: wr.WRCNNParams.create(
                  wr.WRCNNConfig(base_channels=2), 8, 8, r, dt),
              wr.wrcnn_forward, (3, wr.N_PLANES, 8, 7), -1, 1),
    "model_train": (lambda r, dt: ModelParams.create(micro_config(), r, dt),
                    _model_train, (3, wr.N_PLANES, 8, 7), -1, 1),
}


def valid_frames(m, shape, time_axis):
    """Boolean array of ``shape``, True at valid frames."""
    ind = m.indicator(bool)
    rest = (1,) * (len(shape) - 2)
    ind = (ind.reshape(ind.shape + rest) if time_axis == 1
           else ind.reshape(ind.shape[:1] + rest + ind.shape[1:]))
    return np.broadcast_to(ind, shape)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("name", list(MODULES))
def test_module_padding_junk_changes_no_valid_value_or_gradient(name, dtype):
    make, forward, shape, in_axis, out_axis = MODULES[name]
    rng = np.random.default_rng(21)
    params = make(rng, dtype)
    named = walk_parameters(params)
    # nonzero biases and norm shifts, so an unmasked padded frame is nonzero
    for _, t in named:
        t.data = (t.data + 0.3 * rng.standard_normal(t.shape)).astype(dtype)
    m = mask_of([7, 5, 2])
    x_valid = valid_frames(m, shape, in_axis)
    x = (rng.standard_normal(shape) * x_valid).astype(dtype)  # zero-padded

    def run(arr):
        xt = tc.parameter(arr)
        out = forward(xt, params, m)
        valid = valid_frames(m, out.shape, out_axis)
        w = np.random.default_rng(22).standard_normal(out.shape) * valid
        tc.backward(tc.sum_all(tc.mul_const(out, w.astype(dtype))))
        grads = [t.grad.tobytes() for _, t in named]
        tc.zero_grad(named)
        return out.data, valid, xt.grad[x_valid], grads

    clean, valid, clean_dx, clean_grads = run(x)
    out, _, dx, grads = run(write_garbage(x, m, in_axis, rng, scale=1e3))
    assert out[valid].tobytes() == clean[valid].tobytes()
    assert grads == clean_grads
    assert dx.tobytes() == clean_dx.tobytes()
    if name != "model_train":
        assert not clean[~valid].any()
