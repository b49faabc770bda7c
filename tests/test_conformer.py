import numpy as np
import pytest

from ucam import tensor as tc
from ucam.conformer import (ConformerBlockParams, ConvModuleParams, FFNParams,
                            MHSAParams, _scaled_position, add_position,
                            conformer_block_forward, conv_module_forward,
                            depthwise_conv1d, ffn_forward, mhsa_forward,
                            positional_encoding)
from ucam.errors import ConfigError, ShapeError
from ucam.masking import NORM_EPS, NormParams, SequenceMask, apply_mask, \
    utterance_layernorm
from ucam.model import walk_parameters


def mask_of(lengths, max_len=None):
    return SequenceMask(lengths, max_len)


def zero_weights(params):
    """Zero every weight/bias but keep norm gammas at 1."""
    for name, t in walk_parameters(params, "p"):
        if name.endswith(".gamma"):
            t.data[:] = 1.0
        else:
            t.data[:] = 0.0


def ln_np(x, lengths, eps=1e-5):
    """Frame-scope layernorm reference, gamma 1 beta 0, padding zeroed."""
    mu = x.mean(-1, keepdims=True)
    var = x.var(-1, keepdims=True)
    out = (x - mu) / np.sqrt(var + eps)
    for b, L in enumerate(lengths):
        out[b, L:] = 0.0
    return out


def rand_f64(rng, *shape):
    return tc.parameter(rng.standard_normal(shape), dtype=np.float64)


class TestFFN:
    def make(self, d=4, dtype=np.float32, rng=None):
        rng = rng or np.random.default_rng(0)
        return FFNParams.create(d, rng, dtype=dtype)

    def test_zero_weights_residual_identity(self):
        p = self.make()
        zero_weights(p)
        x = tc.tensor(np.random.default_rng(1)
                      .standard_normal((2, 3, 4)).astype(np.float32))
        out = ffn_forward(x, p, mask_of([2, 3]))
        np.testing.assert_array_equal(out.data, x.data)

    def test_constant_branch(self):
        # with W2 = 0 the branch is just the output bias, halved
        p = self.make()
        p.w2.data[:] = 0.0
        p.b2.data[:] = [1.0, -2.0, 0.5, 3.0]
        x = tc.tensor(np.random.default_rng(2)
                      .standard_normal((1, 4, 4)).astype(np.float32))
        m = mask_of([2], max_len=4)
        out = ffn_forward(x, p, m)
        np.testing.assert_allclose(
            out.data[0, :2], x.data[0, :2] + 0.5 * p.b2.data, atol=1e-6)
        np.testing.assert_array_equal(out.data[0, 2:], x.data[0, 2:])

    def test_gradients(self):
        rng = np.random.default_rng(4)
        p = self.make(d=4, dtype=np.float64, rng=rng)
        x = rand_f64(rng, 2, 3, 4)
        m = mask_of([2, 3])
        r = tc.tensor(rng.standard_normal((2, 3, 4)), dtype=np.float64)
        params = dict(walk_parameters(p, "ffn")) | {"x": x}
        err = tc.grad_check(
            lambda ps: tc.sum_all(tc.mul(ffn_forward(ps["x"], p, m), r)),
            params, samples_per_tensor=12)
        assert err < 1e-5


class TestPositionalEncoding:
    def test_row_zero(self):
        pe = positional_encoding(5, 8).data
        np.testing.assert_array_equal(pe[0, 0::2], 0.0)
        np.testing.assert_array_equal(pe[0, 1::2], 1.0)

    def test_first_column_is_sin_t(self):
        pe = positional_encoding(7, 6).data
        np.testing.assert_allclose(pe[:, 0], np.sin(np.arange(7)), atol=1e-6)

    def test_range(self):
        pe = positional_encoding(50, 16).data
        assert pe.min() >= -1.0 and pe.max() <= 1.0

    def test_odd_dim_rejected(self):
        with pytest.raises(ConfigError):
            positional_encoding(4, 5)

    def test_deterministic(self):
        np.testing.assert_array_equal(positional_encoding(9, 10).data,
                                      positional_encoding(9, 10).data)


class TestAddPosition:
    def test_zero_input_gives_scaled_table(self):
        x = tc.tensor(np.zeros((1, 6, 8), dtype=np.float32))
        m = mask_of([4], max_len=6)
        out = add_position(x, m).data
        pe = positional_encoding(6, 8).data / np.sqrt(8.0)
        np.testing.assert_allclose(out[0, :4], pe[:4], atol=1e-7)
        np.testing.assert_array_equal(out[0, 4:], 0.0)

    def test_scale_down_equals_scaled_up_variant_divided(self):
        # adding PE/sqrt(d) must equal (sqrt(d)*x + PE)/sqrt(d)
        rng = np.random.default_rng(5)
        x = rng.standard_normal((2, 5, 6)).astype(np.float32)
        m = mask_of([5, 3])
        got = add_position(tc.tensor(x), m).data
        pe = positional_encoding(5, 6).data
        want = (np.sqrt(6.0) * x + pe[None]) / np.sqrt(6.0)
        want *= m.indicator()[:, :, None]
        np.testing.assert_allclose(got, want, atol=1e-6)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64],
                             ids=["f32", "f64"])
    def test_cached_table_is_bitwise_the_fresh_one(self, dtype):
        rng = np.random.default_rng(8)
        m = mask_of([7, 4])
        pe = positional_encoding(7, 6, dtype=dtype).data
        want_table = (pe / np.sqrt(6)).astype(dtype, copy=False)
        for _ in range(2):  # the second call reads the cached table
            x = rng.standard_normal((2, 7, 6)).astype(dtype)
            got = add_position(tc.tensor(x), m).data
            want = (x + want_table[None]) * m.indicator(dtype)[:, :, None]
            assert got.dtype == dtype
            assert got.tobytes() == want.tobytes()

    def test_cached_table_is_read_only(self):
        x = tc.tensor(np.zeros((1, 3, 4), dtype=np.float32))
        add_position(x, mask_of([3]))
        table = _scaled_position(3, 4, np.dtype(np.float32))
        assert table is _scaled_position(3, 4, np.dtype(np.float32))
        with pytest.raises(ValueError):
            table[0, 0] = 1.0

    def test_scaling_factor_at_width_256_is_16(self):
        x = tc.tensor(np.zeros((1, 3, 256), dtype=np.float32))
        out = add_position(x, mask_of([3])).data
        pe = positional_encoding(3, 256).data
        np.testing.assert_allclose(out[0], pe / 16.0, atol=1e-7)


class TestMHSA:
    def test_zero_weights_residual_identity(self):
        p = MHSAParams.create(4, 2, np.random.default_rng(6))
        zero_weights(p)
        x = tc.tensor(np.random.default_rng(7)
                      .standard_normal((2, 3, 4)).astype(np.float32))
        out = mhsa_forward(x, p, mask_of([3, 2]))
        np.testing.assert_array_equal(out.data, x.data)

    def test_single_frame_attends_to_itself(self):
        # T=1: the attention weight is 1, so the branch is wo @ (wv @ ln(x))
        rng = np.random.default_rng(8)
        p = MHSAParams.create(4, 2, rng)
        x = rng.standard_normal((1, 1, 4)).astype(np.float32)
        out = mhsa_forward(tc.tensor(x), p, mask_of([1])).data
        xn = ln_np(x, [1], eps=NORM_EPS)
        want = x + (xn @ p.wv.data.T) @ p.wo.data.T
        np.testing.assert_allclose(out, want, atol=1e-6)

    def test_hand_worked_two_frame_example(self):
        # d=2, one head, ln(x) = a * [[1,-1],[-1,1]] with
        # a = 0.5 / sqrt(0.25 + eps); scores/sqrt(2) = +-sqrt(2) a^2, so the
        # weights are 1/(1+e^(2 sqrt(2) a^2)) and its complement, and each
        # frame's second output moves by a * tanh(sqrt(2) a^2)
        norm = NormParams(gamma=tc.parameter(np.ones(2, dtype=np.float32)),
                          beta=tc.parameter(np.zeros(2, dtype=np.float32)))
        p = MHSAParams(
            norm=norm,
            wq=tc.parameter(np.array([[1., 0.], [0., 1.]], dtype=np.float32)),
            wk=tc.parameter(np.array([[0., 1.], [1., 0.]], dtype=np.float32)),
            wv=tc.parameter(np.array([[1., 1.], [0., 1.]], dtype=np.float32)),
            wo=tc.parameter(np.array([[2., 0.], [0., 1.]], dtype=np.float32)),
            heads=1)
        x = tc.tensor(np.array([[[1., 0.], [0., 1.]]], dtype=np.float32))
        out = mhsa_forward(x, p, mask_of([2])).data
        a = 0.5 / np.sqrt(0.25 + NORM_EPS)
        moved = a * np.tanh(np.sqrt(2.0) * a * a)
        want = np.array([[[1.0, moved], [0.0, 1.0 - moved]]])
        np.testing.assert_allclose(out, want, atol=1e-6)

    def test_scale_uses_full_model_dim(self):
        # with H=2, d=4 the per-head dim is 2; dividing by sqrt(2) instead
        # of sqrt(4) would change every weight, so pin against a reference
        # that hard-codes the full-dim scale
        rng = np.random.default_rng(9)
        d, heads, dh = 4, 2, 2
        p = MHSAParams.create(d, heads, rng)
        x = rng.standard_normal((2, 3, d)).astype(np.float32)
        lengths = [3, 2]
        out = mhsa_forward(tc.tensor(x), p, mask_of(lengths)).data

        xn = ln_np(x, lengths, eps=NORM_EPS)
        branch = np.zeros_like(x)
        for b, L in enumerate(lengths):
            for h in range(heads):
                rows = slice(h * dh, (h + 1) * dh)
                q = xn[b, :L] @ p.wq.data[rows].T
                k = xn[b, :L] @ p.wk.data[rows].T
                v = xn[b, :L] @ p.wv.data[rows].T
                s = q @ k.T / np.sqrt(d)
                e = np.exp(s - s.max(-1, keepdims=True))
                branch[b, :L, rows] = (e / e.sum(-1, keepdims=True)) @ v
        want = x + branch @ p.wo.data.T
        np.testing.assert_allclose(out, want, atol=1e-5)

    def test_mask_mismatch(self):
        p = MHSAParams.create(4, 2, np.random.default_rng(11))
        x = tc.tensor(np.zeros((2, 3, 4), dtype=np.float32))
        with pytest.raises(ShapeError):
            mhsa_forward(x, p, mask_of([3, 3, 3]))

    def test_gradients(self):
        rng = np.random.default_rng(12)
        p = MHSAParams.create(4, 2, rng, dtype=np.float64)
        x = rand_f64(rng, 2, 3, 4)
        m = mask_of([2, 3])
        r = tc.tensor(rng.standard_normal((2, 3, 4)), dtype=np.float64)
        params = dict(walk_parameters(p, "mhsa")) | {"x": x}
        err = tc.grad_check(
            lambda ps: tc.sum_all(tc.mul(mhsa_forward(ps["x"], p, m), r)),
            params, samples_per_tensor=12)
        assert err < 1e-5


class TestDepthwiseConv:
    def test_delta_kernel_is_identity(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((2, 3, 7)).astype(np.float32)
        for k in (3, 4, 16):
            w = np.zeros((3, k), dtype=np.float32)
            w[:, (k - 1) // 2] = 1.0
            out = depthwise_conv1d(tc.tensor(x), tc.tensor(w)).data
            np.testing.assert_allclose(out, x, atol=1e-7)

    def test_box_kernel_hand_values(self):
        # [1,2,3] * [1,1,1] with one zero pad each side -> [3,6,5]
        x = tc.tensor(np.array([[[1., 2., 3.]]], dtype=np.float32))
        w = tc.tensor(np.ones((1, 3), dtype=np.float32))
        out = depthwise_conv1d(x, w).data
        np.testing.assert_allclose(out, [[[3., 6., 5.]]], atol=1e-7)

    def test_even_kernel_pads_left_heavy(self):
        # k=2, left pad 0, right pad 1: out[t] = w0*x[t] + w1*x[t+1]
        x = tc.tensor(np.array([[[1., 2., 4.]]], dtype=np.float32))
        w = tc.tensor(np.array([[10., 1.]], dtype=np.float32))
        out = depthwise_conv1d(x, w).data
        np.testing.assert_allclose(out, [[[12., 24., 40.]]], atol=1e-6)

    def test_channels_independent(self):
        rng = np.random.default_rng(14)
        x = rng.standard_normal((1, 2, 6)).astype(np.float32)
        w = rng.standard_normal((2, 3)).astype(np.float32)
        full = depthwise_conv1d(tc.tensor(x), tc.tensor(w)).data
        for c in range(2):
            solo = depthwise_conv1d(tc.tensor(x[:, c:c + 1]),
                                    tc.tensor(w[c:c + 1])).data
            np.testing.assert_array_equal(full[:, c:c + 1], solo)

    def test_gradients(self):
        rng = np.random.default_rng(15)
        x = rand_f64(rng, 2, 3, 5)
        w = rand_f64(rng, 3, 4)
        r = tc.tensor(rng.standard_normal((2, 3, 5)), dtype=np.float64)
        err = tc.grad_check(
            lambda ps: tc.sum_all(tc.mul(
                depthwise_conv1d(ps["x"], ps["w"]), r)),
            {"x": x, "w": w}, samples_per_tensor=30)
        assert err < 1e-5

    @pytest.mark.parametrize("k", [3, 4, 15, 16])
    def test_float32_weight_gradient_matches_float64_loop(self, k):
        rng = np.random.default_rng(16)
        x = rng.standard_normal((3, 5, 11)).astype(np.float32)
        g = rng.standard_normal((3, 5, 11)).astype(np.float32)
        w = tc.parameter(rng.standard_normal((5, k)), dtype=np.float32)
        out = depthwise_conv1d(tc.tensor(x), w)
        tc.backward(tc.sum_all(tc.mul_const(out, g)))
        # out[b, c, t] = sum_j w[c, j] * x[b, c, t + j - (k-1)//2], zero
        # outside [0, T)
        want = np.zeros((5, k))
        for j in range(k):
            for t in range(11):
                s = t + j - (k - 1) // 2
                if 0 <= s < 11:
                    want[:, j] += (g[:, :, t].astype(np.float64)
                                   * x[:, :, s]).sum(axis=0)
        assert w.grad.dtype == np.float32
        np.testing.assert_allclose(w.grad, want, rtol=1e-5,
                                   atol=1e-5 * np.abs(want).max())

    @pytest.mark.parametrize("t,k", [(1, 3), (1, 16), (2, 5), (3, 16),
                                     (8, 16), (16, 16)])
    def test_taps_beyond_short_input_change_no_bit(self, t, k):
        # every tap over a zero-padded copy, as a padded reference would
        rng = np.random.default_rng(17)
        x = rng.standard_normal((2, t, 3)).astype(np.float32).swapaxes(1, 2)
        w = rng.standard_normal((3, k)).astype(np.float32)
        g = rng.standard_normal((2, 3, t)).astype(np.float32)
        pl = (k - 1) // 2
        xp = np.pad(x, ((0, 0), (0, 0), (pl, k - 1 - pl)))
        want = np.zeros_like(xp[:, :, :t])
        dxp = np.zeros_like(xp)
        for j in range(k):
            want += w[:, j][None, :, None] * xp[:, :, j:j + t]
            dxp[:, :, j:j + t] += g * w[:, j][None, :, None]
        xt, wt = tc.parameter(x), tc.parameter(w)
        out = depthwise_conv1d(xt, wt)
        dx, _ = out._backward_fn(g)
        assert out.data.tobytes() == want.tobytes()
        assert dx.tobytes() == dxp[:, :, pl:pl + t].tobytes()

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError):
            depthwise_conv1d(tc.tensor(np.zeros((1, 3, 4), dtype=np.float32)),
                             tc.tensor(np.zeros((2, 3), dtype=np.float32)))


class TestConvModule:
    def test_zero_weights_residual_identity(self):
        p = ConvModuleParams.create(4, 3, np.random.default_rng(16))
        zero_weights(p)
        x = tc.tensor(np.random.default_rng(17)
                      .standard_normal((2, 5, 4)).astype(np.float32))
        out = conv_module_forward(x, p, mask_of([4, 5]))
        np.testing.assert_array_equal(out.data, x.data)

    def test_delta_kernel_reduces_to_pointwise_chain(self):
        # delta depthwise + identity pointwise convs: the branch collapses to
        # swish(uttBN(glu(pw1(ln(x))))) with no time mixing at all
        rng = np.random.default_rng(18)
        d, k = 3, 4
        p = ConvModuleParams.create(d, k, rng)
        p.pw1_w.data[:] = np.vstack([np.eye(d), np.zeros((d, d))])
        p.pw1_b.data[:] = 0.0
        p.dw_w.data[:] = 0.0
        p.dw_w.data[:, (k - 1) // 2] = 1.0
        p.pw2_w.data[:] = np.eye(d)
        p.pw2_b.data[:] = 0.0

        lengths = [5, 3]
        x = rng.standard_normal((2, 5, d)).astype(np.float32)
        ind = mask_of(lengths).indicator(bool)
        x[~ind] = 0.0
        out = conv_module_forward(tc.tensor(x), p, mask_of(lengths)).data

        # oracle in plain numpy, statistics from valid frames only
        h = ln_np(x, lengths, eps=NORM_EPS)
        h = h * 0.5  # gate half is zero, sigmoid(0) = 1/2
        bn = np.zeros_like(h)
        for b, L in enumerate(lengths):
            seg = h[b, :L]  # [L, d]
            mu = seg.mean(axis=0)
            var = seg.var(axis=0)
            bn[b, :L] = (seg - mu) / np.sqrt(var + NORM_EPS)
        branch = bn / (1.0 + np.exp(-bn))
        branch[~ind] = 0.0
        np.testing.assert_allclose(out, x + branch, atol=1e-6)

    def test_kernel_16_longer_than_sequence_ok(self):
        p = ConvModuleParams.create(8, 16, np.random.default_rng(19))
        assert p.dw_w.shape[1] == 16
        x = tc.tensor(np.random.default_rng(20)
                      .standard_normal((1, 5, 8)).astype(np.float32))
        out = conv_module_forward(x, p, mask_of([5]))
        assert out.shape == (1, 5, 8)

    def test_gradients(self):
        rng = np.random.default_rng(22)
        p = ConvModuleParams.create(4, 3, rng, dtype=np.float64)
        x = rand_f64(rng, 2, 4, 4)
        m = mask_of([3, 4])
        r = tc.tensor(rng.standard_normal((2, 4, 4)), dtype=np.float64)
        params = dict(walk_parameters(p, "conv")) | {"x": x}
        err = tc.grad_check(
            lambda ps: tc.sum_all(tc.mul(
                conv_module_forward(ps["x"], p, m), r)),
            params, eps=1e-5, samples_per_tensor=12)
        assert err < 1e-5


class TestConformerBlock:
    def test_zero_weights_collapse_to_norm_of_positioned_input(self):
        rng = np.random.default_rng(23)
        p = ConformerBlockParams.create(4, rng, heads=2, kernel=3)
        zero_weights(p)
        x = tc.tensor(rng.standard_normal((2, 4, 4)).astype(np.float32))
        m = mask_of([3, 4])
        out = conformer_block_forward(x, p, m)
        want = utterance_layernorm(add_position(x, m), m,
                                   NormParams.create(4))
        np.testing.assert_allclose(out.data, want.data, atol=1e-6)

    def test_padding_invariance(self):
        # same utterance padded to T and to T+7: valid outputs and all
        # parameter gradients must agree
        rng = np.random.default_rng(25)
        p = ConformerBlockParams.create(6, rng, heads=2, kernel=4)
        L, d = 5, 6
        core = rng.standard_normal((1, L, d)).astype(np.float32)

        def run(pad):
            x = np.zeros((1, L + pad, d), dtype=np.float32)
            x[:, :L] = core
            if pad:
                x[:, L:] = 50.0  # garbage that masking must ignore
            m = mask_of([L], max_len=L + pad)
            tc.zero_grad(walk_parameters(p, "blk"))
            out = conformer_block_forward(tc.tensor(x), p, m)
            tc.backward(tc.sum_all(out))
            grads = {n: t.grad.copy() for n, t in walk_parameters(p, "blk")}
            return out.data[:, :L].copy(), grads

        out_a, grads_a = run(0)
        out_b, grads_b = run(7)
        np.testing.assert_allclose(out_b, out_a, atol=1e-6)
        for name in grads_a:
            np.testing.assert_allclose(grads_b[name], grads_a[name],
                                       atol=1e-5, err_msg=name)

    def test_batch_permutation(self):
        rng = np.random.default_rng(26)
        p = ConformerBlockParams.create(4, rng, heads=2, kernel=3)
        x = rng.standard_normal((3, 4, 4)).astype(np.float32)
        lengths = [4, 2, 3]
        out = conformer_block_forward(tc.tensor(x), p, mask_of(lengths)).data
        perm = [2, 0, 1]
        out_p = conformer_block_forward(
            tc.tensor(x[perm]), p,
            mask_of([lengths[i] for i in perm])).data
        np.testing.assert_allclose(out_p, out[perm], atol=1e-6)

    def test_gradients_full_block(self):
        rng = np.random.default_rng(28)
        p = ConformerBlockParams.create(4, rng, heads=2, kernel=3,
                                        dtype=np.float64)
        x = rand_f64(rng, 2, 4, 4)
        m = mask_of([3, 4])
        r = tc.tensor(rng.standard_normal((2, 4, 4)), dtype=np.float64)
        params = dict(walk_parameters(p, "blk")) | {"x": x}
        err = tc.grad_check(
            lambda ps: tc.sum_all(tc.mul(
                conformer_block_forward(ps["x"], p, m), r)),
            params, samples_per_tensor=6)
        assert err < 1e-5

    def test_dropout_needs_rng(self):
        rng = np.random.default_rng(29)
        p = ConformerBlockParams.create(4, rng, heads=2, kernel=3)
        x = tc.tensor(np.zeros((1, 2, 4), dtype=np.float32))
        with pytest.raises(ConfigError):
            conformer_block_forward(x, p, mask_of([2]), dropout_p=0.15)

    def test_dropout_deterministic_given_stream(self):
        from ucam.rng import keyed
        rng = np.random.default_rng(30)
        p = ConformerBlockParams.create(4, rng, heads=2, kernel=3)
        x = tc.tensor(rng.standard_normal((1, 3, 4)).astype(np.float32))
        m = mask_of([3])
        a = conformer_block_forward(x, p, m, dropout_p=0.3,
                                    rng=keyed(7, "drop", 1)).data
        b = conformer_block_forward(x, p, m, dropout_p=0.3,
                                    rng=keyed(7, "drop", 1)).data
        np.testing.assert_array_equal(a, b)
