import tracemalloc
from contextlib import nullcontext

import numpy as np
import pytest

from ucam import tensor as tc
from ucam import wrcnn
from ucam.errors import ConfigError, ShapeError
from ucam.masking import NORM_EPS, NormParams, SequenceMask
from ucam.model import walk_parameters
from ucam.wrcnn import (ResidualBlockParams, WRCNNConfig, WRCNNParams, conv2d,
                        residual_block_forward, wrcnn_forward)


def mask_of(lengths, max_len=None):
    return SequenceMask(lengths, max_len)


def conv2d_loops(x, w, stride_f=1):
    """Direct six-loop reference with the same ceil-mode padding contract."""
    bsz, c, f, t = x.shape
    o, _, kf, kt = w.shape
    out_f = -(-f // stride_f)
    pad_f = max((out_f - 1) * stride_f + kf - f, 0)
    pf0 = pad_f // 2
    pt0 = (kt - 1) // 2
    xp = np.pad(x, ((0, 0), (0, 0), (pf0, pad_f - pf0),
                    (pt0, kt - 1 - pt0)))
    out = np.zeros((bsz, o, out_f, t), dtype=np.float64)
    for b in range(bsz):
        for oc in range(o):
            for fo in range(out_f):
                for ti in range(t):
                    acc = 0.0
                    for ci in range(c):
                        for i in range(kf):
                            for j in range(kt):
                                acc += w[oc, ci, i, j] * \
                                    xp[b, ci, fo * stride_f + i, ti + j]
                    out[b, oc, fo, ti] = acc
    return out.astype(x.dtype)


def conv2d_grads_loops(x, w, g, stride_f=1):
    """float64 loop reference for conv2d's (dX, dW) given the output grad."""
    x, w, g = (a.astype(np.float64) for a in (x, w, g))
    _, _, f, t = x.shape
    _, _, kf, kt = w.shape
    out_f = g.shape[2]
    pad_f = max((out_f - 1) * stride_f + kf - f, 0)
    pf0 = pad_f // 2
    pt0 = (kt - 1) // 2
    xp = np.pad(x, ((0, 0), (0, 0), (pf0, pad_f - pf0),
                    (pt0, kt - 1 - pt0)))
    dxp = np.zeros_like(xp)
    dw = np.zeros_like(w)
    for fo in range(out_f):
        for ti in range(t):
            gs = g[:, :, fo, ti]  # [B, O]
            for i in range(kf):
                for j in range(kt):
                    fi, tj = fo * stride_f + i, ti + j
                    dw[:, :, i, j] += gs.T @ xp[:, :, fi, tj]
                    dxp[:, :, fi, tj] += gs @ w[:, :, i, j]
    return dxp[:, :, pf0:pf0 + f, pt0:pt0 + t], dw


def conv2d_padded_windows(x, w, g, stride_f=1):
    """conv2d's (out, dX, dW) the padded way: pad x, copy each tap's window
    into the im2col columns, and scatter dX into the padded array tap by
    tap before cropping; the same BLAS calls as conv2d."""
    bsz, c, f, t = x.shape
    o, _, kf, kt = w.shape
    out_f = -(-f // stride_f)
    pad_f = max((out_f - 1) * stride_f + kf - f, 0)
    pf0, pt0 = pad_f // 2, (kt - 1) // 2
    xp = np.pad(x, ((0, 0), (0, 0), (pf0, pad_f - pf0), (pt0, kt - 1 - pt0)))
    windows = [((i, j), (slice(i, i + stride_f * out_f, stride_f),
                         slice(j, j + t)))
               for i in range(kf) for j in range(kt)]
    cols = np.empty((bsz, c, kf, kt, out_f, t), dtype=x.dtype)
    for (i, j), (fs, ts) in windows:
        cols[:, :, i, j] = xp[:, :, fs, ts]
    cols = cols.reshape(bsz, c * kf * kt, out_f * t)
    w2 = w.reshape(o, -1)
    out = np.matmul(w2, cols).reshape(bsz, o, out_f, t)
    g2 = g.reshape(bsz, o, -1)
    dw = (np.matmul(g2, cols.transpose(0, 2, 1))
          .sum(axis=0, dtype=np.float64).astype(g.dtype).reshape(w.shape))
    dcol = np.matmul(w2.T, g2).reshape(bsz, c, kf, kt, out_f, t)
    dxp = np.zeros_like(xp)
    for (i, j), (fs, ts) in windows:
        dxp[:, :, fs, ts] += dcol[:, :, i, j]
    return out, dxp[:, :, pf0:pf0 + f, pt0:pt0 + t], dw


# (F, T, kf, kt, stride): windows that overhang x on one or both sides
EDGE_GEOMETRY = {
    "t1": (6, 1, 3, 3, 1),
    "t_below_kt": (6, 2, 3, 5, 1),
    "f_below_kf": (2, 5, 3, 3, 1),
    "f1_stride2": (1, 4, 5, 3, 2),
    "odd_f_stride2": (7, 5, 3, 3, 2),
    "1x1_stride2_odd_f": (7, 4, 1, 1, 2),
    "1x1_stride2_even_f": (8, 4, 1, 1, 2),
    "even_kernel_stride3": (8, 3, 2, 4, 3),
}


class TestConv2dEdgeGeometry:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64],
                             ids=["f32", "f64"])
    @pytest.mark.parametrize("geom", sorted(EDGE_GEOMETRY))
    def test_matches_padded_windows_bitwise(self, geom, dtype):
        f, t, kf, kt, s = EDGE_GEOMETRY[geom]
        rng = np.random.default_rng(6)
        x = rng.standard_normal((3, 2, f, t)).astype(dtype)
        w = rng.standard_normal((4, 2, kf, kt)).astype(dtype)
        xt, wt = tc.parameter(x), tc.parameter(w)
        out = conv2d(xt, wt, stride_f=s)
        g = rng.standard_normal(out.shape).astype(dtype)
        tc.backward(tc.sum_all(tc.mul(out, tc.tensor(g))))
        want = conv2d_padded_windows(x, w, g, s)
        for got, ref in zip((out.data, xt.grad, wt.grad), want):
            assert got.dtype == ref.dtype and got.shape == ref.shape
            assert got.tobytes() == np.ascontiguousarray(ref).tobytes()

    @pytest.mark.parametrize("geom", sorted(EDGE_GEOMETRY))
    def test_columns_match_padded_windows(self, geom):
        # with an identity kernel of C*kf*kt output channels, the output
        # is the im2col columns themselves, zeroed borders included
        f, t, kf, kt, s = EDGE_GEOMETRY[geom]
        c = 2
        rng = np.random.default_rng(7)
        x = rng.standard_normal((3, c, f, t)).astype(np.float32)
        eye = np.eye(c * kf * kt, dtype=np.float32).reshape(-1, c, kf, kt)
        got = conv2d(tc.tensor(x), tc.tensor(eye), stride_f=s).data
        want, _, _ = conv2d_padded_windows(
            x, eye, np.zeros_like(got), s)
        assert got.tobytes() == want.tobytes()
        assert np.isfinite(got).all()

    @pytest.mark.parametrize("geom", sorted(EDGE_GEOMETRY))
    def test_cached_tap_geometry_is_fresh_and_immutable(self, geom):
        f, t, kf, kt, s = EDGE_GEOMETRY[geom]
        rng = np.random.default_rng(8)
        conv2d(tc.tensor(rng.standard_normal((1, 2, f, t))),
               tc.tensor(rng.standard_normal((3, 2, kf, kt))), stride_f=s)
        cached = wrcnn._tap_geometry(f, t, kf, kt, s)
        assert cached is wrcnn._tap_geometry(f, t, kf, kt, s)
        assert cached == wrcnn._tap_geometry.__wrapped__(f, t, kf, kt, s)
        out_f, fspans, tspans, taps = cached
        assert len(taps) == kf * kt
        for part in (cached, fspans, tspans, taps, fspans[0], taps[-1]):
            assert isinstance(part, tuple)
            with pytest.raises(TypeError):
                part[0] = None


def cols_bytes(x, kf, kt, stride_f):
    """Bytes of one utterance's im2col columns in conv2d."""
    _, c, f, t = x.shape
    return c * kf * kt * -(-f // stride_f) * t * x.itemsize


class TestConv2dGroups:
    """Utterance groups of any size give the whole-batch result bitwise."""

    # (x needs dX, w needs dW): a frozen kernel, a trained one, the stem
    GRADS = {"frozen": (True, False), "trained": (True, True),
             "stem": (False, True)}

    @pytest.mark.parametrize("mode", sorted(GRADS))
    @pytest.mark.parametrize("ub", [1, 2, 3, 5])  # B 5: 2 and 3 are ragged
    @pytest.mark.parametrize("kernel,stride", [(3, 1), (3, 2), (1, 2)],
                             ids=["3x3", "3x3-s2", "1x1-s2"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64],
                             ids=["f32", "f64"])
    def test_matches_whole_batch(self, monkeypatch, dtype, kernel, stride,
                                 ub, mode):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((5, 3, 7, 6)).astype(dtype)
        w = rng.standard_normal((4, 3, kernel, kernel)).astype(dtype)
        monkeypatch.setattr(wrcnn, "COLS_BYTES",
                            ub * cols_bytes(x, kernel, kernel, stride))
        need_x, need_w = self.GRADS[mode]
        xt = tc.tensor(x, requires_grad=need_x)
        wt = tc.tensor(w, requires_grad=need_w)
        out = conv2d(xt, wt, stride_f=stride)
        g = rng.standard_normal(out.shape).astype(dtype)
        tc.backward(tc.sum_all(tc.mul(out, tc.tensor(g))))
        want = conv2d_padded_windows(x, w, g, stride)
        for got, ref, needed in zip((out.data, xt.grad, wt.grad), want,
                                    (True, need_x, need_w)):
            if not needed:
                assert got is None
                continue
            assert got.dtype == ref.dtype and got.shape == ref.shape
            assert got.tobytes() == np.ascontiguousarray(ref).tobytes()

    def test_never_holds_the_batch_columns(self, monkeypatch):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((8, 16, 16, 50)).astype(np.float32)
        w = rng.standard_normal((16, 16, 3, 3)).astype(np.float32)
        per_utt = cols_bytes(x, 3, 3, 1)
        monkeypatch.setattr(wrcnn, "COLS_BYTES", 2 * per_utt)

        def peak_bytes(run):
            tracemalloc.start()
            try:
                result = run()
                return result, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # a forward in any grad mode holds its output and one 2-utterance
        # group of columns
        outs = {}
        for mode, (need_x, need_w) in [("no_grad", (True, True)),
                                       *self.GRADS.items()]:
            xt = tc.tensor(x, requires_grad=need_x)
            wt = tc.tensor(w, requires_grad=need_w)
            with tc.no_grad() if mode == "no_grad" else nullcontext():
                outs[mode], peak = peak_bytes(lambda: conv2d(xt, wt))
            assert peak < x.nbytes + 3 * per_utt, mode
        # dW rebuilds the columns one group at a time, into [B, O, K]
        # per-utterance products; dX's strided adds take numpy's buffers
        g = rng.standard_normal(x.shape).astype(np.float32)
        (dx, dw), peak = peak_bytes(lambda: outs["trained"]._backward_fn(g))
        prods = 8 * w.size * w.itemsize
        ufunc_buffers = 3 * np.getbufsize() * x.itemsize
        assert dx.shape == x.shape and dw.shape == w.shape
        assert peak < 2 * per_utt + prods + x.nbytes + ufunc_buffers


class TestConv2d:
    def test_delta_kernel_identity(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 3, 5, 4)).astype(np.float32)
        w = np.zeros((3, 3, 3, 3), dtype=np.float32)
        for c in range(3):
            w[c, c, 1, 1] = 1.0
        out = conv2d(tc.tensor(x), tc.tensor(w)).data
        np.testing.assert_allclose(out, x, atol=1e-7)

    @pytest.mark.parametrize("stride,kernel", [
        (1, 3), (2, 3), (3, 3), (2, 1), (3, 2)],
        ids=["1", "2", "3", "k1-2", "k2-3"])
    def test_matches_loop_reference(self, stride, kernel):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((2, 2, 7, 4)).astype(np.float32)
        w = rng.standard_normal((3, 2, kernel, kernel)).astype(np.float32)
        got = conv2d(tc.tensor(x), tc.tensor(w), stride_f=stride).data
        want = conv2d_loops(x, w, stride)
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, atol=1e-5)

    def test_ceil_mode_output_extent(self):
        x = tc.tensor(np.zeros((1, 1, 5, 2), dtype=np.float32))
        w = tc.tensor(np.zeros((1, 1, 3, 3), dtype=np.float32))
        assert conv2d(x, w, stride_f=2).shape == (1, 1, 3, 2)
        x80 = tc.tensor(np.zeros((1, 1, 80, 2), dtype=np.float32))
        assert conv2d(x80, w, stride_f=2).shape == (1, 1, 40, 2)

    def test_time_extent_always_preserved(self):
        rng = np.random.default_rng(2)
        for t in (1, 2, 37):
            x = tc.tensor(rng.standard_normal((1, 2, 6, t))
                          .astype(np.float32))
            w = tc.tensor(rng.standard_normal((4, 2, 3, 3))
                          .astype(np.float32))
            assert conv2d(x, w, stride_f=2).shape[-1] == t

    def test_shape_errors(self):
        x = tc.tensor(np.zeros((1, 2, 4, 4), dtype=np.float32))
        with pytest.raises(ShapeError):
            conv2d(x, tc.tensor(np.zeros((3, 3, 3, 3), dtype=np.float32)))
        with pytest.raises(ShapeError):
            conv2d(x, tc.tensor(np.zeros((3, 2, 3, 3))))  # float64 kernel
        with pytest.raises(ConfigError):
            conv2d(x, tc.tensor(np.zeros((3, 2, 3, 3), dtype=np.float32)),
                   stride_f=0)

    @pytest.mark.parametrize("stride,kernel", [(1, 3), (2, 3), (2, 1)],
                             ids=["1", "2", "k1-2"])
    def test_gradients(self, stride, kernel):
        rng = np.random.default_rng(3)
        x = tc.parameter(rng.standard_normal((2, 2, 5, 3)), dtype=np.float64)
        w = tc.parameter(rng.standard_normal((3, 2, kernel, kernel)),
                         dtype=np.float64)
        out_f = -(-5 // stride)
        r = tc.tensor(rng.standard_normal((2, 3, out_f, 3)),
                      dtype=np.float64)
        err = tc.grad_check(
            lambda ps: tc.sum_all(tc.mul(
                conv2d(ps["x"], ps["w"], stride_f=stride), r)),
            {"x": x, "w": w}, samples_per_tensor=40)
        assert err < 1e-6

    # odd F gives ceil-mode padding; even F with a 1-wide, stride-2 kernel
    # gives a negative pad clamped to 0
    @pytest.mark.parametrize("f", [7, 8])
    @pytest.mark.parametrize("kernel,stride", [(3, 1), (3, 2), (1, 2)])
    def test_float32_gradients_match_float64_loops(self, kernel, stride, f):
        rng = np.random.default_rng(4)
        x = tc.parameter(rng.standard_normal((3, 4, f, 9)), dtype=np.float32)
        w = tc.parameter(rng.standard_normal((5, 4, kernel, kernel)),
                         dtype=np.float32)
        out = conv2d(x, w, stride_f=stride)
        g = rng.standard_normal(out.shape).astype(np.float32)
        tc.backward(tc.sum_all(tc.mul(out, tc.tensor(g))))
        want_dx, want_dw = conv2d_grads_loops(x.data, w.data, g, stride)
        assert x.grad.dtype == w.grad.dtype == np.float32
        # each entry sums at most a few hundred float32 products
        for got, want in ((x.grad, want_dx), (w.grad, want_dw)):
            np.testing.assert_allclose(got, want, rtol=1e-5,
                                       atol=1e-5 * np.abs(want).max())


    def test_weight_gradient_ignores_batch_order(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((4, 3, 7, 9)).astype(np.float32)
        w = rng.standard_normal((5, 3, 3, 3)).astype(np.float32)
        g = rng.standard_normal((4, 5, 4, 9)).astype(np.float32)
        grads = []
        for order in ([0, 1, 2, 3], [3, 1, 0, 2]):
            wt = tc.parameter(w)
            out = conv2d(tc.tensor(x[order]), wt, stride_f=2)
            tc.backward(tc.sum_all(tc.mul(out, tc.tensor(g[order]))))
            grads.append(wt.grad)
        assert grads[0].tobytes() == grads[1].tobytes()


class TestResidualBlock:
    def test_zero_branch_identity(self):
        rng = np.random.default_rng(4)
        p = ResidualBlockParams.create(3, 3, 1, 3, rng)
        p.conv2.data[:] = 0.0
        x = tc.tensor(rng.standard_normal((2, 3, 6, 5)).astype(np.float32))
        out = residual_block_forward(x, p, mask_of([4, 5]))
        np.testing.assert_array_equal(out.data, x.data)

    def test_stride_two_halves_frequency(self):
        rng = np.random.default_rng(5)
        p = ResidualBlockParams.create(2, 4, 2, 3, rng)
        x = tc.tensor(rng.standard_normal((1, 2, 80, 3)).astype(np.float32))
        out = residual_block_forward(x, p, mask_of([3]))
        assert out.shape == (1, 4, 40, 3)

    def test_gradients_tiny_block(self):
        rng = np.random.default_rng(9)
        p = ResidualBlockParams.create(2, 3, 2, 3, rng, dtype=np.float64)
        x = tc.parameter(rng.standard_normal((1, 2, 8, 5)), dtype=np.float64)
        m = mask_of([4], max_len=5)
        r = tc.tensor(rng.standard_normal((1, 3, 4, 5)), dtype=np.float64)
        params = dict(walk_parameters(p, "blk")) | {"x": x}
        err = tc.grad_check(
            lambda ps: tc.sum_all(tc.mul(
                residual_block_forward(ps["x"], p, m), r)),
            params, eps=1e-5, samples_per_tensor=10)
        assert err < 1e-5


class TestConfig:
    def test_block_count_enforced(self):
        with pytest.raises(ConfigError):
            WRCNNConfig(multipliers=(1, 2), strides=(1, 2))
        with pytest.raises(ConfigError):
            WRCNNConfig(multipliers=(1, 1, 2, 4), strides=(1, 1, 2, 2))

    def test_frequency_plan(self):
        cfg = WRCNNConfig(strides=(1, 2, 2))
        assert cfg.out_freq(80) == 20
        assert cfg.block_channels == [16, 32, 64]
        p = WRCNNParams.create(cfg, 80, 10, np.random.default_rng(9))
        assert p.w_out.shape == (10, 64 * 20)
        assert cfg.out_freq(81) == 21  # ceil(ceil(81/2)=41 / 2)

    def test_parameter_count_closed_form(self):
        cfg = WRCNNConfig(base_channels=4, multipliers=(1, 2, 4),
                          strides=(1, 2, 2), kernel=3)
        p = WRCNNParams.create(cfg, 20, 10, np.random.default_rng(10))
        total = sum(t.size for _, t in walk_parameters(p, "f"))

        k2 = 9
        chans = [4, 8, 16]
        want = 4 * 3 * k2  # stem
        in_c = 4
        for out_c, s in zip(chans, (1, 2, 2)):
            want += 2 * in_c            # bn1
            want += out_c * in_c * k2   # conv1
            want += 2 * out_c           # bn2
            want += out_c * out_c * k2  # conv2
            if in_c != out_c or s != 1:
                want += out_c * in_c    # 1x1 projection
            in_c = out_c
        want += 2 * 16                          # closing norm
        f_out = 20
        for s in (1, 2, 2):
            f_out = -(-f_out // s)
        want += 10 * (16 * f_out) + 10          # linear
        assert total == want


class TestWRCNNForward:
    def small(self, dtype=np.float32, seed=11):
        cfg = WRCNNConfig(base_channels=2, multipliers=(1, 2, 2),
                          strides=(1, 2, 2), kernel=3)
        return cfg, WRCNNParams.create(cfg, 6, 5,
                                       np.random.default_rng(seed),
                                       dtype=dtype)

    def test_time_preserved(self):
        cfg, p = self.small()
        x = tc.tensor(np.random.default_rng(12)
                      .standard_normal((1, 3, 6, 37)).astype(np.float32))
        out = wrcnn_forward(x, p, mask_of([37]))
        assert out.shape == (1, 37, 5)

    def test_zero_branches_reduce_to_skip_chain(self):
        # identity stem, zero conv branches, identity skips: the frontend
        # collapses to elu(linear(bn(flatten(x))))
        rng = np.random.default_rng(13)
        cfg = WRCNNConfig(base_channels=3, multipliers=(1, 1, 1),
                          strides=(1, 1, 1), kernel=3)
        p = WRCNNParams.create(cfg, 4, 3, rng)
        p.stem.data[:] = 0.0
        for c in range(3):
            p.stem.data[c, c, 1, 1] = 1.0
        for blk in p.blocks:
            blk.conv2.data[:] = 0.0
            assert blk.proj is None
        lengths = [3, 5]
        x = rng.standard_normal((2, 3, 4, 5)).astype(np.float32)
        ind = mask_of(lengths).indicator().astype(np.float32)
        x *= ind[:, None, None, :]
        out = wrcnn_forward(tc.tensor(x), p, mask_of(lengths)).data

        bn = np.zeros_like(x)
        for b, L in enumerate(lengths):
            seg = x[b, :, :, :L]
            mu = seg.mean(axis=(1, 2), keepdims=True)
            var = seg.var(axis=(1, 2), keepdims=True)
            bn[b, :, :, :L] = (seg - mu) / np.sqrt(var + NORM_EPS)
        flat = bn.transpose(0, 3, 1, 2).reshape(2, 5, 12)
        lin = flat @ p.w_out.data.T + p.b_out.data
        lin *= ind[:, :, None]
        want = np.where(lin > 0, lin, np.expm1(lin))
        np.testing.assert_allclose(out, want, atol=1e-5)

    def test_padding_invariance_including_last_valid_frame(self):
        rng = np.random.default_rng(14)
        cfg, p = self.small()
        L = 6
        core = rng.standard_normal((1, 3, 6, L)).astype(np.float32)

        def run(pad):
            x = np.zeros((1, 3, 6, L + pad), dtype=np.float32)
            x[..., :L] = core
            if pad:
                x[..., L:] = -30.0
            out = wrcnn_forward(tc.tensor(x), p,
                                mask_of([L], max_len=L + pad))
            return out.data[:, :L].copy()

        a = run(0)
        b = run(5)
        np.testing.assert_allclose(b, a, atol=1e-5)
        np.testing.assert_allclose(b[:, L - 1], a[:, L - 1], atol=1e-5)

    def test_wrong_freq_rejected(self):
        cfg, p = self.small()
        for planes, freq in ((3, 7), (2, 6)):
            x = tc.tensor(np.zeros((1, planes, freq, 3), dtype=np.float32))
            with pytest.raises(ShapeError):
                wrcnn_forward(x, p, mask_of([3]))
        # 79 and 80 bins both downsample to 20: the check is on the input
        p80 = WRCNNParams.create(cfg, 80, 5, np.random.default_rng(15))
        x = tc.tensor(np.zeros((1, 3, 79, 3), dtype=np.float32))
        with pytest.raises(ShapeError, match="79"):
            wrcnn_forward(x, p80, mask_of([3]))

    def test_gradients(self):
        rng = np.random.default_rng(16)
        cfg = WRCNNConfig(base_channels=2, multipliers=(1, 2, 2),
                          strides=(1, 2, 2), kernel=3)
        p = WRCNNParams.create(cfg, 5, 4, rng, dtype=np.float64)
        x = tc.parameter(rng.standard_normal((2, 3, 5, 3)), dtype=np.float64)
        m = mask_of([2, 3])
        r = tc.tensor(rng.standard_normal((2, 3, 4)), dtype=np.float64)
        params = dict(walk_parameters(p, "f")) | {"x": x}
        err = tc.grad_check(
            lambda ps: tc.sum_all(tc.mul(wrcnn_forward(ps["x"], p, m), r)),
            params, eps=1e-5, samples_per_tensor=6)
        assert err < 1e-5
