"""Wide residual convolutional frontend.

A stem convolution, three pre-activation residual blocks that shrink the
frequency axis while always preserving time, then an utterance-wise
BatchNorm, a flatten of channels x frequency per frame, and a linear + ELU
projection. Frame-level targets require the time axis to survive untouched,
so every stride applies to frequency only. Each convolution reads a masked
input or the output of a norm, which masks its own, so time-axis kernels
read nothing but zeros in the padding.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import tensor as tc
from .conformer import glorot
from .errors import ConfigError, ShapeError
from .masking import NormParams, SequenceMask, apply_mask, utterance_batchnorm
from .tensor import Tensor

N_BLOCKS = 3
N_PLANES = 3  # static, delta, delta-delta: what data.compute_deltas emits
# bytes of conv2d's one im2col column buffer, a group of utterances (see its
# docstring), in every grad mode and again in dW's backward: the fastest
# of 256 KB to 2 MB, and one utterance per group, at T 24-400
COLS_BYTES = 1 << 19


def ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _tap_spans(n_in: int, n_out: int, stride: int, pad: int, k: int):
    """Per tap offset i: the slice of outputs o whose input ``o * stride +
    i - pad`` lies in [0, n_in), and the slice of those inputs."""
    spans = []
    for i in range(k):
        lo = min(max(ceil_div(pad - i, stride), 0), n_out)
        hi = max(min(ceil_div(n_in + pad - i, stride), n_out), lo)
        src = lo * stride + i - pad
        spans.append((slice(lo, hi), slice(src, src + stride * (hi - lo),
                                           stride)))
    return tuple(spans)


@functools.lru_cache(maxsize=256)
def _tap_geometry(f: int, t: int, kf: int, kt: int, stride_f: int):
    """conv2d's output height, its frequency and time tap spans, and the
    taps (i, j, out_f, out_t, in_f, in_t) in (i, j) order; built once per
    shape and shared, so every part is a tuple."""
    out_f = ceil_div(f, stride_f)
    pad_f = max((out_f - 1) * stride_f + kf - f, 0)
    fspans = _tap_spans(f, out_f, stride_f, pad_f // 2, kf)
    tspans = _tap_spans(t, t, 1, (kt - 1) // 2, kt)
    taps = tuple((i, j, fo, to, fi, ti) for i, (fo, fi) in enumerate(fspans)
                 for j, (to, ti) in enumerate(tspans))
    return out_f, fspans, tspans, taps


def conv2d(x: Tensor, w: Tensor, stride_f: int = 1) -> Tensor:
    """Biasless 2-D convolution on [B, C, F, T] with kernel [O, C, kf, kt].

    Frequency uses ceil-mode same padding: the output extent is
    ceil(F / stride_f) for every F, with the leftover pad split small-side
    first. Time is never strided and keeps its extent exactly.

    No padded copy of ``x`` is made. The im2col columns [B, C, kf, kt,
    F', T] take, per tap (i, j), one strided span straight from ``x``:
    the outputs whose input lies inside it. Only the border strips whose
    input lies in the padding are zeroed.

    The batch runs in groups of ``max(1, min(B, COLS_BYTES // bytes of one
    utterance's columns))`` utterances: each group's columns are built and
    at once multiplied into its slice of the output, while they are still
    in cache. One group-sized column buffer serves every group, its border
    strips zeroed once, in every grad mode, and no columns outlive the
    forward. When dW is needed, and only then, the graph keeps ``x``, and
    backward rebuilds each group's columns from it into a fresh
    group-sized buffer and multiplies them at once into [B, O, K]
    per-utterance products (Chen et al. 2016, "Training Deep Nets with
    Sublinear Memory Cost"). dX runs the same groups: a group's
    dcol matmul, then its spans added into an unpadded array, tap by tap
    in (i, j) order from zeros. numpy's stacked matmul makes one gemm call
    per utterance and every element gets the same copies and adds in the
    same order, so the group size cannot change a bit.
    """
    if x.ndim != 4 or w.ndim != 4:
        raise ShapeError(f"conv2d expects [B, C, F, T] and [O, C, kf, kt], "
                         f"got {x.shape} and {w.shape}")
    if x.shape[1] != w.shape[1]:
        raise ShapeError(f"channel counts disagree: input {x.shape[1]}, "
                         f"kernel {w.shape[1]}")
    tc.check_same_dtype("conv2d", x.data, w.data)
    if stride_f < 1:
        raise ConfigError(f"frequency stride must be >= 1, got {stride_f}")
    bsz, c, f, t = x.shape
    o, _, kf, kt = w.shape
    out_f, fspans, tspans, taps = _tap_geometry(f, t, kf, kt, stride_f)
    k, n = c * kf * kt, out_f * t
    dtype = x.data.dtype
    ub = max(1, min(bsz, COLS_BYTES // max(k * n * dtype.itemsize, 1)))
    groups = [(b0, min(b0 + ub, bsz)) for b0 in range(0, bsz, ub)]
    need_x, need_w = tc.needs_grad(x), tc.needs_grad(w)

    def group_cols():
        cols = np.empty((ub, c, kf, kt, out_f, t), dtype=dtype)
        for i, (fo, _) in enumerate(fspans):
            cols[:, :, i, :, :fo.start] = 0
            cols[:, :, i, :, fo.stop:] = 0
        for j, (to, _) in enumerate(tspans):
            cols[:, :, :, j, :, :to.start] = 0
            cols[:, :, :, j, :, to.stop:] = 0
        return cols

    def im2col(cols, src, b0, b1):
        """Utterances b0:b1's columns of ``src``, built in ``cols``, as
        [b, K, N]."""
        cg = cols[:b1 - b0]
        for i, j, fo, to, fi, ti in taps:
            cg[:, :, i, j, fo, to] = src[b0:b1, :, fi, ti]
        return cg.reshape(b1 - b0, k, n)

    cols = group_cols()
    w2 = w.data.reshape(o, k)
    out = np.empty((bsz, o, n), dtype=dtype)
    for b0, b1 in groups:
        np.matmul(w2, im2col(cols, x.data, b0, b1), out=out[b0:b1])
    # x is kept only for dW, the kernel only for dX
    xd, w2 = x.data if need_w else None, w2 if need_x else None

    def weight_grad(g2):
        # one BLAS matmul per utterance (einsum would run a plain C loop),
        # summed in float64 and rounded once: dW ignores the batch order
        cols = group_cols()
        prod = np.empty((bsz, o, k), dtype=dtype)
        for b0, b1 in groups:
            np.matmul(g2[b0:b1], im2col(cols, xd, b0, b1).transpose(0, 2, 1),
                      out=prod[b0:b1])
        return (prod.sum(axis=0, dtype=np.float64).astype(dtype)
                .reshape(o, c, kf, kt))

    def bwd(g):
        g2 = g.reshape(bsz, o, n)
        dw = weight_grad(g2) if need_w else None
        if not need_x:
            return None, dw
        dcol = np.empty((ub, k, n), dtype=dtype)
        dx = np.zeros((bsz, c, f, t), dtype=dtype)
        for b0, b1 in groups:
            dg = np.matmul(w2.T, g2[b0:b1], out=dcol[:b1 - b0]).reshape(
                b1 - b0, c, kf, kt, out_f, t)
            for i, j, fo, to, fi, ti in taps:
                dx[b0:b1, :, fi, ti] += dg[:, :, i, j, fo, to]
        return dx, dw

    return tc.from_op(out.reshape(bsz, o, out_f, t), (x, w), bwd, "conv2d")


def he_conv(rng: np.random.Generator, out_c: int, in_c: int, kf: int, kt: int,
            dtype=np.float32) -> Tensor:
    std = np.sqrt(2.0 / (in_c * kf * kt))
    return tc.parameter(rng.normal(0.0, std, size=(out_c, in_c, kf, kt)),
                        dtype=dtype)


@dataclass(frozen=True)
class WRCNNConfig:
    """Shape plan for the frontend.

    The default is a desk-scale profile (narrow channels) chosen so the whole
    model trains in seconds on a CPU; widths are free parameters because none
    of the correctness properties depend on them. The input frequency count
    and the output width are the model's ``feat_dim`` and ``d_attn``.
    """

    base_channels: int = 16
    multipliers: tuple = (1, 2, 4)
    strides: tuple = (1, 2, 2)
    kernel: int = 3

    def __post_init__(self):
        if len(self.multipliers) != N_BLOCKS or len(self.strides) != N_BLOCKS:
            raise ConfigError(
                f"exactly {N_BLOCKS} residual blocks are required, got "
                f"{len(self.multipliers)} multipliers and "
                f"{len(self.strides)} strides")
        if self.kernel < 1 or self.base_channels < 1:
            raise ConfigError("channel count and kernel size must be >= 1")
        if any(s < 1 for s in self.strides):
            raise ConfigError("strides must be >= 1")

    @property
    def block_channels(self) -> list[int]:
        return [self.base_channels * m for m in self.multipliers]

    def out_freq(self, in_freq: int) -> int:
        for s in self.strides:
            in_freq = ceil_div(in_freq, s)
        return in_freq


@dataclass
class ResidualBlockParams:
    """Pre-activation block: norm and ReLU come before each convolution.

    The skip path is the raw input when shape is preserved; when channels or
    stride change, a 1x1 convolution applied to the pre-activated input
    brings it into shape.
    """

    bn1: NormParams
    conv1: Tensor  # [out_c, in_c, k, k], carries the frequency stride
    bn2: NormParams
    conv2: Tensor  # [out_c, out_c, k, k]
    proj: Tensor | None  # [out_c, in_c, 1, 1]
    stride_f: int = 1

    @classmethod
    def create(cls, in_c: int, out_c: int, stride_f: int, kernel: int,
               rng: np.random.Generator, dtype=np.float32):
        needs_proj = in_c != out_c or stride_f != 1
        return cls(bn1=NormParams.create(in_c, dtype=dtype),
                   conv1=he_conv(rng, out_c, in_c, kernel, kernel, dtype),
                   bn2=NormParams.create(out_c, dtype=dtype),
                   conv2=he_conv(rng, out_c, out_c, kernel, kernel, dtype),
                   proj=(he_conv(rng, out_c, in_c, 1, 1, dtype)
                         if needs_proj else None),
                   stride_f=stride_f)


def residual_block_forward(x: Tensor, p: ResidualBlockParams,
                           mask: SequenceMask) -> Tensor:
    o = tc.relu(utterance_batchnorm(x, mask, p.bn1))
    h = conv2d(o, p.conv1, stride_f=p.stride_f)
    h = tc.relu(utterance_batchnorm(h, mask, p.bn2))
    h = apply_mask(conv2d(h, p.conv2), mask, time_axis=-1)
    if p.proj is None:
        return tc.add(x, h)
    # a 1x1 conv of o, which is zero at padding, is zero there too
    return tc.add(conv2d(o, p.proj, stride_f=p.stride_f), h)


@dataclass
class WRCNNParams:
    in_freq: int
    stem: Tensor  # [base_channels, N_PLANES, k, k]
    blocks: list
    bn: NormParams
    w_out: Tensor  # [out_dim, block_channels[-1] * out_freq(in_freq)]
    b_out: Tensor

    @classmethod
    def create(cls, cfg: WRCNNConfig, in_freq: int, out_dim: int,
               rng: np.random.Generator,
               dtype=np.float32) -> "WRCNNParams":
        chans = cfg.block_channels
        blocks = []
        in_c = cfg.base_channels
        for out_c, s in zip(chans, cfg.strides):
            blocks.append(ResidualBlockParams.create(
                in_c, out_c, s, cfg.kernel, rng, dtype))
            in_c = out_c
        flat_dim = chans[-1] * cfg.out_freq(in_freq)
        return cls(in_freq=in_freq,
                   stem=he_conv(rng, cfg.base_channels, N_PLANES,
                                cfg.kernel, cfg.kernel, dtype),
                   blocks=blocks,
                   bn=NormParams.create(chans[-1], dtype=dtype),
                   w_out=glorot(rng, out_dim, flat_dim, dtype),
                   b_out=tc.parameter(np.zeros(out_dim), dtype=dtype))


def wrcnn_forward(x: Tensor, p: WRCNNParams, mask: SequenceMask) -> Tensor:
    """[B, 3, F, T] feature planes to [B, T, out_dim] frame vectors."""
    if x.ndim != 4:
        raise ShapeError(f"frontend expects [B, C, F, T], got {x.shape}")
    if x.shape[1:3] != (N_PLANES, p.in_freq):
        raise ShapeError(
            f"input planes {x.shape[1]} x {x.shape[2]} do not match the "
            f"configured {N_PLANES} x {p.in_freq}")
    b, _, _, t = x.shape
    # mask first: the stem's time window must see zeros, not raw padding
    h = conv2d(apply_mask(x, mask, time_axis=-1), p.stem)
    for blk in p.blocks:
        h = residual_block_forward(h, blk, mask)
    h = utterance_batchnorm(h, mask, p.bn)
    h = tc.transpose(h, (0, 3, 1, 2))  # [B, T, C, F']
    h = tc.reshape(h, (b, t, p.w_out.shape[1]))
    h = apply_mask(tc.linear(h, p.w_out, p.b_out), mask)
    return tc.elu(h)
