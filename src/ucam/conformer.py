"""Conformer encoder block.

Each block runs, in order: a half-step feed-forward module, scaled sinusoidal
position information, multi-head self-attention, a time-depthwise convolution
module, a second half-step feed-forward module, and a closing LayerNorm.
Every sub-module is pre-norm with utterance-wise statistics and adds its
input back as a residual. Padding never reaches a valid frame, and every
branch ends at exactly zero in the padded frames, so a zero-padded input
stays zero-padded; the ``masking`` module says where the masks go.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import tensor as tc
from .errors import ConfigError, ShapeError
from .masking import (NormParams, SequenceMask, apply_mask, masked_softmax,
                      utterance_batchnorm, utterance_layernorm)
from .tensor import Tensor

FFN_EXPANSION = 4


def glorot(rng: np.random.Generator, rows: int, cols: int,
           dtype=np.float32) -> Tensor:
    limit = np.sqrt(6.0 / (rows + cols))
    return tc.parameter(rng.uniform(-limit, limit, size=(rows, cols)),
                        dtype=dtype)


# ---------------------------------------------------------------------------
# feed-forward module


@dataclass
class FFNParams:
    """Pre-norm two-layer feed-forward net with a fixed 4x inner expansion."""

    norm: NormParams
    w1: Tensor  # [d_ff, d_attn]
    b1: Tensor  # [d_ff]
    w2: Tensor  # [d_attn, d_ff]
    b2: Tensor  # [d_attn]

    @classmethod
    def create(cls, d_attn: int, rng: np.random.Generator,
               dtype=np.float32) -> "FFNParams":
        d_ff = FFN_EXPANSION * d_attn
        return cls(norm=NormParams.create(d_attn, dtype=dtype),
                   w1=glorot(rng, d_ff, d_attn, dtype),
                   b1=tc.parameter(np.zeros(d_ff), dtype=dtype),
                   w2=glorot(rng, d_attn, d_ff, dtype),
                   b2=tc.parameter(np.zeros(d_attn), dtype=dtype))


def ffn_forward(x: Tensor, p: FFNParams, mask: SequenceMask,
                dropout_p: float = 0.0,
                rng: np.random.Generator | None = None) -> Tensor:
    """x + half of the dropped-out feed-forward branch."""
    h = utterance_layernorm(x, mask, p.norm)
    h = tc.dropout(tc.swish(tc.linear(h, p.w1, p.b1)), dropout_p, rng)
    h = apply_mask(tc.linear(h, p.w2, p.b2), mask)
    h = tc.dropout(h, dropout_p, rng)
    return tc.add(x, tc.scale(h, 0.5))


# ---------------------------------------------------------------------------
# position information


def positional_encoding(t: int, d_attn: int, dtype=np.float32) -> Tensor:
    """Sinusoidal position table [t, d_attn]: sin on even columns, cos odd."""
    if d_attn % 2 != 0:
        raise ConfigError(
            f"positional encoding needs an even dimension, got {d_attn}")
    pos = np.arange(t, dtype=np.float64)[:, None]
    i = np.arange(0, d_attn, 2, dtype=np.float64)[None, :]
    angle = pos / np.power(10000.0, i / d_attn)
    pe = np.empty((t, d_attn))
    pe[:, 0::2] = np.sin(angle)
    pe[:, 1::2] = np.cos(angle)
    return tc.tensor(pe.astype(dtype))


def add_position(x: Tensor, mask: SequenceMask) -> Tensor:
    """x + PE/sqrt(d): the table is scaled down rather than the input up.

    Keeping the input at its own magnitude and dividing the table preserves
    the utterance-normalized scale of the features; padded frames are
    re-masked so the table never leaks into padding.
    """
    if x.ndim != 3:
        raise ShapeError(f"add_position expects [B, T, D], got {x.shape}")
    _, t, d = x.shape
    scaled = _scaled_position(t, d, x.data.dtype)
    return apply_mask(tc.add_const(x, scaled[None, :, :], op="add_position"),
                      mask)


@functools.lru_cache(maxsize=16)
def _scaled_position(t: int, d: int, dtype: np.dtype) -> np.ndarray:
    """PE/sqrt(d) as a read-only [t, d] array, built once per key: every
    block of every forward adds the same table."""
    pe = positional_encoding(t, d, dtype=dtype).data
    scaled = (pe / np.sqrt(d)).astype(dtype, copy=False)
    scaled.flags.writeable = False
    return scaled


# ---------------------------------------------------------------------------
# multi-head self-attention


@dataclass
class MHSAParams:
    """Biasless projections; each weight holds all heads stacked on axis 0."""

    norm: NormParams
    wq: Tensor  # [d_attn, d_attn]
    wk: Tensor
    wv: Tensor
    wo: Tensor
    heads: int

    @classmethod
    def create(cls, d_attn: int, heads: int, rng: np.random.Generator,
               dtype=np.float32) -> "MHSAParams":
        return cls(norm=NormParams.create(d_attn, dtype=dtype),
                   wq=glorot(rng, d_attn, d_attn, dtype),
                   wk=glorot(rng, d_attn, d_attn, dtype),
                   wv=glorot(rng, d_attn, d_attn, dtype),
                   wo=glorot(rng, d_attn, d_attn, dtype),
                   heads=heads)


def mhsa_forward(x: Tensor, p: MHSAParams, mask: SequenceMask,
                 dropout_p: float = 0.0,
                 rng: np.random.Generator | None = None) -> Tensor:
    """x + Dropout(attention branch).

    Attention scores are scaled by 1/sqrt(d_attn), the full model dimension,
    not by the per-head dimension. Padded queries and keys are excluded by
    the masked softmax; because the projections are biasless and the pre-norm
    zeroes padding, padded frames contribute exact zeros throughout.
    """
    if x.ndim != 3:
        raise ShapeError(f"attention expects [B, T, D], got {x.shape}")
    b, t, d = x.shape
    if d != p.wq.shape[1]:
        raise ShapeError(f"input dim {d} does not match weights for "
                         f"{p.wq.shape[1]}")
    n_heads, dh = p.heads, d // p.heads

    xn = utterance_layernorm(x, mask, p.norm)

    def project(w):
        y = tc.linear(xn, w)
        return tc.transpose(tc.reshape(y, (b, t, n_heads, dh)), (0, 2, 1, 3))

    q = project(p.wq)
    k = project(p.wk)
    v = project(p.wv)
    scores = tc.scale(tc.matmul(q, tc.transpose(k, (0, 1, 3, 2))),
                      1.0 / np.sqrt(d))
    attn = masked_softmax(scores, mask)
    attn = tc.dropout(attn, dropout_p, rng)
    ctx = tc.matmul(attn, v)  # [B, H, T, dh]
    ctx = tc.reshape(tc.transpose(ctx, (0, 2, 1, 3)), (b, t, d))
    out = tc.dropout(tc.linear(ctx, p.wo), dropout_p, rng)
    return tc.add(x, out)


# ---------------------------------------------------------------------------
# convolution module


def depthwise_conv1d(x: Tensor, w: Tensor) -> Tensor:
    """Per-channel 1-D convolution over time for [B, C, T] input.

    ``w`` is [C, K]. Zero padding of (K-1)//2 left and the remainder right
    preserves T for any K; for even K the extra padded frame is on the right.
    """
    if x.ndim != 3 or w.ndim != 2:
        raise ShapeError(f"depthwise conv expects [B, C, T] and [C, K], "
                         f"got {x.shape} and {w.shape}")
    if x.shape[1] != w.shape[0]:
        raise ShapeError(f"channel counts disagree: input {x.shape[1]}, "
                         f"kernel {w.shape[0]}")
    tc.check_same_dtype("depthwise conv", x.data, w.data)
    b, c, t = x.shape
    kk = w.shape[1]
    pl = (kk - 1) // 2
    xp = np.zeros((b, c, t + kk - 1), x.data.dtype)
    xp[:, :, pl:pl + t] = x.data
    wd = w.data
    # sum the taps in xp's C order, where each tap reads contiguous memory
    acc = np.zeros(x.shape, x.data.dtype)
    tap = np.empty_like(acc)  # one tap's products at a time
    for j in range(kk):
        acc += np.multiply(wd[:, j][None, :, None], xp[:, :, j:j + t], out=tap)
    # the output keeps the input's memory order, on which the rounding of
    # later sums over it depends
    out = np.empty_like(x.data)
    out[...] = acc

    need_x, need_w = tc.needs_grad(x), tc.needs_grad(w)
    # xp is kept only for dW, the kernel only for dX
    xp_shape, dtype = xp.shape, xp.dtype
    xp, wd = xp if need_w else None, wd if need_x else None

    def bwd(g):
        # the [B, C, T, K] window view of xp holds every tap's input
        dw = (np.einsum("bct,bctk->ck", g, sliding_window_view(xp, kk, -1))
              if need_w else None)
        if not need_x:
            return None, dw
        dxp = np.zeros(xp_shape, dtype)
        gc = np.ascontiguousarray(g)  # one copy, then contiguous tap reads
        tap = np.empty_like(gc)
        for j in range(kk):
            dxp[:, :, j:j + t] += np.multiply(gc, wd[:, j][None, :, None],
                                              out=tap)
        return dxp[:, :, pl:pl + t], dw

    return tc.from_op(out, (x, w), bwd, "depthwise_conv1d")


@dataclass
class ConvModuleParams:
    """Pointwise-in, gated, depthwise-over-time, normalized, pointwise-out."""

    norm: NormParams
    pw1_w: Tensor  # [2*d_attn, d_attn]
    pw1_b: Tensor  # [2*d_attn]
    dw_w: Tensor   # [d_attn, kernel]
    bn: NormParams
    pw2_w: Tensor  # [d_attn, d_attn]
    pw2_b: Tensor  # [d_attn]

    @classmethod
    def create(cls, d_attn: int, kernel: int, rng: np.random.Generator,
               dtype=np.float32) -> "ConvModuleParams":
        bound = 1.0 / np.sqrt(kernel)
        return cls(norm=NormParams.create(d_attn, dtype=dtype),
                   pw1_w=glorot(rng, 2 * d_attn, d_attn, dtype),
                   pw1_b=tc.parameter(np.zeros(2 * d_attn), dtype=dtype),
                   dw_w=tc.parameter(
                       rng.uniform(-bound, bound, size=(d_attn, kernel)),
                       dtype=dtype),
                   bn=NormParams.create(d_attn, dtype=dtype),
                   pw2_w=glorot(rng, d_attn, d_attn, dtype),
                   pw2_b=tc.parameter(np.zeros(d_attn), dtype=dtype))


def conv_module_forward(x: Tensor, p: ConvModuleParams, mask: SequenceMask,
                        dropout_p: float = 0.0,
                        rng: np.random.Generator | None = None) -> Tensor:
    """x + Dropout(conv branch).

    The branch expands to 2d channels, gates down to d with a GLU (first half
    value, second half gate), convolves each channel over time, normalizes
    per utterance, applies Swish and projects back. The depthwise window
    reads masked GLU input, so it never sees nonzero padding; its own output
    needs no mask, because the BatchNorm after it masks its input.
    """
    h = utterance_layernorm(x, mask, p.norm)
    h = apply_mask(tc.linear(h, p.pw1_w, p.pw1_b), mask)
    h = tc.glu(h, axis=-1)
    h = tc.transpose(h, (0, 2, 1))  # [B, d, T] for the time convolution
    h = depthwise_conv1d(h, p.dw_w)
    h = tc.swish(utterance_batchnorm(h, mask, p.bn))
    h = tc.transpose(h, (0, 2, 1))
    h = apply_mask(tc.linear(h, p.pw2_w, p.pw2_b), mask)
    h = tc.dropout(h, dropout_p, rng)
    return tc.add(x, h)


# ---------------------------------------------------------------------------
# full block


@dataclass
class ConformerBlockParams:
    ffn1: FFNParams
    mhsa: MHSAParams
    conv: ConvModuleParams
    ffn2: FFNParams
    final_norm: NormParams

    @classmethod
    def create(cls, d_attn: int, rng: np.random.Generator, heads: int,
               kernel: int, dtype=np.float32) -> "ConformerBlockParams":
        return cls(ffn1=FFNParams.create(d_attn, rng, dtype),
                   mhsa=MHSAParams.create(d_attn, heads, rng, dtype),
                   conv=ConvModuleParams.create(d_attn, kernel, rng, dtype),
                   ffn2=FFNParams.create(d_attn, rng, dtype),
                   final_norm=NormParams.create(d_attn, dtype=dtype))


def conformer_block_forward(x: Tensor, p: ConformerBlockParams,
                            mask: SequenceMask, dropout_p: float = 0.0,
                            rng: np.random.Generator | None = None) -> Tensor:
    """One full block; position is added right before attention."""
    h = ffn_forward(x, p.ffn1, mask, dropout_p, rng)
    h = add_position(h, mask)
    h = mhsa_forward(h, p.mhsa, mask, dropout_p, rng)
    h = conv_module_forward(h, p.conv, mask, dropout_p, rng)
    h = ffn_forward(h, p.ffn2, mask, dropout_p, rng)
    return utterance_layernorm(h, mask, p.final_norm)
