"""Sequence masks, utterance-wise LayerNorm/BatchNorm and masked softmax.

Batches of utterances are padded with zeros up to the longest utterance.
Those padded frames are semantically meaningless, so nothing here may let
them leak into an output value, a normalization statistic, or a parameter
gradient. Concretely:

* :func:`apply_mask` zeroes padded frames and blocks their gradients;
* :func:`utterance_layernorm` and :func:`utterance_batchnorm` collect
  statistics from valid frames of each utterance only, treating the batch
  as an independent dimension, and accumulate gamma/beta gradients from
  valid frames only;
* :func:`masked_softmax` gives padded key positions exactly zero attention
  weight.

The models mask a value only where padding could otherwise reach a valid
frame or a module's output: before an op that reads across time without
masking its own input (``conv2d``, ``depthwise_conv1d``, attention), and at
the end of a module's branch. The norms and the softmax mask their own
input, and per-frame ops (linear layers, activations, dropout) never move
a value between frames, so finite junk in front of them needs no mask: it
stays in its padded frame, and the next mask gives it a zero gradient.

A mask is its lengths. Ops clear padding by slicing: each utterance's
padded frames, ``a[b, n:]`` or ``a[b, ..., n:]``, are multiplied by zero
in place (:meth:`SequenceMask.zero_padding`), so they hold what a 0/1
multiply gives: -0.0 under a negative value, NaN under a non-finite one.

BatchNorm here keeps no running statistics: train and eval both normalize
with per-utterance statistics, so results do not depend on how a batch was
assembled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as tc
from .errors import ConfigError, ShapeError
from .tensor import Tensor


@dataclass(eq=False)
class SequenceMask:
    """Valid frames of a padded batch: frame t of utterance b is valid iff
    t < lengths[b]. ``max_len`` None means the longest length. Masks
    compare by identity: a generated ``==`` would compare length arrays,
    whose truth value is ambiguous."""

    lengths: np.ndarray
    max_len: int | None = None

    def __post_init__(self):
        self.lengths = np.asarray(self.lengths, dtype=np.int64)
        if self.lengths.ndim != 1:
            raise ShapeError(f"lengths must be 1-D, got shape {self.lengths.shape}")
        if self.max_len is None:
            self.max_len = int(self.lengths.max(initial=0))
        if self.max_len < 1:
            raise ConfigError(f"max_len must be >= 1, got {self.max_len}")
        if (self.lengths < 1).any() or (self.lengths > self.max_len).any():
            raise ConfigError(
                f"lengths must lie in [1, {self.max_len}], got {self.lengths.tolist()}")

    @property
    def batch(self) -> int:
        return int(self.lengths.shape[0])

    def indicator(self) -> np.ndarray:
        """Boolean [B, T] map of the valid frames, built on each call."""
        return np.arange(self.max_len) < self.lengths[:, None]

    def valid_frames(self) -> int:
        return int(self.lengths.sum())

    def _padded(self, a: np.ndarray, time_axis: int) -> list:
        """Views of each utterance's padded frames in ``a`` (batch on axis
        0, time on ``time_axis``, 1 or -1)."""
        if time_axis not in (1, -1):
            raise ConfigError(f"time_axis must be 1 or -1, got {time_axis}")
        if a.shape[0] != self.batch or a.shape[time_axis] != self.max_len:
            raise ShapeError(
                f"mask for B={self.batch}, T={self.max_len} does not match "
                f"input shape {a.shape} with time_axis={time_axis}")
        return [a[b, n:] if time_axis == 1 else a[b, ..., n:]
                for b, n in enumerate(self.lengths) if n < self.max_len]

    def zero_padding(self, a: np.ndarray, time_axis: int) -> np.ndarray:
        """Multiply ``a``'s padded frames by zero in place; returns ``a``."""
        for view in self._padded(a, time_axis):
            view *= 0
        return a


def apply_mask(x: Tensor, mask: SequenceMask, time_axis: int = 1) -> Tensor:
    """Zero every padded frame; gradients through padding are exactly zero.

    ``time_axis=1`` handles [B, T, ...] layouts, ``time_axis=-1`` the
    convolutional [B, C, T] / [B, C, F, T] layouts. Copies keep their
    source's memory order, which sets the rounding of later sums.
    """
    y = mask.zero_padding(x.data.copy(order="K"), time_axis)
    return tc.from_op(y, (x,), lambda g: (
        mask.zero_padding(g.copy(order="K"), time_axis),), "apply_mask")


NORM_EPS = 1e-5  # the norms' variance floor


@dataclass
class NormParams:
    """Learnable affine transform (scale and shift)."""

    gamma: Tensor
    beta: Tensor

    @classmethod
    def create(cls, dim: int, dtype=np.float32) -> "NormParams":
        return cls(gamma=tc.parameter(np.ones(dim), dtype=dtype),
                   beta=tc.parameter(np.zeros(dim), dtype=dtype))

    @property
    def dim(self) -> int:
        return self.gamma.shape[0]


def _masked_norm(x: Tensor, p: NormParams, mask: SequenceMask, time_axis: int,
                 axes: tuple, counts, cshape: tuple, op: str) -> Tensor:
    """Normalize ``x`` over ``axes`` with statistics of its valid entries.

    ``counts`` is the number of valid entries per statistic, and gamma/beta
    broadcast as ``cshape``. Padding junk, however large, meets no
    statistic; the output is zero at padded frames, and gamma/beta
    gradients accumulate from valid entries only.
    """
    xc = mask.zero_padding(x.data.copy(order="K"), time_axis)
    mu = xc.sum(axis=axes, keepdims=True) / counts
    xc -= mu
    sq = mask.zero_padding(np.square(xc), time_axis)
    var = sq.sum(axis=axes, keepdims=True) / counts
    inv = 1.0 / np.sqrt(var + np.asarray(NORM_EPS, dtype=xc.dtype))
    xhat = np.multiply(xc, inv, out=xc)
    gamma, beta = p.gamma.data.reshape(cshape), p.beta.data.reshape(cshape)
    y = np.multiply(xhat, gamma, out=sq)
    y += beta
    mask.zero_padding(y, time_axis)
    # every axis but the channel axis; all of them when there is one channel
    param_axes = tuple(a for a, n in enumerate(cshape) if n == 1)
    dim = p.dim
    need_x, need_gamma, need_beta = (tc.needs_grad(x), tc.needs_grad(p.gamma),
                                     tc.needs_grad(p.beta))

    def bwd(g):
        gm = mask.zero_padding(g.copy(order="K"), time_axis)
        gx = gm * xhat if need_gamma else None
        dgamma = gx.sum(axis=param_axes).reshape(dim) if need_gamma else None
        dbeta = gm.sum(axis=param_axes).reshape(dim) if need_beta else None
        if not need_x:
            return None, dgamma, dbeta
        # dx = inv * (ghat - mean(ghat) - xhat * mean(ghat * xhat)), cleared
        ghat = np.multiply(gm, gamma, out=gm)
        mean_g = ghat.sum(axis=axes, keepdims=True) / counts
        gx = np.multiply(ghat, xhat, out=gx)
        mean_gx = gx.sum(axis=axes, keepdims=True) / counts
        ghat -= mean_g
        ghat -= np.multiply(xhat, mean_gx, out=gx)
        ghat *= inv
        return mask.zero_padding(ghat, time_axis), dgamma, dbeta

    return tc.from_op(y, (x, p.gamma, p.beta), bwd, op)


def utterance_layernorm(x: Tensor, mask: SequenceMask, p: NormParams) -> Tensor:
    """LayerNorm over [B, T, D] that never reads or writes padded frames.

    Each valid frame is normalized over its D features; the output is zero
    at padded frames and gamma/beta gradients accumulate from valid frames
    only.
    """
    if x.ndim != 3:
        raise ShapeError(f"utterance_layernorm expects [B, T, D], got {x.shape}")
    if x.shape[-1] != p.dim:
        raise ShapeError(f"feature dim {x.shape[-1]} does not match "
                         f"gamma/beta dim {p.dim}")
    return _masked_norm(x, p, mask, 1, (2,), p.dim, (1, 1, p.dim),
                        "utterance_layernorm")


def utterance_batchnorm(x: Tensor, mask: SequenceMask, p: NormParams) -> Tensor:
    """Per-utterance BatchNorm for [B, C, T] or [B, C, F, T] (time last).

    Statistics over the valid time frames (and F, when present) normalize
    each channel of each utterance independently; no statistic crosses the
    batch dimension and none is carried between calls. An utterance of
    length 1 is valid: its zero variance is handled by the eps floor.
    """
    if x.ndim not in (3, 4):
        raise ShapeError(f"utterance_batchnorm expects [B, C, T] or "
                         f"[B, C, F, T], got {x.shape}")
    if x.shape[1] != p.dim:
        raise ShapeError(f"channel dim {x.shape[1]} does not match "
                         f"gamma/beta dim {p.dim}")
    spatial = tuple(range(2, x.ndim))  # (2,) or (2, 3)
    n_spatial = int(np.prod(x.shape[2:-1], initial=1))
    counts = (mask.lengths.astype(x.data.dtype) * n_spatial).reshape(
        -1, *([1] * (x.ndim - 1)))
    cshape = (1, p.dim) + (1,) * (x.ndim - 2)
    return _masked_norm(x, p, mask, -1, spatial, counts, cshape,
                        "utterance_batchnorm")


def masked_softmax(scores: Tensor, mask: SequenceMask) -> Tensor:
    """Softmax over the key axis of [B, H, Tq, Tk] attention scores.

    Padded keys get exactly zero weight; valid query rows sum to one over
    the valid keys; padded query rows come out all-zero (downstream masking
    makes them irrelevant, and zeros keep their gradients clean).
    """
    if scores.ndim != 4 or scores.shape[-1] != scores.shape[-2]:
        raise ShapeError(f"masked_softmax expects square [B, H, T, T] scores, "
                         f"got {scores.shape}")
    # Push masked keys far below the valid scores before the max-shift, then
    # zero them exactly after exponentiation.
    y = scores.data.copy(order="K")
    for keys in mask._padded(y, -1):
        keys -= 1e9
    y -= y.max(axis=-1, keepdims=True)
    np.exp(y, out=y)
    mask.zero_padding(y, -1)
    y /= y.sum(axis=-1, keepdims=True)
    mask.zero_padding(y.swapaxes(-1, -2), -1)  # padded query rows

    def bwd(g):
        # y * (g - sum(g * y))
        d = g * y
        np.subtract(g, d.sum(axis=-1, keepdims=True), out=d)
        d *= y
        return (d,)

    return tc.from_op(y, (scores,), bwd, "masked_softmax")
