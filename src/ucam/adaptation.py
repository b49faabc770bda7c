"""Test-time speaker adaptation through a linear input network.

A LIN is a single trainable [F, F] matrix on a speaker's static features,
initialized to identity so the unadapted model is the exact starting
point. Adaptation is unsupervised: the model pseudo-labels the speaker's
utterances with its own argmax decisions, then only the LIN is trained to
fit those labels while every model weight stays frozen. Re-labeling and
retraining from a fresh identity repeats for a few iterations.

Every batch comes from ``batch_pad``, as in ``fit``, and one function
warps each of its planes (statics, deltas and delta-deltas) by the LIN,
so a training step, a pseudo-label and a held-out error see the same bits
for the same LIN. The delta regression is linear, so this equals warping
the statics before it, up to rounding.

A session runs each batch of B >= 2 utterances in two halves of whole
utterances: the first ``ceil(B / 2)`` on the calling process, the last
``B // 2`` on one worker process forked once the model is frozen, which
inherits the model, so no weight is sent. Each half keeps the batch's
padded T, and every op of the frozen model computes an utterance from
its own rows alone, so no bit depends on the split: a score is an
argmax per frame, and a step scales both halves' loss by the whole
batch's valid frames and adds the LIN's gradient terms of both in the
order one pass over the batch adds them.
"""

from __future__ import annotations

import numpy as np

from . import serial
from . import tensor as tc
from . import training
from .data import Batch, batch_pad, pad_to_longest
from .errors import ConfigError, ShapeError, StructureError
from .model import ModelParams, model_forward
from .rng import keyed
from .training import AdamState, check_lr, masked_cross_entropy


class LinTransform:
    """Square input transform for one speaker."""

    def __init__(self, feat_dim: int, speaker: str = ""):
        if feat_dim < 1:
            raise ConfigError(f"feat_dim must be >= 1, got {feat_dim}")
        self.speaker = speaker
        self.w = tc.parameter(np.eye(feat_dim, dtype=np.float32))

    @property
    def feat_dim(self) -> int:
        return self.w.shape[0]

    def matrix(self) -> np.ndarray:
        return self.w.data


def _warp(w: np.ndarray, batch: Batch) -> np.ndarray:
    """The LIN ``w`` [F, F] on every plane of a batch's feats [B, P, F, T].

    Utterance b of n frames gets ``w @ feats[b, :, :, :n]`` and zeros
    beyond n.
    """
    feats = batch.feats
    f = feats.shape[-2]
    if w.shape != (f, f):
        raise ShapeError(f"a LIN of shape {w.shape} cannot warp planes "
                         f"{feats.shape}: it must be [{f}, {f}]")
    tc.check_same_dtype("LIN", w, feats)
    out = np.zeros_like(feats)
    for b, n in enumerate(batch.mask.lengths):
        out[b, ..., :n] = w @ feats[b, ..., :n]
    return out


def _dw_terms(g: np.ndarray, feats: np.ndarray, lengths) -> list:
    """dW's terms for the LIN's output gradient ``g``: ``g[b, p, :, :n] @
    feats[b, p, :, :n].T`` over the valid frames, utterance by utterance,
    then plane by plane. dW adds them left to right."""
    return [g[b, p, :, :n] @ feats[b, p, :, :n].T
            for b, n in enumerate(lengths) for p in range(feats.shape[1])]


def lin_batch(batch: Batch, lin: LinTransform) -> tc.Tensor:
    """The LIN on every plane of a ``batch_pad`` batch, as one graph node.

    The forward is ``_warp``; dW adds the ``_dw_terms``. The op name is
    "matmul".
    """
    feats, lengths = batch.feats, batch.mask.lengths

    def bwd(g):
        terms = _dw_terms(g, feats, lengths)
        return (sum(terms[1:], terms[0]),)
    return tc.from_op(_warp(lin.w.data, batch), (lin.w,), bwd, "matmul")


def _lin_terms(params: ModelParams, batch: Batch, w: np.ndarray,
               frames: int) -> list:
    """A step's ``_dw_terms`` over a batch, or part of one, whose labels are
    the pseudo-labels: the model's loss on its planes warped by the LIN
    ``w``, a mean over ``frames`` valid frames, backpropagated to the
    warped planes."""
    x = tc.parameter(_warp(w, batch))
    out = model_forward(x, batch.mask, params)
    tc.backward(masked_cross_entropy(out, batch.labels, batch.mask, frames))
    return _dw_terms(x.grad, batch.feats, batch.mask.lengths)


def _decide(params: ModelParams, batch: Batch, w: np.ndarray) -> np.ndarray:
    """Frame argmax [B, T] of a batch with its planes warped by the LIN w."""
    x = tc.tensor(_warp(w, batch))
    return model_forward(x, batch.mask, params).data.argmax(-1)


class _Session:
    """Where a speaker's batches run: on this process and, once
    ``fork_worker`` started one, on a worker process.

    ``halves(fn, batch, *args)`` returns ``fn(params, part, *args)`` for
    the batch's first ``ceil(B / 2)`` utterances, computed here, and then
    for its last ``B // 2``, computed by the worker meanwhile; or, for a
    batch of one utterance or with no worker, for the whole batch.
    """

    def __init__(self, params: ModelParams):
        self.params = params
        self.worker = None

    def fork_worker(self) -> None:
        """Fork the worker where ``training.can_fork`` allows. It serves
        requests until its pipe closes."""
        if training.can_fork():
            self.worker = training.Child(
                "adaptation worker", lambda conn: _serve(conn, self.params))

    def halves(self, fn, batch: Batch, *args) -> list:
        b = batch.mask.batch
        if self.worker is None or b < 2:
            return [fn(self.params, batch, *args)]
        cut = b - b // 2
        self.worker.send((tc.current_modes(), fn, batch.rows(cut, b), args))
        first = fn(self.params, batch.rows(0, cut), *args)
        return [first, self.worker.recv()]

    def close(self) -> None:
        """Close the worker's pipe and wait for it to exit."""
        if self.worker is not None:
            self.worker.close()


def _serve(conn, params: ModelParams) -> None:
    """The worker's life: each request ``(modes, fn, part, args)`` is
    answered with ``fn(params, part, *args)`` run inside the caller's
    modes, until the pipe ends."""
    while True:
        try:
            modes, fn, part, args = conn.recv()
        except EOFError:
            return
        training.answer(conn, modes(fn), params, part, *args)


def _decisions(params: ModelParams, utts, lin: LinTransform,
               batch_size: int, session):
    """(batch, frame argmax [B, T]) for each ``batch_pad`` batch of utts,
    its planes warped by the LIN as a step warps them."""
    session = session or _Session(params)
    for batch in batch_pad(utts, batch_size=batch_size):
        with tc.no_grad():
            parts = session.halves(_decide, batch, lin.matrix())
        yield batch, np.concatenate(parts)


def pseudo_label(params: ModelParams, utts, lin: LinTransform,
                 batch_size: int = 4, *, session=None) -> list:
    """Frame-level argmax decisions under the current LIN, one [T] per utt.
    ``adapt_speaker`` passes its session, whose worker scores the second
    half of each batch."""
    return [pred[i, :n].astype(np.int64)
            for batch, pred in _decisions(params, utts, lin, batch_size,
                                          session)
            for i, n in enumerate(batch.mask.lengths)]


def frame_error(params: ModelParams, utts, lin: LinTransform,
                batch_size: int = 4, *, session=None) -> float:
    """Fraction of valid frames whose argmax differs from the true label.
    ``adapt_speaker`` passes its session, as to ``pseudo_label``."""
    if not utts:
        raise ConfigError("frame_error needs at least one utterance, got none")
    wrong = 0
    for batch, pred in _decisions(params, utts, lin, batch_size, session):
        ind = batch.mask.indicator()
        wrong += int((pred[ind] != batch.labels[ind]).sum())
    return wrong / sum(u.length for u in utts)


def adapt_speaker(params: ModelParams, utts, heldout=None,
                  iterations: int = 3, epochs: int = 10, lr: float = 1e-4,
                  batch_size: int = 4, seed: int = 0):
    """Iterative unsupervised LIN adaptation for one speaker.

    ``utts`` are the adaptation recordings; ``heldout`` (default: every
    fourth utterance, removed from the adaptation set) is only used to
    report frame error per iteration. With fewer than 4 utterances the
    default held-out set is the adaptation set itself, so its error is
    measured on the data the LIN was fit to. Returns (LinTransform, report).
    Model parameters are frozen throughout and restored bit-identical.
    The session's worker, if one forked, has exited and been reaped when
    this returns or raises.
    """
    utts = list(utts)
    if not utts:
        raise ConfigError("adapt_speaker requires at least one utterance")
    if iterations < 0 or epochs < 1:
        # zero iterations is allowed: the report then reduces to a plain
        # evaluation of the unadapted model
        raise ConfigError("iterations must be >= 0 and epochs >= 1")
    check_lr("lr", lr)
    if heldout is None:
        heldout = utts[3::4] or utts
        utts = [u for i, u in enumerate(utts) if i % 4 != 3] or utts
    heldout = list(heldout)
    speakers = {u.speaker for u in utts} | {u.speaker for u in heldout}
    if len(speakers) != 1:
        raise ConfigError(f"adaptation is per speaker; got {sorted(speakers)}")
    speaker = utts[0].speaker
    feat_dim = utts[0].feats.shape[0]

    prior = [(t, t.requires_grad) for _, t in params.named_parameters()]
    params.set_requires_grad(False)
    session = _Session(params)
    try:
        if batch_size > 1:  # a batch of one utterance has no second half
            session.fork_worker()
        lin = LinTransform(feat_dim, speaker)
        report = {"speaker": speaker,
                  "initial_error": frame_error(params, heldout, lin,
                                               batch_size, session=session),
                  "iterations": []}
        for it in range(1, iterations + 1):
            targets = pseudo_label(params, utts, lin, batch_size,
                                   session=session)
            lin = LinTransform(feat_dim, speaker)  # fresh identity
            entry = {"iteration": it}
            adam = AdamState([("lin.w", lin.w)])
            for ep in range(epochs):
                order = keyed(seed, f"adapt-{speaker}-{it}",
                              ep).permutation(len(utts))
                for start in range(0, len(utts), batch_size):
                    idx = order[start:start + batch_size]
                    batch = next(batch_pad([utts[i] for i in idx],
                                           batch_size=len(idx)))
                    batch = Batch(batch.feats, pad_to_longest(
                        [targets[i] for i in idx]), batch.mask)
                    terms = [t for part in session.halves(
                        _lin_terms, batch, lin.matrix(),
                        batch.mask.valid_frames()) for t in part]
                    lin.w.grad = sum(terms[1:], terms[0])
                    adam.apply(lr)
                    tc.zero_grad(adam.named)
            entry["error"] = frame_error(params, heldout, lin, batch_size,
                                         session=session)
            report["iterations"].append(entry)
    finally:
        session.close()
        for t, flag in prior:
            t.requires_grad = flag
    return lin, report


# ---------------------------------------------------------------------------
# persistence


def save_lin(lin: LinTransform, path) -> None:
    header = {"kind": "lin", "speaker": lin.speaker,
              "feat_dim": lin.feat_dim}
    serial.write_container(path, header,
                           [(f"lin.{lin.speaker}", lin.w.data)])


def load_lin(path) -> LinTransform:
    header, tensors = serial.read_container(path, "lin")
    speaker, feat_dim = header.get("speaker"), header.get("feat_dim")
    if not isinstance(speaker, str):
        raise StructureError(f"LIN file header needs a speaker name, got "
                             f"{speaker!r}")
    if type(feat_dim) is not int or feat_dim < 1:
        raise StructureError(f"LIN file header needs a positive integer "
                             f"feat_dim, got {feat_dim!r}")
    name = f"lin.{speaker}"
    if name not in tensors:
        raise StructureError(f"LIN file is missing tensor '{name}'")
    arr = tensors[name]
    if arr.shape != (feat_dim, feat_dim):
        raise StructureError(f"LIN tensor must be square [{feat_dim}, "
                             f"{feat_dim}] for the header's feat_dim, got "
                             f"{arr.shape}")
    lin = LinTransform(feat_dim, speaker)
    lin.w.data = arr
    return lin
