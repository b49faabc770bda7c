"""The three benchmark workloads.

Each workload builds every input from the seed in ``prepare`` and hands the
library only those inputs. ``run_op`` then performs one operation, a closed
loop with one client: the caller starts the next operation only after this
one returned. It returns the operation's wall seconds, the frames it
processed and its output, which ``check`` then verifies, raising
``CheckFailed`` when it is wrong.

Every call into ucam goes through a module attribute looked up at call time
(``training.fit``, ``data.read_features``, ...), so the tracer's rebinding
reaches it.
"""

from __future__ import annotations

import math
import os
import time

import numpy as np

from ucam import adaptation, data, model, training
from ucam.rng import keyed

N_SENONES = 10
FEAT_DIM = 16
BATCH = 4


class CheckFailed(Exception):
    """An operation returned, but its output is wrong."""


def utterances(seed: int, n: int, t_range: tuple[int, int], n_speakers: int,
               speaker_offset: int, utt_offset: int) -> list:
    """``n`` synthetic utterances whose lengths cover ``t_range`` evenly.

    One length is drawn from each of ``n`` equal strata of the range, in
    shuffled order. Every seed so gets the same mix of lengths, and so the
    same amount of work, while lengths, labels and features still change
    with the seed. Speaker ``k % n_speakers`` records utterance ``k``.
    """
    lo, hi = t_range
    r = keyed(seed, "bench-lengths", utt_offset)
    lengths = lo + ((np.arange(n) + r.random(n)) * (hi - lo + 1)
                    / n).astype(np.int64)
    r.shuffle(lengths)
    return [data.synth_corpus(
        seed, n_speakers=1, n_classes=N_SENONES, n_utts=1,
        feat_dim=FEAT_DIM, t_range=(int(t), int(t)),
        speaker_offset=speaker_offset + k % n_speakers,
        utt_offset=utt_offset + k).utts[0] for k, t in enumerate(lengths)]


def _same_weights(a, b) -> bool:
    """Whether two ModelParams hold bit-identical tensors."""
    return all(x.data.dtype == y.data.dtype and np.array_equal(x.data, y.data)
               for (_, x), (_, y) in zip(a.named_parameters(),
                                         b.named_parameters()))


class TrainDesk:
    """``fit`` from a fresh model: 32 steps with dev evals and checkpoints.

    32 training utterances make 8 steps an epoch, so a fit covers 4 whole
    epochs and its trained frame count is known without reading its log.
    """

    name = "train_desk"
    request = "training.step"
    steps, eval_every, n_train, n_dev = 32, 8, 32, 16

    def __init__(self, seed: int, work_dir: str):
        self.seed = seed
        self.work_dir = work_dir
        self.history = None
        self.dev_acc = None

    def prepare(self) -> None:
        utts = utterances(self.seed, self.n_train + self.n_dev, (20, 40),
                          n_speakers=4, speaker_offset=0, utt_offset=0)
        self.train = utts[:self.n_train]
        self.dev = utts[self.n_train:]
        self.cfg = model.desk_config()
        self.tcfg = training.TrainConfig(
            steps=self.steps, batch_size=BATCH, warmup=16, lr_factor=0.5,
            eval_every=self.eval_every, seed=self.seed)
        epochs = self.steps * BATCH // self.n_train
        self.frames = epochs * sum(u.length for u in self.train)
        self.out_dir = os.path.join(self.work_dir, "fit")
        os.makedirs(self.out_dir, exist_ok=True)

    def inputs(self) -> list[np.ndarray]:
        return [u.feats for u in self.train + self.dev]

    def run_op(self, i: int):
        params = model.ModelParams.create(self.cfg,
                                          rng=keyed(self.seed, "init"))
        t0 = time.perf_counter()
        report = training.fit(params, self.train, self.dev, self.tcfg,
                              self.out_dir)
        return time.perf_counter() - t0, self.frames, (params, report)

    def check(self, i: int, out) -> None:
        params, report = out
        history = report["history"]
        if not all(math.isfinite(loss) for _, _, loss, _ in history):
            raise CheckFailed("non-finite training loss")
        ck = model.load_checkpoint(os.path.join(self.out_dir, "last.ckpt"))
        if not _same_weights(ck.params, params):
            raise CheckFailed("last.ckpt does not reload bit-identical")
        if self.history is None:
            self.history = history
            self.dev_acc = history[-1][3][1]
        elif history != self.history:
            raise CheckFailed("a repeated fit of the same seed diverged")


class AdaptFrozen:
    """Speaker sessions as ``ucam adapt`` runs them, over a pool of speakers.

    A session: load_checkpoint, read_features of one unseen speaker's UCFD
    file, adapt_speaker, save_lin. Session ``i`` uses speaker ``i % pool``.
    """

    name = "adapt_frozen"
    request = "bench.op"
    pool, utts_per_speaker, iterations, epochs = 6, 16, 3, 2

    def __init__(self, seed: int, work_dir: str):
        self.seed = seed
        self.work_dir = work_dir

    def prepare(self) -> None:
        self.cfg = model.desk_config()
        params = model.ModelParams.create(self.cfg,
                                          rng=keyed(self.seed, "init"))
        self.ckpt = os.path.join(self.work_dir, "model.ckpt")
        model.save_checkpoint(params, self.ckpt)
        self.files, self.frames, self.corpora = [], [], []
        for s in range(self.pool):
            corpus = data.Corpus(
                utterances(self.seed, self.utts_per_speaker, (20, 40),
                           n_speakers=1, speaker_offset=1000 + s,
                           utt_offset=100000 + s * self.utts_per_speaker),
                feat_dim=FEAT_DIM, n_classes=N_SENONES)
            path = os.path.join(self.work_dir, f"spk{s}.ucfd")
            data.write_features(path, corpus)
            self.files.append(path)
            self.corpora.append(corpus)
            # adapt_speaker holds out every fourth utterance
            adapt = sum(u.length for k, u in enumerate(corpus.utts)
                        if k % 4 != 3)
            self.frames.append(self.iterations * self.epochs * adapt)

    def inputs(self) -> list[np.ndarray]:
        return [u.feats for c in self.corpora for u in c.utts]

    def run_op(self, i: int):
        s = i % self.pool
        lin_path = os.path.join(self.work_dir, f"lin{s}.bin")
        t0 = time.perf_counter()
        ck = model.load_checkpoint(self.ckpt)
        corpus = data.read_features(self.files[s])
        lin, report = adaptation.adapt_speaker(
            ck.params, corpus.utts, iterations=self.iterations,
            epochs=self.epochs, lr=1e-3, batch_size=BATCH, seed=self.seed)
        adaptation.save_lin(lin, lin_path)
        return (time.perf_counter() - t0, self.frames[s],
                (ck.params, corpus, lin, report, lin_path))

    def check(self, i: int, out) -> None:
        params, corpus, lin, report, lin_path = out
        fresh = model.load_checkpoint(self.ckpt)
        if not _same_weights(fresh.params, params):
            raise CheckFailed("adapt_speaker changed a model weight")
        heldout = corpus.utts[3::4]
        identity = adaptation.LinTransform(FEAT_DIM, heldout[0].speaker)
        err = adaptation.frame_error(params, heldout, identity, BATCH)
        if err != report["initial_error"]:
            raise CheckFailed(f"initial_error {report['initial_error']} != "
                              f"frame_error under identity {err}")
        if len(report["iterations"]) != self.iterations or not all(
                0.0 <= e["error"] <= 1.0 for e in report["iterations"]):
            raise CheckFailed("adaptation report is incomplete")
        if not np.array_equal(adaptation.load_lin(lin_path).matrix(),
                              lin.matrix()):
            raise CheckFailed("saved LIN does not reload bit-identical")


class EvalLong:
    """No-grad ``evaluate`` calls on 4 long utterances each.

    A pool of 8 batches, grouped by length as a decoder would to pad
    little; call ``i`` scores batch ``i % 8``. The first call on
    each batch also scores its utterances one at a time, which must give
    the batched result: padding may not change what a frame scores.
    """

    name = "eval_long"
    request = "bench.op"
    pool = 8

    def __init__(self, seed: int, work_dir: str):
        self.seed = seed
        self.work_dir = work_dir
        self.results: dict[int, tuple[float, float]] = {}

    def prepare(self) -> None:
        self.cfg = model.desk_config()
        path = os.path.join(self.work_dir, "model.ckpt")
        model.save_checkpoint(model.ModelParams.create(
            self.cfg, rng=keyed(self.seed, "init")), path)
        self.params = model.load_checkpoint(path).params
        utts = sorted(utterances(self.seed, self.pool * BATCH, (200, 400),
                                 n_speakers=4, speaker_offset=500,
                                 utt_offset=200000),
                      key=lambda u: u.length)
        self.batches = [utts[k:k + BATCH] for k in range(0, len(utts), BATCH)]

    def inputs(self) -> list[np.ndarray]:
        return [u.feats for b in self.batches for u in b]

    def run_op(self, i: int):
        k = i % self.pool
        utts = self.batches[k]
        t0 = time.perf_counter()
        result = training.evaluate(self.params, utts, batch_size=BATCH)
        return (time.perf_counter() - t0, sum(u.length for u in utts),
                (k, utts, result))

    def check(self, i: int, out) -> None:
        k, utts, result = out
        nll, acc = result
        if not (math.isfinite(nll) and 0.0 <= acc <= 1.0):
            raise CheckFailed(f"evaluate returned ({nll}, {acc})")
        first = self.results.setdefault(k, result)
        if result != first:
            raise CheckFailed(f"batch {k} scored {result}, earlier {first}")
        if first is not result:
            return
        frames = [u.length for u in utts]
        singles = [training.evaluate(self.params, [u], batch_size=1)
                   for u in utts]
        nll1 = sum(n * f for (n, _), f in zip(singles, frames)) / sum(frames)
        right1 = sum(round(a * f) for (_, a), f in zip(singles, frames))
        if abs(nll - nll1) > 1e-5 * max(1.0, abs(nll1)) \
                or round(acc * sum(frames)) != right1:
            raise CheckFailed(f"batch {k}: batched ({nll}, {acc}) differs "
                              f"from per-utterance ({nll1}, "
                              f"{right1 / sum(frames)})")


WORKLOADS = {w.name: w for w in (TrainDesk, AdaptFrozen, EvalLong)}
