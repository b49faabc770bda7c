"""Synthetic corpora, delta features, batching, and feature files.

The synthetic task is frame classification with temporal structure: each
class is a Gaussian bump in feature space, labels follow a sticky Markov
chain, and every speaker observes the features through their own linear
warp. That warp is what speaker adaptation later has to undo, and the
Markov stickiness is what gives temporal context its value.

The model reads three planes per utterance, the mean-normalized statics
and their delta and delta-delta regressions, and ``batch_pad`` zero-pads
them into batches. They depend on the utterance alone: a transform of
them, such as speaker adaptation's input network, is its caller's.

A feature file is a ``serial`` container of kind "features": a header of
feat_dim, n_classes and utts ([utt_id, speaker] pairs), then the records
feats.{i} [F, T] and labels.{i} [T] of utterance i, labels as float32.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import serial
from .errors import ConfigError, DataError, StructureError
from .masking import SequenceMask
from .rng import keyed


@dataclass
class UtteranceRecord:
    utt_id: str
    speaker: str
    feats: np.ndarray   # static features [F, T], float32
    labels: np.ndarray  # [T] int64 in [0, n_classes)

    def __post_init__(self):
        self.feats = np.asarray(self.feats, dtype=np.float32)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.feats.ndim != 2 or self.labels.ndim != 1 \
                or self.feats.shape[1] != self.labels.shape[0]:
            raise DataError(
                f"utterance '{self.utt_id}': features [F, T] must align with "
                f"labels [T], got {self.feats.shape} and {self.labels.shape}")
        if not self.labels.shape[0]:
            raise DataError(f"utterance '{self.utt_id}': no frames")
        if not np.isfinite(self.feats).all():
            raise DataError(f"utterance '{self.utt_id}': non-finite features")

    @property
    def length(self) -> int:
        return self.feats.shape[1]


@dataclass
class Corpus:
    utts: list
    feat_dim: int
    n_classes: int
    class_means: np.ndarray | None = None  # [K, F]; synthetic corpora only
    warps: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.utts)

    def for_speaker(self, speaker: str) -> "Corpus":
        return Corpus(utts=[u for u in self.utts if u.speaker == speaker],
                      feat_dim=self.feat_dim, n_classes=self.n_classes,
                      class_means=self.class_means, warps=self.warps)


def synth_corpus(seed: int, n_speakers: int, n_classes: int, n_utts: int,
                 feat_dim: int, t_range: tuple[int, int] = (20, 40),
                 separation: float = 4.0, warp_strength: float = 0.1,
                 self_loop: float = 0.9, speaker_offset: int = 0,
                 utt_offset: int = 0) -> Corpus:
    """Deterministic synthetic corpus.

    Class means are rescaled so the closest pair sits ``separation`` apart
    (unit noise), which pins the Bayes frame error of a context-free
    classifier. ``speaker_offset`` shifts the speaker-warp key space and
    ``utt_offset`` the utterance key space, so a second corpus can share
    class structure while drawing unseen warps and fresh recordings.
    """
    for name, v in (("n_speakers", n_speakers), ("n_classes", n_classes),
                    ("n_utts", n_utts), ("feat_dim", feat_dim)):
        if v < 1:
            raise ConfigError(f"{name} must be >= 1, got {v}")
    if not np.isfinite([separation, warp_strength]).all():
        raise ConfigError(f"separation and warp_strength must be finite, "
                          f"got {separation} and {warp_strength}")
    t_min, t_max = t_range
    if not 1 <= t_min <= t_max:
        raise ConfigError(f"bad length range {t_range}")
    if not 0.0 < self_loop < 1.0:
        raise ConfigError(f"self-loop probability must be in (0, 1), "
                          f"got {self_loop}")

    means = keyed(seed, "means").standard_normal((n_classes, feat_dim))
    if n_classes > 1:
        d2 = ((means[:, None] - means[None]) ** 2).sum(-1)
        d2[np.diag_indices(n_classes)] = np.inf
        means *= separation / np.sqrt(d2.min())
    means = means.astype(np.float32)

    warps = {}
    for s in range(n_speakers):
        g = keyed(seed, "warp", speaker_offset + s).standard_normal(
            (feat_dim, feat_dim))
        warps[f"spk{speaker_offset + s}"] = (
            np.eye(feat_dim) + warp_strength * g / np.sqrt(feat_dim)
        ).astype(np.float32)

    utts = []
    for i in range(n_utts):
        r = keyed(seed, "utt", utt_offset + i)
        speaker = f"spk{speaker_offset + i % n_speakers}"
        t = int(r.integers(t_min, t_max + 1))
        labels = np.empty(t, dtype=np.int64)
        labels[0] = r.integers(n_classes)
        for j in range(1, t):
            if r.random() < self_loop or n_classes == 1:
                labels[j] = labels[j - 1]
            else:
                step = 1 + r.integers(n_classes - 1)
                labels[j] = (labels[j - 1] + step) % n_classes
        clean = means[labels].T + r.standard_normal((feat_dim, t))
        feats = warps[speaker] @ clean.astype(np.float32)
        utts.append(UtteranceRecord(utt_id=f"utt{utt_offset + i:05d}",
                                    speaker=speaker, feats=feats,
                                    labels=labels))
    return Corpus(utts=utts, feat_dim=feat_dim, n_classes=n_classes,
                  class_means=means, warps=warps)


# ---------------------------------------------------------------------------
# feature processing


def mean_normalize(static: np.ndarray) -> np.ndarray:
    """Subtract the per-utterance mean of each feature dimension."""
    return static - static.mean(axis=1, keepdims=True)


def compute_deltas(static: np.ndarray) -> np.ndarray:
    """[F, T] static features to [3, F, T] static/delta/delta-delta planes.

    Regression window of +-2 frames with edge replication:
    d_t = sum_n n*(x_{t+n} - x_{t-n}) / (2 * sum_n n^2), n in {1, 2}.
    """
    static = np.asarray(static)
    if static.ndim != 2 or static.shape[1] < 1:
        raise DataError(f"expected [F, T] with T >= 1, got {static.shape}")
    t = static.shape[1]

    def regress(x):
        xp = np.empty((x.shape[0], t + 4), dtype=x.dtype)  # edge-replicated
        xp[:, 2:2 + t] = x
        xp[:, :2] = x[:, :1]
        xp[:, 2 + t:] = x[:, t - 1:]
        return ((xp[:, 3:3 + t] - xp[:, 1:1 + t])
                + 2.0 * (xp[:, 4:4 + t] - xp[:, 0:t])) / 10.0

    d = regress(static)
    return np.stack([static, d, regress(d)]).astype(static.dtype)


def utterance_planes(utt: UtteranceRecord) -> np.ndarray:
    """Model input planes [3, F, T]: mean-normalize, then deltas."""
    return compute_deltas(mean_normalize(utt.feats))


# ---------------------------------------------------------------------------
# batching


@dataclass(eq=False)
class Batch:
    """A padded batch. Batches compare by identity, as masks do: a
    generated ``==`` would compare arrays, whose truth value is
    ambiguous."""

    feats: np.ndarray    # [B, 3, F, T_max], zeros beyond each length
    labels: np.ndarray   # [B, T_max], zeros beyond each length
    mask: SequenceMask   # of the lengths, built once per batch

    def rows(self, lo: int, hi: int) -> "Batch":
        """Utterances [lo, hi) of the batch, at its padded T."""
        return Batch(self.feats[lo:hi], self.labels[lo:hi], SequenceMask(
            self.mask.lengths[lo:hi], self.mask.max_len))


def pad_to_longest(arrays) -> np.ndarray:
    """Stack [..., T_i] arrays into [B, ..., T_max], zero beyond each T_i."""
    t_max = max(a.shape[-1] for a in arrays)
    out = np.zeros((len(arrays),) + arrays[0].shape[:-1] + (t_max,),
                   dtype=arrays[0].dtype)
    for i, a in enumerate(arrays):
        out[i, ..., :a.shape[-1]] = a
    return out


def batch_pad(utts, batch_size: int = 4):
    """Group consecutive utterances into zero-padded batches.

    The final batch may be short. Shuffling is the caller's concern so the
    same function serves training, adaptation (both shuffled) and evaluation.
    """
    if batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
    for start in range(0, len(utts), batch_size):
        group = utts[start:start + batch_size]
        yield Batch(
            feats=pad_to_longest([utterance_planes(u) for u in group]),
            labels=pad_to_longest([u.labels for u in group]),
            mask=SequenceMask([u.length for u in group]))


# ---------------------------------------------------------------------------
# feature files


def write_features(path, corpus: Corpus) -> None:
    """A ``serial`` container of kind "features"; labels go as float32."""
    header = {"kind": "features", "feat_dim": corpus.feat_dim,
              "n_classes": corpus.n_classes,
              "utts": [[u.utt_id, u.speaker] for u in corpus.utts]}
    serial.write_container(path, header, (
        rec for i, u in enumerate(corpus.utts)
        for rec in ((f"feats.{i}", u.feats), (f"labels.{i}", u.labels))))


def read_features(path) -> Corpus:
    header, tensors = serial.read_container(path, "features")
    feat_dim, n_classes, names = (header.get(k) for k in
                                  ("feat_dim", "n_classes", "utts"))
    if not (type(feat_dim) is type(n_classes) is int
            and min(feat_dim, n_classes) >= 1 and isinstance(names, list)
            and all(isinstance(n, list) and list(map(type, n)) == [str, str]
                    for n in names)):
        raise StructureError("feature-file header needs positive integers "
                             "feat_dim and n_classes and a list of "
                             "[utt_id, speaker] pairs in utts")
    expected = {f"{r}.{i}" for i in range(len(names))
                for r in ("feats", "labels")}
    if tensors.keys() != expected:
        raise StructureError(
            f"feature file of {len(names)} utterances lacks records "
            f"{sorted(expected - tensors.keys())} and has extra records "
            f"{sorted(tensors.keys() - expected)}")
    utts = []
    for i, (utt_id, speaker) in enumerate(names):
        feats, labels = tensors[f"feats.{i}"], tensors[f"labels.{i}"]
        if feats.ndim != 2 or feats.shape[0] != feat_dim:
            raise StructureError(f"utterance '{utt_id}': features have shape "
                                 f"{feats.shape}, not [{feat_dim}, T]")
        bad = (labels != np.floor(labels)) | (labels < 0) \
            | (labels >= n_classes)
        if bad.any():
            raise DataError(f"utterance '{utt_id}': label {labels[bad][0]:g} "
                            f"is not an integer in [0, {n_classes})")
        utts.append(UtteranceRecord(utt_id, speaker, feats, labels))
    return Corpus(utts=utts, feat_dim=feat_dim, n_classes=n_classes)
