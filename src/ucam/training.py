"""Optimization: Adam, EMA, masked loss, and the fit loop.

Everything here is deterministic given the config seed. Dropout draws come
from a stream keyed by step and shuffling from a stream keyed by epoch, so
a run resumed from a checkpoint at step k reproduces the exact trajectory
the uninterrupted run would have taken from step k+1 on.
"""

from __future__ import annotations

import contextlib
import math
import os
from dataclasses import dataclass

import numpy as np

from . import tensor as tc
from .data import Batch, batch_pad
from .errors import (ConfigError, DataError, DivergenceError, NumericError,
                     StructureError)
from .masking import SequenceMask, apply_mask
from .model import (AcousticModelConfig, Checkpoint, ModelParams,
                    config_to_dict, load_checkpoint, model_forward,
                    save_checkpoint)
from .rng import keyed


BETA1, BETA2, ADAM_EPS = 0.9, 0.98, 1e-9  # Adam's decay rates and epsilon


class AdamState:
    """Adam with bias correction; epsilon sits outside the square root."""

    def __init__(self, named_params):
        self.named = [(n, p) for n, p in named_params]
        self.step = 0
        # Moments live in the parameter dtype so a float32 checkpoint
        # round-trips them exactly and a resumed run stays bit-identical.
        self.m = {n: np.zeros_like(p.data) for n, p in self.named}
        self.v = {n: np.zeros_like(p.data) for n, p in self.named}

    def apply(self, lr: float) -> None:
        """One update over all parameters that received a gradient.

        Validates every gradient before touching any state, so a non-finite
        gradient aborts the step with nothing half-updated.
        """
        live = [(n, p) for n, p in self.named
                if p.requires_grad and p.grad is not None]
        for n, p in live:
            if not np.isfinite(p.grad).all():
                raise NumericError(f"non-finite gradient for parameter "
                                   f"'{n}'; update step aborted")
        self.step += 1
        c1 = 1.0 - BETA1 ** self.step
        c2 = 1.0 - BETA2 ** self.step
        for n, p in live:
            dt = p.data.dtype
            g = p.grad.astype(np.float64)
            m = BETA1 * self.m[n].astype(np.float64) + (1.0 - BETA1) * g
            v = BETA2 * self.v[n].astype(np.float64) + (1.0 - BETA2) * g * g
            self.m[n] = m.astype(dt)
            self.v[n] = v.astype(dt)
            update = lr * (self.m[n].astype(np.float64) / c1) / (
                np.sqrt(self.v[n].astype(np.float64) / c2) + ADAM_EPS)
            p.data = (p.data.astype(np.float64) - update).astype(dt)

    def state_tensors(self):
        """Moment arrays as named records for checkpoint round-trips."""
        for n, _ in self.named:
            yield f"opt.m.{n}", self.m[n]
            yield f"opt.v.{n}", self.v[n]

    def load_state(self, extra: dict, step: int) -> None:
        for n, p in self.named:
            for kind, store in (("m", self.m), ("v", self.v)):
                key = f"opt.{kind}.{n}"
                if key not in extra:
                    raise ConfigError(f"checkpoint lacks optimizer record "
                                      f"'{key}'")
                arr = extra[key]
                if arr.shape != p.data.shape:
                    raise ConfigError(f"optimizer record '{key}' has shape "
                                      f"{arr.shape}, expected "
                                      f"{p.data.shape}")
                store[n] = arr.astype(p.data.dtype)
        self.step = step


class EMAState:
    """Exponential moving average of parameters, kept in float64."""

    def __init__(self, named_params, decay: float):
        if not 0.0 <= decay < 1.0:
            raise ConfigError(f"EMA decay must be in [0, 1), got {decay}")
        self.decay = decay
        self.named = [(n, p) for n, p in named_params]
        self.shadow = {n: p.data.astype(np.float64) for n, p in self.named}

    def update(self) -> None:
        d = self.decay
        for n, p in self.named:
            shadow = self.shadow[n]
            shadow *= d
            shadow += (1.0 - d) * p.data

    @contextlib.contextmanager
    def swapped(self):
        """Run the block with the shadow weights, then restore the live ones."""
        saved = [p.data for _, p in self.named]
        for n, p in self.named:
            p.data = self.shadow[n].astype(p.data.dtype)
        try:
            yield self
        finally:
            for (_, p), data in zip(self.named, saved):
                p.data = data


# ---------------------------------------------------------------------------
# loss and evaluation


def masked_cross_entropy(log_probs: tc.Tensor, labels: np.ndarray,
                         mask: SequenceMask) -> tc.Tensor:
    """Mean negative log-likelihood over valid frames.

    Padded frames contribute exactly zero to both the value and the
    gradient; labels there may hold anything. A label out of range at a
    valid frame is a data error and names the offending (batch, frame).
    """
    b, t, k = log_probs.data.shape
    labels = np.asarray(labels)
    if labels.shape != (b, t):
        raise DataError(f"labels {labels.shape} do not match "
                        f"log-probs {(b, t)}")
    ind = mask.indicator(np.bool_)
    bad = ((labels < 0) | (labels >= k)) & ind
    if bad.any():
        bi, ti = np.argwhere(bad)[0]
        raise DataError(f"label {labels[bi, ti]} out of range [0, {k}) at "
                        f"batch {bi}, frame {ti}")
    safe = np.where(ind, labels, 0).astype(np.int64)
    picked = tc.take_along_last(log_probs, safe)
    picked = apply_mask(picked, mask, time_axis=-1)
    return tc.scale(tc.sum_all(picked), -1.0 / mask.valid_frames())


# padded frames the smaller half of a batch must hold before posteriors
# scores the halves on two threads: a sweep over B 2-4 and T 40-400 broke
# even at 160-200 and won from 200 on
SPLIT_FRAMES = 200


def _forward_rows(params: ModelParams, batch: Batch, lo: int,
                  hi: int) -> np.ndarray:
    """Log-posteriors of utterances [lo, hi) of a batch, at its padded T."""
    mask = SequenceMask(batch.mask.lengths[lo:hi], batch.mask.max_len)
    return model_forward(tc.tensor(batch.feats[lo:hi]), mask, params).data


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform
    has ``os.sched_getaffinity`` (Linux), else ``os.cpu_count()``."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def posteriors(params: ModelParams, batches):
    """Yield (batch, log-posteriors) for each padded batch, in eval mode.

    Only the forward runs without graph recording, so a consumer that
    raises between batches leaves recording as it found it.

    A batch of B utterances and padded length T is scored as two halves of
    whole utterances when at least two CPUs are usable and the smaller half
    holds at least ``SPLIT_FRAMES`` padded frames (``B // 2 * T``): the
    first ``ceil(B / 2)`` on this thread, the rest on the one worker of a
    ``ThreadPoolExecutor`` made for the batch. numpy and BLAS release the
    interpreter lock for the heavy work, so the halves overlap; below the
    floor a short batch's many small numpy calls hand the lock back and
    forth and the split costs more than it saves. It cannot change a bit:
    every eval op computes an utterance from its own rows alone (one gemm
    per utterance in conv2d, linear and attention, norm statistics per
    utterance, softmax per row), and each half keeps the batch's T, which
    sets the rounding. The worker runs inside this thread's ``no_grad``
    (and any ``finite_checks``). Leaving the executor's block joins it on
    every exit path, before the batch is yielded, so an error in either
    half is raised here with no thread left running.
    """
    for batch in batches:
        b, t = batch.mask.batch, batch.mask.max_len
        with tc.no_grad():
            if b // 2 * t >= SPLIT_FRAMES and _usable_cpus() >= 2:
                # imported here, not at the top: concurrent.futures pulls
                # in logging, which would lengthen every ucam import
                from concurrent.futures import ThreadPoolExecutor
                cut = b - b // 2
                with ThreadPoolExecutor(1, "ucam-posteriors") as pool:
                    second = pool.submit(_forward_rows, params, batch, cut, b)
                    first = _forward_rows(params, batch, 0, cut)
                out = np.concatenate([first, second.result()])
            else:
                out = _forward_rows(params, batch, 0, b)
        yield batch, tc.tensor(out)


def evaluate(params: ModelParams, utts,
             batch_size: int = 4) -> tuple[float, float]:
    """Corpus-level (mean NLL, frame accuracy) in eval mode."""
    if not utts:
        raise ConfigError("evaluate needs at least one utterance, got none")
    total_nll, total_correct, total_frames = 0.0, 0, 0
    for batch, out in posteriors(
            params, batch_pad(utts, batch_size=batch_size)):
        mask = batch.mask
        loss = masked_cross_entropy(out, batch.labels, mask)
        n = mask.valid_frames()
        total_nll += loss.item() * n
        pred = out.data.argmax(-1)
        ind = mask.indicator(np.bool_)
        total_correct += int((pred[ind] == batch.labels[ind]).sum())
        total_frames += n
    return total_nll / total_frames, total_correct / total_frames


# ---------------------------------------------------------------------------
# fit


FINETUNE_LR = 1e-5  # the EMA fine-tune's constant learning rate


@dataclass(frozen=True)
class TrainConfig:
    steps: int = 500
    batch_size: int = 4
    warmup: int = 20000
    lr_factor: float = 5.0
    seed: int = 0
    eval_every: int = 50
    finetune_steps: int = 0
    ema_decay: float = 0.999

    def __post_init__(self):
        if min(self.steps, self.batch_size, self.eval_every, self.warmup) < 1:
            raise ConfigError("steps, batch_size, eval_every and warmup "
                              "must be >= 1")
        if self.finetune_steps < 0:
            raise ConfigError("finetune_steps must be >= 0")
        check_lr("lr_factor", self.lr_factor)
        if not 0.0 <= self.ema_decay < 1.0:
            raise ConfigError(f"ema_decay must be in [0, 1), got "
                              f"{self.ema_decay}")

    def lr_at(self, step: int, d_attn: int) -> float:
        """Inverse-sqrt schedule with linear warmup, scaled by model width."""
        if step < 1:
            raise ConfigError(f"schedule is defined for steps >= 1, "
                              f"got {step}")
        return (self.lr_factor * d_attn ** -0.5
                * min(step ** -0.5, step * self.warmup ** -1.5))


def check_lr(name: str, value: float) -> None:
    if not 0 < value < math.inf:
        raise ConfigError(f"{name} must be positive and finite, got {value}")


def _batch_for_step(utts, step: int, cfg: TrainConfig) -> Batch:
    # Epoch and position follow from the step alone, which is what makes
    # resumption reproduce the uninterrupted data order.
    per_epoch = (len(utts) + cfg.batch_size - 1) // cfg.batch_size
    epoch, pos = divmod(step - 1, per_epoch)
    order = keyed(cfg.seed, "shuffle", epoch).permutation(len(utts))
    idx = order[pos * cfg.batch_size:(pos + 1) * cfg.batch_size]
    return next(batch_pad([utts[i] for i in idx], batch_size=len(idx)))


def _train_step(params, batch: Batch, adam: AdamState, lr: float,
                cfg: TrainConfig, step: int) -> float:
    mask = batch.mask
    rng = keyed(cfg.seed, "dropout", step)
    out = model_forward(tc.tensor(batch.feats), mask, params,
                        train=True, rng=rng)
    loss = masked_cross_entropy(out, batch.labels, mask)
    value = loss.item()
    if not math.isfinite(value):
        raise DivergenceError(f"non-finite training loss at step {step}; "
                              f"the last saved checkpoint is still good")
    tc.backward(loss)
    adam.apply(lr)
    tc.zero_grad(adam.named)
    return value


def resumed_log_bytes(path, last_step: int) -> int:
    """How many leading bytes of the train log at ``path`` a resume at
    ``last_step`` keeps: the header and the complete rows up to that step.
    A complete row whose step is no number is refused before anything is
    written, so ``cmd_train`` calls this ahead of ``effective_config.json``.
    """
    keep = 0
    if os.path.exists(path):
        with open(path, "rb") as f:
            for i, line in enumerate(f):
                complete = line.endswith(b"\n")
                step = line.split(b",", 1)[0]
                if i and complete and not step.isdigit():
                    raise StructureError(f"{path} line {i + 1} does not "
                                         f"start with a step number")
                if not complete or (i and int(step) > last_step):
                    break
                keep += len(line)
    return keep


class _TrainLog:
    """CSV trace: step, lr, train_loss and, on eval rows, dev columns.

    Resuming at ``last_step`` keeps the header and the complete rows up to
    that step, so rows a crashed run wrote past its checkpoint go. Each row
    is fsynced as it is written, so a checkpoint, which is written after its
    step's row, is never durable ahead of the log.
    """

    def __init__(self, path, last_step: int | None = None):
        keep = 0 if last_step is None else resumed_log_bytes(path, last_step)
        if keep:
            os.truncate(path, keep)
        self.f = open(path, "a" if keep else "w")
        if not keep:
            self.f.write("step,lr,train_loss,dev_loss,dev_frame_acc\n")

    def row(self, step, lr, train_loss, dev=None):
        line = f"{step},{lr:.17g},{train_loss:.17g}"
        if dev is not None:
            line += f",{dev[0]:.17g},{dev[1]:.17g}"
        self.f.write(line + "\n")
        self.f.flush()
        os.fsync(self.f.fileno())

    def close(self):
        self.f.close()


def load_matching(path, cfg: AcousticModelConfig, steps: int) -> Checkpoint:
    """The checkpoint at ``path``; a run resumes only its own model, and
    only from a step within its ``steps``."""
    ck = load_checkpoint(path)
    if config_to_dict(ck.params.cfg) != config_to_dict(cfg):
        raise ConfigError(f"checkpoint {path} was trained with a different "
                          f"model config")
    if ck.step > steps:
        raise ConfigError(f"checkpoint {path} is at step {ck.step}, past "
                          f"the run's {steps} steps")
    return ck


def fit(params: ModelParams, train_utts, dev_utts, cfg: TrainConfig,
        out_dir, resume_from=None) -> dict:
    """Train, track the best dev checkpoint, optionally fine-tune with EMA.

    Writes best.ckpt / last.ckpt during the main phase and, when
    finetune_steps > 0, final.ckpt (raw weights) plus ema.ckpt (shadow
    weights, the export of record). Returns a summary report.
    """
    os.makedirs(out_dir, exist_ok=True)
    named = list(params.named_parameters())
    adam = AdamState(named)
    start = 1
    best_dev = math.inf

    def restore(path) -> Checkpoint:
        ck = load_matching(path, params.cfg, cfg.steps)
        for (_, dst), (_, src) in zip(named, ck.params.named_parameters()):
            dst.data = src.data
        return ck

    if resume_from is not None:
        ck = restore(resume_from)
        adam.load_state(ck.extra, ck.step)
        start = ck.step + 1
        best_dev = ck.header.get("best_dev", math.inf)

    def save(name, step):
        meta = {"best_dev": best_dev} if math.isfinite(best_dev) else None
        save_checkpoint(params, os.path.join(out_dir, name), step=step,
                        extra=dict(adam.state_tensors()), meta=meta)

    log = _TrainLog(os.path.join(out_dir, "train_log.csv"),
                    last_step=start - 1 if resume_from is not None else None)
    history = []
    try:
        for step in range(start, cfg.steps + 1):
            batch = _batch_for_step(train_utts, step, cfg)
            lr = cfg.lr_at(step, params.cfg.d_attn)
            value = _train_step(params, batch, adam, lr, cfg, step)
            dev = None
            if step % cfg.eval_every == 0 or step == cfg.steps:
                dev = evaluate(params, dev_utts,
                               batch_size=cfg.batch_size)
            # the row goes first: a checkpoint never runs ahead of the log
            log.row(step, lr, value, dev)
            history.append((step, lr, value, dev))
            if dev is not None:
                if dev[0] < best_dev:
                    best_dev = dev[0]
                    save("best.ckpt", step)
                save("last.ckpt", step)

        report = {"steps": cfg.steps, "best_dev": best_dev,
                  "history": history}

        if cfg.finetune_steps > 0:
            best_path = os.path.join(out_dir, "best.ckpt")
            if os.path.exists(best_path):
                restore(best_path)
            ft_adam = AdamState(named)
            ema = EMAState(named, cfg.ema_decay)
            for i in range(1, cfg.finetune_steps + 1):
                step = cfg.steps + i
                batch = _batch_for_step(train_utts, step, cfg)
                value = _train_step(params, batch, ft_adam,
                                    FINETUNE_LR, cfg, step)
                ema.update()
                dev = None
                if i % cfg.eval_every == 0 or i == cfg.finetune_steps:
                    with ema.swapped():
                        dev = evaluate(params, dev_utts,
                                       batch_size=cfg.batch_size)
                log.row(step, FINETUNE_LR, value, dev)
                history.append((step, FINETUNE_LR, value, dev))
            save_checkpoint(params, os.path.join(out_dir, "final.ckpt"),
                            step=cfg.steps + cfg.finetune_steps)
            with ema.swapped():
                save_checkpoint(params, os.path.join(out_dir, "ema.ckpt"),
                                step=cfg.steps + cfg.finetune_steps)
            report["finetune_dev"] = history[-1][3]
    finally:
        log.close()
    return report
