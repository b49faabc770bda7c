"""Optimization: Adam, EMA, masked loss, and the fit loop.

Everything here is deterministic given the config seed. Dropout draws come
from a stream keyed by step and shuffling from a stream keyed by epoch, so
a run resumed from a checkpoint at step k reproduces the exact trajectory
the uninterrupted run would have taken from step k+1 on.
"""

from __future__ import annotations

import atexit
import contextlib
import math
import os
import threading
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
                         mask: SequenceMask,
                         frames: int | None = None) -> tc.Tensor:
    """Mean negative log-likelihood over valid frames.

    Padded frames contribute exactly zero to both the value and the
    gradient; labels there may hold anything. A label out of range at a
    valid frame is a data error and names the offending (batch, frame).
    The sum is divided by ``frames``, by default the mask's valid frames;
    part of a batch passes the whole batch's, so that each frame's
    gradient is the one the whole batch gives it.
    """
    b, t, k = log_probs.data.shape
    labels = np.asarray(labels)
    if labels.shape != (b, t):
        raise DataError(f"labels {labels.shape} do not match "
                        f"log-probs {(b, t)}")
    ind = mask.indicator()
    bad = ((labels < 0) | (labels >= k)) & ind
    if bad.any():
        bi, ti = np.argwhere(bad)[0]
        raise DataError(f"label {labels[bi, ti]} out of range [0, {k}) at "
                        f"batch {bi}, frame {ti}")
    safe = np.where(ind, labels, 0).astype(np.int64)
    picked = tc.take_along_last(log_probs, safe)
    picked = apply_mask(picked, mask, time_axis=-1)
    return tc.scale(tc.sum_all(picked), -1.0 / (frames or mask.valid_frames()))


# ---------------------------------------------------------------------------
# the worker: a second process for the second half of each batch


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform
    has ``os.sched_getaffinity`` (Linux), else ``os.cpu_count()``."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def _threads() -> int:
    """Threads of this process: its task list under /proc where there is
    one (Linux), which counts native threads such as BLAS's, else the
    interpreter's threads."""
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return threading.active_count()


def can_fork() -> bool:
    """The one rule for using the worker, asked at every call that could:
    ``os.fork`` exists, at least two CPUs are usable and this process runs
    one OS thread. Another thread could hold a lock that the worker's copy
    would never release; a BLAS thread pool would also compete with its
    copy in the worker for the cores (on 2 cores, with two OpenBLAS
    threads, a split adaptation session ran 5x slower than one process)."""
    return hasattr(os, "fork") and _usable_cpus() >= 2 and _threads() == 1


class Worker:
    """A process forked from this one that answers requests ``fn(model,
    *args)``, one at a time and each inside the grad and finite-check
    modes its caller had, on its own copy of the caller's model, until its
    pipe closes. It ignores SIGINT, so an interrupt is the caller's to
    handle, and leaves through ``os._exit``, running nothing this process
    registered for its own exit.

    ``send`` binds the caller's model first. Only what differs from what
    the worker holds travels: the whole model when its config or record
    names differ, else the tensors whose bytes, dtype or shape do, and
    the flag of those whose ``requires_grad`` alone does, so an unchanged
    model costs one compare. One request is outstanding at a time, and
    ``result`` takes its answer.
    """

    def __init__(self):
        # imported here, not at the top: it would lengthen every ucam import
        from multiprocessing.connection import Pipe
        self.conn, theirs = Pipe()
        self.held = None  # (config, names) and each tensor's snapshot
        self.busy = False
        self.pid = os.fork()
        if self.pid == 0:
            import signal  # loaded already, by multiprocessing.connection
            global _serving
            _serving = True
            code = 1
            try:
                signal.signal(signal.SIGINT, signal.SIG_IGN)
                self.conn.close()
                _serve(theirs)
                code = 0
            finally:
                os._exit(code)
        theirs.close()

    def send(self, fn, params: ModelParams, *args) -> None:
        """Ask for ``fn(model, *args)``, the model bound to ``params``."""
        self._io(self.conn.send,
                 (tc.current_modes(), fn, self._bind(params), args))
        self.busy = True

    def result(self):
        """The answer to the last request; an exception it raised is
        raised here."""
        out = self._io(self.conn.recv)
        self.busy = False
        if isinstance(out, Exception):
            raise out
        return out

    def _bind(self, params: ModelParams):
        """What the worker needs to hold ``params``: the model itself, or
        {index: (data, requires_grad)} of the tensors that changed, data
        None where only ``requires_grad`` did."""
        named = params.named_parameters()
        structure = (params.cfg, [n for n, _ in named])
        if self.held is None or self.held[0] != structure:
            self.held = (structure, [_snapshot(t) for _, t in named])
            return params
        held, changed = self.held[1], {}
        for i, (_, t) in enumerate(named):
            snap = _snapshot(t)
            if snap != held[i]:
                same = snap[1] == held[i][1]
                held[i] = snap
                changed[i] = (None if same else t.data, t.requires_grad)
        return changed

    def _io(self, op, *args):
        try:
            return op(*args)
        except (EOFError, OSError):  # a reset, if it died with unread data
            raise self._lost() from None
        except BaseException:  # cut mid-message: the pipe is out of step
            self.close()
            raise

    def _lost(self) -> ChildProcessError:
        """The error for a worker that died before it answered, reaped."""
        pid, code = self.pid, self.close()
        how = (f"was killed by signal {-code}" if code < 0
               else f"exited with status {code}")
        return ChildProcessError(f"ucam worker (pid {pid}) {how} before it "
                                 f"answered")

    def close(self) -> int | None:
        """Close the pipe, wait for the worker to exit and return its exit
        code (minus the signal that killed it); None once reaped."""
        if self.pid is None:
            return None
        pid, self.pid, self.busy = self.pid, None, False
        self.conn.close()
        return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])


def _snapshot(t: tc.Tensor) -> tuple:
    return t.requires_grad, (t.data.dtype.str, t.data.shape, t.data.tobytes())


def _serve(conn) -> None:
    """The worker's life: bind each request's model update, then answer
    it with ``fn(model, *args)`` or the exception that raised, until the
    pipe ends."""
    model = named = None
    while True:
        try:
            modes, fn, update, args = conn.recv()
        except EOFError:
            return
        if isinstance(update, ModelParams):
            model, named = update, update.named_parameters()
        else:
            for i, (data, flag) in update.items():
                t = named[i][1]
                t.requires_grad = flag
                if data is not None:
                    t.data = data
        try:
            out = modes(fn)(model, *args)
        except Exception as e:  # raised by Worker.result in the caller
            out = e
        conn.send(out)


_worker = None  # this process's worker, once forked
_serving = False  # whether this process is a worker, which forks none


def worker() -> Worker | None:
    """This process's worker, forked by the first call that can use it;
    None where ``can_fork`` says no, and in a worker itself. An answer the
    last caller never took, because its own half raised, is taken and
    dropped first, so every call gets its own."""
    global _worker
    if _serving or not can_fork():
        return None
    if _worker is not None and _worker.busy:
        with contextlib.suppress(Exception):
            _worker.result()
    if _worker is None or _worker.pid is None:
        _worker = Worker()
    return _worker


def close_worker() -> None:
    """Close this process's worker, if it has one, and reap it; the next
    call that can use a worker forks a fresh one. Runs at exit."""
    global _worker
    w, _worker = _worker, None
    if w is not None:
        w.close()


def _forget_worker() -> None:
    """In a process forked from this one: the worker is not its own, so
    it closes its copy of the pipe and never talks to it."""
    global _worker
    if _worker is not None and _worker.pid is not None:
        _worker.conn.close()
    _worker = None


atexit.register(close_worker)
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_worker)


def halves(fn, params: ModelParams, batch: Batch, *args) -> list:
    """``fn(params, part, *args)`` for the parts of a padded batch of B
    utterances, each part at the batch's padded T: with B >= 2 and a
    worker, the first ``ceil(B / 2)`` utterances here and the last
    ``B // 2`` on the worker meanwhile; else the whole batch here."""
    b = batch.mask.batch
    w = worker() if b >= 2 else None
    if w is None:
        return [fn(params, batch, *args)]
    cut = b - b // 2
    w.send(fn, params, batch.rows(cut, b), *args)
    return [fn(params, batch.rows(0, cut), *args), w.result()]


def _forward(params: ModelParams, batch: Batch) -> np.ndarray:
    """Log-posteriors of a batch, or of part of one, at its padded T."""
    return model_forward(tc.tensor(batch.feats), batch.mask, params).data


def posteriors(params: ModelParams, batches):
    """Yield (batch, log-posteriors) for each padded batch, in eval mode.

    Only the forward runs without graph recording, so a consumer that
    raises between batches leaves recording as it found it.

    Each batch is scored by ``halves``. No bit depends on the split:
    every eval op computes an utterance from its own rows alone (one gemm
    per utterance in conv2d, linear and attention, norm statistics per
    utterance, softmax per row), and each half keeps the batch's T, which
    sets the rounding.
    """
    for batch in batches:
        with tc.no_grad():
            out = np.concatenate(halves(_forward, params, batch))
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
        ind = mask.indicator()
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
    step's row, is never durable ahead of the log. The log is opened to
    append, a fresh one too: the worker appends eval rows to the same file,
    and a row written at an offset of this process's own would overwrite
    them.
    """

    def __init__(self, path, last_step: int | None = None):
        keep = 0 if last_step is None else resumed_log_bytes(path, last_step)
        self.f = open(path, "a")
        self.f.truncate(keep)
        if not keep:
            self.f.write("step,lr,train_loss,dev_loss,dev_frame_acc\n")
            self.f.flush()  # or the worker's first row lands ahead of it

    def row(self, step, lr, train_loss, dev=None):
        _write_row(self.f, step, lr, train_loss, dev)

    def close(self):
        self.f.close()


def _write_row(f, step, lr, train_loss, dev=None) -> None:
    """Append a log row to the open file ``f`` and fsync it."""
    line = f"{step},{lr:.17g},{train_loss:.17g}"
    if dev is not None:
        line += f",{dev[0]:.17g},{dev[1]:.17g}"
    f.write(line + "\n")
    f.flush()
    os.fsync(f.fileno())


_dev_held = None  # in a worker, the dev set it was sent last


def _eval_step(params: ModelParams, dev, batch_size: int, log_path,
               row: tuple, ckpt=None) -> tuple[float, float]:
    """An eval step's work on ``params``: evaluate ``dev``, append the
    step's ``row`` (step, lr, train loss) with the result to the log at
    ``log_path`` and, given ``ckpt`` = (out_dir, best dev loss so far,
    optimizer records), write best.ckpt if dev improved, then last.ckpt.
    The row goes first: a checkpoint never runs ahead of the log. In a
    worker, ``dev`` None stands for the dev set it was sent last. Returns
    (dev loss, dev frame accuracy)."""
    global _dev_held
    if dev is None:
        dev = _dev_held
    elif _serving:
        _dev_held = dev
    result = evaluate(params, dev, batch_size=batch_size)
    with open(log_path, "a") as f:
        _write_row(f, *row, result)
    if ckpt is not None:
        out_dir, best, extra = ckpt
        names = (["best.ckpt"] if result[0] < best else []) + ["last.ckpt"]
        best = min(best, result[0])
        meta = {"best_dev": best} if math.isfinite(best) else None
        for name in names:
            save_checkpoint(params, os.path.join(out_dir, name), step=row[0],
                            extra=extra, meta=meta)
    return result


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

    An eval step's work, the dev eval, its log row and, in the main phase,
    its checkpoints, runs on the worker, sent the step's weights (the EMA
    weights in the fine-tune) and Adam moments, while the steps after it
    train; the dev set is sent at the first such eval only. A phase's last
    eval, which no step follows, runs here, as every eval does where there
    is no worker. The rows of the steps that train meanwhile wait in
    memory until the worker has answered; then the eval's history entry
    and ``best_dev`` are filled in and the rows written, in order. Its
    answer is taken before the next eval step, before the fine-tune
    restores best.ckpt, before final.ckpt and on every exit path. If the
    eval failed, its error is raised and the waiting rows are dropped, so
    the files are those a one-process run leaves when it fails there; an
    error here while it runs is raised after the waiting rows are written.
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

    log_path = os.path.join(out_dir, "train_log.csv")
    log = _TrainLog(log_path,
                    last_step=start - 1 if resume_from is not None else None)
    history = []
    running = None  # (the worker or dev, its history index, rows held)
    dev_at = None  # the worker that holds dev_utts

    def record(step, lr, value):
        """Log a step that does not evaluate; its row waits while an eval
        runs on the worker."""
        if running:
            running[2].append((step, lr, value))
        else:
            log.row(step, lr, value)
        history.append((step, lr, value, None))

    def eval_step(step, lr, value, weights=contextlib.nullcontext):
        """Log an eval step, its work done on the weights that ``weights``
        binds: on the worker while later steps train, unless the phase
        ends here or there is no worker; else here and now."""
        nonlocal running, dev_at
        settle()
        ckpt = ((out_dir, best_dev, dict(adam.state_tensors()))
                if step <= cfg.steps else None)
        args = (cfg.batch_size, log_path, (step, lr, value), ckpt)
        last = step in (cfg.steps, cfg.steps + cfg.finetune_steps)
        w = None if last else worker()
        with weights():
            if w is None:
                job = _eval_step(params, dev_utts, *args)
            else:
                w.send(_eval_step, params,
                       None if dev_at is w else dev_utts, *args)
                job = dev_at = w
        running = (job, len(history), [])
        history.append((step, lr, value, None))

    def settle():
        """Wait for the running eval, if any, then fill in its history
        entry and ``best_dev`` and write the rows held meanwhile."""
        nonlocal running, best_dev
        if running is None:
            return
        (job, i, held), running = running, None
        dev = job.result() if isinstance(job, Worker) else job
        step, lr, value, _ = history[i]
        history[i] = (step, lr, value, dev)
        if step <= cfg.steps and dev[0] < best_dev:
            best_dev = dev[0]
        for row in held:
            log.row(*row)

    try:
        for step in range(start, cfg.steps + 1):
            batch = _batch_for_step(train_utts, step, cfg)
            lr = cfg.lr_at(step, params.cfg.d_attn)
            value = _train_step(params, batch, adam, lr, cfg, step)
            if step % cfg.eval_every == 0 or step == cfg.steps:
                eval_step(step, lr, value)
            else:
                record(step, lr, value)
        settle()

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
                if i % cfg.eval_every == 0 or i == cfg.finetune_steps:
                    eval_step(step, FINETUNE_LR, value, ema.swapped)
                else:
                    record(step, FINETUNE_LR, value)
            settle()
            save_checkpoint(params, os.path.join(out_dir, "final.ckpt"),
                            step=cfg.steps + cfg.finetune_steps)
            with ema.swapped():
                save_checkpoint(params, os.path.join(out_dir, "ema.ckpt"),
                                step=cfg.steps + cfg.finetune_steps)
            report["finetune_dev"] = history[-1][3]
    finally:
        try:
            settle()
        finally:
            log.close()
    return report
