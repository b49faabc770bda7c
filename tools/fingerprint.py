"""Hash what fixed ucam runs compute, to show a change bit-identical.

    python3 tools/fingerprint.py SRC_DIR
    python3 tools/fingerprint.py PARENT_SRC CHANGE_SRC

The first form imports ucam from SRC_DIR (a checkout's ``src``) and
prints one ``name sha256[:16]`` line per artifact. The second runs the
first form on each tree, each in its own subprocess, prints every line
that differs as ``name parent_hash change_hash`` (``-`` for a missing
line), and exits 1 on any difference. The artifacts are:

- every file of the determinism gate's small fit, for 6 steps (``gate09_6``)
  and for 3 steps resumed to 6 (``gate09_resume``), and how many
  processes the 6-step fit forked (``fit/processes``): its worker;
- every file of a desk-model fit with dropout 0.15 and a 3-step EMA
  fine-tune (``desk_ema``);
- ``evaluate``'s loss and accuracy, and the posteriors at every frame,
  padded ones included, at T 20-40 and T 200-400 (``eval_*``), and the
  posteriors of one batch each of 2, 3 and 5 utterances of T 200-400,
  which ``posteriors`` scores in two halves, the second on the worker
  (``eval_200_400_b*``), with the number of threads and of processes
  each started;
- ``adapt_speaker``'s LIN and the frame errors of its report for
  2 speakers x 2 seeds (``adapt``), for a speaker whose utterances
  have T 1-6, in batches of 3 over 2 epochs (``adapt_short``), and for
  one whose utterances have T 150-300, 1 iteration of 1 epoch
  (``adapt_long``), each with the number of threads and of processes
  it started;
- ``pseudo_label``'s decisions and ``frame_error`` under a fixed LIN
  away from identity, over utterances of T 20-400 (``adapt_scoring``);
- one desk training loss (dropout on) and every parameter gradient of it
  on a batch of 4 utterances of T 200-400, where conv2d runs in several
  utterance groups (``grad_long/params``), and the LIN's gradient through
  ``lin_batch`` on the same batch with the model frozen
  (``grad_long/lin``);
- one trainable 3x3 conv2d's output, dX and dW over 5 utterances of
  T 20-40, run in utterance groups of 2, 2 and 1 (``conv2d_groups``);
- ``run_gradcheck`` at seeds 0 and 1 (``gradcheck``);
- on a padded batch whose padding holds large finite junk of either
  sign, the output of ``apply_mask`` (time on axis 1 and last), of both
  norms (batchnorm also on a [B, C, F, T] input and on a transposed one,
  as the conv module feeds it) and of ``masked_softmax``, with the
  gradients of the input and of gamma and beta, padded positions
  included, in float32 and float64 (``padding/<dtype>/<op>``): a cleared
  padded byte that turns from -0.0 to +0.0 shows here.

The split cases and the 6-step fit report 2 usable CPUs whatever the
machine has, so a change that stops splitting or forking shows in their
thread and process counts even when its posteriors, LINs and files stay
the same. Each of them starts with no worker and closes the one it
forked, so each counts its own. Compare two checkouts
on the same machine only: the hashes depend on the BLAS build, so they
are not pinned anywhere; BLAS runs on one thread so that its thread
count cannot change a sum.
"""

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
from pathlib import Path  # noqa: E402
from unittest import mock  # noqa: E402


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def emit(name: str, data: bytes) -> None:
    print(f"{name} {digest(data)}", flush=True)


def report_errors(report: dict) -> bytes:
    return json.dumps([report["initial_error"]] + [
        e["error"] for e in report["iterations"]]).encode()


def emit_dir(name: str, path: Path) -> None:
    for f in sorted(path.iterdir()):
        emit(f"{name}/{f.name}", f.read_bytes())


@contextlib.contextmanager
def split_on_two_cpus(name: str, *counts: str):
    """Run the block as if 2 CPUs were usable, with no worker before it
    and none after it, then emit each of ``counts``: how many threads it
    started as ``{name}/threads``, how many processes it forked as
    ``{name}/processes``."""
    # a tree from before the worker has no close_worker
    close_worker = getattr(sys.modules["ucam.training"], "close_worker",
                           lambda: None)
    close_worker()
    started = {"threads": [], "processes": []}
    start, fork = threading.Thread.start, getattr(os, "fork", None)

    def counting_start(thread):
        started["threads"].append(thread.name)
        start(thread)

    def counting_fork():
        pid = fork()
        if pid:
            started["processes"].append(pid)
        return pid
    with mock.patch.object(os, "sched_getaffinity", lambda pid: {0, 1},
                           create=True), \
            mock.patch.object(os, "cpu_count", lambda: 2), \
            (mock.patch.object(os, "fork", counting_fork) if fork
             else contextlib.nullcontext()), \
            mock.patch.object(threading.Thread, "start", counting_start):
        try:
            yield
        finally:
            close_worker()
    for count in counts:
        emit(f"{name}/{count}", str(len(started[count])).encode())


def main(src: str) -> None:
    src = Path(src).resolve()
    sys.path.insert(0, str(src))
    import numpy as np
    import ucam
    from ucam import data as dp
    from ucam import tensor as tc
    from ucam import training as tr
    from ucam import wrcnn
    from ucam.adaptation import (LinTransform, adapt_speaker, frame_error,
                                 lin_batch, pseudo_label)
    from ucam.gradcheck import run_gradcheck
    from ucam.masking import (NormParams, SequenceMask, apply_mask,
                              masked_softmax, utterance_batchnorm,
                              utterance_layernorm)
    from ucam.model import (ModelParams, desk_config, micro_config,
                            model_forward)
    from ucam.rng import keyed

    if Path(ucam.__file__).resolve().parent != src / "ucam":
        raise SystemExit(f"imported ucam from {ucam.__file__}, not {src}")

    def fit_small(out, steps, resume_from=None):
        corpus = dp.synth_corpus(seed=9, n_speakers=2, n_classes=5,
                                 n_utts=9, feat_dim=8, t_range=(6, 10))
        params = ModelParams.create(micro_config(), rng=keyed(9, "det"))
        cfg = tr.TrainConfig(steps=steps, batch_size=3, eval_every=3,
                             seed=9)
        tr.fit(params, corpus.utts[:6], corpus.utts[6:], cfg, out,
               resume_from=resume_from)

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        with split_on_two_cpus("fit", "processes"):
            fit_small(tmp / "gate09_6", 6)
        emit_dir("gate09_6", tmp / "gate09_6")
        fit_small(tmp / "gate09_resume", 3)
        fit_small(tmp / "gate09_resume", 6,
                  resume_from=tmp / "gate09_resume" / "last.ckpt")
        emit_dir("gate09_resume", tmp / "gate09_resume")

        corpus = dp.synth_corpus(seed=21, n_speakers=4, n_classes=10,
                                 n_utts=20, feat_dim=16, t_range=(20, 40))
        params = ModelParams.create(desk_config(), rng=keyed(21, "init"))
        cfg = tr.TrainConfig(steps=8, batch_size=4, warmup=8,
                             lr_factor=0.5, eval_every=4, seed=21,
                             finetune_steps=3, ema_decay=0.9)
        tr.fit(params, corpus.utts[:16], corpus.utts[16:], cfg,
               tmp / "desk_ema")
        emit_dir("desk_ema", tmp / "desk_ema")

    for t_range, n_utts in (((20, 40), 8), ((200, 400), 4)):
        utts = dp.synth_corpus(seed=22, n_speakers=2, n_classes=10,
                               n_utts=n_utts, feat_dim=16,
                               t_range=t_range).utts
        name = f"eval_{t_range[0]}_{t_range[1]}"
        emit(f"{name}/metrics",
             json.dumps(tr.evaluate(params, utts)).encode())
        emit(f"{name}/posteriors",
             b"".join(out.data.tobytes() for _, out in tr.posteriors(
                 params, dp.batch_pad(utts, batch_size=4))))
    # one batch each of 2, 3 and 5 long utterances: posteriors scores
    # even and uneven halves
    for n_utts in (2, 3, 5):
        utts = dp.synth_corpus(seed=24 + n_utts, n_speakers=2, n_classes=10,
                               n_utts=n_utts, feat_dim=16,
                               t_range=(200, 400)).utts
        name = f"eval_200_400_b{n_utts}"
        with split_on_two_cpus(name, "threads", "processes"):
            emit(f"{name}/posteriors",
                 b"".join(out.data.tobytes() for _, out in tr.posteriors(
                     params, dp.batch_pad(utts, batch_size=n_utts))))

    unseen = dp.synth_corpus(seed=21, n_speakers=2, n_classes=10,
                             n_utts=16, feat_dim=16, t_range=(20, 40),
                             speaker_offset=40, utt_offset=1000)
    with split_on_two_cpus("adapt", "threads", "processes"):
        for speaker in sorted({u.speaker for u in unseen.utts}):
            for seed in (11, 12):
                lin, report = adapt_speaker(
                    params, unseen.for_speaker(speaker).utts, iterations=2,
                    epochs=1, lr=1e-3, seed=seed)
                emit(f"adapt/{speaker}/{seed}/lin", lin.matrix().tobytes())
                emit(f"adapt/{speaker}/{seed}/report", report_errors(report))

    # adaptation utterances of T 1, 3, 5, 2, 1 and 2 in batches of 3: the
    # LIN's padded edges and its dW order at the shortest lengths
    short = dp.synth_corpus(seed=21, n_speakers=1, n_classes=10, n_utts=8,
                            feat_dim=16, t_range=(1, 6), speaker_offset=60,
                            utt_offset=2000)
    with split_on_two_cpus("adapt_short", "threads", "processes"):
        lin, report = adapt_speaker(params, short.utts, iterations=2,
                                    epochs=2, lr=1e-3, batch_size=3, seed=13)
    emit("adapt_short/lin", lin.matrix().tobytes())
    emit("adapt_short/report", report_errors(report))

    # utterances of T 150-300: batches long enough for posteriors to score
    # them in two halves
    spk = dp.synth_corpus(seed=21, n_speakers=1, n_classes=10, n_utts=8,
                          feat_dim=16, t_range=(150, 300), speaker_offset=80,
                          utt_offset=3000)
    with split_on_two_cpus("adapt_long", "threads", "processes"):
        lin, report = adapt_speaker(params, spk.utts, iterations=1,
                                    epochs=1, lr=1e-3, seed=14)
    emit("adapt_long/lin", lin.matrix().tobytes())
    emit("adapt_long/report", report_errors(report))

    # a fixed LIN away from identity, so scoring's warp shows
    spk = dp.synth_corpus(seed=21, n_speakers=1, n_classes=10, n_utts=8,
                          feat_dim=16, t_range=(20, 400), speaker_offset=90,
                          utt_offset=4000)
    lin = LinTransform(16)
    lin.w.data = (np.eye(16) + 0.05 * keyed(31, "scoring-lin")
                  .standard_normal((16, 16))).astype(np.float32)
    emit("adapt_scoring/labels", b"".join(
        p.tobytes() for p in pseudo_label(params, spk.utts, lin)))
    emit("adapt_scoring/error",
         json.dumps(frame_error(params, spk.utts, lin)).encode())

    long = dp.synth_corpus(seed=23, n_speakers=1, n_classes=10, n_utts=4,
                           feat_dim=16, t_range=(200, 400)).utts
    batch = next(dp.batch_pad(long, batch_size=4))
    named = list(params.named_parameters())
    out = model_forward(tc.tensor(batch.feats), batch.mask, params,
                        train=True, rng=keyed(23, "dropout"))
    loss = tr.masked_cross_entropy(out, batch.labels, batch.mask)
    tc.backward(loss)
    emit("grad_long/params", b"".join(
        [loss.data.tobytes()] + [t.grad.tobytes() for _, t in named]))
    tc.zero_grad(named)
    params.set_requires_grad(False)
    lin = LinTransform(16)
    out = model_forward(lin_batch(batch, lin), batch.mask, params)
    tc.backward(tr.masked_cross_entropy(out, batch.labels, batch.mask))
    emit("grad_long/lin", lin.w.grad.tobytes())

    # one trainable 3x3 conv over 5 utterances of T 20-40, zero past each
    # length, in utterance groups of 2, 2 and 1
    rng = keyed(41, "conv2d-groups")
    lengths = rng.integers(20, 41, size=5)
    x = rng.standard_normal((5, 16, 16, lengths.max())).astype(np.float32)
    x *= np.arange(x.shape[-1]) < lengths[:, None, None, None]
    w = rng.standard_normal((16, 16, 3, 3)).astype(np.float32)
    with mock.patch.object(wrcnn, "COLS_BYTES", 2 * 3 * 3 * x[0].nbytes):
        xt, wt = tc.parameter(x), tc.parameter(w)
        out = wrcnn.conv2d(xt, wt)
        g = rng.standard_normal(out.shape).astype(np.float32)
        tc.backward(tc.sum_all(tc.mul(out, tc.tensor(g))))
    emit("conv2d_groups/out", out.data.tobytes())
    emit("conv2d_groups/dx", xt.grad.tobytes())
    emit("conv2d_groups/dw", wt.grad.tobytes())

    for seed in (0, 1):
        emit(f"gradcheck/{seed}",
             json.dumps(run_gradcheck(seed=seed), sort_keys=True).encode())

    # padding of large finite junk of either sign: a 0/1 multiply leaves
    # -0.0 where it is negative, and padded keys outscore valid ones
    mask = SequenceMask([9, 4, 6, 2], 9)

    def with_junk(rng, shape, dtype, axes):
        x = rng.standard_normal(shape)
        for b, n in enumerate(mask.lengths):
            for axis in axes:
                pad = (b,) + (slice(None),) * (axis - 1) + (slice(n, None),)
                x[pad] = 50.0 * rng.standard_normal(x[pad].shape)
        return x.astype(dtype)

    def bn_transposed(x, p):  # [B, T, C] in and out, as in the conv module
        h = utterance_batchnorm(tc.transpose(x, (0, 2, 1)), mask, p)
        return tc.transpose(h, (0, 2, 1))
    cases = {
        "apply_mask_t1": ((4, 9, 5), (1,),
                          lambda x, p: apply_mask(x, mask, 1)),
        "apply_mask_tlast": ((4, 5, 3, 9), (3,),
                             lambda x, p: apply_mask(x, mask, -1)),
        "layernorm": ((4, 9, 6), (1,),
                      lambda x, p: utterance_layernorm(x, mask, p)),
        "batchnorm": ((4, 6, 9), (2,),
                      lambda x, p: utterance_batchnorm(x, mask, p)),
        "batchnorm_4d": ((4, 6, 3, 9), (3,),
                         lambda x, p: utterance_batchnorm(x, mask, p)),
        "batchnorm_transposed": ((4, 9, 6), (1,), bn_transposed),
        "softmax": ((4, 2, 9, 9), (2, 3),
                    lambda x, p: masked_softmax(x, mask)),
    }
    for dtype in (np.float32, np.float64):
        rng = keyed(51, "padding", np.dtype(dtype).itemsize)
        for name, (shape, axes, op) in cases.items():
            x = tc.parameter(with_junk(rng, shape, dtype, axes))
            p = NormParams(
                tc.parameter(1.0 + 0.1 * rng.standard_normal(6), dtype),
                tc.parameter(0.1 * rng.standard_normal(6), dtype))
            out = op(x, p)
            g = rng.standard_normal(out.shape).astype(dtype)
            tc.backward(tc.sum_all(tc.mul(out, tc.tensor(g))))
            emit(f"padding/{np.dtype(dtype).name}/{name}", b"".join(
                [out.data.tobytes(), x.grad.tobytes()]
                + [t.grad.tobytes() for t in (p.gamma, p.beta)
                   if t.grad is not None]))


def fingerprint(src: str) -> dict:
    """``name -> hash`` of every artifact, from a fresh interpreter."""
    run = subprocess.run([sys.executable, __file__, src], text=True,
                         stdout=subprocess.PIPE)
    if run.returncode != 0:
        raise SystemExit(f"fingerprint of {src} exited {run.returncode}")
    return dict(line.split() for line in run.stdout.splitlines())


def compare(parent_src: str, change_src: str) -> int:
    parent, change = fingerprint(parent_src), fingerprint(change_src)
    names = list(parent) + [n for n in change if n not in parent]
    differ = [n for n in names if parent.get(n) != change.get(n)]
    for n in differ:
        print(f"{n} {parent.get(n, '-')} {change.get(n, '-')}")
    print(f"{len(differ)} of {len(names)} lines differ")
    return 1 if differ else 0


if __name__ == "__main__":
    if len(sys.argv) == 2:
        main(sys.argv[1])
    elif len(sys.argv) == 3:
        sys.exit(compare(sys.argv[1], sys.argv[2]))
    else:
        raise SystemExit(__doc__)
