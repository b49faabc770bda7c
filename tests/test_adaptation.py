import dataclasses
import os
import signal
import threading

import numpy as np
import pytest

from ucam import adaptation as ad
from ucam import data as dp
from ucam import serial
from ucam import tensor as tc
from ucam import training as tr
from ucam.errors import (ConfigError, DataError, NumericError, ShapeError,
                         StructureError)
from ucam.model import ModelParams, micro_config, model_forward
from ucam.rng import keyed


def speaker_corpus(seed=1, n_utts=8, feat_dim=8):
    return dp.synth_corpus(seed=seed, n_speakers=1, n_classes=5,
                           n_utts=n_utts, feat_dim=feat_dim, t_range=(6, 10))


def tiny_model(dtype=np.float32):
    return ModelParams.create(micro_config(), rng=keyed(0, "init"),
                              dtype=dtype)


# ---------------------------------------------------------------------------
# LIN transform


def test_fresh_lin_is_identity():
    lin = ad.LinTransform(5, "spk0")
    assert lin.feat_dim == 5
    np.testing.assert_array_equal(lin.matrix(), np.eye(5, dtype=np.float32))
    with pytest.raises(ConfigError):
        ad.LinTransform(0)


def first_batch(utts, dtype=np.float32):
    batch = next(dp.batch_pad(utts, batch_size=len(utts)))
    return dataclasses.replace(batch, feats=batch.feats.astype(dtype))


def test_identity_lin_forward_matches_unadapted():
    c = speaker_corpus()
    params = tiny_model()
    plain = first_batch(c.utts[:3])
    x = ad.lin_batch(plain, ad.LinTransform(8))
    assert np.array_equal(x.data, plain.feats)
    adapted = model_forward(x, plain.mask, params)
    unadapted = model_forward(tc.tensor(plain.feats), plain.mask, params)
    assert np.array_equal(adapted.data, unadapted.data)


def test_identity_lin_scoring_matches_unadapted():
    c = speaker_corpus()
    params = tiny_model()
    unadapted = [post.data.argmax(-1)[i, :n]
                 for b, post in tr.posteriors(params, dp.batch_pad(c.utts))
                 for i, n in enumerate(b.mask.lengths)]
    pseudo = ad.pseudo_label(params, c.utts, ad.LinTransform(8))
    assert [p.tobytes() for p in pseudo] == [
        u.astype(np.int64).tobytes() for u in unadapted]
    _, acc = tr.evaluate(params, c.utts)
    assert ad.frame_error(params, c.utts, ad.LinTransform(8)) \
        == pytest.approx(1.0 - acc, abs=1e-12)


def noisy_lin(scale, seed, feat_dim=8):
    lin = ad.LinTransform(feat_dim)
    lin.w.data = (np.eye(feat_dim) + scale * np.random.default_rng(seed)
                  .standard_normal((feat_dim, feat_dim))).astype(np.float32)
    return lin


def test_lin_batch_commutes_with_static_warp():
    # the delta regression is linear, so warping the delta planes equals
    # warping the statics before the regression, up to rounding
    c = speaker_corpus(seed=2)
    lin = noisy_lin(0.2, 3)
    x = ad.lin_batch(first_batch(c.utts[:4]), lin)
    statics_first = dp.pad_to_longest([
        dp.compute_deltas((lin.matrix() @ dp.mean_normalize(u.feats))
                          .astype(np.float32)) for u in c.utts[:4]])
    np.testing.assert_allclose(x.data, statics_first, atol=1e-4)


def test_scoring_sees_the_step_planes_bitwise(monkeypatch):
    # pseudo-labels and held-out error score exactly what a step feeds the
    # model: the LIN warps the planes of plain batch_pad batches. Scores
    # forward through training.posteriors, steps through adaptation's own
    # model_forward. One process runs every forward, so this one sees them
    # all
    set_usable_cpus(monkeypatch, 1)
    c = speaker_corpus(seed=13, n_utts=7)
    params = tiny_model()
    lin = noisy_lin(0.075, 4)
    seen = []

    def capture(forward):
        def captured(x, mask, params):
            out = forward(x, mask, params)
            seen.append((x.data.tobytes(), out.data.tobytes()))
            return out
        return captured
    for module in (tr, ad):
        monkeypatch.setattr(module, "model_forward",
                            capture(module.model_forward))
    ad.pseudo_label(params, c.utts, lin)
    ad.frame_error(params, c.utts, lin)
    scored, seen[:] = seen[:], []
    params.set_requires_grad(False)
    for b in dp.batch_pad(c.utts):
        ad._lin_terms(params, b, lin.matrix(), b.mask.valid_frames())
    assert len(seen) == 2
    assert scored == seen * 2
    # lin_batch, the LIN as one graph node, warps the same planes
    assert [x for x, _ in seen] == [ad.lin_batch(b, lin).data.tobytes()
                                    for b in dp.batch_pad(c.utts)]


@pytest.mark.parametrize("score", ["lin_batch", "pseudo_label",
                                   "frame_error"])
def test_wrong_sized_lin_is_a_shape_error(monkeypatch, score):
    # on one process, which warps the whole batch
    set_usable_cpus(monkeypatch, 1)
    c = speaker_corpus(n_utts=3)
    lin = ad.LinTransform(6)
    with pytest.raises(ShapeError, match=r"\(6, 6\) cannot warp planes "
                                         r"\(3, 3, 8, \d+\): it must be "
                                         r"\[8, 8\]"):
        if score == "lin_batch":
            ad.lin_batch(first_batch(c.utts), lin)
        else:
            getattr(ad, score)(tiny_model(), c.utts, lin)


def lin_loop(batch, w, g):
    """Reference on contiguous copies of each utterance's valid frames, one
    plane at a time: the LIN's output, and dW for output gradient g."""
    out = np.zeros_like(batch.feats)
    dw = None
    for b, n in enumerate(batch.mask.lengths):
        for p in range(batch.feats.shape[1]):
            plane = batch.feats[b, p, :, :n].copy()
            out[b, p, :, :n] = w @ plane
            term = g[b, p, :, :n].copy() @ plane.T
            dw = term if dw is None else dw + term
    return out, dw


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("t_range", [(1, 1), (1, 6), (3, 40)])
def test_lin_batch_matches_per_utterance_loop_bitwise(dtype, t_range):
    c = dp.synth_corpus(seed=14, n_speakers=1, n_classes=5, n_utts=4,
                        feat_dim=8, t_range=t_range)
    batch = first_batch(c.utts, dtype)
    rng = np.random.default_rng(15)
    lin = ad.LinTransform(8)
    lin.w = tc.parameter(np.eye(8) + 0.3 * rng.standard_normal((8, 8)),
                         dtype=dtype)
    g = rng.standard_normal(batch.feats.shape).astype(dtype)
    x = ad.lin_batch(batch, lin)
    tc.backward(tc.sum_all(tc.mul(x, tc.tensor(g))))
    out, dw = lin_loop(batch, lin.w.data, g)
    assert x.data.tobytes() == out.tobytes()
    assert lin.w.grad.tobytes() == dw.tobytes()
    for b, n in enumerate(batch.mask.lengths):
        assert not x.data[b, ..., n:].any()


def test_lin_batch_sums_dw_in_utterance_major_order():
    # the same terms added plane by plane across the batch round
    # differently, so the utterance-major order above is a real pin
    c = dp.synth_corpus(seed=14, n_speakers=1, n_classes=5, n_utts=4,
                        feat_dim=8, t_range=(3, 40))
    batch = first_batch(c.utts)
    g = np.random.default_rng(16).standard_normal(
        batch.feats.shape).astype(np.float32)
    _, dw = lin_loop(batch, np.eye(8, dtype=np.float32), g)
    lengths = batch.mask.lengths
    other = None
    for p in range(batch.feats.shape[1]):
        for b, n in enumerate(lengths):
            term = g[b, p, :, :n] @ batch.feats[b, p, :, :n].T
            other = term if other is None else other + term
    assert dw.tobytes() != other.tobytes()


def test_adaptation_step_records_one_lin_node():
    c = speaker_corpus(seed=3, n_utts=4)
    params = tiny_model()
    params.set_requires_grad(False)
    lin = ad.LinTransform(8)
    batch = first_batch(c.utts)
    out = model_forward(ad.lin_batch(batch, lin), batch.mask, params)
    loss = tr.masked_cross_entropy(out, batch.labels, batch.mask)
    params.set_requires_grad(True)
    # a node records a constant or frozen parent as None
    nodes, todo, seen = [], [loss], set()
    while todo:
        t = todo.pop()
        if t is None or id(t) in seen or t._parents is None:
            continue
        seen.add(id(t))
        nodes.append(t)
        todo.extend(t._parents)
    lin_nodes = [t for t in nodes if any(p is lin.w for p in t._parents)]
    assert len(lin_nodes) == 1
    assert lin_nodes[0]._parents == (lin.w,)
    assert lin_nodes[0]._op == "matmul"
    assert not {"stack", "pad_last"} & {t._op for t in nodes}


def test_lin_batch_rejects_mixed_dtypes():
    c = speaker_corpus()
    with pytest.raises(ShapeError, match="mixed dtypes"):
        ad.lin_batch(first_batch(c.utts[:2], np.float64), ad.LinTransform(8))


# ---------------------------------------------------------------------------
# pseudo-labels and error


def test_pseudo_label_consistent_with_frame_error():
    c = speaker_corpus(seed=4, n_utts=6)
    params = tiny_model()
    lin = ad.LinTransform(8)
    pseudo = ad.pseudo_label(params, c.utts, lin)
    assert len(pseudo) == 6
    wrong = total = 0
    for u, p in zip(c.utts, pseudo):
        assert p.shape == (u.length,)
        wrong += int((p != u.labels).sum())
        total += u.length
    assert ad.frame_error(params, c.utts, lin) == pytest.approx(
        wrong / total, abs=1e-12)
    _, acc = tr.evaluate(params, c.utts)  # the LIN is identity
    assert acc == pytest.approx(1.0 - wrong / total, abs=1e-12)


# ---------------------------------------------------------------------------
# adapt_speaker


def test_adapt_leaves_model_bit_identical():
    c = speaker_corpus(seed=5, n_utts=8)
    params = tiny_model()
    before = {n: t.data.tobytes() for n, t in params.named_parameters()}
    ad.adapt_speaker(params, c.utts, iterations=1, epochs=1, seed=0)
    after = {n: t.data.tobytes() for n, t in params.named_parameters()}
    assert before == after
    assert all(t.requires_grad for _, t in params.named_parameters())


def test_adapt_restores_frozen_parameters():
    c = speaker_corpus(seed=5, n_utts=8)
    params = tiny_model()
    named = params.named_parameters()
    named[0][1].requires_grad = False
    ad.adapt_speaker(params, c.utts, iterations=1, epochs=1, seed=0)
    assert not named[0][1].requires_grad
    assert all(t.requires_grad for _, t in named[1:])


def test_empty_heldout_is_a_config_error():
    c = speaker_corpus(seed=5, n_utts=4)
    params = tiny_model()
    with pytest.raises(ConfigError, match="frame_error.*none"):
        ad.frame_error(params, [], ad.LinTransform(8))
    with pytest.raises(ConfigError, match="frame_error.*none"):
        ad.adapt_speaker(params, c.utts, heldout=[], iterations=1)


def test_adapt_steps_take_batch_pad_batches(monkeypatch):
    # batch_pad, model_forward and the two scoring functions are looked up
    # at call time, so wrappers see every step of this process: one
    # batch_pad each, then the forward of this process's part of the
    # batch, all of it in a serial session and its first ceil(B / 2)
    # utterances in a split one, whose worker forwards the rest. Steps
    # forward through adaptation's model_forward, scores through
    # training's, by way of posteriors
    c = speaker_corpus(seed=7, n_utts=8)
    params = tiny_model()
    calls = []

    def record(name, fn, size):
        return lambda *a, **kw: calls.append((name, size(*a))) or fn(*a, **kw)
    for module, name, size in (
            (ad, "batch_pad", len),
            (ad, "model_forward", lambda x, mask, p: x.shape[0]),
            (tr, "model_forward", lambda x, mask, p: x.shape[0]),
            (ad, "pseudo_label", lambda p, utts, lin, bs: len(utts)),
            (ad, "frame_error", lambda p, utts, lin, bs: len(utts))):
        monkeypatch.setattr(module, name,
                            record(name, getattr(module, name), size))
    runs = []
    for cpus in (1, 2):
        monkeypatch.setattr(tr, "_usable_cpus", lambda: cpus)
        calls.clear()
        lin, rep = ad.adapt_speaker(params, c.utts, iterations=2, epochs=2,
                                    batch_size=4, seed=3)
        runs.append((lin.w.data.tobytes(), rep))
        # 6 adaptation utterances: two steps of 4 and 2 per epoch, and
        # pseudo-labels in batches of 4 and 2; 2 held out
        four, two = (4, 2) if cpus == 1 else (2, 1)
        steps = [("batch_pad", 4), ("model_forward", four),
                 ("batch_pad", 2), ("model_forward", two)] * 2
        heldout = [("frame_error", 2), ("batch_pad", 2),
                   ("model_forward", two)]
        assert calls == heldout + (
            [("pseudo_label", 6), ("batch_pad", 6), ("model_forward", four),
             ("model_forward", two)] + steps + heldout) * 2
    assert runs[0] == runs[1]


def test_adapt_report_structure():
    c = speaker_corpus(seed=6, n_utts=9)
    params = tiny_model()
    lin, report = ad.adapt_speaker(params, c.utts, iterations=2, epochs=1,
                                   seed=0)
    assert report["speaker"] == "spk0"
    assert [e["iteration"] for e in report["iterations"]] == [1, 2]
    assert all(set(e) == {"iteration", "error"} for e in report["iterations"])
    assert all(0.0 <= e["error"] <= 1.0 for e in report["iterations"])
    # default heldout split is every fourth utterance
    expect = ad.frame_error(params, c.utts[3::4], ad.LinTransform(8))
    assert report["initial_error"] == pytest.approx(expect, abs=1e-12)
    assert isinstance(lin, ad.LinTransform)
    # training moved it
    assert not np.array_equal(lin.matrix(), np.eye(8, dtype=np.float32))


def test_adapt_deterministic():
    c = speaker_corpus(seed=7, n_utts=8)
    params = tiny_model()
    lin1, rep1 = ad.adapt_speaker(params, c.utts, iterations=2, epochs=2,
                                  seed=3)
    lin2, rep2 = ad.adapt_speaker(params, c.utts, iterations=2, epochs=2,
                                  seed=3)
    assert lin1.w.data.tobytes() == lin2.w.data.tobytes()
    assert rep1 == rep2


def test_adapt_zero_iterations_is_plain_eval():
    c = speaker_corpus(seed=8, n_utts=8)
    params = tiny_model()
    lin, report = ad.adapt_speaker(params, c.utts, iterations=0)
    np.testing.assert_array_equal(lin.matrix(), np.eye(8, dtype=np.float32))
    assert report["iterations"] == []
    assert report["initial_error"] == pytest.approx(
        ad.frame_error(params, c.utts[3::4], ad.LinTransform(8)), abs=1e-12)


def test_adapt_explicit_heldout():
    c = speaker_corpus(seed=9, n_utts=8)
    params = tiny_model()
    _, report = ad.adapt_speaker(params, c.utts, heldout=c.utts,
                                 iterations=0)
    assert report["initial_error"] == pytest.approx(
        ad.frame_error(params, c.utts, ad.LinTransform(8)), abs=1e-12)


def test_adapt_validates_inputs():
    params = tiny_model()
    with pytest.raises(ConfigError):
        ad.adapt_speaker(params, [])
    c = speaker_corpus(seed=10, n_utts=4)
    with pytest.raises(ConfigError):
        ad.adapt_speaker(params, c.utts, iterations=-1)
    with pytest.raises(ConfigError):
        ad.adapt_speaker(params, c.utts, epochs=0)
    mixed = dp.synth_corpus(seed=11, n_speakers=2, n_classes=5, n_utts=4,
                            feat_dim=8)
    with pytest.raises(ConfigError):
        ad.adapt_speaker(params, mixed.utts)


# ---------------------------------------------------------------------------
# the worker: the second half of every batch on a forked process


def record_forks(monkeypatch) -> list:
    """The pids of the processes forked from here on."""
    pids = []
    fork = os.fork

    def recording_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid
    monkeypatch.setattr(os, "fork", recording_fork)
    return pids


def assert_reaped(pids) -> None:
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def set_usable_cpus(monkeypatch, n: int) -> None:
    monkeypatch.setattr(tr, "_usable_cpus", lambda: n)


def session_run(params, utts, **kw):
    lin, report = ad.adapt_speaker(params, utts, **{
        "iterations": 2, "epochs": 1, "lr": 1e-2, "seed": 1, **kw})
    return lin.w.data.tobytes(), report


@pytest.mark.parametrize("heldout", ["default", "explicit"])
@pytest.mark.parametrize("t_range", [(1, 6), (150, 300)])
@pytest.mark.parametrize("batch_size", [1, 2, 3, 4, 5])
def test_split_session_is_bitwise_the_serial_one(monkeypatch, batch_size,
                                                 t_range, heldout):
    # 7 adaptation utterances, or 9 with an explicit held-out set: the
    # last batch is short at every batch size from 2 on
    c = dp.synth_corpus(seed=batch_size, n_speakers=1, n_classes=5,
                        n_utts=9, feat_dim=8, t_range=t_range)
    params = tiny_model()
    kw = {"batch_size": batch_size,
          "heldout": c.utts[:3] if heldout == "explicit" else None}
    pids = record_forks(monkeypatch)
    set_usable_cpus(monkeypatch, 2)
    split = session_run(params, c.utts, **kw)
    assert len(pids) == int(batch_size > 1)
    set_usable_cpus(monkeypatch, 1)
    assert session_run(params, c.utts, **kw) == split
    assert len(pids) == int(batch_size > 1)
    tr.close_worker()  # it outlives a session: one serves the process
    assert_reaped(pids)
    assert split[0] != np.eye(8, dtype=np.float32).tobytes()


@pytest.mark.parametrize("why", ["no_fork", "one_cpu", "other_thread"])
def test_no_worker_forks_where_it_cannot_and_the_bits_hold(monkeypatch,
                                                           why):
    c = speaker_corpus(seed=20, n_utts=9)
    params = tiny_model()
    pids = record_forks(monkeypatch)
    set_usable_cpus(monkeypatch, 2)
    split = session_run(params, c.utts)
    assert len(pids) == 1
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(10,))
    if why == "no_fork":
        monkeypatch.delattr(os, "fork")
    elif why == "one_cpu":
        set_usable_cpus(monkeypatch, 1)
    else:
        other.start()
    try:
        assert session_run(params, c.utts) == split
    finally:
        release.set()
    if why == "other_thread":
        other.join(10)
        assert not other.is_alive()
    assert len(pids) == 1
    tr.close_worker()
    assert_reaped(pids)


def forwards_here(monkeypatch, on_call):
    """Wrap ``model_forward`` so that this process, not a worker forked
    from it, calls ``on_call(k)`` before its k-th forward."""
    forward, parent, calls = ad.model_forward, os.getpid(), []

    def wrapped(x, mask, params):
        if os.getpid() == parent:
            calls.append(x)
            on_call(len(calls))
        return forward(x, mask, params)
    monkeypatch.setattr(ad, "model_forward", wrapped)


def test_the_worker_ignores_sigint_and_exits_at_the_end(monkeypatch):
    c = speaker_corpus(seed=21, n_utts=9)
    params = tiny_model()
    set_usable_cpus(monkeypatch, 1)
    serial = session_run(params, c.utts)
    set_usable_cpus(monkeypatch, 2)
    pids = record_forks(monkeypatch)
    forwards_here(monkeypatch, lambda k: k == 3 and os.kill(
        pids[0], signal.SIGINT))
    assert session_run(params, c.utts) == serial
    assert len(pids) == 1
    tr.close_worker()
    assert_reaped(pids)


def test_the_worker_enters_the_callers_modes(monkeypatch, tmp_path):
    # a step's input is a leaf that records a graph; a score's is a
    # constant, forwarded without recording, by training's model_forward.
    # Finite checks are on while the file ``checked`` exists, which both
    # processes see
    checked = tmp_path / "checked"

    def checking(forward):
        def checked_forward(x, mask, params):
            recording = tc.needs_grad(tc.parameter(np.zeros(1)))
            try:
                tc.scale(tc.tensor(np.array([np.inf])), 1.0)
                checking_finite = False
            except NumericError:
                checking_finite = True
            if (recording, checking_finite) != (x.requires_grad,
                                                checked.exists()):
                raise AssertionError(f"pid {os.getpid()}: recording "
                                     f"{recording}, checking "
                                     f"{checking_finite}")
            return forward(x, mask, params)
        return checked_forward
    for module in (tr, ad):
        monkeypatch.setattr(module, "model_forward",
                            checking(module.model_forward))
    set_usable_cpus(monkeypatch, 2)
    pids = record_forks(monkeypatch)
    c = speaker_corpus(seed=22, n_utts=9)
    params = tiny_model()
    session_run(params, c.utts)
    checked.touch()
    with tc.finite_checks():
        session_run(params, c.utts)
    assert len(pids) == 1  # one worker for both sessions
    tr.close_worker()
    assert_reaped(pids)


def with_nan(utts, k):
    """utts with a NaN at a valid frame of utterance k (every T is >= 6)."""
    u = utts[k]
    bad = dp.UtteranceRecord(u.utt_id, u.speaker, u.feats.copy(), u.labels)
    bad.feats[2, 1] = np.nan
    return utts[:k] + [bad] + utts[k + 1:]


@pytest.mark.parametrize("half", [0, 1])
def test_an_error_in_either_half_is_raised_here(monkeypatch, half):
    # one scoring batch of 4: this process scores utterances 0 and 1, the
    # worker 2 and 3. Unchecked, the NaN reaches the LIN's gradient, which
    # Adam refuses; checked, the op that made it is named, from either
    # process
    utts = with_nan(speaker_corpus(seed=23, n_utts=4).utts, 3 * half)
    params = tiny_model()
    set_usable_cpus(monkeypatch, 2)
    pids = record_forks(monkeypatch)
    with pytest.raises(NumericError, match="parameter 'lin.w'"):
        session_run(params, utts, heldout=utts)
    with pytest.raises(NumericError,
                       match=r"non-finite values produced by op '\w+'"):
        with tc.finite_checks():
            session_run(params, utts, heldout=utts)
    assert len(pids) == 1  # one worker for both sessions
    tr.close_worker()
    assert_reaped(pids)
    assert all(t.requires_grad for _, t in params.named_parameters())


def test_a_killed_worker_is_named_without_a_hang(monkeypatch):
    c = speaker_corpus(seed=24, n_utts=9)
    params = tiny_model()
    set_usable_cpus(monkeypatch, 2)
    pids = record_forks(monkeypatch)
    forwards_here(monkeypatch, lambda k: k == 3 and os.kill(
        pids[0], signal.SIGKILL))
    with pytest.raises(ChildProcessError) as err:
        session_run(params, c.utts)
    assert str(err.value) == (f"ucam worker (pid {pids[0]}) was killed "
                              f"by signal 9 before it answered")
    assert_reaped(pids)
    # the next session forks a fresh worker
    monkeypatch.setattr(ad, "model_forward", model_forward)
    set_usable_cpus(monkeypatch, 1)
    serial = session_run(params, c.utts)
    set_usable_cpus(monkeypatch, 2)
    assert session_run(params, c.utts) == serial
    assert len(pids) == 2


def test_an_interrupt_here_leaves_the_worker_in_step(monkeypatch):
    # the interrupt comes while the worker scores its half; the next
    # session's every batch gets its own answer from the same worker
    c = speaker_corpus(seed=25, n_utts=9)
    params = tiny_model()
    set_usable_cpus(monkeypatch, 1)
    serial = session_run(params, c.utts)
    set_usable_cpus(monkeypatch, 2)
    pids = record_forks(monkeypatch)

    def interrupt(k):
        if k == 3:
            raise KeyboardInterrupt
    forwards_here(monkeypatch, interrupt)
    with pytest.raises(KeyboardInterrupt):
        session_run(params, c.utts)
    assert all(t.requires_grad for _, t in params.named_parameters())
    assert session_run(params, c.utts) == serial
    assert len(pids) == 1
    tr.close_worker()
    assert_reaped(pids)


# ---------------------------------------------------------------------------
# gradients



def lin_path_loss(c, params, w):
    batch = first_batch(c.utts, w.data.dtype)
    lin = ad.LinTransform(w.shape[0])
    lin.w = w
    out = model_forward(ad.lin_batch(batch, lin), batch.mask, params)
    return tr.masked_cross_entropy(out, batch.labels, batch.mask)


def test_gradient_flows_to_w_only():
    c = speaker_corpus(seed=12, n_utts=2)
    params = tiny_model(dtype=np.float64)
    params.set_requires_grad(False)
    w = tc.parameter(np.eye(8) + 0.01 * np.random.default_rng(0)
                     .standard_normal((8, 8)))
    tc.backward(lin_path_loss(c, params, w))
    assert w.grad is not None and np.any(w.grad != 0)
    assert all(t.grad is None for _, t in params.named_parameters())
    params.set_requires_grad(True)


def test_frozen_model_leaves_lin_gradient_bitwise_unchanged():
    c = speaker_corpus(seed=12, n_utts=3)
    params = tiny_model()
    w0 = np.eye(8) + 0.01 * np.random.default_rng(0).standard_normal((8, 8))
    grads = []
    for frozen in (False, True):
        params.set_requires_grad(not frozen)
        tc.zero_grad(params.named_parameters())
        w = tc.parameter(w0, dtype=np.float32)
        tc.backward(lin_path_loss(c, params, w))
        grads.append(w.grad.tobytes())
    params.set_requires_grad(True)
    assert grads[0] == grads[1]


def test_w_gradient_check_float64():
    c = speaker_corpus(seed=12, n_utts=2)
    params = tiny_model(dtype=np.float64)
    params.set_requires_grad(False)
    w = tc.parameter(np.eye(8) + 0.01 * np.random.default_rng(0)
                     .standard_normal((8, 8)))
    err = tc.grad_check(lambda _: lin_path_loss(c, params, w), {"w": w},
                        eps=1e-5, samples_per_tensor=25)
    assert err < 1e-5
    params.set_requires_grad(True)


# ---------------------------------------------------------------------------
# persistence


def test_save_load_lin_round_trip(tmp_path):
    lin = ad.LinTransform(6, "spk3")
    lin.w.data = np.random.default_rng(5).standard_normal(
        (6, 6)).astype(np.float32)
    path = tmp_path / "lin.ucam"
    ad.save_lin(lin, path)
    back = ad.load_lin(path)
    assert back.speaker == "spk3"
    assert back.w.data.tobytes() == lin.w.data.tobytes()


def test_load_lin_rejects_missing_or_malformed_tensor(tmp_path):
    serial.write_container(tmp_path / "a.ucam",
                           {"kind": "lin", "speaker": "s", "feat_dim": 4},
                           [("lin.other", np.eye(4, dtype=np.float32))])
    with pytest.raises(StructureError, match="missing"):
        ad.load_lin(tmp_path / "a.ucam")
    serial.write_container(tmp_path / "b.ucam",
                           {"kind": "lin", "speaker": "s", "feat_dim": 4},
                           [("lin.s", np.zeros((2, 3), np.float32))])
    with pytest.raises(StructureError, match="square"):
        ad.load_lin(tmp_path / "b.ucam")


def test_load_lin_rejects_an_empty_or_non_finite_matrix(tmp_path):
    serial.write_container(tmp_path / "a.ucam",
                           {"kind": "lin", "speaker": "s", "feat_dim": 0},
                           [("lin.s", np.zeros((0, 0), np.float32))])
    with pytest.raises(StructureError, match="positive integer feat_dim, "
                                             "got 0"):
        ad.load_lin(tmp_path / "a.ucam")
    w = np.eye(4, dtype=np.float32)
    w[1, 2] = np.nan
    serial.write_container(tmp_path / "b.ucam",
                           {"kind": "lin", "speaker": "s", "feat_dim": 4},
                           [("lin.s", w)])
    with pytest.raises(DataError, match="lin file record 'lin.s' holds "
                                        "non-finite"):
        ad.load_lin(tmp_path / "b.ucam")
