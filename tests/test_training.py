import errno
import json
import math
import os
import pickle
import signal
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from ucam import data as dp
from ucam import serial
from ucam import tensor as tc
from ucam import training as tr
from ucam.adaptation import adapt_speaker
from ucam.errors import (ConfigError, DataError, DivergenceError,
                         NumericError)
from ucam.masking import SequenceMask
from ucam.model import (ModelParams, desk_config, load_checkpoint,
                        micro_config, model_forward, save_checkpoint)
from ucam.rng import keyed


# ---------------------------------------------------------------------------
# learning-rate schedule


def test_schedule_peak_closed_form():
    cfg = tr.TrainConfig(warmup=20000, lr_factor=5.0)
    expect = 5.0 * 256.0 ** -0.5 * 20000.0 ** -0.5
    assert abs(cfg.lr_at(20000, 256) - expect) <= 1e-9
    assert abs(expect - 2.2097e-3) < 1e-6


def test_schedule_linear_during_warmup():
    cfg = tr.TrainConfig(warmup=100, lr_factor=2.0)
    for k in (1, 7, 50, 100):
        assert cfg.lr_at(k, 64) == pytest.approx(
            k * 2.0 * 64.0 ** -0.5 * 100.0 ** -1.5, abs=1e-15)


def test_schedule_inverse_sqrt_after_warmup():
    cfg = tr.TrainConfig(warmup=100, lr_factor=2.0)
    for k in (101, 400, 10000):
        assert cfg.lr_at(k, 64) == pytest.approx(
            2.0 * 64.0 ** -0.5 * k ** -0.5, abs=1e-15)


def test_schedule_monotone_around_peak():
    cfg = tr.TrainConfig(warmup=50, lr_factor=1.0)
    values = [cfg.lr_at(k, 32) for k in range(1, 201)]
    peak = values.index(max(values)) + 1
    assert peak == 50
    assert all(b > a for a, b in zip(values[:49], values[1:50]))
    assert all(b < a for a, b in zip(values[49:-1], values[50:]))


def test_schedule_rejects_bad_input():
    # d_attn comes from an AcousticModelConfig, which refuses d_attn < 1
    with pytest.raises(ConfigError):
        tr.TrainConfig(warmup=0)
    with pytest.raises(ConfigError, match="steps >= 1"):
        tr.TrainConfig().lr_at(0, 8)


# ---------------------------------------------------------------------------
# Adam


def make_param(values, dtype=np.float64):
    return tc.parameter(np.asarray(values, dtype=dtype))


def test_adam_constant_gradient_closed_form():
    # with a constant gradient both bias-corrected moments are exactly 1,
    # so each step moves by lr / (1 + eps)
    p = make_param([0.0])
    adam = tr.AdamState([("w", p)])
    for _ in range(3):
        p.grad = np.array([1.0])
        adam.apply(0.1)
    assert abs(p.data[0] + 3 * 0.1 / (1.0 + 1e-9)) < 1e-15


def adam_reference(grads, lr, beta1=0.9, beta2=0.98, eps=1e-9):
    """Textbook form with explicit m-hat / v-hat bias correction."""
    theta = np.zeros_like(grads[0])
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    for t, g in enumerate(grads, start=1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1 ** t)
        v_hat = v / (1 - beta2 ** t)
        theta = theta - lr * m_hat / (np.sqrt(v_hat) + eps)
    return theta


def test_adam_matches_reference_iteration():
    rng = np.random.default_rng(0)
    grads = [rng.standard_normal(5) for _ in range(7)]
    p = make_param(np.zeros(5))
    adam = tr.AdamState([("w", p)])
    for g in grads:
        p.grad = g.copy()
        adam.apply(3e-3)
    np.testing.assert_allclose(p.data, adam_reference(grads, 3e-3),
                               atol=1e-10)


def test_adam_moments_use_parameter_dtype():
    p = make_param([1.0, 2.0], dtype=np.float32)
    adam = tr.AdamState([("w", p)])
    assert adam.m["w"].dtype == np.float32
    p.grad = np.array([0.5, -0.5], dtype=np.float32)
    adam.apply(1e-3)
    assert adam.m["w"].dtype == np.float32
    assert p.data.dtype == np.float32


def test_adam_rejects_nonfinite_gradient_without_side_effects():
    p = make_param([1.0])
    q = make_param([2.0])
    adam = tr.AdamState([("a", p), ("b", q)])
    p.grad = np.array([0.1])
    q.grad = np.array([np.nan])
    with pytest.raises(NumericError, match="'b'"):
        adam.apply(1e-2)
    # nothing moved, nothing half-updated
    assert p.data[0] == 1.0 and q.data[0] == 2.0
    assert adam.step == 0
    assert np.all(adam.m["a"] == 0)


def test_adam_skips_parameters_without_gradient():
    p = make_param([1.0])
    frozen = make_param([5.0])
    frozen.requires_grad = False
    adam = tr.AdamState([("live", p), ("frozen", frozen)])
    p.grad = np.array([1.0])
    adam.apply(1e-2)
    assert frozen.data[0] == 5.0
    assert p.data[0] != 1.0


def test_adam_state_round_trip():
    p = make_param([0.0, 0.0])
    adam = tr.AdamState([("w", p)])
    for t in range(4):
        p.grad = np.array([1.0, -0.5]) * (t + 1)
        adam.apply(1e-2)
    stored = {n: a.copy() for n, a in adam.state_tensors()}

    q = make_param(p.data.copy())
    fresh = tr.AdamState([("w", q)])
    fresh.load_state(stored, adam.step)
    assert fresh.step == adam.step
    np.testing.assert_array_equal(fresh.m["w"], adam.m["w"])
    np.testing.assert_array_equal(fresh.v["w"], adam.v["w"])
    # next update identical from restored state
    p.grad = np.array([0.3, 0.3])
    q.grad = np.array([0.3, 0.3])
    adam.apply(1e-2)
    fresh.apply(1e-2)
    np.testing.assert_array_equal(p.data, q.data)


def test_adam_load_state_validates():
    p = make_param([0.0, 0.0])
    adam = tr.AdamState([("w", p)])
    with pytest.raises(ConfigError):
        adam.load_state({"opt.m.w": np.zeros(2)}, 1)
    with pytest.raises(ConfigError):
        adam.load_state({"opt.m.w": np.zeros(3), "opt.v.w": np.zeros(3)}, 1)


# ---------------------------------------------------------------------------
# EMA


def test_ema_fixed_point_and_one_step():
    p = make_param([2.0])
    ema = tr.EMAState([("w", p)], decay=0.9)
    ema.update()
    assert ema.shadow["w"][0] == pytest.approx(2.0, abs=1e-15)
    p.data = np.array([3.0])
    ema.update()
    assert ema.shadow["w"][0] == pytest.approx(0.9 * 2.0 + 0.1 * 3.0,
                                               abs=1e-15)


def test_ema_geometric_closed_form():
    # parameters jump once then stay frozen: after k updates the shadow is
    # d^k * start + (1 - d^k) * frozen value
    d, k = 0.999, 57
    p = make_param([1.0])
    ema = tr.EMAState([("w", p)], decay=d)
    p.data = np.array([4.0])
    for _ in range(k):
        ema.update()
    expect = d ** k * 1.0 + (1 - d ** k) * 4.0
    assert abs(ema.shadow["w"][0] - expect) <= 1e-9


def test_ema_updates_each_shadow_in_place():
    rng = np.random.default_rng(5)
    named = [("a", make_param(rng.standard_normal((3, 4)), dtype=np.float32)),
             ("b", make_param(rng.standard_normal(5)))]
    ema = tr.EMAState(named, decay=0.97)
    shadows = {n: ema.shadow[n] for n, _ in named}
    want = {n: ema.shadow[n].copy() for n, _ in named}
    for _ in range(5):
        for n, p in named:
            p.data = (p.data + rng.standard_normal(p.shape)).astype(
                p.data.dtype)
            want[n] = 0.97 * want[n] + (1.0 - 0.97) * p.data
        ema.update()
        for n, _ in named:
            assert ema.shadow[n] is shadows[n]
            assert ema.shadow[n].dtype == np.float64
            assert ema.shadow[n].tobytes() == want[n].tobytes()


def test_ema_swapped_restores():
    p = make_param([1.5], dtype=np.float32)
    ema = tr.EMAState([("w", p)], decay=0.5)
    p.data = np.array([9.0], dtype=np.float32)
    ema.update()
    with ema.swapped():
        assert p.data.dtype == np.float32
        assert p.data[0] == pytest.approx(0.5 * 1.5 + 0.5 * 9.0, rel=1e-6)
    assert p.data[0] == 9.0


def test_ema_rejects_bad_decay():
    with pytest.raises(ConfigError):
        tr.EMAState([("w", make_param([0.0]))], decay=1.0)


# ---------------------------------------------------------------------------
# masked cross entropy


def log_probs_tensor(rng, b, t, k):
    raw = rng.standard_normal((b, t, k))
    lp = raw - np.log(np.exp(raw).sum(-1, keepdims=True))
    return tc.parameter(lp)


def test_masked_ce_uniform_is_log_k():
    k = 7
    lp = tc.tensor(np.full((2, 5, k), -math.log(k)))
    labels = np.zeros((2, 5), dtype=np.int64)
    loss = tr.masked_cross_entropy(lp, labels, SequenceMask(
        [5, 3]))
    assert loss.item() == pytest.approx(math.log(k), abs=1e-12)


def test_masked_ce_matches_manual_mean():
    rng = np.random.default_rng(3)
    lp = log_probs_tensor(rng, 2, 6, 4)
    labels = rng.integers(0, 4, (2, 6))
    mask = SequenceMask([6, 2])
    loss = tr.masked_cross_entropy(lp, labels, mask)
    manual = -(sum(lp.data[0, t, labels[0, t]] for t in range(6))
               + sum(lp.data[1, t, labels[1, t]] for t in range(2))) / 8
    assert loss.item() == pytest.approx(manual, abs=1e-12)


def test_masked_ce_ignores_padded_labels_bitwise():
    rng = np.random.default_rng(4)
    lp1 = log_probs_tensor(rng, 2, 6, 4)
    lp2 = tc.parameter(lp1.data.copy())
    labels = rng.integers(0, 4, (2, 6))
    garbage = labels.copy()
    garbage[0, 4:] = 999999
    garbage[1, 2:] = -5
    mask = SequenceMask([4, 2], 6)
    a = tr.masked_cross_entropy(lp1, labels, mask)
    b = tr.masked_cross_entropy(lp2, garbage, mask)
    assert a.item() == b.item()
    tc.backward(a)
    tc.backward(b)
    assert lp1.grad.tobytes() == lp2.grad.tobytes()


def test_masked_ce_gradient_zero_at_padding():
    rng = np.random.default_rng(5)
    lp = log_probs_tensor(rng, 2, 5, 3)
    labels = rng.integers(0, 3, (2, 5))
    mask = SequenceMask([3, 5])
    loss = tr.masked_cross_entropy(lp, labels, mask)
    tc.backward(loss)
    assert np.all(lp.grad[0, 3:] == 0)
    assert np.any(lp.grad[0, :3] != 0)


def test_masked_ce_names_offending_frame():
    lp = tc.tensor(np.zeros((2, 4, 3)))
    labels = np.zeros((2, 4), dtype=np.int64)
    labels[1, 2] = 3
    with pytest.raises(DataError, match=r"batch 1, frame 2"):
        tr.masked_cross_entropy(lp, labels, SequenceMask(
            [4, 4]))


def test_masked_ce_rejects_shape_mismatch():
    lp = tc.tensor(np.zeros((2, 4, 3)))
    with pytest.raises(DataError):
        tr.masked_cross_entropy(lp, np.zeros((2, 5), np.int64),
                                SequenceMask([4, 4]))


# ---------------------------------------------------------------------------
# evaluate / fit


def tiny_corpus(n_utts=8, seed=0):
    return dp.synth_corpus(seed=seed, n_speakers=2, n_classes=5,
                           n_utts=n_utts, feat_dim=8, t_range=(6, 12))


def tiny_params(seed=0):
    return ModelParams.create(micro_config(), rng=keyed(seed, "init"))


def test_evaluate_empty_is_a_config_error():
    with pytest.raises(ConfigError, match="evaluate.*none"):
        tr.evaluate(tiny_params(), [])


def test_evaluate_error_mid_corpus_leaves_recording_on():
    c = tiny_corpus()
    c.utts[4].labels[0] = 99  # out of range, in the second batch
    params = tiny_params()
    try:
        tr.evaluate(params, c.utts, batch_size=3)
    except DataError:
        # the exception, and the frames it holds, are still alive here
        assert tc.needs_grad(params.w_h2)
    else:
        pytest.fail("evaluate accepted an out-of-range label")


def test_evaluate_deterministic_and_batch_size_invariant():
    c = tiny_corpus()
    params = tiny_params()
    a = tr.evaluate(params, c.utts, batch_size=3)
    b = tr.evaluate(params, c.utts, batch_size=3)
    assert a == b
    single = tr.evaluate(params, c.utts, batch_size=1)
    assert a[0] == pytest.approx(single[0], abs=1e-5)
    assert a[1] == single[1]


# ---------------------------------------------------------------------------
# posteriors: the second half of each batch on the worker


def set_usable_cpus(monkeypatch, n: int) -> None:
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


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


def split_batch(cfg, dtype, n_utts: int, t_max: int):
    """A padded batch of ``n_utts`` utterances of T in [t_max // 2, t_max]
    whose longest is ``t_max``, and the model to score it with. The
    longest sits in the first half at 3 utterances and in the second at
    2, 4 and 5, so the other half is padded beyond its own longest."""
    utts = dp.synth_corpus(seed=n_utts * 1000 + t_max, n_speakers=2,
                           n_classes=cfg.n_senones, n_utts=n_utts,
                           feat_dim=cfg.feat_dim,
                           t_range=(max(1, t_max // 2), t_max)).utts
    utts[-1 - n_utts // 3] = dp.synth_corpus(
        seed=1, n_speakers=1, n_classes=cfg.n_senones, n_utts=1,
        feat_dim=cfg.feat_dim, t_range=(t_max, t_max)).utts[0]
    batch = next(dp.batch_pad(utts, batch_size=n_utts))
    assert batch.mask.max_len == t_max
    batch = dp.Batch(batch.feats.astype(dtype), batch.labels, batch.mask)
    return ModelParams.create(cfg, rng=keyed(t_max, "init"),
                              dtype=dtype), batch


def unsplit_forward(params, batch) -> np.ndarray:
    with tc.no_grad():
        return model_forward(tc.tensor(batch.feats), batch.mask,
                             params).data


@pytest.mark.parametrize("config", [desk_config, micro_config])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n_utts", [1, 2, 3, 4, 5])
def test_posteriors_split_is_bitwise_the_unsplit_forward(
        monkeypatch, config, dtype, n_utts):
    set_usable_cpus(monkeypatch, 2)
    pids = record_forks(monkeypatch)
    for t_max in (1, 37, 400):
        params, batch = split_batch(config(), dtype, n_utts, t_max)
        want = unsplit_forward(params, batch)
        (got_batch, got), = tr.posteriors(params, [batch])
        assert got_batch is batch
        assert got.data.dtype == want.dtype
        assert got.data.shape == want.shape
        assert got.data.tobytes() == want.tobytes()
        assert not got.requires_grad and got._parents is None
    # a batch of one utterance has no second half
    assert len(pids) == int(n_utts > 1)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_evaluate_on_two_processes_is_the_one_process_result(monkeypatch,
                                                             dtype):
    # batch_pad makes float32 planes, so a float64 model's posteriors are
    # compared on batches cast to float64
    utts = dp.synth_corpus(seed=31, n_speakers=2, n_classes=10, n_utts=9,
                           feat_dim=16, t_range=(1, 400)).utts
    params = ModelParams.create(desk_config(), rng=keyed(31, "init"),
                                dtype=dtype)

    def scores():
        return [b"".join(out.data.tobytes() for _, out in tr.posteriors(
            params, (dp.Batch(b.feats.astype(dtype), b.labels, b.mask)
                     for b in dp.batch_pad(utts, batch_size=size))))
            for size in (1, 2, 3, 4)] + ([
                tr.evaluate(params, utts, batch_size=size)
                for size in (1, 2, 3, 4)] if dtype == np.float32 else [])
    set_usable_cpus(monkeypatch, 2)
    pids = record_forks(monkeypatch)
    split = scores()
    assert len(pids) == 1
    monkeypatch.setattr(tr, "can_fork", lambda: False)
    assert scores() == split


def test_posteriors_on_one_cpu_starts_no_thread(monkeypatch):
    # nor a process: no worker forks
    threads = threading.active_count()
    pids = record_forks(monkeypatch)
    params, long = split_batch(desk_config(), np.float32, 4, 100)
    set_usable_cpus(monkeypatch, 1)
    (_, out), = tr.posteriors(params, [long])
    assert pids == []
    assert out.data.tobytes() == unsplit_forward(params, long).tobytes()
    set_usable_cpus(monkeypatch, 2)
    list(tr.posteriors(params, [long]))
    assert len(pids) == 1
    assert threading.active_count() == threads


@pytest.mark.parametrize("cpus", [1, 2])
def test_posteriors_without_affinity_counts_cpus(monkeypatch, cpus):
    # os.sched_getaffinity exists on Linux only
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    pids = record_forks(monkeypatch)
    params, long = split_batch(desk_config(), np.float32, 4, 100)
    (_, out), = tr.posteriors(params, [long])
    assert len(pids) == cpus - 1
    assert out.data.tobytes() == unsplit_forward(params, long).tobytes()


def with_nan(batch, k):
    """``batch`` with a NaN at a valid frame of utterance k (every T is
    >= 6)."""
    feats = batch.feats.copy()
    feats[k, 0, 2, 5] = np.nan
    return dp.Batch(feats, batch.labels, batch.mask)


def test_posteriors_raises_the_second_halfs_error_and_cleans_up(
        monkeypatch):
    set_usable_cpus(monkeypatch, 2)
    pids = record_forks(monkeypatch)
    params, batch = split_batch(micro_config(), np.float32, 4, 12)
    with pytest.raises(NumericError, match="op 'apply_mask'"):
        with tc.finite_checks():
            list(tr.posteriors(params, [with_nan(batch, 3)]))
    assert tc.needs_grad(params.w_h2)
    # the first half alone is finite: the error came from the worker
    with tc.finite_checks(), tc.no_grad():
        tr._forward(params, with_nan(batch, 3).rows(0, 2))
    # which answers the next batch with its own half
    (_, out), = tr.posteriors(params, [batch])
    assert out.data.tobytes() == unsplit_forward(params, batch).tobytes()
    assert len(pids) == 1


@pytest.mark.parametrize("error", [NumericError, KeyboardInterrupt])
def test_an_error_in_the_callers_half_leaves_the_pipe_in_step(monkeypatch,
                                                              error):
    # the caller's half raises while the worker's answer is on its way;
    # the next call still gets its own answer, from the same worker
    set_usable_cpus(monkeypatch, 2)
    pids = record_forks(monkeypatch)
    params, batch = split_batch(micro_config(), np.float32, 4, 12)
    forward, parent = tr.model_forward, os.getpid()

    def interrupted(x, mask, params):
        if os.getpid() == parent and error is KeyboardInterrupt:
            raise KeyboardInterrupt
        return forward(x, mask, params)
    monkeypatch.setattr(tr, "model_forward", interrupted)
    with pytest.raises(error):
        with tc.finite_checks():
            list(tr.posteriors(params, [with_nan(batch, 0)]))
    assert tr._worker.busy
    monkeypatch.setattr(tr, "model_forward", forward)
    other_params, other = split_batch(micro_config(), np.float32, 3, 20)
    (_, out), = tr.posteriors(other_params, [other])
    assert out.data.tobytes() \
        == unsplit_forward(other_params, other).tobytes()
    assert len(pids) == 1 and tr._worker.pid == pids[0]
    assert tc.needs_grad(params.w_h2)


class _CutRecv:
    """A worker's pipe whose next ``recv`` is interrupted."""

    def __init__(self, conn):
        self.conn = conn

    def recv(self):
        raise KeyboardInterrupt

    def __getattr__(self, name):
        return getattr(self.conn, name)


def test_an_interrupt_mid_answer_closes_the_worker_and_forks_anew(
        monkeypatch):
    set_usable_cpus(monkeypatch, 2)
    pids = record_forks(monkeypatch)
    params, batch = split_batch(micro_config(), np.float32, 4, 12)
    list(tr.posteriors(params, [batch]))
    tr._worker.conn = _CutRecv(tr._worker.conn)
    with pytest.raises(KeyboardInterrupt):
        list(tr.posteriors(params, [batch]))
    assert_reaped(pids)
    (_, out), = tr.posteriors(params, [batch])
    assert out.data.tobytes() == unsplit_forward(params, batch).tobytes()
    assert len(pids) == 2 and tr._worker.pid == pids[1]


def test_a_killed_worker_is_named_and_the_next_call_forks_anew(
        monkeypatch):
    set_usable_cpus(monkeypatch, 2)
    pids = record_forks(monkeypatch)
    params, batch = split_batch(micro_config(), np.float32, 4, 12)
    list(tr.posteriors(params, [batch]))
    os.kill(pids[0], signal.SIGKILL)
    t0 = time.monotonic()
    with pytest.raises(ChildProcessError) as err:
        list(tr.posteriors(params, [batch]))
    assert time.monotonic() - t0 < 30
    assert str(err.value) == (f"ucam worker (pid {pids[0]}) was killed by "
                              f"signal 9 before it answered")
    assert_reaped(pids)
    (_, out), = tr.posteriors(params, [batch])
    assert out.data.tobytes() == unsplit_forward(params, batch).tobytes()
    assert len(pids) == 2


def worker_flags(model) -> list:
    """``requires_grad`` of every tensor of the worker's model."""
    return [t.requires_grad for _, t in model.named_parameters()]


def test_weights_travel_only_when_their_bytes_change(monkeypatch, tmp_path):
    set_usable_cpus(monkeypatch, 2)
    bind, sent = tr.Worker._bind, []

    def recording_bind(self, params):
        update = bind(self, params)
        assert update is None or update is params
        sent.append(update is params)  # whether the whole model travels
        return update
    monkeypatch.setattr(tr.Worker, "_bind", recording_bind)
    params, batch = split_batch(micro_config(), np.float32, 4, 12)

    def score(p):
        (_, out), = tr.posteriors(p, [batch])
        assert out.data.tobytes() == unsplit_forward(p, batch).tobytes()
    score(params)
    score(params)
    save_checkpoint(params, tmp_path / "m.ckpt")
    score(load_checkpoint(tmp_path / "m.ckpt").params)
    assert sent == [True, False, False]
    # a weight changed in place, then a bias of +0.0 turned -0.0
    named = params.named_parameters()
    zeros = next(t for _, t in named if not t.data.any())
    named[0][1].data[0] += 1.0
    score(params)
    zeros.data[:] = -zeros.data
    score(params)
    assert sent[3:] == [True, True]
    # a frozen weight alone: flags never travel
    named[-1][1].requires_grad = False
    score(params)
    assert sent[-1] is False
    # another config: the whole model travels
    cfg = micro_config()
    other = ModelParams.create(type(cfg)(**{**cfg.__dict__, "n_senones": 9}))
    score(other)
    assert sent[-1] is True
    # the worker's copy is frozen, whatever the caller's flags
    assert all(worker_flags(other))
    w = tr.worker()
    w.send(worker_flags, other)
    flags = w.result()
    assert sent[-1] is False
    assert len(flags) == len(named) and not any(flags)


def test_the_worker_is_reaped_at_exit(tmp_path):
    # atexit runs its handlers last in, first out: this script's check
    # runs after ucam's own handler, registered when ucam was imported
    script = tmp_path / "run.py"
    script.write_text(
        "import atexit, os, sys\n"
        "worker = []\n"
        "def check():\n"
        "    try:\n"
        "        os.waitpid(worker[0], os.WNOHANG)\n"
        "    except ChildProcessError:\n"
        "        print('reaped', flush=True)\n"
        "atexit.register(check)\n"
        "from ucam import data as dp, training as tr\n"
        "from ucam.model import ModelParams, micro_config\n"
        "tr._usable_cpus = lambda: 2\n"
        "utts = dp.synth_corpus(seed=0, n_speakers=2, n_classes=5,\n"
        "                       n_utts=2, feat_dim=8, t_range=(6, 12)).utts\n"
        "tr.evaluate(ModelParams.create(micro_config()), utts)\n"
        "worker.append(tr._worker.pid)\n"
        "print(worker[0], flush=True)\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    run = subprocess.run([sys.executable, str(script)], env=env,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    pid, reaped = run.stdout.split()
    assert reaped == "reaped"
    with pytest.raises(ProcessLookupError):
        os.kill(int(pid), 0)


def test_a_forked_process_never_talks_to_its_parents_worker(monkeypatch,
                                                            tmp_path):
    set_usable_cpus(monkeypatch, 2)
    params, batch = split_batch(micro_config(), np.float32, 4, 12)
    want = unsplit_forward(params, batch).tobytes()
    list(tr.posteriors(params, [batch]))
    parents_worker = tr._worker.pid
    pid = os.fork()
    if pid == 0:  # scores with a worker of its own, then waits
        code = 1
        try:
            if tr._worker is None:
                (_, out), = tr.posteriors(params, [batch])
                if (out.data.tobytes() == want
                        and tr._worker.pid != parents_worker):
                    tr.close_worker()
                    (tmp_path / "ok").touch()
                    code = 0
            for _ in range(3000):
                if (tmp_path / "go").exists():
                    break
                time.sleep(0.01)
        finally:
            os._exit(code)
    try:
        wait_for(tmp_path / "ok")
        (_, out), = tr.posteriors(params, [batch])
        assert out.data.tobytes() == want
        assert tr._worker.pid == parents_worker
        # the child closed its copy of the pipe: the worker sees it end
        t0 = time.monotonic()
        tr.close_worker()
        assert time.monotonic() - t0 < 10
    finally:
        (tmp_path / "go").touch()
        assert os.waitpid(pid, 0)[1] == 0


def fit_once(tmp, steps=6, seed=0, resume_from=None, **kw):
    c = tiny_corpus()
    params = tiny_params(seed)
    cfg = tr.TrainConfig(**{"steps": steps, "batch_size": 3,
                            "eval_every": 3, "seed": 0, **kw})
    report = tr.fit(params, c.utts[:6], c.utts[6:], cfg, tmp,
                    resume_from=resume_from)
    return params, report


def test_fit_deterministic_bit_exact(tmp_path):
    p1, r1 = fit_once(tmp_path / "a")
    p2, r2 = fit_once(tmp_path / "b")
    for (n1, t1), (n2, t2) in zip(p1.named_parameters(),
                                  p2.named_parameters()):
        assert n1 == n2 and t1.data.tobytes() == t2.data.tobytes()
    assert (tmp_path / "a" / "train_log.csv").read_text() \
        == (tmp_path / "b" / "train_log.csv").read_text()
    assert r1["best_dev"] == r2["best_dev"]


def test_fit_resume_reproduces_uninterrupted_run(tmp_path):
    full, _ = fit_once(tmp_path / "full", steps=6)
    fit_once(tmp_path / "part", steps=3)
    resumed, _ = fit_once(tmp_path / "part", steps=6,
                          resume_from=tmp_path / "part" / "last.ckpt")
    for (n, a), (_, b) in zip(full.named_parameters(),
                              resumed.named_parameters()):
        assert a.data.tobytes() == b.data.tobytes(), n
    full_log = (tmp_path / "full" / "train_log.csv").read_text()
    part_log = (tmp_path / "part" / "train_log.csv").read_text()
    assert full_log.splitlines()[4:] == part_log.splitlines()[4:]


class _Crash(Exception):
    pass


def _crash_at(monkeypatch, step=None, last_save=None):
    """Raise in training step ``step``, or right after last.ckpt of step
    ``last_save`` is written."""
    train_step, save = tr._train_step, tr.save_checkpoint

    def crashing_step(*args):
        if args[5] == step:
            raise _Crash
        return train_step(*args)

    def crashing_save(params, path, step=0, **kw):
        save(params, path, step=step, **kw)
        if os.path.basename(path) == "last.ckpt" and step == last_save:
            raise _Crash

    monkeypatch.setattr(tr, "_train_step", crashing_step)
    monkeypatch.setattr(tr, "save_checkpoint", crashing_save)
    tr.close_worker()  # the next worker forks with the patch


@pytest.mark.parametrize("crashes,fit_kw", [
    ([{"step": 5}], {"steps": 8}),
    ([{"last_save": 6}], {"steps": 8}),
    ([{"step": 5}, {"last_save": 6}], {"steps": 8}),
    # inside the EMA fine-tune phase, which has no resume point of its own
    ([{"step": 6}], {"steps": 4, "finetune_steps": 3})],
    ids=["step5", "last_save6", "step5_then_last_save6", "finetune_step6"])
def test_fit_resume_after_crash_matches_uninterrupted_run(
        tmp_path, monkeypatch, crashes, fit_kw):
    full = tmp_path / "full"
    fit_once(full, **fit_kw)
    run = tmp_path / "run"
    resume = None
    for crash in crashes:
        _crash_at(monkeypatch, **crash)
        with pytest.raises(_Crash):
            fit_once(run, resume_from=resume, **fit_kw)
        monkeypatch.undo()
        tr.close_worker()
        resume = run / "last.ckpt"
    fit_once(run, resume_from=resume, **fit_kw)
    names = sorted(p.name for p in full.iterdir())
    assert sorted(p.name for p in run.iterdir()) == names
    for name in names:
        assert (run / name).read_bytes() == (full / name).read_bytes(), name


def _raise_after(records, k):
    """``records`` up to the k-th, then a crash: the write's header and k
    records are out, none of the rest."""
    for i, rec in enumerate(records):
        if i == k:
            raise _Crash
        yield rec
    raise _Crash


def append_record(path, record) -> None:
    """Append ``record`` to the file at ``path``: the worker records there
    too, where this process sees what it did."""
    with open(path, "a") as f:
        f.write(json.dumps(record) + "\n")


def read_records(path) -> list:
    """The records at ``path`` as tuples, in the order they were written."""
    with open(path) as f:
        return [tuple(json.loads(line)) for line in f]


def test_fit_crashed_in_every_step_and_every_write_matches_uninterrupted(
        tmp_path, monkeypatch):
    """A fit with a 2-step EMA fine-tune is crashed in each of its steps and
    inside each checkpoint write, after none, half and all of its records,
    and resumed from last.ckpt each time (from scratch while there is none);
    every file it leaves is the uninterrupted run's."""
    kw = {"steps": 6, "finetune_steps": 2}
    train_step, write = tr._train_step, serial.write_container
    recorded = tmp_path / "points.jsonl"

    def recording_step(*args):
        append_record(recorded, ("step", args[5]))
        return train_step(*args)

    def recording_write(path, header, tensors):
        tensors = list(tensors)
        for k in sorted({0, len(tensors) // 2, len(tensors)}):
            append_record(recorded, ("write", os.path.basename(path),
                                     header["step"], k))
        write(path, header, tensors)

    monkeypatch.setattr(tr, "_train_step", recording_step)
    monkeypatch.setattr(serial, "write_container", recording_write)
    fit_once(tmp_path / "full", **kw)
    monkeypatch.undo()
    tr.close_worker()
    # the crash points of an uninterrupted run, in run order: a step, then
    # the writes of that step, which the worker makes while the steps
    # after it run (the sort is stable, and each process writes in order)
    points = sorted(read_records(recorded),
                    key=lambda p: (p[1], 0) if p[0] == "step" else (p[2], 1))
    # 8 steps; best and last at steps 3 and 6 (best when dev improves),
    # final and ema
    assert len(points) >= 8 + 3 * 5

    run = tmp_path / "run"
    for point in points:
        def crashing_step(*args, point=point):
            if point == ("step", args[5]):
                raise _Crash
            return train_step(*args)

        def crashing_write(path, header, tensors, point=point):
            if point[:3] == ("write", os.path.basename(path),
                             header["step"]):
                tensors = _raise_after(tensors, point[3])
            write(path, header, tensors)

        monkeypatch.setattr(tr, "_train_step", crashing_step)
        monkeypatch.setattr(serial, "write_container", crashing_write)
        tr.close_worker()  # the next worker forks with the patches
        last = run / "last.ckpt"
        with pytest.raises(_Crash):
            fit_once(run, resume_from=last if last.exists() else None, **kw)
        monkeypatch.undo()
        tr.close_worker()
    fit_once(run, resume_from=run / "last.ckpt", **kw)
    names = sorted(p.name for p in (tmp_path / "full").iterdir())
    assert sorted(p.name for p in run.iterdir()) == names
    for name in names:
        assert (run / name).read_bytes() \
            == (tmp_path / "full" / name).read_bytes(), name


def test_interrupted_checkpoint_write_keeps_previous_file(
        tmp_path, monkeypatch):
    fit_once(tmp_path, steps=3)
    last = tmp_path / "last.ckpt"
    before = last.read_bytes()
    write = serial.write_container

    def raise_midway(records):
        for i, rec in enumerate(records):
            if i == 5:
                raise _Crash
            yield rec

    def crashing_write(path, header, tensors):
        if os.path.basename(path) == "last.ckpt":
            tensors = raise_midway(tensors)
        write(path, header, tensors)

    monkeypatch.setattr(serial, "write_container", crashing_write)
    tr.close_worker()  # the next worker forks with the patch
    with pytest.raises(_Crash):
        fit_once(tmp_path, steps=6, resume_from=last)
    monkeypatch.undo()
    assert last.read_bytes() == before
    assert load_checkpoint(last).step == 3
    assert sorted(p.name for p in tmp_path.iterdir()) \
        == ["best.ckpt", "last.ckpt", "train_log.csv"]


def test_fit_resume_keeps_only_complete_rows_up_to_checkpoint(tmp_path):
    fit_once(tmp_path / "full", steps=6)
    fit_once(tmp_path / "run", steps=3)
    log = tmp_path / "run" / "train_log.csv"
    with open(log, "a") as f:
        f.write("4,0.1,2.5\n5,0.1,2.")  # rows past the checkpoint, one cut
    fit_once(tmp_path / "run", steps=6,
             resume_from=tmp_path / "run" / "last.ckpt")
    assert log.read_bytes() \
        == (tmp_path / "full" / "train_log.csv").read_bytes()


def test_fit_fsyncs_the_log_before_each_checkpoint(tmp_path, monkeypatch):
    # after an OS crash a durable last.ckpt at step k must find the log's
    # rows up to k on disk too, or a resume writes a log of its own
    log = tmp_path / "run" / "train_log.csv"
    fsync = os.fsync
    # (file's inode, log size) at each fsync, in run order, from this
    # process and from the worker, which writes the checkpoints
    recorded = tmp_path / "fsyncs.jsonl"

    def recording_fsync(fd):
        fsync(fd)
        append_record(recorded, (os.fstat(fd).st_ino, os.path.getsize(log)))

    monkeypatch.setattr(os, "fsync", recording_fsync)
    fit_once(tmp_path / "run", steps=6, finetune_steps=2)
    monkeypatch.undo()
    synced = read_records(recorded)
    log_ino = log.stat().st_ino
    n_ckpt = 0
    log_synced = 0  # log bytes on disk at the last fsync of the log
    for ino, size in synced:
        if ino == log_ino:
            log_synced = size
        else:
            n_ckpt += 1
            assert log_synced == size > 0
    # best and last at steps 3 and 6 at most, then final and ema
    assert 4 <= n_ckpt <= 6
    assert log_synced == log.stat().st_size


def test_fit_resume_rejects_config_mismatch(tmp_path):
    fit_once(tmp_path / "a", steps=3)
    c = tiny_corpus()
    other = micro_config()
    other = type(other)(**{**other.__dict__, "n_senones": 9})
    params = ModelParams.create(other, rng=keyed(0, "init"))
    cfg = tr.TrainConfig(steps=4, batch_size=3, eval_every=2)
    with pytest.raises(ConfigError):
        tr.fit(params, c.utts[:6], c.utts[6:], cfg, tmp_path / "b",
               resume_from=tmp_path / "a" / "last.ckpt")


def test_fit_writes_artifacts_and_log_format(tmp_path):
    _, report = fit_once(tmp_path, steps=6)
    assert (tmp_path / "best.ckpt").exists()
    assert (tmp_path / "last.ckpt").exists()
    lines = (tmp_path / "train_log.csv").read_text().splitlines()
    assert lines[0] == "step,lr,train_loss,dev_loss,dev_frame_acc"
    assert len(lines) == 7
    # eval rows carry five fields, plain rows three
    assert len(lines[3].split(",")) == 5
    assert len(lines[1].split(",")) == 3
    assert report["steps"] == 6
    assert math.isfinite(report["best_dev"])


def test_fit_best_checkpoint_tracks_best_dev(tmp_path):
    _, report = fit_once(tmp_path, steps=6)
    ck = load_checkpoint(tmp_path / "best.ckpt")
    assert ck.header["best_dev"] == report["best_dev"]
    devs = [h[3][0] for h in report["history"] if h[3] is not None]
    assert report["best_dev"] == min(devs)


def test_fit_finetune_phase_exports_ema(tmp_path):
    _, report = fit_once(tmp_path, steps=4, finetune_steps=3)
    assert (tmp_path / "final.ckpt").exists()
    assert (tmp_path / "ema.ckpt").exists()
    assert report["finetune_dev"] is not None
    raw = load_checkpoint(tmp_path / "final.ckpt")
    ema = load_checkpoint(tmp_path / "ema.ckpt")
    assert raw.step == ema.step == 7
    diff = [not np.array_equal(a.data, b.data)
            for (_, a), (_, b) in zip(raw.params.named_parameters(),
                                      ema.params.named_parameters())]
    assert any(diff)  # shadow lags the raw weights


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_fit_divergence_is_loud(tmp_path):
    c = tiny_corpus()
    params = tiny_params()
    cfg = tr.TrainConfig(steps=50, batch_size=3, eval_every=50,
                         warmup=1, lr_factor=1e12)
    with pytest.raises((DivergenceError, NumericError)):
        tr.fit(params, c.utts[:6], c.utts[6:], cfg, tmp_path)


@pytest.mark.parametrize("empty", ["train", "dev"])
def test_fit_refuses_an_empty_set_before_it_writes(tmp_path, empty):
    c = tiny_corpus()
    sets = {"train": c.utts[:6], "dev": c.utts[6:], empty: []}
    cfg = tr.TrainConfig(steps=4, batch_size=3, eval_every=2)
    with pytest.raises(ConfigError, match=f"one {empty} utterance, got none"):
        tr.fit(tiny_params(), sets["train"], sets["dev"], cfg,
               tmp_path / "run")
    assert not (tmp_path / "run").exists()


# ---------------------------------------------------------------------------
# fit on two processes: each eval step's work on the worker


def files_of(out) -> dict:
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def on_worker_and_alone(tmp_path, monkeypatch, run) -> tuple:
    """What ``run(out_dir)`` returns, pickled, or the type of what it
    raises, and the files it leaves, first with fit's evals on the worker,
    then with the fork rule off; and the pids forked."""
    pids = record_forks(monkeypatch)
    set_usable_cpus(monkeypatch, 2)
    runs = []
    for worker in (True, False):
        if not worker:
            monkeypatch.setattr(tr, "can_fork", lambda: False)
        out = tmp_path / ("worker" if worker else "alone")
        try:
            outcome = pickle.dumps(run(out))
        except (Exception, KeyboardInterrupt) as e:
            outcome = type(e)
        runs.append((outcome, files_of(out)))
    return runs, pids


def wait_for(path) -> None:
    for _ in range(1000):
        if path.exists():
            return
        time.sleep(0.01)
    raise TimeoutError(f"{path} did not appear")


# evals every 3 steps and at a phase's last step, which runs here
@pytest.mark.parametrize("run", [
    lambda out: fit_once(out, steps=6)[1],
    lambda out: fit_once(out, steps=7)[1],
    lambda out: fit_once(out, steps=3, eval_every=1)[1],
    lambda out: fit_once(out, steps=4, finetune_steps=5)[1],
    lambda out: (fit_once(out, steps=4),
                 fit_once(out, steps=7, finetune_steps=2,
                          resume_from=out / "last.ckpt"))[1][1]],
    ids=["eval_every_divides_steps", "eval_every_does_not_divide_steps",
         "eval_at_the_first_step", "finetune", "resume"])
def test_forked_fit_is_bitwise_the_serial_one(
        tmp_path, monkeypatch, run):
    (worker, alone), pids = on_worker_and_alone(tmp_path, monkeypatch, run)
    assert worker == alone
    assert type(worker[0]) is bytes and "train_log.csv" in worker[1]
    assert len(pids) == 1
    tr.close_worker()
    assert_reaped(pids)


def test_fit_forks_one_worker_which_forks_none(tmp_path, monkeypatch):
    send, sent = tr.Worker.send, []

    def recording_send(self, fn, params, *args):
        if fn is tr._eval_step:
            sent.append(args[3][0])  # the step of the row it logs
        return send(self, fn, params, *args)

    def recording_fork():
        append_record(tmp_path / "forks.jsonl", (os.getpid(),))
        return fork()
    fork = os.fork
    monkeypatch.setattr(tr.Worker, "send", recording_send)
    monkeypatch.setattr(os, "fork", recording_fork)
    set_usable_cpus(monkeypatch, 2)
    # evals at steps 3, 6 and 9 on the worker, whose evaluate scores the
    # dev batches alone, and at step 10 here, on both processes
    c = tiny_corpus(n_utts=12)
    cfg = tr.TrainConfig(steps=10, batch_size=3, eval_every=3)
    tr.fit(tiny_params(), c.utts[:6], c.utts[6:], cfg, tmp_path / "run")
    assert sent == [3, 6, 9]
    assert read_records(tmp_path / "forks.jsonl") == [(os.getpid(),)]


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="lists open descriptors under /proc")
def test_a_fork_that_fails_leaves_each_call_on_one_process(tmp_path,
                                                           monkeypatch):
    def refused_fork():
        raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    speaker = dp.synth_corpus(seed=3, n_speakers=1, n_classes=5, n_utts=6,
                              feat_dim=8, t_range=(6, 12)).utts

    def run(out):
        params, fitted = fit_once(out, steps=4)
        lin, report = adapt_speaker(params, speaker, iterations=1, epochs=2,
                                    lr=1e-2)
        return (fitted, tr.evaluate(params, tiny_corpus().utts),
                lin.w.data.tobytes(), report)
    monkeypatch.setattr(os, "fork", refused_fork)
    fds = sorted(os.listdir("/proc/self/fd"))
    (refused, alone), pids = on_worker_and_alone(tmp_path, monkeypatch, run)
    assert refused == alone
    assert type(refused[0]) is bytes and "best.ckpt" in refused[1]
    assert pids == [] and tr._worker is None
    assert sorted(os.listdir("/proc/self/fd")) == fds


@pytest.mark.parametrize("name", ["best.ckpt", "last.ckpt"])
@pytest.mark.parametrize("after", ["none", "half", "all"])
def test_a_child_failing_mid_write_fails_the_fit_as_one_process_does(
        tmp_path, monkeypatch, name, after):
    # the eval of step 3 fails while steps 4 and 5 run here: their rows
    # are dropped, as one process never reaches them
    write = serial.write_container

    def crashing_write(path, header, tensors):
        if (os.path.basename(path), header["step"]) == (name, 3):
            tensors = list(tensors)
            k = {"none": 0, "half": len(tensors) // 2, "all": len(tensors)}
            tensors = _raise_after(tensors, k[after])
        write(path, header, tensors)
    monkeypatch.setattr(serial, "write_container", crashing_write)
    (worker, alone), pids = on_worker_and_alone(
        tmp_path, monkeypatch, lambda out: fit_once(out, steps=6))
    assert worker == alone
    assert worker[0] is _Crash
    assert len(worker[1]["train_log.csv"].splitlines()) == 1 + 3
    assert len(pids) == 1
    tr.close_worker()
    assert_reaped(pids)


class _WorkerCrash(Exception):
    pass


@pytest.mark.parametrize("worker_fails", [False, True])
@pytest.mark.parametrize("error", [_Crash, KeyboardInterrupt])
def test_an_error_here_while_a_child_writes_reaps_it_first(
        tmp_path, monkeypatch, error, worker_fails):
    # step 5 raises here while the eval of step 3 waits to write last.ckpt
    # on the worker, whose answer fit takes before it raises; the held row
    # of step 4 is written unless that write fails, and the error raised
    # is the one a single process meets first
    parent, ready, go = os.getpid(), tmp_path / "ready", tmp_path / "go"
    train_step, write = tr._train_step, serial.write_container
    can_fork = tr.can_fork

    def crashing_step(*args):
        if args[5] == 5:
            if not go.exists():  # in the run on the worker
                wait_for(ready)
                go.touch()
            raise error
        return train_step(*args)

    def waiting_write(path, header, tensors):
        if os.path.basename(path) == "last.ckpt" and header["step"] == 3:
            if os.getpid() != parent:
                ready.touch()
                wait_for(go)
            if worker_fails:
                raise _WorkerCrash
        write(path, header, tensors)
    monkeypatch.setattr(tr, "_train_step", crashing_step)
    monkeypatch.setattr(serial, "write_container", waiting_write)
    (worker, alone), pids = on_worker_and_alone(
        tmp_path, monkeypatch, lambda out: fit_once(out, steps=6))
    assert worker == alone
    assert worker[0] is (_WorkerCrash if worker_fails else error)
    rows = 3 if worker_fails else 4
    assert len(worker[1]["train_log.csv"].splitlines()) == 1 + rows
    assert len(pids) == 1
    # the worker answered: the next call gets its own answer from it
    monkeypatch.setattr(tr, "can_fork", can_fork)
    params, batch = split_batch(micro_config(), np.float32, 4, 12)
    (_, out), = tr.posteriors(params, [batch])
    assert out.data.tobytes() == unsplit_forward(params, batch).tobytes()
    assert len(pids) == 1 and tr._worker.pid == pids[0]


def test_a_killed_eval_child_is_named_without_a_hang(tmp_path, monkeypatch):
    set_usable_cpus(monkeypatch, 2)
    pids = record_forks(monkeypatch)
    parent, ready = os.getpid(), tmp_path / "ready"
    train_step, write = tr._train_step, serial.write_container

    def killing_step(*args):
        if args[5] == 4:
            wait_for(ready)
            os.kill(pids[0], signal.SIGKILL)
        return train_step(*args)

    def sleeping_write(path, header, tensors):
        if os.getpid() != parent:
            ready.touch()
            time.sleep(60)  # killed before it wakes
        write(path, header, tensors)
    monkeypatch.setattr(tr, "_train_step", killing_step)
    monkeypatch.setattr(serial, "write_container", sleeping_write)
    t0 = time.monotonic()
    with pytest.raises(ChildProcessError) as err:
        fit_once(tmp_path / "run", steps=6)
    assert time.monotonic() - t0 < 30
    assert str(err.value) == (f"ucam worker (pid {pids[0]}) was killed by "
                              f"signal 9 before it answered")
    assert_reaped(pids)
    # the eval's row is out, no checkpoint is, and the held rows are not
    files = files_of(tmp_path / "run")
    assert list(files) == ["train_log.csv"]
    assert len(files["train_log.csv"].splitlines()) == 4


def test_the_eval_child_ignores_sigint(tmp_path, monkeypatch):
    parent, ready, go = os.getpid(), tmp_path / "ready", tmp_path / "go"
    train_step, write = tr._train_step, serial.write_container
    pids = record_forks(monkeypatch)

    def interrupting_step(*args):
        if args[5] == 4 and not go.exists():  # in the run on the worker
            wait_for(ready)
            os.kill(pids[0], signal.SIGINT)
            go.touch()
        return train_step(*args)

    def waiting_write(path, header, tensors):
        if os.getpid() != parent and not ready.exists():
            ready.touch()
            wait_for(go)
        write(path, header, tensors)
    monkeypatch.setattr(tr, "_train_step", interrupting_step)
    monkeypatch.setattr(serial, "write_container", waiting_write)
    (worker, alone), _ = on_worker_and_alone(
        tmp_path, monkeypatch, lambda out: fit_once(out, steps=6)[1])
    assert worker == alone
    assert type(worker[0]) is bytes
    assert go.exists()
    tr.close_worker()
    assert_reaped(pids)


def test_with_the_fork_rule_off_fit_and_adaptation_keep_one_process(
        tmp_path, monkeypatch):
    from ucam import adaptation as ad
    spk = dp.synth_corpus(seed=3, n_speakers=1, n_classes=5, n_utts=7,
                          feat_dim=8, t_range=(6, 12), speaker_offset=9)

    def run(out):
        params, report = fit_once(out, steps=6)
        lin, adapted = ad.adapt_speaker(params, spk.utts, iterations=2,
                                        epochs=1, lr=1e-2)
        return report, lin.w.data.tobytes(), adapted
    pids = record_forks(monkeypatch)
    (worker, alone), _ = on_worker_and_alone(tmp_path, monkeypatch, run)
    assert worker == alone
    assert type(worker[0]) is bytes
    assert len(pids) == 1  # the one worker, for fit and adaptation


def test_train_config_validation():
    with pytest.raises(ConfigError):
        tr.TrainConfig(steps=0)
    with pytest.raises(ConfigError):
        tr.TrainConfig(finetune_steps=-1)


@pytest.mark.parametrize("key,value", [
    ("warmup", 0), ("lr_factor", -5.0), ("lr_factor", 0.0),
    ("lr_factor", float("nan")), ("lr_factor", float("inf")),
    ("ema_decay", 1.5), ("ema_decay", 1.0), ("ema_decay", -0.1),
    ("ema_decay", float("nan"))])
def test_train_config_checks_schedule_and_ema(key, value):
    with pytest.raises(ConfigError, match=key):
        tr.TrainConfig(**{key: value})
    tr.TrainConfig(ema_decay=0.0)
