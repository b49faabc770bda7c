"""Acceptance gates for the whole package.

Ten end-to-end checks, one per promised capability: gradient audits,
padding invariance, normalization oracles, the positional-encoding
scaling identity, the warmup schedule, an overfit run, iterative speaker
adaptation against unseen warps, exact parameter accounting, bit-level
determinism, and the EMA fine-tune property. Each test prints a single
PASS or FAIL line with the measured numbers behind the verdict.
"""

import dataclasses
import time
from pathlib import Path

import numpy as np
import pytest

from ucam import adaptation as ad
from ucam import conformer as cf
from ucam import data as dp
from ucam import gradcheck as gc
from ucam import tensor as tc
from ucam import training as tr
from ucam.conformer import positional_encoding
from ucam.masking import (NORM_EPS, NormParams, SequenceMask, masked_softmax,
                          utterance_batchnorm, utterance_layernorm)
from ucam.model import (ModelParams, count_params, desk_config, load_checkpoint,
                        micro_config, model_forward, save_checkpoint,
                        walk_parameters)
from ucam.rng import keyed


def gate(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# 1. gradient suite


def test_gate_01_gradient_suite():
    # the bound is on this process's CPU time, which other jobs sharing the
    # cores do not inflate; wall time is reported beside it
    t0, w0 = time.process_time(), time.monotonic()
    results = gc.run_gradcheck(seed=0)
    elapsed, wall = time.process_time() - t0, time.monotonic() - w0
    worst = max(results.values())
    expected = {"tensor_ops", "layernorm", "batchnorm", "masked_softmax",
                "ffn", "mhsa", "conv_module", "conformer_block",
                "wrcnn_block", "full_model"}
    ok = set(results) == expected and worst < 1e-4 and elapsed < 120.0
    gate("gradient suite", ok,
         f"{len(results)} modules, worst rel err {worst:.2e}, "
         f"{elapsed:.0f}s cpu (<120s), {wall:.0f}s wall")


# ---------------------------------------------------------------------------
# 2. padding invariance


def _target_loss(out, labels: np.ndarray, row: int, n: int):
    """Mean NLL over one utterance's valid frames, ignoring companions."""
    picked = tc.take_along_last(out, labels)
    w = np.zeros(picked.shape, picked.data.dtype)
    w[row, :n] = -1.0 / n
    return tc.sum_all(tc.mul(picked, tc.tensor(w)))


def _forward_grads(params, feats, mask, labels, row, n):
    out = model_forward(tc.tensor(feats), mask, params)
    loss = _target_loss(out, labels, row, n)
    named = list(params.named_parameters())
    tc.zero_grad(named)
    tc.backward(loss)
    grads = {name: p.grad.copy() for name, p in named}
    tc.zero_grad(named)
    return out.data[row, :n], grads


def test_gate_02_padding_invariance():
    worst_out = 0.0
    worst_grad = 0.0
    for seed in range(20):
        cfg = micro_config()
        params = ModelParams.create(cfg, rng=keyed(seed, "pad-model"))
        short = dp.synth_corpus(seed=seed, n_speakers=1,
                                n_classes=cfg.n_senones, n_utts=1,
                                feat_dim=cfg.feat_dim, t_range=(6, 9))
        long_ = dp.synth_corpus(seed=seed, n_speakers=1,
                                n_classes=cfg.n_senones, n_utts=2,
                                feat_dim=cfg.feat_dim, t_range=(12, 16),
                                utt_offset=100)
        utt = short.utts[0]
        n = utt.length
        rng = keyed(seed, "pad-garbage")

        batch = next(dp.batch_pad([utt], batch_size=1))
        labels = np.zeros((1, n), np.int64)
        labels[0] = utt.labels
        ref_out, ref_grads = _forward_grads(
            params, batch.feats, batch.mask, labels, 0, n)

        def compare(got_out, got_grads):
            d_out = np.abs(got_out - ref_out).max()
            d_grad = max(np.abs(got_grads[k] - ref_grads[k]).max()
                         for k in ref_grads)
            return d_out, d_grad

        # (b) zero-padded by +1..+16 frames, (d) garbage in the padding
        for pad in list(range(1, 17)) + ["garbage"]:
            k = 16 if pad == "garbage" else pad
            feats = np.zeros((1, 3, cfg.feat_dim, n + k), np.float32)
            feats[..., :n] = batch.feats
            if pad == "garbage":
                feats[..., n:] = 100.0 * rng.standard_normal(
                    feats[..., n:].shape)
            mask = SequenceMask([n], n + k)
            lab = np.zeros((1, n + k), np.int64)
            lab[0, :n] = utt.labels
            out, grads = _forward_grads(params, feats, mask, lab, 0, n)
            d_out, d_grad = compare(out, grads)
            worst_out = max(worst_out, d_out)
            worst_grad = max(worst_grad, d_grad)

        # (c) batched together with two longer companions
        group = [utt, long_.utts[0], long_.utts[1]]
        b3 = next(dp.batch_pad(group, batch_size=3))
        lab = np.zeros(b3.labels.shape, np.int64)
        lab[0, :n] = utt.labels
        out, grads = _forward_grads(params, b3.feats, b3.mask, lab, 0, n)
        d_out, d_grad = compare(out, grads)
        worst_out = max(worst_out, d_out)
        worst_grad = max(worst_grad, d_grad)

    ok = worst_out <= 1e-5 and worst_grad <= 1e-4
    gate("padding invariance", ok,
         f"20 seeds, log-posterior drift {worst_out:.2e} (<=1e-5), "
         f"gradient drift {worst_grad:.2e} (<=1e-4)")


# ---------------------------------------------------------------------------
# 3. normalization oracles


def _layernorm_loop(x, lengths, gamma, beta, eps):
    y = np.zeros_like(x)
    for b, n in enumerate(lengths):
        seg = x[b, :n]
        mu = seg.mean(axis=-1, keepdims=True)
        var = seg.var(axis=-1, keepdims=True)
        y[b, :n] = (seg - mu) / np.sqrt(var + eps) * gamma + beta
    return y


def _batchnorm_loop(x, lengths, gamma, beta, eps):
    y = np.zeros_like(x)
    for b, n in enumerate(lengths):
        seg = x[b, ..., :n]
        axes = tuple(range(1, seg.ndim))
        mu = seg.mean(axis=axes, keepdims=True)
        var = seg.var(axis=axes, keepdims=True)
        cshape = (seg.shape[0],) + (1,) * (seg.ndim - 1)
        y[b, ..., :n] = ((seg - mu) / np.sqrt(var + eps)
                         * gamma.reshape(cshape) + beta.reshape(cshape))
    return y


def test_gate_03_normalization_oracles():
    rng = np.random.default_rng(3)
    worst = 0.0
    for i in range(100):
        b = int(rng.integers(1, 5))
        t = int(rng.integers(2, 12))
        d = int(rng.integers(1, 9))
        lengths = rng.integers(1, t + 1, size=b)
        mask = SequenceMask(lengths, t)
        gamma = 1.0 + 0.3 * rng.standard_normal(d)
        beta = 0.3 * rng.standard_normal(d)
        p = NormParams.create(d, dtype=np.float64)
        p.gamma.data = gamma.copy()
        p.beta.data = beta.copy()

        x = rng.standard_normal((b, t, d))
        got = utterance_layernorm(tc.tensor(x), mask, p).data
        want = _layernorm_loop(x, lengths, gamma, beta, NORM_EPS)
        worst = max(worst, np.abs(got - want).max())

        if i % 2 == 0:
            xb = rng.standard_normal((b, d, t))
        else:
            f = int(rng.integers(1, 5))
            xb = rng.standard_normal((b, d, f, t))
        got = utterance_batchnorm(tc.tensor(xb), mask, p).data
        want = _batchnorm_loop(xb, lengths, gamma, beta, NORM_EPS)
        worst = max(worst, np.abs(got - want).max())

    ok = worst <= 1e-6
    gate("normalization oracles", ok,
         f"100 random configs, layernorm+batchnorm vs sliced loops, "
         f"max |diff| {worst:.2e} (<=1e-6)")


# ---------------------------------------------------------------------------
# 4. positional encoding scaling identity


def test_gate_04_pe_scaling_identity():
    rng = np.random.default_rng(4)
    worst = 0.0
    for d in (8, 64, 256):
        t = 50
        lengths = [50, 37]
        mask = SequenceMask(lengths, t)
        x = rng.standard_normal((2, t, d))
        got = cf.add_position(tc.tensor(x), mask).data
        pe = positional_encoding(t, d, dtype=np.float64).data
        # unscaled additive encoding, then the whole sum divided by sqrt(d)
        plain = x * np.sqrt(d) + pe[None, :, :]
        want = plain / np.sqrt(d)
        want = want * mask.indicator().astype(want.dtype)[:, :, None]
        worst = max(worst, np.abs(got - want).max())
    ok = worst <= 1e-6
    gate("pe scaling identity", ok,
         f"d in (8, 64, 256), scaled table == plain sum / sqrt(d), "
         f"max |diff| {worst:.2e} (<=1e-6)")


# ---------------------------------------------------------------------------
# 5. warmup schedule


def test_gate_05_schedule():
    cfg = tr.TrainConfig(warmup=20000, lr_factor=5.0)
    want = 5.0 * 256.0 ** -0.5 * 20000.0 ** -0.5
    peak = cfg.lr_at(20000, 256)
    err = abs(peak - want)
    lrs = [cfg.lr_at(s, 256) for s in range(1, 60001)]
    up = all(a < b for a, b in zip(lrs[:19999], lrs[1:20000]))
    down = all(a > b for a, b in zip(lrs[19999:-1], lrs[20000:]))
    ok = err <= 1e-9 and abs(peak - 2.2097e-3) < 1e-6 and up and down
    gate("warmup schedule", ok,
         f"lr_at(20000) = {peak:.6e} vs closed form {want:.6e} "
         f"(|diff| {err:.1e}), monotone up then down")


# ---------------------------------------------------------------------------
# 6. overfit a small corpus


@pytest.mark.slow
def test_gate_06_overfit(tmp_path):
    # the bound is on this process's CPU time, which other jobs sharing the
    # cores do not inflate; wall time is reported beside it
    t0, w0 = time.process_time(), time.monotonic()
    corpus = dp.synth_corpus(seed=6, n_speakers=2, n_classes=10, n_utts=32,
                             feat_dim=16, t_range=(20, 35), separation=4.0,
                             warp_strength=0.05, self_loop=0.8)
    cfg = desk_config()  # d_attn 64, 2 heads, 2 blocks, kernel 16
    params = ModelParams.create(cfg, rng=keyed(6, "overfit"))
    tcfg = tr.TrainConfig(steps=800, batch_size=4, warmup=200,
                          lr_factor=2.0, eval_every=400, seed=6)
    tr.fit(params, corpus.utts, corpus.utts, tcfg, tmp_path)
    _, acc = tr.evaluate(params, corpus.utts)
    elapsed, wall = time.process_time() - t0, time.monotonic() - w0
    ok = acc >= 0.99 and tcfg.steps <= 2000 and elapsed < 300.0
    gate("overfit", ok,
         f"train frame accuracy {acc:.4f} (>=0.99) after {tcfg.steps} "
         f"steps in {elapsed:.0f}s cpu (<300s), {wall:.0f}s wall")


# ---------------------------------------------------------------------------
# 7. speaker adaptation beats the unadapted model


@pytest.mark.slow
def test_gate_07_adaptation(tmp_path):
    corpus = dp.synth_corpus(seed=0, n_speakers=8, n_classes=10, n_utts=256,
                             feat_dim=16, t_range=(30, 50), separation=6.0,
                             warp_strength=0.02, self_loop=0.7)
    cfg = dataclasses.replace(desk_config(), d_attn=32, n_blocks=1,
                              conv_kernel=8, head_hidden=64, dropout=0.1)
    params = ModelParams.create(cfg, rng=keyed(0, "init"))
    tcfg = tr.TrainConfig(steps=2000, batch_size=4, eval_every=1000, seed=0)
    tr.fit(params, corpus.utts[:224], corpus.utts[224:], tcfg, tmp_path)

    wins = 0
    init_avg = final_avg = 0.0
    lines = []
    for k in range(5):
        spk = dp.synth_corpus(seed=0, n_speakers=1, n_classes=10, n_utts=160,
                              feat_dim=16, t_range=(30, 50), separation=6.0,
                              warp_strength=0.0, self_loop=0.7,
                              speaker_offset=100 + k,
                              utt_offset=10000 + 1000 * k)
        # an unseen linear warp: per-channel rescaling this speaker's
        # features arrive through, never present in the training corpus
        g = keyed(0, "diagwarp", k).standard_normal(16)
        d = (1.0 + 0.3 * g).astype(np.float32)
        utts = [dp.UtteranceRecord(u.utt_id, u.speaker,
                                   d[:, None] * u.feats, u.labels)
                for u in spk.utts]
        _, report = ad.adapt_speaker(params, utts, iterations=3, epochs=10,
                                     lr=1e-4, batch_size=2, seed=k)
        e0 = report["initial_error"]
        ef = report["iterations"][-1]["error"]
        init_avg += e0 / 5.0
        final_avg += ef / 5.0
        wins += ef < e0
        lines.append(f"seed {k}: {e0:.4f}->{ef:.4f}")

    ok = wins >= 4 and final_avg < init_avg
    gate("speaker adaptation", ok,
         f"{wins}/5 seeds improved (need >=4), avg heldout frame error "
         f"{init_avg:.4f}->{final_avg:.4f}; " + ", ".join(lines))


# ---------------------------------------------------------------------------
# 8. parameter accounting


def _wrcnn_count(model_cfg):
    cfg = model_cfg.wrcnn
    k2 = cfg.kernel ** 2
    chans = cfg.block_channels
    want = chans[0] * 3 * k2  # stem over 3 planes, no bias
    in_c = chans[0]
    f_out = model_cfg.feat_dim
    for out_c, s in zip(chans, cfg.strides):
        want += 2 * in_c + out_c * in_c * k2 + 2 * out_c + out_c * out_c * k2
        if in_c != out_c or s != 1:
            want += out_c * in_c
        in_c = out_c
        f_out = -(-f_out // s)
    want += 2 * chans[-1]
    d = model_cfg.d_attn
    want += d * (chans[-1] * f_out) + d
    return want


def _model_count(cfg):
    d, k = cfg.d_attn, cfg.conv_kernel
    ffn = 8 * d * d + 7 * d
    mhsa = 4 * d * d + 2 * d
    conv = 3 * d * d + d * k + 7 * d
    block = 2 * ffn + mhsa + conv + 2 * d
    total = _wrcnn_count(cfg)
    total += d * d + d
    total += cfg.n_blocks * block
    total += cfg.head_hidden * d + cfg.head_hidden
    total += cfg.n_senones * cfg.head_hidden + cfg.n_senones
    return total


def test_gate_08_parameter_accounting():
    rng = keyed(8, "count")
    ffn = sum(t.size for _, t in
              walk_parameters(cf.FFNParams.create(256, rng), "f"))
    mhsa = sum(t.size for _, t in
               walk_parameters(cf.MHSAParams.create(256, 4, rng), "a"))
    configs = [micro_config(), desk_config(),
               dataclasses.replace(desk_config(), feat_dim=32, n_senones=64,
                                   d_attn=128, heads=4, n_blocks=3)]
    models = [(count_params(ModelParams.create(c)), _model_count(c))
              for c in configs]
    ok = (ffn == 526080 and mhsa == 262656
          and all(got == want for got, want in models))
    gate("parameter accounting", ok,
         f"ffn {ffn} (=526080), mhsa {mhsa} (=262656), whole models "
         + ", ".join(f"{got}(={want})" for got, want in models))


# ---------------------------------------------------------------------------
# 9. determinism and persistence


def _fit_small(tmp, steps, resume_from=None):
    corpus = dp.synth_corpus(seed=9, n_speakers=2, n_classes=5, n_utts=9,
                             feat_dim=8, t_range=(6, 10))
    params = ModelParams.create(micro_config(), rng=keyed(9, "det"))
    cfg = tr.TrainConfig(steps=steps, batch_size=3, eval_every=3, seed=9)
    tr.fit(params, corpus.utts[:6], corpus.utts[6:], cfg, tmp,
           resume_from=resume_from)
    return params


def _param_bytes(params):
    return [(n, p.data.tobytes()) for n, p in params.named_parameters()]


def test_gate_09_determinism_persistence(tmp_path):
    a = _fit_small(tmp_path / "a", 6)
    b = _fit_small(tmp_path / "b", 6)
    traces_equal = (_param_bytes(a) == _param_bytes(b)
                    and (tmp_path / "a" / "train_log.csv").read_text()
                    == (tmp_path / "b" / "train_log.csv").read_text())

    save_checkpoint(a, tmp_path / "rt.ckpt", step=6,
                    extra={"opt.m.x": np.ones(3, np.float32)})
    ck = load_checkpoint(tmp_path / "rt.ckpt")
    round_trip = (_param_bytes(a) == _param_bytes(ck.params)
                  and ck.step == 6
                  and ck.extra["opt.m.x"].tobytes()
                  == np.ones(3, np.float32).tobytes())

    _fit_small(tmp_path / "part", 3)
    resumed = _fit_small(tmp_path / "part", 6,
                         resume_from=tmp_path / "part" / "last.ckpt")
    resume_match = _param_bytes(resumed) == _param_bytes(a)

    ok = traces_equal and round_trip and resume_match
    gate("determinism and persistence", ok,
         f"repeat runs bit-identical {traces_equal}, checkpoint round-trip "
         f"{round_trip}, resume matches uninterrupted {resume_match}")


# ---------------------------------------------------------------------------
# 10. EMA fine-tune property


def test_gate_10_ema(tmp_path):
    # frozen parameters: after k updates the shadow is an exact geometric mix
    theta0, theta1, decay, k = 1.0, 4.0, 0.97, 9
    p = tc.parameter(np.full(6, theta0, np.float64))
    ema = tr.EMAState([("p", p)], decay=decay)
    p.data = np.full(6, theta1, np.float64)
    for _ in range(k):
        ema.update()
    want = decay ** k * theta0 + (1.0 - decay ** k) * theta1
    err = np.abs(ema.shadow["p"] - want).max()

    # the exported EMA model is a plain checkpoint: loads and evaluates
    # to the same numbers every time
    corpus = dp.synth_corpus(seed=10, n_speakers=2, n_classes=5, n_utts=9,
                             feat_dim=8, t_range=(6, 10))
    params = ModelParams.create(micro_config(), rng=keyed(10, "ema"))
    cfg = tr.TrainConfig(steps=4, batch_size=3, eval_every=2, seed=10,
                         finetune_steps=3, ema_decay=0.9)
    tr.fit(params, corpus.utts[:6], corpus.utts[6:], cfg, tmp_path)
    ck1 = load_checkpoint(tmp_path / "ema.ckpt")
    ck2 = load_checkpoint(tmp_path / "ema.ckpt")
    e1 = tr.evaluate(ck1.params, corpus.utts[6:])
    e2 = tr.evaluate(ck2.params, corpus.utts[6:])
    deterministic = (e1 == e2
                     and _param_bytes(ck1.params) == _param_bytes(ck2.params))

    ok = err <= 1e-9 and deterministic
    gate("ema fine-tune", ok,
         f"geometric closed form |diff| {err:.1e} (<=1e-9), exported "
         f"shadow evaluates deterministically {deterministic}")
