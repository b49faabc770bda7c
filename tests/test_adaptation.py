import dataclasses

import numpy as np
import pytest

from ucam import adaptation as ad
from ucam import data as dp
from ucam import serial
from ucam import tensor as tc
from ucam import training as tr
from ucam.errors import ConfigError, DataError, ShapeError, StructureError
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
    # model: the LIN warps the planes of plain batch_pad batches
    c = speaker_corpus(seed=13, n_utts=7)
    params = tiny_model()
    lin = noisy_lin(0.075, 4)
    scored = []
    posteriors = ad.posteriors

    def capture(params, batches):
        for batch, post in posteriors(params, batches):
            scored.append(post.data.tobytes())
            yield batch, post
    monkeypatch.setattr(ad, "posteriors", capture)
    ad.pseudo_label(params, c.utts, lin)
    ad.frame_error(params, c.utts, lin)
    step = [model_forward(ad.lin_batch(b, lin), b.mask, params).data.tobytes()
            for b in dp.batch_pad(c.utts)]
    assert len(step) == 2
    assert scored == step * 2


@pytest.mark.parametrize("score", ["lin_batch", "pseudo_label",
                                   "frame_error"])
def test_wrong_sized_lin_is_a_shape_error(score):
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
    # batch_pad, lin_batch and the two scoring functions are looked up at
    # call time, so wrappers see every step: one batch_pad and one
    # lin_batch each, while scoring fetches batches and calls no lin_batch
    c = speaker_corpus(seed=7, n_utts=8)
    params = tiny_model()
    lin1, rep1 = ad.adapt_speaker(params, c.utts, iterations=2, epochs=2,
                                  batch_size=4, seed=3)
    calls = []

    def record(name, fn, size):
        return lambda *a, **kw: calls.append((name, size(*a))) or fn(*a, **kw)
    for name, size in (("batch_pad", len),
                       ("lin_batch", lambda b, lin: b.mask.batch),
                       ("pseudo_label", lambda p, utts, lin, bs: len(utts)),
                       ("frame_error", lambda p, utts, lin, bs: len(utts))):
        monkeypatch.setattr(ad, name, record(name, getattr(ad, name), size))
    lin2, rep2 = ad.adapt_speaker(params, c.utts, iterations=2, epochs=2,
                                  batch_size=4, seed=3)
    assert lin1.w.data.tobytes() == lin2.w.data.tobytes()
    assert rep1 == rep2
    # 6 adaptation utterances: two steps of 4 and 2 per epoch; 2 held out
    steps = [("batch_pad", 4), ("lin_batch", 4),
             ("batch_pad", 2), ("lin_batch", 2)] * 2
    heldout = [("frame_error", 2), ("batch_pad", 2)]
    assert calls == heldout + (
        [("pseudo_label", 6), ("batch_pad", 6)] + steps + heldout) * 2


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
    err = tc.grad_check(lambda _: lin_path_loss(c, params, w), [("w", w)],
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
