import numpy as np
import pytest

from ucam import adaptation as ad
from ucam import data as dp
from ucam import serial
from ucam import tensor as tc
from ucam import training as tr
from ucam.errors import ConfigError, StructureError
from ucam.masking import SequenceMask
from ucam.model import (ModelParams, micro_config, model_forward,
                        save_checkpoint)
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
    assert lin.is_identity()
    np.testing.assert_array_equal(lin.matrix(), np.eye(5, dtype=np.float32))
    with pytest.raises(ConfigError):
        ad.LinTransform(0)


def test_identity_lin_forward_matches_unadapted():
    c = speaker_corpus()
    params = tiny_model()
    lin = ad.LinTransform(8)
    batch, labels, mask = ad.lin_batch(c.utts[:3], lin)
    (plain,) = dp.batch_pad(c.utts[:3], batch_size=3)
    assert np.array_equal(batch.data, plain.feats)
    np.testing.assert_array_equal(labels, plain.labels)
    np.testing.assert_array_equal(mask.lengths, plain.lengths)
    adapted = model_forward(batch, mask, params)
    unadapted = model_forward(tc.tensor(plain.feats), plain.mask, params)
    assert np.array_equal(adapted.data, unadapted.data)


def test_identity_lin_evaluate_matches_unadapted():
    c = speaker_corpus()
    params = tiny_model()
    with_lin = tr.evaluate(params, c.utts, lin=np.eye(8, dtype=np.float32))
    without = tr.evaluate(params, c.utts)
    assert with_lin == without


def test_lin_batch_commutes_with_static_warp():
    # warping the delta planes equals warping the statics before the
    # delta regression; both batch paths must agree
    c = speaker_corpus(seed=2)
    lin = ad.LinTransform(8)
    lin.w.data = (np.eye(8) + 0.2 * np.random.default_rng(3)
                  .standard_normal((8, 8))).astype(np.float32)
    batch, _, _ = ad.lin_batch(c.utts[:4], lin)
    (plain,) = dp.batch_pad(c.utts[:4], batch_size=4, lin=lin.matrix())
    np.testing.assert_allclose(batch.data, plain.feats, atol=1e-4)


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
    _, acc = tr.evaluate(params, c.utts, lin=lin.matrix())
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


def test_plane_cache_leaves_adaptation_unchanged(monkeypatch):
    c = speaker_corpus(seed=7, n_utts=8)
    params = tiny_model()
    calls = []
    planes = dp.utterance_planes
    monkeypatch.setattr(ad, "utterance_planes",
                        lambda u: calls.append(u.utt_id) or planes(u))
    lin1, rep1 = ad.adapt_speaker(params, c.utts, iterations=2, epochs=2,
                                  seed=3)
    # one plane computation per adaptation utterance, not per epoch
    assert sorted(calls) == sorted(u.utt_id for i, u in enumerate(c.utts)
                                   if i % 4 != 3)
    lin_batch = ad.lin_batch
    monkeypatch.setattr(ad, "lin_batch",
                        lambda utts, lin, planes=None: lin_batch(utts, lin))
    lin2, rep2 = ad.adapt_speaker(params, c.utts, iterations=2, epochs=2,
                                  seed=3)
    assert lin1.w.data.tobytes() == lin2.w.data.tobytes()
    assert rep1 == rep2


def test_adapt_report_structure():
    c = speaker_corpus(seed=6, n_utts=9)
    params = tiny_model()
    lin, report = ad.adapt_speaker(params, c.utts, iterations=2, epochs=1,
                                   seed=0)
    assert report["speaker"] == "spk0"
    assert [e["iteration"] for e in report["iterations"]] == [1, 2]
    assert all(e["w_start_identity"] for e in report["iterations"])
    assert all(0.0 <= e["error"] <= 1.0 for e in report["iterations"])
    # default heldout split is every fourth utterance
    expect = ad.frame_error(params, c.utts[3::4], ad.LinTransform(8))
    assert report["initial_error"] == pytest.approx(expect, abs=1e-12)
    assert isinstance(lin, ad.LinTransform)
    assert not lin.is_identity()  # training moved it


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
    assert lin.is_identity()
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
    planes, lengths = [], []
    for u in c.utts:
        d = dp.utterance_planes(u).astype(w.data.dtype)
        rows = [tc.matmul(w, tc.tensor(d[i])) for i in range(3)]
        planes.append(tc.stack(rows))
        lengths.append(u.length)
    t_max = max(lengths)
    x = tc.stack([tc.pad_last(p, t_max) for p in planes])
    mask = SequenceMask.from_lengths(np.array(lengths))
    labels = np.zeros((len(c.utts), t_max), np.int64)
    for i, u in enumerate(c.utts):
        labels[i, :u.length] = u.labels
    out = model_forward(x, mask, params)
    return tr.masked_cross_entropy(out, labels, mask)


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


def test_load_lin_rejects_model_checkpoint(tmp_path):
    save_checkpoint(tiny_model(), tmp_path / "m.ckpt")
    with pytest.raises(StructureError, match="kind"):
        ad.load_lin(tmp_path / "m.ckpt")


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
