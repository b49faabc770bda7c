import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ucam import data as dp
from ucam import serial
from ucam.errors import (ConfigError, DataError, FileFormatError,
                         StructureError, TruncatedFileError)


# ---------------------------------------------------------------------------
# records and corpora


def test_record_validates_alignment():
    with pytest.raises(DataError):
        dp.UtteranceRecord("u", "s", np.zeros((4, 7)), np.zeros(6, np.int64))
    with pytest.raises(DataError):
        dp.UtteranceRecord("u", "s", np.zeros(7), np.zeros(7, np.int64))


def test_record_rejects_an_utterance_without_frames():
    with pytest.raises(DataError, match="utterance 'u': no frames"):
        dp.UtteranceRecord("u", "s", np.zeros((4, 0)), np.zeros(0, np.int64))


def test_record_rejects_nonfinite():
    feats = np.zeros((2, 3), np.float32)
    feats[1, 2] = np.nan
    with pytest.raises(DataError):
        dp.UtteranceRecord("u", "s", feats, np.zeros(3, np.int64))


def test_record_casts_and_reports_length():
    u = dp.UtteranceRecord("u", "s", np.ones((2, 5), np.float64),
                           np.zeros(5, np.int32))
    assert u.feats.dtype == np.float32
    assert u.labels.dtype == np.int64
    assert u.length == 5


def test_synth_shapes_and_ranges():
    c = dp.synth_corpus(seed=3, n_speakers=3, n_classes=7, n_utts=12,
                        feat_dim=5, t_range=(9, 14))
    assert len(c) == 12 and c.feat_dim == 5 and c.n_classes == 7
    assert {u.speaker for u in c.utts} == {"spk0", "spk1", "spk2"}
    for u in c.utts:
        assert u.feats.shape == (5, u.length)
        assert 9 <= u.length <= 14
        assert u.labels.min() >= 0 and u.labels.max() < 7
    sub = c.for_speaker("spk1")
    assert {u.speaker for u in sub.utts} == {"spk1"}
    assert len(sub) == 4


def test_synth_determinism_bit_exact():
    kw = dict(seed=11, n_speakers=2, n_classes=4, n_utts=6, feat_dim=3)
    a, b = dp.synth_corpus(**kw), dp.synth_corpus(**kw)
    for ua, ub in zip(a.utts, b.utts):
        assert ua.utt_id == ub.utt_id and ua.speaker == ub.speaker
        assert ua.feats.tobytes() == ub.feats.tobytes()
        assert ua.labels.tobytes() == ub.labels.tobytes()
    c = dp.synth_corpus(seed=12, n_speakers=2, n_classes=4, n_utts=6,
                        feat_dim=3)
    assert a.utts[0].feats.tobytes() != c.utts[0].feats.tobytes()


def test_synth_offsets_draw_fresh_material():
    kw = dict(seed=5, n_speakers=1, n_classes=6, n_utts=4, feat_dim=4)
    base = dp.synth_corpus(**kw)
    moved = dp.synth_corpus(**kw, speaker_offset=10, utt_offset=100)
    # same class geometry, different everything speaker/utterance specific
    assert np.array_equal(base.class_means, moved.class_means)
    assert {u.speaker for u in moved.utts} == {"spk10"}
    assert moved.utts[0].utt_id == "utt00100"
    assert not np.array_equal(base.warps["spk0"], moved.warps["spk10"])
    assert not np.array_equal(base.utts[0].labels, moved.utts[0].labels)
    # utterance streams depend only on the absolute index
    again = dp.synth_corpus(**kw, utt_offset=100)
    assert moved.utts[0].labels.tobytes() == again.utts[0].labels.tobytes()


def test_synth_separation_pins_closest_pair():
    for sep in (2.0, 4.0, 7.5):
        c = dp.synth_corpus(seed=2, n_speakers=1, n_classes=8, n_utts=1,
                            feat_dim=6, separation=sep)
        m = c.class_means.astype(np.float64)
        d2 = ((m[:, None] - m[None]) ** 2).sum(-1)
        d2[np.diag_indices(8)] = np.inf
        assert abs(np.sqrt(d2.min()) - sep) < 1e-4


def test_synth_self_loop_rate():
    c = dp.synth_corpus(seed=9, n_speakers=1, n_classes=10, n_utts=200,
                        feat_dim=2, t_range=(40, 60), self_loop=0.8)
    same = total = 0
    for u in c.utts:
        same += int((u.labels[1:] == u.labels[:-1]).sum())
        total += u.length - 1
    assert abs(same / total - 0.8) < 0.02


def test_synth_rejects_bad_config():
    ok = dict(seed=0, n_speakers=1, n_classes=2, n_utts=1, feat_dim=2)
    with pytest.raises(ConfigError):
        dp.synth_corpus(**{**ok, "n_utts": 0})
    with pytest.raises(ConfigError):
        dp.synth_corpus(**ok, t_range=(5, 3))
    with pytest.raises(ConfigError):
        dp.synth_corpus(**ok, t_range=(0, 3))
    with pytest.raises(ConfigError):
        dp.synth_corpus(**ok, self_loop=1.0)


@pytest.mark.parametrize("key", ["separation", "warp_strength"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_synth_rejects_nonfinite_scale(key, value):
    ok = dict(seed=0, n_speakers=1, n_classes=2, n_utts=1, feat_dim=2)
    with pytest.raises(ConfigError, match="separation and warp_strength "
                                          "must be finite") as e:
        dp.synth_corpus(**ok, **{key: value})
    assert str(value) in str(e.value)


def test_synth_nearest_mean_learnability_floor():
    # with no warp and a wide margin, nearest class mean must recover
    # almost every frame; guards against label/feature misalignment
    c = dp.synth_corpus(seed=4, n_speakers=2, n_classes=10, n_utts=40,
                        feat_dim=16, separation=6.0, warp_strength=0.0)
    means = c.class_means.astype(np.float64)
    hit = total = 0
    for u in c.utts:
        d2 = ((u.feats.T[:, None, :] - means[None]) ** 2).sum(-1)
        hit += int((d2.argmin(axis=1) == u.labels).sum())
        total += u.length
    assert hit / total > 0.95


# ---------------------------------------------------------------------------
# delta regression


def delta_loop(x):
    """Independent reference with explicit index clamping."""
    f, t = x.shape
    out = np.zeros_like(x, dtype=np.float64)
    for i in range(t):
        lo1, hi1 = max(i - 1, 0), min(i + 1, t - 1)
        lo2, hi2 = max(i - 2, 0), min(i + 2, t - 1)
        out[:, i] = ((x[:, hi1] - x[:, lo1])
                     + 2.0 * (x[:, hi2] - x[:, lo2])) / 10.0
    return out


def test_deltas_match_reference_loop():
    rng = np.random.default_rng(0)
    for t in (1, 2, 3, 4, 5, 17):
        x = rng.standard_normal((3, t))
        planes = dp.compute_deltas(x)
        assert planes.shape == (3, 3, t)
        np.testing.assert_allclose(planes[0], x, rtol=0, atol=0)
        d = delta_loop(x)
        np.testing.assert_allclose(planes[1], d, atol=1e-12)
        np.testing.assert_allclose(planes[2], delta_loop(d), atol=1e-12)


def deltas_np_pad(static):
    """compute_deltas with np.pad's edge mode building the +-2 window."""
    t = static.shape[1]

    def regress(x):
        xp = np.pad(x, ((0, 0), (2, 2)), mode="edge")
        return ((xp[:, 3:3 + t] - xp[:, 1:1 + t])
                + 2.0 * (xp[:, 4:4 + t] - xp[:, 0:t])) / 10.0

    d = regress(static)
    return np.stack([static, d, regress(d)]).astype(static.dtype)


@pytest.mark.parametrize("dtype", [np.float32, np.float64],
                         ids=["f32", "f64"])
@pytest.mark.parametrize("t", [1, 2, 3, 4, 5, 6, 40])
def test_deltas_match_np_pad_edge_bitwise(t, dtype):
    x = np.random.default_rng(t).standard_normal((5, t)).astype(dtype)
    got, want = dp.compute_deltas(x), deltas_np_pad(x)
    assert got.dtype == want.dtype == dtype
    assert got.tobytes() == want.tobytes()


def test_deltas_constant_and_single_frame_are_zero():
    planes = dp.compute_deltas(np.full((4, 9), 2.5))
    assert np.all(planes[1] == 0) and np.all(planes[2] == 0)
    planes = dp.compute_deltas(np.array([[3.0], [1.0]]))
    assert np.all(planes[1] == 0) and np.all(planes[2] == 0)


def test_deltas_ramp_interior_slope():
    x = np.arange(12, dtype=np.float64)[None].repeat(2, axis=0)
    planes = dp.compute_deltas(x)
    # away from the replicated edges the regression recovers the slope
    np.testing.assert_allclose(planes[1][:, 2:-2], 1.0, atol=1e-12)
    np.testing.assert_allclose(planes[2][:, 4:-4], 0.0, atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 12))
def test_deltas_linearity(seed, t):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((3, t))
    y = rng.standard_normal((3, t))
    a, b = rng.standard_normal(2)
    lhs = dp.compute_deltas(a * x + b * y)
    rhs = a * dp.compute_deltas(x) + b * dp.compute_deltas(y)
    np.testing.assert_allclose(lhs, rhs, atol=1e-6)


def test_deltas_rejects_bad_shape():
    with pytest.raises(DataError):
        dp.compute_deltas(np.zeros(5))
    with pytest.raises(DataError):
        dp.compute_deltas(np.zeros((3, 0)))


# ---------------------------------------------------------------------------
# normalization and planes


def test_mean_normalize_zeroes_per_dim_mean():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((5, 30)) * 3 + 7
    y = dp.mean_normalize(x)
    np.testing.assert_allclose(y.mean(axis=1), 0.0, atol=1e-12)
    np.testing.assert_allclose(y, x - x.mean(axis=1, keepdims=True))
    assert np.all(dp.mean_normalize(np.full((2, 4), 3.0)) == 0)


def test_utterance_planes_composition():
    c = dp.synth_corpus(seed=6, n_speakers=1, n_classes=3, n_utts=1,
                        feat_dim=4, t_range=(8, 8))
    u = c.utts[0]
    planes = dp.utterance_planes(u)
    np.testing.assert_allclose(planes[0], dp.mean_normalize(u.feats),
                               atol=1e-7)
    np.testing.assert_allclose(
        planes, dp.compute_deltas(dp.mean_normalize(u.feats)), atol=1e-7)


def test_utterance_planes_lin_commutes_with_deltas():
    # the delta regression is linear, so a linear warp of the planes
    # equals the planes of the warped statics
    c = dp.synth_corpus(seed=7, n_speakers=1, n_classes=3, n_utts=1,
                        feat_dim=4, t_range=(10, 10))
    u = c.utts[0]
    w = np.random.default_rng(2).standard_normal((4, 4)).astype(np.float32)
    planes = w @ dp.utterance_planes(u)
    ref = dp.compute_deltas((w @ dp.mean_normalize(u.feats)).astype(
        np.float32))
    np.testing.assert_allclose(planes, ref, atol=1e-5)


# ---------------------------------------------------------------------------
# batching


def test_batch_pad_shapes_padding_and_mask():
    c = dp.synth_corpus(seed=8, n_speakers=2, n_classes=4, n_utts=7,
                        feat_dim=3, t_range=(5, 15))
    batches = list(dp.batch_pad(c.utts, batch_size=3))
    assert [b.mask.batch for b in batches] == [3, 3, 1]
    for b in batches:
        t_max = b.feats.shape[-1]
        assert t_max == b.mask.lengths.max()
        assert b.labels.shape == (b.mask.batch, t_max)
        ind = b.mask.indicator()
        for i, n in enumerate(b.mask.lengths):
            assert np.all(b.feats[i, :, :, n:] == 0)
            assert np.all(b.labels[i, n:] == 0)
            assert ind[i, :n].all() and not ind[i, n:].any()


def test_batch_holds_one_mask():
    c = dp.synth_corpus(seed=8, n_speakers=2, n_classes=4, n_utts=3,
                        feat_dim=3, t_range=(5, 15))
    (b,) = dp.batch_pad(c.utts, batch_size=3)
    assert b.mask is b.mask
    np.testing.assert_array_equal(b.mask.lengths,
                                  [u.length for u in c.utts])
    assert b.mask.max_len == b.feats.shape[-1]


def test_batches_compare_by_identity():
    # compared field by field, two batches' feature arrays would make
    # ``==`` raise on an ambiguous truth value
    c = dp.synth_corpus(seed=8, n_speakers=2, n_classes=4, n_utts=2,
                        feat_dim=3, t_range=(5, 15))
    (a,), (b,) = dp.batch_pad(c.utts, 2), dp.batch_pad(c.utts, 2)
    assert a == a and a != b
    assert len({a, b}) == 2


def test_batch_pad_round_trip():
    c = dp.synth_corpus(seed=9, n_speakers=1, n_classes=4, n_utts=5,
                        feat_dim=3, t_range=(4, 9))
    flat = []
    for b in dp.batch_pad(c.utts, batch_size=2):
        flat += [(b.feats[i, ..., :n], b.labels[i, :n])
                 for i, n in enumerate(b.mask.lengths)]
    assert len(flat) == 5
    for u, (planes, labels) in zip(c.utts, flat):
        np.testing.assert_array_equal(planes, dp.utterance_planes(u))
        np.testing.assert_array_equal(labels, u.labels)


def test_batch_pad_rejects_bad_batch_size():
    c = dp.synth_corpus(seed=1, n_speakers=1, n_classes=2, n_utts=2,
                        feat_dim=2)
    with pytest.raises(ConfigError):
        list(dp.batch_pad(c.utts, batch_size=0))


# ---------------------------------------------------------------------------
# feature files


def corpus_for_io(n_utts=6):
    return dp.synth_corpus(seed=13, n_speakers=2, n_classes=5, n_utts=n_utts,
                           feat_dim=4, t_range=(3, 8))


def read_features_oracle(path):
    """Second, independent decoder of the container layout in the README.

    Returns the header and, per record name, the byte offset of its data
    and the data as an array.
    """
    raw = path.read_bytes()
    assert raw[:4] == b"UCAM"
    version, hlen = struct.unpack_from("<II", raw, 4)
    assert version == 1
    header = json.loads(raw[12:12 + hlen].decode())
    off = 12 + hlen
    records = {}
    while off < len(raw):
        (n,) = struct.unpack_from("<I", raw, off)
        name = raw[off + 4:off + 4 + n].decode()
        off += 4 + n
        (rank,) = struct.unpack_from("<I", raw, off)
        dims = struct.unpack_from(f"<{rank}I", raw, off + 4)
        off += 4 + 4 * rank
        count = int(np.prod(dims))
        assert name not in records
        records[name] = (off, np.frombuffer(raw, "<f4", count,
                                            off).reshape(dims))
        off += 4 * count
    assert off == len(raw)
    return header, records


def rewrite_records(path, edit_header=None, edit_records=None):
    """Rewrite a feature file's container with its header or records edited."""
    header, tensors = serial.read_container(path, "features")
    records = list(tensors.items())
    serial.write_container(
        path, edit_header(header) if edit_header else header,
        edit_records(records) if edit_records else records)


def test_feature_file_round_trip(tmp_path):
    c = corpus_for_io(n_utts=16)
    path = tmp_path / "c.ucfd"
    dp.write_features(path, c)
    back = dp.read_features(path)
    assert back.feat_dim == c.feat_dim and back.n_classes == c.n_classes
    assert len(back) == len(c)
    for a, b in zip(c.utts, back.utts):
        assert a.utt_id == b.utt_id and a.speaker == b.speaker
        assert a.feats.tobytes() == b.feats.tobytes()
        assert b.labels.dtype == np.int64
        assert a.labels.tobytes() == b.labels.tobytes()


def test_feature_file_with_an_utterance_without_frames_is_refused(
        tmp_path):
    path = tmp_path / "c.ucfd"
    dp.write_features(path, corpus_for_io())
    rewrite_records(path, edit_records=lambda records: [
        (n, a[..., :0] if n.endswith(".2") else a) for n, a in records])
    with pytest.raises(DataError, match="utterance 'utt00002': no frames"):
        dp.read_features(path)


class _Interrupt(Exception):
    pass


class _Explodes:
    """Array stand-in whose conversion fails, as a crash mid-write would."""

    def __array__(self, *args, **kwargs):
        raise _Interrupt


def test_interrupted_feature_write_keeps_previous_file(tmp_path):
    path = tmp_path / "c.ucfd"
    dp.write_features(path, corpus_for_io())
    before = path.read_bytes()
    c = corpus_for_io()
    c.utts[3].feats = _Explodes()  # three utterances in, the write fails
    with pytest.raises(_Interrupt):
        dp.write_features(path, c)
    assert path.read_bytes() == before
    assert len(dp.read_features(path)) == len(c.utts)
    assert [p.name for p in tmp_path.iterdir()] == ["c.ucfd"]


def test_feature_file_against_independent_decoder(tmp_path):
    c = corpus_for_io()
    path = tmp_path / "c.ucfd"
    dp.write_features(path, c)
    header, records = read_features_oracle(path)
    assert header == {"kind": "features", "feat_dim": c.feat_dim,
                      "n_classes": c.n_classes,
                      "utts": [[u.utt_id, u.speaker] for u in c.utts]}
    assert list(records) == [f"{r}.{i}" for i in range(len(c.utts))
                             for r in ("feats", "labels")]
    for i, a in enumerate(c.utts):
        assert a.feats.tobytes() == records[f"feats.{i}"][1].tobytes()
        labels = records[f"labels.{i}"][1]
        assert labels.tobytes() == a.labels.astype("<f4").tobytes()


def test_feature_file_bad_magic(tmp_path):
    path = tmp_path / "c.ucfd"
    dp.write_features(path, corpus_for_io())
    raw = bytearray(path.read_bytes())
    raw[:4] = b"NOPE"
    path.write_bytes(bytes(raw))
    with pytest.raises(FileFormatError):
        dp.read_features(path)


def test_feature_file_bad_version(tmp_path):
    path = tmp_path / "c.ucfd"
    dp.write_features(path, corpus_for_io())
    raw = bytearray(path.read_bytes())
    struct.pack_into("<I", raw, 4, 99)
    path.write_bytes(bytes(raw))
    with pytest.raises(FileFormatError):
        dp.read_features(path)


@pytest.mark.parametrize("keep", [2, 10, 30, 60])
def test_feature_file_truncation(tmp_path, keep):
    path = tmp_path / "c.ucfd"
    dp.write_features(path, corpus_for_io())
    path.write_bytes(path.read_bytes()[:keep])
    with pytest.raises(TruncatedFileError):
        dp.read_features(path)


def test_feature_file_truncated_tail(tmp_path):
    path = tmp_path / "c.ucfd"
    dp.write_features(path, corpus_for_io())
    raw = path.read_bytes()
    path.write_bytes(raw[:-3])
    with pytest.raises(TruncatedFileError):
        dp.read_features(path)


def test_feature_file_nonfinite_payload(tmp_path):
    path = tmp_path / "c.ucfd"
    dp.write_features(path, corpus_for_io())
    _, records = read_features_oracle(path)
    raw = bytearray(path.read_bytes())
    struct.pack_into("<f", raw, records["feats.0"][0], np.nan)
    path.write_bytes(bytes(raw))
    with pytest.raises(DataError, match="features file record 'feats.0' "
                                        "holds non-finite values"):
        dp.read_features(path)


@pytest.mark.parametrize("value,shown", [
    (1000.0, "1000"), (5.0, "5"), (-1.0, "-1"), (2.5, "2.5"),
    (np.nan, "nan")])
def test_feature_file_bad_label(tmp_path, value, shown):
    c = corpus_for_io()
    path = tmp_path / "c.ucfd"
    dp.write_features(path, c)
    _, records = read_features_oracle(path)
    raw = bytearray(path.read_bytes())
    # the last frame of the second utterance
    off = records["labels.1"][0] + 4 * (c.utts[1].length - 1)
    struct.pack_into("<f", raw, off, value)
    path.write_bytes(bytes(raw))
    # serial refuses a non-finite record before the label check reads it
    cause = ("features file record 'labels.1' holds non-finite" if
             np.isnan(value) else f"'utt00001': label {shown} is not an "
             r"integer in \[0, 5\)")
    with pytest.raises(DataError, match=cause):
        dp.read_features(path)


@pytest.mark.parametrize("edit", [
    {"feat_dim": None}, {"feat_dim": "4"}, {"feat_dim": 4.0},
    {"feat_dim": 0}, {"n_classes": True}, {"n_classes": -5},
    {"utts": "utt00000"}, {"utts": [["utt00000", "spk0", "x"]] * 6},
    {"utts": [["utt00000", 0]] * 6}, {"utts": [{"id": "u"}] * 6}],
    ids=lambda e: str(e)[:40])
def test_feature_file_malformed_header(tmp_path, edit):
    path = tmp_path / "c.ucfd"
    dp.write_features(path, corpus_for_io())
    rewrite_records(path, edit_header=lambda h: {**h, **edit})
    with pytest.raises(StructureError, match="feature-file header"):
        dp.read_features(path)


@pytest.mark.parametrize("edit,names", [
    (lambda rs: [r for r in rs if r[0] != "labels.2"], r"\['labels.2'\]"),
    (lambda rs: rs + [("feats.6", rs[0][1])], r"\['feats.6'\]"),
    (lambda rs: rs + [("note", np.zeros(1))], r"\['note'\]"),
    (lambda rs: rs[:-2], r"\['feats.5', 'labels.5'\]")],
    ids=["missing", "extra_utterance", "extra_name", "missing_utterance"])
def test_feature_file_missing_or_extra_record(tmp_path, edit, names):
    path = tmp_path / "c.ucfd"
    dp.write_features(path, corpus_for_io())
    rewrite_records(path, edit_records=edit)
    with pytest.raises(StructureError, match=names):
        dp.read_features(path)


@pytest.mark.parametrize("reshape", [
    lambda a: a[:3], lambda a: a.reshape(-1), lambda a: a[None]],
    ids=["wrong_dim", "rank_1", "rank_3"])
def test_feature_file_misshapen_features(tmp_path, reshape):
    path = tmp_path / "c.ucfd"
    dp.write_features(path, corpus_for_io())
    rewrite_records(path, edit_records=lambda rs: [
        (n, reshape(a) if n == "feats.1" else a) for n, a in rs])
    with pytest.raises(StructureError, match=r"'utt00001': features have "
                                             r"shape .*not \[4, T\]"):
        dp.read_features(path)


def test_feature_file_misaligned_labels(tmp_path):
    path = tmp_path / "c.ucfd"
    dp.write_features(path, corpus_for_io())
    rewrite_records(path, edit_records=lambda rs: [
        (n, a[:-1] if n == "labels.0" else a) for n, a in rs])
    with pytest.raises(DataError, match="must align"):
        dp.read_features(path)
