import dataclasses
import hashlib
import itertools
import re
import struct
import tracemalloc

import numpy as np
import pytest

from ucam import adaptation as ad
from ucam import data as dp
from ucam import serial
from ucam import tensor as tc
from ucam.conformer import FFNParams, MHSAParams
from ucam.errors import (ConfigError, DataError, FileFormatError,
                         StructureError, TruncatedFileError)
from ucam.masking import SequenceMask
from ucam.model import (AcousticModelConfig, ModelParams, config_from_dict,
                        config_to_dict, count_params, desk_config,
                        load_checkpoint, micro_config, model_forward,
                        save_checkpoint, walk_parameters)
from ucam.rng import keyed
from ucam.training import masked_cross_entropy
from ucam.wrcnn import N_PLANES


def make_model(seed=0, cfg=None):
    cfg = cfg or micro_config()
    return ModelParams.create(cfg, rng=keyed(seed, "init"))


def random_input(rng, b, f, t_max, lengths):
    x = rng.standard_normal((b, 3, f, t_max)).astype(np.float32)
    mask = SequenceMask(lengths, t_max)
    ind = mask.indicator(bool)
    for i in range(b):
        x[i, :, :, ~ind[i]] = 0.0
    return tc.tensor(x), mask


# ---------------------------------------------------------------------------
# config


def test_config_validation():
    with pytest.raises(ConfigError):
        micro_config_with(d_attn=9)  # heads 2 does not divide 9
    with pytest.raises(ConfigError):
        micro_config_with(heads=3)
    with pytest.raises(ConfigError):
        micro_config_with(dropout=1.0)
    with pytest.raises(ConfigError):
        micro_config_with(conv_kernel=0)
    with pytest.raises(ConfigError):
        micro_config_with(d_attn=6, heads=4)
    with pytest.raises(ConfigError, match="d_attn must be positive"):
        micro_config_with(d_attn=0)


def micro_config_with(**kw):
    base = config_to_dict(micro_config())
    base.update(kw)
    return config_from_dict(base)


def test_config_dict_round_trip():
    cfg = dataclasses.replace(desk_config(), feat_dim=24, n_senones=12,
                              d_attn=32)
    back = config_from_dict(config_to_dict(cfg))
    assert back == cfg


def test_config_from_dict_rejects_missing_keys():
    # a key left out would silently take the paper-scale default
    d = config_to_dict(desk_config())
    del d["dropout"], d["n_blocks"], d["wrcnn"]["kernel"]
    with pytest.raises(ConfigError, match="config lacks keys: dropout, "
                       "n_blocks, wrcnn.kernel$"):
        config_from_dict(d)
    with pytest.raises(ConfigError, match="lacks keys: wrcnn.base_channels, "
                       "wrcnn.kernel, wrcnn.multipliers, wrcnn.strides$"):
        config_from_dict(config_to_dict(desk_config()) | {"wrcnn": {}})


def test_config_from_dict_rejects_unknown_keys():
    d = config_to_dict(micro_config())
    d["momentum"] = 0.9
    with pytest.raises(ConfigError, match="momentum"):
        config_from_dict(d)
    d = config_to_dict(micro_config())
    d["wrcnn"]["depth"] = 4
    with pytest.raises(ConfigError, match="wrcnn.depth"):
        config_from_dict(d)
    d["momentum"] = 0.9  # every unknown key, at any depth, in one message
    with pytest.raises(ConfigError, match="momentum, wrcnn.depth"):
        config_from_dict(d)


@pytest.mark.parametrize("cfg,count,digest", [
    (micro_config(), 60, "20e4585f69439b70"),
    (desk_config(), 89, "a35affb0682f22a7")], ids=["micro", "desk"])
def test_record_names_are_pinned(cfg, count, digest):
    # the checkpoint format: a renamed or reordered record breaks old files
    names = [n for n, _ in ModelParams.create(cfg).named_parameters()]
    got = hashlib.sha256("\n".join(names).encode()).hexdigest()[:16]
    assert (len(names), got) == (count, digest), names


# ---------------------------------------------------------------------------
# forward


def test_forward_shape_and_normalization():
    params = make_model()
    rng = np.random.default_rng(0)
    x, mask = random_input(rng, 2, 8, 12, [12, 7])
    out = model_forward(x, mask, params)
    assert out.shape == (2, 12, 5)
    probs = np.exp(out.data)
    ind = mask.indicator(bool)
    np.testing.assert_allclose(probs[ind].sum(-1), 1.0, atol=1e-5)


def test_forward_eval_deterministic():
    params = make_model()
    rng = np.random.default_rng(1)
    x, mask = random_input(rng, 2, 8, 10, [10, 6])
    a = model_forward(x, mask, params)
    b = model_forward(x, mask, params)
    assert a.data.tobytes() == b.data.tobytes()


def test_forward_dropout_seeded():
    params = make_model()
    rng = np.random.default_rng(2)
    x, mask = random_input(rng, 1, 8, 9, [9])
    t1 = model_forward(x, mask, params, train=True, rng=keyed(7, "d"))
    t2 = model_forward(x, mask, params, train=True, rng=keyed(7, "d"))
    t3 = model_forward(x, mask, params, train=True, rng=keyed(8, "d"))
    ev = model_forward(x, mask, params)
    assert t1.data.tobytes() == t2.data.tobytes()
    assert t1.data.tobytes() != t3.data.tobytes()
    assert t1.data.tobytes() != ev.data.tobytes()


def test_desk_training_forward_records_150_nodes():
    # one node per linear layer, not matmul + transpose + bias
    params = make_model(cfg=desk_config())
    rng = np.random.default_rng(3)
    x, mask = random_input(rng, 4, 16, 40, [40, 33, 27, 20])
    out = model_forward(x, mask, params, train=True, rng=keyed(7, "d"))
    ops = [n._op for n in tc._toposort(out) if n._parents is not None]
    assert len(ops) == 150
    assert ops.count("matmul") == 28 and ops.count("transpose") == 15


def test_desk_train_step_backward_peak_stays_near_the_graph():
    # the graph holds only the arrays backward reads, and backward releases
    # each node once its closure has run, so the pass (parameter gradients
    # included) peaks at most 5% above what the forward left allocated
    params = make_model(cfg=desk_config())
    rng = np.random.default_rng(3)
    x, mask = random_input(rng, 4, 16, 40, [40, 33, 27, 20])
    labels = rng.integers(0, params.cfg.n_senones, (4, 40))
    tracemalloc.start()
    try:
        out = model_forward(x, mask, params, train=True, rng=keyed(7, "d"))
        loss = masked_cross_entropy(out, labels, mask)
        del out
        graph = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        tc.backward(loss)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.05 * graph, (peak, graph)


def traced_graph_bytes(forward) -> int:
    """Bytes still allocated once ``forward()`` has built its loss."""
    tracemalloc.start()
    try:
        loss = forward()  # noqa: F841 (alive while it is measured)
        return tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def test_desk_step_graphs_keep_no_float_backward_can_rebuild():
    # dropout keeps its draw as a boolean, and swish and glu keep their
    # input, not its sigmoid: the graphs were 7.84 and 4.94 MB with them
    params = make_model(cfg=desk_config())
    rng = np.random.default_rng(3)
    x, mask = random_input(rng, 4, 16, 40, [40, 33, 27, 20])
    labels = rng.integers(0, params.cfg.n_senones, (4, 40))
    train = traced_graph_bytes(lambda: masked_cross_entropy(
        model_forward(x, mask, params, train=True, rng=keyed(7, "d")),
        labels, mask))
    assert train <= 6.5e6, train
    params.set_requires_grad(False)
    lin = ad.LinTransform(16)
    batch = dp.Batch(x.data, labels, mask)
    frozen = traced_graph_bytes(lambda: masked_cross_entropy(
        model_forward(ad.lin_batch(batch, lin), mask, params), labels, mask))
    assert frozen <= 4.4e6, frozen


def test_forward_padding_invariance_end_to_end():
    params = make_model()
    rng = np.random.default_rng(3)
    t = 11
    x = rng.standard_normal((1, 3, 8, t)).astype(np.float32)
    alone = model_forward(tc.tensor(x), SequenceMask([t]),
                          params)
    for extra in (1, 5, 16):
        padded = np.zeros((1, 3, 8, t + extra), dtype=np.float32)
        padded[:, :, :, :t] = x
        out = model_forward(tc.tensor(padded),
                            SequenceMask([t], t + extra),
                            params)
        np.testing.assert_allclose(out.data[0, :t], alone.data[0],
                                   atol=1e-5)


# ---------------------------------------------------------------------------
# parameter accounting


def test_count_ffn_reference_width():
    p = FFNParams.create(256, np.random.default_rng(0))
    assert sum(t.size for _, t in walk_parameters(p, "f")) == 526080


def test_count_mhsa_reference_width():
    p = MHSAParams.create(256, 4, np.random.default_rng(0))
    assert sum(t.size for _, t in walk_parameters(p, "m")) == 262656


def wrcnn_count(model_cfg):
    cfg = model_cfg.wrcnn
    k2 = cfg.kernel ** 2
    chans = cfg.block_channels
    want = chans[0] * N_PLANES * k2  # stem, no bias
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


def model_count(cfg):
    d, k = cfg.d_attn, cfg.conv_kernel
    ffn = 8 * d * d + 7 * d
    mhsa = 4 * d * d + 2 * d
    conv = 3 * d * d + d * k + 7 * d
    block = 2 * ffn + mhsa + conv + 2 * d
    total = wrcnn_count(cfg)
    total += d * d + d
    total += cfg.n_blocks * block
    total += cfg.head_hidden * d + cfg.head_hidden
    total += cfg.n_senones * cfg.head_hidden + cfg.n_senones
    return total


@pytest.mark.parametrize("cfg", [
    micro_config(),
    desk_config(),
    dataclasses.replace(desk_config(), feat_dim=32, n_senones=64, d_attn=128,
                        heads=4, n_blocks=3),
], ids=["micro", "desk", "wide"])
def test_count_whole_model_closed_form(cfg):
    assert count_params(ModelParams.create(cfg)) == model_count(cfg)


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_round_trip_bit_exact(tmp_path):
    params = make_model(seed=5)
    path = tmp_path / "m.ckpt"
    save_checkpoint(params, path, step=42,
                    extra={"opt.m.proj.w": np.ones((8, 8), np.float32)},
                    meta={"best_dev": 1.25})
    ck = load_checkpoint(path)
    assert ck.step == 42
    assert ck.header["best_dev"] == 1.25
    for (n1, a), (n2, b) in zip(params.named_parameters(),
                                ck.params.named_parameters()):
        assert n1 == n2 and a.data.tobytes() == b.data.tobytes()
    assert set(ck.extra) == {"opt.m.proj.w"}
    np.testing.assert_array_equal(ck.extra["opt.m.proj.w"],
                                  np.ones((8, 8), np.float32))


def test_checkpoint_reload_reproduces_outputs(tmp_path):
    params = make_model(seed=6)
    rng = np.random.default_rng(6)
    x, mask = random_input(rng, 2, 8, 10, [10, 8])
    before = model_forward(x, mask, params)
    save_checkpoint(params, tmp_path / "m.ckpt")
    after = model_forward(x, mask, load_checkpoint(tmp_path / "m.ckpt").params)
    assert before.data.tobytes() == after.data.tobytes()


def test_checkpoint_rejects_missing_tensor(tmp_path):
    params = make_model()
    header = {"kind": "model", "config": config_to_dict(params.cfg),
              "step": 0}
    records = [(n, t.data) for n, t in params.named_parameters()][:-1]
    serial.write_container(tmp_path / "x.ckpt", header, records)
    with pytest.raises(StructureError, match="missing"):
        load_checkpoint(tmp_path / "x.ckpt")


def test_checkpoint_rejects_removed_config_keys(tmp_path):
    # a header from before the frontend took its geometry from the model
    params = make_model()
    old = config_to_dict(params.cfg)
    old["wrcnn"] |= {"in_freq": 8, "out_dim": 8}
    serial.write_container(
        tmp_path / "old.ckpt", {"kind": "model", "config": old, "step": 0},
        [(n, t.data) for n, t in params.named_parameters()])
    with pytest.raises(ConfigError, match="wrcnn.in_freq, wrcnn.out_dim"):
        load_checkpoint(tmp_path / "old.ckpt")


def test_checkpoint_rejects_shape_mismatch(tmp_path):
    params = make_model()
    header = {"kind": "model", "config": config_to_dict(params.cfg),
              "step": 0}
    records = [(n, t.data) for n, t in params.named_parameters()]
    records[0] = (records[0][0], np.zeros((2, 2), np.float32))
    serial.write_container(tmp_path / "x.ckpt", header, records)
    with pytest.raises(StructureError, match="shape"):
        load_checkpoint(tmp_path / "x.ckpt")


# ---------------------------------------------------------------------------
# container format


def test_container_round_trip(tmp_path):
    path = tmp_path / "c.bin"
    tensors = [("a", np.arange(6, dtype=np.float32).reshape(2, 3)),
               ("nested.name", np.zeros((1, 1, 4), np.float32))]
    serial.write_container(path, {"kind": "test", "note": "hi"}, tensors)
    header, back = serial.read_container(path, "test")
    assert header == {"kind": "test", "note": "hi"}
    assert set(back) == {"a", "nested.name"}
    np.testing.assert_array_equal(back["a"], tensors[0][1])
    assert back["a"].dtype == np.float32


def test_container_bad_magic(tmp_path):
    path = tmp_path / "c.bin"
    serial.write_container(path, {"kind": "test"}, [])
    raw = bytearray(path.read_bytes())
    raw[0] = 0
    path.write_bytes(bytes(raw))
    with pytest.raises(FileFormatError, match="magic"):
        serial.read_container(path, "test")


def test_container_bad_version(tmp_path):
    path = tmp_path / "c.bin"
    serial.write_container(path, {"kind": "test"}, [])
    raw = bytearray(path.read_bytes())
    raw[4:8] = (99).to_bytes(4, "little")
    path.write_bytes(bytes(raw))
    with pytest.raises(FileFormatError, match="version"):
        serial.read_container(path, "test")


def test_container_corrupt_header(tmp_path):
    path = tmp_path / "c.bin"
    serial.write_container(path, {"kind": "test"}, [])
    raw = bytearray(path.read_bytes())
    raw[12] = ord("!")
    path.write_bytes(bytes(raw))
    with pytest.raises(FileFormatError, match="header"):
        serial.read_container(path, "test")


@pytest.mark.parametrize("keep", [2, 6, 10, 14, 30])
def test_container_truncation(tmp_path, keep):
    path = tmp_path / "c.bin"
    serial.write_container(path, {"kind": "test"},
                           [("w", np.ones((4, 4), np.float32))])
    path.write_bytes(path.read_bytes()[:keep])
    with pytest.raises(TruncatedFileError):
        serial.read_container(path, "test")


def test_container_truncated_tensor_payload(tmp_path):
    path = tmp_path / "c.bin"
    serial.write_container(path, {"kind": "test"},
                           [("w", np.ones((4, 4), np.float32))])
    path.write_bytes(path.read_bytes()[:-5])
    with pytest.raises(TruncatedFileError):
        serial.read_container(path, "test")


@pytest.mark.parametrize("field,declared,what", [
    ("dims", (60000, 60000, 60000), "data of tensor 'w'"),
    ("dims", (2 ** 31, 2 ** 31, 4), "data of tensor 'w'"),  # int64 wraps
    ("header length", (2 ** 32 - 1,), "header")])
def test_container_refuses_a_length_the_file_cannot_hold(tmp_path, field,
                                                         declared, what):
    path = tmp_path / "c.bin"
    serial.write_container(path, {"kind": "test"},
                           [("w", np.ones((2, 2, 1), np.float32))])
    raw = path.read_bytes()
    # the header length sits after magic and version, the dims before the
    # 16 data bytes
    at = 8 if field == "header length" else len(raw) - 16 - 12
    path.write_bytes(raw[:at] + struct.pack(f"<{len(declared)}I", *declared)
                     + raw[at + 4 * len(declared):])
    tracemalloc.start()
    try:
        with pytest.raises(TruncatedFileError,
                           match=f"file ends inside {what}$"):
            serial.read_container(path, "test")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # refused before a read of the declared length


def test_container_duplicate_name(tmp_path):
    path = tmp_path / "c.bin"
    w = np.ones((2, 2), np.float32)
    serial.write_container(path, {"kind": "test"},
                           [("w", w), ("v", w), ("w", w)])
    with pytest.raises(FileFormatError, match="tensor 'w' appears twice"):
        serial.read_container(path, "test")


# each loader and the kind it asks serial for
LOADERS = {"model": load_checkpoint, "lin": ad.load_lin,
           "features": dp.read_features}


def write_kind(path, kind):
    if kind == "model":
        save_checkpoint(make_model(), path,
                        extra={"opt.v.head.b2": np.ones(5, np.float32)})
    elif kind == "lin":
        ad.save_lin(ad.LinTransform(4, "s"), path)
    else:
        dp.write_features(path, dp.synth_corpus(
            seed=0, n_speakers=1, n_classes=3, n_utts=2, feat_dim=4,
            t_range=(3, 5)))


@pytest.mark.parametrize("kind", list(LOADERS))
def test_loaders_refuse_a_non_finite_value_in_any_record(tmp_path, kind):
    path = tmp_path / "f.bin"
    write_kind(path, kind)
    header, tensors = serial.read_container(path, kind)
    for i, name in enumerate(tensors):  # labels and extras included
        bad = dict(tensors)
        bad[name] = tensors[name].copy()
        bad[name].flat[i % bad[name].size] = (np.nan, np.inf, -np.inf)[i % 3]
        serial.write_container(path, header, bad.items())
        with pytest.raises(DataError, match=re.escape(
                f"{kind} file record '{name}' holds non-finite values")):
            LOADERS[kind](path)


@pytest.mark.parametrize("kind,other", list(
    itertools.permutations(LOADERS, 2)))
def test_loaders_refuse_a_file_of_another_kind(tmp_path, kind, other):
    path = tmp_path / "f.bin"
    write_kind(path, other)
    with pytest.raises(StructureError, match=re.escape(
            f"expected a file of kind '{kind}', got kind '{other}'")):
        LOADERS[kind](path)
