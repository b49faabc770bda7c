import json
import re
import struct
import subprocess
import sys

import numpy as np
import pytest

from ucam import cli
from ucam import data as dp
from ucam import serial
from ucam import tensor as tc
from ucam.adaptation import load_lin
from ucam.errors import FileFormatError, StructureError
from ucam.model import (ModelParams, config_to_dict, load_checkpoint,
                        micro_config)


def run(argv):
    return cli.main(argv)


def synth(tmp_path, name="c.ucfd", **over):
    args = ["synth", "--out", str(tmp_path / name),
            "--utts", "8", "--feat-dim", "8", "--t-min", "5", "--t-max", "8"]
    for k, v in over.items():
        args += [f"--{k.replace('_', '-')}", str(v)]
    assert run(args) == 0
    return tmp_path / name


def small_config(tmp_path, **train_over):
    cfg = {"model": {"feat_dim": 8, "d_attn": 8, "heads": 2, "n_blocks": 1,
                     "conv_kernel": 3, "head_hidden": 8, "n_senones": 10},
           "train": train_over}
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    return path


def train(tmp_path, steps=4, **kw):
    data = synth(tmp_path)
    out = tmp_path / "run"
    code = run(["train", "--config", str(small_config(tmp_path)),
                "--data", str(data), "--out-dir", str(out),
                "--steps", str(steps), "--eval-every", "2",
                "--batch-size", "2", *kw.get("extra", [])])
    assert code == 0
    return data, out


# ---------------------------------------------------------------------------
# synth


def test_synth_deterministic(tmp_path):
    a = synth(tmp_path, "a.ucfd", seed=5)
    b = synth(tmp_path, "b.ucfd", seed=5)
    c = synth(tmp_path, "c2.ucfd", seed=6)
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def test_synth_offsets_reachable_from_flags(tmp_path):
    path = synth(tmp_path, "o.ucfd", speakers=1, speaker_offset=7,
                 utt_offset=100)
    corpus = dp.read_features(path)
    assert {u.speaker for u in corpus.utts} == {"spk7"}
    assert corpus.utts[0].utt_id == "utt00100"


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_synth_nonfinite_warp_strength_exits_2(tmp_path, capsys, value):
    out = tmp_path / "w.ucfd"
    assert run(["synth", "--out", str(out), "--warp-strength", value]) == 2
    assert (f"config error: separation and warp_strength must be finite, "
            f"got 4.0 and {value}" in capsys.readouterr().err)
    assert not out.exists()


def test_usage_errors_exit_2(tmp_path):
    assert run(["synth"]) == 2                      # --out missing
    assert run(["no-such-command"]) == 2
    assert run([]) == 2
    assert run(["synth", "--out", str(tmp_path / "x"), "--utts", "0"]) == 2


@pytest.mark.parametrize("argv,cause", [
    (["train", "--steps", "3"],
     "the following arguments are required: --data, --out-dir"),
    (["train", "--data", "d", "--out-dir", "o", "--steps", "abc"],
     "argument --steps: invalid int value: 'abc'")])
def test_usage_error_names_its_cause(capsys, argv, cause):
    assert run(argv) == 2
    assert f"ucam train: error: {cause}" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# train


def test_train_writes_artifacts(tmp_path):
    _, out = train(tmp_path)
    for name in ("best.ckpt", "last.ckpt", "train_log.csv",
                 "effective_config.json"):
        assert (out / name).exists(), name
    eff = json.loads((out / "effective_config.json").read_text())
    assert eff["train"]["steps"] == 4
    assert eff["train"]["batch_size"] == 2
    assert eff["model"]["d_attn"] == 8
    assert eff["data"] == {"dev_every": 4}
    assert load_checkpoint(out / "last.ckpt").step == 4


def test_effective_config_replays_the_run(tmp_path):
    data, first = train(tmp_path)  # a config file plus flags
    again = tmp_path / "again"
    assert run(["train", "--config", str(first / "effective_config.json"),
                "--data", str(data), "--out-dir", str(again)]) == 0
    for name in ("effective_config.json", "last.ckpt"):
        assert (again / name).read_bytes() == (first / name).read_bytes(), \
            name


class _Crash(Exception):
    pass


def test_interrupted_config_rewrite_keeps_previous_file(tmp_path,
                                                        monkeypatch):
    data, out = train(tmp_path)
    config = str(small_config(tmp_path))
    path = out / "effective_config.json"
    before = path.read_bytes()

    def crash(*args, **kw):  # the JSON encoder fails mid-rewrite
        raise _Crash

    monkeypatch.setattr(json, "dump", crash)
    monkeypatch.setattr(json, "dumps", crash)
    with pytest.raises(_Crash):
        run(["train", "--config", config, "--data", str(data),
             "--out-dir", str(out), "--steps", "6", "--eval-every", "2",
             "--batch-size", "2", "--resume", str(out / "last.ckpt")])
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert not list(out.glob("*.tmp"))


def test_train_resume_corrupt_log_row_exits_3(tmp_path, capsys):
    data, out = train(tmp_path)
    log = out / "train_log.csv"
    rows = log.read_bytes().splitlines(keepends=True)
    rows[1] = b"x" + rows[1]  # a complete row whose step is no integer
    log.write_bytes(b"".join(rows))
    kept = ["train_log.csv", "best.ckpt", "last.ckpt",
            "effective_config.json"]
    before = [(out / name).read_bytes() for name in kept]
    assert run(["train", "--config", str(small_config(tmp_path)),
                "--data", str(data), "--out-dir", str(out), "--steps", "6",
                "--eval-every", "2", "--batch-size", "2",
                "--resume", str(out / "last.ckpt")]) == 3
    err = capsys.readouterr().err
    assert f"io error: {log} line 2 does not start with a step" in err
    assert [(out / name).read_bytes() for name in kept] == before


def test_train_resume_continues_trace(tmp_path):
    data = synth(tmp_path)
    cfgp = str(small_config(tmp_path))
    full = tmp_path / "full"
    assert run(["train", "--config", cfgp, "--data", str(data),
                "--out-dir", str(full), "--steps", "6",
                "--eval-every", "3", "--batch-size", "2"]) == 0
    part = tmp_path / "part"
    assert run(["train", "--config", cfgp, "--data", str(data),
                "--out-dir", str(part), "--steps", "3",
                "--eval-every", "3", "--batch-size", "2"]) == 0
    assert run(["train", "--config", cfgp, "--data", str(data),
                "--out-dir", str(part), "--steps", "6",
                "--eval-every", "3", "--batch-size", "2",
                "--resume", str(part / "last.ckpt")]) == 0
    a = load_checkpoint(full / "last.ckpt")
    b = load_checkpoint(part / "last.ckpt")
    for (n, x), (_, y) in zip(a.params.named_parameters(),
                              b.params.named_parameters()):
        assert x.data.tobytes() == y.data.tobytes(), n
    assert (full / "train_log.csv").read_text() \
        == (part / "train_log.csv").read_text()


@pytest.mark.parametrize("key", ["grad_clip", "finetune_lr"])
def test_train_removed_train_key_exits_2(tmp_path, capsys, key):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"train": {key: 1.0}}))
    assert run(["train", "--config", str(bad),
                "--data", str(tmp_path / "unread.ucfd"),
                "--out-dir", str(tmp_path / "o")]) == 2
    assert (f"unknown config keys: train.{key}"
            in capsys.readouterr().err)


def test_train_unknown_config_key_exits_2(tmp_path, capsys):
    data = synth(tmp_path)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"train": {"momentum": 0.9},
                               "model": {"wrcnn": {"depth": 4}}}))
    assert run(["train", "--config", str(bad), "--data", str(data),
                "--out-dir", str(tmp_path / "o")]) == 2
    assert ("unknown config keys: model.wrcnn.depth, train.momentum"
            in capsys.readouterr().err)


@pytest.mark.parametrize("user,key", [
    ({"model": {"heads": "2"}}, "model.heads"),
    ({"train": {"steps": "5"}}, "train.steps"),
    ({"train": {"eval_every": 2.5}}, "train.eval_every"),
    ({"train": {"steps": True}}, "train.steps"),
    ({"train": {"lr_factor": "5"}}, "train.lr_factor"),
    ({"model": {"wrcnn": {"strides": 2}}}, "model.wrcnn.strides"),
    ({"model": {"wrcnn": {"strides": [1, 2.0, 2]}}},
     "model.wrcnn.strides[1]"),
    ({"model": {"wrcnn": 3}}, "model.wrcnn"),
    ({"data": [4]}, "data"),
    ([], "run config")],
    ids=["str_for_int", "str_steps", "float_for_int", "bool_for_int",
         "str_for_float", "int_for_list", "float_in_int_list",
         "int_for_group", "list_for_group", "list_for_config"])
def test_train_wrong_typed_config_value_exits_2(tmp_path, capsys, user,
                                                key):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(user))
    assert run(["train", "--config", str(bad),
                "--data", str(tmp_path / "unread.ucfd"),
                "--out-dir", str(tmp_path / "o")]) == 2
    assert f"config error: {key} must be" in capsys.readouterr().err


def test_config_float_key_takes_an_int(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"train": {"lr_factor": 2}}))
    value = cli.load_run_config(path)["train"]["lr_factor"]
    assert value == 2.0 and type(value) is float


DROP = object()  # checkpoint_with_config's value for a key left out


def checkpoint_with_config(tmp_path, path, value):
    """A micro checkpoint whose header config sets ``path`` to ``value``,
    or lacks it when ``value`` is DROP."""
    params = ModelParams.create(micro_config())
    header = config_to_dict(params.cfg)
    group = header
    for key in path[:-1]:
        group = group[key]
    if value is DROP:
        del group[path[-1]]
    else:
        group[path[-1]] = value
    ckpt = tmp_path / "bad.ckpt"
    serial.write_container(
        ckpt, {"kind": "model", "config": header, "step": 0},
        [(n, t.data) for n, t in params.named_parameters()])
    return ckpt


def test_eval_checkpoint_with_removed_config_keys_exits_2(tmp_path, capsys):
    ckpt = checkpoint_with_config(tmp_path, ("wrcnn", "in_freq"), 8)
    data = synth(tmp_path, classes=5)
    assert run(["eval", "--ckpt", str(ckpt), "--data", str(data)]) == 2
    assert "wrcnn.in_freq" in capsys.readouterr().err


@pytest.mark.parametrize("path", [
    ("dropout",), ("n_blocks",), ("wrcnn", "kernel")])
def test_eval_checkpoint_missing_config_key_exits_2(tmp_path, capsys, path):
    # it would load with AcousticModelConfig()'s paper-scale value
    ckpt = checkpoint_with_config(tmp_path, path, DROP)
    data = synth(tmp_path, classes=5)
    assert run(["eval", "--ckpt", str(ckpt), "--data", str(data)]) == 2
    assert (f"config error: config lacks keys: {'.'.join(path)}\n"
            == capsys.readouterr().err)


@pytest.mark.parametrize("path,value", [
    (("heads",), "2"), (("dropout",), "0.1"), (("n_blocks",), 1.5),
    (("heads",), True), (("wrcnn", "strides"), 5), (("wrcnn",), 3)],
    ids=["str_for_int", "str_for_float", "float_for_int", "bool_for_int",
         "int_for_list", "int_for_group"])
def test_eval_wrong_typed_checkpoint_header_exits_2(tmp_path, capsys, path,
                                                    value):
    ckpt = checkpoint_with_config(tmp_path, path, value)
    data = synth(tmp_path, classes=5)
    assert run(["eval", "--ckpt", str(ckpt), "--data", str(data)]) == 2
    key = ".".join(path)
    assert f"config error: {key} must be" in capsys.readouterr().err


@pytest.mark.parametrize("header,code,cause", [
    ([1, 2], 3, "header must be a JSON object, got [1, 2]"),
    ({"kind": "model", "step": 0}, 3, "checkpoint header has no 'config'"),
    ({"kind": "model", "config": [1, 2], "step": 0}, 2,
     "checkpoint config must be a JSON object")],
    ids=["header_not_object", "config_missing", "config_not_object"])
def test_eval_malformed_checkpoint_header_names_the_cause(tmp_path, capsys,
                                                          header, code,
                                                          cause):
    params = ModelParams.create(micro_config())
    ckpt = tmp_path / "bad.ckpt"
    serial.write_container(ckpt, header,
                           [(n, t.data) for n, t in params.named_parameters()])
    data = synth(tmp_path, classes=5)
    assert run(["eval", "--ckpt", str(ckpt), "--data", str(data)]) == code
    assert cause in capsys.readouterr().err


@pytest.mark.parametrize("key,value", [
    ("step", "abc"), ("step", None), ("step", 2.5), ("step", True),
    ("step", -1), ("best_dev", "x"), ("best_dev", None),
    ("best_dev", False), ("best_dev", float("nan"))],
    ids=["step_str", "step_null", "step_float", "step_bool", "step_negative",
         "best_dev_str", "best_dev_null", "best_dev_bool", "best_dev_nan"])
def test_eval_bad_checkpoint_step_or_best_dev_exits_3(tmp_path, capsys, key,
                                                      value):
    params = ModelParams.create(micro_config())
    header = {"kind": "model", "config": config_to_dict(params.cfg),
              "step": 0, key: value}
    ckpt = tmp_path / "bad.ckpt"
    serial.write_container(ckpt, header,
                           [(n, t.data) for n, t in params.named_parameters()])
    data = synth(tmp_path, classes=5)
    assert run(["eval", "--ckpt", str(ckpt), "--data", str(data)]) == 3
    assert f"checkpoint header '{key}' must be" in capsys.readouterr().err


def test_resume_with_bad_best_dev_exits_3_before_training(tmp_path, capsys):
    data, out = train(tmp_path, steps=2)
    header, tensors = serial.read_container(out / "last.ckpt", "model")
    header["best_dev"] = "x"
    serial.write_container(out / "last.ckpt", header, list(tensors.items()))
    log = (out / "train_log.csv").read_bytes()
    assert run(["train", "--config", str(small_config(tmp_path)),
                "--data", str(data), "--out-dir", str(out), "--steps", "4",
                "--eval-every", "2", "--batch-size", "2",
                "--resume", str(out / "last.ckpt")]) == 3
    assert "checkpoint header 'best_dev' must be" in capsys.readouterr().err
    assert (out / "train_log.csv").read_bytes() == log


# a LIN file is read only by the library, so its header cases call load_lin
@pytest.mark.parametrize("header,error,cause", [
    ([1, 2], FileFormatError, "header must be a JSON object"),
    ({"kind": "lin"}, StructureError, "needs a speaker name, got None"),
    ({"kind": "lin", "speaker": "spk0"}, StructureError,
     "needs a positive integer feat_dim, got None"),
    ({"kind": "lin", "speaker": "spk0", "feat_dim": 16}, StructureError,
     "must be square [16, 16] for the header's feat_dim, got (8, 8)")],
    ids=["header_not_object", "speaker_missing", "feat_dim_missing",
         "feat_dim_not_the_matrix"])
def test_load_lin_malformed_header_names_the_cause(tmp_path, header, error,
                                                    cause):
    path = tmp_path / "bad.lin"
    serial.write_container(path, header,
                           [("lin.spk0", np.eye(8, dtype=np.float32))])
    with pytest.raises(error, match=re.escape(cause)):
        load_lin(path)


def test_rejected_resume_leaves_effective_config(tmp_path, capsys):
    data, out = train(tmp_path, steps=2)
    path = out / "effective_config.json"
    before = path.read_bytes()
    cfg = json.loads(before)
    cfg["model"]["head_hidden"] = 16
    other = tmp_path / "other.json"
    other.write_text(json.dumps(cfg))
    assert run(["train", "--config", str(other), "--data", str(data),
                "--out-dir", str(out), "--steps", "4",
                "--resume", str(out / "last.ckpt")]) == 2
    assert "different model config" in capsys.readouterr().err
    assert path.read_bytes() == before


def test_resume_past_steps_exits_2_before_writing(tmp_path, capsys):
    data, out = train(tmp_path, steps=4)
    files = {f.name: f.read_bytes() for f in out.iterdir()}
    assert run(["train", "--config", str(small_config(tmp_path)),
                "--data", str(data), "--out-dir", str(out), "--steps", "2",
                "--eval-every", "2", "--batch-size", "2",
                "--resume", str(out / "last.ckpt")]) == 2
    err = capsys.readouterr().err
    assert "at step 4" in err and "2 steps" in err
    assert {f.name: f.read_bytes() for f in out.iterdir()} == files


@pytest.mark.parametrize("flags,keys", [
    (["--seed", "7", "--batch-size", "3"], "train.batch_size, train.seed"),
    (["--dev-every", "3"], "data.dev_every"),
    (["--eval-every", "1"], "train.eval_every")])
def test_resume_with_other_run_config_exits_2_before_writing(
        tmp_path, capsys, flags, keys):
    data, out = train(tmp_path, steps=2)
    files = {f.name: f.read_bytes() for f in out.iterdir()}
    assert run(["train", "--config", str(small_config(tmp_path)),
                "--data", str(data), "--out-dir", str(out), "--steps", "4",
                "--eval-every", "2", "--batch-size", "2", *flags,
                "--resume", str(out / "last.ckpt")]) == 2
    assert f"resume changes {keys} from" in capsys.readouterr().err
    assert {f.name: f.read_bytes() for f in out.iterdir()} == files


def test_resume_without_effective_config_exits_2(tmp_path, capsys):
    data, out = train(tmp_path, steps=2)
    (out / "effective_config.json").unlink()
    assert run(["train", "--config", str(small_config(tmp_path)),
                "--data", str(data), "--out-dir", str(out), "--steps", "4",
                "--eval-every", "2", "--batch-size", "2",
                "--resume", str(out / "last.ckpt")]) == 2
    assert "effective_config.json" in capsys.readouterr().err
    assert not (out / "effective_config.json").exists()


def test_resume_from_missing_checkpoint_exits_3(tmp_path, capsys):
    data = synth(tmp_path)
    out = tmp_path / "run"
    assert run(["train", "--config", str(small_config(tmp_path)),
                "--data", str(data), "--out-dir", str(out), "--steps", "4",
                "--resume", str(tmp_path / "gone" / "last.ckpt")]) == 3
    assert "effective_config.json" not in capsys.readouterr().err
    assert not out.exists()


def test_resume_may_extend_the_schedule(tmp_path):
    data, out = train(tmp_path, steps=2)
    cfg = json.loads((out / "effective_config.json").read_text())
    assert run(["train", "--config", str(small_config(tmp_path,
                                                      ema_decay=0.5)),
                "--data", str(data), "--out-dir", str(out), "--steps", "4",
                "--eval-every", "2", "--batch-size", "2",
                "--finetune-steps", "1",
                "--resume", str(out / "last.ckpt")]) == 0
    cfg["train"].update(steps=4, finetune_steps=1, ema_decay=0.5)
    assert json.loads((out / "effective_config.json").read_text()) == cfg


def test_train_malformed_config_exits_2(tmp_path):
    data = synth(tmp_path)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["train", "--config", str(bad), "--data", str(data),
                "--out-dir", str(tmp_path / "o")]) == 2


def test_train_missing_data_exits_3(tmp_path):
    assert run(["train", "--data", str(tmp_path / "nope.ucfd"),
                "--out-dir", str(tmp_path / "o")]) == 3


def test_train_feat_dim_mismatch_exits_2(tmp_path):
    data = synth(tmp_path)  # feat_dim 8, desk default model expects 16
    assert run(["train", "--data", str(data),
                "--out-dir", str(tmp_path / "o"), "--steps", "2"]) == 2


@pytest.mark.parametrize("key,value", [
    ("warmup", 0), ("lr_factor", -5), ("lr_factor", float("nan")),
    ("ema_decay", 1.5)])
def test_train_bad_schedule_value_exits_2_before_writing(tmp_path, capsys,
                                                         key, value):
    data = synth(tmp_path)
    out = tmp_path / "o"
    assert run(["train", "--config", str(small_config(tmp_path,
                                                      **{key: value})),
                "--data", str(data), "--out-dir", str(out), "--steps", "2",
                "--eval-every", "2", "--batch-size", "2",
                "--finetune-steps", "2"]) == 2
    assert key in capsys.readouterr().err
    assert not out.exists()


def test_train_utterance_without_frames_exits_3_before_writing(tmp_path,
                                                              capsys):
    data = synth(tmp_path)
    header, tensors = serial.read_container(data, "features")
    tensors["feats.3"] = tensors["feats.3"][:, :0]
    tensors["labels.3"] = tensors["labels.3"][:0]
    serial.write_container(data, header, tensors.items())
    out = tmp_path / "run"
    assert run(["train", "--config", str(small_config(tmp_path)),
                "--data", str(data), "--out-dir", str(out),
                "--steps", "2"]) == 3
    assert "utterance 'utt00003': no frames" in capsys.readouterr().err
    assert not (out / "effective_config.json").exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_divergence_exits_4(tmp_path):
    data = synth(tmp_path)
    cfg = small_config(tmp_path, lr_factor=1e12, warmup=1)
    assert run(["train", "--config", str(cfg), "--data", str(data),
                "--out-dir", str(tmp_path / "o"), "--steps", "40",
                "--eval-every", "40", "--batch-size", "2"]) == 4


# ---------------------------------------------------------------------------
# eval


def test_eval_reports_metrics(tmp_path, capsys):
    data, out = train(tmp_path)
    assert run(["eval", "--ckpt", str(out / "last.ckpt"),
                "--data", str(data)]) == 0
    text = capsys.readouterr().out
    assert "frame_acc" in text and "loss" in text


def test_eval_speaker_filter(tmp_path, capsys):
    data, out = train(tmp_path)
    assert run(["eval", "--ckpt", str(out / "last.ckpt"),
                "--data", str(data), "--speaker", "spk0"]) == 0
    assert run(["eval", "--ckpt", str(out / "last.ckpt"),
                "--data", str(data), "--speaker", "spk99"]) == 3


def test_eval_corrupt_checkpoint_exits_3(tmp_path):
    data = synth(tmp_path)
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"XXXX" + bytes(32))
    assert run(["eval", "--ckpt", str(bad), "--data", str(data)]) == 3


def test_eval_checkpoint_with_impossible_dims_exits_3(tmp_path, capsys):
    data = synth(tmp_path)
    bad = tmp_path / "bad.ckpt"
    serial.write_container(bad, {"kind": "model"},
                           [("w", np.ones((2, 2, 1), np.float32))])
    bad.write_bytes(bad.read_bytes().replace(
        struct.pack("<3I", 2, 2, 1), struct.pack("<3I", *[60000] * 3), 1))
    assert run(["eval", "--ckpt", str(bad), "--data", str(data)]) == 3
    assert "file ends inside data of tensor 'w'" in capsys.readouterr().err


def exits_3_on_non_finite(tmp_path, capsys, command, kind, name, value):
    data, out = train(tmp_path, steps=2)
    ckpt = out / "last.ckpt"
    path = ckpt if kind == "model" else data
    header, tensors = serial.read_container(path, kind)
    tensors[name] = tensors[name].copy()
    tensors[name].flat[0] = value
    serial.write_container(path, header, list(tensors.items()))
    extra = ["--speaker", "spk1"] if command == "adapt" else []
    assert run([command, "--ckpt", str(ckpt), "--data", str(data),
                *extra]) == 3
    assert (f"{kind} file record '{name}' holds non-finite values"
            in capsys.readouterr().err)


@pytest.mark.parametrize("command", ["eval", "adapt"])
@pytest.mark.parametrize("name,value", [("head.w2", np.nan),
                                        ("opt.v.head.w1", np.inf)])
def test_non_finite_checkpoint_tensor_exits_3(tmp_path, capsys, command,
                                              name, value):
    exits_3_on_non_finite(tmp_path, capsys, command, "model", name, value)


@pytest.mark.parametrize("command", ["eval", "adapt"])
@pytest.mark.parametrize("name,value", [("feats.1", -np.inf),
                                        ("labels.2", np.nan)])
def test_non_finite_feature_record_exits_3(tmp_path, capsys, command, name,
                                           value):
    exits_3_on_non_finite(tmp_path, capsys, command, "features", name,
                          value)


@pytest.mark.parametrize("target,name,field", [
    ("ckpt", b"head.b", "tensor name"),
    ("data", b"utt00000", "header"),   # ids live in the container header
    ("data", b"spk0", "header")])
def test_eval_non_utf8_name_exits_3(tmp_path, capsys, target, name, field):
    data, out = train(tmp_path, steps=2)
    paths = {"ckpt": out / "last.ckpt", "data": data}
    raw = paths[target].read_bytes()
    assert name in raw
    paths[target].write_bytes(raw.replace(name, b"\xff" + name[1:], 1))
    assert run(["eval", "--ckpt", str(paths["ckpt"]),
                "--data", str(data)]) == 3
    assert f"{field} is not valid UTF-8" in capsys.readouterr().err


def test_eval_checkpoint_as_data_exits_3(tmp_path, capsys):
    data, out = train(tmp_path, steps=2)
    ckpt = str(out / "last.ckpt")
    assert run(["eval", "--ckpt", ckpt, "--data", ckpt]) == 3
    assert ("expected a file of kind 'features', got kind 'model'"
            in capsys.readouterr().err)


def test_eval_feature_file_as_checkpoint_exits_3(tmp_path, capsys):
    data = str(synth(tmp_path))
    assert run(["eval", "--ckpt", data, "--data", data]) == 3
    assert ("expected a file of kind 'model', got kind 'features'"
            in capsys.readouterr().err)


def test_eval_ucfd_feature_file_exits_3(tmp_path, capsys):
    data, out = train(tmp_path, steps=2)
    # the earlier feature-file layout: magic, version, F, K, count, ...
    data.write_bytes(b"UCFD" + struct.pack("<IIII", 1, 8, 10, 0))
    assert run(["eval", "--ckpt", str(out / "last.ckpt"),
                "--data", str(data)]) == 3
    assert "bad magic b'UCFD'" in capsys.readouterr().err


def test_eval_untrained_model_near_chance(tmp_path, capsys):
    # a freshly initialized 10-class model should sit near 10% accuracy
    data = synth(tmp_path, "big.ucfd", utts=64)
    out = tmp_path / "init"
    assert run(["train", "--config", str(small_config(tmp_path)),
                "--data", str(data), "--out-dir", str(out),
                "--steps", "1", "--eval-every", "1",
                "--batch-size", "4"]) == 0
    assert run(["eval", "--ckpt", str(out / "last.ckpt"),
                "--data", str(data)]) == 0
    text = capsys.readouterr().out.splitlines()[-1]
    acc = float(text.split("frame_acc ")[1].split(",")[0])
    assert 0.02 <= acc <= 0.35


# ---------------------------------------------------------------------------
# gradcheck


def test_gradcheck_passes(tmp_path, capsys):
    assert run(["gradcheck", "--seed", "1"]) == 0
    text = capsys.readouterr().out
    assert "gradcheck passed" in text
    assert "FAIL" not in text


def test_gradcheck_mutation_detected(capsys, monkeypatch):
    def sign_flipped_scale(a, c):
        return tc.from_op(a.data * c, (a,), lambda g: (-g * c,), "scale")

    monkeypatch.setattr(tc, "scale", sign_flipped_scale)
    assert run(["gradcheck"]) == 4
    assert "FAIL" in capsys.readouterr().out


def test_gradcheck_takes_no_config(tmp_path):
    # the checks carry their own miniature configs
    cfg = tmp_path / "run.json"
    cfg.write_text("{}")
    assert run(["gradcheck", "--config", str(cfg)]) == 2


# ---------------------------------------------------------------------------
# adapt


def test_adapt_writes_lin(tmp_path, capsys):
    data, out = train(tmp_path)
    lin_path = tmp_path / "spk.ucam"
    assert run(["adapt", "--ckpt", str(out / "last.ckpt"),
                "--data", str(data), "--speaker", "spk1",
                "--iterations", "1", "--epochs", "1",
                "--out", str(lin_path)]) == 0
    text = capsys.readouterr().out
    assert "unadapted frame_err" in text
    assert "iteration 1" in text
    lin = load_lin(lin_path)
    assert lin.speaker == "spk1"
    assert lin.feat_dim == 8


def test_adapt_zero_iterations_matches_plain_eval(tmp_path, capsys):
    data, out = train(tmp_path)
    lin_path = tmp_path / "id.ucam"
    assert run(["adapt", "--ckpt", str(out / "last.ckpt"),
                "--data", str(data), "--speaker", "spk1",
                "--iterations", "0", "--out", str(lin_path)]) == 0
    text = capsys.readouterr().out
    assert "iteration" not in text.replace("iterations", "")
    np.testing.assert_array_equal(load_lin(lin_path).matrix(),
                                  np.eye(8, dtype=np.float32))


@pytest.mark.parametrize("lr", ["-0.01", "0", "nan", "inf"])
def test_adapt_bad_lr_exits_2_before_writing(tmp_path, capsys, lr):
    data, out = train(tmp_path)
    lin_path = tmp_path / "spk.ucam"
    assert run(["adapt", "--ckpt", str(out / "last.ckpt"),
                "--data", str(data), "--speaker", "spk1",
                "--iterations", "1", "--epochs", "1", "--lr", lr,
                "--out", str(lin_path)]) == 2
    assert "lr must be positive and finite" in capsys.readouterr().err
    assert not lin_path.exists()


def test_adapt_unknown_speaker_exits_3(tmp_path):
    data, out = train(tmp_path)
    assert run(["adapt", "--ckpt", str(out / "last.ckpt"),
                "--data", str(data), "--speaker", "nobody"]) == 3


# ---------------------------------------------------------------------------
# a run that the fork rule keeps on one process


@pytest.mark.parametrize("pinned", [True, False])
def test_a_run_kept_off_the_worker_by_threads_says_so(tmp_path, capsys,
                                                      monkeypatch, pinned):
    # this process runs BLAS on one thread; an unpinned one runs more
    from ucam import training
    monkeypatch.setattr(training, "_usable_cpus", lambda: 2)
    if not pinned:
        monkeypatch.setattr(training, "_threads", lambda: 3)
    data, out = train(tmp_path)
    ckpt = str(out / "last.ckpt")
    assert run(["eval", "--ckpt", ckpt, "--data", str(data)]) == 0
    assert run(["adapt", "--ckpt", ckpt, "--data", str(data),
                "--speaker", "spk1", "--iterations", "1", "--epochs", "1",
                "--out", str(tmp_path / "lin.ucam")]) == 0
    err = capsys.readouterr().err.splitlines()
    notes = [line for line in err if line.startswith("note:")]
    assert len(notes) == (0 if pinned else 3)  # train, eval and adapt
    for note in notes:
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS"):
            assert var in note


# ---------------------------------------------------------------------------
# packaging


def test_module_entry_point(tmp_path):
    out = tmp_path / "m.ucfd"
    proc = subprocess.run(
        [sys.executable, "-m", "ucam.cli", "synth", "--out", str(out),
         "--utts", "4", "--feat-dim", "8", "--t-min", "5", "--t-max", "6"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert out.exists()
    assert "wrote 4 utterances" in proc.stdout
