"""Command-line surface: synth, train, eval, gradcheck, adapt.

One experiment per invocation. ``train`` takes a JSON run config with
three groups: "model" holds the AcousticModelConfig fields (the frontend's
under "wrcnn"), "train" the TrainConfig fields, and "data" only dev_every
(every n-th utterance goes to the dev split). Any flag overrides the
matching key. Unknown keys and values of the wrong JSON type exit 2: int
keys take no floats or booleans, float keys also take ints, list keys need
lists. A checkpoint header's model config is held to the same rules and
must also state every key, so ``eval``, ``adapt`` and ``train --resume``
exit 2 on a bad header. The merged result is written to
effective_config.json in the output directory, and passing that file back
as --config replays the run. A --resume keeps the "train" and "data"
values of the effective_config.json beside its checkpoint, except
train.steps, finetune_steps and ema_decay; a rejected --resume leaves the
file as it was.

Exit codes: 0 success, 2 configuration or usage error, 3 IO error,
4 numeric divergence.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from . import adaptation
from . import data as dpipe
from . import gradcheck as gc
from . import serial
from . import training
from .errors import (ConfigError, DataError, DivergenceError,
                     FileFormatError, NumericError, StructureError)
from .model import (AcousticModelConfig, ModelParams, config_from_dict,
                    config_to_dict, desk_config, load_checkpoint, overlay)
from .rng import keyed
from .training import (TrainConfig, evaluate, fit, load_matching,
                       resumed_log_bytes)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERIC = 4

# `ucam synth`'s flags and their defaults
DATA_DEFAULTS = {
    "seed": 0,
    "speakers": 4,
    "classes": 10,
    "utts": 64,
    "feat_dim": 16,
    "t_min": 20,
    "t_max": 40,
    "warp_strength": 0.1,
    "speaker_offset": 0,
    "utt_offset": 0,
}

# `ucam train`'s flags, each overriding the run config key it names
TRAIN_FLAGS = ("train.seed", "train.steps", "train.batch_size",
               "train.eval_every", "train.finetune_steps", "data.dev_every")


def default_run_config() -> dict:
    return {"model": config_to_dict(desk_config()),
            "train": dataclasses.asdict(TrainConfig()),
            "data": {"dev_every": 4}}


def load_run_config(path, overrides: dict | None = None) -> dict:
    """Defaults, then the config file, then CLI flag overrides."""
    cfg = default_run_config()
    if path is not None:
        try:
            with open(path) as f:
                user = json.load(f)
        except json.JSONDecodeError as e:
            raise ConfigError(f"config file {path} is not valid JSON: {e}")
        cfg = overlay(cfg, user)
    for dotted, value in (overrides or {}).items():
        group, key = dotted.split(".", 1)
        if value is not None:
            cfg[group][key] = value
    return cfg


def _split_dev(corpus: dpipe.Corpus, dev_every: int):
    if dev_every < 2:
        raise ConfigError(f"dev_every must be >= 2, got {dev_every}")
    train = [u for i, u in enumerate(corpus.utts)
             if i % dev_every != dev_every - 1]
    dev = corpus.utts[dev_every - 1::dev_every]
    if not train or not dev:
        raise ConfigError(f"corpus of {len(corpus)} utterances cannot "
                          f"fill a train/dev split with dev_every="
                          f"{dev_every}")
    return train, dev


def _check_compat(cfg: AcousticModelConfig, corpus: dpipe.Corpus) -> None:
    if corpus.feat_dim != cfg.feat_dim:
        raise ConfigError(f"data has feat_dim={corpus.feat_dim} but the "
                          f"model expects {cfg.feat_dim}")
    if corpus.n_classes > cfg.n_senones:
        raise ConfigError(f"data has {corpus.n_classes} classes but the "
                          f"model only emits {cfg.n_senones}")


def _check_resume_config(cfg: dict, ckpt) -> None:
    """A resume keeps every train and data value but the schedule's length."""
    path = os.path.join(os.path.dirname(ckpt), "effective_config.json")
    if not os.path.exists(path):
        raise ConfigError(f"no {path} to check the resume's run config")
    saved = load_run_config(path)
    differ = [f"{g}.{k}" for g in ("train", "data") for k in cfg[g]
              if cfg[g][k] != saved[g][k] and f"{g}.{k}" not in (
                  "train.steps", "train.finetune_steps", "train.ema_decay")]
    if differ:
        raise ConfigError(f"resume changes {', '.join(differ)} from {path}")


def _note_no_worker() -> None:
    """Say on stderr why a run on at least two CPUs gets no worker when
    the fork rule refuses it for the threads the process runs."""
    if (hasattr(os, "fork") and training._usable_cpus() >= 2
            and training._threads() > 1):
        print("note: ucam runs on one process: it runs other threads, "
              "BLAS's unless OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and "
              "MKL_NUM_THREADS are set to 1 before it starts",
              file=sys.stderr)


# ---------------------------------------------------------------------------
# subcommands


def cmd_synth(args) -> int:
    d = {key: default if getattr(args, key) is None else getattr(args, key)
         for key, default in DATA_DEFAULTS.items()}
    corpus = dpipe.synth_corpus(
        seed=d["seed"], n_speakers=d["speakers"], n_classes=d["classes"],
        n_utts=d["utts"], feat_dim=d["feat_dim"],
        t_range=(d["t_min"], d["t_max"]), warp_strength=d["warp_strength"],
        speaker_offset=d["speaker_offset"], utt_offset=d["utt_offset"])
    dpipe.write_features(args.out, corpus)
    print(f"wrote {len(corpus)} utterances ({d['speakers']} speakers, "
          f"{d['classes']} classes, F={d['feat_dim']}) to {args.out}")
    return EXIT_OK


def cmd_train(args) -> int:
    overrides = {dotted: getattr(args, dotted.split(".")[1])
                 for dotted in TRAIN_FLAGS}
    cfg = load_run_config(args.config, overrides)
    model_cfg = config_from_dict(cfg["model"])
    corpus = dpipe.read_features(args.data)
    _check_compat(model_cfg, corpus)
    train_utts, dev_utts = _split_dev(corpus, cfg["data"]["dev_every"])

    tcfg = TrainConfig(**cfg["train"])
    if args.resume is not None:  # check before effective_config.json
        ck = load_matching(args.resume, model_cfg, tcfg.steps)
        _check_resume_config(cfg, args.resume)
        resumed_log_bytes(os.path.join(args.out_dir, "train_log.csv"),
                          ck.step)
    os.makedirs(args.out_dir, exist_ok=True)
    with serial.atomic_write(
            os.path.join(args.out_dir, "effective_config.json")) as f:
        f.write(json.dumps(cfg, indent=2, sort_keys=True).encode() + b"\n")

    params = ModelParams.create(model_cfg, rng=keyed(tcfg.seed, "init"))
    _note_no_worker()
    report = fit(params, train_utts, dev_utts, tcfg, args.out_dir,
                 resume_from=args.resume)
    print(f"trained {report['steps']} steps; "
          f"best dev loss {report['best_dev']:.6f}; "
          f"artifacts in {args.out_dir}")
    return EXIT_OK


def _checkpoint_and_utts(args):
    """The --ckpt checkpoint and the --data utterances, of --speaker only
    when it is given, once the model and the data are checked compatible."""
    ck = load_checkpoint(args.ckpt)
    corpus = dpipe.read_features(args.data)
    _check_compat(ck.params.cfg, corpus)
    if args.speaker is not None:
        corpus = corpus.for_speaker(args.speaker)
        if not corpus.utts:
            raise DataError(f"no utterances for speaker '{args.speaker}'")
    return ck, corpus.utts


def cmd_eval(args) -> int:
    ck, utts = _checkpoint_and_utts(args)
    _note_no_worker()
    loss, acc = evaluate(ck.params, utts, batch_size=args.batch_size)
    print(f"checkpoint {args.ckpt} (step {ck.step}): "
          f"loss {loss:.6f}, frame_acc {acc:.4f}, "
          f"frame_err {1.0 - acc:.4f}")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    results = gc.run_gradcheck(seed=args.seed)
    worst = 0.0
    for name, err in results.items():
        status = "PASS" if err < gc.THRESHOLD else "FAIL"
        print(f"{status} {name:<16} max_rel_err {err:.3e}")
        worst = max(worst, err)
    if worst >= gc.THRESHOLD:
        print(f"gradcheck FAILED: worst {worst:.3e} >= {gc.THRESHOLD:g}")
        return EXIT_NUMERIC
    print(f"gradcheck passed: worst {worst:.3e} < {gc.THRESHOLD:g}")
    return EXIT_OK


def cmd_adapt(args) -> int:
    ck, utts = _checkpoint_and_utts(args)
    _note_no_worker()
    lin, report = adaptation.adapt_speaker(
        ck.params, utts, iterations=args.iterations, epochs=args.epochs,
        lr=args.lr, seed=args.seed)
    print(f"speaker {args.speaker}: unadapted frame_err "
          f"{report['initial_error']:.4f}")
    for entry in report["iterations"]:
        print(f"iteration {entry['iteration']}: frame_err "
              f"{entry['error']:.4f}")
    out = args.out or f"lin_{args.speaker}.ucam"
    adaptation.save_lin(lin, out)
    print(f"wrote LIN to {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument plumbing


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="ucam", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("synth", help="write a synthetic feature file")
    s.add_argument("--out", required=True)
    for key, default in DATA_DEFAULTS.items():
        s.add_argument("--" + key.replace("_", "-"), dest=key,
                       type=type(default), default=None)
    s.set_defaults(fn=cmd_synth)

    t = sub.add_parser("train", help="train a model on a feature file")
    t.add_argument("--config", default=None)
    t.add_argument("--data", required=True)
    t.add_argument("--out-dir", dest="out_dir", required=True)
    t.add_argument("--resume", default=None)
    for dotted in TRAIN_FLAGS:
        key = dotted.split(".")[1]
        t.add_argument("--" + key.replace("_", "-"), dest=key, type=int,
                       default=None)
    t.set_defaults(fn=cmd_train)

    e = sub.add_parser("eval", help="frame error of a checkpoint")
    e.add_argument("--ckpt", required=True)
    e.add_argument("--data", required=True)
    e.add_argument("--speaker", default=None)
    e.add_argument("--batch-size", dest="batch_size", type=int, default=4)
    e.set_defaults(fn=cmd_eval)

    g = sub.add_parser("gradcheck",
                       help="finite-difference audit of every module")
    g.add_argument("--seed", type=int, default=0)
    g.set_defaults(fn=cmd_gradcheck)

    a = sub.add_parser("adapt", help="LIN adaptation for one speaker")
    a.add_argument("--ckpt", required=True)
    a.add_argument("--data", required=True)
    a.add_argument("--speaker", required=True)
    a.add_argument("--iterations", type=int, default=3)
    a.add_argument("--epochs", type=int, default=10)
    a.add_argument("--lr", type=float, default=1e-4)
    a.add_argument("--seed", type=int, default=0)
    a.add_argument("--out", default=None)
    a.set_defaults(fn=cmd_adapt)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except SystemExit as e:
        return int(e.code or 0)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (FileFormatError, StructureError, DataError, OSError) as e:
        print(f"io error: {e}", file=sys.stderr)
        return EXIT_IO
    except (DivergenceError, NumericError) as e:
        print(f"numeric error: {e}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
