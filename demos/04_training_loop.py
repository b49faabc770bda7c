"""Training on a synthetic frame-labelled corpus.

Generates a small corpus, fits a compact model with the warmup schedule,
then demonstrates the two guarantees the loop makes: bit-identical reruns
from the same seed, and checkpoint resume that lands on the exact same
parameters as an uninterrupted run.
"""

import dataclasses
import tempfile
from pathlib import Path

from ucam import data as dp
from ucam import training as tr
from ucam.model import ModelParams, desk_config
from ucam.rng import keyed

corpus = dp.synth_corpus(seed=11, n_speakers=4, n_classes=8, n_utts=48,
                         feat_dim=8, t_range=(12, 20), separation=5.0)
train, dev = corpus.utts[:40], corpus.utts[40:]
print(f"corpus: {len(train)} train / {len(dev)} dev utterances, "
      f"{corpus.feat_dim} mel bins, {corpus.n_classes} senones")

cfg = dataclasses.replace(desk_config(), feat_dim=8, n_senones=8, d_attn=16,
                          n_blocks=1, conv_kernel=4, head_hidden=32,
                          dropout=0.1)


def fresh():
    return ModelParams.create(cfg, rng=keyed(42, "demo-train"))


tcfg = tr.TrainConfig(steps=60, batch_size=4, warmup=30, lr_factor=0.5,
                      eval_every=20, seed=42)

with tempfile.TemporaryDirectory() as tmp:
    out = Path(tmp) / "run"
    params = fresh()
    result = tr.fit(params, train, dev, tcfg, out)
    print(f"trained {tcfg.steps} steps, best dev loss {result['best_dev']:.4f}")
    loss, acc = tr.evaluate(params, dev)
    print(f"dev: loss {loss:.4f}, frame accuracy {acc:.3f}")

    # the run directory holds checkpoints plus a plain-text log
    for name in sorted(p.name for p in out.iterdir()):
        print(f"  {name}")

    # rerunning from the same seed reproduces every parameter bit
    again = fresh()
    tr.fit(again, train, dev, tcfg, Path(tmp) / "again")
    same = all(a.data.tobytes() == b.data.tobytes()
               for (_, a), (_, b) in zip(params.named_parameters(),
                                         again.named_parameters()))
    print(f"rerun bit-identical: {same}")

    # interrupt at step 30, then resume to 60: same destination
    half_cfg = tr.TrainConfig(steps=30, batch_size=4, warmup=30,
                              lr_factor=0.5, eval_every=20, seed=42)
    halted = fresh()
    tr.fit(halted, train, dev, half_cfg, Path(tmp) / "half")
    resumed = tr.fit(halted, train, dev, tcfg, Path(tmp) / "resumed",
                     resume_from=Path(tmp) / "half" / "last.ckpt")
    same = all(a.data.tobytes() == b.data.tobytes()
               for (_, a), (_, b) in zip(params.named_parameters(),
                                         halted.named_parameters()))
    print(f"resumed run matches uninterrupted: {same} "
          f"(best dev {resumed['best_dev']:.4f})")
