"""Linear input network adaptation to an unseen speaker.

Trains a small base model on a handful of speakers, then meets a new
speaker whose features arrive through an unknown per-channel warp. The
model itself stays frozen; a single trainable input matrix, estimated
from the model's own pseudo-labels over a few iterations, absorbs most
of the mismatch.
"""

import dataclasses
import tempfile
from pathlib import Path

import numpy as np

from ucam import adaptation as ad
from ucam import data as dp
from ucam import training as tr
from ucam.model import ModelParams, desk_config
from ucam.rng import keyed

base = dp.synth_corpus(seed=5, n_speakers=6, n_classes=10, n_utts=144,
                       feat_dim=12, t_range=(20, 35), separation=5.0,
                       warp_strength=0.02, self_loop=0.7)
cfg = dataclasses.replace(desk_config(), feat_dim=12, d_attn=24, n_blocks=1,
                          conv_kernel=6, head_hidden=48, dropout=0.1)
params = ModelParams.create(cfg, rng=keyed(5, "demo-adapt"))

with tempfile.TemporaryDirectory() as tmp:
    tcfg = tr.TrainConfig(steps=900, batch_size=4, warmup=200,
                          lr_factor=2.0, eval_every=300, seed=5)
    tr.fit(params, base.utts[:128], base.utts[128:], tcfg, Path(tmp))
loss, acc = tr.evaluate(params, base.utts[128:])
print(f"base model: dev frame accuracy {acc:.3f} on seen speakers")

# a new speaker: same senone geometry, but every mel channel is scaled
# by an unknown factor the model never saw in training
fresh = dp.synth_corpus(seed=5, n_speakers=1, n_classes=10, n_utts=80,
                        feat_dim=12, t_range=(20, 35), separation=5.0,
                        warp_strength=0.0, self_loop=0.7,
                        speaker_offset=50, utt_offset=9000)
g = keyed(5, "warp").standard_normal(12)
d = (1.0 + 0.5 * g).astype(np.float32)
speaker = [dp.UtteranceRecord(u.utt_id, u.speaker, d[:, None] * u.feats,
                              u.labels) for u in fresh.utts]

heldout = speaker[3::4]
err0 = ad.frame_error(params, heldout, ad.LinTransform(12))
print(f"new speaker through unseen warp: frame error {err0:.3f}")

# each iteration relabels the speaker's data with the current transform,
# resets W to identity, and re-estimates it from scratch on the sharper
# labels; only the labels carry progress between iterations
lin, report = ad.adapt_speaker(params, speaker, iterations=3, epochs=8,
                               lr=2e-3, batch_size=2, seed=5)
for it in report["iterations"]:
    print(f"  iteration {it['iteration']}: heldout frame error "
          f"{it['error']:.3f}")
print(f"adapted error {report['iterations'][-1]['error']:.3f} "
      f"(started at {report['initial_error']:.3f}); "
      f"model weights untouched")

# the saved transform reloads bit-identical: scoring the heldout set
# through it gives the report's final error
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "spk50.lin"
    ad.save_lin(lin, path)
    again = ad.load_lin(path)
    err = ad.frame_error(params, heldout, again, batch_size=2)
    print(f"reloaded transform, heldout frame error {err:.3f}")
