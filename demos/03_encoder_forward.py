"""Forward pass through the full acoustic model.

Takes synthetic utterances through the real input path (mean norm,
delta planes, zero-padded batching), then through the convolutional
frontend, the conformer stack, and the senone head. Checks the two
properties the architecture promises: every valid frame carries a
proper log-probability distribution, and padding length has no effect
on the frames that matter.
"""

import dataclasses

import numpy as np

from ucam import data as dp
from ucam import tensor as tc
from ucam.masking import SequenceMask
from ucam.model import (ModelParams, count_params, desk_config,
                        micro_config, model_forward)
from ucam.rng import keyed

cfg = dataclasses.replace(desk_config(), d_attn=32, conv_kernel=8,
                          head_hidden=64)
params = ModelParams.create(cfg, rng=keyed(0, "demo-encoder"))
print(f"model: d_attn={cfg.d_attn}, {cfg.n_blocks} blocks, "
      f"{cfg.heads} heads, kernel {cfg.conv_kernel}")
print(f"parameters: {count_params(params):,}")

corpus = dp.synth_corpus(seed=3, n_speakers=2, n_classes=10, n_utts=3,
                         feat_dim=16, t_range=(6, 14))
batch = next(dp.batch_pad(corpus.utts, batch_size=3))
mask = batch.mask
print(f"utterance lengths {mask.lengths.tolist()}, "
      f"feature planes {batch.feats.shape}")

out = model_forward(tc.tensor(batch.feats), mask, params)
print(f"log-probs {out.data.shape}")

# each valid frame carries a proper distribution over senones
probs = np.exp(out.data)
sums = probs[mask.indicator(bool)].sum(axis=-1)
print(f"prob mass per valid frame: min {sums.min():.6f}, "
      f"max {sums.max():.6f}")

# run the shortest utterance on its own, with no padding at all
b = int(np.argmin(mask.lengths))
n = int(mask.lengths[b])
alone_batch = next(dp.batch_pad([corpus.utts[b]], batch_size=1))
alone = model_forward(tc.tensor(alone_batch.feats), alone_batch.mask, params)
drift = np.abs(alone.data[0] - out.data[b, :n]).max()
print(f"utterance alone vs padded in a batch: max drift {drift:.2e}")

# stretching the padding further changes nothing either
t_max = batch.feats.shape[-1]
wide = np.zeros(batch.feats.shape[:-1] + (t_max + 16,), np.float32)
wide[..., :t_max] = batch.feats
wide_mask = SequenceMask(mask.lengths, t_max + 16)
wider = model_forward(tc.tensor(wide), wide_mask, params)
drift = max(np.abs(wider.data[i, :k] - out.data[i, :k]).max()
            for i, k in enumerate(mask.lengths))
print(f"padding stretched by 16 frames: max drift {drift:.2e}")

# dropout only fires in train mode, and only with an rng in hand
train_out = model_forward(tc.tensor(batch.feats), mask, params, train=True,
                          rng=keyed(0, "demo-dropout"))
print(f"train-mode forward differs from eval: "
      f"{not np.allclose(train_out.data, out.data)}")

tiny = micro_config()
print(f"micro config for quick experiments: "
      f"{count_params(ModelParams.create(tiny)):,} parameters")
