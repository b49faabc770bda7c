"""Utterance-wise normalization on padded batches.

Short utterances are zero-padded so a batch forms a rectangle. The whole
point of the masked layers is that this padding never leaks into anything:
not the statistics, not the outputs, not the gradients. To prove it, we
fill the padding with garbage and show nothing changes.
"""

import numpy as np

from ucam import tensor as tc
from ucam.masking import (NormParams, SequenceMask, apply_mask,
                          masked_softmax, utterance_batchnorm,
                          utterance_layernorm)

rng = np.random.default_rng(7)

lengths = [11, 7, 4]
t_max = max(lengths)
d = 6
mask = SequenceMask(lengths, t_max)
print(f"batch of {len(lengths)} utterances, lengths {lengths}, "
      f"padded to {t_max}")

x = rng.standard_normal((3, t_max, d)).astype(np.float32)
ind = mask.indicator()
for b, n in enumerate(lengths):
    x[b, n:] = 0.0

params = NormParams.create(d)
clean = utterance_layernorm(tc.tensor(x), mask, params)

# now poison the padded region with large junk and normalize again
dirty = x.copy()
for b, n in enumerate(lengths):
    dirty[b, n:] = 1e3 * rng.standard_normal((t_max - n, d))
dirty_out = utterance_layernorm(tc.tensor(dirty), mask, params)

diff = np.abs(clean.data[ind] - dirty_out.data[ind]).max()
print(f"layernorm valid-frame drift with garbage padding: {diff:.2e}")
print(f"layernorm output at padded frames is exactly zero: "
      f"{bool((dirty_out.data[~ind] == 0).all())}")

# a plain (unmasked) mean over the time axis would be contaminated:
naive_mean = dirty.mean(axis=1)
true_mean = np.stack([dirty[b, :n].mean(axis=0)
                      for b, n in enumerate(lengths)])
print(f"naive vs per-utterance mean differ by up to "
      f"{np.abs(naive_mean - true_mean).max():.1f} (that is the bug "
      f"masking prevents)")

# batchnorm pools statistics per utterance and per channel, valid frames only
xc = rng.standard_normal((3, d, t_max)).astype(np.float32)
xc = apply_mask(tc.tensor(xc), mask, time_axis=-1)
bn = utterance_batchnorm(xc, mask, NormParams.create(d))
seg = bn.data[0, :, :lengths[0]]
print(f"batchnorm per-channel mean over valid frames: "
      f"{np.abs(seg.mean(axis=-1)).max():.2e} (should be ~0)")

# attention scores at padded keys get zero probability
scores = rng.standard_normal((3, 2, t_max, t_max)).astype(np.float32)
probs = masked_softmax(tc.tensor(scores), mask)
p = probs.data[1, 0, 2]  # utterance 1 has 7 valid frames
print(f"softmax row sums to {p.sum():.6f}; "
      f"mass on padded keys {p[7:].sum():.1e}")
