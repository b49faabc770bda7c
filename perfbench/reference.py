"""A fixed numpy kernel that measures how fast the machine runs right now.

On a shared machine the speed of a core drifts by more than ten percent
over minutes, slower than a run lasts, so no statistic over one run's
operations removes it. The benchmark therefore runs this kernel between
operations, and ``scale`` turns a run's wall times into times at reference
speed: as they would read on a machine where the kernel's median is
``nominal_ms``. The kernel uses numpy only, never ucam, so no change to the
library can move it. Its mix resembles the model's: a matmul, elementwise
maps, reductions over time, a row softmax, an im2col gather and many small
calls.

The workloads' times move less than the kernel's: over nine 30 s runs of
``train_desk``, frames per second rose 33% while the kernel's median fell
from 9.6 to 6.0 ms. Times are therefore scaled by the kernel's ratio to the
power ``ELASTICITY``. Measured spreads (quartile distance over median)
between runs, raw and scaled: ``train_desk`` frames per second 20% and 5%
over those nine runs, one repeated eval batch 21% and 4% over six runs.
"""

from __future__ import annotations

import statistics
import time

import numpy as np


ELASTICITY = 0.75


class ReferenceKernel:
    # The kernel's median between operations on the shared 2-core x86-64
    # machine the benchmark was defined on, so reported times stay near wall
    # times there.
    nominal_ms = 8.0

    def __init__(self):
        t = self.t = 300
        g = np.random.default_rng(0)
        self.x = g.standard_normal((4, t, 64)).astype(np.float32)
        self.w = (g.standard_normal((64, 256)) / 8).astype(np.float32)
        self.s = g.standard_normal((4, 2, t, t)).astype(np.float32)
        self.c = g.standard_normal((4, 16, 10, t + 2)).astype(np.float32)
        # Every result goes to a buffer allocated here: fresh large arrays
        # would make the kernel time page faults, which depend on the heap's
        # state and not on the machine's speed.
        self.h = np.empty((4, t, 256), np.float32)
        self.tmp = np.empty_like(self.h)
        self.r = np.empty((4, 1, 256), np.float32)
        self.a = np.empty_like(self.s)
        self.m = np.empty((4, 2, t, 1), np.float32)
        self.col = np.empty((4, 16, 9, 8, t), np.float32)
        self.v = np.empty(16, np.float32)

    def _run(self) -> None:
        h, tmp, r = self.h, self.tmp, self.r
        np.matmul(self.x, self.w, out=h)
        np.negative(h, out=tmp)
        np.exp(tmp, out=tmp)
        tmp += 1.0
        h /= tmp
        np.mean(h, axis=1, keepdims=True, out=r)
        h -= r
        np.multiply(h, h, out=tmp)
        np.mean(tmp, axis=1, keepdims=True, out=r)
        r += 1e-5
        np.sqrt(r, out=r)
        h /= r
        np.max(self.s, axis=-1, keepdims=True, out=self.m)
        np.subtract(self.s, self.m, out=self.a)
        np.exp(self.a, out=self.a)
        np.sum(self.a, axis=-1, keepdims=True, out=self.m)
        self.a /= self.m
        for k in range(9):
            i, j = divmod(k, 3)
            self.col[:, :, k] = self.c[:, :, i:i + 8, j:j + self.t]
        self.v[:] = 0.0
        for _ in range(300):
            self.v *= 0.5
            self.v += 1.0

    def scale(self, samples_ms) -> float:
        """Factor from wall time to reference speed, given kernel times."""
        return (self.nominal_ms / statistics.median(samples_ms)) ** ELASTICITY

    def time_ms(self) -> float:
        t0 = time.perf_counter()
        self._run()
        return (time.perf_counter() - t0) * 1e3
