"""Span tracer for the traced benchmark run.

The tracer times ucam from the outside: it rebinds public module
attributes that the program looks up at call time, and puts every binding
back on ``uninstall``. No file of the library changes.

A span records its name, start, end, parent span and request id (the
training step, the adaptation session or the eval call). Spans stay in
memory until ``write_spans``. A span's self time is its duration minus the
time its child spans cover.

Ops are not spans. Every differentiable op of ``tensor``, ``masking``,
``conformer`` and ``wrcnn`` ends in a call to ``ucam.tensor.from_op``, after
its forward arrays are computed, so the rebound ``from_op`` charges an op
the time since the previous tracer event (op, span start or span end) as its
forward time. It also wraps the op's backward closure, which times the
closure and counts the gradient arrays it returns. Both are tagged with the
op name and the span that was open at forward time.
"""

from __future__ import annotations

import functools
import json
import os
import time

import numpy as np

_END = object()


class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "request")

    def __init__(self, sid, name, start, parent, request):
        self.sid = sid
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.request = request


class Tracer:
    """Collects spans and op timings while ``active``; else passes through."""

    def __init__(self):
        self.active = False
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.mark = time.perf_counter()
        # (span at forward time, op) -> [fwd calls, fwd s, bwd calls, bwd s]
        self.ops: dict[tuple[str, str], list] = {}
        self.grads_computed = 0
        self.grads_useful = 0
        self.bytes_written = 0
        self._steps = 0
        self._saved: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def open(self, name: str, request=None) -> Span:
        """Open a span; without ``request`` it inherits its parent's."""
        now = time.perf_counter()
        parent = self.stack[-1] if self.stack else None
        if request is None and parent is not None:
            request = parent.request
        span = Span(len(self.spans), name, now,
                    parent.sid if parent is not None else None, request)
        self.spans.append(span)
        self.stack.append(span)
        self.mark = now
        return span

    def close(self, span: Span) -> None:
        """End ``span`` and any span still open inside it (an open step)."""
        now = time.perf_counter()
        while self.stack:
            top = self.stack.pop()
            top.end = now
            if top is span:
                break
        self.mark = now

    def _end_open(self, name: str) -> None:
        if self.stack and self.stack[-1].name == name:
            self.close(self.stack[-1])

    def _begin_step(self, name: str) -> None:
        """Close the open step of this kind, if any, and open the next one.

        A step has no single function in the library, so it runs from one
        batch fetch to the next, or until its enclosing call returns.
        """
        self._end_open(name)
        if name == "training.step":
            self._steps += 1
            self.open(name, request=self._steps)
        else:
            self.open(name)

    # -- wrappers ------------------------------------------------------------

    def _call(self, name, fn, before=None, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if before is not None:
                before()
            span = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(span)
            if after is not None:
                after(args, kwargs)
            return out
        return wrapper

    def _batches(self, fn, opens_step=False):
        """Time each batch a ``batch_pad`` generator yields as a span.

        With ``opens_step``, a call made by ``fit`` itself, not by its dev
        evaluation, fetches a training batch and so begins a step.
        """
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            if not self.active:
                return gen
            if opens_step and self.stack and self.stack[-1].name in (
                    "training.fit", "training.step"):
                self._begin_step("training.step")
            return self._timed(gen)
        return wrapper

    def _timed(self, gen):
        while True:
            span = self.open("data.batch_pad")
            try:
                item = next(gen, _END)
            finally:
                self.close(span)
            if item is _END:
                return
            yield item

    def _from_op(self, fn):
        @functools.wraps(fn)
        def from_op(data, parents, backward, op):
            if not self.active:
                return fn(data, parents, backward, op)
            now = time.perf_counter()
            layer = self.stack[-1].name if self.stack else "-"
            rec = self.ops.get((layer, op))
            if rec is None:
                rec = self.ops[(layer, op)] = [0, 0.0, 0, 0.0]
            rec[0] += 1
            rec[1] += now - self.mark
            out = fn(data, parents, backward, op)
            if out._backward_fn is not None:
                out._backward_fn = self._backward(out._backward_fn,
                                                  tuple(parents), rec)
            self.mark = time.perf_counter()
            return out
        return from_op

    def _backward(self, fn, parents, rec):
        def backward(g):
            t = time.perf_counter()
            grads = tuple(fn(g))
            rec[2] += 1
            rec[3] += time.perf_counter() - t
            for p, pg in zip(parents, grads):
                if pg is not None:
                    self.grads_computed += 1
                    # the same test tensor.backward applies before keeping it
                    if p.requires_grad or p._parents is not None:
                        self.grads_useful += 1
            return grads
        return backward

    def _count_bytes(self, args, kwargs):
        self.bytes_written += os.path.getsize(args[0])

    # -- installation --------------------------------------------------------

    def _rebind(self, obj, attr, wrapped):
        self._saved.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, wrapped)

    def install(self) -> None:
        """Rebind the library's public attributes to their timed versions."""
        from ucam import (adaptation, conformer, data, model, serial, tensor,
                          training)
        end_adapt_step = functools.partial(self._end_open, "adaptation.step")
        rebinds = [
            (tensor, "from_op", self._from_op(tensor.from_op)),
            (tensor, "backward",
             self._call("tensor.backward", tensor.backward)),
            (tensor, "zero_grad",
             self._call("tensor.zero_grad", tensor.zero_grad)),
            (serial, "write_container",
             self._call("serial.write", serial.write_container,
                        after=self._count_bytes)),
            (serial, "read_container",
             self._call("serial.read", serial.read_container)),
            (data, "read_features",
             self._call("data.read_features", data.read_features)),
            (model, "wrcnn_forward",
             self._call("wrcnn.forward", model.wrcnn_forward)),
            (model, "conformer_block_forward",
             self._call("conformer.block", model.conformer_block_forward)),
            (conformer, "ffn_forward",
             self._call("conformer.ffn", conformer.ffn_forward)),
            (conformer, "mhsa_forward",
             self._call("conformer.mhsa", conformer.mhsa_forward)),
            (conformer, "conv_module_forward",
             self._call("conformer.conv_module",
                        conformer.conv_module_forward)),
            (training, "model_forward",
             self._call("model.forward", training.model_forward)),
            (adaptation, "model_forward",
             self._call("model.forward", adaptation.model_forward)),
            (training, "masked_cross_entropy",
             self._call("training.loss", training.masked_cross_entropy)),
            (adaptation, "masked_cross_entropy",
             self._call("training.loss", adaptation.masked_cross_entropy)),
            (training.AdamState, "apply",
             self._call("training.adam", training.AdamState.apply)),
            (training, "evaluate",
             self._call("training.evaluate", training.evaluate)),
            (training, "fit", self._call("training.fit", training.fit)),
            (training, "batch_pad",
             self._batches(training.batch_pad, opens_step=True)),
            (adaptation, "batch_pad", self._batches(adaptation.batch_pad)),
            (adaptation, "adapt_speaker",
             self._call("adaptation.adapt_speaker",
                        adaptation.adapt_speaker)),
            (adaptation, "pseudo_label",
             self._call("adaptation.pseudo_label", adaptation.pseudo_label,
                        before=end_adapt_step)),
            (adaptation, "frame_error",
             self._call("adaptation.frame_error", adaptation.frame_error,
                        before=end_adapt_step)),
            (adaptation, "lin_batch",
             self._call("adaptation.lin_batch", adaptation.lin_batch,
                        before=functools.partial(self._begin_step,
                                                 "adaptation.step"))),
            (adaptation, "save_lin",
             self._call("adaptation.save_lin", adaptation.save_lin)),
            (model, "load_checkpoint",
             self._call("model.load_checkpoint", model.load_checkpoint)),
        ]
        for obj, attr, wrapped in rebinds:
            self._rebind(obj, attr, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            obj, attr, original = self._saved.pop()
            setattr(obj, attr, original)

    # -- results -------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Self time of every closed span, indexed like ``spans``."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None and s.end is not None:
                child[s.parent] += s.end - s.start
        return [(s.end - s.start) - child[s.sid] if s.end is not None
                else 0.0 for s in self.spans]

    def write_spans(self, path) -> None:
        """One JSON object per span, times in µs from the first span."""
        t0 = self.spans[0].start if self.spans else 0.0
        selfs = self.self_times()
        with open(path, "w") as f:
            for s, st in zip(self.spans, selfs):
                f.write(json.dumps({
                    "id": s.sid, "name": s.name, "parent": s.parent,
                    "request": s.request,
                    "start_us": round((s.start - t0) * 1e6, 1),
                    "end_us": (round((s.end - t0) * 1e6, 1)
                               if s.end is not None else None),
                    "self_us": round(st * 1e6, 1)}) + "\n")


# Op names as ``from_op`` receives them, keyed by the metric prefix.
OPS = {"wrcnn.conv2d": "conv2d",
       "conformer.depthwise_conv1d": "depthwise_conv1d",
       "masking.softmax": "masked_softmax",
       "masking.layernorm": "utterance_layernorm",
       "masking.batchnorm": "utterance_batchnorm",
       "tensor.matmul": "matmul"}

# Spans whose duration per request is reported as ``<name>.ms``.
TIMED_SPANS = ("data.batch_pad", "data.read_features", "serial.write",
               "serial.read", "wrcnn.forward", "conformer.ffn",
               "conformer.conv_module", "conformer.mhsa", "model.forward",
               "tensor.backward", "training.adam", "training.loss",
               "training.evaluate", "adaptation.pseudo_label",
               "adaptation.frame_error", "adaptation.lin_batch")


def _pct(xs, q) -> float:
    return float(np.percentile(xs, q)) if xs else 0.0


def layer_metrics(tr: Tracer, request: str) -> dict[str, float]:
    """Per-layer numbers of one traced phase.

    Times and counts are per request: per ``request`` span, which is the
    training step, the adaptation session or the eval call. Percentiles
    are over single spans.
    """
    selfs = tr.self_times()
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    durs: dict[str, list] = {}
    for s, st in zip(tr.spans, selfs):
        if s.end is None:
            continue
        d = s.end - s.start
        total[s.name] = total.get(s.name, 0.0) + d
        own[s.name] = own.get(s.name, 0.0) + st
        durs.setdefault(s.name, []).append(d)
    n = max(len(durs.get(request, ())), 1)
    m = {f"{name}.ms": total.get(name, 0.0) * 1e3 / n
         for name in TIMED_SPANS}
    by_op: dict[str, list] = {}
    for (_, op), rec in tr.ops.items():
        acc = by_op.setdefault(op, [0, 0.0, 0, 0.0])
        for k in range(4):
            acc[k] += rec[k]
    for prefix, op in OPS.items():
        calls, fwd, _, bwd = by_op.get(op, (0, 0.0, 0, 0.0))
        m[f"{prefix}.fwd_ms"] = fwd * 1e3 / n
        m[f"{prefix}.bwd_ms"] = bwd * 1e3 / n
        if prefix == "wrcnn.conv2d":
            m[f"{prefix}.calls"] = calls / n
    m["serial.write.bytes"] = tr.bytes_written / n
    m["model.head.self_ms"] = own.get("model.forward", 0.0) * 1e3 / n
    closures = sum(rec[2] for rec in tr.ops.values())
    m["tensor.backward.nodes"] = closures / max(
        len(durs.get("tensor.backward", ())), 1)
    m["tensor.backward.useful_grad_ratio"] = (
        tr.grads_useful / tr.grads_computed if tr.grads_computed else 1.0)
    steps = [d * 1e3 for d in durs.get("training.step", ())]
    m["training.step.ms_p50"] = _pct(steps, 50)
    m["training.step.ms_p90"] = _pct(steps, 90)
    m["adaptation.step.ms_p50"] = _pct(
        [d * 1e3 for d in durs.get("adaptation.step", ())], 50)
    req_total = total.get(request, 0.0)
    m["trace.request_coverage"] = (
        1.0 - own.get(request, 0.0) / req_total if req_total else 0.0)
    return m


def check_self_times(tr: Tracer) -> list[str]:
    """Every span closed, with self time within [0, duration]."""
    bad = []
    for s, st in zip(tr.spans, tr.self_times()):
        if s.end is None:
            bad.append(f"span {s.sid} {s.name} never closed")
        elif not -1e-9 <= st <= (s.end - s.start) + 1e-9:
            bad.append(f"span {s.sid} {s.name}: self {st:.6f} s outside "
                       f"[0, {s.end - s.start:.6f}] s")
    return bad
