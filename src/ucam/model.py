"""Full acoustic model.

The pipeline per frame: convolutional frontend over the feature planes, a
linear projection into the encoder width, a stack of Conformer blocks, then
a two-layer classification head emitting per-frame log-posteriors over
senone classes. Checkpoints store the config and every tensor, named by
:func:`walk_parameters`, in a binary container and round-trip bit-exactly.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import serial
from . import tensor as tc
from .conformer import ConformerBlockParams, conformer_block_forward, glorot
from .errors import ConfigError, StructureError
from .masking import SequenceMask, apply_mask
from .rng import keyed
from .tensor import Tensor
from .wrcnn import WRCNNConfig, WRCNNParams, wrcnn_forward


@dataclass(frozen=True)
class AcousticModelConfig:
    feat_dim: int = 80
    d_attn: int = 256
    n_blocks: int = 2
    conv_kernel: int = 16
    heads: int = 4
    head_hidden: int = 1024
    n_senones: int = 2042
    dropout: float = 0.15
    wrcnn: WRCNNConfig = field(default_factory=WRCNNConfig)

    def __post_init__(self):
        positives = {"feat_dim": self.feat_dim, "d_attn": self.d_attn,
                     "conv_kernel": self.conv_kernel, "heads": self.heads,
                     "head_hidden": self.head_hidden,
                     "n_senones": self.n_senones}
        for name, v in positives.items():
            if v < 1:
                raise ConfigError(f"{name} must be positive, got {v}")
        if self.n_blocks < 0:
            raise ConfigError(f"n_blocks must be >= 0, got {self.n_blocks}")
        if self.d_attn % self.heads != 0:
            raise ConfigError(f"heads {self.heads} must divide d_attn "
                              f"{self.d_attn}")
        if self.d_attn % 2 != 0:
            raise ConfigError(f"d_attn must be even for the position table, "
                              f"got {self.d_attn}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")


def desk_config() -> AcousticModelConfig:
    """Small profile that trains in seconds on a CPU; other shapes are
    ``dataclasses.replace`` of it."""
    return AcousticModelConfig(feat_dim=16, d_attn=64, heads=2,
                               head_hidden=128, n_senones=10)


def micro_config() -> AcousticModelConfig:
    """Smallest config that still exercises every module; gradient checks."""
    return AcousticModelConfig(
        feat_dim=8, d_attn=8, heads=2, n_blocks=1, conv_kernel=3,
        head_hidden=8, n_senones=5, dropout=0.15,
        wrcnn=WRCNNConfig(base_channels=2))


def config_to_dict(cfg: AcousticModelConfig) -> dict:
    d = dataclasses.asdict(cfg)
    d["wrcnn"]["multipliers"] = list(cfg.wrcnn.multipliers)
    d["wrcnn"]["strides"] = list(cfg.wrcnn.strides)
    return d


def typed(value, default, key: str):
    """``value``, checked against the JSON type of ``default``: an int
    passes for a float and becomes one; a bool or float is no int."""
    if isinstance(default, float) and type(value) is int:
        return float(value)
    if type(value) is not type(default):
        raise ConfigError(f"{key} must be of type {type(default).__name__}, "
                          f"got {json.dumps(value)}")
    if isinstance(default, list):
        return [typed(v, default[0], f"{key}[{i}]")
                for i, v in enumerate(value)]
    return value


def overlay(base: dict, user, prefix: str = "") -> dict:
    """``base`` overlaid with ``user``, each value checked by :func:`typed`
    and named ``prefix`` + its dotted path; all unknown keys in one error."""
    unknown = []

    def merge(base, user, prefix):
        if not isinstance(user, dict):
            raise ConfigError(f"{prefix.rstrip('.') or 'run config'} must "
                              f"be a JSON object")
        out = dict(base)
        for k, v in user.items():
            if k not in base:
                unknown.append(prefix + k)
            elif isinstance(base[k], dict):
                out[k] = merge(base[k], v, f"{prefix}{k}.")
            else:
                out[k] = typed(v, base[k], prefix + k)
        return out

    out = merge(base, user, prefix)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
    return out


def config_from_dict(d: dict) -> AcousticModelConfig:
    """The defaults overlaid with ``d``, a run config's "model" group or a
    checkpoint header's "config", under :func:`overlay`'s type rules."""
    d = overlay(config_to_dict(AcousticModelConfig()), d)
    w = d.pop("wrcnn")
    w["multipliers"] = tuple(w["multipliers"])
    w["strides"] = tuple(w["strides"])
    return AcousticModelConfig(**d, wrcnn=WRCNNConfig(**w))


@dataclass
class ModelParams:
    cfg: AcousticModelConfig
    wrcnn: WRCNNParams
    w_proj: Tensor  # [d_attn, d_attn]
    b_proj: Tensor
    blocks: list
    w_h1: Tensor    # [head_hidden, d_attn]
    b_h1: Tensor
    w_h2: Tensor    # [n_senones, head_hidden]
    b_h2: Tensor

    @classmethod
    def create(cls, cfg: AcousticModelConfig,
               rng: np.random.Generator | None = None,
               dtype=np.float32) -> "ModelParams":
        rng = rng if rng is not None else keyed(0, "init")
        return cls(
            cfg=cfg,
            wrcnn=WRCNNParams.create(cfg.wrcnn, cfg.feat_dim, cfg.d_attn,
                                     rng, dtype),
            w_proj=glorot(rng, cfg.d_attn, cfg.d_attn, dtype),
            b_proj=tc.parameter(np.zeros(cfg.d_attn), dtype=dtype),
            blocks=[ConformerBlockParams.create(
                cfg.d_attn, rng, heads=cfg.heads, kernel=cfg.conv_kernel,
                dtype=dtype) for _ in range(cfg.n_blocks)],
            w_h1=glorot(rng, cfg.head_hidden, cfg.d_attn, dtype),
            b_h1=tc.parameter(np.zeros(cfg.head_hidden), dtype=dtype),
            w_h2=glorot(rng, cfg.n_senones, cfg.head_hidden, dtype),
            b_h2=tc.parameter(np.zeros(cfg.n_senones), dtype=dtype))

    def named_parameters(self) -> list:
        return walk_parameters(self)

    def set_requires_grad(self, flag: bool) -> None:
        for _, t in self.named_parameters():
            t.requires_grad = flag


# Record names that are not the field name, by (container, field); a
# list's items append their index to it.
RECORD_NAMES = {
    (WRCNNParams, "blocks"): "block", (ModelParams, "blocks"): "enc",
    (ModelParams, "w_proj"): "proj.w", (ModelParams, "b_proj"): "proj.b",
    (ModelParams, "w_h1"): "head.w1", (ModelParams, "b_h1"): "head.b1",
    (ModelParams, "w_h2"): "head.w2", (ModelParams, "b_h2"): "head.b2"}


def walk_parameters(p, prefix: str = "") -> list:
    """``(record name, tensor)`` for every tensor in the container ``p``,
    in field order: the dotted field path below ``prefix``, renamed by
    RECORD_NAMES. None and other non-tensor fields (heads) add none."""
    named = []
    for f in dataclasses.fields(p):
        value = getattr(p, f.name)
        name = RECORD_NAMES.get((type(p), f.name), f.name)
        name = f"{prefix}.{name}" if prefix else name
        if isinstance(value, Tensor):
            named.append((name, value))
        elif isinstance(value, list):
            for i, item in enumerate(value):
                named += walk_parameters(item, f"{name}{i}")
        elif dataclasses.is_dataclass(value):
            named += walk_parameters(value, name)
    return named


def count_params(params: ModelParams) -> int:
    """Exact learnable scalar count (4 bytes each in 32-bit storage)."""
    return int(sum(t.size for _, t in params.named_parameters()))


def model_forward(x: Tensor, mask: SequenceMask, p: ModelParams,
                  train: bool = False,
                  rng: np.random.Generator | None = None) -> Tensor:
    """[B, 3, F, T] feature planes to [B, T, n_senones] log-posteriors.

    ``train`` toggles dropout only; there are no running statistics anywhere,
    so evaluation is just the deterministic dropout-free forward.
    """
    dp = p.cfg.dropout if train else 0.0
    h = wrcnn_forward(x, p.wrcnn, mask)
    # no mask: the blocks' norms and add_position, or the head's mask when
    # there are no blocks, zero the padding before anything reads across time
    h = tc.linear(h, p.w_proj, p.b_proj)
    for blk in p.blocks:
        h = conformer_block_forward(h, blk, mask, dp, rng)
    h = apply_mask(tc.linear(h, p.w_h1, p.b_h1), mask)
    h = tc.dropout(tc.relu(h), dp, rng)
    h = tc.linear(h, p.w_h2, p.b_h2)
    return tc.log_softmax(h)


# ---------------------------------------------------------------------------
# persistence


@dataclass
class Checkpoint:
    params: ModelParams
    step: int
    extra: dict      # non-model tensors (optimizer moments, shadows)
    header: dict


def save_checkpoint(params: ModelParams, path, step: int = 0,
                    extra: dict | None = None,
                    meta: dict | None = None) -> None:
    """Write config, step, model tensors, and any extra named arrays."""
    header = {"kind": "model", "config": config_to_dict(params.cfg),
              "step": int(step)}
    if meta:
        header.update(meta)
    records = [(name, t.data) for name, t in params.named_parameters()]
    if extra:
        records += sorted(extra.items())
    serial.write_container(path, header, records)


def load_checkpoint(path) -> Checkpoint:
    header, tensors = serial.read_container(path, "model")
    if "config" not in header:
        raise StructureError("model checkpoint header has no 'config'")
    if not isinstance(header["config"], dict):
        raise ConfigError(f"checkpoint config must be a JSON object, got "
                          f"{json.dumps(header['config'])[:80]}")
    step = header.get("step", 0)
    if type(step) is not int or step < 0:
        raise StructureError(f"checkpoint header 'step' must be a "
                             f"non-negative integer, got {json.dumps(step)}")
    best_dev = header.get("best_dev", 0.0)
    if type(best_dev) not in (int, float) or not math.isfinite(best_dev):
        raise StructureError(f"checkpoint header 'best_dev' must be a finite "
                             f"number, got {json.dumps(best_dev)[:80]}")
    cfg = config_from_dict(header["config"])
    params = ModelParams.create(cfg)
    seen = set()
    for name, t in params.named_parameters():
        if name not in tensors:
            raise StructureError(f"checkpoint is missing tensor '{name}'")
        arr = tensors[name]
        if arr.shape != t.shape:
            raise StructureError(
                f"tensor '{name}' has shape {arr.shape} but the stored "
                f"config implies {t.shape}")
        t.data = arr
        seen.add(name)
    extra = {k: v for k, v in tensors.items() if k not in seen}
    return Checkpoint(params=params, step=step, extra=extra, header=header)
