"""Desk-scale Conformer acoustic modeling with utterance-wise normalization.

The package is organized bottom-up:

- ``errors``: the exception types, one per kind of failure
- ``rng``: random streams keyed by seed and purpose
- ``serial``: the one binary container format and atomic writes
- ``tensor``: minimal reverse-mode autodiff over numpy arrays
- ``masking``: sequence masks and padding-aware normalization
- ``conformer``: FFN / MHSA / convolution modules and the full block
- ``wrcnn``: wide residual convolutional frontend
- ``model``: configs, parameter containers, forward pass, checkpoints
- ``data``: synthetic corpora, delta features, batching, feature files
- ``training``: schedule, Adam, EMA, masked loss, the fit loop
- ``adaptation``: iterative LIN speaker adaptation
- ``gradcheck``: finite-difference audits of every backward pass
- ``cli``: the ``ucam`` command
"""

__version__ = "0.1.0"

from .errors import (ConfigError, DataError, DivergenceError,
                     FileFormatError, GraphError, NumericError, ShapeError,
                     StructureError, TruncatedFileError, UcamError)
from .masking import (SequenceMask, apply_mask, masked_softmax,
                      utterance_batchnorm, utterance_layernorm)
from .model import (AcousticModelConfig, ModelParams, count_params,
                    desk_config, load_checkpoint, micro_config,
                    model_forward, save_checkpoint)
from .data import (Corpus, UtteranceRecord, batch_pad, compute_deltas,
                   read_features, synth_corpus, write_features)
from .training import (AdamState, EMAState, TrainConfig, evaluate, fit,
                       masked_cross_entropy)
from .adaptation import LinTransform, adapt_speaker, load_lin, save_lin
from .gradcheck import run_gradcheck

__all__ = [
    "AcousticModelConfig", "AdamState", "ConfigError", "Corpus",
    "DataError", "DivergenceError", "EMAState", "FileFormatError",
    "GraphError", "LinTransform", "ModelParams", "NumericError",
    "SequenceMask", "ShapeError", "StructureError", "TrainConfig",
    "TruncatedFileError", "UcamError", "UtteranceRecord", "adapt_speaker",
    "apply_mask", "batch_pad", "compute_deltas", "count_params",
    "desk_config", "evaluate", "fit", "load_checkpoint", "load_lin",
    "masked_cross_entropy", "masked_softmax", "micro_config",
    "model_forward", "read_features", "run_gradcheck", "save_checkpoint",
    "save_lin", "synth_corpus", "utterance_batchnorm",
    "utterance_layernorm", "write_features",
]
