"""Sequence models for itinerary prediction, with hand-written gradients.

Two toy-scale architectures share the embedding tables and output head:
a one-shot encoder that predicts every position in a single pass, and an
autoregressive recurrent net whose hidden state is seeded from the query.
All math is float64 numpy so training, gradient checks and serialized
bundles are bit-reproducible.
"""

from artrip.model.params import ARCH_ONE_SHOT, ARCH_RECURRENT, ModelConfig, ModelParams, init_params
from artrip.model.one_shot import forward_one_shot
from artrip.model.recurrent import forward_recurrent_step, init_recurrent_state
from artrip.model.train import TrainResult, train
from artrip.model.gradcheck import GradCheckReport, grad_check
from artrip.model.bundle import Bundle, load_bundle, save_bundle

__all__ = [
    "ARCH_ONE_SHOT",
    "ARCH_RECURRENT",
    "Bundle",
    "GradCheckReport",
    "ModelConfig",
    "ModelParams",
    "TrainResult",
    "forward_one_shot",
    "forward_recurrent_step",
    "grad_check",
    "init_params",
    "init_recurrent_state",
    "load_bundle",
    "save_bundle",
    "train",
]
