"""Sequence models for itinerary prediction, with hand-written gradients.

Two toy-scale architectures share the embedding tables and output head:
a one-shot encoder that predicts every position in a single pass, and an
autoregressive recurrent net whose hidden state is seeded from the query.
All math is float64 numpy so training, gradient checks and serialized
bundles are bit-reproducible.  Every other name is imported from its
submodule; `artrip.model.train` is the training module.
"""

from artrip.config import ARCH_ONE_SHOT, ARCH_RECURRENT, ModelConfig  # noqa: F401 - perfbench imports these here
