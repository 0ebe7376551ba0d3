"""Model hyperparameters and the flat parameter store.

Parameters live in one float64 vector whose named blocks are views laid
out in the declaration order defined here.  That order is a contract:
initialization, gradients and serialization all follow it, so two
models built from the same config and seed are bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

ARCH_ONE_SHOT = "one_shot"
ARCH_RECURRENT = "recurrent"

# Visit hours are bucketed into 24 one-hour slots, see data.hour_bucket.
NUM_TIME_BUCKETS = 24


@dataclass
class ModelConfig:
    """Architecture and optimizer settings.

    Defaults match the reference experimental setup: 32-dim embeddings,
    two encoder layers with two heads, Adam at 1e-3 for 50 epochs and a
    repetition penalty weight of 1.0.
    """

    arch: str = ARCH_ONE_SHOT
    embed_dim: int = 32
    num_layers: int = 2
    num_heads: int = 2
    hidden_dim: int = 64
    alpha: float = 1.0
    learning_rate: float = 1e-3
    epochs: int = 50
    seed: int = 0

    def __post_init__(self):
        if self.arch not in (ARCH_ONE_SHOT, ARCH_RECURRENT):
            raise ValueError(f"unknown arch {self.arch!r}")
        if self.embed_dim <= 0:
            raise ValueError("embed_dim must be positive")
        if self.num_heads < 1:
            raise ValueError(f"num_heads must be at least 1, got {self.num_heads}")
        if self.arch == ARCH_ONE_SHOT and self.embed_dim % self.num_heads != 0:
            raise ValueError(
                f"embed_dim {self.embed_dim} not divisible by num_heads {self.num_heads}"
            )
        if self.num_layers < 0:
            raise ValueError(f"num_layers must be non-negative, got {self.num_layers}")
        if self.hidden_dim < 1:
            raise ValueError(f"hidden_dim must be at least 1, got {self.hidden_dim}")
        if not 0.0 <= self.alpha < math.inf:
            raise ValueError(f"alpha must be finite and non-negative, got {self.alpha}")
        if not 0.0 < self.learning_rate < math.inf:
            raise ValueError(f"learning_rate must be finite and positive, got {self.learning_rate}")
        if self.epochs < 0:
            raise ValueError("epochs must be non-negative")


def block_shapes(config: ModelConfig, k: int, m_max: int) -> dict[str, tuple[int, ...]]:
    """Declaration-ordered mapping of block name to shape for one arch."""
    d = config.embed_dim
    shapes: dict[str, tuple[int, ...]] = {
        "poi_embeddings": (k, d),
        "time_embeddings": (NUM_TIME_BUCKETS, d),
        "position_embeddings": (m_max, d),
    }
    if config.arch == ARCH_ONE_SHOT:
        shapes["mask_embedding"] = (d,)
        for layer in range(config.num_layers):
            prefix = f"layer{layer}."
            shapes[prefix + "ln1_gamma"] = (d,)
            shapes[prefix + "ln1_beta"] = (d,)
            shapes[prefix + "attn_wq"] = (d, d)
            shapes[prefix + "attn_wk"] = (d, d)
            shapes[prefix + "attn_wv"] = (d, d)
            shapes[prefix + "attn_wo"] = (d, d)
            shapes[prefix + "ln2_gamma"] = (d,)
            shapes[prefix + "ln2_beta"] = (d,)
            shapes[prefix + "ffn_w1"] = (d, config.hidden_dim)
            shapes[prefix + "ffn_b1"] = (config.hidden_dim,)
            shapes[prefix + "ffn_w2"] = (config.hidden_dim, d)
            shapes[prefix + "ffn_b2"] = (d,)
        shapes["final_ln_gamma"] = (d,)
        shapes["final_ln_beta"] = (d,)
    else:
        # The query vector concatenates start, end and length-position
        # embeddings, hence the 3d input to the state projection.
        shapes["query_w"] = (3 * d, d)
        shapes["query_b"] = (d,)
        shapes["input_w"] = (d, d)
        shapes["state_w"] = (d, d)
        shapes["state_b"] = (d,)
    shapes["head"] = (d, k)
    return shapes


@dataclass
class ModelParams:
    """All trainable parameters of one model instance, initially zero.

    `blocks` maps each name to a view of the contiguous vector `flat`, at
    the (name, offset, size, shape) entry of `layout`, computed once here.
    `k` is the POI vocabulary size and `m_max` the longest trip length
    the position table covers.
    """

    config: ModelConfig
    k: int
    m_max: int

    def __post_init__(self):
        layout, offset = [], 0
        for name, shape in block_shapes(self.config, self.k, self.m_max).items():
            layout.append((name, offset, math.prod(shape), shape))
            offset += layout[-1][2]
        self.layout = tuple(layout)
        self.flat = np.zeros(offset, dtype=np.float64)
        self.blocks = self.views(self.flat)
        # one_shot.forward_one_shot's score rows by query key, valid while
        # `config` and `flat` equal the (config, flat) copies in the snapshot
        self.row_memo: dict = {}
        self.row_memo_snapshot: tuple | None = None

    def views(self, vec: np.ndarray) -> dict[str, np.ndarray]:
        """Named block views into any vector laid out like `flat`."""
        return {name: vec[at : at + size].reshape(shape) for name, at, size, shape in self.layout}

    def zero_grads(self) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        """A zeroed gradient vector and its named block views."""
        grad = np.zeros_like(self.flat)
        return grad, self.views(grad)


def init_params(config: ModelConfig, k: int, m_max: int) -> ModelParams:
    """Seeded initialization, deterministic for a fixed config.

    Weight matrices and embeddings draw from N(0, 1/embed_dim); biases
    start at zero and layer-norm scales at one.  Blocks are drawn in
    declaration order so the stream of random numbers is reproducible.
    """
    if k <= 0:
        raise ValueError("vocabulary size k must be positive")
    if m_max <= 0:
        raise ValueError("m_max must be positive")
    params = ModelParams(config=config, k=k, m_max=m_max)
    rng = np.random.default_rng(config.seed)
    scale = 1.0 / np.sqrt(config.embed_dim)
    for name, block in params.blocks.items():
        base = name.split(".")[-1]
        if base.endswith("_gamma"):
            block[...] = 1.0
        elif not (base.endswith("_beta") or base.endswith("_b") or base.startswith("ffn_b")):
            block[...] = rng.standard_normal(block.shape) * scale
    return params
