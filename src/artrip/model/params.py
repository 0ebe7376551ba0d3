"""The flat parameter store.

Parameters live in one float64 vector whose named blocks are views laid
out in the declaration order defined here.  That order is a contract:
initialization, gradients and serialization all follow it, so two
models built from the same config and seed are bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from artrip import streams
from artrip.config import ARCH_ONE_SHOT, ModelConfig
from artrip.data import NUM_TIME_BUCKETS


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


@dataclass(frozen=True, eq=False)
class ModelParams:
    """All trainable parameters of one model instance, or a gradient laid out like them; initially zero.

    `blocks` maps each name to a view of the contiguous vector `flat`, at
    the (name, offset, size, shape) entry of `layout`, computed once here.
    `qkv` holds one (3, d, d) view per encoder layer over its adjacent
    attn_wq, attn_wk and attn_wv blocks.  `k` is the POI vocabulary size
    and `m_max` the longest trip length the position table covers.
    No attribute can be rebound; the arrays stay writable until `freeze`.
    Equality and hashing are identity: two models of one config may
    hold different weights.
    """

    config: ModelConfig
    k: int
    m_max: int

    def __post_init__(self):
        layout, offset = [], 0
        for name, shape in block_shapes(self.config, self.k, self.m_max).items():
            layout.append((name, offset, math.prod(shape), shape))
            offset += layout[-1][2]
        # frozen, so the derived fields are set once, here; the views read `layout` and `_qkv_spans`
        vars(self).update(
            layout=tuple(layout),
            # block_shapes declares attn_wq, attn_wk and attn_wv back to back
            _qkv_spans=tuple((at, at + 3 * size) for name, at, size, _ in layout if name.endswith(".attn_wq")),
            flat=np.zeros(offset, dtype=np.float64),
        )
        # `plans`: the decode store of this model (plans and nuclei), which `artrip.decoding` alone builds and reads
        vars(self).update(blocks=self.views(self.flat), qkv=self.qkv_views(self.flat), plans={})

    def freeze(self) -> None:
        """Make `flat` and its block and Q/K/V views read-only; O(1) once frozen."""
        if self.flat.flags.writeable:
            # a view made before its base was frozen would still write through
            for array in (self.flat, *self.blocks.values(), *self.qkv):
                array.flags.writeable = False

    def views(self, vec: np.ndarray) -> dict[str, np.ndarray]:
        """Named block views into any vector laid out like `flat`."""
        return {name: vec[at : at + size].reshape(shape) for name, at, size, shape in self.layout}

    def qkv_views(self, vec: np.ndarray) -> tuple[np.ndarray, ...]:
        """Per encoder layer, its Q, K and V blocks of `vec` as one (3, d, d) view."""
        d = self.config.embed_dim
        return tuple(vec[start:stop].reshape(3, d, d) for start, stop in self._qkv_spans)

    def zero_embeddings(self) -> None:
        """Zero the POI, time and position tables, which `block_shapes` declares first, with one fill."""
        _, at, size, _ = self.layout[2]
        self.flat[: at + size].fill(0.0)

    def zero_grads(self) -> ModelParams:
        """A new zeroed record laid out like this one, for a gradient; never frozen by this model's decodes."""
        return ModelParams(self.config, self.k, self.m_max)


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
    rng = streams.rng("init", config.seed)
    scale = 1.0 / np.sqrt(config.embed_dim)
    for name, block in params.blocks.items():
        base = name.split(".")[-1]
        if base.endswith("_gamma"):
            block[...] = 1.0
        elif not (base.endswith("_beta") or base.endswith("_b") or base.startswith("ffn_b")):
            block[...] = rng.standard_normal(block.shape) * scale
    return params
