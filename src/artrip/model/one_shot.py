"""One-shot encoder: predicts all trip positions in a single pass.

The input sequence has one slot per trip position.  The first and last
slots carry the query's start and end POIs (plus their hour-of-day
embeddings); every interior slot carries a shared mask embedding.  A
pre-norm transformer encoder mixes the slots and a linear head maps
each slot to POI scores, so row i of the output scores position i+1 of
the trip, endpoints included.

Forward passes can record a cache that `backward` consumes to produce
exact analytic gradients for every block.
"""

from __future__ import annotations

import numpy as np

from artrip.data import Query, hour_bucket
from artrip.model.params import ModelParams

LN_EPS = 1e-5

# tanh-form gaussian error linear unit; smooth everywhere, which keeps
# finite-difference gradient checks clean.
_GELU_C = np.sqrt(2.0 / np.pi)
_GELU_A = 0.044715


def _gelu(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    t = np.tanh(_GELU_C * (u + _GELU_A * u**3))
    return 0.5 * u * (1.0 + t), t


def _gelu_backward(dy: np.ndarray, u: np.ndarray, t: np.ndarray) -> np.ndarray:
    inner = _GELU_C * (1.0 + 3.0 * _GELU_A * u**2)
    return dy * (0.5 * (1.0 + t) + 0.5 * u * (1.0 - t**2) * inner)


# Row means are sums over d: the same ufuncs as ndarray.mean/var, minus
# their Python-level wrappers, so the result is bit-identical.
def _layer_norm(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray):
    d = x.shape[-1]
    diff = x - x.sum(axis=-1, keepdims=True) / d
    var = np.square(diff).sum(axis=-1, keepdims=True) / d
    inv_std = 1.0 / np.sqrt(var + LN_EPS)
    xhat = diff * inv_std
    return gamma * xhat + beta, (xhat, inv_std, gamma)


def _layer_norm_backward(dy: np.ndarray, cache) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    xhat, inv_std, gamma = cache
    dgamma = (dy * xhat).sum(axis=0)
    dbeta = dy.sum(axis=0)
    dxhat = dy * gamma
    d = dxhat.shape[-1]
    dx = inv_std * (
        dxhat
        - dxhat.sum(axis=-1, keepdims=True) / d
        - xhat * ((dxhat * xhat).sum(axis=-1, keepdims=True) / d)
    )
    return dx, dgamma, dbeta


def _softmax_rows(x: np.ndarray) -> np.ndarray:
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def build_input(query: Query, params: ModelParams):
    """Embed a query into the (n, d) slot matrix.

    Returns the matrix plus the bookkeeping needed to scatter gradients
    back into the embedding tables: the position row of every slot, and
    the slots that carry an endpoint with their POI and hour rows.
    Positions past the trained horizon reuse the last position row.
    """
    blocks = params.blocks
    n = query.n
    d = params.config.embed_dim
    x = np.zeros((n, d), dtype=np.float64)
    pos_idx = np.minimum(np.arange(n), params.m_max - 1)
    x += blocks["position_embeddings"][pos_idx]
    slots = [0, n - 1][: min(n, 2)]
    pois = [query.p_s, query.p_e][: len(slots)]
    hours = [hour_bucket(query.t_s), hour_bucket(query.t_e)][: len(slots)]
    for slot, poi, hour in zip(slots, pois, hours):
        x[slot] += blocks["poi_embeddings"][poi]
        x[slot] += blocks["time_embeddings"][hour]
    x[1 : n - 1] += blocks["mask_embedding"]
    return x, pos_idx, (slots, pois, hours)


def _attention_forward(a: np.ndarray, blocks, prefix: str, num_heads: int):
    n, d = a.shape
    dh = d // num_heads
    q = a @ blocks[prefix + "attn_wq"]
    k = a @ blocks[prefix + "attn_wk"]
    v = a @ blocks[prefix + "attn_wv"]
    qh = q.reshape(n, num_heads, dh).transpose(1, 0, 2)
    kh = k.reshape(n, num_heads, dh).transpose(1, 0, 2)
    vh = v.reshape(n, num_heads, dh).transpose(1, 0, 2)
    scale = 1.0 / np.sqrt(dh)
    scores = (qh @ kh.transpose(0, 2, 1)) * scale
    attn = _softmax_rows(scores)
    ctx = (attn @ vh).transpose(1, 0, 2).reshape(n, d)
    out = ctx @ blocks[prefix + "attn_wo"]
    return out, (a, qh, kh, vh, attn, ctx, scale)


def _attention_backward(dout: np.ndarray, cache, blocks, prefix: str, grads):
    a, qh, kh, vh, attn, ctx, scale = cache
    n, d = a.shape
    num_heads = qh.shape[0]
    dh = d // num_heads
    grads[prefix + "attn_wo"] += ctx.T @ dout
    dctx = (dout @ blocks[prefix + "attn_wo"].T).reshape(n, num_heads, dh).transpose(1, 0, 2)
    dattn = dctx @ vh.transpose(0, 2, 1)
    dvh = attn.transpose(0, 2, 1) @ dctx
    dscores = attn * (dattn - (dattn * attn).sum(axis=-1, keepdims=True))
    dscores *= scale
    dqh = dscores @ kh
    dkh = dscores.transpose(0, 2, 1) @ qh
    dq = dqh.transpose(1, 0, 2).reshape(n, d)
    dk = dkh.transpose(1, 0, 2).reshape(n, d)
    dv = dvh.transpose(1, 0, 2).reshape(n, d)
    grads[prefix + "attn_wq"] += a.T @ dq
    grads[prefix + "attn_wk"] += a.T @ dk
    grads[prefix + "attn_wv"] += a.T @ dv
    da = (
        dq @ blocks[prefix + "attn_wq"].T
        + dk @ blocks[prefix + "attn_wk"].T
        + dv @ blocks[prefix + "attn_wv"].T
    )
    return da


def forward_with_cache(query: Query, params: ModelParams):
    """Run the encoder and keep every intermediate needed for backward."""
    blocks = params.blocks
    config = params.config
    x, pos_idx, ends = build_input(query, params)
    cache: dict = {"pos_idx": pos_idx, "ends": ends, "layers": []}
    for layer in range(config.num_layers):
        prefix = f"layer{layer}."
        a_in, ln1_cache = _layer_norm(x, blocks[prefix + "ln1_gamma"], blocks[prefix + "ln1_beta"])
        attn_out, attn_cache = _attention_forward(a_in, blocks, prefix, config.num_heads)
        x1 = x + attn_out
        f_in, ln2_cache = _layer_norm(x1, blocks[prefix + "ln2_gamma"], blocks[prefix + "ln2_beta"])
        u = f_in @ blocks[prefix + "ffn_w1"] + blocks[prefix + "ffn_b1"]
        r, gelu_t = _gelu(u)
        ffn_out = r @ blocks[prefix + "ffn_w2"] + blocks[prefix + "ffn_b2"]
        x2 = x1 + ffn_out
        cache["layers"].append(
            {
                "prefix": prefix,
                "ln1": ln1_cache,
                "attn": attn_cache,
                "ln2": ln2_cache,
                "f_in": f_in,
                "u": u,
                "r": r,
                "gelu_t": gelu_t,
            }
        )
        x = x2
    z, final_cache = _layer_norm(x, blocks["final_ln_gamma"], blocks["final_ln_beta"])
    cache["final_ln"] = final_cache
    cache["z"] = z
    logits = z @ blocks["head"]
    return logits, cache


def forward_one_shot(query: Query, params: ModelParams) -> np.ndarray:
    """Unguided score matrix for a query, one row per trip position."""
    logits, _ = forward_with_cache(query, params)
    return logits


def backward(params: ModelParams, cache: dict, dlogits: np.ndarray) -> np.ndarray:
    """Backpropagate a loss gradient on the logits into a gradient vector.

    The returned vector is laid out like `params.flat`.
    """
    blocks = params.blocks
    grad, grads = params.zero_grads()
    grads["head"] += cache["z"].T @ dlogits
    dz = dlogits @ blocks["head"].T
    dx, dgamma, dbeta = _layer_norm_backward(dz, cache["final_ln"])
    grads["final_ln_gamma"] += dgamma
    grads["final_ln_beta"] += dbeta
    for layer_cache in reversed(cache["layers"]):
        prefix = layer_cache["prefix"]
        # x2 = x1 + ffn(ln2(x1))
        dffn = dx
        grads[prefix + "ffn_w2"] += layer_cache["r"].T @ dffn
        grads[prefix + "ffn_b2"] += dffn.sum(axis=0)
        dr = dffn @ blocks[prefix + "ffn_w2"].T
        du = _gelu_backward(dr, layer_cache["u"], layer_cache["gelu_t"])
        grads[prefix + "ffn_w1"] += layer_cache["f_in"].T @ du
        grads[prefix + "ffn_b1"] += du.sum(axis=0)
        df_in = du @ blocks[prefix + "ffn_w1"].T
        dx1_from_ffn, dgamma, dbeta = _layer_norm_backward(df_in, layer_cache["ln2"])
        grads[prefix + "ln2_gamma"] += dgamma
        grads[prefix + "ln2_beta"] += dbeta
        dx1 = dx + dx1_from_ffn
        # x1 = x0 + attn(ln1(x0))
        da_in = _attention_backward(dx1, layer_cache["attn"], blocks, prefix, grads)
        dx0_from_attn, dgamma, dbeta = _layer_norm_backward(da_in, layer_cache["ln1"])
        grads[prefix + "ln1_gamma"] += dgamma
        grads[prefix + "ln1_beta"] += dbeta
        dx = dx1 + dx0_from_attn
    slots, pois, hours = cache["ends"]
    np.add.at(grads["position_embeddings"], cache["pos_idx"], dx)
    np.add.at(grads["poi_embeddings"], pois, dx[slots])
    np.add.at(grads["time_embeddings"], hours, dx[slots])
    grads["mask_embedding"] += dx[1:-1].sum(axis=0)
    return grad
