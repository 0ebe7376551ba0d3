"""One-shot encoder: predicts all trip positions in a single pass.

The input sequence has one slot per trip position.  The first and last
slots carry the query's start and end POIs (plus their hour-of-day
embeddings); every interior slot carries a shared mask embedding.  A
pre-norm transformer encoder mixes the slots and a linear head maps
each slot to POI scores, so row i of the output scores position i+1 of
the trip, endpoints included.

Forward passes can record a cache that `backward` consumes to produce
exact analytic gradients for every block.  `forward_one_shot`, the
decode-time forward, memoizes its score rows on a frozen model through
`ModelParams.memo`, as recurrent decoding memoizes its first step.
"""

from __future__ import annotations

import numpy as np

from artrip.data import Query, input_key
from artrip.guidance import check_horizon
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
# their Python-level wrappers (np.add.reduce is what ndarray.sum calls),
# so the result is bit-identical.
_sum = np.add.reduce


def _layer_norm(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray):
    d = x.shape[-1]
    diff = x - _sum(x, axis=-1, keepdims=True) / d
    var = _sum(np.square(diff), axis=-1, keepdims=True) / d
    inv_std = 1.0 / np.sqrt(var + LN_EPS)
    xhat = diff * inv_std
    return gamma * xhat + beta, (xhat, inv_std, gamma)


def _layer_norm_backward(dy: np.ndarray, cache) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    xhat, inv_std, gamma = cache
    dgamma = _sum(dy * xhat, axis=0)
    dbeta = _sum(dy, axis=0)
    dxhat = dy * gamma
    d = dxhat.shape[-1]
    dx = inv_std * (
        dxhat
        - _sum(dxhat, axis=-1, keepdims=True) / d
        - xhat * (_sum(dxhat * xhat, axis=-1, keepdims=True) / d)
    )
    return dx, dgamma, dbeta


def _softmax_rows(x: np.ndarray) -> np.ndarray:
    shifted = x - np.maximum.reduce(x, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / _sum(e, axis=-1, keepdims=True)


def build_input(query: Query, params: ModelParams):
    """Embed a query into the (n, d) slot matrix.

    Slot i takes position row i, so n must lie in 1..m_max.  Also returns
    what backward scatters into the embedding tables: the endpoint slots
    with their POI and hour rows.
    """
    blocks = params.blocks
    n, p_s, p_e, h_s, h_e = input_key(query)
    if n < 1:
        raise ValueError(f"query length n must be at least 1, got {n}")
    check_horizon(n, params.m_max)
    d = params.config.embed_dim
    x = np.zeros((n, d), dtype=np.float64)
    x += blocks["position_embeddings"][:n]
    slots = [0, n - 1][: min(n, 2)]
    pois = [p_s, p_e][: len(slots)]
    hours = [h_s, h_e][: len(slots)]
    for slot, poi, hour in zip(slots, pois, hours):
        x[slot] += blocks["poi_embeddings"][poi]
        x[slot] += blocks["time_embeddings"][hour]
    x[1 : n - 1] += blocks["mask_embedding"]
    return x, (slots, pois, hours)


def _attention_forward(a: np.ndarray, wqkv: np.ndarray, wo: np.ndarray, num_heads: int):
    """Multi-head self-attention; `wqkv` stacks the Q, K and V weights, (3, d, d)."""
    n, d = a.shape
    dh = d // num_heads
    # one batched matmul gives the bits of three separate a @ w products
    qh, kh, vh = (a @ wqkv).reshape(3, n, num_heads, dh).transpose(0, 2, 1, 3)
    scale = 1.0 / np.sqrt(dh)
    scores = (qh @ kh.transpose(0, 2, 1)) * scale
    attn = _softmax_rows(scores)
    ctx = (attn @ vh).transpose(1, 0, 2).reshape(n, d)
    out = ctx @ wo
    return out, (a, qh, kh, vh, attn, ctx, scale)


def _attention_backward(dout: np.ndarray, cache, wqkv, wo, dwqkv, dwo):
    """Write the weight gradients into `dwqkv` and `dwo`, overwriting them; returns d(input)."""
    a, qh, kh, vh, attn, ctx, scale = cache
    n, d = a.shape
    num_heads, _, dh = qh.shape
    np.matmul(ctx.T, dout, out=dwo)
    dctx = (dout @ wo.T).reshape(n, num_heads, dh).transpose(1, 0, 2)
    dattn = dctx @ vh.transpose(0, 2, 1)
    dheads = np.empty((3, num_heads, n, dh))
    np.matmul(attn.transpose(0, 2, 1), dctx, out=dheads[2])
    dscores = attn * (dattn - _sum(dattn * attn, axis=-1, keepdims=True))
    dscores *= scale
    np.matmul(dscores, kh, out=dheads[0])
    np.matmul(dscores.transpose(0, 2, 1), qh, out=dheads[1])
    dqkv = dheads.transpose(0, 2, 1, 3).reshape(3, n, d)
    np.matmul(a.T, dqkv, out=dwqkv)
    # summed in the order dq, dk, dv
    da = dqkv @ wqkv.transpose(0, 2, 1)
    return da[0] + da[1] + da[2]


def forward_with_cache(query: Query, params: ModelParams):
    """Run the encoder and keep every intermediate needed for backward."""
    blocks = params.blocks
    config = params.config
    x, ends = build_input(query, params)
    cache: dict = {"ends": ends, "layers": []}
    for layer in range(config.num_layers):
        prefix = f"layer{layer}."
        a_in, ln1_cache = _layer_norm(x, blocks[prefix + "ln1_gamma"], blocks[prefix + "ln1_beta"])
        attn_out, attn_cache = _attention_forward(
            a_in, params.qkv[layer], blocks[prefix + "attn_wo"], config.num_heads
        )
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
    """Unguided score matrix for a query, one row per trip position.

    The rows depend only on the parameters and on `input_key(query)`, so
    they are memoized through `ModelParams.memo`, which freezes `params`
    first: a model that has served a decode can no longer change, and a
    training step or an edited block raises instead of leaving a stale
    row.  The rows are returned read-only.
    """
    return params.memo(input_key(query), lambda: forward_with_cache(query, params)[:1])[0]


def backward(params: ModelParams, cache: dict, dlogits: np.ndarray, buffer: ModelParams) -> np.ndarray:
    """Backpropagate a loss gradient on the logits into `buffer`, a `params.zero_grads()` record.

    Every dense block of `buffer` is overwritten; the embedding tables are
    zeroed and then scattered into.  `buffer.flat` is returned.
    """
    blocks = params.blocks
    grads, grads_qkv = buffer.blocks, buffer.qkv
    buffer.zero_embeddings()
    np.matmul(cache["z"].T, dlogits, out=grads["head"])
    dz = dlogits @ blocks["head"].T
    dx, dgamma, dbeta = _layer_norm_backward(dz, cache["final_ln"])
    grads["final_ln_gamma"][...] = dgamma
    grads["final_ln_beta"][...] = dbeta
    for layer in reversed(range(len(cache["layers"]))):
        layer_cache = cache["layers"][layer]
        prefix = layer_cache["prefix"]
        # x2 = x1 + ffn(ln2(x1))
        dffn = dx
        np.matmul(layer_cache["r"].T, dffn, out=grads[prefix + "ffn_w2"])
        _sum(dffn, axis=0, out=grads[prefix + "ffn_b2"])
        dr = dffn @ blocks[prefix + "ffn_w2"].T
        du = _gelu_backward(dr, layer_cache["u"], layer_cache["gelu_t"])
        np.matmul(layer_cache["f_in"].T, du, out=grads[prefix + "ffn_w1"])
        _sum(du, axis=0, out=grads[prefix + "ffn_b1"])
        df_in = du @ blocks[prefix + "ffn_w1"].T
        dx1_from_ffn, dgamma, dbeta = _layer_norm_backward(df_in, layer_cache["ln2"])
        grads[prefix + "ln2_gamma"][...] = dgamma
        grads[prefix + "ln2_beta"][...] = dbeta
        dx1 = dx + dx1_from_ffn
        # x1 = x0 + attn(ln1(x0))
        da_in = _attention_backward(
            dx1,
            layer_cache["attn"],
            params.qkv[layer],
            blocks[prefix + "attn_wo"],
            grads_qkv[layer],
            grads[prefix + "attn_wo"],
        )
        dx0_from_attn, dgamma, dbeta = _layer_norm_backward(da_in, layer_cache["ln1"])
        grads[prefix + "ln1_gamma"][...] = dgamma
        grads[prefix + "ln1_beta"][...] = dbeta
        dx = dx1 + dx0_from_attn
    slots, pois, hours = cache["ends"]
    # slot i took position row i: distinct rows, the same sums as np.add.at
    grads["position_embeddings"][: dx.shape[0]] += dx
    # endpoint rows in slot order, the order np.add.at sums a shared row in
    for slot, poi, hour in zip(slots, pois, hours):
        grads["poi_embeddings"][poi] += dx[slot]
        grads["time_embeddings"][hour] += dx[slot]
    _sum(dx[1:-1], axis=0, out=grads["mask_embedding"])
    return buffer.flat
