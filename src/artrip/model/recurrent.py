"""Recurrent generator: an Elman-style net conditioned on the query.

The initial hidden state is a learned projection of the concatenated
start, end and trip-length embeddings.  Each step consumes the previous
POI embedding and scores the next position, so teacher-forced rows
cover positions 2..n of a trajectory (position 1 is the given start).
"""

from __future__ import annotations

import numpy as np

from artrip.data import Query, hour_bucket
from artrip.model.params import GradBuffer, ModelParams


def _query_vector(query: Query, params: ModelParams):
    """Concatenated (3d,) conditioning vector and its embedding sources."""
    blocks = params.blocks
    start_t = hour_bucket(query.t_s)
    end_t = hour_bucket(query.t_e)
    pos = min(query.n, params.m_max) - 1
    start_vec = blocks["poi_embeddings"][query.p_s] + blocks["time_embeddings"][start_t]
    end_vec = blocks["poi_embeddings"][query.p_e] + blocks["time_embeddings"][end_t]
    qvec = np.concatenate([start_vec, end_vec, blocks["position_embeddings"][pos]])
    sources = (query.p_s, start_t, query.p_e, end_t, pos)
    return qvec, sources


def init_recurrent_state(query: Query, params: ModelParams) -> np.ndarray:
    """Hidden state before the first generation step."""
    qvec, _ = _query_vector(query, params)
    return np.tanh(qvec @ params.blocks["query_w"] + params.blocks["query_b"])


def forward_recurrent_step(
    state: np.ndarray, prev_poi: int, params: ModelParams
) -> tuple[np.ndarray, np.ndarray]:
    """Advance one step; returns scores for the next position and the new state."""
    blocks = params.blocks
    x = blocks["poi_embeddings"][prev_poi]
    new_state = np.tanh(x @ blocks["input_w"] + state @ blocks["state_w"] + blocks["state_b"])
    return new_state @ blocks["head"], new_state


def forward_teacher(query: Query, pois, params: ModelParams):
    """Teacher-forced pass over a full trajectory.

    `pois` is the length-n index sequence; the returned (n-1, k) score
    matrix has one row per position 2..n.  The cache feeds `backward`.
    """
    blocks = params.blocks
    qvec, sources = _query_vector(query, params)
    s0 = np.tanh(qvec @ blocks["query_w"] + blocks["query_b"])
    states = [s0]
    inputs = list(pois[:-1])
    for poi in inputs:
        x = blocks["poi_embeddings"][poi]
        s = np.tanh(x @ blocks["input_w"] + states[-1] @ blocks["state_w"] + blocks["state_b"])
        states.append(s)
    rows = np.stack(states[1:]) @ blocks["head"]
    cache = {"qvec": qvec, "sources": sources, "states": states, "inputs": inputs}
    return rows, cache


def backward(
    params: ModelParams, cache: dict, drows: np.ndarray, buffer: GradBuffer | None = None
) -> np.ndarray:
    """Backpropagate through time into a vector laid out like `params.flat`.

    That vector is `buffer.flat`, overwritten, when a buffer from
    `params.zero_grads()` is given, and a new one otherwise.
    """
    blocks = params.blocks
    grad, grads, _ = params.zero_grads() if buffer is None else buffer.zeroed()
    states = cache["states"]
    inputs = cache["inputs"]
    steps = len(inputs)
    ds_carry = np.zeros_like(states[0])
    for t in range(steps, 0, -1):
        s = states[t]
        ds = drows[t - 1] @ blocks["head"].T + ds_carry
        grads["head"] += s[:, None] * drows[t - 1]
        dpre = ds * (1.0 - s**2)
        grads["input_w"] += blocks["poi_embeddings"][inputs[t - 1]][:, None] * dpre
        grads["state_w"] += states[t - 1][:, None] * dpre
        grads["state_b"] += dpre
        grads["poi_embeddings"][inputs[t - 1]] += dpre @ blocks["input_w"].T
        ds_carry = dpre @ blocks["state_w"].T
    # initial state came from the query projection
    s0 = states[0]
    dq_pre = ds_carry * (1.0 - s0**2)
    grads["query_w"] += cache["qvec"][:, None] * dq_pre
    grads["query_b"] += dq_pre
    dqvec = dq_pre @ blocks["query_w"].T
    d = params.config.embed_dim
    p_s, start_t, p_e, end_t, pos = cache["sources"]
    grads["poi_embeddings"][p_s] += dqvec[:d]
    grads["time_embeddings"][start_t] += dqvec[:d]
    grads["poi_embeddings"][p_e] += dqvec[d : 2 * d]
    grads["time_embeddings"][end_t] += dqvec[d : 2 * d]
    grads["position_embeddings"][pos] += dqvec[2 * d :]
    return grad
