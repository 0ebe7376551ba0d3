"""Recurrent generator: an Elman-style net conditioned on the query.

The initial hidden state is a learned projection of the concatenated
start, end and trip-length embeddings.  Each step consumes the previous
POI embedding and scores the next position, so teacher-forced rows
cover positions 2..n of a trajectory (position 1 is the given start).
The initial state and first step depend only on the parameters and
`data.input_key(query)`, so `artrip.decoding` plans position 2's guided
row and the state after it once per frozen model, query and guidance
matrix, and steps on from there.
"""

from __future__ import annotations

import numpy as np

from artrip.data import Query, input_key
from artrip.guidance import check_horizon
from artrip.model.params import ModelParams


def _query_vector(query: Query, params: ModelParams):
    """Concatenated (3d,) conditioning vector and its embedding sources; n may not pass m_max."""
    n, p_s, p_e, start_t, end_t = input_key(query)
    check_horizon(n, params.m_max)
    blocks = params.blocks
    pos = n - 1
    start_vec = blocks["poi_embeddings"][p_s] + blocks["time_embeddings"][start_t]
    end_vec = blocks["poi_embeddings"][p_e] + blocks["time_embeddings"][end_t]
    qvec = np.concatenate([start_vec, end_vec, blocks["position_embeddings"][pos]])
    sources = (p_s, start_t, p_e, end_t, pos)
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
    matrix has one row per position 2..n.  Every input is known up front,
    so the input projection is one product over the trajectory and only
    the state recurrence steps.  Its rows match `forward_recurrent_step`'s
    to rounding, not bit for bit.  The cache feeds `backward`.
    """
    blocks = params.blocks
    qvec, sources = _query_vector(query, params)
    inputs = np.array(pois[:-1], dtype=np.intp)
    x = blocks["poi_embeddings"][inputs]
    xw = x @ blocks["input_w"]
    state_w, state_b = blocks["state_w"], blocks["state_b"]
    # row 0 is the query state, row t the state after consuming inputs[t - 1]
    states = np.empty((len(inputs) + 1, params.config.embed_dim))
    np.tanh(qvec @ blocks["query_w"] + blocks["query_b"], out=states[0])
    for t in range(len(inputs)):
        np.tanh(xw[t] + states[t] @ state_w + state_b, out=states[t + 1])
    rows = states[1:] @ blocks["head"]
    cache = {"qvec": qvec, "sources": sources, "states": states, "inputs": inputs, "x": x}
    return rows, cache


def backward(params: ModelParams, cache: dict, drows: np.ndarray, buffer: ModelParams) -> np.ndarray:
    """Backpropagate through time into `buffer`, a `params.zero_grads()` record.

    Every dense block of `buffer` is overwritten; the embedding tables are
    zeroed and then scattered into.  `buffer.flat` is returned.  Only the
    carry through `state_w` steps; every weight gradient is one product
    over the trajectory.
    """
    blocks = params.blocks
    grads = buffer.blocks
    buffer.zero_embeddings()
    states = cache["states"]
    inputs = cache["inputs"]
    # d(state t) from its own scores, and tanh's derivative at every state
    dstates = drows @ blocks["head"].T
    gate = 1.0 - states**2
    state_wt = blocks["state_w"].T
    dpre = np.empty_like(dstates)
    carry = np.zeros(states.shape[1])
    for t in range(len(inputs) - 1, -1, -1):
        np.multiply(dstates[t] + carry, gate[t + 1], out=dpre[t])
        carry = dpre[t] @ state_wt
    np.matmul(states[1:].T, drows, out=grads["head"])
    np.matmul(cache["x"].T, dpre, out=grads["input_w"])
    np.matmul(states[:-1].T, dpre, out=grads["state_w"])
    np.add.reduce(dpre, axis=0, out=grads["state_b"])
    # inputs can repeat a POI: np.add.at sums every row, fancy += would not
    np.add.at(grads["poi_embeddings"], inputs, dpre @ blocks["input_w"].T)
    # initial state came from the query projection
    dq_pre = np.multiply(carry, gate[0], out=grads["query_b"])
    np.multiply(cache["qvec"][:, None], dq_pre, out=grads["query_w"])
    dqvec = dq_pre @ blocks["query_w"].T
    d = params.config.embed_dim
    p_s, start_t, p_e, end_t, pos = cache["sources"]
    grads["poi_embeddings"][p_s] += dqvec[:d]
    grads["time_embeddings"][start_t] += dqvec[:d]
    grads["poi_embeddings"][p_e] += dqvec[d : 2 * d]
    grads["time_embeddings"][end_t] += dqvec[d : 2 * d]
    grads["position_embeddings"][pos] += dqvec[2 * d :]
    return buffer.flat
