"""Non-neural reference generators.

Both walk the shared decode loop.  Popularity walks the global visit
counts greedily under the no-repeat mask, so its trips are duplicate-free.
The position-indexed Markov baseline walks a (horizon, k, k) array of
transition matrices and is allowed to loop, which makes it a useful
repetition yardstick.
"""

from __future__ import annotations

import warnings
from dataclasses import replace

import numpy as np

from artrip import decoding
from artrip.data import Query, Trajectory
from artrip.decoding import DecodeConfig, Trip
from artrip.guidance import check_horizon, count_visits


def build_popularity(train: list[Trajectory], k: int) -> np.ndarray:
    """Visit counts per POI over the whole training corpus, endpoints included."""
    if not train:
        raise ValueError("empty training corpus")
    return count_visits(train, k, k, lambda pois, positions: pois, np.int64)


def popularity_decode(query: Query, counts: np.ndarray) -> Trip:
    """Most-visited POIs in rank order, ties toward the lower index.

    A greedy walk under the no-repeat mask over the counts as float64,
    exact up to 2**53.  A query with more interior stops than POIs besides
    its endpoints raises ValueError before any step, so the mask never
    empties a row.
    """
    decoding._check_query(query, len(counts))
    if len(counts) - len({query.p_s, query.p_e}) < query.n - 2:
        raise ValueError(f"vocabulary too small for a {query.n}-stop trip")
    scores = np.asarray(counts, dtype=np.float64)
    cfg = DecodeConfig(strategy="greedy", no_repeat_mask=True)
    return decoding._walk(query, lambda position, prev: scores, None, cfg, None)


def markov_decode(query: Query, matrices: np.ndarray, cfg: DecodeConfig) -> Trip:
    """Walk position-indexed transitions from the start POI.

    Matrix i of the (horizon, k, k) chain steps from position i + 1, so
    `len(matrices) + 1` is the horizon: a longer query, or one with an
    endpoint outside the matrices' vocabulary, raises ValueError before
    any step.  Zero transition probability becomes a -inf score so the
    selection strategies apply unchanged; the adaptive strategy degrades
    to plain nucleus sampling here, with a RuntimeWarning, because the
    baseline has no confidence model.
    """
    if len(matrices) == 0:
        raise ValueError("need at least one transition matrix")
    decoding._check_query(query, len(matrices[0]))
    check_horizon(query.n, len(matrices) + 1)
    if cfg.strategy == "adaptive":
        warnings.warn(
            "the Markov baseline has no confidence model; adaptive decoding runs as top_p",
            RuntimeWarning,
            stacklevel=2,
        )
        cfg = replace(cfg, strategy="top_p")

    def next_row(position: int, prev: int) -> np.ndarray:
        probs = matrices[position - 2][prev]
        # zero probability scores -inf; `where` skips log(0) and its warning
        return np.log(probs, out=np.full(probs.shape[0], -np.inf), where=probs > 0)

    return decoding._walk(query, next_row, None, cfg, None)
