"""Non-neural reference generators.

Popularity fills the interior with the globally most visited POIs, so
its trips are duplicate-free by construction.  The position-indexed
Markov baseline walks the empirical transition matrices and is allowed
to loop, which makes it a useful repetition yardstick.
"""

from __future__ import annotations

import warnings
from dataclasses import replace

import numpy as np

from artrip import decoding
from artrip.analysis import TransitionMatrix
from artrip.data import Query, Trajectory
from artrip.decoding import DecodeConfig, Trip, mask_repeats


def build_popularity(train: list[Trajectory], k: int) -> np.ndarray:
    """Visit counts per POI over the whole training corpus, endpoints included."""
    if not train:
        raise ValueError("empty training corpus")
    counts = np.zeros(k, dtype=np.int64)
    for t in train:
        for poi in t.pois:
            counts[poi] += 1
    return counts


def popularity_decode(query: Query, counts: np.ndarray) -> Trip:
    """Most-visited POIs in rank order, ties toward the lower index.

    Endpoints come from the query and are excluded from the ranking, so
    the result never contains a duplicate.
    """
    ranked = np.argsort(-counts, kind="stable")
    interior = [int(p) for p in ranked if p != query.p_s and p != query.p_e]
    need = query.n - 2
    if len(interior) < need:
        raise ValueError(f"vocabulary too small for a {query.n}-stop trip")
    return Trip(pois=(query.p_s, *interior[:need], query.p_e))


def markov_decode(query: Query, matrices: list[TransitionMatrix], cfg: DecodeConfig) -> Trip:
    """Walk position-indexed transitions from the start POI.

    Positions past the estimated horizon reuse the last matrix.  Zero
    transition probability becomes a -inf score so the selection
    strategies apply unchanged; the adaptive strategy degrades to plain
    nucleus sampling here, with a RuntimeWarning, because the baseline
    has no confidence model.
    """
    if not matrices:
        raise ValueError("need at least one transition matrix")
    if cfg.strategy == "adaptive":
        warnings.warn(
            "the Markov baseline has no confidence model; adaptive decoding runs as top_p",
            RuntimeWarning,
            stacklevel=2,
        )
        cfg = replace(cfg, strategy="top_p")
    rng = None if cfg.strategy == "greedy" else np.random.default_rng(cfg.seed)
    pois = [query.p_s]
    used = {query.p_s, query.p_e}
    current = query.p_s
    for position in range(2, query.n):
        probs = matrices[min(position - 2, len(matrices) - 1)].values[current]
        # zero probability scores -inf; `where` skips log(0) and its warning
        row = np.log(probs, out=np.full(probs.shape[0], -np.inf), where=probs > 0)
        if cfg.no_repeat_mask:
            row = mask_repeats(row, used, position)
        current = decoding._select(row, position, None, cfg, rng, None)
        pois.append(current)
        used.add(current)
    pois.append(query.p_e)
    return Trip(pois=tuple(pois))
