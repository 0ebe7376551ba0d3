"""Trip decoding: turn per-position scores into a concrete itinerary.

Endpoints are never sampled, they come straight from the query.  The
interior positions are filled one at a time using a pluggable selection
strategy.  Ties and sampling are fully deterministic for a fixed seed:
greedy breaks ties toward the lowest index, and both truncation
strategies sort candidates with a stable order before renormalizing.

The adaptive strategy widens or narrows exploration per position based
on the confidence vector: positions where most POIs were never
observed (high confidence that guidance knows little) get a higher
softmax temperature before nucleus truncation, or a larger nucleus
directly in threshold mode.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from artrip.data import Query
from artrip.guidance import GuidanceMatrix, check_horizon, check_pois, guidance_factor
from artrip.model.params import ARCH_ONE_SHOT, ModelParams
from artrip.model.one_shot import forward_one_shot
from artrip.model.recurrent import forward_recurrent_step, init_recurrent_state

STRATEGIES = ("greedy", "top_k", "top_p", "adaptive")
ADAPTIVE_MODES = ("temperature", "threshold")

# numeric slack when testing cumulative probability against the nucleus
# threshold, so an exact boundary is not lost to rounding
_CUM_TOL = 1e-12


@dataclass
class DecodeConfig:
    """Selection strategy settings; `seed` drives all sampling.

    `seed` is anything `np.random.default_rng` takes: an int, or the
    (base seed, ordinal) pair of `decode_config_for_query`.
    """

    strategy: str = "greedy"
    top_k: int = 5
    top_p: float = 0.8
    lam: float = 1.0
    adaptive_mode: str = "temperature"
    no_repeat_mask: bool = False
    seed: int | tuple[int, int] = 0

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.adaptive_mode not in ADAPTIVE_MODES:
            raise ValueError(f"unknown adaptive_mode {self.adaptive_mode!r}")
        if self.top_k < 1:
            raise ValueError("top_k must be at least 1")
        if not 0.0 < self.top_p <= 1.0:
            raise ValueError("top_p must lie in (0, 1]")
        if not 0.0 <= self.lam < np.inf:
            raise ValueError(f"lam must be finite and non-negative, got {self.lam}")


@dataclass(frozen=True)
class Trip:
    """A generated itinerary as vocabulary indices."""

    pois: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.pois)


def greedy_pick(row: np.ndarray) -> int:
    """Highest score wins; ties go to the lowest index (np.argmax order)."""
    return int(np.argmax(row))


def _draw(row: np.ndarray, rng, trace, p: float = 1.0, k: int | None = None, tau: float = 1.0) -> int:
    """Softmax of row / tau, truncated, renormalized and sampled in one pass.

    The candidates are the k most probable POIs, or else the smallest
    stable-ordered prefix whose mass reaches p.  The draw is
    `Generator.choice(candidates, p=sel / sel.sum())`'s own inverse CDF
    without its argument handling: the same pick from the same single
    `rng.random()`, so the stream stays where `choice` would leave it.
    """
    if tau != 1.0:
        row = row / tau
    # a finite maximum gives probabilities in [0, 1]; otherwise all would be NaN
    top = np.maximum.reduce(row)
    if not -np.inf < top < np.inf:
        raise ValueError("probabilities contain NaN or are negative")
    probs = row - top
    np.exp(probs, out=probs)
    probs /= np.add.reduce(probs)
    order = (-probs).argsort(kind="stable")
    if k is None:
        ranked = probs[order]
        cut = int(ranked.cumsum().searchsorted(p - _CUM_TOL)) + 1
        sel = ranked[:cut]
    else:
        cut = k
        sel = probs[order[:cut]]
    candidates = order[:cut]
    sel = sel / np.add.reduce(sel)
    cdf = sel.cumsum()
    cdf /= cdf[-1]
    choice = int(candidates[cdf.searchsorted(rng.random(), side="right")])
    if trace is not None:
        trace.append((tuple(candidates.tolist()), choice))
    return choice


def top_k_sample(row: np.ndarray, k: int, rng, trace=None) -> int:
    """Sample among the k highest-probability POIs, renormalized."""
    return _draw(row, rng, trace, k=k)


def top_p_sample(row: np.ndarray, p: float, rng, trace=None) -> int:
    """Sample from the smallest stable-ordered prefix whose mass reaches p."""
    return _draw(row, rng, trace, p=p)


def adaptive_sample(
    row: np.ndarray,
    confidence: float,
    cfg: DecodeConfig,
    rng,
    trace=None,
) -> int:
    """Confidence-aware nucleus sampling.

    temperature mode: scores are divided by tau = 1 + lam * (1 - c)
    before the usual top-p truncation, so low-confidence positions get
    flatter distributions and wider effective candidate sets.
    threshold mode: the nucleus mass itself is widened toward 1 as
    confidence drops, p_j = 1 - c * (1 - p).
    """
    if cfg.adaptive_mode == "temperature":
        return _draw(row, rng, trace, p=cfg.top_p, tau=1.0 + cfg.lam * (1.0 - confidence))
    return _draw(row, rng, trace, p=1.0 - confidence * (1.0 - cfg.top_p))


def mask_repeats(row: np.ndarray, used: set[int], position: int) -> np.ndarray:
    """Score already-visited POIs at -inf; release the mask if it empties the row."""
    out = row.copy()
    out[list(used)] = -np.inf
    top = np.maximum.reduce(out, initial=-np.inf)  # only +inf or NaN needs the full test
    if top == -np.inf or (not top < np.inf and not np.isfinite(out).any()):
        warnings.warn(
            f"no-repeat mask exhausted the vocabulary at position {position}; releasing it",
            RuntimeWarning,
            stacklevel=2,
        )
        return row.copy()
    return out


def _select(row: np.ndarray, position: int, conf: np.ndarray, cfg: DecodeConfig, rng, trace):
    if cfg.strategy == "greedy":
        choice = greedy_pick(row)
        if trace is not None:
            trace.append(((choice,), choice))
        return choice
    if cfg.strategy == "top_k":
        return top_k_sample(row, cfg.top_k, rng, trace)
    if cfg.strategy == "top_p":
        return top_p_sample(row, cfg.top_p, rng, trace)
    check_horizon(position, len(conf), "position")
    return adaptive_sample(row, float(conf[position - 1]), cfg, rng, trace)


def decode_trip(
    query: Query,
    params: ModelParams,
    pm: GuidanceMatrix,
    conf: np.ndarray,
    cfg: DecodeConfig,
    trace: list | None = None,
) -> Trip:
    """Generate a length-n trip for a query.

    Pass a zero guidance matrix to decode unguided.  With the no-repeat
    mask on, every already-emitted POI (both endpoints included) scores
    -inf until the mask would empty a row, at which point it is
    released with a warning.  `trace`, if given, collects
    (candidate_ids, chosen_id) per interior position; adaptive decoding
    reads `conf[position - 1]` there.  A query longer than the model's
    horizon `params.m_max` or than `pm.m_max + 1`, which covers the guided
    positions 2..n-1, or with an endpoint outside the vocabulary, raises
    ValueError before the forward pass.
    """
    _check_query(query, params.k)
    check_horizon(query.n, params.m_max)
    # row j of the factor is position j + 2's guidance, as apply_guidance scales it
    factor = guidance_factor(pm, 2, query.n - 2)
    if params.config.arch == ARCH_ONE_SHOT:
        guided = forward_one_shot(query, params)[1:-1] * factor

        def next_row(position: int, prev: int) -> np.ndarray:
            return guided[position - 2]

    else:
        state = init_recurrent_state(query, params)

        def next_row(position: int, prev: int) -> np.ndarray:
            nonlocal state
            raw, state = forward_recurrent_step(state, prev, params)
            return raw * factor[position - 2]

    return _walk(query, next_row, conf, cfg, trace)


def _check_query(query: Query, k: int) -> None:
    """What every generator checks first: two stops at least, both endpoints in 0..k-1."""
    if query.n < 2:
        raise ValueError("trips need at least the two endpoint positions")
    check_pois((query.p_s, query.p_e), k)


def _walk(query: Query, next_row, conf: np.ndarray | None, cfg: DecodeConfig, trace) -> Trip:
    """The decode loop every generator shares, on a query `_check_query` passed.

    The endpoints come from the query.  Each interior position scores the stop
    after `prev` by `next_row(position, prev)`, masks repeats if the config
    asks, and selects one POI.
    """
    rng = _rng(cfg)
    pois = [query.p_s]
    used = {query.p_s, query.p_e}
    prev = query.p_s
    for position in range(2, query.n):
        row = next_row(position, prev)
        if cfg.no_repeat_mask:
            row = mask_repeats(row, used, position)
        prev = _select(row, position, conf, cfg, rng, trace)
        pois.append(prev)
        used.add(prev)
    pois.append(query.p_e)
    return Trip(pois=tuple(pois))


def _rng(cfg: DecodeConfig):
    """`default_rng(cfg.seed)`, or None for greedy; ints below 2**32 go in as numpy's own uint32 words."""
    if cfg.strategy == "greedy":
        return None
    words = cfg.seed if type(cfg.seed) is tuple else (cfg.seed,)
    fast = len(words) <= 2 and all(type(w) is int and 0 <= w < 1 << 32 for w in words)
    return np.random.default_rng(np.array(words, dtype=np.uint32) if fast else cfg.seed)


def decode_config_for_query(cfg: DecodeConfig, base_seed: int, ordinal: int) -> DecodeConfig:
    """`cfg` with the seed of query `ordinal` under `base_seed`; nothing else changes.

    The seed is the pair itself, which `default_rng` takes as entropy.
    Distinct pairs are distinct SeedSequence entropy, so every (base seed,
    ordinal) gets its own stream; folding the two into one int would let
    pairs such as (1, 0) and (0, 1) share one.
    """
    return replace(cfg, seed=(base_seed, ordinal))
