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
from dataclasses import dataclass

import numpy as np

from artrip import streams
from artrip.config import ARCH_ONE_SHOT, DecodeConfig
from artrip.data import Query, input_key
from artrip.guidance import GuidanceMatrix, check_horizon, check_pois, guidance_factor
from artrip.model.params import ModelParams
from artrip.model.one_shot import forward_one_shot
from artrip.model.recurrent import forward_recurrent_step, init_recurrent_state

# numeric slack when testing cumulative probability against the nucleus
# threshold, so an exact boundary is not lost to rounding
_CUM_TOL = 1e-12

# most entries one model's decode store keeps, plans and nucleus entries together
PLAN_CAP = 1024


@dataclass(frozen=True)
class Trip:
    """A generated itinerary as vocabulary indices."""

    pois: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.pois)


def _check_top(top) -> None:
    """Refuse a row whose top score is NaN or infinite: its softmax holds no probabilities."""
    if not -np.inf < top < np.inf:
        raise ValueError("probabilities contain NaN or are negative")


def greedy_pick(row: np.ndarray) -> int:
    """Highest score wins, ties to the lowest index (`ndarray.argmax` order); a NaN or infinite winner raises."""
    choice = int(row.argmax())
    # argmax returns the first NaN, so a NaN anywhere is the winner checked here
    _check_top(row[choice])
    return choice


def _nucleus(row: np.ndarray, p: float = 1.0, k: int | None = None, tau: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """The (candidates, cdf) a draw from the softmax of row / tau picks from.

    The candidates are the k most probable POIs, or else the smallest
    stable-ordered prefix whose mass reaches p.  `cdf` is the renormalized
    cumulative mass of the candidates as `Generator.choice(candidates,
    p=sel / sel.sum())` builds it, so `_pick` makes that call's pick; both
    sums run `ndarray.cumsum`'s loop, `np.add.accumulate`.  A pure function
    of its arguments: a NaN or infinite row maximum raises ValueError.
    """
    if tau != 1.0:
        row = row / tau
    # a finite maximum gives probabilities in [0, 1]; otherwise all would be NaN
    top = np.maximum.reduce(row)
    _check_top(top)
    probs = row - top
    np.exp(probs, out=probs)
    probs /= np.add.reduce(probs)
    order = (-probs).argsort(kind="stable")
    if k is None:
        ranked = probs[order]
        cut = int(np.add.accumulate(ranked).searchsorted(p - _CUM_TOL)) + 1
        sel = ranked[:cut]
    else:
        cut = k
        sel = probs[order[:cut]]
    candidates = order[:cut]
    sel = sel / np.add.reduce(sel)
    cdf = np.add.accumulate(sel)
    cdf /= cdf[-1]
    return candidates, cdf


def _pick(nucleus: tuple[np.ndarray, np.ndarray], rng, trace) -> int:
    """The candidate the nucleus's inverse CDF gives one `rng.random()`; `trace` gets (candidates, choice).

    That is `Generator.choice`'s pick from its own inverse CDF without its
    argument handling, so the stream stays where `choice` would leave it.
    """
    candidates, cdf = nucleus
    choice = int(candidates[cdf.searchsorted(rng.random(), side="right")])
    if trace is not None:
        trace.append((tuple(candidates.tolist()), choice))
    return choice


def top_k_sample(row: np.ndarray, k: int, rng, trace=None) -> int:
    """Sample among the k highest-probability POIs, renormalized."""
    return _pick(_nucleus(row, k=k), rng, trace)


def top_p_sample(row: np.ndarray, p: float, rng, trace=None) -> int:
    """Sample from the smallest stable-ordered prefix whose mass reaches p."""
    return _pick(_nucleus(row, p), rng, trace)


def _adaptive(confidence: float, cfg: DecodeConfig) -> tuple[float, float]:
    """The (p, tau) of `adaptive_sample` at `confidence`."""
    if cfg.adaptive_mode == "temperature":
        return cfg.top_p, 1.0 + cfg.lam * (1.0 - confidence)
    return 1.0 - confidence * (1.0 - cfg.top_p), 1.0


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
    p, tau = _adaptive(confidence, cfg)
    return _pick(_nucleus(row, p, tau=tau), rng, trace)


def _settings(position: int, conf: np.ndarray, cfg: DecodeConfig) -> tuple[float, int | None, float]:
    """The (p, k, tau) of the nucleus a sampled strategy draws from at `position`."""
    if cfg.strategy == "top_k":
        return 1.0, cfg.top_k, 1.0
    if cfg.strategy == "top_p":
        return cfg.top_p, None, 1.0
    p, tau = _adaptive(float(conf[position - 1]), cfg)
    return p, None, tau


def mask_repeats(row: np.ndarray, used: set[int], position: int) -> np.ndarray:
    """Score already-visited POIs at -inf; release the mask if no score is left finite (NaN counts as not finite)."""
    out = row.copy()
    out[list(used)] = -np.inf
    if not np.isfinite(out).any():
        warnings.warn(
            f"no-repeat mask exhausted the vocabulary at position {position}; releasing it",
            RuntimeWarning,
            stacklevel=2,
        )
        return row.copy()
    return out


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
    reads `conf[position - 1]` there.  ValueError refuses, before the forward
    pass, an endpoint outside the vocabulary, a query longer than
    `params.m_max` or than `pm.m_max + 1` (guidance covers positions
    2..n-1), guidance over other than `params.k` POIs, and an adaptive
    query whose `conf` has no entry for position n - 1.  A two-stop query
    is then its endpoints; any other reads its planned rows (`_plan`, which
    freezes `params`) and steps the recurrent state past them.  When every
    interior row is planned, an unmasked sampled decode picks from nuclei
    kept per plan and settings, all built before the first pick, so a bad
    row raises with the trace empty.  A repeat decode of a query builds
    nothing it built before; its picks, trace and random stream are those
    of a fresh model.
    """
    _check_query(query, params.k)
    check_horizon(query.n, params.m_max)
    if pm.k != params.k:
        raise ValueError(f"guidance matrix covers {pm.k} POIs but the model scores k={params.k}")
    if query.n == 2:
        return Trip(pois=(query.p_s, query.p_e))
    if cfg.strategy == "adaptive":
        check_horizon(query.n - 1, len(conf), "position")
    # row j of the factor is position j + 2's guidance, a read-only view of the matrix's table
    factor = guidance_factor(pm, 2, query.n - 2)
    key = (input_key(query), pm)
    rows, state = plan = _plan(query, params, key, factor)
    planned = len(rows)

    def next_row(position: int, prev: int) -> np.ndarray:
        nonlocal state
        if position - 2 < planned:
            return rows[position - 2]
        raw, state = forward_recurrent_step(state, prev, params)
        return np.multiply(raw, factor[position - 2], out=raw)

    nuclei = None
    if planned == query.n - 2 and cfg.strategy != "greedy" and not cfg.no_repeat_mask:
        # every row is planned and unmasked, so each nucleus reads the plan and settings alone
        settings = tuple(_settings(position, conf, cfg) for position in range(2, query.n))
        nuclei = params.plans.get((*key, settings))
        if nuclei is None:
            # built whole before it is kept, so a bad row keeps nothing; a clear keeps the plan in hand
            built = tuple(_read_only(*_nucleus(row, *at)) for row, at in zip(rows, settings))
            nuclei = _keep(params.plans, (*key, settings), built, (key, plan))
    return _walk(query, next_row, conf, cfg, trace, nuclei)


def _plan(query: Query, params: ModelParams, key, factor: np.ndarray):
    """The decode plan of `query` under guidance `factor`, kept under `key`: the (rows, state) a decode starts from.

    One-shot: every guided interior row and no state; recurrent: position
    2's guided row, as a one-row array, and the state after it.  Built once
    per frozen model, `input_key(query)` and guidance matrix, its arrays
    read-only; freezing `params` first keeps every plan fresh.
    """
    params.freeze()
    plan = params.plans.get(key)
    if plan is None:
        if params.config.arch == ARCH_ONE_SHOT:
            plan = _read_only(forward_one_shot(query, params)[1:-1] * factor)[0], None
        else:
            raw, state = forward_recurrent_step(init_recurrent_state(query, params), query.p_s, params)
            plan = _read_only(raw * factor[:1], state)
        _keep(params.plans, key, plan)
    return plan


def _keep(store: dict, key, entry, *held):
    """`entry`, kept under `key`; a full store (`PLAN_CAP` entries) is cleared first but for the `held` pairs."""
    if len(store) >= PLAN_CAP:
        store.clear()
        store.update(held)
    store[key] = entry
    return entry


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """`arrays`, each marked read-only."""
    for array in arrays:
        array.setflags(write=False)
    return arrays


def _check_query(query: Query, k: int) -> None:
    """What every generator checks first: two stops at least, both endpoints in 0..k-1."""
    if query.n < 2:
        raise ValueError("trips need at least the two endpoint positions")
    check_pois((query.p_s, query.p_e), k)


def _walk(query: Query, next_row, conf: np.ndarray | None, cfg: DecodeConfig, trace, nuclei=None) -> Trip:
    """The decode loop every generator shares, on a query `_check_query` passed.

    The endpoints come from the query.  Each interior position scores the stop
    after `prev` by `next_row(position, prev)`, masks repeats if the config
    asks, and picks one POI by `greedy_pick`, or from `nuclei[position - 2]`
    if given, else from `_nucleus(row, *_settings(...))`.  The strategy and
    the mask are resolved once per trip, not once per position.
    """
    rng = _rng(cfg)
    greedy, masked = cfg.strategy == "greedy", cfg.no_repeat_mask
    pois = [query.p_s]
    used = {query.p_s, query.p_e}
    prev = query.p_s
    for position in range(2, query.n):
        row = next_row(position, prev)
        if masked:
            row = mask_repeats(row, used, position)
        if greedy:
            prev = greedy_pick(row)
            if trace is not None:
                trace.append(((prev,), prev))
        else:
            nucleus = _nucleus(row, *_settings(position, conf, cfg)) if nuclei is None else nuclei[position - 2]
            prev = _pick(nucleus, rng, trace)
        pois.append(prev)
        used.add(prev)
    pois.append(query.p_e)
    return Trip(pois=tuple(pois))


def _rng(cfg: DecodeConfig):
    """The decode stream of `cfg.seed`, or None for greedy, which draws nothing."""
    return None if cfg.strategy == "greedy" else streams.rng("decode", cfg.seed)


def decode_config_for_query(cfg: DecodeConfig, base_seed: int, ordinal: int) -> DecodeConfig:
    """`cfg` with the seed of query `ordinal` under `base_seed`; nothing else changes.

    The seed is the pair itself, the entropy of the query's decode stream
    (`artrip.streams`).  Distinct pairs are distinct SeedSequence entropy,
    so every (base seed, ordinal) gets its own stream; folding the two into
    one int would let pairs such as (1, 0) and (0, 1) share one.  `cfg` is
    frozen and was validated when made, so the copy skips `__post_init__`.
    """
    out = object.__new__(type(cfg))
    vars(out).update(vars(cfg), seed=(base_seed, ordinal))
    return out
