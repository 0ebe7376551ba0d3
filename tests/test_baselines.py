import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from artrip.analysis import empirical_transitions, perturb
from artrip import decoding
from artrip.baselines import build_popularity, markov_decode, popularity_decode
from artrip.data import Query, Trajectory
from artrip.decoding import (
    STRATEGIES,
    DecodeConfig,
    Trip,
    greedy_pick,
    mask_repeats,
    top_k_sample,
    top_p_sample,
)
from artrip.metrics import trip_repetition


def corpus():
    # POI visit totals: 0 -> 4, 1 -> 3, 2 -> 2, 3 -> 1
    return [
        Trajectory(pois=(0, 1, 0), times=(0, 1, 2)),
        Trajectory(pois=(0, 2, 1), times=(0, 1, 2)),
        Trajectory(pois=(1, 0, 2, 3), times=(0, 1, 2, 3)),
    ]


class TestPopularity:
    def test_counts_every_stop(self):
        counts = build_popularity(corpus(), k=5)
        np.testing.assert_array_equal(counts, [4, 3, 2, 1, 0])

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            build_popularity([], k=3)

    def test_decode_ranks_by_count(self):
        counts = np.array([5, 3, 2, 1])
        q = Query(p_s=3, t_s=0, p_e=2, t_e=7200, n=4)
        trip = popularity_decode(q, counts)
        assert trip.pois == (3, 0, 1, 2)

    def test_count_ties_break_to_lower_index(self):
        counts = np.array([2, 4, 4, 0])
        q = Query(p_s=0, t_s=0, p_e=3, t_e=7200, n=4)
        trip = popularity_decode(q, counts)
        assert trip.pois == (0, 1, 2, 3)

    def test_endpoints_never_ranked(self):
        counts = np.array([9, 8, 1, 1])
        q = Query(p_s=0, t_s=0, p_e=1, t_e=7200, n=3)
        trip = popularity_decode(q, counts)
        assert trip.pois == (0, 2, 1)

    def test_trips_are_duplicate_free(self):
        counts = build_popularity(corpus(), k=5)
        q = Query(p_s=0, t_s=0, p_e=1, t_e=7200, n=5)
        assert trip_repetition(popularity_decode(q, counts)) == 0.0

    @pytest.mark.parametrize("n", [0, 1])
    def test_degenerate_length_raises(self, n):
        q = Query(p_s=0, t_s=0, p_e=1, t_e=7200, n=n)
        with pytest.raises(ValueError, match="endpoint"):
            popularity_decode(q, np.array([5, 4, 3, 2, 1, 0]))

    @pytest.mark.parametrize("p_s, p_e, bad", [(-1, 3, -1), (0, 4, 4)])
    def test_an_endpoint_outside_the_vocabulary_is_rejected(self, p_s, p_e, bad):
        q = Query(p_s=p_s, t_s=0, p_e=p_e, t_e=7200, n=4)
        with pytest.raises(ValueError, match=f"POI index {bad} out of range for k=4"):
            popularity_decode(q, np.array([5, 3, 2, 1]))

    def test_vocabulary_exhaustion_raises(self):
        counts = np.array([1, 1, 1])
        q = Query(p_s=0, t_s=0, p_e=1, t_e=7200, n=5)
        with pytest.raises(ValueError, match="too small"):
            popularity_decode(q, counts)


def reference_popularity_decode(query, counts):
    """The stable rank order popularity_decode used before it walked the decode loop."""
    ranked = np.argsort(-counts, kind="stable")
    interior = [int(p) for p in ranked if p != query.p_s and p != query.p_e]
    need = query.n - 2
    if len(interior) < need:
        raise ValueError(f"vocabulary too small for a {query.n}-stop trip")
    return Trip(pois=(query.p_s, *interior[:need], query.p_e))


@st.composite
def popularity_cases(draw):
    # few distinct values make ties common; below 2**53 float64 holds every count exactly
    values = draw(st.lists(st.integers(0, 2**53), min_size=1, max_size=4))
    counts = np.array(draw(st.lists(st.sampled_from(values), min_size=2, max_size=9)), dtype=np.int64)
    k = len(counts)
    p_s = draw(st.integers(0, k - 1))
    p_e = draw(st.one_of(st.just(p_s), st.integers(0, k - 1)))
    limit = k - len({p_s, p_e}) + 2
    return counts, Query(p_s=p_s, t_s=0, p_e=p_e, t_e=7200, n=draw(st.integers(2, limit))), limit


@settings(max_examples=300, deadline=None)
@given(case=popularity_cases())
def test_popularity_walk_equals_the_stable_rank_order(case):
    counts, query, limit = case
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert popularity_decode(query, counts) == reference_popularity_decode(query, counts)
    longer = Query(p_s=query.p_s, t_s=0, p_e=query.p_e, t_e=7200, n=limit + 1)
    for decode in (popularity_decode, reference_popularity_decode):
        with pytest.raises(ValueError, match=f"vocabulary too small for a {limit + 1}-stop trip"):
            decode(longer, counts)


def stationary(values, n):
    """The same transitions at every step of an n-stop walk: an (n - 1, k, k) chain."""
    return np.array([values] * (n - 1))


class TestMarkov:
    def chain(self, n=5):
        # deterministic cycle 0 -> 1 -> 2 -> 0 at every position
        values = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
        return stationary(values, n)

    def test_greedy_follows_the_chain(self):
        q = Query(p_s=0, t_s=0, p_e=0, t_e=14400, n=5)
        trip = markov_decode(q, self.chain(), DecodeConfig())
        assert trip.pois == (0, 1, 2, 0, 0)

    @pytest.mark.parametrize("n", [0, 1])
    def test_degenerate_length_raises(self, n):
        q = Query(p_s=0, t_s=0, p_e=1, t_e=7200, n=n)
        with pytest.raises(ValueError, match="endpoint"):
            markov_decode(q, self.chain(), DecodeConfig())

    @pytest.mark.parametrize("p_s, p_e, bad", [(-1, 2, -1), (0, 3, 3)])
    def test_an_endpoint_outside_the_vocabulary_is_rejected_before_any_step(self, p_s, p_e, bad):
        q = Query(p_s=p_s, t_s=0, p_e=p_e, t_e=14400, n=5)
        with mock.patch.object(decoding, "_walk", side_effect=AssertionError("a step ran")):
            with pytest.raises(ValueError, match=f"POI index {bad} out of range for k=3"):
                markov_decode(q, self.chain(), DecodeConfig())

    def test_self_loop_produces_repeats(self):
        values = np.array([[1.0, 0.0], [0.5, 0.5]])
        chain = stationary(values, 5)
        q = Query(p_s=0, t_s=0, p_e=1, t_e=14400, n=5)
        trip = markov_decode(q, chain, DecodeConfig())
        assert trip.pois == (0, 0, 0, 0, 1)
        assert trip_repetition(trip) > 0

    def test_no_repeat_mask_blocks_the_loop(self):
        values = np.array(
            [
                [0.9, 0.04, 0.03, 0.03],
                [0.8, 0.1, 0.05, 0.05],
                [0.4, 0.5, 0.05, 0.05],
                [0.25, 0.25, 0.25, 0.25],
            ]
        )
        chain = stationary(values, 4)
        q = Query(p_s=0, t_s=0, p_e=2, t_e=14400, n=4)
        trip = markov_decode(q, chain, DecodeConfig(no_repeat_mask=True))
        assert len(set(trip.pois)) == len(trip.pois)

    def test_positions_past_horizon_are_rejected(self):
        first = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        second = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
        chain = np.array([first, second])
        # two matrices: routes of up to 3 stops, pos2 via first (0->1)
        q = Query(p_s=0, t_s=0, p_e=2, t_e=21600, n=3)
        assert markov_decode(q, chain, DecodeConfig()).pois == (0, 1, 2)
        long = Query(p_s=0, t_s=0, p_e=1, t_e=21600, n=4)
        with pytest.raises(ValueError, match="trip length n=4 exceeds the horizon m_max=3"):
            markov_decode(long, chain, DecodeConfig())

    def test_sampling_respects_zero_mass(self):
        values = np.array([[0.0, 0.6, 0.4], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
        chain = stationary(values, 3)
        q = Query(p_s=0, t_s=0, p_e=2, t_e=14400, n=3)
        for seed in range(10):
            cfg = DecodeConfig(strategy="top_p", top_p=1.0, seed=seed)
            trip = markov_decode(q, chain, cfg)
            assert trip.pois[1] in {1, 2}  # never the zero-probability POI 0

    def test_top_k_restricts_candidates(self):
        values = np.array([[0.05, 0.5, 0.45], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        chain = stationary(values, 3)
        q = Query(p_s=0, t_s=0, p_e=0, t_e=14400, n=3)
        seen = set()
        for seed in range(30):
            cfg = DecodeConfig(strategy="top_k", top_k=2, seed=seed)
            seen.add(markov_decode(q, chain, cfg).pois[1])
        assert seen == {1, 2}

    def test_adaptive_degrades_to_nucleus(self):
        chain = self.chain()
        q = Query(p_s=0, t_s=0, p_e=0, t_e=14400, n=4)
        for seed in range(5):
            with pytest.warns(RuntimeWarning, match="adaptive decoding runs as top_p"):
                a = markov_decode(q, chain, DecodeConfig(strategy="adaptive", top_p=0.9, seed=seed))
            b = markov_decode(q, chain, DecodeConfig(strategy="top_p", top_p=0.9, seed=seed))
            assert a == b

    def test_other_strategies_do_not_warn(self):
        mats = empirical_transitions(corpus(), k=5)
        q = Query(p_s=0, t_s=0, p_e=1, t_e=14400, n=4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for strategy in ("greedy", "top_k", "top_p"):
                markov_decode(q, mats, DecodeConfig(strategy=strategy, seed=1))

    def test_determinism_per_seed(self):
        mats = empirical_transitions(corpus(), k=5)
        q = Query(p_s=0, t_s=0, p_e=1, t_e=14400, n=4)
        cfg = DecodeConfig(strategy="top_p", top_p=0.9, seed=3)
        assert markov_decode(q, mats, cfg) == markov_decode(q, mats, cfg)

    def test_requires_matrices(self):
        q = Query(p_s=0, t_s=0, p_e=1, t_e=7200, n=3)
        for empty in ([], np.empty((0, 3, 3))):
            with pytest.raises(ValueError, match="need at least one transition matrix"):
                markov_decode(q, empty, DecodeConfig())


def reference_markov_decode(query, matrices, cfg, rows):
    """The Markov walk with its own copy of the strategy switch; `rows`
    collects the bytes of each scored row."""
    rng = None if cfg.strategy == "greedy" else np.random.default_rng(cfg.seed)
    pois, used, current = [query.p_s], {query.p_s, query.p_e}, query.p_s
    for position in range(2, query.n):
        probs = matrices[min(position - 2, len(matrices) - 1)][current]
        with np.errstate(divide="ignore"):
            row = np.log(probs)
        if cfg.no_repeat_mask:
            row = mask_repeats(row, used, position)
        rows.append(row.tobytes())
        if cfg.strategy == "greedy":
            current = greedy_pick(row)
        elif cfg.strategy == "top_k":
            current = top_k_sample(row, cfg.top_k, rng)
        else:
            current = top_p_sample(row, cfg.top_p, rng)
        pois.append(current)
        used.add(current)
    return Trip(pois=(*pois, query.p_e))


routes = st.lists(st.integers(0, 9), min_size=2, max_size=7)


@pytest.mark.filterwarnings("ignore:no-repeat mask:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:the Markov baseline:RuntimeWarning")
@settings(max_examples=200, deadline=None)
@given(
    corpus_routes=st.lists(routes, min_size=1, max_size=25),
    start=st.integers(0, 9),
    end=st.integers(0, 9),
    n=st.integers(2, 10),
    strategy=st.sampled_from(STRATEGIES),
    mask=st.booleans(),
    top_k=st.integers(1, 10),
    top_p=st.floats(0.05, 1.0),
    seed=st.integers(0, 2**32 - 1),
    sigma=st.sampled_from([0.0, 0.01, 0.3]),
)
def test_markov_trips_equal_the_reference_walk(corpus_routes, start, end, n, strategy, mask, top_k, top_p, seed, sigma):
    ts = [Trajectory(pois=tuple(r), times=tuple(range(len(r)))) for r in corpus_routes]
    # noise leaves small and zero probabilities, whose logs must match too
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        mats = np.array([perturb(m, sigma, seed + i) for i, m in enumerate(empirical_transitions(ts, k=10))])
    q = Query(p_s=start, t_s=0, p_e=end, t_e=3600 * n, n=n)
    cfg = DecodeConfig(strategy=strategy, top_k=top_k, top_p=top_p, no_repeat_mask=mask, seed=seed)
    if n > len(mats) + 1:
        # longer than every corpus route: refused before any step
        with pytest.raises(ValueError, match=f"n={n} exceeds the horizon m_max={len(mats) + 1}"):
            markov_decode(q, mats, cfg)
        return
    # adaptive runs as top_p: the baseline has no confidence model
    ref_cfg = DecodeConfig(strategy="top_p" if strategy == "adaptive" else strategy, top_k=top_k,
                           top_p=top_p, no_repeat_mask=mask, seed=seed)
    rows, ref_rows = [], []

    def recording_select(row, *args):
        rows.append(row.tobytes())
        return select(row, *args)

    select = decoding._select
    with mock.patch.object(decoding, "_select", recording_select):
        trip = markov_decode(q, mats, cfg)
    assert trip == reference_markov_decode(q, mats, ref_cfg, ref_rows)
    assert rows == ref_rows
