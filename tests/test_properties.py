"""Invariants checked by hypothesis: metric oracles, corpus splits,
transition matrices, decoded trips and bundle round trips."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from artrip.analysis import empirical_transitions, perturb
from artrip.baselines import build_popularity, markov_decode, popularity_decode
from artrip.config import ARCH_ONE_SHOT, ARCH_RECURRENT, DecodeConfig, ModelConfig
from artrip.data import Query, Trajectory, make_query, split_corpus
from artrip.decoding import Trip, decode_trip
from artrip.guidance import build_confidence, build_guidance_matrix, zero_guidance
from artrip.metrics import evaluate_decoder, f1_score, pairs_f1, trip_repetition
from artrip.model.bundle import load_bundle, save_bundle
from artrip.model.params import init_params

# --- metrics ---------------------------------------------------------------


def reference_dedup(seq):
    seen, out = set(), []
    for poi in seq:
        if poi not in seen:
            seen.add(poi)
            out.append(poi)
    return tuple(out)


def reference_ordered_pairs(seq):
    return {(seq[i], seq[j]) for i in range(len(seq)) for j in range(i + 1, len(seq))}


def reference_pairs_f1(pred, truth):
    """PairsF1 over sets of ordered pairs, as it was computed before ranks."""
    pred_seq = reference_dedup(tuple(pred))
    truth_seq = reference_dedup(tuple(truth))
    pred_pairs = reference_ordered_pairs(pred_seq)
    truth_pairs = reference_ordered_pairs(truth_seq)
    if not pred_pairs or not truth_pairs:
        if not pred_pairs and not truth_pairs:
            return 1.0 if pred_seq == truth_seq else 0.0
        return 0.0
    hits = len(pred_pairs & truth_pairs)
    precision = hits / len(pred_pairs)
    recall = hits / len(truth_pairs)
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def oracle_f1(pred, truth):
    pred_set, truth_set = set(pred), set(truth)
    if not pred_set or not truth_set:
        return 0.0
    hits = sum(1 for poi in pred_set if poi in truth_set)
    precision = hits / len(pred_set)
    recall = hits / len(truth_set)
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def oracle_repetition(trip):
    # positions whose POI already occurred somewhere earlier
    repeats = sum(1 for i, poi in enumerate(trip) if poi in trip[:i])
    return repeats / len(trip)


sequences = st.lists(st.integers(0, 9), max_size=10)


@settings(max_examples=500, deadline=None)
@given(pred=sequences, truth=sequences)
def test_metrics_equal_their_references_exactly(pred, truth):
    assert pairs_f1(pred, truth) == reference_pairs_f1(pred, truth)
    assert f1_score(pred, truth) == oracle_f1(pred, truth)
    if pred:
        assert trip_repetition(pred) == oracle_repetition(pred)
    else:
        with pytest.raises(ValueError, match="empty trip"):
            trip_repetition(pred)


@settings(max_examples=100, deadline=None)
@given(
    truths=st.lists(st.lists(st.integers(0, 7), min_size=2, max_size=8), min_size=1, max_size=6),
    repeats=st.integers(1, 3),
    seed=st.integers(0, 2**16),
)
def test_evaluate_decoder_rows_equal_per_query_scores(truths, repeats, seed):
    test = [Trajectory(pois=tuple(t), times=tuple(range(len(t)))) for t in truths]

    def decode_fn(query, ordinal, repeat_seed):
        gen = np.random.default_rng([seed, repeat_seed, ordinal])
        interior = tuple(int(p) for p in gen.integers(0, 8, size=query.n - 2))
        return Trip(pois=(query.p_s, *interior, query.p_e))

    report = evaluate_decoder(decode_fn, test, repeats, base_seed=seed)
    assert len(report.rows) == repeats * len(test)
    for row in report.rows:
        trip = decode_fn(make_query(test[row["query"]]), row["query"], seed + row["repeat"])
        truth = test[row["query"]].pois
        assert row["trip"] == trip.pois
        assert row["f1"] == oracle_f1(trip.pois, truth)
        assert row["pairs_f1"] == reference_pairs_f1(trip.pois, truth)
        assert row["rep"] == oracle_repetition(trip.pois)


# --- corpus and transitions -------------------------------------------------


def trajectories(min_size=3):
    routes = st.lists(st.integers(0, 5), min_size=2, max_size=7)
    return st.lists(routes, min_size=min_size, max_size=30).map(
        lambda rs: [Trajectory(pois=tuple(r), times=tuple(range(len(r)))) for r in rs]
    )


@settings(max_examples=200, deadline=None)
@given(
    ts=trajectories(),
    train=st.floats(0.0, 1.0),
    val_share=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_split_partitions_are_disjoint_and_cover_the_corpus(ts, train, val_share, seed):
    val = (1.0 - train) * val_share
    split = split_corpus(ts, ratios=(train, val, 1.0 - train - val), seed=seed)
    # the same Trajectory may occur twice in a corpus, so compare positions
    ids = {id(t): i for i, t in enumerate(ts)}
    parts = [[ids[id(t)] for t in part] for part in (split.train, split.val, split.test)]
    flat = [i for part in parts for i in part]
    assert sorted(flat) == list(range(len(ts)))
    assert len(set(flat)) == len(flat)


@settings(max_examples=200, deadline=None)
@given(ts=trajectories(min_size=1), extra_pois=st.integers(0, 3))
def test_empirical_transition_rows_are_stochastic(ts, extra_pois):
    k = 6 + extra_pois
    chain = empirical_transitions(ts, k)
    assert isinstance(chain, np.ndarray) and chain.dtype == np.float64
    assert chain.shape == (max(len(t) for t in ts) - 1, k, k)
    assert (chain >= 0.0).all()
    np.testing.assert_allclose(chain.sum(axis=2), 1.0, rtol=0, atol=1e-12)
    # matrix i, row p: POI p at position i + 1 of some route
    observed = np.zeros(chain.shape[:2], dtype=bool)
    for t in ts:
        for i in range(len(t) - 1):
            observed[i, t.pois[i]] = True
    assert (chain[~observed] == 1.0 / k).all()


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 12), noise_seed=st.integers(0, 2**16))
def test_perturb_with_zero_sigma_is_the_identity_bit_for_bit(seed, k, noise_seed):
    gen = np.random.default_rng(seed)
    values = gen.dirichlet(np.ones(k), size=k) * (gen.random((k, k)) < 0.7)
    out = perturb(values, 0.0, noise_seed)
    assert out.tobytes() == values.tobytes()
    assert not np.shares_memory(out, values)


# --- decoded trips -------------------------------------------------------------

STRATEGY_MODES = [
    ("greedy", "temperature"),
    ("top_k", "temperature"),
    ("top_p", "temperature"),
    ("adaptive", "temperature"),
    ("adaptive", "threshold"),
]


def decode_noting_releases(decode, *args):
    """`decode(*args)`, and whether the no-repeat mask was released on the way."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        trip = decode(*args)
    return trip, any("no-repeat mask exhausted" in str(w.message) for w in caught)


def check_trip(trip, query, k, distinct):
    assert len(trip.pois) == query.n
    assert (trip.pois[0], trip.pois[-1]) == (query.p_s, query.p_e)
    assert all(0 <= poi < k for poi in trip.pois)
    if distinct:
        # only a round trip's shared endpoint occurs twice
        assert len(set(trip.pois)) == query.n - (query.p_s == query.p_e)


@settings(max_examples=150, deadline=None)
@given(
    arch=st.sampled_from([ARCH_ONE_SHOT, ARCH_RECURRENT]),
    ts=trajectories(min_size=1),
    extra_pois=st.integers(0, 3),
    guided=st.booleans(),
    strategy_mode=st.sampled_from(STRATEGY_MODES),
    mask=st.booleans(),
    seeds=st.tuples(st.integers(0, 2**16), st.integers(0, 2**32 - 1)),
    data=st.data(),
)
def test_every_generator_keeps_length_endpoints_and_vocabulary(
    arch, ts, extra_pois, guided, strategy_mode, mask, seeds, data
):
    k = 6 + extra_pois
    pm = build_guidance_matrix(ts, k)
    poi, stamp = st.integers(0, k - 1), st.integers(0, 2 * 86_400)
    n = data.draw(st.integers(2, pm.m_max))
    query = Query(data.draw(poi), data.draw(stamp), data.draw(poi), data.draw(stamp), n)
    strategy, mode = strategy_mode
    cfg = DecodeConfig(
        strategy=strategy,
        top_k=data.draw(st.integers(1, k)),
        top_p=data.draw(st.floats(0.05, 1.0)),
        lam=data.draw(st.floats(0.0, 3.0)),
        adaptive_mode=mode,
        no_repeat_mask=mask,
        seed=seeds[1],
    )
    model_cfg = ModelConfig(arch=arch, embed_dim=8, num_layers=1, num_heads=2, hidden_dim=8, seed=seeds[0])
    params = init_params(model_cfg, k=k, m_max=pm.m_max)
    guidance = pm if guided else zero_guidance(k, pm.m_max)
    generators = [
        (decode_trip, (query, params, guidance, build_confidence(pm, k), cfg)),
        (markov_decode, (query, empirical_transitions(ts, k), cfg)),
    ]
    for decode, args in generators:
        trip, released = decode_noting_releases(decode, *args)
        check_trip(trip, query, k, distinct=mask and not released)
    counts = build_popularity(ts, k)
    if k - len({query.p_s, query.p_e}) < query.n - 2:
        with pytest.raises(ValueError, match="vocabulary too small"):
            popularity_decode(query, counts)
    else:
        trip, released = decode_noting_releases(popularity_decode, query, counts)
        assert not released
        check_trip(trip, query, k, distinct=True)


# --- bundles ------------------------------------------------------------------

BUNDLE_FILES = ("manifest.json", "params.bin", "guidance.bin")


@settings(max_examples=20, deadline=None)
@given(
    arch=st.sampled_from([ARCH_ONE_SHOT, ARCH_RECURRENT]),
    ts=trajectories(min_size=1),
    seed=st.integers(0, 2**16),
    mechanisms=st.tuples(st.booleans(), st.booleans(), st.booleans()),
)
def test_save_load_save_is_byte_identical(tmp_path_factory, arch, ts, seed, mechanisms):
    k = 6
    pm = build_guidance_matrix(ts, k)
    conf = build_confidence(pm, k)
    cfg = ModelConfig(arch=arch, embed_dim=8, num_layers=1, num_heads=2, hidden_dim=8, seed=seed)
    params = init_params(cfg, k=k, m_max=pm.m_max)
    switches = dict(zip(("guiding", "drifting", "adapting"), mechanisms))
    root = tmp_path_factory.mktemp("bundle")
    save_bundle(root / "first", params, pm, conf, switches, [100 + i for i in range(k)])
    bundle = load_bundle(root / "first")
    vocab = bundle.manifest["vocab_ids"]
    save_bundle(root / "second", bundle.params, bundle.pm, bundle.confidence, bundle.mechanisms, vocab)
    for name in BUNDLE_FILES:
        assert (root / "first" / name).read_bytes() == (root / "second" / name).read_bytes()
