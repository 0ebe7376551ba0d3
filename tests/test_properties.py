"""Invariants checked by hypothesis: metric oracles, corpus splits,
transition matrices and bundle round trips."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from artrip.analysis import TransitionMatrix, empirical_transitions, perturb
from artrip.data import Trajectory, make_query, split_corpus
from artrip.decoding import Trip
from artrip.guidance import build_confidence, build_guidance_matrix
from artrip.metrics import evaluate_decoder, f1_score, pairs_f1, trip_repetition
from artrip.model import ARCH_ONE_SHOT, ARCH_RECURRENT, ModelConfig, init_params, load_bundle, save_bundle

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
    for matrix in empirical_transitions(ts, k):
        assert matrix.values.shape == (k, k)
        assert (matrix.values >= 0.0).all()
        np.testing.assert_allclose(matrix.values.sum(axis=1), 1.0, rtol=0, atol=1e-12)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 12), noise_seed=st.integers(0, 2**16))
def test_perturb_with_zero_sigma_is_the_identity_bit_for_bit(seed, k, noise_seed):
    gen = np.random.default_rng(seed)
    values = gen.dirichlet(np.ones(k), size=k) * (gen.random((k, k)) < 0.7)
    matrix = TransitionMatrix(values=values, position=1 + int(gen.integers(5)), uniform_rows=(0,))
    out = perturb(matrix, 0.0, noise_seed)
    assert out.values.tobytes() == matrix.values.tobytes()
    assert out.values is not matrix.values
    assert (out.position, out.uniform_rows) == (matrix.position, matrix.uniform_rows)


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
