import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from artrip import decoding
from artrip.data import Query, Trajectory
from artrip.decoding import (
    DecodeConfig,
    Trip,
    adaptive_sample,
    decode_config_for_query,
    decode_trip,
    greedy_pick,
    mask_repeats,
    nucleus_candidates,
    query_seed,
    softmax,
    top_k_sample,
    top_p_sample,
)
from artrip.guidance import (
    ConfidenceVector,
    build_confidence,
    build_guidance_matrix,
    zero_guidance,
)
from artrip.model import ARCH_ONE_SHOT, ARCH_RECURRENT, ModelConfig, init_params

K = 6


def log_probs(*probs):
    """Rows whose softmax is exactly the given distribution."""
    return np.log(np.array(probs, dtype=np.float64))


class TestConfig:
    def test_rejects_unknown_strategy(self):
        with pytest.raises(ValueError, match="strategy"):
            DecodeConfig(strategy="beam")

    def test_rejects_bad_top_p(self):
        with pytest.raises(ValueError):
            DecodeConfig(top_p=0.0)
        with pytest.raises(ValueError):
            DecodeConfig(top_p=1.5)
        DecodeConfig(top_p=1.0)  # closed upper end is allowed

    def test_rejects_bad_top_k_and_lam(self):
        with pytest.raises(ValueError):
            DecodeConfig(top_k=0)
        with pytest.raises(ValueError):
            DecodeConfig(lam=-0.1)

    @pytest.mark.parametrize("lam", [float("nan"), float("inf")])
    def test_rejects_non_finite_lam(self, lam):
        with pytest.raises(ValueError, match="lam"):
            DecodeConfig(lam=lam)


class TestGreedy:
    def test_picks_argmax(self):
        assert greedy_pick(np.array([0.1, 2.0, -1.0])) == 1

    def test_ties_break_to_lowest_index(self):
        assert greedy_pick(np.array([3.0, 5.0, 5.0, 1.0])) == 1


class TestNucleus:
    def test_candidates_cover_requested_mass(self):
        probs = np.array([0.5, 0.3, 0.15, 0.05])
        np.testing.assert_array_equal(nucleus_candidates(probs, 0.8), [0, 1])

    def test_exact_boundary_is_kept(self):
        probs = np.array([0.5, 0.3, 0.2])
        # cumulative hits 0.8 exactly after two entries
        np.testing.assert_array_equal(nucleus_candidates(probs, 0.8), [0, 1])

    def test_p_one_keeps_everything(self):
        probs = np.array([0.5, 0.3, 0.15, 0.05])
        assert len(nucleus_candidates(probs, 1.0)) == 4

    def test_renormalized_sampling_frequencies(self):
        row = log_probs(0.5, 0.3, 0.15, 0.05)
        rng = np.random.default_rng(0)
        draws = np.array([top_p_sample(row, 0.8, rng) for _ in range(4000)])
        freq0 = (draws == 0).mean()
        assert set(np.unique(draws)) == {0, 1}
        # renormalized nucleus: P(0) = 0.5 / 0.8 = 0.625
        assert freq0 == pytest.approx(0.625, abs=0.03)


class TestTopK:
    def test_restricts_to_k_best(self):
        row = log_probs(0.4, 0.3, 0.2, 0.1)
        rng = np.random.default_rng(1)
        draws = {top_k_sample(row, 2, rng) for _ in range(200)}
        assert draws == {0, 1}

    def test_k_larger_than_vocab_is_fine(self):
        row = log_probs(0.4, 0.3, 0.2, 0.1)
        rng = np.random.default_rng(1)
        assert top_k_sample(row, 99, rng) in {0, 1, 2, 3}

    def test_trace_records_candidates_and_choice(self):
        row = log_probs(0.4, 0.3, 0.2, 0.1)
        trace = []
        top_k_sample(row, 2, np.random.default_rng(2), trace)
        (candidates, choice), = trace
        assert candidates == (0, 1)
        assert choice in candidates


class TestAdaptive:
    def cfg(self, **kw):
        defaults = dict(strategy="adaptive", top_p=0.8, lam=1.0)
        defaults.update(kw)
        return DecodeConfig(**defaults)

    def test_full_confidence_equals_plain_top_p(self):
        row = log_probs(0.5, 0.3, 0.15, 0.05)
        for seed in range(20):
            a = adaptive_sample(row, 1.0, self.cfg(), np.random.default_rng(seed))
            b = top_p_sample(row, 0.8, np.random.default_rng(seed))
            assert a == b

    def test_lam_zero_equals_plain_top_p(self):
        row = log_probs(0.5, 0.3, 0.15, 0.05)
        for seed in range(20):
            a = adaptive_sample(row, 0.2, self.cfg(lam=0.0), np.random.default_rng(seed))
            b = top_p_sample(row, 0.8, np.random.default_rng(seed))
            assert a == b

    def test_low_confidence_widens_the_nucleus(self):
        row = np.array([3.0, 1.0, 0.0])
        confident, doubtful = [], []
        adaptive_sample(row, 1.0, self.cfg(), np.random.default_rng(0), confident)
        adaptive_sample(row, 0.0, self.cfg(lam=3.0), np.random.default_rng(0), doubtful)
        assert len(doubtful[0][0]) > len(confident[0][0])

    def test_threshold_mode_widens_mass_instead(self):
        row = log_probs(0.5, 0.3, 0.15, 0.05)
        trace = []
        cfg = self.cfg(adaptive_mode="threshold")
        # c = 0.5 -> p_j = 1 - 0.5 * 0.2 = 0.9 -> three candidates
        adaptive_sample(row, 0.5, cfg, np.random.default_rng(0), trace)
        assert trace[0][0] == (0, 1, 2)

    def test_threshold_mode_full_confidence_is_plain_top_p(self):
        row = log_probs(0.5, 0.3, 0.15, 0.05)
        trace = []
        adaptive_sample(row, 1.0, self.cfg(adaptive_mode="threshold"), np.random.default_rng(0), trace)
        assert trace[0][0] == (0, 1)


def reference_sample(probs, candidates, rng):
    """The draw through Generator.choice: the reference for the inverse CDF."""
    sel = probs[candidates]
    sel = sel / sel.sum()
    return int(rng.choice(candidates, p=sel))


class TestSample:
    def assert_matches_choice(self, probs, candidates, seed):
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        trace = []
        pick = decoding._sample(probs, candidates, ours, trace)
        assert pick == reference_sample(probs, candidates, theirs)
        assert trace == [(tuple(int(c) for c in candidates), pick)]
        # both leave the stream at the same place
        assert ours.random() == theirs.random()

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_generator_choice(self, seed):
        gen = np.random.default_rng(seed)
        for _ in range(300):
            k = int(gen.integers(1, 61))
            row = gen.standard_normal(k) * float(gen.choice([0.1, 1.0, 10.0]))
            probs = softmax(row)
            if gen.random() < 0.5:
                candidates = decoding._stable_desc_order(probs)[: int(gen.integers(1, k + 1))]
            else:
                candidates = nucleus_candidates(probs, float(gen.uniform(0.05, 1.0)))
            self.assert_matches_choice(probs, candidates, int(gen.integers(2**32)))

    @pytest.mark.parametrize("seed", range(4))
    def test_masked_row_zero_probability_candidates(self, seed):
        gen = np.random.default_rng(100 + seed)
        for _ in range(100):
            row = gen.standard_normal(K)
            used = {int(p) for p in gen.choice(K, size=int(gen.integers(1, K)), replace=False)}
            probs = softmax(mask_repeats(row, used, position=2))
            # every POI is a candidate, so the masked ones carry probability 0
            candidates = decoding._stable_desc_order(probs)
            assert (probs[candidates] == 0.0).any()
            self.assert_matches_choice(probs, candidates, int(gen.integers(2**32)))

    def test_single_candidate_nucleus(self):
        probs = softmax(np.array([9.0, 0.0, -1.0, 0.5]))
        candidates = nucleus_candidates(probs, 0.5)
        assert len(candidates) == 1
        for seed in range(20):
            self.assert_matches_choice(probs, candidates, seed)

    def test_draws_on_a_cdf_step_skip_zero_probability_candidates(self):
        class FixedDraw:
            def __init__(self, u):
                self.u = u

            def random(self):
                return self.u

        probs = np.array([0.0, 0.25, 0.0, 0.75])
        candidates = np.arange(4)
        # u lands exactly on the cdf values 0 and 0.25
        assert decoding._sample(probs, candidates, FixedDraw(0.0), None) == 1
        assert decoding._sample(probs, candidates, FixedDraw(0.25), None) == 3

    @pytest.mark.parametrize("bad", [np.nan, -0.25])
    def test_rejects_nan_or_negative_probabilities(self, bad):
        probs = np.array([0.5, bad, 0.75])
        with pytest.raises(ValueError, match="probabilities"):
            decoding._sample(probs, np.arange(3), np.random.default_rng(0), None)

    def test_nan_scores_raise_from_every_sampler(self):
        row = np.array([0.1, np.nan, 0.3, -0.2])
        with pytest.raises(ValueError):
            top_k_sample(row, 2, np.random.default_rng(0))
        with pytest.raises(ValueError):
            top_p_sample(row, 0.8, np.random.default_rng(0))
        for mode in ("temperature", "threshold"):
            cfg = DecodeConfig(strategy="adaptive", adaptive_mode=mode)
            with pytest.raises(ValueError):
                adaptive_sample(row, 0.5, cfg, np.random.default_rng(0))


class TestMask:
    def test_masks_used_entries(self):
        row = np.array([5.0, 4.0, 3.0])
        out = mask_repeats(row, {0, 2}, position=2)
        assert out[0] == -np.inf and out[2] == -np.inf
        assert out[1] == 4.0

    def test_releases_when_everything_is_used(self):
        row = np.array([5.0, 4.0])
        with pytest.warns(RuntimeWarning, match="releasing"):
            out = mask_repeats(row, {0, 1}, position=3)
        np.testing.assert_array_equal(out, row)

    def test_input_row_is_not_mutated(self):
        row = np.array([5.0, 4.0, 3.0])
        mask_repeats(row, {1}, position=2)
        assert row[1] == 4.0


class TestDecodeTrip:
    def setup_method(self):
        corpus = [
            Trajectory(pois=(0, 2, 3, 1), times=(0, 3600, 7200, 10800)),
            Trajectory(pois=(0, 4, 1), times=(0, 3600, 7200)),
            Trajectory(pois=(5, 2, 4, 1), times=(0, 3600, 7200)),
        ]
        self.pm = build_guidance_matrix(corpus, k=K)
        self.conf = build_confidence(self.pm, k=K)
        self.zero = zero_guidance(K, self.pm.m_max)

    def params(self, arch=ARCH_ONE_SHOT, seed=0):
        cfg = ModelConfig(arch=arch, embed_dim=8, num_layers=1, num_heads=2, hidden_dim=16, seed=seed)
        return init_params(cfg, k=K, m_max=self.pm.m_max)

    @pytest.mark.parametrize("arch", [ARCH_ONE_SHOT, ARCH_RECURRENT])
    def test_endpoints_and_length_are_forced(self, arch):
        q = Query(p_s=5, t_s=0, p_e=1, t_e=14400, n=5)
        trip = decode_trip(q, self.params(arch), self.pm, self.conf, DecodeConfig())
        assert len(trip) == 5
        assert trip.pois[0] == 5 and trip.pois[-1] == 1

    def test_two_stop_trip_has_no_interior(self):
        q = Query(p_s=0, t_s=0, p_e=1, t_e=3600, n=2)
        trip = decode_trip(q, self.params(), self.pm, self.conf, DecodeConfig())
        assert trip.pois == (0, 1)

    def test_rejects_degenerate_length(self):
        q = Query(p_s=0, t_s=0, p_e=1, t_e=3600, n=1)
        with pytest.raises(ValueError):
            decode_trip(q, self.params(), self.pm, self.conf, DecodeConfig())

    def test_greedy_is_deterministic_across_seeds(self):
        q = Query(p_s=0, t_s=0, p_e=1, t_e=14400, n=5)
        a = decode_trip(q, self.params(), self.pm, self.conf, DecodeConfig(seed=0))
        b = decode_trip(q, self.params(), self.pm, self.conf, DecodeConfig(seed=99))
        assert a == b

    @pytest.mark.parametrize("arch", [ARCH_ONE_SHOT, ARCH_RECURRENT])
    def test_greedy_builds_no_generator(self, arch, monkeypatch):
        q = Query(p_s=0, t_s=0, p_e=1, t_e=14400, n=5)
        params = self.params(arch)
        want = decode_trip(q, params, self.pm, self.conf, DecodeConfig())

        def no_generator(*args):
            raise AssertionError("greedy decoding built a Generator")

        monkeypatch.setattr(np.random, "default_rng", no_generator)
        assert decode_trip(q, params, self.pm, self.conf, DecodeConfig()) == want

    def test_sampling_is_deterministic_per_seed(self):
        q = Query(p_s=0, t_s=0, p_e=1, t_e=14400, n=5)
        cfg = DecodeConfig(strategy="top_p", top_p=0.95, seed=7)
        a = decode_trip(q, self.params(), self.pm, self.conf, cfg)
        b = decode_trip(q, self.params(), self.pm, self.conf, cfg)
        assert a == b

    @pytest.mark.parametrize("arch", [ARCH_ONE_SHOT, ARCH_RECURRENT])
    def test_no_repeat_mask_yields_distinct_stops(self, arch):
        q = Query(p_s=0, t_s=0, p_e=1, t_e=14400, n=5)
        cfg = DecodeConfig(no_repeat_mask=True)
        trip = decode_trip(q, self.params(arch), self.pm, self.conf, cfg)
        assert len(set(trip.pois)) == len(trip.pois)

    @pytest.mark.filterwarnings("ignore:position .* exceeds trained horizon")
    def test_mask_releases_when_trip_exceeds_vocab(self):
        # 6 POIs but 8 slots: the mask must eventually give way
        q = Query(p_s=0, t_s=0, p_e=1, t_e=28800, n=8)
        cfg = DecodeConfig(no_repeat_mask=True)
        with pytest.warns(RuntimeWarning, match="releasing"):
            trip = decode_trip(q, self.params(), self.pm, self.conf, cfg)
        assert len(trip) == 8

    def test_trace_covers_interior_positions(self):
        q = Query(p_s=0, t_s=0, p_e=1, t_e=14400, n=5)
        trace = []
        trip = decode_trip(q, self.params(), self.pm, self.conf, DecodeConfig(), trace)
        assert len(trace) == 3
        for (candidates, choice), poi in zip(trace, trip.pois[1:-1]):
            assert choice == poi
            assert candidates == (choice,)

    def test_guidance_changes_greedy_decodes(self):
        # with guidance strong enough, at least one query shifts
        params = self.params()
        changed = False
        for start, end in [(0, 1), (5, 1), (0, 4), (2, 1)]:
            q = Query(p_s=start, t_s=0, p_e=end, t_e=14400, n=5)
            guided = decode_trip(q, params, self.pm, self.conf, DecodeConfig())
            bare = decode_trip(q, params, self.zero, self.conf, DecodeConfig())
            changed = changed or guided != bare
        assert changed


PROPERTY_CORPUS = [
    Trajectory(pois=(0, 2, 3, 1), times=(0, 3600, 7200, 10800)),
    Trajectory(pois=(0, 4, 1), times=(0, 3600, 7200)),
    Trajectory(pois=(5, 2, 4, 1), times=(0, 3600, 7200, 10800)),
]
PROPERTY_PM = build_guidance_matrix(PROPERTY_CORPUS, k=K)
PROPERTY_CONF = build_confidence(PROPERTY_PM, k=K)


def property_params(arch):
    cfg = ModelConfig(arch=arch, embed_dim=8, num_layers=1, num_heads=2, hidden_dim=16, seed=5)
    return init_params(cfg, k=K, m_max=PROPERTY_PM.m_max)


# one model per arch for the whole module, so its memo stays warm across examples
WARM_PARAMS = {arch: property_params(arch) for arch in (ARCH_ONE_SHOT, ARCH_RECURRENT)}

queries = st.builds(
    Query,
    p_s=st.integers(0, K - 1),
    t_s=st.integers(0, 3 * 3600),
    p_e=st.integers(0, K - 1),
    t_e=st.integers(0, 2 * 86400),
    n=st.integers(2, PROPERTY_PM.m_max + 2),
)


@pytest.mark.filterwarnings("ignore:position:UserWarning")
@pytest.mark.filterwarnings("ignore:no-repeat mask:RuntimeWarning")
@pytest.mark.parametrize("mask", [False, True])
@pytest.mark.parametrize("strategy", decoding.STRATEGIES)
@pytest.mark.parametrize("arch", [ARCH_ONE_SHOT, ARCH_RECURRENT])
@settings(max_examples=25, deadline=None)
@given(query=queries, seed=st.integers(0, 2**16))
def test_decoded_trips_keep_their_shape_and_ignore_memo_state(arch, strategy, mask, query, seed):
    cfg = DecodeConfig(strategy=strategy, top_k=3, no_repeat_mask=mask, seed=seed)
    warm = WARM_PARAMS[arch]
    trip = decode_trip(query, warm, PROPERTY_PM, PROPERTY_CONF, cfg)
    assert len(trip) == query.n
    assert trip.pois[0] == query.p_s and trip.pois[-1] == query.p_e
    assert all(0 <= poi < K for poi in trip.pois)
    # the second warm decode reads its rows from the memo; a fresh model has none
    assert decode_trip(query, warm, PROPERTY_PM, PROPERTY_CONF, cfg) == trip
    cold = property_params(arch)
    assert decode_trip(query, cold, PROPERTY_PM, PROPERTY_CONF, cfg) == trip


class TestSeeds:
    def test_query_seed_is_xor(self):
        assert query_seed(12, 5) == 12 ^ 5
        assert query_seed(0, 0) == 0

    def test_distinct_ordinals_get_distinct_streams(self):
        seeds = {query_seed(1234, i) for i in range(50)}
        assert len(seeds) == 50

    def test_decode_config_for_query_only_touches_seed(self):
        cfg = DecodeConfig(strategy="top_k", top_k=3, seed=0)
        out = decode_config_for_query(cfg, base_seed=10, ordinal=4)
        assert out.seed == 14
        assert out.strategy == "top_k" and out.top_k == 3
        assert cfg.seed == 0  # original untouched


def test_trip_equality_and_len():
    assert Trip(pois=(1, 2, 3)) == Trip(pois=(1, 2, 3))
    assert len(Trip(pois=(1, 2, 3))) == 3


def test_softmax_sums_to_one():
    row = np.array([1000.0, 999.0, -5.0])
    s = softmax(row)
    assert s.sum() == pytest.approx(1.0)
    assert np.isfinite(s).all()
