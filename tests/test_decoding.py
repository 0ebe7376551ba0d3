import itertools
import math
import warnings
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from artrip import decoding
from artrip.config import (
    ADAPTIVE_MODES,
    ARCH_ONE_SHOT,
    ARCH_RECURRENT,
    STRATEGIES,
    ConfigError,
    DecodeConfig,
    ModelConfig,
    load_config,
)
from artrip.data import Query, Trajectory, input_key, make_query
from artrip.decoding import (
    Trip,
    adaptive_sample,
    decode_config_for_query,
    decode_trip,
    greedy_pick,
    mask_repeats,
    top_k_sample,
    top_p_sample,
)
from artrip.guidance import (
    GuidanceMatrix,
    build_confidence,
    build_guidance_matrix,
    zero_guidance,
)
from artrip.metrics import evaluate_decoder
from artrip.model.one_shot import forward_one_shot
from artrip.model.params import init_params
from artrip.model.recurrent import forward_recurrent_step, init_recurrent_state

K = 6


def forbid_decoding(monkeypatch, what):
    """Make the forward passes and the decode loop raise, so a check seen to fire came before any work."""

    def no_work(*args):
        raise AssertionError(f"decoding started on {what}")

    for name in ("forward_one_shot", "init_recurrent_state", "_walk"):
        monkeypatch.setattr(decoding, name, no_work)


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

    @pytest.mark.parametrize("seed", ["7", 7.0, [7, 1], (7, "1"), (7, 1.0), None], ids=repr)
    def test_rejects_a_seed_that_is_no_integer_or_tuple_of_integers(self, seed):
        with pytest.raises(ConfigError, match=r"^seed must be an integer or a tuple of integers, got "):
            DecodeConfig(strategy="top_p", seed=seed)

    @pytest.mark.parametrize("seed", [7, np.int64(7), True, (7, 1), (np.uint32(7), 1), (7, 1, 2)], ids=repr)
    def test_accepts_integer_and_tuple_seeds(self, seed):
        assert DecodeConfig(strategy="top_p", seed=seed).seed is seed


class TestGreedy:
    def test_picks_argmax(self):
        assert greedy_pick(np.array([0.1, 2.0, -1.0])) == 1

    def test_ties_break_to_lowest_index(self):
        assert greedy_pick(np.array([3.0, 5.0, 5.0, 1.0])) == 1


def nucleus_of(probs, p):
    """The candidates top_p_sample keeps for a row whose softmax is `probs`."""
    trace = []
    top_p_sample(np.log(np.asarray(probs, dtype=np.float64)), p, np.random.default_rng(0), trace)
    return trace[0][0]


class TestNucleus:
    def test_candidates_cover_requested_mass(self):
        assert nucleus_of([0.5, 0.3, 0.15, 0.05], 0.8) == (0, 1)

    def test_exact_boundary_is_kept(self):
        # cumulative hits 0.8 after two entries, up to the rounding of log and exp
        assert nucleus_of([0.5, 0.3, 0.2], 0.8) == (0, 1)

    def test_p_one_keeps_everything(self):
        assert len(nucleus_of([0.5, 0.3, 0.15, 0.05], 1.0)) == 4

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


# The softmax -> candidates -> Generator.choice chain that the fused draw
# replaced, kept as the reference for its picks and its random stream.


def reference_softmax(row):
    shifted = row - row.max()
    e = np.exp(shifted)
    return e / e.sum()


def reference_order(probs):
    return np.argsort(-probs, kind="stable")


def reference_nucleus(probs, p):
    order = reference_order(probs)
    cum = np.cumsum(probs[order])
    cut = int(np.searchsorted(cum, p - 1e-12)) + 1
    return order[:cut]


def reference_draw(row, strategy, rng, k=5, p=0.8, confidence=1.0, lam=1.0):
    """(pick, candidates) of one selection through Generator.choice."""
    if strategy == "top_k":
        probs = reference_softmax(row)
        candidates = reference_order(probs)[: min(k, len(row))]
    elif strategy == "top_p":
        probs = reference_softmax(row)
        candidates = reference_nucleus(probs, p)
    elif strategy == "temperature":
        probs = reference_softmax(row / (1.0 + lam * (1.0 - confidence)))
        candidates = reference_nucleus(probs, p)
    else:
        probs = reference_softmax(row)
        candidates = reference_nucleus(probs, 1.0 - confidence * (1.0 - p))
    sel = probs[candidates]
    sel = sel / sel.sum()
    return int(rng.choice(candidates, p=sel)), tuple(int(c) for c in candidates)


def sampler_draw(row, strategy, rng, trace, k=5, p=0.8, confidence=1.0, lam=1.0):
    if strategy == "greedy":
        return greedy_pick(row)
    if strategy == "top_k":
        return top_k_sample(row, k, rng, trace)
    if strategy == "top_p":
        return top_p_sample(row, p, rng, trace)
    cfg = DecodeConfig(strategy="adaptive", adaptive_mode=strategy, top_p=p, lam=lam)
    return adaptive_sample(row, confidence, cfg, rng, trace)


def assert_matches_choice(row, strategy, seed, **knobs):
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    trace = []
    pick = sampler_draw(row, strategy, ours, trace, **knobs)
    want, candidates = reference_draw(row, strategy, theirs, **knobs)
    assert pick == want
    assert trace == [(candidates, pick)]
    # both leave the stream at the same place
    assert ours.random() == theirs.random()
    return candidates


class FixedDraw:
    """A stand-in generator whose every draw is u."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


class TestSample:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_generator_choice(self, seed):
        gen = np.random.default_rng(seed)
        for _ in range(300):
            k = int(gen.integers(1, 61))
            row = gen.standard_normal(k) * float(gen.choice([0.1, 1.0, 10.0]))
            strategy = str(gen.choice(["top_k", "top_p"]))
            knobs = dict(k=int(gen.integers(1, k + 1)), p=float(gen.uniform(0.05, 1.0)))
            assert_matches_choice(row, strategy, int(gen.integers(2**32)), **knobs)

    @pytest.mark.parametrize("seed", range(4))
    def test_masked_row_zero_probability_candidates(self, seed):
        gen = np.random.default_rng(100 + seed)
        for _ in range(100):
            row = gen.standard_normal(K)
            used = {int(p) for p in gen.choice(K, size=int(gen.integers(1, K)), replace=False)}
            # every POI is a candidate, so the masked ones carry probability 0
            masked = mask_repeats(row, used, position=2)
            candidates = assert_matches_choice(masked, "top_k", int(gen.integers(2**32)), k=K)
            assert np.isneginf(masked[list(candidates)]).any()

    def test_single_candidate_nucleus(self):
        row = np.array([9.0, 0.0, -1.0, 0.5])
        for seed in range(20):
            assert len(assert_matches_choice(row, "top_p", seed, p=0.5)) == 1

    def test_draws_on_a_cdf_step_skip_zero_probability_candidates(self):
        with np.errstate(divide="ignore"):
            row = np.log(np.array([0.0, 0.25, 0.0, 0.75]))
        # candidates in stable order are (3, 1, 0, 2); u lands on the cdf
        # values 0 and 0.75, and just below 1 where the zero-mass tail begins
        assert top_k_sample(row, 4, FixedDraw(0.0)) == 3
        assert top_k_sample(row, 4, FixedDraw(0.75)) == 1
        assert top_k_sample(row, 4, FixedDraw(np.nextafter(1.0, 0.0))) == 1

    def test_draws_on_every_cdf_step_match_choice(self):
        # Generator.choice builds its cdf from p = sel / sel.sum(); a draw
        # that lands exactly on a step must pick as that cdf says
        gen = np.random.default_rng(7)
        for _ in range(300):
            size = int(gen.integers(2, 40))
            row = gen.standard_normal(size) * float(gen.choice([0.1, 1.0, 10.0]))
            probs = reference_softmax(row)
            candidates = reference_order(probs)
            sel = probs[candidates]
            cdf = (sel / sel.sum()).cumsum()
            cdf /= cdf[-1]
            # random() never returns 1.0
            for u in cdf[cdf < 1.0]:
                for v in (u, np.nextafter(u, 0.0)):
                    want = int(candidates[cdf.searchsorted(v, side="right")])
                    assert top_k_sample(row, size, FixedDraw(v)) == want

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_nan_or_negative_probabilities(self, bad):
        # exp never goes negative, so NaN (a NaN score, or inf - inf) is
        # what the check can meet
        row = np.array([0.5, bad, 0.75])
        with pytest.raises(ValueError, match="probabilities"), np.errstate(invalid="ignore"):
            top_k_sample(row, 3, np.random.default_rng(0))

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

    def test_extreme_scores_draw_like_choice(self):
        # a naive exp would overflow; the max shift keeps every mass finite
        row = np.array([1000.0, 999.0, -5.0])
        for seed in range(20):
            assert assert_matches_choice(row, "top_p", seed, p=1.0) == (0, 1)
            assert len(assert_matches_choice(row, "top_k", seed, k=3)) == 3


def markov_row(gen, k):
    """Log transition probabilities with zero entries, as the Markov baseline scores."""
    probs = gen.dirichlet(np.ones(k)) * (gen.random(k) < 0.5)
    probs[int(gen.integers(k))] += 1.0
    probs /= probs.sum()
    with np.errstate(divide="ignore"):
        return np.log(probs)


@settings(max_examples=400, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    size=st.integers(1, 60),
    kind=st.sampled_from(["plain", "masked", "markov"]),
    strategy=st.sampled_from(["top_k", "top_p", "temperature", "threshold"]),
    k=st.integers(1, 70),
    p=st.floats(0.01, 1.0),
    confidence=st.floats(0.0, 1.0),
    lam=st.floats(0.0, 5.0),
)
def test_fused_draw_matches_generator_choice(seed, size, kind, strategy, k, p, confidence, lam):
    gen = np.random.default_rng(seed)
    row = gen.standard_normal(size) * float(gen.choice([0.1, 1.0, 10.0, 100.0]))
    if kind == "masked":
        used = {int(i) for i in gen.choice(size, size=int(gen.integers(0, size + 1)), replace=False)}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            row = mask_repeats(row, used, position=2)
    elif kind == "markov":
        row = markov_row(gen, size)
    assert_matches_choice(row, strategy, int(gen.integers(2**32)), k=k, p=p, confidence=confidence, lam=lam)


@pytest.mark.parametrize("strategy", ["greedy", "top_k", "top_p", "temperature", "threshold"])
@pytest.mark.parametrize(
    "row",
    [[0.1, np.nan, 0.3], [0.1, np.inf, 0.3], [-np.inf, -np.inf, -np.inf], [np.nan, np.inf, -np.inf]],
    ids=["nan", "inf", "all-minus-inf", "mixed"],
)
def test_non_finite_rows_raise_before_the_stream_moves(strategy, row):
    rng = np.random.default_rng(11)
    with pytest.raises(ValueError, match="probabilities"):
        sampler_draw(np.array(row), strategy, rng, None, k=2, confidence=0.5)
    assert rng.random() == np.random.default_rng(11).random()


def reference_mask_repeats(row, used, position):
    """The release rule one score at a time: release when none is finite."""
    out = row.copy()
    out[list(used)] = -np.inf
    if not any(math.isfinite(score) for score in out.tolist()):
        warnings.warn(
            f"no-repeat mask exhausted the vocabulary at position {position}; releasing it",
            RuntimeWarning,
            stacklevel=2,
        )
        return row.copy()
    return out


def masked_with_warnings(mask, row, used):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = mask(row, used, 4)
    return out.tobytes(), [(w.category, str(w.message)) for w in caught]


@settings(max_examples=300, deadline=None)
@given(
    row=st.lists(
        st.one_of(st.floats(-50, 50), st.sampled_from([-np.inf, np.inf, np.nan])), min_size=1, max_size=12
    ),
    data=st.data(),
)
def test_mask_release_matches_the_full_finiteness_test(row, data):
    row = np.array(row)
    # used sets from empty to the whole row
    used = data.draw(st.sets(st.integers(0, row.size - 1), max_size=row.size))
    if data.draw(st.booleans()):
        used = set(range(row.size))
    assert masked_with_warnings(mask_repeats, row, used) == masked_with_warnings(reference_mask_repeats, row, used)


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
            Trajectory(pois=(5, 2, 4, 1), times=(0, 3600, 7200, 10800)),
            # the longest route sets the horizon the 5-stop queries below need
            Trajectory(pois=(0, 3, 2, 4, 1), times=(0, 3600, 7200, 10800, 14400)),
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

    @pytest.mark.parametrize("arch", [ARCH_ONE_SHOT, ARCH_RECURRENT])
    @pytest.mark.parametrize("n", [0, 1])
    def test_degenerate_length_is_named_before_the_forward_pass(self, arch, n):
        q = Query(p_s=0, t_s=0, p_e=1, t_e=3600, n=n)
        with pytest.raises(ValueError, match="endpoint"):
            decode_trip(q, self.params(arch), self.pm, self.conf, DecodeConfig())

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

    def test_mask_releases_when_trip_exceeds_vocab(self):
        # 3 POIs but 5 slots, inside the horizon: the mask must eventually give way
        small = [Trajectory(pois=(0, 2, 1, 2, 1), times=(0, 3600, 7200, 10800, 14400))]
        pm = build_guidance_matrix(small, k=3)
        q = Query(p_s=0, t_s=0, p_e=1, t_e=14400, n=5)
        for arch in (ARCH_ONE_SHOT, ARCH_RECURRENT):
            cfg = ModelConfig(arch=arch, embed_dim=8, num_layers=1, num_heads=2, hidden_dim=16, seed=0)
            params = init_params(cfg, k=3, m_max=pm.m_max)
            with pytest.warns(RuntimeWarning, match="releasing"):
                trip = decode_trip(q, params, pm, build_confidence(pm, k=3), DecodeConfig(no_repeat_mask=True))
            assert len(trip) == 5

    @pytest.mark.parametrize("arch", [ARCH_ONE_SHOT, ARCH_RECURRENT])
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_trip_past_the_horizon_is_rejected_before_any_step(self, arch, strategy, monkeypatch):
        params = self.params(arch)
        q = Query(p_s=0, t_s=0, p_e=1, t_e=14400, n=self.pm.m_max + 1)
        forbid_decoding(monkeypatch, "an over-long query")
        with pytest.raises(ValueError, match=f"trip length n={q.n} exceeds the horizon m_max={self.pm.m_max}"):
            decode_trip(q, params, self.pm, self.conf, DecodeConfig(strategy=strategy))

    @pytest.mark.parametrize("arch", [ARCH_ONE_SHOT, ARCH_RECURRENT])
    @pytest.mark.parametrize("p_s, p_e, bad", [(-1, 1, -1), (0, K, K)])
    def test_an_endpoint_outside_the_vocabulary_is_rejected_before_any_forward(self, arch, p_s, p_e, bad, monkeypatch):
        params = self.params(arch)
        q = Query(p_s=p_s, t_s=0, p_e=p_e, t_e=14400, n=5)
        forbid_decoding(monkeypatch, "a query outside the vocabulary")
        with pytest.raises(ValueError, match=f"POI index {bad} out of range for k={K}"):
            decode_trip(q, params, self.pm, self.conf, DecodeConfig())

    @pytest.mark.parametrize("arch", [ARCH_ONE_SHOT, ARCH_RECURRENT])
    @pytest.mark.parametrize("k", [1, 4])
    def test_a_guidance_matrix_over_other_pois_is_rejected_before_any_forward(self, arch, k, monkeypatch):
        # one column would broadcast over every POI; four would fail inside numpy after the forward pass
        params = self.params(arch)
        q = Query(p_s=0, t_s=0, p_e=3, t_e=14400, n=4)
        pm = GuidanceMatrix(values=self.pm.values[:k].copy(), poi_totals=self.pm.poi_totals[:k].copy())
        forbid_decoding(monkeypatch, "guidance over other POIs")
        with pytest.raises(ValueError, match=f"^guidance matrix covers {k} POIs but the model scores k={K}$"):
            decode_trip(q, params, pm, self.conf, DecodeConfig())

    @pytest.mark.parametrize("arch", [ARCH_ONE_SHOT, ARCH_RECURRENT])
    def test_a_short_confidence_vector_is_rejected_before_any_forward(self, arch, monkeypatch):
        params = self.params(arch)
        q = Query(p_s=0, t_s=0, p_e=1, t_e=14400, n=5)
        # only adaptive decoding reads confidence, and only for interior positions
        decode_trip(q, params, self.pm, self.conf[:0], DecodeConfig(strategy="top_p", seed=3))
        decode_trip(replace(q, n=2), params, self.pm, self.conf[:0], DecodeConfig(strategy="adaptive", seed=3))
        forbid_decoding(monkeypatch, "a query past its confidence vector")
        with pytest.raises(ValueError, match=r"^position=4 exceeds the horizon m_max=3, the longest"):
            decode_trip(q, params, self.pm, self.conf[:3], DecodeConfig(strategy="adaptive", seed=3))

    @pytest.mark.parametrize("arch", [ARCH_ONE_SHOT, ARCH_RECURRENT])
    def test_guidance_needs_a_horizon_of_n_minus_one(self, arch):
        # only positions 2..n-1 are guided, so the columns past n - 1 are never read
        params = self.params(arch)
        q = Query(p_s=0, t_s=0, p_e=1, t_e=14400, n=5)
        short = GuidanceMatrix(values=self.pm.values[:, : q.n - 1].copy(), poi_totals=self.pm.poi_totals)
        for cfg in (DecodeConfig(), DecodeConfig(strategy="top_p", seed=4)):
            assert decode_trip(q, params, short, self.conf, cfg) == decode_trip(q, params, self.pm, self.conf, cfg)
        too_short = zero_guidance(K, q.n - 2)
        with pytest.raises(ValueError) as err:
            decode_trip(q, params, too_short, self.conf, DecodeConfig())
        assert str(err.value) == "last position=4 exceeds the horizon m_max=3, the longest training route"

    @pytest.mark.parametrize("arch", [ARCH_ONE_SHOT, ARCH_RECURRENT])
    @pytest.mark.parametrize("strategy", ["greedy", "top_p"])
    def test_a_nan_score_is_refused_by_greedy_as_by_the_samplers(self, arch, strategy):
        # argmax alone would pick the NaN POI at every interior position
        params = self.params(arch)
        params.blocks["head"][:, 5] = np.nan
        q = Query(p_s=0, t_s=0, p_e=1, t_e=14400, n=5)
        with pytest.raises(ValueError, match="^probabilities contain NaN or are negative$"):
            decode_trip(q, params, self.pm, self.conf, DecodeConfig(strategy=strategy, seed=3))

    def test_adaptive_confidence_lookup_is_one_based(self):
        # threshold mode: confidence 1 keeps the 1e-9 nucleus, one POI; 0 widens it to every POI
        q = Query(p_s=0, t_s=0, p_e=1, t_e=14400, n=5)
        cfg = DecodeConfig(strategy="adaptive", adaptive_mode="threshold", top_p=1e-9, seed=3)
        for arch in (ARCH_ONE_SHOT, ARCH_RECURRENT):
            trace = []
            decode_trip(q, self.params(arch), self.pm, np.array([0.0, 1.0, 0.0, 1.0, 0.0]), cfg, trace)
            # positions 2, 3 and 4 read conf[1], conf[2] and conf[3]
            assert [len(candidates) for candidates, _ in trace] == [1, K, 1]
            with pytest.raises(ValueError, match=r"^position=4 exceeds the horizon m_max=3, the longest"):
                decode_trip(q, self.params(arch), self.pm, self.conf[:3], cfg)

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
PROPERTY_ZERO = zero_guidance(K, PROPERTY_PM.m_max)


def property_params(arch):
    cfg = ModelConfig(arch=arch, embed_dim=8, num_layers=1, num_heads=2, hidden_dim=16, seed=5)
    return init_params(cfg, k=K, m_max=PROPERTY_PM.m_max)


# one model per arch for the whole module, so its plans stay warm across examples
WARM_PARAMS = {arch: property_params(arch) for arch in (ARCH_ONE_SHOT, ARCH_RECURRENT)}

queries = st.builds(
    Query,
    p_s=st.integers(0, K - 1),
    t_s=st.integers(0, 3 * 3600),
    p_e=st.integers(0, K - 1),
    t_e=st.integers(0, 2 * 86400),
    n=st.integers(2, PROPERTY_PM.m_max),
)


@pytest.mark.filterwarnings("ignore:no-repeat mask:RuntimeWarning")
@pytest.mark.parametrize("alternate", [False, True])
@pytest.mark.parametrize("mask", [False, True])
@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("arch", [ARCH_ONE_SHOT, ARCH_RECURRENT])
@settings(max_examples=25, deadline=None)
@given(query=queries, seed=st.integers(0, 2**16))
def test_decoded_trips_keep_their_shape_and_ignore_memo_state(arch, strategy, mask, alternate, query, seed):
    cfg = DecodeConfig(strategy=strategy, top_k=3, no_repeat_mask=mask, seed=seed)
    warm = WARM_PARAMS[arch]
    # alternating, the warm model holds a plan of the query under each matrix and reads them in turn
    for pm in (PROPERTY_PM, PROPERTY_ZERO) * 2 if alternate else (PROPERTY_PM,):
        trip = decode_trip(query, warm, pm, PROPERTY_CONF, cfg)
        assert len(trip) == query.n
        assert trip.pois[0] == query.p_s and trip.pois[-1] == query.p_e
        assert all(0 <= poi < K for poi in trip.pois)
        # the second warm decode reads the query's plan; a fresh model has none
        assert decode_trip(query, warm, pm, PROPERTY_CONF, cfg) == trip
        cold = property_params(arch)
        assert decode_trip(query, cold, pm, PROPERTY_CONF, cfg) == trip


def reference_recurrent_decode(query, params, pm, conf, cfg, trace):
    """The recurrent loop that guided each step by its own 1 + pm column."""
    rng = None if cfg.strategy == "greedy" else np.random.default_rng(cfg.seed)
    pois, used = [query.p_s], {query.p_s, query.p_e}
    state, prev = init_recurrent_state(query, params), query.p_s
    for position in range(2, query.n):
        raw, state = forward_recurrent_step(state, prev, params)
        row = raw * (1.0 + pm.values[:, position - 1])
        if cfg.no_repeat_mask:
            row = mask_repeats(row, used, position)
        if cfg.strategy == "greedy":
            prev = greedy_pick(row)
            trace.append(((prev,), prev))
        else:
            prev = decoding._pick(decoding._nucleus(row, *decoding._settings(position, conf, cfg)), rng, trace)
        pois.append(prev)
        used.add(prev)
    return Trip(pois=(*pois, query.p_e))


def reference_one_shot_decode(query, params, pm, conf, cfg, trace):
    """The one-shot decode that guided all n score rows by 1 + pm, transposed."""
    guided = forward_one_shot(query, params) * (1.0 + pm.values.T[: query.n])
    return decoding._walk(query, lambda position, prev: guided[position - 1], conf, cfg, trace)


def decode_with_warnings(decode, *args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        trip = decode(*args)
    return trip, [(type(w.message), str(w.message)) for w in caught]


@pytest.mark.parametrize("mask", [False, True])
@pytest.mark.parametrize("strategy", STRATEGIES)
@settings(max_examples=25, deadline=None)
@given(query=queries, seed=st.integers(0, 2**16), mode=st.sampled_from(ADAPTIVE_MODES))
def test_recurrent_guidance_sliced_once_matches_per_step_guidance(strategy, mask, query, seed, mode):
    cfg = DecodeConfig(strategy=strategy, top_k=3, adaptive_mode=mode, no_repeat_mask=mask, seed=seed)
    params = WARM_PARAMS[ARCH_RECURRENT]
    args = (query, params, PROPERTY_PM, PROPERTY_CONF, cfg)
    trace, ref_trace = [], []
    trip, warned = decode_with_warnings(decode_trip, *args, trace)
    ref, ref_warned = decode_with_warnings(reference_recurrent_decode, *args, ref_trace)
    assert trip == ref
    assert trace == ref_trace
    # mask releases where they were
    assert sorted(warned) == sorted(ref_warned)


@pytest.mark.parametrize("mask", [False, True])
@pytest.mark.parametrize("strategy", STRATEGIES)
@settings(max_examples=25, deadline=None)
@given(query=queries, seed=st.integers(0, 2**16), mode=st.sampled_from(ADAPTIVE_MODES))
def test_one_shot_interior_guidance_matches_guiding_every_row(strategy, mask, query, seed, mode):
    cfg = DecodeConfig(strategy=strategy, top_k=3, adaptive_mode=mode, no_repeat_mask=mask, seed=seed)
    args = (query, WARM_PARAMS[ARCH_ONE_SHOT], PROPERTY_PM, PROPERTY_CONF, cfg)
    trace, ref_trace = [], []
    trip, warned = decode_with_warnings(decode_trip, *args, trace)
    ref, ref_warned = decode_with_warnings(reference_one_shot_decode, *args, ref_trace)
    assert (trip, trace, sorted(warned)) == (ref, ref_trace, sorted(ref_warned))


# the sampled strategies, adaptive in both modes
SAMPLED = [("top_k", "temperature"), ("top_p", "temperature"), ("adaptive", "temperature"), ("adaptive", "threshold")]


def nucleus_entries(params):
    """(input key, matrix, settings) -> nuclei for each nucleus entry of `params`'s store; a plan's key has two parts."""
    return {key: nuclei for key, nuclei in params.plans.items() if len(key) == 3}


def all_planned(query, arch):
    """Whether the plan of `query` holds every interior row: always one-shot, recurrent only for three stops."""
    return arch == ARCH_ONE_SHOT or query.n == 3


@pytest.mark.parametrize("traced", [False, True])
@pytest.mark.parametrize("mask", [False, True])
@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("arch", [ARCH_ONE_SHOT, ARCH_RECURRENT])
@settings(max_examples=15, deadline=None)
@given(query=queries, seed=st.integers(0, 2**16), mode=st.sampled_from(ADAPTIVE_MODES))
def test_a_warm_plan_decodes_as_an_undecoded_copy(arch, strategy, mask, traced, query, seed, mode):
    cfg = DecodeConfig(strategy=strategy, top_k=3, adaptive_mode=mode, no_repeat_mask=mask, seed=seed)
    warm = WARM_PARAMS[arch]
    # a decode on another seed leaves the query's plan, with a fully planned unmasked sampled decode's nuclei
    decode_trip(query, warm, PROPERTY_PM, PROPERTY_CONF, replace(cfg, seed=seed + 1))
    assert query.n == 2 or (input_key(query), PROPERTY_PM) in warm.plans
    if query.n > 2 and all_planned(query, arch) and strategy != "greedy" and not mask:
        held = tuple(decoding._settings(position, PROPERTY_CONF, cfg) for position in range(2, query.n))
        assert len(warm.plans[(input_key(query), PROPERTY_PM, held)]) == query.n - 2
    cold = property_params(arch)
    assert cold.flat.flags.writeable and not cold.plans
    assert np.array_equal(cold.flat, warm.flat)
    trace, cold_trace = ([], []) if traced else (None, None)
    got = decode_with_warnings(decode_trip, query, warm, PROPERTY_PM, PROPERTY_CONF, cfg, trace)
    want = decode_with_warnings(decode_trip, query, cold, PROPERTY_PM, PROPERTY_CONF, cfg, cold_trace)
    assert (got, trace) == (want, cold_trace)


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("mask", [False, True])
@pytest.mark.parametrize("strategy, mode", SAMPLED)
@pytest.mark.parametrize("arch", [ARCH_ONE_SHOT, ARCH_RECURRENT])
def test_only_an_unmasked_decode_whose_rows_are_all_planned_keeps_nuclei(arch, strategy, mode, mask, n, monkeypatch):
    params = property_params(arch)
    query = Query(p_s=0, t_s=0, p_e=1, t_e=10800, n=n)
    cfg = DecodeConfig(strategy=strategy, top_k=3, adaptive_mode=mode, no_repeat_mask=mask, seed=2)
    built = []

    def counting(*args, **kwargs):
        built.append(args)
        return nucleus(*args, **kwargs)

    nucleus = decoding._nucleus
    monkeypatch.setattr(decoding, "_nucleus", counting)
    # two repeats, each on its own seed, under one setting
    repeats = [replace(cfg, seed=seed) for seed in (2, 3)]
    warm = [(decode_trip(query, params, PROPERTY_PM, PROPERTY_CONF, each, trace := []), trace) for each in repeats]
    kept = all_planned(query, arch) and not mask
    # a (candidates, cdf) per interior position, built once, or none where a row reads earlier picks
    assert len(built) == (n - 2) * (1 if kept else 2)
    held = [[len(nucleus) for nucleus in nuclei] for nuclei in nucleus_entries(params).values()]
    assert held == ([[2] * (n - 2)] if kept else [])
    assert len(params.plans) == 1 + len(held)
    monkeypatch.undo()
    for each, got in zip(repeats, warm):
        cold = property_params(arch)
        assert got == (decode_trip(query, cold, PROPERTY_PM, PROPERTY_CONF, each, trace := []), trace)


@pytest.mark.parametrize("arch", [ARCH_ONE_SHOT, ARCH_RECURRENT])
def test_a_released_mask_warns_on_every_decode(arch):
    # two POIs, both endpoints: position 2's mask empties the row on every decode
    pm = build_guidance_matrix([Trajectory(pois=(0, 1, 0, 1), times=(0, 3600, 7200, 10800))], k=2)
    cfg = ModelConfig(arch=arch, embed_dim=8, num_layers=1, num_heads=2, hidden_dim=16, seed=5)
    params = init_params(cfg, k=2, m_max=pm.m_max)
    query = Query(p_s=0, t_s=0, p_e=1, t_e=7200, n=3)
    decode_cfg = DecodeConfig(strategy="top_p", no_repeat_mask=True, seed=4)
    runs = [decode_with_warnings(decode_trip, query, params, pm, build_confidence(pm, 2), decode_cfg) for _ in range(2)]
    assert runs[0] == runs[1]
    assert runs[0][1] == [(RuntimeWarning, "no-repeat mask exhausted the vocabulary at position 2; releasing it")]


def test_each_setting_a_nucleus_reads_gets_its_own_entry():
    arch = ARCH_ONE_SHOT
    params = property_params(arch)
    query = Query(p_s=0, t_s=0, p_e=1, t_e=10800, n=4)
    edited = PROPERTY_CONF.copy()
    edited[1:3] = 0.25
    assert not np.array_equal(edited[1:3], PROPERTY_CONF[1:3])
    base = DecodeConfig(strategy="adaptive", seed=7)
    runs = [
        (PROPERTY_PM, PROPERTY_CONF, base),
        (PROPERTY_ZERO, PROPERTY_CONF, base),
        (PROPERTY_PM, edited, base),
        (PROPERTY_PM, PROPERTY_CONF, replace(base, lam=2.5)),
        (PROPERTY_PM, PROPERTY_CONF, replace(base, top_p=0.6)),
        (PROPERTY_PM, PROPERTY_CONF, replace(base, strategy="top_k")),
        (PROPERTY_PM, PROPERTY_CONF, replace(base, strategy="top_k", top_k=2)),
    ]
    for i, (pm, conf, cfg) in enumerate(runs * 2):
        trip, trace, cold_trace = decode_trip(query, params, pm, conf, cfg, trace := []), trace, []
        assert (trip, trace) == (decode_trip(query, property_params(arch), pm, conf, cfg, cold_trace), cold_trace)
        # one new nucleus entry per setting, the zero matrix's beside a plan of its own; the second round reads them
        assert len(nucleus_entries(params)) == min(i + 1, len(runs))
    assert len(params.plans) == 2 + len(runs)
    held = [array for nuclei in nucleus_entries(params).values() for nucleus in nuclei for array in nucleus]
    assert held and not any(array.flags.writeable for array in held)


@pytest.mark.filterwarnings("ignore:no-repeat mask:RuntimeWarning")
@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("position", [2, 3])
@pytest.mark.parametrize("mask", [False, True])
@pytest.mark.parametrize("arch", [ARCH_ONE_SHOT, ARCH_RECURRENT])
def test_a_row_with_a_non_finite_maximum_raises_on_every_decode(arch, mask, position, bad):
    values = PROPERTY_PM.values.copy()
    values[:, position - 1] = bad
    pm = GuidanceMatrix(values=values, poi_totals=PROPERTY_PM.poi_totals.copy())
    params = property_params(arch)
    query = Query(p_s=0, t_s=0, p_e=1, t_e=10800, n=4)
    cfg = DecodeConfig(strategy="top_p", no_repeat_mask=mask, seed=3)
    traces = []
    for _ in range(2):
        traces.append([])
        with pytest.raises(ValueError, match="probabilities contain NaN"):
            decode_trip(query, params, pm, PROPERTY_CONF, cfg, traces[-1])
    # a decode that keeps nuclei builds them all before its first pick; any other picks the positions before the bad one
    assert traces[0] == traces[1] and len(traces[0]) == (0 if all_planned(query, arch) and not mask else position - 2)
    # and a raise keeps no nucleus entry, only the plan
    assert list(params.plans) == [(input_key(query), pm)]


@pytest.mark.parametrize("mask", [False, True])
@pytest.mark.parametrize("arch", [ARCH_ONE_SHOT, ARCH_RECURRENT])
def test_a_greedy_decode_adds_no_nucleus(arch, mask):
    params = property_params(arch)
    query = Query(p_s=0, t_s=0, p_e=1, t_e=10800, n=4)
    for _ in range(2):
        decode_trip(query, params, PROPERTY_PM, PROPERTY_CONF, DecodeConfig(no_repeat_mask=mask))
    assert list(params.plans) == [(input_key(query), PROPERTY_PM)]
    assert nucleus_entries(params) == {}


@pytest.mark.filterwarnings("ignore:no-repeat mask:RuntimeWarning")
def test_the_decoders_of_the_decode_mix_benchmark_never_clear_the_plans():
    k, m_max = 24, 16
    rng = np.random.default_rng(0)
    routes = [Trajectory(pois=tuple(rng.permutation(k)[:m_max]), times=tuple(range(0, 3600 * m_max, 3600))) for _ in range(8)]
    pm = build_guidance_matrix(routes, k=k)
    conf = build_confidence(pm, k=k)

    def route(i, n, first_hour):
        """A length-n route whose (start, hour) differs for every i."""
        times = tuple(3600 * (first_hour + i // k) + j for j in range(n))
        return Trajectory(pois=(i % k, *range(n - 2), (i * 7 + 1) % k), times=times)

    # lengths 3..m_max in turn, as perfbench draws them: 48 evaluation queries, then 250 requests at later hours
    truths = [route(i, 3 + i % (m_max - 2), 0) for i in range(48)]
    requests = [make_query(route(j, 3 + j % (m_max - 2), 2)) for j in range(250)]
    assert len({input_key(q) for q in (*map(make_query, truths), *requests)}) == 48 + 250
    for arch in (ARCH_ONE_SHOT, ARCH_RECURRENT):
        cfg = ModelConfig(arch=arch, embed_dim=8, num_layers=1, num_heads=2, hidden_dim=16, seed=5)
        params = init_params(cfg, k=k, m_max=m_max)
        sizes = []
        # phase (a): the strategies perfbench's decode_mix scores
        for strategy in ("greedy", "top_p", "adaptive"):
            for mask in (False, True):
                decode_cfg = DecodeConfig(strategy=strategy, no_repeat_mask=mask, seed=11)

                def decode_fn(query, ordinal, repeat_seed, decode_cfg=decode_cfg):
                    per_query = decode_config_for_query(decode_cfg, repeat_seed, ordinal)
                    trip = decode_trip(query, params, pm, conf, per_query)
                    sizes.append(len(params.plans))
                    return trip

                evaluate_decoder(decode_fn, truths, repeats=2, base_seed=11)
        # phase (b): closed-loop default (adaptive) requests, each on its own seed; all of them to each model at worst
        for seed, query in enumerate(requests):
            decode_trip(query, params, pm, conf, DecodeConfig(strategy="adaptive", seed=seed))
            sizes.append(len(params.plans))
        # a clear would shrink the store: one plan per input key under the one matrix, and a nucleus entry
        # per fully planned query for each unmasked sampled setting, two in phase (a) and one in phase (b)
        planned = [arch == ARCH_ONE_SHOT or query.n == 3 for query in (*map(make_query, truths), *requests)]
        assert sizes == sorted(sizes)
        assert sizes[-1] == 48 + 250 + 2 * sum(planned[:48]) + sum(planned[48:]) < decoding.PLAN_CAP
        assert len(nucleus_entries(params)) == 2 * sum(planned[:48]) + sum(planned[48:])


@pytest.mark.parametrize("arch", [ARCH_ONE_SHOT, ARCH_RECURRENT])
def test_plans_and_nucleus_entries_share_one_cap(arch, monkeypatch):
    params = property_params(arch)
    # three stops, so both architectures keep a nucleus entry per setting
    queries = [Query(p_s=0, t_s=0, p_e=1, t_e=7200, n=3), Query(p_s=2, t_s=3600, p_e=1, t_e=7200, n=3)]
    settings = [0.3 + 0.6 * i / 600 for i in range(600)]
    assert len(queries) * len(settings) > decoding.PLAN_CAP

    def decode(query, top_p, params=params):
        cfg = DecodeConfig(strategy="top_p", top_p=top_p, seed=1)
        return decode_trip(query, params, PROPERTY_PM, PROPERTY_CONF, cfg, trace := []), trace

    sizes = []
    for top_p, query in itertools.product(settings, queries):
        decode(query, top_p)
        sizes.append(len(params.plans))
        if len(sizes) > 1 and sizes[-1] < sizes[-2]:
            break
    assert sizes[-2] == max(sizes) == decoding.PLAN_CAP
    # the miss on the full store starts it over, but for the plan the same decode read: that plan and the new entry
    key = (input_key(query), PROPERTY_PM)
    assert params.plans.keys() == {key, (*key, ((top_p, None, 1.0),))}
    # so the next decode of that query, under another setting, runs no forward pass and decodes as a fresh model
    forwards = []

    def counting(forward):
        def wrapper(*args):
            forwards.append(forward.__name__)
            return forward(*args)

        return wrapper

    want = decode(query, settings[0], property_params(arch))
    for name in ("forward_one_shot", "init_recurrent_state", "forward_recurrent_step"):
        monkeypatch.setattr(decoding, name, counting(getattr(decoding, name)))
    assert decode(query, settings[0]) == want
    assert forwards == []
    assert len(params.plans) == 3


class TestSeeds:
    def test_no_two_queries_of_one_evaluation_share_a_stream(self):
        # 5 repeats x 50 queries; XOR seeds gave (repeat 1, query 0) and
        # (repeat 0, query 1) the same stream
        cfg = DecodeConfig(strategy="top_p")
        draws = {}

        def decode_fn(query, ordinal, repeat_seed):
            seed = decode_config_for_query(cfg, repeat_seed, ordinal).seed
            draws[(repeat_seed, ordinal)] = np.random.default_rng(seed).random()
            return Trip(pois=(query.p_s,) * (query.n - 1) + (query.p_e,))

        test = [Trajectory(pois=(i % 7, 9, 8), times=(0, 3600, 7200)) for i in range(50)]
        evaluate_decoder(decode_fn, test, repeats=5, base_seed=0)
        assert len(draws) == 250
        assert draws[(1, 0)] != draws[(0, 1)]
        assert len(set(draws.values())) == 250

    def test_distinct_ordinals_get_distinct_streams(self):
        seeds = {decode_config_for_query(DecodeConfig(), 1234, i).seed for i in range(50)}
        assert len(seeds) == 50

    def test_decode_config_for_query_only_touches_seed(self):
        cfg = DecodeConfig(strategy="top_k", top_k=3, lam=0.5, no_repeat_mask=True, seed=0)
        out = decode_config_for_query(cfg, base_seed=10, ordinal=4)
        assert out.seed == (10, 4)
        for f in fields(DecodeConfig):
            if f.name != "seed":
                assert getattr(out, f.name) == getattr(cfg, f.name), f.name
        assert cfg.seed == 0  # original untouched


class TestFrozenDecodeConfig:
    def test_assigning_a_field_raises(self):
        cfg = DecodeConfig(strategy="top_p", seed=3)
        for f in fields(DecodeConfig):
            with pytest.raises(FrozenInstanceError):
                setattr(cfg, f.name, getattr(cfg, f.name))
        assert cfg == DecodeConfig(strategy="top_p", seed=3)

    @settings(max_examples=100, deadline=None)
    @given(
        cfg=st.builds(
            DecodeConfig,
            strategy=st.sampled_from(STRATEGIES),
            top_k=st.integers(1, 50),
            top_p=st.floats(0.0, 1.0, exclude_min=True),
            lam=st.floats(0.0, 1e6),
            adaptive_mode=st.sampled_from(ADAPTIVE_MODES),
            no_repeat_mask=st.booleans(),
            seed=st.one_of(st.integers(0, 2**40), st.tuples(st.integers(0, 2**16), st.integers(0, 99))),
        ),
        base_seed=st.integers(0, 2**40),
        ordinal=st.integers(0, 10**6),
    )
    def test_the_per_query_copy_equals_replace_in_every_field(self, cfg, base_seed, ordinal):
        out = decode_config_for_query(cfg, base_seed, ordinal)
        want = replace(cfg, seed=(base_seed, ordinal))
        assert type(out) is DecodeConfig and out == want
        for f in fields(DecodeConfig):
            assert getattr(out, f.name) == getattr(want, f.name), f.name
        with pytest.raises(FrozenInstanceError):
            out.seed = 0

    @pytest.mark.parametrize(
        "key, value",
        [("strategy", "beam"), ("adaptive_mode", "bogus"), ("top_k", 0), ("top_p", 0.0), ("top_p", 1.5), ("lam", -0.1)],
    )
    def test_invalid_values_still_raise(self, key, value, tmp_path):
        with pytest.raises(ValueError, match=key):
            DecodeConfig(**{key: value})
        path = tmp_path / "bad.cfg"
        path.write_text(f"{key} = {value}\n")
        with pytest.raises(ConfigError, match=key):
            load_config(str(path))


SEEDS = [0, 2**32 - 1, 2**32, 2**40, (2**32 - 1, 5), (2**32, 5), (np.uint32(7), np.int64(9)), True, (3, 4), 12345]


@pytest.mark.parametrize("seed", SEEDS, ids=repr)
def test_sampling_rng_streams_like_default_rng(seed):
    for strategy in ("top_k", "top_p", "adaptive"):
        rng = decoding._rng(DecodeConfig(strategy=strategy, seed=seed))
        assert rng.bit_generator.state == np.random.default_rng(seed).bit_generator.state
        assert np.array_equal(rng.random(8), np.random.default_rng(seed).random(8))


@pytest.mark.parametrize("seed", [-1, (-1, 5), (5, -1), (-(2**40), 0)], ids=repr)
def test_negative_seeds_raise_as_default_rng_does(seed):
    with pytest.raises(Exception) as want:
        np.random.default_rng(seed)
    with pytest.raises(want.type):
        decoding._rng(DecodeConfig(strategy="top_p", seed=seed))


def test_trip_equality_and_len():
    assert Trip(pois=(1, 2, 3)) == Trip(pois=(1, 2, 3))
    assert len(Trip(pois=(1, 2, 3))) == 3
