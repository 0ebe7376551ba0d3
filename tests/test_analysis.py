import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from artrip.analysis import (
    PmrResult,
    empirical_transitions,
    perturb,
    pmr_series,
    repeat_histogram,
    sparsity_xi,
)
from artrip.data import Trajectory


class TestSparsity:
    def test_counts_nonzero_fraction(self):
        m = np.array([[0.5, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
        assert sparsity_xi(m) == pytest.approx(3 / 9)

    def test_dense_matrix_is_one(self):
        assert sparsity_xi(np.full((3, 3), 0.1)) == 1.0

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError):
            sparsity_xi(np.zeros((0, 0)))


class TestPerturb:
    def base(self):
        return np.array([[0.7, 0.3], [0.2, 0.8]])

    def test_sigma_zero_is_bitwise_identity(self):
        matrix = self.base()
        out = perturb(matrix, sigma=0.0, seed=5)
        np.testing.assert_array_equal(out, matrix)
        assert not np.shares_memory(out, matrix)  # still a private copy
        assert out.dtype == np.float64 and out.shape == (2, 2)

    def test_rows_stay_stochastic(self):
        out = perturb(self.base(), sigma=0.3, seed=1)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)
        assert (out >= 0.0).all()

    def test_same_seed_same_noise(self):
        a = perturb(self.base(), sigma=0.2, seed=3)
        b = perturb(self.base(), sigma=0.2, seed=3)
        np.testing.assert_array_equal(a, b)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            perturb(self.base(), sigma=-0.1)

    @pytest.mark.parametrize("sigma", [math.nan, math.inf])
    def test_non_finite_sigma_rejected(self, sigma):
        with pytest.raises(ValueError, match="finite"):
            perturb(self.base(), sigma=sigma)

    def test_dead_rows_become_uniform_with_warning(self):
        # tiny positive mass, huge negative noise: some row will zero out
        matrix = np.full((4, 4), 1e-9)
        found, dead = None, None
        for seed in range(50):
            noisy = np.clip(matrix + np.random.default_rng(seed).normal(0, 1.0, (4, 4)), 0, None)
            if (noisy.sum(axis=1) == 0).any():
                found, dead = seed, np.flatnonzero(noisy.sum(axis=1) == 0)
                break
        assert found is not None, "no seed produced a dead row"
        with pytest.warns(RuntimeWarning, match=rf"rows {re.escape(str(dead.tolist()))}; resetting them to uniform"):
            out = perturb(matrix, sigma=1.0, seed=found)
        for row in dead:
            np.testing.assert_array_equal(out[row], 0.25)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)


class TestPmr:
    def test_uniform_two_state_chain_closed_form(self):
        # tr(U^2j) = 1 for the uniform 2x2 matrix, so with k*xi = 2 the
        # series is sum over j of 2^-j, truncated at ten terms
        uniform = np.full((2, 2), 0.5)
        result = pmr_series([uniform], k=2, xi=1.0, j_max=10)
        assert result.value == pytest.approx(0.9990234375, abs=1e-9)
        assert result.converged

    def test_identity_chain_is_flagged_nonconvergent(self):
        result = pmr_series([np.eye(3)], k=3, xi=1 / 3, j_max=5)
        # every term is identical, never strictly dropping
        assert not result.converged
        assert result.terms[0] == result.terms[1]

    def test_two_matrix_chain_cycles(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        b = np.eye(2)
        # products alternate a,b,a,b...: tr((ab)^j) = tr(a^j) = 0 for odd j
        result = pmr_series([a, b], k=2, xi=0.5, j_max=4)
        assert result.terms[0] == 0.0
        assert result.terms[1] > 0.0

    def test_matches_manual_product(self):
        rng = np.random.default_rng(0)
        raw = rng.random((3, 3))
        m = raw / raw.sum(axis=1, keepdims=True)
        xi = sparsity_xi(m)
        expected = 0.0
        product = np.eye(3)
        for j in range(1, 4):
            product = product @ m @ m
            expected += np.trace(product) / (3 * xi) ** j
        assert pmr_series([m], k=3, xi=xi, j_max=3).value == pytest.approx(expected, abs=1e-12)

    def test_validates_inputs(self):
        with pytest.raises(ValueError):
            pmr_series([], k=2, xi=1.0)
        with pytest.raises(ValueError):
            pmr_series([np.eye(2)], k=2, xi=0.0)
        with pytest.raises(ValueError):
            pmr_series([np.eye(2)], k=2, xi=1.0, j_max=-1)

    def test_zero_terms_count_as_converged(self):
        nilpotent = np.array([[0.0, 1.0], [0.0, 0.0]])
        result = pmr_series([nilpotent], k=2, xi=0.25, j_max=3)
        assert result.terms == [0.0, 0.0, 0.0]
        assert result.converged


class TestEmpiricalTransitions:
    def test_counts_by_position(self):
        trajs = [
            Trajectory(pois=(0, 1, 2), times=(0, 1, 2)),
            Trajectory(pois=(0, 2, 2), times=(0, 1, 2)),  # not produced by ingest, but legal here
            Trajectory(pois=(1, 0), times=(0, 1)),
        ]
        mats = empirical_transitions(trajs, k=3)
        assert mats.shape == (2, 3, 3)
        first = mats[0]  # out of position 1
        # from POI 0 at position 1: once to 1, once to 2
        np.testing.assert_allclose(first[0], [0.0, 0.5, 0.5])
        np.testing.assert_allclose(first[1], [1.0, 0.0, 0.0])
        np.testing.assert_array_equal(first[2], 1 / 3)  # POI 2 never starts a trip

    def test_second_position_matrix(self):
        trajs = [
            Trajectory(pois=(0, 1, 2), times=(0, 1, 2)),
            Trajectory(pois=(0, 2, 2), times=(0, 1, 2)),
        ]
        second = empirical_transitions(trajs, k=3)[1]  # out of position 2
        np.testing.assert_allclose(second[1], [0.0, 0.0, 1.0])
        np.testing.assert_allclose(second[2], [0.0, 0.0, 1.0])
        np.testing.assert_array_equal(second[0], 1 / 3)  # POI 0 never sits at position 2

    def test_rows_always_sum_to_one(self):
        trajs = [Trajectory(pois=(0, 1, 2, 3), times=(0, 1, 2, 3))]
        np.testing.assert_allclose(empirical_transitions(trajs, k=5).sum(axis=2), 1.0, atol=1e-12)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            empirical_transitions([], k=3)


class TestRepeatHistogram:
    def test_positions_and_gaps(self):
        # repeats: position 3 (gap 2) and position 5 (gap 3)
        position_counts, gap_counts = repeat_histogram([(10, 11, 10, 12, 11)])
        assert position_counts.sum() == 2
        assert position_counts[3] == 1
        assert position_counts[5] == 1
        assert gap_counts[2] == 1
        assert gap_counts[3] == 1

    def test_gap_measures_to_first_occurrence(self):
        # third A at position 3 still refers back to position 1
        position_counts, gap_counts = repeat_histogram([(7, 7, 7)])
        assert position_counts[2] == 1 and position_counts[3] == 1
        assert gap_counts[1] == 1 and gap_counts[2] == 1

    def test_counts_accumulate_across_trips(self):
        position_counts, gap_counts = repeat_histogram([(1, 2, 1), (3, 4, 3)])
        assert position_counts[3] == 2
        assert gap_counts[2] == 2

    def test_clean_trips_yield_empty_histogram(self):
        position_counts, gap_counts = repeat_histogram([(1, 2, 3), (4, 5)])
        np.testing.assert_array_equal(position_counts, 0)
        np.testing.assert_array_equal(gap_counts, 0)

    def test_rejects_empty_batch(self):
        with pytest.raises(ValueError):
            repeat_histogram([])


def reference_repeat_histogram(seqs):
    """The per-element tally that bincount replaced."""
    longest = max(len(s) for s in seqs)
    position_counts = np.zeros(longest + 1, dtype=np.int64)
    gap_counts = np.zeros(longest + 1, dtype=np.int64)
    for seq in seqs:
        first_seen = {}
        for j, poi in enumerate(seq, start=1):
            if poi in first_seen:
                position_counts[j] += 1
                gap_counts[j - first_seen[poi]] += 1
            else:
                first_seen[poi] = j
    return position_counts, gap_counts


@settings(max_examples=200, deadline=None)
@given(trips=st.lists(st.lists(st.integers(0, 4), min_size=1, max_size=12), min_size=1, max_size=8))
def test_repeat_histogram_matches_the_element_loop(trips):
    got_counts = repeat_histogram([tuple(t) for t in trips])
    for got, want in zip(got_counts, reference_repeat_histogram(trips), strict=True):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_pmr_result_is_a_plain_record():
    r = PmrResult(terms=[0.5, 0.25], value=0.75, converged=True)
    assert r.value == 0.75 and len(r.terms) == 2
