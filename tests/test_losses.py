import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from conftest import same_bits
from hypothesis import strategies as st

from artrip.model.losses import (
    PROB_EPS,
    drift_loss_grad,
    recommendation_loss_grad,
    total_loss_grad,
)


def fd_grad(fn, rows, step=1e-6):
    """Central-difference gradient of a scalar function of a matrix."""
    g = np.zeros_like(rows)
    it = np.nditer(rows, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        plus = rows.copy()
        plus[idx] += step
        minus = rows.copy()
        minus[idx] -= step
        g[idx] = (fn(plus) - fn(minus)) / (2.0 * step)
        it.iternext()
    return g


class TestRecommendationLoss:
    def test_uniform_rows_give_log_k(self):
        rows = np.zeros((3, 4))
        assert recommendation_loss_grad(rows, [0, 1, 2])[0] == pytest.approx(math.log(4))

    def test_half_probability_gives_log_two(self):
        # logits (log 3, 0, 0, 0): softmax puts exactly 3/6 = 0.5 on index 0
        rows = np.array([[math.log(3.0), 0.0, 0.0, 0.0]])
        assert recommendation_loss_grad(rows, [0])[0] == pytest.approx(math.log(2))

    def test_mean_over_positions(self):
        rows = np.array([[math.log(3.0), 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]])
        expected = (math.log(2) + math.log(4)) / 2
        assert recommendation_loss_grad(rows, [0, 3])[0] == pytest.approx(expected)

    def test_large_logits_are_stable(self):
        rows = np.array([[1000.0, 0.0], [0.0, 1000.0]])
        loss = recommendation_loss_grad(rows, [0, 1])[0]
        assert np.isfinite(loss)
        assert loss == pytest.approx(0.0, abs=1e-9)

    def test_rejects_empty_or_misaligned(self):
        with pytest.raises(ValueError):
            recommendation_loss_grad(np.zeros((0, 4)), [])
        with pytest.raises(ValueError):
            recommendation_loss_grad(np.zeros((2, 4)), [0])

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        rows = rng.standard_normal((4, 6))
        targets = [5, 0, 2, 2]
        _, grad = recommendation_loss_grad(rows, targets)
        num = fd_grad(lambda r: recommendation_loss_grad(r, targets)[0], rows)
        np.testing.assert_allclose(grad, num, atol=1e-8)


class TestDriftLoss:
    def test_orthogonal_rows_cost_log_two(self):
        rows = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert drift_loss_grad(rows)[0] == pytest.approx(math.log(2))

    def test_parallel_rows_hit_the_clip(self):
        rows = np.array([[2.0, 0.0], [5.0, 0.0]])
        assert drift_loss_grad(rows)[0] == pytest.approx(-math.log(1e-6))

    def test_opposite_rows_cost_almost_nothing(self):
        rows = np.array([[1.0, 0.0], [-1.0, 0.0]])
        assert drift_loss_grad(rows)[0] == pytest.approx(-math.log(1.0 - 1e-6))

    def test_sums_over_all_pairs_without_normalizing(self):
        # three mutually orthogonal rows: 3 pairs, log 2 each
        rows = np.eye(3)
        assert drift_loss_grad(rows)[0] == pytest.approx(3 * math.log(2))

    def test_single_row_is_free(self):
        assert drift_loss_grad(np.array([[3.0, 1.0]]))[0] == 0.0

    def test_zero_norm_row_warns_and_charges_half(self):
        rows = np.array([[1.0, 0.0], [0.0, 0.0]])
        with pytest.warns(RuntimeWarning, match="zero-norm"):
            loss, grads = drift_loss_grad(rows)
        assert loss == pytest.approx(math.log(2))
        np.testing.assert_array_equal(grads, 0.0)

    def test_scale_invariance_of_loss(self):
        rng = np.random.default_rng(3)
        rows = rng.standard_normal((3, 5))
        assert drift_loss_grad(rows)[0] == pytest.approx(drift_loss_grad(rows * 17.0)[0])

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        rows = rng.standard_normal((4, 5))
        _, grad = drift_loss_grad(rows)
        num = fd_grad(lambda r: drift_loss_grad(r)[0], rows)
        np.testing.assert_allclose(grad, num, atol=1e-6)

    def test_clamped_pairs_carry_no_gradient(self):
        rows = np.array([[2.0, 0.0], [5.0, 0.0]])
        _, grads = drift_loss_grad(rows)
        np.testing.assert_array_equal(grads, 0.0)


class TestTotalLoss:
    def test_alpha_zero_is_pure_cross_entropy(self):
        rows = np.array([[1.0, 0.0], [1.0, 0.0]])
        assert total_loss_grad(rows, [0, 0], alpha=0.0)[0] == pytest.approx(
            recommendation_loss_grad(rows, [0, 0])[0]
        )

    def test_alpha_scales_the_penalty(self):
        rng = np.random.default_rng(5)
        rows = rng.standard_normal((3, 4))
        targets = [0, 1, 2]
        base = recommendation_loss_grad(rows, targets)[0]
        drift = drift_loss_grad(rows)[0]
        for alpha in (0.5, 1.0, 2.0):
            assert total_loss_grad(rows, targets, alpha)[0] == pytest.approx(
                base + alpha * drift
            )

    def test_gradient_composition(self):
        rng = np.random.default_rng(9)
        rows = rng.standard_normal((3, 4))
        targets = [1, 3, 0]
        _, grad = total_loss_grad(rows, targets, alpha=0.7)
        num = fd_grad(lambda r: total_loss_grad(r, targets, alpha=0.7)[0], rows)
        np.testing.assert_allclose(grad, num, atol=1e-6)


def reference_drift_loss_grad(rows):
    """The masked drift loss, the reference `drift_loss_grad` must match bit for bit."""
    m = rows.shape[0]
    grads = np.zeros_like(rows)
    if m < 2:
        return 0.0, grads
    norms = np.linalg.norm(rows, axis=1)
    valid = norms > 0.0
    if not valid.all():
        warnings.warn(
            "zero-norm score row in drift loss; pair correlation fixed at 0.5",
            RuntimeWarning,
            stacklevel=2,
        )
    unit = np.zeros_like(rows)
    unit[valid] = rows[valid] / norms[valid, None]
    cos = unit @ unit.T
    pr_raw = (cos + 1.0) / 2.0
    pr = np.clip(pr_raw, PROB_EPS, 1.0 - PROB_EPS)
    pair = np.triu(np.ones((m, m), dtype=bool), k=1)
    pair_valid = pair & np.outer(valid, valid)
    pair_invalid = pair & ~np.outer(valid, valid)
    loss = float(-np.log(1.0 - pr[pair_valid]).sum() + pair_invalid.sum() * np.log(2.0))
    live = pair_valid & (pr_raw > PROB_EPS) & (pr_raw < 1.0 - PROB_EPS)
    weight = np.zeros((m, m), dtype=np.float64)
    weight[live] = 0.5 / (1.0 - pr[live])
    weight = weight + weight.T
    dunit = weight @ unit
    proj = (dunit * unit).sum(axis=1, keepdims=True)
    grads[valid] = (dunit[valid] - proj[valid] * unit[valid]) / norms[valid, None]
    return loss, grads


@st.composite
def score_rows(draw):
    """Random rows where any row may copy, scale or negate an earlier one, or be zero.

    At the smallest scale every square underflows, so a nonzero row has a zero norm.
    """
    m = draw(st.integers(1, 10))
    k = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = rng.standard_normal((m, k)) * draw(st.sampled_from([1e-170, 1e-3, 1.0, 1e3]))
    for i in range(m):
        kind = draw(st.sampled_from(["free", "free", "parallel", "anti", "zero"]))
        if kind == "zero":
            rows[i] = 0.0
        elif kind != "free" and i > 0:
            j = draw(st.integers(0, i - 1))
            rows[i] = rows[j] * draw(st.sampled_from([1.0, 3.0, 0.25])) * (-1.0 if kind == "anti" else 1.0)
    return rows


def drift_with_warnings(fn, rows):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        loss, grads = fn(rows)
    return loss, grads, [(w.category, str(w.message), w.filename) for w in caught]


class TestDriftFastPath:
    @settings(max_examples=300, deadline=None)
    @given(rows=score_rows())
    def test_matches_masked_reference_bit_for_bit(self, rows):
        loss, grads, warned = drift_with_warnings(drift_loss_grad, rows)
        ref_loss, ref_grads, ref_warned = drift_with_warnings(reference_drift_loss_grad, rows)
        assert loss == ref_loss and type(loss) is type(ref_loss)
        assert same_bits(grads, ref_grads)
        # the same warning, attributed to the same caller (this file)
        assert warned == ref_warned
        assert len(warned) == int(rows.shape[0] >= 2 and not np.linalg.norm(rows, axis=1).all())

    def test_a_nan_row_is_masked_like_a_zero_row(self):
        rows = np.array([[1.0, 2.0, 0.5], [np.nan, 1.0, 0.0], [0.3, -1.0, 2.0]])
        loss, grads, warned = drift_with_warnings(drift_loss_grad, rows)
        ref_loss, ref_grads, ref_warned = drift_with_warnings(reference_drift_loss_grad, rows)
        assert loss == ref_loss and warned == ref_warned
        assert same_bits(grads, ref_grads) and np.isfinite(grads).all()

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_clipped_pairs_match_the_reference(self, sign):
        rng = np.random.default_rng(4)
        base = rng.standard_normal(6)
        rows = np.stack([base, sign * base, 2.0 * base, rng.standard_normal(6)])
        loss, grads = drift_loss_grad(rows)
        ref_loss, ref_grads = reference_drift_loss_grad(rows)
        assert loss == ref_loss
        assert same_bits(grads, ref_grads)


def reference_recommendation_loss_grad(rows, targets):
    """Cross entropy through ndarray.max and ndarray.sum and the whole log-probability matrix:
    the reference `recommendation_loss_grad` must match bit for bit."""
    targets = np.asarray(targets, dtype=np.int64)
    m = rows.shape[0]
    shifted = rows - rows.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    denom = exp.sum(axis=1, keepdims=True)
    log_probs = shifted - np.log(denom)
    loss = float(-(np.add.reduce(log_probs[np.arange(m), targets]) / m))
    drows = exp / denom
    drows[np.arange(m), targets] -= 1.0
    drows /= m
    return loss, drows


@st.composite
def rows_and_targets(draw):
    """Random score rows, up to logits whose softmax underflows, and targets drawn from a pool
    of at most two POIs, so rows share targets; a row may repeat an earlier one or be constant."""
    m = draw(st.integers(1, 10))
    k = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = rng.standard_normal((m, k)) * draw(st.sampled_from([1e-3, 1.0, 1e3, 1e6]))
    for i in range(m):
        kind = draw(st.sampled_from(["free", "free", "copy", "constant"]))
        if kind == "constant":
            rows[i] = draw(st.sampled_from([0.0, -0.0, 1e3]))
        elif kind == "copy" and i > 0:
            rows[i] = rows[draw(st.integers(0, i - 1))]
    pool = draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=2))
    targets = tuple(draw(st.sampled_from(pool)) for _ in range(m))
    return rows, targets


class TestRecommendationFastPath:
    @settings(max_examples=300, deadline=None)
    @given(case=rows_and_targets())
    def test_matches_the_wrapper_reference_bit_for_bit(self, case):
        rows, targets = case
        loss, grads = recommendation_loss_grad(rows, targets)
        ref_loss, ref_grads = reference_recommendation_loss_grad(rows, targets)
        assert loss == ref_loss and type(loss) is type(ref_loss)
        assert same_bits(grads, ref_grads)
