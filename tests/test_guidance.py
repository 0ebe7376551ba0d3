import warnings
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from artrip.data import Trajectory
from artrip.guidance import (
    build_confidence,
    build_guidance_matrix,
    guidance_columns,
    guidance_factor,
    zero_guidance,
)

# two routes over POIs {0: A, 1: B, 2: C}: A,B,C and A,C,B
TWO_ROUTES = [
    Trajectory(pois=(0, 1, 2), times=(0, 1, 2)),
    Trajectory(pois=(0, 2, 1), times=(0, 1, 2)),
]


def test_worked_example_ratios():
    pm = build_guidance_matrix(TWO_ROUTES, k=3)
    np.testing.assert_allclose(pm.values[0], [1.0, 0.0, 0.0])
    np.testing.assert_allclose(pm.values[1], [0.0, 0.5, 0.5])
    np.testing.assert_allclose(pm.values[2], [0.0, 0.5, 0.5])
    assert pm.m_max == 3


def test_visited_rows_sum_to_one():
    pm = build_guidance_matrix(TWO_ROUTES, k=5)
    sums = pm.values.sum(axis=1)
    visited = pm.poi_totals > 0
    np.testing.assert_allclose(sums[visited], 1.0, atol=1e-12)
    assert not visited[3] and not visited[4]
    np.testing.assert_array_equal(pm.values[3], 0.0)


def test_confidence_counts_zero_columns():
    pm = build_guidance_matrix(TWO_ROUTES, k=3)
    conf = build_confidence(pm, k=3)
    assert conf.dtype == np.float64
    np.testing.assert_allclose(conf, [2 / 3, 1 / 3, 1 / 3])


def guide(h, pm, first_position=1):
    """Logit rows from a 1-based position, guided as training and decoding guide them."""
    return h * guidance_factor(pm, first_position, h.shape[0])


def test_zero_guidance_is_identity():
    h = np.arange(12, dtype=np.float64).reshape(4, 3) - 5.0
    out = guide(h, zero_guidance(k=3, m_max=4))
    np.testing.assert_array_equal(out, h)


def test_guidance_multiplies_by_one_plus_ratio():
    pm = build_guidance_matrix(TWO_ROUTES, k=3)
    h = np.ones((3, 3))
    out = guide(h, pm)
    # row for position 1: POI 0 doubled, others untouched
    np.testing.assert_allclose(out[0], [2.0, 1.0, 1.0])
    np.testing.assert_allclose(out[1], [1.0, 1.5, 1.5])
    np.testing.assert_allclose(out[2], [1.0, 1.5, 1.5])


def test_guidance_beyond_horizon_raises():
    pm = build_guidance_matrix(TWO_ROUTES, k=3)
    np.testing.assert_array_equal(guide(np.full((3, 3), 2.0), pm)[2], [2.0, 3.0, 3.0])
    with pytest.raises(ValueError, match="last position=4 exceeds the horizon m_max=3"):
        guide(np.full((4, 3), 2.0), pm)
    with pytest.raises(ValueError, match="last position=4 exceeds the horizon m_max=3"):
        guide(np.full((1, 3), 2.0), pm, first_position=4)


def test_build_guidance_rejects_empty_or_out_of_range():
    with pytest.raises(ValueError, match="empty"):
        build_guidance_matrix([], k=3)
    with pytest.raises(ValueError, match="out of range"):
        build_guidance_matrix([Trajectory(pois=(0, 9, 1), times=(0, 1, 2))], k=3)


def test_guidance_preserves_score_order_within_position():
    # guidance reshapes rows per POI, not per position rank
    pm = build_guidance_matrix(TWO_ROUTES, k=3)
    h = np.array([[3.0, 2.0, 1.0]])
    out = guide(h, pm)
    assert out.shape == (1, 3)
    assert out[0, 0] == 6.0


def reference_guidance_columns(pm, first_position, m):
    """The per-row loop that the horizon slice replaces; rows past m_max now raise."""
    last = first_position - 1 + m
    if last > pm.m_max:
        raise ValueError(f"last position={last} exceeds the horizon m_max={pm.m_max}, the longest training route")
    cols = np.zeros((m, pm.values.shape[0]), dtype=np.float64)
    for row in range(m):
        cols[row] = pm.values[:, first_position + row - 1]
    return cols


def columns_or_error(fn, pm, first_position, m):
    try:
        return fn(pm, first_position, m), None
    except ValueError as exc:
        return None, str(exc)


def six_position_matrix():
    rng = np.random.default_rng(0)
    trajs = [
        Trajectory(pois=tuple(int(p) for p in rng.integers(0, 7, size=n)), times=tuple(range(n)))
        for n in (3, 5, 6, 4)
    ]
    pm = build_guidance_matrix(trajs, k=7)
    assert pm.m_max == 6
    return pm


def test_guidance_columns_match_the_row_loop_inside_across_and_past_the_horizon():
    pm = six_position_matrix()
    for first_position in range(1, pm.m_max + 3):
        for m in range(0, pm.m_max + 4):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                cols, error = columns_or_error(guidance_columns, pm, first_position, m)
            ref, ref_error = columns_or_error(reference_guidance_columns, pm, first_position, m)
            # rows that cross or start past the horizon raise, naming the last position
            assert error == ref_error
            assert (error is None) == (first_position - 1 + m <= pm.m_max)
            if error is not None:
                continue
            assert np.array_equal(cols, ref)
            assert cols.flags.c_contiguous and cols.dtype == np.float64
            # the result is a copy: writing to it leaves the matrix alone
            cols[...] = -1.0
            assert (pm.values >= 0.0).all()


def test_guidance_factor_is_one_plus_the_columns():
    pm = six_position_matrix()
    for first_position in range(1, pm.m_max + 3):
        for m in range(0, pm.m_max + 4):
            # one position rule: both refuse the same requests with the same message
            factor, error = columns_or_error(guidance_factor, pm, first_position, m)
            columns, columns_error = columns_or_error(guidance_columns, pm, first_position, m)
            assert error == columns_error
            if error is not None:
                continue
            want = 1.0 + columns
            assert factor.shape == want.shape and factor.tobytes() == want.tobytes()
            # a view of the matrix's one table, not a copy per call
            assert np.shares_memory(factor, pm.factor) or m == 0


def test_the_matrix_and_its_table_are_read_only():
    pm = build_guidance_matrix(TWO_ROUTES, k=3)
    for array in (pm.values, pm.poi_totals, pm.factor, guidance_factor(pm, 2, 2)):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 7.0
    for field in ("values", "poi_totals", "factor"):
        with pytest.raises(FrozenInstanceError):
            setattr(pm, field, np.zeros(3))
    assert pm.factor.flags.c_contiguous and pm.factor.shape == (pm.m_max, pm.k)


def test_guidance_columns_reject_positions_below_one():
    pm = build_guidance_matrix(TWO_ROUTES, k=3)
    with pytest.raises(ValueError, match="1-based"):
        guidance_columns(pm, 0, 2)


def test_guidance_columns_reject_a_negative_row_count_naming_m():
    pm = build_guidance_matrix(TWO_ROUTES, k=3)
    with pytest.raises(ValueError, match="m must be non-negative, got -1"):
        guidance_columns(pm, 1, -1)
