import numpy as np
import pytest

from artrip.data import Trajectory
from artrip.decoding import Trip
from artrip.metrics import (
    MetricReport,
    evaluate_decoder,
    f1_score,
    pairs_f1,
    trip_repetition,
    write_metrics_csv,
)

A, B, C, D = 0, 1, 2, 3


class TestF1:
    def test_superset_prediction(self):
        # 3 of 4 predicted are right, all 3 truths covered
        assert f1_score([A, B, C, D], [A, B, C]) == pytest.approx(6 / 7)

    def test_perfect_match(self):
        assert f1_score([A, B, C], [C, B, A]) == 1.0  # order-blind

    def test_disjoint_sets(self):
        assert f1_score([A, B], [C, D]) == 0.0

    def test_duplicates_collapse(self):
        assert f1_score([A, A, B], [A, B]) == 1.0

    def test_empty_inputs_score_zero(self):
        assert f1_score([], [A]) == 0.0
        assert f1_score([A], []) == 0.0

    def test_accepts_trips_and_trajectories(self):
        trip = Trip(pois=(A, B, C))
        traj = Trajectory(pois=(A, B, C), times=(0, 1, 2))
        assert f1_score(trip, traj) == 1.0


class TestPairsF1:
    def test_transposed_tail(self):
        assert pairs_f1([A, B, C], [A, C, B]) == pytest.approx(2 / 3)

    def test_swapped_last_two_of_four(self):
        assert pairs_f1([A, B, C, D], [A, B, D, C]) == pytest.approx(5 / 6)

    def test_identical_order_is_one(self):
        assert pairs_f1([A, B, C, D], [A, B, C, D]) == 1.0

    def test_reversed_order_is_zero(self):
        assert pairs_f1([A, B, C], [C, B, A]) == 0.0

    def test_dedup_happens_before_pairing(self):
        # [A, B, A, C] dedups to [A, B, C]
        assert pairs_f1([A, B, A, C], [A, B, C]) == 1.0

    def test_single_poi_agreement(self):
        assert pairs_f1([A], [A]) == 1.0
        assert pairs_f1([A, A, A], [A]) == 1.0

    def test_single_poi_disagreement(self):
        assert pairs_f1([A], [B]) == 0.0

    def test_one_sided_pairs_score_zero(self):
        assert pairs_f1([A], [A, B]) == 0.0


class TestRep:
    def test_one_revisit_in_four(self):
        assert trip_repetition([A, B, A, C]) == 0.25

    def test_distinct_trip_scores_zero(self):
        assert trip_repetition([A, B, C]) == 0.0

    def test_all_same_poi(self):
        assert trip_repetition([A, A, A, A]) == 0.75

    def test_empty_trip_rejected(self):
        with pytest.raises(ValueError):
            trip_repetition([])


def brute_f1(pred, truth):
    ps, ts = set(pred), set(truth)
    if not ps or not ts:
        return 0.0
    hits = sum(1 for x in ps if x in ts)
    p = hits / len(ps)
    r = hits / len(ts)
    return 0.0 if p + r == 0 else 2 * p * r / (p + r)


def brute_pairs(seq):
    seen = []
    for x in seq:
        if x not in seen:
            seen.append(x)
    return {(a, b) for i, a in enumerate(seen) for b in seen[i + 1 :]}


def brute_pairs_f1(pred, truth):
    pp, tp = brute_pairs(pred), brute_pairs(truth)
    if not pp and not tp:
        dedup = lambda s: tuple(dict.fromkeys(s))
        return 1.0 if dedup(pred) == dedup(truth) else 0.0
    if not pp or not tp:
        return 0.0
    hits = len(pp & tp)
    p, r = hits / len(pp), hits / len(tp)
    return 0.0 if p + r == 0 else 2 * p * r / (p + r)


def test_metrics_match_brute_force_on_random_sequences():
    rng = np.random.default_rng(123)
    for _ in range(300):
        n_pred = int(rng.integers(1, 8))
        n_truth = int(rng.integers(1, 8))
        pred = [int(x) for x in rng.integers(0, 10, n_pred)]
        truth = [int(x) for x in rng.integers(0, 10, n_truth)]
        assert f1_score(pred, truth) == pytest.approx(brute_f1(pred, truth), abs=1e-12)
        assert pairs_f1(pred, truth) == pytest.approx(brute_pairs_f1(pred, truth), abs=1e-12)
        expected_rep = (len(pred) - len(set(pred))) / len(pred)
        assert trip_repetition(pred) == pytest.approx(expected_rep, abs=1e-12)


class TestEvaluateDecoder:
    def make_test_split(self):
        return [
            Trajectory(pois=(0, 2, 1), times=(0, 3600, 7200)),
            Trajectory(pois=(3, 2, 4, 1), times=(0, 3600, 7200, 10800)),
        ]

    def test_echo_decoder_scores_perfectly(self):
        test = self.make_test_split()

        def echo(query, ordinal, repeat_seed):
            return Trip(pois=test[ordinal].pois)

        report = evaluate_decoder(echo, test, repeats=3, base_seed=0)
        assert report.f1_mean == 1.0
        assert report.pairs_f1_mean == 1.0
        assert report.rep_mean == 0.0
        assert report.f1_std == 0.0

    def test_seed_protocol(self):
        test = self.make_test_split()
        calls = []

        def spy(query, ordinal, repeat_seed):
            calls.append((ordinal, repeat_seed))
            return Trip(pois=test[ordinal].pois)

        evaluate_decoder(spy, test, repeats=2, base_seed=10)
        assert calls == [(0, 10), (1, 10), (0, 11), (1, 11)]

    def test_queries_derive_from_truth(self):
        test = self.make_test_split()
        seen = []

        def spy(query, ordinal, repeat_seed):
            seen.append(query)
            return Trip(pois=test[ordinal].pois)

        evaluate_decoder(spy, test, repeats=1, base_seed=0)
        assert seen[0].p_s == 0 and seen[0].p_e == 1 and seen[0].n == 3
        assert seen[1].p_s == 3 and seen[1].p_e == 1 and seen[1].n == 4

    def test_rows_carry_per_query_scores(self):
        test = self.make_test_split()

        def repeat_start(query, ordinal, repeat_seed):
            return Trip(pois=(query.p_s,) * (query.n - 1) + (query.p_e,))

        report = evaluate_decoder(repeat_start, test, repeats=1, base_seed=0)
        assert len(report.rows) == 2
        assert report.rows[0]["rep"] == pytest.approx(1 / 3)
        assert report.rows[1]["rep"] == pytest.approx(0.5)

    def test_rep_is_averaged_over_each_repeats_trips_then_over_repeats(self):
        test = self.make_test_split()
        # repeat 0: REP 1/3 and 0, mean 1/6; repeat 1: REP 0 and 1/2, mean 1/4
        trips = {(0, 0): (0, 0, 1), (0, 1): (3, 2, 4, 1), (1, 0): (0, 2, 1), (1, 1): (3, 3, 3, 1)}

        def scripted(query, ordinal, repeat_seed):
            return Trip(pois=trips[repeat_seed, ordinal])

        report = evaluate_decoder(scripted, test, repeats=2, base_seed=0)
        assert [row["rep"] for row in report.rows] == pytest.approx([1 / 3, 0.0, 0.0, 0.5])
        assert report.rep_mean == pytest.approx(5 / 24)
        assert report.rep_std == pytest.approx(1 / 24)

    def test_rejects_an_empty_trip(self):
        test = self.make_test_split()
        with pytest.raises(ValueError, match="empty trip"):
            evaluate_decoder(lambda q, o, s: Trip(pois=()), test, repeats=1, base_seed=0)

    def test_validates_arguments(self):
        test = self.make_test_split()
        decode = lambda q, o, s: Trip(pois=(0, 1))
        with pytest.raises(ValueError):
            evaluate_decoder(decode, test, repeats=0, base_seed=0)
        with pytest.raises(ValueError):
            evaluate_decoder(decode, [], repeats=1, base_seed=0)


def test_metrics_csv_layout(tmp_path):
    report = MetricReport(
        f1_mean=0.5,
        f1_std=0.1,
        pairs_f1_mean=0.25,
        pairs_f1_std=0.0,
        rep_mean=0.125,
        rep_std=0.0,
        repeats=1,
        rows=[{"repeat": 0, "query": 0, "f1": 0.5, "pairs_f1": 0.25, "rep": 0.125}],
    )
    path = tmp_path / "metrics.csv"
    write_metrics_csv(report, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "repeat,query,f1,pairs_f1,rep"
    assert lines[1] == "0,0,0.5,0.25,0.125"
    assert lines[2] == "mean,,0.5,0.25,0.125"
    assert lines[3] == "std,,0.1,0.0,0.0"
    # floats are written with repr, so a reread is lossless
    assert float(lines[1].split(",")[2]) == report.rows[0]["f1"]
