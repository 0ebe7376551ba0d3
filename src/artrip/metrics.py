"""Evaluation metrics and the repeated-evaluation harness.

F1 compares unordered POI sets.  PairsF1 compares visiting order: both
sequences are first deduplicated to first occurrences, then scored on
their sets of ordered (before, after) pairs.  REP measures repetition
inside generated trips directly: the fraction of positions occupied by
a POI already visited earlier in the same trip, averaged over trips.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from artrip.data import Query, Trajectory, make_query
from artrip.decoding import DecodeConfig, Trip, decode_config_for_query, decode_trip
from artrip.guidance import ConfidenceVector, GuidanceMatrix


def _pois(seq) -> tuple[int, ...]:
    if isinstance(seq, (Trip, Trajectory)):
        return tuple(seq.pois)
    return tuple(seq)


def _ranks(truth) -> dict[int, int]:
    """First-occurrence rank of every POI of a sequence, in visiting order."""
    ranks: dict[int, int] = {}
    for poi in _pois(truth):
        ranks.setdefault(poi, len(ranks))
    return ranks


def _harmonic(hits: int, n_pred: int, n_truth: int) -> float:
    if not n_pred or not n_truth:
        return 0.0
    precision = hits / n_pred
    recall = hits / n_truth
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def _score(pred: tuple[int, ...], ranks: dict[int, int]) -> tuple[float, float, float]:
    """F1, PairsF1 and REP of a non-empty trip against the truth's `_ranks`.

    An ordered pair of distinct predicted POIs is a PairsF1 hit when the
    truth visits both, first occurrences in the same order.
    """
    if not pred:
        raise ValueError("empty trip has no repetition ratio")
    seq = tuple(dict.fromkeys(pred))
    # truth ranks of the predicted POIs the truth visits, in predicted order
    hit_ranks = [ranks[poi] for poi in seq if poi in ranks]
    f1 = _harmonic(len(hit_ranks), len(seq), len(ranks))
    pred_pairs = len(seq) * (len(seq) - 1) // 2
    truth_pairs = len(ranks) * (len(ranks) - 1) // 2
    if pred_pairs and truth_pairs:
        hits = sum(r < s for i, r in enumerate(hit_ranks) for s in hit_ranks[i + 1 :])
        pairs = _harmonic(hits, pred_pairs, truth_pairs)
    else:
        pairs = 1.0 if seq == tuple(ranks) else 0.0
    return f1, pairs, (len(pred) - len(seq)) / len(pred)


def f1_score(pred, truth) -> float:
    """Harmonic mean of set precision and recall; 0.0 when degenerate."""
    pred = _pois(pred)
    return _score(pred, _ranks(truth))[0] if pred else 0.0


def pairs_f1(pred, truth) -> float:
    """F1 over ordered pairs of the first-occurrence-deduplicated sequences.

    Single-POI sequences have no pairs; the score is then 1.0 exactly
    when the deduplicated sequences are identical, else 0.0.
    """
    pred, ranks = _pois(pred), _ranks(truth)
    if not pred:
        return 0.0 if ranks else 1.0
    return _score(pred, ranks)[1]


def trip_repetition(trip) -> float:
    """Fraction of a single trip's positions that revisit an earlier POI."""
    return _score(_pois(trip), {})[2]


def rep_score(trips) -> float:
    """Mean repetition ratio over a batch of trips."""
    trips = list(trips)
    if not trips:
        raise ValueError("rep_score needs at least one trip")
    return float(np.mean([trip_repetition(t) for t in trips]))


@dataclass
class MetricReport:
    """Per-repeat rows plus mean/std aggregates across repeats."""

    f1_mean: float
    f1_std: float
    pairs_f1_mean: float
    pairs_f1_std: float
    rep_mean: float
    rep_std: float
    repeats: int
    rows: list[dict] = field(default_factory=list)


def evaluate_decoder(decode_fn, test: list[Trajectory], repeats: int, base_seed: int) -> MetricReport:
    """Score any query -> trip generator against held-out trajectories.

    `decode_fn(query, ordinal, repeat_seed)` must return a Trip.  Each
    repeat r runs every test query with base seed `base_seed + r`, and
    per-query seeds are derived from the query's ordinal, so reruns are
    reproducible row for row.
    """
    if repeats < 1:
        raise ValueError("repeats must be at least 1")
    if not test:
        raise ValueError("empty test split")
    rows: list[dict] = []
    per_repeat = {"f1": [], "pairs_f1": [], "rep": []}
    queries = [(make_query(truth), _ranks(truth)) for truth in test]
    for r in range(repeats):
        repeat_seed = base_seed + r
        f1s, pairs, reps = [], [], []
        for ordinal, (query, ranks) in enumerate(queries):
            f1, pair, rep = _score(_pois(decode_fn(query, ordinal, repeat_seed)), ranks)
            rows.append({"repeat": r, "query": ordinal, "f1": f1, "pairs_f1": pair, "rep": rep})
            f1s.append(f1)
            pairs.append(pair)
            reps.append(rep)
        per_repeat["f1"].append(float(np.mean(f1s)))
        per_repeat["pairs_f1"].append(float(np.mean(pairs)))
        per_repeat["rep"].append(float(np.mean(reps)))
    return MetricReport(
        f1_mean=float(np.mean(per_repeat["f1"])),
        f1_std=float(np.std(per_repeat["f1"])),
        pairs_f1_mean=float(np.mean(per_repeat["pairs_f1"])),
        pairs_f1_std=float(np.std(per_repeat["pairs_f1"])),
        rep_mean=float(np.mean(per_repeat["rep"])),
        rep_std=float(np.std(per_repeat["rep"])),
        repeats=repeats,
        rows=rows,
    )


def evaluate(
    params,
    pm: GuidanceMatrix,
    conf: ConfidenceVector,
    test: list[Trajectory],
    cfg: DecodeConfig,
    repeats: int = 1,
) -> MetricReport:
    """Decode every test query with the model and score the trips."""

    def decode_fn(query: Query, ordinal: int, repeat_seed: int) -> Trip:
        per_query = decode_config_for_query(cfg, repeat_seed, ordinal)
        return decode_trip(query, params, pm, conf, per_query)

    return evaluate_decoder(decode_fn, test, repeats, cfg.seed)


def write_metrics_csv(report: MetricReport, path) -> None:
    """Per-query rows plus mean and std summary rows, stable ordering."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["repeat", "query", "f1", "pairs_f1", "rep"])
        for row in report.rows:
            writer.writerow(
                [row["repeat"], row["query"], repr(row["f1"]), repr(row["pairs_f1"]), repr(row["rep"])]
            )
        writer.writerow(["mean", "", repr(report.f1_mean), repr(report.pairs_f1_mean), repr(report.rep_mean)])
        writer.writerow(["std", "", repr(report.f1_std), repr(report.pairs_f1_std), repr(report.rep_std)])
