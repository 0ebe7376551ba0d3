"""Position-frequency guidance over training routes.

The guidance matrix stores, for every POI, how its visits distribute over
route positions; the confidence vector stores, per position, the fraction
of POIs never seen there. Both are consulted when reshaping model logits
and when adapting the sampling temperature during decoding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from artrip.data import Trajectory


@dataclass(frozen=True, eq=False)
class GuidanceMatrix:
    """Per-POI position frequency ratios, shape (k, m_max).

    Row i is f_ij / f_i over 1-based positions j; rows of never-visited
    POIs are all zero so guidance stays neutral where data gives no support.
    `factor`, built once, is the (m_max, k) table 1 + values.T that
    `guidance_factor` slices; no field can be rebound, no array written.
    """

    values: np.ndarray
    poi_totals: np.ndarray

    def __post_init__(self):
        factor = 1.0 + guidance_columns(self, 1, self.m_max)
        for array in (self.values, self.poi_totals, factor):
            array.flags.writeable = False
        vars(self).update(factor=factor)

    @property
    def k(self) -> int:
        return self.values.shape[0]

    @property
    def m_max(self) -> int:
        return self.values.shape[1]


def check_horizon(n: int, m_max: int, what: str = "trip length n") -> None:
    """Refuse a length or position past ``m_max``, the longest training route."""
    if n > m_max:
        raise ValueError(f"{what}={n} exceeds the horizon m_max={m_max}, the longest training route")


def check_pois(pois, k: int, what: str = "") -> None:
    """Refuse a POI index outside 0..k-1, naming the first such POI."""
    for poi in pois:
        if not 0 <= poi < k:
            raise ValueError(f"{what}POI index {poi} out of range for k={k}")


def count_visits(trajectories: list[Trajectory], k: int, shape, index, dtype=np.float64) -> np.ndarray:
    """Count visits into a zero `shape` array by one `np.add.at` at `index(pois, positions)`.

    Both arrays run over every visit in route order, positions 0-based.  A POI
    outside 0..k-1 raises ValueError naming the first one.
    """
    pois = np.array([poi for t in trajectories for poi in t.pois], dtype=np.intp)
    positions = np.array([pos for t in trajectories for pos in range(len(t))], dtype=np.intp)
    bad = np.flatnonzero((pois < 0) | (pois >= k))
    if bad.size:
        raise ValueError(f"POI index {int(pois[bad[0]])} out of range for k={k}")
    counts = np.zeros(shape, dtype=dtype)
    # whole counts, so the float sums equal a one-by-one loop in any order
    np.add.at(counts, index(pois, positions), 1)
    return counts


def build_guidance_matrix(train: list[Trajectory], k: int) -> GuidanceMatrix:
    """Count POI occurrences per 1-based route position and normalize per POI."""
    if not train:
        raise ValueError("cannot build guidance from an empty training set")
    m_max = max(len(t) for t in train)
    counts = count_visits(train, k, (k, m_max), lambda pois, positions: (pois, positions))
    totals = counts.sum(axis=1)
    values = np.zeros_like(counts)
    visited = totals > 0
    values[visited] = counts[visited] / totals[visited, None]
    return GuidanceMatrix(values=values, poi_totals=totals)


def zero_guidance(k: int, m_max: int) -> GuidanceMatrix:
    """All-zero guidance; applying it is the identity on logits."""
    return GuidanceMatrix(values=np.zeros((k, m_max)), poi_totals=np.zeros(k))


def build_confidence(pm: GuidanceMatrix, k: int) -> np.ndarray:
    """Per position j, the fraction of POI rows whose column-j entry is zero.

    A float64 (m_max,) array: 1-based position j sits at index j - 1.
    """
    zero_counts = (pm.values == 0.0).sum(axis=0)
    return zero_counts.astype(np.float64) / k


def _position_rows(table: np.ndarray, first_position: int, m: int) -> np.ndarray:
    """Rows of a per-position ``table`` for ``m`` positions from a 1-based one; the last may not pass its length."""
    if first_position < 1:
        raise ValueError(f"positions are 1-based, got {first_position}")
    if m < 0:
        raise ValueError(f"m must be non-negative, got {m}")
    check_horizon(first_position - 1 + m, len(table), "last position")
    return table[first_position - 1 : first_position - 1 + m]


def guidance_columns(pm: GuidanceMatrix, first_position: int, m: int) -> np.ndarray:
    """A new C-ordered copy of the guidance for ``m`` logit rows from a 1-based position."""
    return _position_rows(pm.values.T, first_position, m).copy()


def guidance_factor(pm: GuidanceMatrix, first_position: int, m: int) -> np.ndarray:
    """Read-only rows of ``pm.factor``: logit row i guided is h[i][p] * (1 + pm[p][pos_i]), not renormalized."""
    return _position_rows(pm.factor, first_position, m)
