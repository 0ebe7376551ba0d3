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


@dataclass
class GuidanceMatrix:
    """Per-POI position frequency ratios, shape (k, m_max).

    Row i is f_ij / f_i over 1-based positions j; rows of never-visited
    POIs are all zero so guidance stays neutral where data gives no support.
    """

    values: np.ndarray
    m_max: int
    poi_totals: np.ndarray

    @property
    def k(self) -> int:
        return self.values.shape[0]


@dataclass
class ConfidenceVector:
    """Per-position fraction of POIs with no occurrence there, shape (m_max,)."""

    values: np.ndarray

    def at(self, position: int) -> float:
        """Confidence at a 1-based position in 1..m_max; later positions raise ValueError."""
        if position < 1:
            raise ValueError(f"positions are 1-based, got {position}")
        check_horizon(position, len(self.values), "position")
        return float(self.values[position - 1])


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
    return GuidanceMatrix(values=values, m_max=m_max, poi_totals=totals)


def zero_guidance(k: int, m_max: int) -> GuidanceMatrix:
    """All-zero guidance; applying it is the identity on logits."""
    return GuidanceMatrix(
        values=np.zeros((k, m_max), dtype=np.float64),
        m_max=m_max,
        poi_totals=np.zeros(k, dtype=np.float64),
    )


def build_confidence(pm: GuidanceMatrix, k: int) -> ConfidenceVector:
    """Per position j, the fraction of POI rows whose column-j entry is zero."""
    zero_counts = (pm.values == 0.0).sum(axis=0)
    return ConfidenceVector(values=zero_counts.astype(np.float64) / k)


def guidance_columns(pm: GuidanceMatrix, first_position: int, m: int) -> np.ndarray:
    """Guidance for ``m`` logit rows from a 1-based position; the last may not pass ``pm.m_max``."""
    if first_position < 1:
        raise ValueError(f"positions are 1-based, got {first_position}")
    if m < 0:
        raise ValueError(f"m must be non-negative, got {m}")
    check_horizon(first_position - 1 + m, pm.m_max, "last position")
    # copied, so the result is a new C-ordered array
    return pm.values.T[first_position - 1 : first_position - 1 + m].copy()


def guidance_factor(pm: GuidanceMatrix, first_position: int, m: int) -> np.ndarray:
    """The ``1 + pm`` factor that scales ``m`` logit rows from a 1-based position."""
    return 1.0 + guidance_columns(pm, first_position, m)


def apply_guidance(
    h: np.ndarray, pm: GuidanceMatrix, first_position: int = 1
) -> np.ndarray:
    """Reshape logits elementwise: out[i][p] = h[i][p] * (1 + pm[p][pos_i]).

    ``first_position`` is the 1-based route position of the first logit row;
    the default aligns row i with position i+1 as in one-shot prediction.
    No renormalization is applied.
    """
    h = np.asarray(h, dtype=np.float64)
    return h * guidance_factor(pm, first_position, h.shape[0])
