"""Position-frequency guidance over training routes.

The guidance matrix stores, for every POI, how its visits distribute over
route positions; the confidence vector stores, per position, the fraction
of POIs never seen there. Both are consulted when reshaping model logits
and when adapting the sampling temperature during decoding.
"""

from __future__ import annotations

import warnings
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
        """Confidence at a 1-based position; 1.0 beyond the trained horizon
        (no POI was ever observed past m_max)."""
        if position < 1:
            raise ValueError(f"positions are 1-based, got {position}")
        if position > len(self.values):
            return 1.0
        return float(self.values[position - 1])


def build_guidance_matrix(train: list[Trajectory], k: int) -> GuidanceMatrix:
    """Count POI occurrences per 1-based route position and normalize per POI."""
    if not train:
        raise ValueError("cannot build guidance from an empty training set")
    m_max = max(len(t) for t in train)
    pois = np.array([poi for t in train for poi in t.pois], dtype=np.intp)
    positions = np.array([pos for t in train for pos in range(len(t))], dtype=np.intp)
    over = np.flatnonzero(pois >= k)
    if over.size:
        raise ValueError(f"POI index {int(pois[over[0]])} out of range for k={k}")
    counts = np.zeros((k, m_max), dtype=np.float64)
    # whole counts, so the float sums equal a one-by-one loop in any order
    np.add.at(counts, (pois, positions), 1.0)
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
    """Guidance aligned to ``m`` logit rows starting at a 1-based position.

    Rows beyond the trained horizon get a zero column (identity guidance);
    a warning is recorded since such queries exceed every training route.
    """
    if first_position < 1:
        raise ValueError(f"positions are 1-based, got {first_position}")
    if m < 0:
        raise ValueError(f"m must be non-negative, got {m}")
    # the slice stops at m_max; copied, so the result is a new C-ordered array
    inside = pm.values.T[first_position - 1 : first_position - 1 + m]
    if inside.shape[0] == m:
        return inside.copy()
    cols = np.zeros((m, pm.values.shape[0]), dtype=np.float64)
    cols[: inside.shape[0]] = inside
    for pos in range(first_position + inside.shape[0], first_position + m):
        warnings.warn(
            f"position {pos} exceeds trained horizon m_max={pm.m_max}; "
            "guidance is identity there"
        )
    return cols


def apply_guidance(
    h: np.ndarray, pm: GuidanceMatrix, first_position: int = 1
) -> np.ndarray:
    """Reshape logits elementwise: out[i][p] = h[i][p] * (1 + pm[p][pos_i]).

    ``first_position`` is the 1-based route position of the first logit row;
    the default aligns row i with position i+1 as in one-shot prediction.
    No renormalization is applied.
    """
    h = np.asarray(h, dtype=np.float64)
    cols = guidance_columns(pm, first_position, h.shape[0])
    return h * (1.0 + cols)
