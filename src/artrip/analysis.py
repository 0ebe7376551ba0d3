"""Tools for quantifying how prone a decision process is to cycling.

A greedy decoder induces a deterministic transition structure over
POIs; its sparsity and the mass its powers keep on the diagonal
predict how often generated trips fall into loops.  The probability of
returning to a starting POI after an even number of steps is estimated
by a truncated series over products of (possibly position-dependent)
transition matrices, normalized by the matrices' non-zero density.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from artrip import streams
from artrip.data import Trajectory
from artrip.guidance import count_visits


def sparsity_xi(matrix: np.ndarray) -> float:
    """Fraction of non-zero entries."""
    if matrix.size == 0:
        raise ValueError("empty matrix has no sparsity")
    return float(np.count_nonzero(matrix)) / matrix.size


def perturb(matrix: np.ndarray, sigma: float, seed: int) -> np.ndarray:
    """Add iid Gaussian noise, clip at zero and renormalize each row.

    Rows that end up all zero become uniform, with a warning that names
    them.  With sigma == 0 a copy of the matrix is returned (bit for bit).
    """
    if not 0.0 <= sigma < math.inf:
        raise ValueError(f"sigma must be finite and non-negative, got {sigma}")
    if sigma == 0.0:
        return matrix.copy()
    noisy = np.clip(matrix + streams.rng("perturb", seed).normal(0.0, sigma, matrix.shape), 0.0, None)
    sums = noisy.sum(axis=1)
    dead = np.flatnonzero(sums == 0.0)
    if dead.size:
        warnings.warn(
            f"perturbation zeroed out rows {dead.tolist()}; resetting them to uniform",
            RuntimeWarning,
            stacklevel=2,
        )
        noisy[dead] = 1.0 / len(matrix)
        sums[dead] = 1.0
    return noisy / sums[:, None]


@dataclass
class PmrResult:
    """Truncated return-probability series.

    `terms` holds tr(product of 2j matrices) / (k xi)**j for j=1..j_max
    and `value` their sum.  `converged` is False when any later term
    fails to drop below its predecessor (a vanished term still counts
    as converged).
    """

    terms: list[float]
    value: float
    converged: bool


def pmr_series(matrices: np.ndarray, k: int, xi: float, j_max: int) -> PmrResult:
    """Probability mass of even-length returns, truncated at j_max.

    The (n, k, k) chain `matrices` is cycled when a product needs more
    factors than were given, which covers both a single stationary
    matrix and a short position-indexed chain.
    """
    if len(matrices) == 0:
        raise ValueError("need at least one transition matrix")
    if k * xi <= 0.0:
        raise ValueError(f"degenerate normalization k*xi = {k * xi}")
    if j_max < 0:
        raise ValueError("j_max must be non-negative")
    product = np.eye(k, dtype=np.float64)
    terms: list[float] = []
    step = 0
    for j in range(1, j_max + 1):
        product = product @ matrices[step % len(matrices)]
        product = product @ matrices[(step + 1) % len(matrices)]
        step += 2
        terms.append(float(np.trace(product)) / (k * xi) ** j)
    converged = all(
        terms[i + 1] < terms[i] or terms[i + 1] == 0.0 for i in range(len(terms) - 1)
    )
    return PmrResult(terms=terms, value=float(sum(terms)), converged=converged)


def empirical_transitions(trajectories: list[Trajectory], k: int) -> np.ndarray:
    """Per-position transition estimates from a trajectory corpus.

    Returns a float64 (longest route - 1, k, k) array whose matrix i
    maps the POI at position i + 1 to the POI at position i + 2.  Rows
    never observed at a position are uniform, 1/k each.
    """
    if not trajectories:
        raise ValueError("empty corpus")
    horizon = max(len(t) for t in trajectories) - 1

    def steps(pois, positions):
        # consecutive visits of one route; the next route restarts at position 0
        step = np.flatnonzero(positions[1:] == positions[:-1] + 1)
        return positions[step], pois[step], pois[step + 1]

    counts = count_visits(trajectories, k, (horizon, k, k), steps)
    sums = counts.sum(axis=2, keepdims=True)
    # a row never observed at its position stays uniform
    return np.divide(counts, sums, out=np.full_like(counts, 1.0 / k), where=sums > 0.0)


def repeat_histogram(trips: list[tuple[int, ...]]) -> tuple[np.ndarray, np.ndarray]:
    """Tally repeated POIs across a batch of trips, each a tuple of POIs.

    Returns `(position_counts, gap_counts)`, int64 arrays of length longest
    trip + 1.  A repeat at 1-based position j of a POI first seen at
    position j' bumps `position_counts[j]` and `gap_counts[j - j']`; index 0
    is unused in both.
    """
    if not trips:
        raise ValueError("no trips to analyze")
    size = max(len(t) for t in trips) + 1
    positions, gaps = [], []
    for seq in trips:
        first_seen: dict[int, int] = {}
        for j, poi in enumerate(seq, start=1):
            first = first_seen.setdefault(poi, j)
            if first < j:
                positions.append(j)
                gaps.append(j - first)
    return (
        np.bincount(np.array(positions, dtype=np.int64), minlength=size),
        np.bincount(np.array(gaps, dtype=np.int64), minlength=size),
    )
