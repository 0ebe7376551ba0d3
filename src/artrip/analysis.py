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
from dataclasses import dataclass, replace

import numpy as np

from artrip.data import Trajectory
from artrip.decoding import Trip
from artrip.guidance import count_visits


@dataclass
class TransitionMatrix:
    """Row-stochastic (or at least non-negative) POI transition table.

    `position` is the 1-based trip position the rows condition on;
    `uniform_rows` lists rows that had no data and were filled with the
    uniform distribution.
    """

    values: np.ndarray
    position: int = 1
    uniform_rows: tuple[int, ...] = ()

    @property
    def k(self) -> int:
        return self.values.shape[0]


def sparsity_xi(matrix: TransitionMatrix | np.ndarray) -> float:
    """Fraction of non-zero entries."""
    values = matrix.values if isinstance(matrix, TransitionMatrix) else np.asarray(matrix)
    if values.size == 0:
        raise ValueError("empty matrix has no sparsity")
    return float(np.count_nonzero(values)) / values.size


def perturb(matrix: TransitionMatrix, sigma: float, seed: int = 0) -> TransitionMatrix:
    """Add iid Gaussian noise, clip at zero and renormalize each row.

    Rows that end up all zero become uniform, with a warning.  With
    sigma == 0 the matrix is returned unchanged (bit for bit).
    """
    if not 0.0 <= sigma < math.inf:
        raise ValueError(f"sigma must be finite and non-negative, got {sigma}")
    if sigma == 0.0:
        return replace(matrix, values=matrix.values.copy())
    rng = np.random.default_rng(seed)
    noisy = np.clip(matrix.values + rng.normal(0.0, sigma, matrix.values.shape), 0.0, None)
    sums = noisy.sum(axis=1)
    dead = np.flatnonzero(sums == 0.0)
    if dead.size:
        warnings.warn(
            f"perturbation zeroed out rows {dead.tolist()}; resetting them to uniform",
            RuntimeWarning,
            stacklevel=2,
        )
        noisy[dead] = 1.0 / matrix.k
        sums[dead] = 1.0
    return replace(matrix, values=noisy / sums[:, None], uniform_rows=tuple(int(r) for r in dead))


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


def pmr_series(
    matrices: list[TransitionMatrix] | list[np.ndarray],
    k: int,
    xi: float,
    j_max: int = 10,
) -> PmrResult:
    """Probability mass of even-length returns, truncated at j_max.

    The matrix sequence is cycled when a product needs more factors
    than were given, which covers both a single stationary matrix and a
    short position-indexed chain.
    """
    if not matrices:
        raise ValueError("need at least one transition matrix")
    if k * xi <= 0.0:
        raise ValueError(f"degenerate normalization k*xi = {k * xi}")
    if j_max < 0:
        raise ValueError("j_max must be non-negative")
    chain = [m.values if isinstance(m, TransitionMatrix) else np.asarray(m, dtype=np.float64) for m in matrices]
    product = np.eye(k, dtype=np.float64)
    terms: list[float] = []
    step = 0
    for j in range(1, j_max + 1):
        product = product @ chain[step % len(chain)]
        product = product @ chain[(step + 1) % len(chain)]
        step += 2
        terms.append(float(np.trace(product)) / (k * xi) ** j)
    converged = all(
        terms[i + 1] < terms[i] or terms[i + 1] == 0.0 for i in range(len(terms) - 1)
    )
    return PmrResult(terms=terms, value=float(sum(terms)), converged=converged)


def empirical_transitions(trajectories: list[Trajectory], k: int) -> list[TransitionMatrix]:
    """Per-position transition estimates from a trajectory corpus.

    Matrix i (1-based position i) maps the POI at position i to the POI
    at position i+1.  Rows never observed at a position fall back to
    uniform and are flagged.
    """
    if not trajectories:
        raise ValueError("empty corpus")
    horizon = max(len(t) for t in trajectories) - 1

    def steps(pois, positions):
        # consecutive visits of one route; the next route restarts at position 0
        step = np.flatnonzero(positions[1:] == positions[:-1] + 1)
        return positions[step], pois[step], pois[step + 1]

    counts = count_visits(trajectories, k, (horizon, k, k), steps)
    sums = counts.sum(axis=2)
    dead = sums == 0.0
    counts[dead] = 1.0 / k
    sums[dead] = 1.0
    values = counts / sums[..., None]
    return [
        TransitionMatrix(values[pos], pos + 1, tuple(int(r) for r in np.flatnonzero(dead[pos])))
        for pos in range(horizon)
    ]


@dataclass
class RepetitionHistogram:
    """Where repeats land and how far back they reach.

    `position_counts[j]` counts repeats emitted at 1-based position j;
    `gap_counts[g]` counts repeats whose first earlier occurrence sits
    g positions back.  Index 0 is unused in both.
    """

    position_counts: np.ndarray
    gap_counts: np.ndarray

    @property
    def total(self) -> int:
        return int(self.position_counts.sum())


def repeat_histogram(trips: list[Trip] | list[tuple[int, ...]]) -> RepetitionHistogram:
    """Tally repeated POIs across a batch of trips.

    A repeat at position j of a POI first seen at position j' bumps
    position bucket j and gap bucket j - j'.
    """
    if not trips:
        raise ValueError("no trips to analyze")
    seqs = [t.pois if isinstance(t, Trip) else tuple(t) for t in trips]
    size = max(len(s) for s in seqs) + 1
    positions, gaps = [], []
    for seq in seqs:
        first_seen: dict[int, int] = {}
        for j, poi in enumerate(seq, start=1):
            first = first_seen.setdefault(poi, j)
            if first < j:
                positions.append(j)
                gaps.append(j - first)
    return RepetitionHistogram(
        position_counts=np.bincount(np.array(positions, dtype=np.int64), minlength=size),
        gap_counts=np.bincount(np.array(gaps, dtype=np.int64), minlength=size),
    )
