"""Training losses: per-position cross entropy plus a repetition penalty.

The repetition ("drift") term pushes the score rows of different trip
positions apart.  For each pair of positions it maps the cosine of the
two rows to a pseudo-probability Pr = (cos + 1) / 2 and charges
-log(1 - Pr), summed over all ordered gaps without normalization, so
rows that point the same way (which decode to the same POI) are
penalized hard.
"""

from __future__ import annotations

import functools
import warnings

import numpy as np

# keeps -log(1 - Pr) finite when two rows are exactly (anti-)parallel
PROB_EPS = 1e-6
_LOG2 = np.log(2.0)


def recommendation_loss_grad(rows: np.ndarray, targets) -> tuple[float, np.ndarray]:
    """Mean cross entropy of score rows against target POI indices, and its gradient."""
    targets = np.asarray(targets, dtype=np.int64)
    m = rows.shape[0]
    if m == 0 or m != targets.shape[0]:
        raise ValueError("rows and targets must be non-empty and aligned")
    shifted = rows - np.maximum.reduce(rows, axis=1, keepdims=True)
    exp = np.exp(shifted)
    denom = np.add.reduce(exp, axis=1, keepdims=True)
    at = (np.arange(m), targets)
    # the target entries of shifted - log(denom), and ndarray.mean's own
    # sum and division over them, without its Python wrapper
    loss = float(-(np.add.reduce(shifted[at] - np.log(denom)[:, 0]) / m))
    drows = np.divide(exp, denom, out=exp)
    drows[at] -= 1.0
    drows /= m
    return loss, drows


@functools.lru_cache(maxsize=64)
def _pairs(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column of every pair i < j, row-major: the order of np.triu's mask.

    Cached per trip length and shared between calls, hence read-only.
    """
    pairs = np.triu_indices(m, 1)
    for index in pairs:
        index.flags.writeable = False
    return pairs


def drift_loss_grad(rows: np.ndarray) -> tuple[float, np.ndarray]:
    """Pairwise repetition penalty over all position pairs, and its gradient.

    A zero row has no direction: its pairs cost log 2 and carry no gradient.
    """
    m = rows.shape[0]
    if m < 2:
        return 0.0, np.zeros_like(rows)
    # np.linalg.norm's own product, sum and root, without its Python wrapper
    norms = np.sqrt(np.add.reduce(rows * rows, axis=1))
    valid = norms > 0.0
    # a zero norm is read as 1, so no row divides by zero
    scale = np.where(valid, norms, 1.0)[:, None]
    unit = rows / scale
    if not valid.all():
        warnings.warn(
            "zero-norm score row in drift loss; pair correlation fixed at 0.5",
            RuntimeWarning,
            stacklevel=2,
        )
        # a row without a direction (a NaN norm too) enters no product
        unit[~valid] = 0.0
    cos = unit @ unit.T
    i, j = _pairs(m)
    both = valid[i] & valid[j]
    pr_raw = (cos[i, j] + 1.0) / 2.0
    # np.clip's comparisons, without its Python wrapper
    gap = 1.0 - np.minimum(np.maximum(pr_raw, PROB_EPS), 1.0 - PROB_EPS)
    loss = float(-np.add.reduce(np.log(gap[both])) + (both.size - np.count_nonzero(both)) * _LOG2)
    # clamped pairs carry no gradient
    live = (pr_raw > PROB_EPS) & (pr_raw < 1.0 - PROB_EPS)
    live &= both
    weight = np.zeros((m, m), dtype=np.float64)
    weight[i, j] = np.where(live, 0.5 / gap, 0.0)
    weight = weight + weight.T
    dunit = weight @ unit
    proj = np.add.reduce(dunit * unit, axis=1, keepdims=True)
    # a zero row's dunit is +0.0, so its gradient is +0.0 too
    return loss, (dunit - proj * unit) / scale


def total_loss_grad(rows: np.ndarray, targets, alpha: float) -> tuple[float, np.ndarray]:
    """Cross entropy plus alpha times the repetition penalty.

    With alpha == 0 the penalty is skipped entirely, which is how the
    drifting mechanism is ablated.
    """
    loss, drows = recommendation_loss_grad(rows, targets)
    if alpha != 0.0:
        rep, drep = drift_loss_grad(rows)
        loss += alpha * rep
        drows += alpha * drep
    return loss, drows
