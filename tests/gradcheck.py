"""Finite-difference verification of the hand-written gradients.

Central differences with a fixed step are compared entry by entry
against the analytic gradients of the full training loss (guided
scores, cross entropy plus weighted repetition penalty).  The relative
error uses a floored denominator so near-zero entries do not blow up
the ratio.  A corruption hook exists as a negative control: a check
run with a deliberately damaged block must fail, otherwise the checker
itself is broken.  The package does not need it at run time, so it lives
with the tests, which import it as `gradcheck` the way they import
`conftest`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from artrip.data import Trajectory
from artrip.guidance import GuidanceMatrix
from artrip.model.params import ModelParams
from artrip.model.train import loss_and_grads

FD_STEP = 1e-4
REL_FLOOR = 1e-3


@dataclass
class GradCheckReport:
    max_rel_error: float
    worst_block: str
    per_block: dict[str, float]
    passed: bool


def grad_check(
    traj: Trajectory,
    params: ModelParams,
    pm: GuidanceMatrix,
    alpha: float,
    tol: float = 1e-4,
    step: float = FD_STEP,
    corrupt_block: str | None = None,
) -> GradCheckReport:
    """Compare analytic and numeric gradients over every block.

    The analytic gradient is one backward pass into `params.zero_grads()`;
    the 2P central differences (P = `params.flat.size`) take losses alone,
    from `loss_and_grads` with no buffer.  Setting `corrupt_block` shifts
    that block's analytic gradient by a constant first; that report must
    come back failed for the check to count as trustworthy.
    """
    buffer = params.zero_grads()
    _, analytic = loss_and_grads(traj, params, pm, alpha, buffer)
    if corrupt_block is not None:
        if corrupt_block not in params.blocks:
            raise KeyError(f"unknown block {corrupt_block!r}")
        buffer.blocks[corrupt_block] += 0.5
    flat = params.flat
    rel = np.zeros(flat.size)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        up, _ = loss_and_grads(traj, params, pm, alpha, None)
        flat[i] = orig - step
        down, _ = loss_and_grads(traj, params, pm, alpha, None)
        flat[i] = orig
        numeric = (up - down) / (2.0 * step)
        rel[i] = abs(analytic[i] - numeric) / max(abs(analytic[i]), abs(numeric), REL_FLOOR)
    per_block = {name: float(block.max()) for name, block in params.views(rel).items()}
    # ties go to the later block
    worst_block = max(reversed(per_block), key=per_block.__getitem__)
    max_rel = per_block[worst_block]
    return GradCheckReport(
        max_rel_error=max_rel,
        worst_block=worst_block,
        per_block=per_block,
        passed=max_rel <= tol,
    )
