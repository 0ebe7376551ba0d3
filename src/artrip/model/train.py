"""Adam training loop shared by both architectures.

One optimizer step per trajectory, visiting the corpus in a fresh
seeded shuffle each epoch.  Scores are guided before the loss is taken,
so the guidance matrix shapes gradients too; training with a zero
guidance matrix is exactly the unguided model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from artrip import streams
from artrip.config import ARCH_ONE_SHOT, ModelConfig
from artrip.data import Trajectory, make_query
from artrip.guidance import GuidanceMatrix, check_horizon, check_pois, guidance_factor
from artrip.model import one_shot, recurrent
from artrip.model.losses import total_loss_grad
from artrip.model.params import ModelParams, init_params

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class TrainResult:
    params: ModelParams
    epoch_losses: list[float]


class _AdamState:
    """Adam (Kingma & Ba, ICLR 2015) over the flat vector, updated in place.

    Per-step temporaries this size would each be a fresh mmap that faults.
    Each element keeps the operation order b1*m + (1-b1)*g,
    b2*v + ((1-b2)*g)*g and (lr*(m/bc1)) / (sqrt(v/bc2)+eps).
    """

    def __init__(self, params: ModelParams):
        self.m, self.v, self._step, self._denom = np.zeros((4, params.flat.size))
        self.t = 0

    def step(self, params: ModelParams, grad: np.ndarray, lr: float):
        self.t += 1
        bc1 = 1.0 - ADAM_BETA1**self.t
        bc2 = 1.0 - ADAM_BETA2**self.t
        m, v, step, denom = self.m, self.v, self._step, self._denom
        m *= ADAM_BETA1
        m += np.multiply(grad, 1.0 - ADAM_BETA1, out=step)
        v *= ADAM_BETA2
        v += np.multiply(np.multiply(grad, 1.0 - ADAM_BETA2, out=step), grad, out=step)
        np.multiply(np.divide(m, bc1, out=step), lr, out=step)
        np.sqrt(np.divide(v, bc2, out=denom), out=denom)
        denom += ADAM_EPS
        # in place: a frozen record cannot rebind `flat`, as `-=` would
        np.subtract(params.flat, np.divide(step, denom, out=step), out=params.flat)


def loss_and_grads(
    traj: Trajectory, params: ModelParams, pm: GuidanceMatrix, alpha: float, buffer: ModelParams | None
):
    """Loss for one trajectory and its flat gradient, `buffer.flat` (see the architectures' `backward`).

    `buffer` is a `params.zero_grads()` record.  The backward pass
    overwrites its dense blocks and zeroes its embedding tables before
    scattering into them, so one record serves every step.  The gradient
    is None, and no backward pass runs, when `buffer` is None or the loss
    is not finite.
    """
    query = make_query(traj)
    if params.config.arch == ARCH_ONE_SHOT:
        module, first_position, targets = one_shot, 1, traj.pois
        rows, cache = one_shot.forward_with_cache(query, params)
    else:
        module, first_position, targets = recurrent, 2, traj.pois[1:]
        rows, cache = recurrent.forward_teacher(query, traj.pois, params)
    factor = guidance_factor(pm, first_position, rows.shape[0])
    loss, dguided = total_loss_grad(rows * factor, targets, alpha)
    # backprop on a non-finite loss is garbage: let the caller abort
    if buffer is None or not math.isfinite(loss):
        return loss, None
    return loss, module.backward(params, cache, dguided * factor, buffer)


def train(trajectories: list[Trajectory], pm: GuidanceMatrix, config: ModelConfig) -> TrainResult:
    """Fit a model on a trajectory corpus.

    Vocabulary size and the position horizon are taken from the
    guidance matrix, which ties the model tables to the same training
    split the matrix was built from.  A trajectory with fewer than two stops
    or longer than that horizon, or holding a POI outside 0..k-1, raises
    ValueError before the first step.  Raises RuntimeError as soon as a
    non-finite loss shows up.
    """
    if not trajectories:
        raise ValueError("empty training corpus")
    for idx, traj in enumerate(trajectories):
        if len(traj) < 2:
            raise ValueError(f"trajectory {idx}: length n={len(traj)} is below the two endpoint positions")
        check_horizon(len(traj), pm.m_max, f"trajectory {idx}: length n")
        check_pois(traj.pois, pm.k, f"trajectory {idx}: ")
    params = init_params(config, pm.k, pm.m_max)
    adam = _AdamState(params)
    # one gradient vector for the whole run, rewritten by each backward pass
    buffer = params.zero_grads()
    shuffle_rng = streams.rng("shuffle", config.seed)
    epoch_losses: list[float] = []
    for epoch in range(config.epochs):
        order = shuffle_rng.permutation(len(trajectories))
        total = 0.0
        for idx in order:
            loss, grad = loss_and_grads(trajectories[idx], params, pm, config.alpha, buffer)
            if not math.isfinite(loss):
                raise RuntimeError(
                    f"non-finite loss at epoch {epoch}, trajectory {idx}"
                )
            adam.step(params, grad, config.learning_rate)
            total += loss
        epoch_losses.append(float(total / len(trajectories)))
    return TrainResult(params=params, epoch_losses=epoch_losses)
