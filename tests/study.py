"""The criterion-5/6 mechanism study, one training run per worker process.

A cell is one (arch, mechanisms, seed) run: train the base model (no
mechanisms: zero guidance, alpha 0, greedy decoding) or the +agd model
(all three: the training split's guidance, alpha 1, adaptive sampling),
then decode and score the test split once.  The cells share nothing, so
`run_study` maps them over spawned worker processes and averages each
(arch, mechanisms) pair over its seeds in seed order; the result does not
depend on the worker count.  Workers start from a fresh import, so each
cell gets its data as arguments and builds its guidance itself.  The
package does not need this at run time, so it lives with the tests, which
import it as `study` the way they import `gradcheck`.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from artrip.config import ARCH_ONE_SHOT, ARCH_RECURRENT, DecodeConfig, ModelConfig
from artrip.data import Trajectory
from artrip.decoding import decode_config_for_query, decode_trip
from artrip.guidance import build_confidence, build_guidance_matrix, zero_guidance
from artrip.metrics import evaluate_decoder
from artrip.model.train import train as train_model

# one-shot first: its cells take about twice as long as recurrent ones
ARCHS = (ARCH_ONE_SHOT, ARCH_RECURRENT)


def run_cell(
    train: list[Trajectory], test: list[Trajectory], k: int, arch: str, mechanisms_on: bool, seed: int, epochs: int
) -> tuple[float, float]:
    """`(F1, REP)` means over `test` of one model trained on `train` with `seed`."""
    pm = build_guidance_matrix(train, k)
    conf = build_confidence(pm, k)
    guidance = pm if mechanisms_on else zero_guidance(k, pm.m_max)
    config = ModelConfig(arch=arch, alpha=1.0 if mechanisms_on else 0.0, epochs=epochs, seed=seed)
    trained = train_model(train, guidance, config)
    decode_config = DecodeConfig(strategy="adaptive" if mechanisms_on else "greedy", seed=seed)

    def decode_fn(query, ordinal, repeat_seed):
        per_query = decode_config_for_query(decode_config, repeat_seed, ordinal)
        return decode_trip(query, trained.params, guidance, conf, per_query)

    report = evaluate_decoder(decode_fn, test, 1, decode_config.seed)
    return report.f1_mean, report.rep_mean


def run_study(
    train: list[Trajectory], test: list[Trajectory], k: int, seeds, workers: int, epochs: int = ModelConfig.epochs
) -> dict:
    """`{(arch, mechanisms_on): {"f1", "rep", "per_seed"}}` over `workers` spawned processes.

    "f1" and "rep" are the means over `seeds`, in their order, of each
    cell's scores, which "per_seed" lists as `(f1, rep)` pairs.
    """
    seeds = list(seeds)
    cells = [(arch, on, seed) for arch in ARCHS for on in (False, True) for seed in seeds]
    with ProcessPoolExecutor(max_workers=workers, mp_context=multiprocessing.get_context("spawn")) as pool:
        futures = [pool.submit(run_cell, train, test, k, *cell, epochs) for cell in cells]
        scores = dict(zip(cells, (future.result() for future in futures)))
    results = {}
    for arch in ARCHS:
        for on in (False, True):
            per_seed = [scores[arch, on, seed] for seed in seeds]
            results[arch, on] = {
                "f1": float(np.mean([f1 for f1, _ in per_seed])),
                "rep": float(np.mean([rep for _, rep in per_seed])),
                "per_seed": per_seed,
            }
    return results
