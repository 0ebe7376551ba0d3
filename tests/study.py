"""The criterion-5/6 mechanism study, run through the shipped CLI.

A cell is a set of flags: the corpus files, an architecture, the three
mechanism switches all off (zero guidance, alpha 0, greedy decoding) or all
on (the training split's guidance, alpha 1, adaptive sampling), one seed for
the model and the decoder, and the epochs.  `run_cell` runs `artrip train`
and `artrip evaluate --repeats 1` in-process through `artrip.cli.main`, in a
temporary directory, and reads F1 and REP from the `mean` row of the
`metrics.csv` written.  `run_study` maps the cells over spawned worker
processes and averages each (arch, mechanisms) pair over its seeds in seed
order, so the result does not depend on the worker count.  Only the tests
need this, which import it as `study` the way they import `gradcheck`.
"""

from __future__ import annotations

import contextlib
import csv
import io
import multiprocessing
import tempfile
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from artrip.cli import main as cli_main
from artrip.config import ARCH_ONE_SHOT, ARCH_RECURRENT, ModelConfig

# one-shot first: its cells take about twice as long as recurrent ones
ARCHS = (ARCH_ONE_SHOT, ARCH_RECURRENT)


def run_cell(corpus_flags, arch: str, mechanisms_on: bool, seed: int, epochs: int) -> tuple[float, float]:
    """`(F1, REP)` test-split means of one model trained and scored by the CLI."""
    on = "true" if mechanisms_on else "false"
    with tempfile.TemporaryDirectory() as out:
        flags = [
            *corpus_flags, "--arch", arch, "--guiding", on, "--drifting", on, "--adapting", on,
            "--model-seed", str(seed), "--decode-seed", str(seed), "--epochs", str(epochs),
            "--repeats", "1", "--output-dir", out,
        ]
        for command in ("train", "evaluate"):
            console = io.StringIO()
            with contextlib.redirect_stdout(console), contextlib.redirect_stderr(console):
                code = cli_main([command, *flags])
            if code != 0:
                raise RuntimeError(f"artrip {command} exited with {code}: {console.getvalue()}")
        with open(Path(out) / "metrics.csv", newline="", encoding="utf-8") as fh:
            mean = next(row for row in csv.DictReader(fh) if row["repeat"] == "mean")
    return float(mean["f1"]), float(mean["rep"])


def run_study(corpus_flags, seeds, workers: int, epochs: int = ModelConfig.epochs) -> dict:
    """`{(arch, mechanisms_on): {"f1", "rep", "per_seed"}}` over `workers` spawned processes.

    "f1" and "rep" are the means over `seeds`, in their order, of each
    cell's scores, which "per_seed" lists as `(f1, rep)` pairs.
    """
    seeds = list(seeds)
    cells = [(arch, on, seed) for arch in ARCHS for on in (False, True) for seed in seeds]
    with ProcessPoolExecutor(max_workers=workers, mp_context=multiprocessing.get_context("spawn")) as pool:
        futures = [pool.submit(run_cell, corpus_flags, *cell, epochs) for cell in cells]
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
