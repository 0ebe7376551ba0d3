"""One sha256 over the decodes of a fixed grid, to show that a change kept every decode.

    PYTHONPATH=src python scripts/decode_digest.py

The grid, on the Glasgow corpus split at the `ExperimentConfig` defaults:

- queries: each test trajectory cut to every length from 2 to its own (its
  first n - 1 stops and its last), so every n the corpus has is decoded,
  2 and 3 included;
- both architectures, each trained 1 epoch with guidance at the
  `ModelConfig` defaults, decoded under the training guidance with every
  strategy (adaptive in both modes) and the no-repeat mask off and on,
  3 repeats, query i of repeat r on `decode_config_for_query(cfg, r, i)`;
  each setting decodes on the one model, so later repeats read its plans;
- the same grid on a copy of each model whose head scores POI 0 as NaN, so
  every decode raises;
- the Markov baseline over the training split's transitions with every
  strategy but threshold mode, mask off and on, 3 repeats, and the
  popularity baseline once.

Each decode adds its trip, its trace, the (category, message) of each
warning and the message of its error, if any, to the hash.  Standard output
is two lines: `scripts/artifact_hashes.py`'s arithmetic line and the digest
with the count of decodes.  Run it against two checkouts (point PYTHONPATH
at each `src`) and diff the outputs.  Trips and traces are integers, so two
hosts whose arithmetic lines match print the same digest for the same code.
"""

from __future__ import annotations

import hashlib
import sys
import warnings
from pathlib import Path

import numpy as np

from artifact_hashes import arithmetic_line
from artrip import analysis, baselines, decoding
from artrip.config import ADAPTIVE_MODES, ARCH_ONE_SHOT, ARCH_RECURRENT, DecodeConfig, ExperimentConfig, ModelConfig
from artrip.data import Trajectory, extract_trajectories, load_poi_catalog, load_visits, make_query, split_corpus
from artrip.guidance import build_confidence, build_guidance_matrix
from artrip.model.params import init_params
from artrip.model.train import train

DATA = Path(__file__).resolve().parents[1] / "data" / "glasgow"
REPEATS = 3
# (strategy, adaptive mode); the mode matters to adaptive alone
SETTINGS = (
    ("greedy", "temperature"),
    ("top_k", "temperature"),
    ("top_p", "temperature"),
    *(("adaptive", mode) for mode in ADAPTIVE_MODES),
)
# the Markov baseline has no confidence model, so no threshold mode
MARKOV_SETTINGS = SETTINGS[:4]
MASKS = (False, True)


def grid_queries(test: list[Trajectory]):
    """Each test trajectory cut to every length from 2 to its own."""
    return [
        make_query(Trajectory(pois=t.pois[: n - 1] + t.pois[-1:], times=t.times[: n - 1] + t.times[-1:]))
        for t in test
        for n in range(2, len(t) + 1)
    ]


class Digest:
    """A sha256 over the outcome of each decode it is given, with their count."""

    def __init__(self):
        self.hash = hashlib.sha256()
        self.decodes = 0

    def add(self, decode, *args) -> None:
        """Run `decode(*args, trace)` and hash its trip, trace, warnings and error."""
        trace, trip, error = [], None, None
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                trip = decode(*args, trace).pois
            except ValueError as exc:
                error = str(exc)
        warned = [(w.category.__name__, str(w.message)) for w in caught]
        self.hash.update(repr((trip, trace, warned, error)).encode())
        self.decodes += 1


def decode_grid(digest: Digest, queries, settings, decode) -> None:
    """Every setting, mask and repeat over `queries` through `decode(query, cfg, trace)`."""
    for strategy, mode in settings:
        for mask in MASKS:
            cfg = DecodeConfig(strategy=strategy, adaptive_mode=mode, no_repeat_mask=mask)
            for repeat in range(REPEATS):
                for i, query in enumerate(queries):
                    digest.add(decode, query, decoding.decode_config_for_query(cfg, repeat, i))


def with_nan_head(params):
    """A fresh copy of `params` whose head column of POI 0 is NaN."""
    copy = init_params(params.config, params.k, params.m_max)
    copy.flat[:] = params.flat
    copy.blocks["head"][:, 0] = np.nan
    return copy


def digest_decodes() -> Digest:
    # the split's defaults, read off the class
    config = ExperimentConfig
    catalog = load_poi_catalog(DATA / "POI-glasgow.csv")
    visits, _ = load_visits(DATA / "userVisits-glasgow.csv", catalog)
    trajectories = extract_trajectories(visits, catalog, min_len=config.min_traj_len)
    split = split_corpus(trajectories, (config.train_ratio, config.val_ratio, config.test_ratio), config.split_seed)
    k = len(catalog)
    pm = build_guidance_matrix(split.train, k)
    conf = build_confidence(pm, k)
    queries = grid_queries(split.test)
    digest = Digest()
    for arch in (ARCH_ONE_SHOT, ARCH_RECURRENT):
        params = train(split.train, pm, ModelConfig(arch=arch, epochs=1)).params
        for model in (params, with_nan_head(params)):

            def decode(query, cfg, trace, model=model):
                return decoding.decode_trip(query, model, pm, conf, cfg, trace)

            decode_grid(digest, queries, SETTINGS, decode)
    matrices = analysis.empirical_transitions(split.train, k)
    # the baselines keep no trace
    decode_grid(digest, queries, MARKOV_SETTINGS, lambda q, cfg, trace: baselines.markov_decode(q, matrices, cfg))
    counts = baselines.build_popularity(split.train, k)
    for query in queries:
        digest.add(lambda q, trace: baselines.popularity_decode(q, counts), query)
    return digest


def main() -> int:
    digest = digest_decodes()
    print(arithmetic_line())
    print(f"{digest.hash.hexdigest()}  {digest.decodes} decodes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
