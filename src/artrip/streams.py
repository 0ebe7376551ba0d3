"""The package's one builder of random number generators.

Each use of randomness is a named domain, and `rng` turns the seed its
caller holds into the entropy that domain passes to `np.random.default_rng`.
The domain picks the entropy but is not mixed into it, so streams of two
domains can coincide (README, Determinism).
"""

from __future__ import annotations

import numpy as np

# domain -> the entropy `default_rng` gets from the caller's seed
_ENTROPY = {
    "split": lambda seed: seed,  # split_seed: the train/val/test shuffle
    "init": lambda seed: seed,  # model_seed: the initial parameters
    "shuffle": lambda seed: [seed, 1],  # model_seed: each epoch's training order
    "decode": lambda seed: seed,  # an int, or decode_config_for_query's (base seed, ordinal)
    "perturb": lambda seed: seed,  # noise_seed + i for transition matrix i
}


def rng(domain: str, seed) -> np.random.Generator:
    """The generator of `domain` for `seed`; an unknown domain raises ValueError."""
    try:
        entropy = _ENTROPY[domain]
    except KeyError:
        raise ValueError(f"unknown random stream domain {domain!r}; known: {', '.join(_ENTROPY)}") from None
    return np.random.default_rng(entropy(seed))
