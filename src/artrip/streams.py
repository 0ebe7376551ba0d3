"""The package's one builder of random number generators.

Each use of randomness is a named domain, and `rng` turns the seed its
caller holds into the entropy of that domain's stream: an int or a tuple of
ints.  The domain picks the entropy but is not mixed into it, so streams of
two domains can coincide (README, Determinism).

Every generator is the one `np.random.default_rng(entropy)` builds, bit for
bit.  `PCG64` seeds itself with four `uint64` words that `SeedSequence`
hashes from the entropy, a pure function of it, so `rng` memoizes those
words per entropy (at most `MEMO_CAP` entries, least recently used out) and
skips the hashing when a process seeds one stream again, as an evaluation
that scores several decoders on common seeds does.  Each call still returns
a new generator at the start of its stream.  `numpy.random` loads on the
first call, not on import.
"""

from __future__ import annotations

import functools
import operator

import numpy as np

# entropies whose seed words are kept; about 300 bytes each
MEMO_CAP = 1024

# what `PCG64` asks its seed sequence for: generate_state(4, np.uint64)
_N_WORDS = 4

# domain -> the entropy of the caller's seed
_ENTROPY = {
    "split": lambda seed: seed,  # split_seed: the train/val/test shuffle
    "init": lambda seed: seed,  # model_seed: the initial parameters
    "shuffle": lambda seed: (seed, 1),  # model_seed: each epoch's training order
    "decode": lambda seed: seed,  # an int, or decode_config_for_query's (base seed, ordinal)
    "perturb": lambda seed: seed,  # noise_seed + i for transition matrix i
}


class _SeedWords:
    """A seed sequence that hands `PCG64` words already generated.

    Registered as a `numpy.random.bit_generator.ISeedSequence` by the first
    `_seed_words` miss (`_register`), which every instance's words come from.
    """

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if n_words != _N_WORDS or (dtype is not np.uint64 and np.dtype(dtype) != np.uint64):
            raise ValueError(f"seed words are memoized as ({_N_WORDS}, uint64), not ({n_words}, {np.dtype(dtype)})")
        return self.words


def _key(entropy):
    """`entropy` with each int as a plain int; a float, string or list raises TypeError.

    So entries equal as keys are equal as entropy: `1.0 == 1` must not
    reach the words of 1.
    """
    if isinstance(entropy, tuple):
        return tuple(map(operator.index, entropy))
    return operator.index(entropy)


@functools.cache
def _register() -> None:
    """Register `_SeedWords` as an `ISeedSequence`, once per process: each `register` call voids every ABC's negative cache."""
    np.random.bit_generator.ISeedSequence.register(_SeedWords)


@functools.lru_cache(maxsize=MEMO_CAP)
def _seed_words(entropy) -> np.ndarray:
    """`SeedSequence(entropy)`'s words for `PCG64`, read-only."""
    words = np.random.SeedSequence(entropy).generate_state(_N_WORDS, np.uint64)
    words.flags.writeable = False
    _register()
    return words


def rng(domain: str, seed) -> np.random.Generator:
    """A new generator of `domain` for `seed`; an unknown domain raises ValueError."""
    try:
        entropy = _ENTROPY[domain]
    except KeyError:
        raise ValueError(f"unknown random stream domain {domain!r}; known: {', '.join(_ENTROPY)}") from None
    words = _seed_words(_key(entropy(seed)))
    return np.random.Generator(np.random.PCG64(_SeedWords(words)))
