"""The named random streams: each domain's generator is the one its call
site built from raw `default_rng` entropy, bit for bit, and the overlaps
README's Determinism section states are pinned as known failures of
disjointness until the streams are separated."""

import numpy as np
import pytest

from artrip import streams

SEEDS = [0, 3, 17, 2**31, 2**32 - 1, 2**32]
# domain -> the entropy each call site gave `np.random.default_rng` directly, written out apart from `streams`
ENTROPY = {
    "split": lambda s: s,
    "init": lambda s: s,
    "shuffle": lambda s: [s, 1],
    "decode": lambda s: s,
    "perturb": lambda s: s,
}
DECODE_PAIRS = [(s, ordinal) for s in SEEDS for ordinal in (0, 47)] + [(2**32, 1)]


def words(gen: np.random.Generator, n: int = 8) -> list[int]:
    return gen.bit_generator.random_raw(n).tolist()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("domain", sorted(ENTROPY))
def test_each_domain_streams_as_its_raw_entropy(domain, seed):
    assert words(streams.rng(domain, seed)) == words(np.random.default_rng(ENTROPY[domain](seed)))


@pytest.mark.parametrize("pair", DECODE_PAIRS, ids=repr)
def test_decode_pairs_stream_as_their_raw_entropy(pair):
    assert words(streams.rng("decode", pair)) == words(np.random.default_rng(pair))


def test_an_unknown_domain_raises():
    with pytest.raises(ValueError, match="unknown random stream domain 'noise'"):
        streams.rng("noise", 0)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 10")
@pytest.mark.parametrize("seed", [0, 3])
def test_decode_ordinal_0_is_disjoint_from_init(seed):
    assert words(streams.rng("decode", (seed, 0))) != words(streams.rng("init", seed))


@pytest.mark.xfail(strict=True, reason="ROADMAP item 10")
@pytest.mark.parametrize("seed", [0, 3])
def test_decode_ordinal_1_is_disjoint_from_shuffle(seed):
    assert words(streams.rng("decode", (seed, 1))) != words(streams.rng("shuffle", seed))
