"""The named random streams: each domain's generator is the one its call
site built from raw `default_rng` entropy, bit for bit, whether its seed
words were hashed or memoized, and the overlaps README's Determinism
section states are pinned as known failures of disjointness until the
streams are separated."""

import os
import subprocess
import sys
from pathlib import Path

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


def hit_and_miss(call):
    """`call()` and how many memo (hits, misses) it made."""
    before = streams._seed_words.cache_info()
    out = call()
    after = streams._seed_words.cache_info()
    return out, (after.hits - before.hits, after.misses - before.misses)


@pytest.mark.parametrize(
    ("domain", "seed"),
    [(domain, seed) for domain in sorted(ENTROPY) for seed in SEEDS] + [("decode", pair) for pair in DECODE_PAIRS],
    ids=repr,
)
def test_every_stream_gives_its_raw_words_on_a_miss_and_on_a_hit(domain, seed):
    streams._seed_words.cache_clear()
    raw = words(np.random.default_rng(ENTROPY[domain](seed)))
    assert hit_and_miss(lambda: words(streams.rng(domain, seed))) == (raw, (0, 1))
    assert hit_and_miss(lambda: words(streams.rng(domain, seed))) == (raw, (1, 0))


def test_each_call_is_a_new_generator_at_its_stream_start():
    first, second = streams.rng("decode", (5, 2)), streams.rng("decode", (5, 2))
    assert first is not second and first.bit_generator is not second.bit_generator
    raw = words(np.random.default_rng((5, 2)), 16)
    assert words(first, 16) == raw
    assert words(second, 16) == raw


def test_an_evicted_entropy_still_streams_its_raw_words():
    streams._seed_words.cache_clear()
    raw = words(np.random.default_rng((7, 3)))
    assert words(streams.rng("decode", (7, 3))) == raw
    for ordinal in range(streams.MEMO_CAP):
        streams.rng("decode", (8, ordinal))
    assert streams._seed_words.cache_info().currsize == streams.MEMO_CAP
    assert hit_and_miss(lambda: words(streams.rng("decode", (7, 3)))) == (raw, (0, 1))


def test_memoized_seed_words_are_read_only():
    streams.rng("init", 3)
    with pytest.raises(ValueError, match="read-only"):
        streams._seed_words(3)[0] = 0


@pytest.mark.parametrize("seed", [1.0, (1.0, 0), "1", [1, 0]], ids=repr)
def test_a_seed_equal_to_an_int_but_not_one_is_refused_after_the_int_is_memoized(seed):
    streams.rng("decode", (1, 0))
    streams.rng("decode", 1)
    with pytest.raises(TypeError):
        streams.rng("decode", seed)


@pytest.mark.parametrize("seed", [np.int64(17), True, (np.uint32(3), np.int8(1))], ids=repr)
def test_numpy_and_bool_ints_stream_as_plain_ints(seed):
    plain = tuple(map(int, seed)) if isinstance(seed, tuple) else int(seed)
    assert words(streams.rng("decode", seed)) == words(np.random.default_rng(plain))


@pytest.mark.parametrize("asked", [(8, np.uint32), (2, np.uint64), (4, np.uint32)], ids=repr)
def test_the_seed_words_refuse_any_request_but_four_uint64(asked):
    seed = streams._SeedWords(streams._seed_words(0))
    assert seed.generate_state(4, np.dtype("uint64")) is seed.words
    with pytest.raises(ValueError, match=r"memoized as \(4, uint64\)"):
        seed.generate_state(*asked)


def test_importing_streams_loads_no_numpy_random_and_the_first_rng_does():
    # a child process: this one loaded numpy's random module long ago
    script = (
        "import sys\n"
        "from artrip import streams\n"
        "print('numpy.random' in sys.modules)\n"
        "streams.rng('decode', (0, 1))\n"
        "print('numpy.random' in sys.modules)\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False", "True"]


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
