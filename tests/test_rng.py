"""Batched stream seeding against numpy's own SeedSequence."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from beepsim import rng

parts = st.one_of(
    st.text(max_size=6),
    st.just(0),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=2**32, max_value=2**63 - 1),  # two entropy words
    st.integers(min_value=-(2**70), max_value=2**70),  # masked to 63 bits
)
keys = st.lists(parts, min_size=1, max_size=7).map(tuple)


def numpy_seed(key):
    return np.random.SeedSequence(tuple(rng._encode(part) for part in key))


@settings(max_examples=100, deadline=None)
@given(st.lists(keys, min_size=1, max_size=10))
@example([("protocol",), (0,), (2**40, "x"), (7, 3, 5, "protocol"), (1, 2, 3, 4, 5, 6, "twin")])
def test_streams_match_numpy_seed_sequence(batch):
    # every key twice, so every entropy length is hashed as a batch of at
    # least two, and the lone-key path is checked through rng.stream
    batch = batch + batch[::-1]
    gens = rng.streams(batch)
    assert len(gens) == len(batch)
    for key, gen in zip(batch, gens):
        ref = np.random.Generator(np.random.PCG64(numpy_seed(key)))
        assert gen.bit_generator.seed_seq.generate_state(4, np.uint64).tolist() == \
            numpy_seed(key).generate_state(4, np.uint64).tolist()
        assert gen.bit_generator.state == ref.bit_generator.state
        assert gen.integers(0, 2**62, size=4).tolist() == ref.integers(0, 2**62, size=4).tolist()
        assert gen.random() == ref.random()
        lone = rng.stream(*key)
        assert lone.bit_generator.state == np.random.PCG64(numpy_seed(key)).state


def test_streams_of_equal_keys_are_separate_generators():
    a, b = rng.streams([(1, "twin", 0), (1, "twin", 0)])
    assert a is not b
    assert a.random() == b.random()
    assert a.random() == b.random()


# bounds of every kind a node draws (1, the jitter's 2, Q-sized free-slot
# counts) plus bounds above 2**31, where Lemire's rejection redraws a
# half with probability up to 1/2, and 2**32, the raw half itself
bounds = st.one_of(
    st.just(1),
    st.just(2),
    st.integers(min_value=3, max_value=8192),
    st.integers(min_value=2**31 + 1, max_value=2**32 - 1),
    st.just(2**32),
)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.lists(st.tuples(keys, st.lists(bounds, max_size=40)), min_size=1, max_size=4))
@example([((1, 2, "protocol"), [1, 1, 2, 1, 2**31 + 1] * 8 + [2**32, 3, 2**32])])
def test_raw_draws_match_numpy_integers(cases):
    for key, sequence in cases:
        ref = np.random.Generator(np.random.PCG64(numpy_seed(key)))
        gen = rng.stream(*key)
        draws = rng.RawDraws(gen)
        for n in sequence:
            assert draws.below(n) == int(ref.integers(n))
        # both consumed the same raw words and hold the same pending half
        ours, theirs = gen.bit_generator.state, ref.bit_generator.state
        assert ours["state"] == theirs["state"]
        assert draws._half == (theirs["uinteger"] if theirs["has_uint32"] else None)


def test_raw_draws_reject_as_numpy_does():
    # at n = 2**31 + 1 about half of all halves are redrawn
    gen = rng.stream(5, "reject")
    draws = rng.RawDraws(gen)
    ref = rng.stream(5, "reject")
    assert [draws.below(2**31 + 1) for _ in range(64)] == ref.integers(2**31 + 1, size=64).tolist()
    # count the raw words taken: 64 draws without a redraw would take 32
    fresh = rng.stream(5, "reject").bit_generator
    words = 0
    while fresh.state["state"] != gen.bit_generator.state["state"] and words < 1000:
        fresh.random_raw()
        words += 1
    assert 40 < words < 1000


def test_array_draws_words_match_numpy_random_raw():
    keys = [(11, "raw", v, "protocol") for v in range(1200)]
    keys += [(2**32 + 7, "raw", 2**40), (2**63 - 1, 0), ("raw",)]  # two-word and odd keys
    draws = rng.ArrayDraws(rng.seed_words(keys))
    every = np.arange(len(keys))
    ours = np.stack([draws.raw(every) for _ in range(20)], axis=1)
    for i, key in enumerate(keys):
        ref = np.random.PCG64(numpy_seed(key))
        assert ours[i].tolist() == ref.random_raw(20).tolist()
        state = ref.state["state"]
        assert state["state"] == int(draws.hi[i]) << 64 | int(draws.lo[i])
        assert state["inc"] == int(draws.inc_hi[i]) << 64 | int(draws.inc_lo[i])


@pytest.mark.parametrize("bound", [1, 2, 240, 2**31 + 1])
def test_array_draws_below_matches_raw_draws(bound):
    keys = [(5, "below", v) for v in range(300)]
    draws = rng.ArrayDraws(rng.seed_words(keys))
    gens = rng.streams(keys)
    raws = [rng.RawDraws(gen) for gen in gens]
    every = np.arange(len(keys))
    for _ in range(6):
        got = draws.below(every, np.full(len(keys), bound))
        assert got.tolist() == [r.below(bound) for r in raws]
    # six draws take three words per stream, more where a half was
    # redrawn (about half of all halves at 2**31 + 1), none at a bound of 1
    taken = [words_taken(gen, key) for gen, key in zip(gens, keys)]
    if bound == 2**31 + 1:
        assert sum(w > 3 for w in taken) > len(keys) // 2
    else:
        assert set(taken) == {0 if bound == 1 else 3}


def words_taken(gen, key, limit=64):
    """Raw words ``gen`` has taken since it was seeded from ``key``."""
    ref = np.random.PCG64(numpy_seed(key))
    for words in range(limit):
        if ref.state["state"] == gen.bit_generator.state["state"]:
            return words
        ref.random_raw()
    raise AssertionError("more words than the limit")


def test_array_draws_carry_each_streams_pending_half_between_calls():
    keys = [(9, "carry", v) for v in range(64)]
    draws = rng.ArrayDraws(rng.seed_words(keys))
    raws = [rng.RawDraws(gen) for gen in rng.streams(keys)]
    every = np.arange(len(keys))
    calls = [
        (every[::2], 2),  # the even streams keep a pending half
        (every, 240),  # even streams use it, odd ones take a word
        (every[1::3], 2**31 + 1),
        (every[::-1], 1),  # in any order, and drawing nothing
        (every[5:40], 2),
        (every, 2**31 + 1),
    ]
    for who, bound in calls:
        got = draws.below(who, np.full(len(who), bound))
        assert got.tolist() == [raws[i].below(bound) for i in who.tolist()]
        pending = [r._half for r in raws]
        assert [int(h) if has else None
                for h, has in zip(draws.half, draws.has_half)] == pending


def test_seed_words_match_numpy_for_every_word_layout():
    # equal word counts with the two-word parts in different places, a
    # masked negative, a bool, a numpy int and a part past 63 bits, in one batch
    keys = [(2**40, 1), (1, 2**40), (1, 2), (2**40, 2**41), (-3,), (True, "x"),
            (np.int64(5), "x"), (2**70, 1), (1, 2, 3, 4, 5, 6)]
    expected = [numpy_seed(key).generate_state(4, np.uint64).tolist() for key in keys]
    assert rng.seed_words(keys).tolist() == expected
    assert [rng.seed_words([key])[0].tolist() for key in keys] == expected
    with pytest.raises(ValueError):
        rng.seed_words([(1,), ()])
    with pytest.raises(TypeError):
        rng.seed_words([(1, 2.0), (1, 2)])


def test_array_draws_uniform_matches_numpy_uniform():
    # a beep-first trial draws each node's start offset this way
    keys = [(m, "trial", t, v, "protocol") for m in (1, 12345) for t in range(3)
            for v in range(150)]
    for epsilon in (0.1, 1 / 3, 0.9):
        got = rng.ArrayDraws(rng.seed_words(keys)).uniform(np.arange(len(keys)), epsilon)
        assert got.tolist() == [rng.stream(*key).uniform(0.0, epsilon) for key in keys]
