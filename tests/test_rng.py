"""Batched stream seeding against numpy's own SeedSequence."""

import numpy as np
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
