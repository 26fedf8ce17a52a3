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
