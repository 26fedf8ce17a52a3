"""Batched stream seeding against numpy's own SeedSequence."""

import zlib

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
# a key column's entries: one entropy word or two, or negative (masked)
entries = st.one_of(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=2**32, max_value=2**63 - 1),
    st.integers(min_value=-(2**63), max_value=-1),
)


def encoded(part):
    """A key part as ``SeedSequence`` takes it: a str's CRC-32, an int's low 63 bits."""
    return zlib.crc32(part.encode("utf-8")) if isinstance(part, str) else int(part) & (2**63 - 1)


def numpy_seed(key):
    return np.random.SeedSequence(tuple(encoded(part) for part in key))


@st.composite
def column_keys(draw):
    """A key of shared parts and int64 columns, and the key of each of its rows."""
    rows = draw(st.integers(min_value=1, max_value=6))
    column = st.lists(entries, min_size=rows, max_size=rows).map(
        lambda values: np.array(values, dtype=np.int64))
    key = tuple(draw(st.lists(st.one_of(parts, column), min_size=1, max_size=7)))
    if not any(isinstance(part, np.ndarray) for part in key):
        rows = 1  # shared parts alone are one row
    return key, [tuple(part[r] if isinstance(part, np.ndarray) else part for part in key)
                 for r in range(rows)]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(column_keys())
@example((("protocol",), [("protocol",)]))
@example(((-3, 2**40, "x"), [(-3, 2**40, "x")]))
@example(((np.array([1, 2**40, -1]), 2, 3, 4), [(1, 2, 3, 4), (2**40, 2, 3, 4), (-1, 2, 3, 4)]))
def test_seed_words_by_column_match_numpy_seed_sequence(case):
    key, row_keys = case
    expected = [numpy_seed(row).generate_state(4, np.uint64).tolist() for row in row_keys]
    assert rng.seed_words(*key).tolist() == expected


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
@given(column_keys(), st.lists(bounds, max_size=30))
@example(((7, "trial", 3, np.arange(5), "protocol"), [(7, "trial", 3, v, "protocol")
                                                       for v in range(5)]), [2, 240, 1, 2**32])
# equal rows draw alike, each from its own state
@example(((1, "twin", np.array([0, 0])), [(1, "twin", 0), (1, "twin", 0)]), [2, 2**31 + 1, 7])
# a column that reaches 2**32 in some rows only moves the words after it there
@example(((np.array([2**32 - 1, 2**32, 5, 2**40]), "x", np.array([2**33, 1, 2**32, 0])),
          [(2**32 - 1, "x", 2**33), (2**32, "x", 1), (5, "x", 2**32), (2**40, "x", 0)]),
         [2**32, 3, 2, 8192, 2**31 + 7])
def test_raw_draws_of_seed_word_rows_match_numpy_integers(case, sequence):
    key, row_keys = case
    rows = rng.seed_words(*key)
    assert len(rows) == len(row_keys)
    draws = [rng.RawDraws(row) for row in rows]
    refs = [np.random.Generator(np.random.PCG64(numpy_seed(row))) for row in row_keys]
    for n in sequence:
        assert [d.below(n) for d in draws] == [int(ref.integers(n)) for ref in refs]
    for d, ref in zip(draws, refs):  # the same words taken and the same half pending
        theirs = ref.bit_generator.state
        assert d._state == theirs["state"]["state"]
        assert d._half == (theirs["uinteger"] if theirs["has_uint32"] else -1)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(keys)
@example(("protocol",))
@example((2**32, "x", -1))
def test_stream_matches_numpy_seed_sequence(key):
    ours, ref = rng.stream(*key), np.random.Generator(np.random.PCG64(numpy_seed(key)))
    assert ours.bit_generator.state == ref.bit_generator.state
    assert ours.integers(0, 2**62, size=4).tolist() == ref.integers(0, 2**62, size=4).tolist()
    assert ours.random() == ref.random()


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.lists(st.tuples(keys, st.lists(bounds, max_size=40)), min_size=1, max_size=4))
@example([((1, 2, "protocol"), [1, 1, 2, 1, 2**31 + 1] * 8 + [2**32, 3, 2**32])])
def test_raw_draws_match_numpy_integers(cases):
    for key, sequence in cases:
        ref = np.random.Generator(np.random.PCG64(numpy_seed(key)))
        draws = rng.RawDraws(rng.seed_words(*key)[0])
        for n in sequence:
            assert draws.below(n) == int(ref.integers(n))
        # both consumed the same raw words and hold the same pending half
        theirs = ref.bit_generator.state
        assert draws._state == theirs["state"]["state"]
        assert draws._inc == theirs["state"]["inc"]
        assert draws._half == (theirs["uinteger"] if theirs["has_uint32"] else -1)


def test_raw_draws_reject_as_numpy_does():
    # at n = 2**31 + 1 about half of all halves are redrawn
    draws = rng.RawDraws(rng.seed_words(5, "reject")[0])
    ref = rng.stream(5, "reject")
    assert [draws.below(2**31 + 1) for _ in range(64)] == ref.integers(2**31 + 1, size=64).tolist()
    # count the raw words taken: 64 draws without a redraw would take 32
    assert 40 < words_taken(draws, (5, "reject"), limit=1000) < 1000


def test_array_draws_words_match_numpy_random_raw():
    odd = [(2**32 + 7, "raw", 2**40), (2**63 - 1, 0), ("raw",)]  # two-word and odd keys
    keys = [(11, "raw", v, "protocol") for v in range(1200)] + odd
    draws = rng.ArrayDraws(np.concatenate([rng.seed_words(11, "raw", np.arange(1200), "protocol"),
                                           *(rng.seed_words(*key) for key in odd)]))
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
    words = rng.seed_words(5, "below", np.arange(300))
    draws = rng.ArrayDraws(words)
    raws = [rng.RawDraws(row) for row in words]
    every = np.arange(len(keys))
    for _ in range(6):
        got = draws.below(every, np.full(len(keys), bound))
        assert got.tolist() == [r.below(bound) for r in raws]
    # six draws take three words per stream, more where a half was
    # redrawn (about half of all halves at 2**31 + 1), none at a bound of 1
    taken = [words_taken(raw, key) for raw, key in zip(raws, keys)]
    if bound == 2**31 + 1:
        assert sum(w > 3 for w in taken) > len(keys) // 2
    else:
        assert set(taken) == {0 if bound == 1 else 3}


def words_taken(draws, key, limit=64):
    """Raw words the ``RawDraws`` ``draws`` has taken since it was seeded
    from ``key``."""
    ref = np.random.PCG64(numpy_seed(key))
    for words in range(limit):
        if ref.state["state"]["state"] == draws._state:
            return words
        ref.random_raw()
    raise AssertionError("more words than the limit")


def test_array_draws_carry_each_streams_pending_half_between_calls():
    every = np.arange(64)
    words = rng.seed_words(9, "carry", every)
    draws = rng.ArrayDraws(words)
    raws = [rng.RawDraws(row) for row in words]
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
        assert [int(h) if has else -1
                for h, has in zip(draws.half, draws.has_half)] == pending


def test_seed_words_match_numpy_for_every_word_layout():
    # one batch whose rows put their two-word parts in different places,
    # so their words sit at different offsets and some rows hold more
    # words than the pool's 4; then masked negatives, a bool, a numpy int
    # and a part past 63 bits as one-row keys
    first = np.array([2**40, 1, 1, 2**40, 7], dtype=np.int64)
    second = np.array([1, 2**40, 2, 2**41, -3], dtype=np.int64)
    rows = [(int(a), int(b), 3, "x") for a, b in zip(first, second)]
    assert rng.seed_words(first, second, 3, "x").tolist() == \
        [numpy_seed(key).generate_state(4, np.uint64).tolist() for key in rows]
    wide = np.array([2**64 - 1, 5], dtype=np.uint64)  # an unsigned column is masked too
    assert rng.seed_words(wide).tolist() == \
        [numpy_seed((int(v),)).generate_state(4, np.uint64).tolist() for v in wide]
    for key in [(-3,), (True, "x"), (np.int64(5), "x"), (2**70, 1), (1, 2, 3, 4, 5, 6)]:
        assert rng.seed_words(*key).tolist() == [numpy_seed(key).generate_state(4, np.uint64).tolist()]
    assert rng.seed_words(1, np.arange(0)).shape == (0, 4)
    with pytest.raises(ValueError):
        rng.seed_words()
    with pytest.raises(ValueError):
        rng.seed_words(np.arange(2), np.arange(3))
    with pytest.raises(TypeError):
        rng.seed_words(1, 2.0)
    with pytest.raises(TypeError):
        rng.seed_words(1, np.array([2.0, 3.0]))


def test_array_draws_uniform_matches_numpy_uniform():
    # a beep-first trial draws each node's start offset this way
    keys = [(m, "trial", t, v, "protocol") for m in (1, 12345) for t in range(3)
            for v in range(150)]
    columns = [np.array(column) for column in zip(*keys)]
    for epsilon in (0.1, 1 / 3, 0.9):
        got = rng.ArrayDraws(rng.seed_words(columns[0], "trial", columns[2], columns[3],
                                            "protocol")).uniform(np.arange(len(keys)), epsilon)
        assert got.tolist() == [rng.stream(*key).uniform(0.0, epsilon) for key in keys]
