"""Deterministic random-stream derivation.

Every draw in a run descends from one master seed.  Streams are keyed by
arbitrary tuples such as ``(master, trial, node, "protocol")`` so that a
topology edit which does not touch a node leaves that node's protocol
draws unchanged, and independent trials never share randomness.  Two
exceptions: the ``random`` wakeup draws all nodes' wake slots from one
stream in id order (see ``topology.build_wakeup``), and a node re-added
under a removed node's id gets that node's key, so it replays its draws.

A key's stream is ``PCG64`` seeded by numpy's ``SeedSequence`` over the
encoded key.  :func:`streams` computes the seed sequences of a whole batch
of keys as uint32 array operations, with values identical to
``np.random.SeedSequence(entropy).generate_state(4, np.uint64)``.

A jitter-and-jump node draws through :class:`RawDraws`: it reads its
stream's raw 64-bit words, low 32-bit half first, and maps each half to
[0, n) by Lemire's multiply-shift rejection, exactly as numpy's
``Generator.integers(n)`` does, so its draws equal numpy's.  It keeps the
unused high half itself, and numpy keeps its own in the bit generator, so
nothing else may read that node's ``Generator``.
"""

from __future__ import annotations

import zlib

import numpy as np
from numpy.random.bit_generator import ISeedSequence

_MASK = (1 << 63) - 1
_WORD = 0xFFFFFFFF

# numpy's SeedSequence constants (pool of 4 words, 32-bit hash)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL = 4


def _encode(part) -> int:
    if isinstance(part, (int, np.integer)):
        return int(part) & _MASK
    if isinstance(part, str):
        return zlib.crc32(part.encode("utf-8"))
    raise TypeError(f"stream key parts must be int or str, got {type(part)!r}")


def _entropy_words(key) -> list[int]:
    """The key as SeedSequence sees its entropy tuple: each part one
    little-endian uint32 word, or two when it is 2**32 or more, padded
    with zero words to the pool size as the pool's first fill is."""
    if not key:
        raise ValueError("stream key must not be empty")
    words = []
    for part in key:
        x = _encode(part)
        words.append(x & _WORD)
        if x > _WORD:
            words.append(x >> 32)
    return words + [0] * (_POOL - len(words))


def _seed_states(entropy: np.ndarray) -> np.ndarray:
    """``SeedSequence(row).generate_state(4, np.uint64)`` for every row of
    a (keys, words) uint32 array, one array operation per hash step."""
    h = _INIT_A

    def hashmix(value):
        nonlocal h
        value = value ^ np.uint32(h)
        h = h * _MULT_A & _WORD
        value = value * np.uint32(h)
        return value ^ (value >> np.uint32(16))

    def mix(x, y):
        r = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return r ^ (r >> np.uint32(16))

    pool = [hashmix(entropy[:, i]) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL, entropy.shape[1]):
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(entropy[:, src]))

    h = _INIT_B
    state = np.empty((entropy.shape[0], 2 * _POOL), dtype="<u4")
    for i in range(2 * _POOL):
        value = pool[i % _POOL] ^ np.uint32(h)
        h = h * _MULT_B & _WORD
        value = value * np.uint32(h)
        state[:, i] = value ^ (value >> np.uint32(16))
    return state.view("<u8").astype(np.uint64)


class _SeedWords(ISeedSequence):
    """A seed sequence whose state words were computed in a batch."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != _POOL or np.dtype(dtype) != np.uint64:
            raise ValueError("batched seed words serve PCG64's 4 x uint64 request only")
        return self.words


class RawDraws:
    """``gen.integers(n)`` for 1 <= n <= 2**32, drawn from ``gen``'s raw words.

    Lemire's rule ("Fast Random Integer Generation in an Interval", ACM
    TOMACS 2019) on 32-bit halves, low half first: ``m = x*n``, redrawn
    while ``m mod 2**32 < (2**32 - n) mod n``, gives ``m >> 32``.  A bound
    of 1 draws nothing; a bound of 2 never redraws and is a half's top bit.
    The pending high half is kept here, not in ``gen``.
    """

    __slots__ = ("_bits", "_half")

    def __init__(self, gen: np.random.Generator):
        self._bits = gen.bit_generator
        self._half: int | None = None

    def below(self, n: int) -> int:
        if n == 1:
            return 0
        while True:
            half = self._half
            if half is None:
                word = self._bits.random_raw()
                self._half = word >> 32
                half = word & _WORD
            else:
                self._half = None
            m = half * n
            low = m & _WORD
            # the threshold is below n, so only low < n needs the modulo
            if low >= n or low >= (_WORD + 1 - n) % n:
                return m >> 32


def streams(keys) -> list[np.random.Generator]:
    """Independent generators for a batch of key tuples, in order; each
    equals ``Generator(PCG64(SeedSequence(encoded key)))``.  Keys whose
    entropy has the same number of words are hashed together."""
    entropy = [_entropy_words(key) for key in keys]
    by_length: dict[int, list[int]] = {}
    for i, words in enumerate(entropy):
        by_length.setdefault(len(words), []).append(i)
    out: list = [None] * len(entropy)
    for rows in by_length.values():
        if len(rows) == 1:  # for one key numpy's own pass is the cheaper one
            seed = np.random.SeedSequence(entropy[rows[0]])
            out[rows[0]] = np.random.Generator(np.random.PCG64(seed))
            continue
        states = _seed_states(np.array([entropy[i] for i in rows], dtype=np.uint32))
        for i, words in zip(rows, states):
            out[i] = np.random.Generator(np.random.PCG64(_SeedWords(words)))
    return out


def stream(*key) -> np.random.Generator:
    """Independent generator for the given key tuple."""
    return streams([key])[0]
