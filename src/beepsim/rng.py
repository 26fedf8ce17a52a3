"""Deterministic random-stream derivation.

Every draw in a run descends from one master seed.  Streams are keyed by
arbitrary tuples such as ``(master, trial, node, "protocol")`` so that a
topology edit which does not touch a node leaves that node's protocol
draws unchanged, and independent trials never share randomness.  Two
exceptions: the ``random`` wakeup draws all nodes' wake slots from one
stream in id order (see ``topology.build_wakeup``), and a node re-added
under a removed node's id gets that node's key, so it replays its draws.

A key's stream is ``PCG64`` seeded by numpy's ``SeedSequence`` over the
encoded key.  :func:`seed_words` seeds many keys at once from one key
written as parts: an int or str that every row shares, or an int array
with one entry per row, as in ``(master, trial, nodes, "protocol")``.  It
hashes all rows together as array operations, each shared part encoded
and hashed once, with values identical to
``np.random.SeedSequence(entropy).generate_state(4, np.uint64)``.

A jitter-and-jump node draws through :class:`RawDraws`: it reads its
stream's raw 64-bit words, low 32-bit half first, and maps each half to
[0, n) by Lemire's multiply-shift rejection, exactly as numpy's
``Generator.integers(n)`` does, so its draws equal numpy's.  It keeps the
unused high half itself, and numpy keeps its own in the bit generator, so
nothing else may read that node's ``Generator``.  :class:`ArrayDraws`
makes the same draws for a batch of keys at once: it runs PCG64 itself
on arrays of 128-bit states, with no ``Generator`` at all.
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


def _encode(part) -> np.ndarray:
    """A key part encoded as uint64: an int array entry by entry, or an int
    or str as one entry of shape (1,), which broadcasts against the rows;
    an int keeps its low 63 bits and a str is its CRC-32."""
    if isinstance(part, np.ndarray):
        if part.dtype.kind not in "iu" or part.ndim != 1:
            raise TypeError(f"stream key arrays must be 1-d int arrays, got {part.dtype}")
        return part.astype(np.uint64) & np.uint64(_MASK)  # as int & _MASK wraps
    if isinstance(part, (int, np.integer)):
        return np.array([int(part) & _MASK], dtype=np.uint64)
    if isinstance(part, str):
        return np.array([zlib.crc32(part.encode("utf-8"))], dtype=np.uint64)
    raise TypeError(f"stream key parts must be int or str, got {type(part)!r}")


def _seed_states(rows: int, entropy: list, count) -> np.ndarray:
    """``SeedSequence(row).generate_state(4, np.uint64)`` for ``rows`` rows,
    one array operation per hash step.  uint32 word i of every row is
    ``entropy[i]``, of shape (rows,), or (1,) when the rows share it; a row
    holds ``count`` words, or all of ``entropy`` when that is None."""
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

    pool = [hashmix(entropy[i]) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    # each later word mixes into every pool word, in rows that hold it
    for src in range(_POOL, len(entropy)):
        for dst in range(_POOL):
            mixed = mix(pool[dst], hashmix(entropy[src]))
            pool[dst] = mixed if count is None else np.where(src < count, mixed, pool[dst])

    h = _INIT_B
    state = np.empty((rows, 2 * _POOL), dtype="<u4")
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


# PCG64's 128-bit LCG multiplier, as numpy's pcg64.h defines it
_PCG_MULT_HI, _PCG_MULT_LO = 0x2360ED051FC65DA4, 0x4385DF649FCCF645
_U32, _U58, _U63 = np.uint64(32), np.uint64(58), np.uint64(63)


def _mulhi(a: np.ndarray, b: int) -> np.ndarray:
    """High 64 bits of each 128-bit product a * b, from 32-bit halves."""
    a0, a1 = a & _WORD, a >> _U32
    b0, b1 = np.uint64(b & _WORD), np.uint64(b >> 32)
    lo_hi, cross_a, cross_b = a0 * b1, a1 * b0, (a0 * b0) >> _U32
    mid = cross_b + (lo_hi & _WORD) + (cross_a & _WORD)
    return a1 * b1 + (lo_hi >> _U32) + (cross_a >> _U32) + (mid >> _U32)


class ArrayDraws:
    """:class:`RawDraws` for a batch of streams, one per row of
    :func:`seed_words`, as arrays: the draws of stream ``i`` equal those
    of ``RawDraws(Generator(PCG64(SeedSequence(key i))))``.

    Each stream is numpy's PCG64 (O'Neill, "PCG: A Family of Simple Fast
    Space-Efficient Statistically Good Algorithms for Random Number
    Generation", 2014): a 128-bit LCG stepped before each output, whose
    word is the XOR of the state's halves rotated right by the state's top
    six bits, seeded as ``pcg64_set_seed`` seeds it.  Streams are named by
    their row index, and each index may appear once per call.
    """

    def __init__(self, words: np.ndarray):
        seed_hi, seed_lo, seq_hi, seq_lo = words.T
        self.inc_hi = (seq_hi << np.uint64(1)) | (seq_lo >> _U63)
        self.inc_lo = (seq_lo << np.uint64(1)) | np.uint64(1)
        # state 0 stepped is inc; add the seed and step again
        lo = self.inc_lo + seed_lo
        hi = self.inc_hi + seed_hi + (lo < seed_lo)
        self.hi, self.lo = self._step(hi, lo, self.inc_hi, self.inc_lo)
        self.half = np.zeros(len(words), dtype=np.uint64)  # the pending high half
        self.has_half = np.zeros(len(words), dtype=bool)

    @staticmethod
    def _step(hi, lo, inc_hi, inc_lo):
        new_lo = lo * np.uint64(_PCG_MULT_LO)
        new_hi = (_mulhi(lo, _PCG_MULT_LO) + lo * np.uint64(_PCG_MULT_HI)
                  + hi * np.uint64(_PCG_MULT_LO))
        out_lo = new_lo + inc_lo
        return new_hi + inc_hi + (out_lo < new_lo), out_lo

    def raw(self, who: np.ndarray) -> np.ndarray:
        """The next raw 64-bit word of each stream in ``who``."""
        hi, lo = self._step(self.hi[who], self.lo[who], self.inc_hi[who], self.inc_lo[who])
        self.hi[who], self.lo[who] = hi, lo
        x, rot = hi ^ lo, hi >> _U58
        return (x >> rot) | (x << ((np.uint64(64) - rot) & _U63))

    def uniform(self, who: np.ndarray, high: float) -> np.ndarray:
        """``Generator.uniform(0.0, high)`` on each stream in ``who``: a raw
        word's top 53 bits scaled into [0, 1), as numpy's ``next_double``
        does, and then ``0.0 + high * u``, as its ``random_uniform`` does."""
        return 0.0 + high * ((self.raw(who) >> np.uint64(11)) * 2.0**-53)

    def below(self, who: np.ndarray, bounds: np.ndarray) -> np.ndarray:
        """``RawDraws.below(bounds[i])`` on stream ``who[i]``, for each i."""
        bounds = np.asarray(bounds, dtype=np.uint64)
        out = np.zeros(len(who), dtype=np.int64)
        todo = np.flatnonzero(bounds != 1)  # a bound of 1 draws nothing
        while todo.size:
            streams, n = who[todo], bounds[todo]
            half = self.half[streams]
            pending = self.has_half[streams]
            fresh = streams[~pending]
            word = self.raw(fresh)
            half[~pending] = word & _WORD
            self.half[fresh] = word >> _U32
            self.has_half[streams] = ~pending
            m = half * n
            low = m & _WORD
            ok = (low >= n) | (low >= (np.uint64(_WORD + 1) - n) % n)
            out[todo[ok]] = m[ok] >> _U32
            todo = todo[~ok]  # a rejected half is redrawn
        return out


def seed_words(*key) -> np.ndarray:
    """``SeedSequence(encoded key).generate_state(4, np.uint64)`` for each
    row of ``key``, as the rows of a (rows, 4) uint64 array.  A part of
    ``key`` is an int or str that every row shares or a 1-d int array with
    one entry per row; a key of shared parts alone is one row."""
    if not key:
        raise ValueError("stream key must not be empty")
    parts = [_encode(part) for part in key]
    lengths = {len(col) for part, col in zip(key, parts) if isinstance(part, np.ndarray)}
    if not lengths:  # for one row numpy's own pass is the cheaper one
        seed = np.random.SeedSequence([int(col[0]) for col in parts])
        return seed.generate_state(_POOL, np.uint64)[None]
    if len(lengths) > 1:
        raise ValueError(f"stream key arrays differ in length: {sorted(lengths)}")
    (rows,) = lengths
    wide = [col > _WORD for col in parts]  # a part is one entropy word, or two from 2**32 on
    if all(w.all() or not w.any() for w in wide):  # every row's words in the same places
        entropy, count = [], None
        for col, w in zip(parts, wide):
            entropy += [col & _WORD, col >> _U32][:1 + bool(w.any())]
    else:  # a part wide in some rows only moves the words after it there
        every, at = np.arange(rows), np.zeros(rows, dtype=np.int64)
        words = np.zeros((rows, 2 * len(parts)), dtype=np.uint64)
        for col, w in zip(parts, wide):
            col, w = np.broadcast_to(col, rows), np.broadcast_to(w, rows)
            words[every, at] = col & _WORD
            words[every[w], at[w] + 1] = col[w] >> _U32
            at = at + 1 + w
        entropy, count = list(words.T[:at.max()]), at
    entropy = [col.astype(np.uint32) for col in entropy]
    entropy += [np.zeros(1, dtype=np.uint32)] * (_POOL - len(entropy))
    return _seed_states(rows, entropy, count)


def streams(*key) -> list[np.random.Generator]:
    """One generator per row of ``seed_words(*key)``, in order; each equals
    ``Generator(PCG64(SeedSequence(encoded row key)))``."""
    return [np.random.Generator(np.random.PCG64(_SeedWords(words)))
            for words in seed_words(*key)]


def stream(*key) -> np.random.Generator:
    """Independent generator for the given key of shared parts."""
    return streams(*key)[0]
