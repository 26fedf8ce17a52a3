"""Occupancy oracles for throwing m balls into n bins uniformly at random.

``bb_exact`` computes the distribution of the number of occupied bins in
exact integer arithmetic from Stirling numbers; ``bb_enumerate``
cross-checks it without them, by enumerating the C(m+n-1, n-1) occupancy
vectors and weighting each by the number of placements that produce it;
``bb_montecarlo`` samples it, in chunks of a fixed number of draws,
drawing one chunk while a helper thread counts the one before, so that
it holds two chunks at once and its memory does not grow with the trial
count.  These back the
statistical arguments about how many distinct slots a node hears when its
uncolored neighbors jump to random free slots.
"""

from __future__ import annotations

import math
import queue
import threading
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ConfigError
from .rng import stream


def stirling2_row(m: int) -> list[int]:
    """Stirling numbers of the second kind S(m, k) for k in 0..m."""
    row = [1] + [0] * m
    for i in range(1, m + 1):
        new = [0] * (m + 1)
        for k in range(1, i + 1):
            new[k] = k * row[k] + row[k - 1]
        row = new
    return row


@dataclass(frozen=True)
class OccupancyDistribution:
    """Exact pmf of the number of occupied bins."""

    m: int
    n: int
    pmf: dict[int, Fraction]

    @property
    def expected(self) -> Fraction:
        return sum((Fraction(k) * p for k, p in self.pmf.items()), Fraction(0))

    def prob_greater(self, threshold) -> Fraction:
        return sum((p for k, p in self.pmf.items() if k > threshold), Fraction(0))


def bb_exact(m: int, n: int) -> OccupancyDistribution:
    """Occupied-bin distribution via C(n,k) * k! * S(m,k) / n^m.

    m = 0 is handled as the degenerate "zero bins occupied" case.
    """
    if n < 1 or m < 0:
        raise ConfigError("need n >= 1 and m >= 0")
    if m == 0:
        return OccupancyDistribution(0, n, {0: Fraction(1)})
    s2 = stirling2_row(m)
    counts = {}
    for k in range(1, min(m, n) + 1):
        c = math.comb(n, k) * math.factorial(k) * s2[k]
        if c:
            counts[k] = c
    total = n**m
    if sum(counts.values()) != total:
        raise ConfigError(f"occupancy counts for m={m}, n={n} do not sum to n^m")
    return OccupancyDistribution(m, n, {k: Fraction(c, total) for k, c in counts.items()})


ENUMERATION_LIMIT = 10_000_000  # most occupancy vectors bb_enumerate walks


def bb_enumerate(m: int, n: int) -> dict[int, int]:
    """Exact occupied-bin counts by enumerating occupancy vectors.

    Every vector (c_1, ..., c_n) of bin loads summing to m stands for the
    m!/(c_1! ... c_n!) placements that produce it, and occupies as many
    bins as it has nonzero loads.  There are C(m+n-1, n-1) vectors;
    ``ENUMERATION_LIMIT`` bounds that number.
    """
    if n < 1 or m < 1:
        raise ConfigError("need n >= 1 and m >= 1")
    vectors = math.comb(m + n - 1, n - 1)
    if vectors > ENUMERATION_LIMIT:
        raise ConfigError(f"C(m+n-1, n-1) = {vectors} occupancy vectors exceed the "
                          f"enumeration limit {ENUMERATION_LIMIT}")
    fact = [math.factorial(c) for c in range(m + 1)]
    counts = [0] * (min(m, n) + 1)
    # depth-first over bins: (bins left, balls left, m!/prod of the loads
    # chosen so far, bins occupied so far); the quotient stays an integer
    stack = [(n, m, fact[m], 0)]
    while stack:
        bins, balls, weight, occupied = stack.pop()
        if balls == 0:  # every bin left stays empty
            counts[occupied] += weight
        elif bins == 1:  # the last bin takes every ball left
            counts[occupied + 1] += weight // fact[balls]
        else:
            stack.append((bins - 1, balls, weight, occupied))
            for c in range(1, balls + 1):
                stack.append((bins - 1, balls - c, weight // fact[c], occupied + 1))
    return {k: c for k, c in enumerate(counts) if c}


MONTECARLO_CHUNK_DRAWS = 196_608  # draws per chunk: about 0.75 MB as int32; two are held at once
_BYTE_SUM = np.uint64(0x0101010101010101)  # the top byte of w * this is the sum of w's bytes


def bb_montecarlo(m: int, n: int, trials: int, seed: int) -> dict[int, float]:
    """Empirical occupied-bin pmf from independent uniform placements.

    Trials are drawn ``MONTECARLO_CHUNK_DRAWS // m`` at a time (at least
    one).  The calling thread draws each chunk while one helper thread
    counts the chunk before it, so at most two chunks are held at once and
    memory stays fixed however many trials are asked for.  The helper is
    joined before this returns, and an error raised in it is raised here.
    The draws do not depend on the chunk size, and for n <= 2**31 numpy
    draws int32 and int64 bins by the same 32-bit rule, so the bins are
    those of one ``integers(0, n, size=(trials, m))`` call.
    """
    if n < 1 or m < 0:
        raise ConfigError("need n >= 1 and m >= 0")
    if trials < 1:
        raise ConfigError("trials must be >= 1")
    if m < 2:  # no ball or one: every trial occupies m bins
        return {m: 1.0}
    rng = stream(seed, "ballsbins")
    chunk = max(1, MONTECARLO_CHUNK_DRAWS // m)
    dtype = np.int32 if n <= 2**31 else np.int64
    size = min(m, n) + 1
    # one row per trial: padding of -1, then its bins, in 8-byte words
    rows = np.full((min(chunk, trials), (m // 8 + 1) * 8), -1,
                   dtype=np.int16 if n <= 2**15 else dtype)  # the same bins sort faster as int16
    flags = np.zeros(rows.shape, dtype=np.uint8)
    flags[0, 0] = 1  # what the flat comparison writes at every other row's start
    todo, done = queue.SimpleQueue(), queue.SimpleQueue()

    def count_chunks():
        while (draws := todo.get()) is not None:
            try:
                done.put(_count_occupied(draws, rows, flags, size))
            except BaseException as exc:  # the caller waits on done, so every chunk answers
                done.put(exc)

    def counted():
        result = done.get()
        if isinstance(result, BaseException):
            raise result
        return result

    helper = threading.Thread(target=count_chunks, name="bb_montecarlo-count")
    helper.start()
    counts = np.zeros(size, dtype=np.int64)
    try:
        remaining = trials
        while remaining:
            c = min(chunk, remaining)
            draws = rng.integers(0, n, size=(c, m), dtype=dtype)
            if remaining < trials:  # the helper has the chunk before this one
                counts += counted()
            todo.put(draws)
            remaining -= c
        counts += counted()
    finally:
        todo.put(None)
        helper.join()
    return {k: c / trials for k, c in enumerate(counts) if c}


def _count_occupied(draws: np.ndarray, rows: np.ndarray, flags: np.ndarray,
                    size: int) -> np.ndarray:
    """How many rows of ``draws`` occupy each number of bins, below ``size``.

    Each row's bins are sorted behind its -1 padding in ``rows``, and one
    flat comparison flags every value that differs from the one before it
    in ``flags``.  A row's flags then count its distinct bins, plus one
    where its padding follows the previous row's last bin (``flags[0, 0]``
    stands in for that on the first row), and summing the bytes of each
    8-byte word with one multiplication adds them up.
    """
    c, m = draws.shape
    rows, flags = rows[:c], flags[:c]
    bins = rows[:, -m:]
    bins[...] = draws
    bins.sort(axis=1)
    flat = rows.reshape(-1)
    np.not_equal(flat[1:], flat[:-1], out=flags.reshape(-1)[1:].view(np.bool_))
    words = flags.view(np.uint64)
    occupied = words[:, 0] * _BYTE_SUM >> 56
    for word in words.T[1:]:
        occupied += word * _BYTE_SUM >> 56
    occupied -= 1
    return np.bincount(occupied.view(np.int64), minlength=size)


def amplification_rounds(c: float, p: float, q: float, n: float) -> float:
    """Periods until an event of per-c-period probability p has hit every node.

    Evaluates (c*(q+1)/p) * ln(n): enough periods that all n nodes succeed
    with probability 1 - 1/n^q.
    """
    if not 0.0 < p <= 1.0:
        raise ConfigError(f"probability p must lie in (0, 1], got {p}")
    if not all(map(math.isfinite, (c, q, n))) or c < 1 or q < 0 or n < 2:
        raise ConfigError(f"need finite c >= 1, q >= 0, n >= 2, got c={c}, q={q}, n={n}")
    return (c * (q + 1) / p) * math.log(n)
