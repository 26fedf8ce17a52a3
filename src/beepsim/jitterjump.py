"""Randomized slot-claiming protocol with collision-detecting jitter.

Each node estimates its degree from the beeps it hears, keeps a guard
buffer inversely proportional to that estimate, and jumps to a uniformly
random free slot until a period passes with no beep inside its buffer.
Every beep is shifted by a fresh one-slot random jitter (applied mod Q,
so a node holding the last slot of the period beeps in slot 0 instead),
so two nodes that claimed the same slot eventually beep one slot apart,
hear each other, and both restart.

In dynamic mode a node additionally beeps at a second, freshly drawn free
slot every period and tracks the maximum per-period beep count over a
moving window; if that maximum falls below 1/16 of the degree estimate,
the estimate is rebuilt and the node gives its slot up, which lets the
network recover larger intervals after the neighborhood shrinks.

:class:`StaticJitterJumpArrays` steps the static protocol of a whole
network whose nodes all woke at slot 0, one period at a time over arrays:
each step delivers the period's beeps through ``discrete.deliver_window``
and digests them, with every node's draws unchanged.

Both paths keep one node format.  A node draws from its row of
``rng.seed_words`` (:class:`JitterAndJump` through ``rng.RawDraws``, the
array stepper through ``rng.ArrayDraws``), and holds -1 where it has no
value.  Both draw free slots from one gap walk that never lists the Q
slots, :class:`_FreeGaps`: :class:`JitterAndJump` builds it for its one
node through :func:`free_slots`, the array stepper for many at once.
"""

from __future__ import annotations

import math
from collections import deque
from typing import NamedTuple

import numpy as np

from .discrete import deliver_window
from .errors import ProtocolViolation
from .rng import ArrayDraws, RawDraws


def buffer_length(eta: float, q: int, estimate: int) -> int:
    """Guard buffer in slots: floor(eta*Q/(estimate+1)), at least 1."""
    return max(1, math.floor(eta * q / (estimate + 1)))


def free_slots(heard, b: int, q: int, own_phase: int = -1) -> _FreeGaps | None:
    """One node's free slots as its :class:`_FreeGaps`, or ``None`` when
    all Q are free.  Occupied slots are the heard beeps plus the node's own
    current phase (-1 when it holds none), so a node never jumps next to
    itself."""
    markers = [*heard] if own_phase < 0 else [*heard, own_phase]
    if not markers:
        return None
    return _FreeGaps(np.zeros(len(markers), dtype=np.int64), np.array(markers, dtype=np.int64),
                     np.array([b], dtype=np.int64), q)


def _nth_free(gaps: _FreeGaps | None, k: int) -> int:
    """The ``k``-th free slot of :func:`free_slots`' one node."""
    return k if gaps is None else int(gaps.nth(k)[0])


def _no_free_slots(q: int, b: int, n_heard: int) -> ProtocolViolation:
    return ProtocolViolation(
        f"no free slots (Q={q}, b={b}, heard={n_heard}); "
        "parameters are outside the supported regime"
    )


class PeriodReport(NamedTuple):
    """Observation record for one completed local period; -1 stands where
    a node holds no value: in ``phase``, ``jitter`` and ``interval`` before
    its first phase draw, and in ``free_count`` where it drew no slot."""

    period: int
    phase: int
    jitter: int
    interval: int
    beeps_heard: int
    colored: bool
    free_count: int
    reset: bool = False


class JitterAndJump:
    """Node-local state machine driven by :class:`DiscreteEngine`.

    The protocol is anonymous: it sees only its own random stream, drawn
    from ``words``, its row of ``rng.seed_words``, and the phases it heard,
    never a node identity.  ``p``, ``jitter`` and ``interval`` hold -1
    until the first period that sets them, and so do ``p_prime`` and
    ``d_star``, which a static node never sets; ``last_report`` is ``None``
    until the first report, as the array stepper's is.
    """

    def __init__(self, q: int, eta: float, words, dynamic: bool = False, window: int = 1):
        self.q = q
        self.eta = eta
        self._draws = RawDraws(words)
        self.dynamic = dynamic
        self.colored = False
        self.p = self.jitter = self.interval = -1
        self.d_tilde = 1
        self.b = buffer_length(eta, q, 1)
        self.period = 0
        self.p_prime = self.d_star = -1
        self._window: deque[int] = deque(maxlen=window)  # filled in dynamic mode only
        self.last_report: PeriodReport | None = None

    def on_period_end(self, heard: tuple[int, ...]) -> tuple[int, ...]:
        """Digest one finished period and plan the next one's beeps."""
        q, p, dynamic, colored = self.q, self.p, self.dynamic, self.colored
        n_heard = len(heard)
        interval, reset = -1, False
        if dynamic:
            self._window.append(n_heard)
            d_star = self.d_star = max(self._window)
        if self.period == 0 or not dynamic:
            d_tilde = max(n_heard, 1)
        else:
            d_tilde = max(self.d_tilde, d_star)
        # self.b is always the buffer of self.d_tilde
        b = self.b if d_tilde == self.d_tilde else buffer_length(self.eta, q, d_tilde)
        if self.period:
            # one pass over the heard phases, by their distance d back from
            # p: the interval is the least d less 1, and a phase lies in the
            # wrap-aware range [p-b, p+b] (or [p-1, p+2]) when its distance
            # from the range's start, (b - d) mod Q (or (1 - d) mod Q), is at
            # most the range's width mod Q
            gap, wide, narrow = q, 2 * b % q, 3 % q
            in_buffer = near = False
            for x in heard:
                d = (p - x) % q
                if d < gap:
                    gap = d
                if (b - d) % q <= wide:
                    in_buffer = True
                if (1 - d) % q <= narrow:
                    near = True
            # Q-1 when nothing was heard; 0 when a beep landed on p itself
            interval = self.interval = gap - 1 if gap else 0
            if not in_buffer:
                colored = True
            elif near:
                colored = False
            if dynamic and d_star < d_tilde / 16:
                d_tilde = max(d_star, 1)
                b = buffer_length(self.eta, q, d_tilde)
                colored = False
                reset = True
        self.d_tilde, self.b, self.colored = d_tilde, b, colored

        free_count = -1
        if not colored or dynamic:
            gaps = free_slots(heard, b, q, own_phase=p)
            free_count = q if gaps is None else int(gaps.counts[0])
            if not free_count:
                raise _no_free_slots(q, b, n_heard)
        below = self._draws.below
        if not colored:
            self.p = _nth_free(gaps, below(free_count))
        used_jitter = self.jitter
        jitter = self.jitter = below(2)
        # the jittered beep position is modular: at p = Q-1 a jitter of 1
        # beeps in slot 0 of the same period, keeping the node audible once
        # per period window exactly as the modular window checks assume
        offsets = ((self.p + jitter) % q,)
        if dynamic:
            self.p_prime = _nth_free(gaps, below(free_count))
            offsets += (self.p_prime,)

        self.last_report = PeriodReport(
            self.period, p, used_jitter, interval, n_heard, colored, free_count, reset
        )
        self.period += 1
        return offsets

    def fingerprint(self):
        return (
            self.period,
            self.colored,
            self.p,
            self.jitter,
            self.d_tilde,
            self.b,
            self.interval,
            self.p_prime,
            self.d_star,
            tuple(self._window),
        )


class _FreeGaps:
    """The free slots of many nodes at once, as the gaps between each
    node's blocked runs: the one walk of the rule that a node jumps only
    to a slot whose guard window [p-b-2, p+b+1] holds no occupied slot.

    ``owner`` and ``marker`` list the occupied slots of some nodes, at
    least one each; ``b`` is indexed by node.  An occupied slot x blocks
    the run [x-b-1, x+b+2] (wrap-aware) of 2b + 4 slots.  ``counts`` and
    :meth:`nth` take those nodes in ascending order.  A node with m
    markers has m + 1 gaps, in slot order: before each run (the first
    begins where the last run's wrap past Q ends) and after the last one.
    """

    def __init__(self, owner: np.ndarray, marker: np.ndarray, b: np.ndarray, q: int):
        # sorted by node, then by run start (a repeated marker adds an empty
        # gap); runs of one width stop in the order they start
        key = np.sort(owner * q + (marker - b[owner] - 1) % q)
        owner, start = key // q, key % q
        width = 2 * b[owner] + 4
        first = np.diff(owner, prepend=-1) != 0
        last = np.diff(owner, append=owner[-1] + 1) != 0
        group = np.cumsum(first) - 1
        tail = start[last]
        prev_end = np.concatenate(([0], start[:-1] + width[:-1]))
        at_run = np.arange(len(key)) + group  # the gap before each run
        at_end = np.flatnonzero(last) + np.arange(len(tail)) + 1
        begin = np.empty(len(key) + len(tail), dtype=np.int64)
        end = np.empty_like(begin)
        begin[at_run] = np.where(first, np.maximum(tail[group] + width - q, 0), prev_end)
        end[at_run] = start
        begin[at_end] = tail + width[last]
        end[at_end] = q
        self.begin = begin
        self.length = np.maximum(end - begin, 0)
        self.total = np.cumsum(self.length)
        self._first = at_run[first]
        self.counts = np.add.reduceat(self.length, self._first)

    def nth(self, r: np.ndarray) -> np.ndarray:
        """Each node's ``r[i]``-th free slot, counting from 0 (it has one)."""
        target = self.total[self._first] - self.length[self._first] + r
        gap = np.searchsorted(self.total, target, side="right")
        return self.begin[gap] + target - (self.total[gap] - self.length[gap])


class PeriodArrays(NamedTuple):
    """:class:`PeriodReport` of many nodes as arrays indexed alike, -1
    standing for no value as there; ``period`` is one int when all share
    it."""

    period: int | np.ndarray
    phase: np.ndarray
    jitter: np.ndarray
    interval: np.ndarray
    beeps_heard: np.ndarray
    colored: np.ndarray
    free_count: np.ndarray
    reset: np.ndarray


class StaticJitterJumpArrays:
    """The static :class:`JitterAndJump` of a whole network whose nodes all
    woke at slot 0, stepped together: node ``i`` draws from row ``i`` of
    ``words`` (rows of ``rng.seed_words``) exactly what
    ``JitterAndJump(q, eta, words[i])`` would draw, and hears its
    neighbours as the engine would deliver them, so every state field and
    report equals the per-node protocol's.  ``src`` and ``dst`` list each
    edge once, as node indices.

    ``p``, ``jitter`` and ``interval`` hold -1 until the first period that
    sets them, as :class:`JitterAndJump`'s do; a static node never resets.
    """

    def __init__(self, q: int, eta: float, words: np.ndarray, src: np.ndarray,
                 dst: np.ndarray):
        n = len(words)
        self.q = q
        self.eta = eta
        self._draws = ArrayDraws(words)
        self._edges = np.concatenate((src, dst)), np.concatenate((dst, src))
        self._all = np.arange(n)
        self._no_reset = np.zeros(n, dtype=bool)
        self.colored = np.zeros(n, dtype=bool)
        self.p = self.jitter = self.interval = np.full(n, -1, dtype=np.int64)
        self.d_tilde = np.ones(n, dtype=np.int64)
        self.period = 0
        self.last_report: PeriodArrays | None = None

    def step(self) -> np.ndarray:
        """Deliver the period that just ended, digest it and return each
        node's beep offset for the next one.

        Every node beeps once in the period, at the offset the previous
        step returned; the first period is listen only for every node, so
        nothing is heard in it.
        """
        q, p, n = self.q, self.p, len(self._all)
        if self.period:
            # the heard phases, ascending by node and then by phase
            owner, phase = deliver_window(*self._edges, (p + self.jitter) % q, q)
        else:
            owner = phase = np.zeros(0, dtype=np.int64)
        n_heard = np.bincount(owner, minlength=n)
        d_tilde = np.maximum(n_heard, 1)
        b = np.maximum(np.floor(self.eta * q / (d_tilde + 1)).astype(np.int64), 1)
        colored = self.colored
        if self.period:
            # the window checks of JitterAndJump.on_period_end, by each
            # heard phase's distance d back from the node's own phase
            d = (p[owner] - phase) % q
            gap = np.full(n, q, dtype=np.int64)
            np.minimum.at(gap, owner, d)
            self.interval = np.maximum(gap - 1, 0)
            b_at = b[owner]
            in_buffer = np.bincount(owner[(b_at - d) % q <= 2 * b_at % q], minlength=n) > 0
            near = np.bincount(owner[(1 - d) % q <= 3 % q], minlength=n) > 0
            colored = ~in_buffer | (colored & ~near)
        self.d_tilde, self.colored = d_tilde, colored

        free_count = np.full(n, -1, dtype=np.int64)
        redraw = np.flatnonzero(~colored)
        if not self.period:  # nothing heard and no phase held: every slot is free
            free_count[:] = q
            new_p = self._draws.below(self._all, free_count)
        else:
            new_p = p.copy()
            if redraw.size:  # each node's markers: its heard phases and its own phase
                mine = ~colored[owner]
                gaps = _FreeGaps(np.concatenate((owner[mine], redraw)),
                                 np.concatenate((phase[mine], p[redraw])), b, q)
                free_count[redraw] = gaps.counts
                if not gaps.counts.all():
                    v = redraw[np.argmin(gaps.counts)]
                    raise _no_free_slots(q, int(b[v]), int(n_heard[v]))
                new_p[redraw] = gaps.nth(self._draws.below(redraw, gaps.counts))
        jitter = self._draws.below(self._all, np.full(n, 2))

        self.last_report = PeriodArrays(self.period, p, self.jitter, self.interval, n_heard,
                                        colored, free_count, self._no_reset)
        self.p, self.jitter = new_p, jitter
        self.period += 1
        # modular, as JitterAndJump's: no beep leaves the period's window
        return (new_p + jitter) % q
