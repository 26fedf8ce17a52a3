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
"""

from __future__ import annotations

import math
from collections import deque
from typing import NamedTuple

from .errors import ProtocolViolation
from .rng import RawDraws


def buffer_length(eta: float, q: int, estimate: int) -> int:
    """Guard buffer in slots: floor(eta*Q/(estimate+1)), at least 1."""
    return max(1, math.floor(eta * q / (estimate + 1)))


def free_slots(heard, b: int, q: int, own_phase: int | None = None) -> list[int]:
    """Slots whose guard window [p-b-2, p+b+1] contains no occupied slot.

    Occupied slots are the heard beeps plus the node's own current phase,
    so a node never jumps next to itself.  A slot p is blocked by an
    occupied slot x exactly when p lies in [x-b-1, x+b+2] (wrap-aware).
    """
    markers = set(heard)
    if own_phase is not None:
        markers.add(own_phase % q)
    if not markers:
        return list(range(q))
    width = 2 * b + 4
    if width >= q:
        return []
    # each marker blocks the run [start, start+width) on the circle; all
    # runs share one width, so in order of start they also end in order,
    # and of the runs that wrap past Q the last blocks the longest [0, tail)
    starts = sorted((x - b - 1) % q for x in markers)
    free: list[int] = []
    reach = max(starts[-1] + width - q, 0)
    for start in starts:
        free.extend(range(reach, start))
        reach = start + width
    free.extend(range(reach, q))
    return free


class PeriodReport(NamedTuple):
    """Observation record for one completed local period."""

    period: int
    phase: int | None
    jitter: int | None
    interval: int | None
    beeps_heard: int
    colored: bool
    free_count: int | None
    reset: bool = False


class JitterAndJump:
    """Node-local state machine driven by :class:`DiscreteEngine`.

    The protocol is anonymous: it sees only its own random stream and the
    phases it heard, never a node identity.  It takes every draw from the
    raw words of ``rng`` (see :class:`RawDraws`), so nothing else may read
    that generator.
    """

    def __init__(self, q: int, eta: float, rng, dynamic: bool = False, window: int = 1):
        self.q = q
        self.eta = eta
        self._draws = RawDraws(rng)
        self.dynamic = dynamic
        self.colored = False
        self.p: int | None = None
        self.jitter: int | None = None
        self.d_tilde = 1
        self.b = buffer_length(eta, q, 1)
        self.interval: int | None = None
        self.period = 0
        self.p_prime: int | None = None
        self.d_star: int | None = None
        self.resets = 0
        self._window: deque[int] | None = deque(maxlen=window) if dynamic else None
        self.last_report: PeriodReport | None = None

    def on_period_end(self, heard: tuple[int, ...]) -> tuple[int, ...]:
        """Digest one finished period and plan the next one's beeps."""
        q, p, dynamic, colored = self.q, self.p, self.dynamic, self.colored
        n_heard = len(heard)
        interval, reset = None, False
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
                self.resets += 1
                reset = True
        self.d_tilde, self.b, self.colored = d_tilde, b, colored

        free_count = None
        if not colored or dynamic:
            free = free_slots(heard, b, q, own_phase=p)
            free_count = len(free)
            if not free:
                raise ProtocolViolation(
                    f"no free slots (Q={q}, b={b}, heard={n_heard}); "
                    "parameters are outside the supported regime"
                )
        below = self._draws.below
        if not colored:
            self.p = free[below(free_count)]
        used_jitter = self.jitter
        jitter = self.jitter = below(2)
        # the jittered beep position is modular: at p = Q-1 a jitter of 1
        # beeps in slot 0 of the same period, keeping the node audible once
        # per period window exactly as the modular window checks assume
        offsets = ((self.p + jitter) % q,)
        if dynamic:
            self.p_prime = free[below(free_count)]
            offsets += (self.p_prime,)

        self.last_report = PeriodReport(
            self.period, p, used_jitter, interval, n_heard, colored, free_count, reset
        )
        self.period += 1
        return offsets

    def fingerprint(self):
        window = tuple(self._window) if self._window is not None else None
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
            window,
        )
