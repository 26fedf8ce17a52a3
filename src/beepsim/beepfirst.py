"""Greedy first-fit phase claiming for the continuous engine.

A node listens for a random prefix, then for one full period, and then
scans forward for the first phase whose surrounding buffer is clear of
every beep heard so far, extending its listening as the candidate moves.
Once found it beeps at that phase every period forever.  Buffer lengths
are randomized through a continuous draw so no two nodes ever settle on
the same phase.

The node must know its own degree and the maximum degree among its
neighbors; both are supplied by the harness, the protocol never inspects
the topology.
"""

from __future__ import annotations

from .continuous import CONTINUOUS_PERIOD, Beep, Listen, Rebase
from .errors import ProtocolViolation
from .phases import PhaseSet, lift_onto


def _last_blocking_beep(s: PhaseSet, p: float, b: float, t_period: float):
    """Largest heard phase inside the buffer window around candidate ``p``.

    Phases are lifted onto the forward scan coordinate anchored at p - b.
    The window is open at its left end: a beep exactly b before p is the
    boundary the scan itself produces via p = b + last, not a blocker
    (randomized buffers make real coincidences measure-zero, but floats
    reproduce the endpoint exactly).
    """
    anchor = p - b
    lifted = [lift_onto(anchor, x, t_period) for x in s.range_query(p - b, p + b)]
    blocking = [x for x in lifted if x > anchor]
    return max(blocking) if blocking else None


def _first_fit(s: PhaseSet, b: float, t_period: float):
    """Forward scan for the first phase whose buffer window is clear.

    The candidate starts at 0 and moves to b past the last beep blocking
    it until nothing blocks.  Each move yields ``Listen(extension)`` and
    receives the phases heard meanwhile, which join ``s``.  Returns the
    settled phase and the total extension.
    """
    p = 0.0
    total = 0.0
    while True:
        last = _last_blocking_beep(s, p, b, t_period)
        # done when nothing blocks, or at the fixed point where the only
        # blocker sits exactly b behind the candidate (float dust)
        if last is None or b + last <= p:
            return p, total
        prev, p = p, b + last
        if p >= t_period:
            raise ProtocolViolation("first-fit scan failed to settle within one period")
        extra = yield Listen(p - prev)
        total += p - prev
        s = s.union(extra)


class BeepFirst:
    """Node-local protocol state; driven as a generator by the engine."""

    def __init__(self, epsilon: float, degree: int, max_degree: int, rng):
        self.epsilon = float(epsilon)
        self.d = int(degree)
        self.d_max = int(max_degree)
        self.rng = rng
        self.eps_v: float | None = None
        self.b: float | None = None
        self.interval: float | None = None
        self.p: float | None = None
        self.stable_since: float | None = None
        self.search_listening = 0.0

    @property
    def stable(self) -> bool:
        return self.stable_since is not None

    def run(self):
        t_period = CONTINUOUS_PERIOD
        self.eps_v = float(self.rng.uniform(0.0, self.epsilon))
        self.interval = (1.0 - self.epsilon) * t_period / (2.0 * (self.d_max + 1))
        self.b = (1.0 - self.eps_v) * t_period / (2.0 * (self.d + 1))
        yield Listen(self.eps_v)  # randomized start offset; result discarded
        yield Rebase()

        heard = yield Listen(t_period)
        s = PhaseSet.from_iterable(heard, t_period)
        p, self.search_listening = yield from _first_fit(s, self.b, t_period)
        self.p = p

        beeped_at = yield Beep()
        self.stable_since = beeped_at
        yield Listen(t_period - p)
        while True:
            yield Listen(p)
            yield Beep()
            yield Listen(t_period - p)
