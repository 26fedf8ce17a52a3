"""Event-driven engine for the continuous-time model.

Beeps are instantaneous impulses at real-valued times; a beep is heard by
every neighbor whose active listen window contains its time.  Windows are
closed at the start and open at the end, so back-to-back listens partition
time with no double delivery.  Protocols are generators that yield
:class:`Listen`, :class:`Beep`, and :class:`Rebase` commands; a listen
resumes with the tuple of local phases heard, a beep resumes with the
current global time.

Determinism: pending work lives in one heap keyed by
(time, kind rank, node, sequence) with wake < resume < beep, which both
fixes the processing order and realizes the window semantics (a listen
that starts at time t sees a beep emitted at exactly t).

Exact coincidences of two beep times are possible in floating point even
though the ideal model excludes them almost surely; the engine counts
them in ``tie_collisions``.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable

from .errors import ConfigError
from .topology import Topology

CONTINUOUS_PERIOD = 1.0  # T: the continuous model's period length

_RANK_WAKE = 0
_RANK_RESUME = 1
_RANK_BEEP = 2


@dataclass(frozen=True)
class Listen:
    duration: float


@dataclass(frozen=True)
class Beep:
    pass


@dataclass(frozen=True)
class Rebase:
    """Declare the current instant as the node's period origin."""


class _Node:
    __slots__ = (
        "gen",
        "origin",
        "listening",
        "win_start",
        "win_end",
        "buffer",
        "heard_log",
        "beep_times",
        "last_beep",
    )

    def __init__(self, gen, wake: float):
        self.gen = gen
        self.origin = wake
        self.listening = False
        self.win_start = 0.0
        self.win_end = 0.0
        self.buffer: list[float] = []
        self.heard_log: list[float] = []
        self.beep_times: list[float] = []
        self.last_beep = float("-inf")


class ContinuousEngine:
    """Event queue plus per-node listen windows over a fixed topology."""

    def __init__(
        self,
        topology: Topology,
        protocol_factory: Callable[[int], object],
        wakeup: dict[int, float],
    ):
        self.topology = topology.copy()
        self.now = 0.0
        self.tie_collisions = 0
        self.protocols: dict[int, object] = {}
        self._nodes: dict[int, _Node] = {}
        self._heap: list[tuple[float, int, int, int]] = []
        self._seq = 0
        self._beep_counts: dict[float, int] = {}
        for v in self.topology.nodes:
            wake = float(wakeup.get(v, 0.0))
            if wake < 0:
                raise ConfigError("wake times must be nonnegative")
            proto = protocol_factory(v)
            self.protocols[v] = proto
            self._nodes[v] = _Node(proto.run(), wake)
            self._push(wake, _RANK_WAKE, v)

    def _push(self, time: float, rank: int, node: int) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (time, rank, node, self._seq))

    # -- protocol driving --------------------------------------------------

    def _advance(self, v: int, value) -> None:
        node = self._nodes[v]
        while True:
            try:
                cmd = node.gen.send(value)
            except StopIteration:
                return
            if isinstance(cmd, Listen):
                if cmd.duration < 0:
                    raise ConfigError("listen duration must be nonnegative")
                node.listening = True
                node.win_start = self.now
                node.win_end = self.now + cmd.duration
                node.buffer = []
                self._push(node.win_end, _RANK_RESUME, v)
                return
            if isinstance(cmd, Beep):
                self._push(self.now, _RANK_BEEP, v)
                return
            if isinstance(cmd, Rebase):
                node.origin = self.now
                value = None
                continue
            raise ConfigError(f"protocol yielded unknown command {cmd!r}")

    def emit_beep(self, v: int, t: float) -> None:
        """Deliver an instantaneous beep from ``v`` to all listening neighbors."""
        seen = self._beep_counts.get(t, 0)
        if seen:
            self.tie_collisions += 1
        self._beep_counts[t] = seen + 1
        nv = self._nodes[v]
        nv.beep_times.append(t)
        nv.last_beep = t
        for u in self.topology.neighbors(v):
            nu = self._nodes[u]
            # a node that itself beeps at t is in beeping mode at that instant,
            # even if its next listen window opens exactly at t
            if nu.listening and nu.win_start <= t < nu.win_end and nu.last_beep != t:
                nu.buffer.append(t)
                nu.heard_log.append(t)

    # -- main loop ----------------------------------------------------------

    def run_until(self, t_end: float) -> None:
        while self._heap and self._heap[0][0] <= t_end:
            time, rank, v, _ = heapq.heappop(self._heap)
            self.now = time
            node = self._nodes[v]
            if rank == _RANK_WAKE:
                self._advance(v, None)
            elif rank == _RANK_RESUME:
                node.listening = False
                tau = CONTINUOUS_PERIOD
                phases = tuple(sorted({(t - node.origin) % tau for t in node.buffer}))
                node.buffer = []
                self._advance(v, phases)
            else:
                self.emit_beep(v, time)
                self._advance(v, time)
        self.now = max(self.now, t_end)

    # -- harness accessors ----------------------------------------------------

    def theta(self, v: int) -> float:
        """Clock offset of the node's period origin in the global frame."""
        return self._nodes[v].origin % CONTINUOUS_PERIOD

    def heard_log(self, v: int) -> tuple[float, ...]:
        return tuple(self._nodes[v].heard_log)

    def beep_log(self, v: int) -> tuple[float, ...]:
        return tuple(self._nodes[v].beep_times)
