"""Event-driven engine for the continuous-time model.

Beeps are instantaneous impulses at real-valued times; a beep is heard by
every neighbor whose active listen window contains its time.  Windows are
closed at the start and open at the end, so back-to-back listens partition
time with no double delivery.  Protocols are generators that yield
:class:`Listen`, :class:`Beep`, :class:`Rebase` and :class:`Cycle`
commands; a listen resumes with the tuple of local phases heard, a beep
resumes with the current global time.  ``Cycle(first, second)`` is
terminal: from then on the engine itself runs "listen ``first``, listen
``second``, beep" forever and never resumes the protocol, so a settled
node costs one heap event per period.  The two listens form one window
``[now, (now + first) + second)`` ending at the beep, the same float sum
the two separate listens would give.

Determinism: pending work lives in one heap keyed by (time, kind rank,
node) with wake < resume < beep, which both fixes the processing order
and realizes the window semantics (a listen that starts at time t sees a
beep emitted at exactly t).  A node has at most one pending event, so
the key never ties.

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


@dataclass(frozen=True)
class Cycle:
    """Forever: listen ``first``, listen ``second``, beep.  Terminal."""

    first: float
    second: float


class _Node:
    # A window [win_start, win_end) never reaches past the node's next
    # event, and beeps are emitted in time order, so a window that has
    # ended hears nothing more: there is no separate "listening" flag.
    # The current window's beeps are heard_log[win_idx:].
    __slots__ = ("gen", "origin", "win_start", "win_end", "win_idx", "heard_log",
                 "last_beep", "cycle")

    def __init__(self, gen, wake: float):
        self.gen = gen
        self.origin = wake
        self.win_start = 0.0
        self.win_end = 0.0
        self.win_idx = 0
        self.heard_log: list[float] = []
        self.last_beep = float("-inf")
        self.cycle: tuple[float, float] | None = None


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
        self._last_emit: float | None = None
        self.protocols: dict[int, object] = {}
        self._nodes: dict[int, _Node] = {}
        self._heap: list[tuple[float, int, int]] = []
        for v in self.topology.nodes:
            wake = float(wakeup.get(v, 0.0))
            if wake < 0:
                raise ConfigError("wake times must be nonnegative")
            proto = protocol_factory(v)
            self.protocols[v] = proto
            self._nodes[v] = _Node(proto.run(), wake)
            self._heap.append((wake, _RANK_WAKE, v))
        heapq.heapify(self._heap)
        # Held here, not on _Node: records pointing at each other would
        # make every engine cyclic garbage.
        nodes = self._nodes
        self._nbrs = {v: [nodes[u] for u in self.topology.neighbors(v)] for v in nodes}

    # -- protocol driving --------------------------------------------------

    def _open(self, node: _Node, v: int, end: float, rank: int) -> None:
        """Open the window [now, end) and schedule ``node``'s event at its end."""
        node.win_start = self.now
        node.win_end = end
        node.win_idx = len(node.heard_log)
        heapq.heappush(self._heap, (end, rank, v))

    def _advance(self, node: _Node, v: int, value) -> None:
        send = node.gen.send
        while True:
            try:
                cmd = send(value)
            except StopIteration:
                return
            kind = type(cmd)
            if kind is Listen:
                if cmd.duration < 0:
                    raise ConfigError("listen duration must be nonnegative")
                self._open(node, v, self.now + cmd.duration, _RANK_RESUME)
                return
            if kind is Beep:
                heapq.heappush(self._heap, (self.now, _RANK_BEEP, v))
                return
            if kind is Cycle:
                if cmd.first < 0 or cmd.second < 0:
                    raise ConfigError("listen duration must be nonnegative")
                node.cycle = (cmd.first, cmd.second)
                self._open(node, v, (self.now + cmd.first) + cmd.second, _RANK_BEEP)
                return
            if kind is Rebase:
                node.origin = self.now
                value = None
                continue
            raise ConfigError(f"protocol yielded unknown command {cmd!r}")

    def emit_beep(self, v: int, t: float) -> None:
        """Deliver an instantaneous beep from ``v`` to all listening neighbors."""
        # beeps come in nondecreasing time, so a tie is a repeat of the last
        if t == self._last_emit:
            self.tie_collisions += 1
        self._last_emit = t
        nv = self._nodes[v]
        nv.last_beep = t
        for nu in self._nbrs[v]:
            # a node that itself beeps at t is in beeping mode at that instant,
            # even if its next listen window opens exactly at t
            if nu.win_start <= t < nu.win_end and nu.last_beep != t:
                nu.heard_log.append(t)

    # -- main loop ----------------------------------------------------------

    def run_until(self, t_end: float) -> None:
        heap = self._heap
        nodes = self._nodes
        pop = heapq.heappop
        emit = self.emit_beep
        advance = self._advance
        tau = CONTINUOUS_PERIOD
        while heap and heap[0][0] <= t_end:
            time, rank, v = pop(heap)
            self.now = time
            node = nodes[v]
            if rank == _RANK_BEEP:
                emit(v, time)
                if node.cycle is None:
                    advance(node, v, time)
                else:
                    first, second = node.cycle
                    self._open(node, v, (time + first) + second, _RANK_BEEP)
            elif rank == _RANK_RESUME:
                log = node.heard_log
                if node.win_idx == len(log):
                    advance(node, v, ())
                else:
                    origin = node.origin
                    heard = {(t - origin) % tau for t in log[node.win_idx:]}
                    advance(node, v, tuple(sorted(heard)))
            else:
                advance(node, v, None)
        self.now = max(self.now, t_end)

    # -- harness accessors ----------------------------------------------------

    def theta(self, v: int) -> float:
        """Clock offset of the node's period origin in the global frame."""
        return self._nodes[v].origin % CONTINUOUS_PERIOD

    def heard_log(self, v: int) -> tuple[float, ...]:
        return tuple(self._nodes[v].heard_log)
