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
the two separate listens would give.  A cycle whose beep would not come
later than the instant it starts from is a :class:`ConfigError`: time
would stand still.

Determinism: pending work lives in one heap keyed by (time, kind rank,
node) with wake < resume < beep, which both fixes the processing order
and realizes the window semantics (a listen that starts at time t sees a
beep emitted at exactly t).  A node has at most one pending event, so
the key never ties.

Fast-forward: once every node cycles, no protocol is resumed again, so
what is left of a run is fixed.  ``run_until`` then stops popping the
heap and plays every beep up to its end time as arrays, one stretch per
call: each node steps by the same float recurrence the heap path uses,
and one sort by (time, node) gives the heap's emit order.  It leaves each
node's last beep, window and heap entry as the heap path would.  Since
every window then ends at the node's own next beep and the next opens
there, a node hears exactly the neighbor beeps at instants when it does
not beep itself.  The stretches are kept as (times, nodes) together with
each node's last beep before the stretch, and :meth:`heard_log` adds
their beeps to every node's log in one grouped pass on first use; the
fast-forwarded beeps do not go through :meth:`emit_beep`.

Exact coincidences of two beep times are possible in floating point even
though the ideal model excludes them almost surely; the engine counts
them in ``tie_collisions``.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable

import numpy as np

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
    # The current window's beeps are heard_log[win_idx:]; a cycling node
    # is never resumed, so its win_idx is not kept up to date.
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


def _cycle_end(now: float, first: float, second: float) -> float:
    end = (now + first) + second
    if end <= now:
        raise ConfigError(f"a cycle of {first!r} + {second!r} from t={now!r} never advances")
    return end


class ContinuousEngine:
    """Event queue plus per-node listen windows over a fixed topology."""

    def __init__(
        self,
        topology: Topology,
        protocol_factory: Callable[[int], object],
        wakeup: dict[int, float],
    ):
        view = topology.arrays
        self.now = 0.0
        self.tie_collisions = 0
        self._last_emit: float | None = None
        self.protocols: dict[int, object] = {}
        self._nodes: dict[int, _Node] = {}
        self._heap: list[tuple[float, int, int]] = []
        self._ids = view.nodes
        ids = view.nodes.tolist()
        for v in ids:
            wake = float(wakeup.get(v, 0.0))
            if wake < 0:
                raise ConfigError("wake times must be nonnegative")
            proto = protocol_factory(v)
            self.protocols[v] = proto
            self._nodes[v] = _Node(proto.run(), wake)
            self._heap.append((wake, _RANK_WAKE, v))
        heapq.heapify(self._heap)
        self._cycling = 0
        # neighbor lists by node index: those of node i are
        # _adj[_starts[i]:_starts[i + 1]]
        ends = np.concatenate((view.src, view.dst))
        self._adj = np.concatenate((view.dst, view.src))[np.argsort(ends, kind="stable")]
        self._starts = np.concatenate(([0], np.cumsum(np.bincount(ends, minlength=len(ids)))))
        # Held here, not on _Node: records pointing at each other would
        # make every engine cyclic garbage.
        self._order = order = list(self._nodes.values())  # by node index
        near = [order[i] for i in self._adj.tolist()]
        bounds = self._starts.tolist()
        self._nbrs = {v: near[bounds[i]:bounds[i + 1]] for i, v in enumerate(ids)}
        # fast-forwarded stretches: (times, node indices, last beeps before)
        self._stretches: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self._heard = 0  # stretches already added to the heard logs

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
                end = _cycle_end(self.now, cmd.first, cmd.second)
                node.cycle = (cmd.first, cmd.second)
                self._cycling += 1
                self._open(node, v, end, _RANK_BEEP)
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
        everyone = len(nodes)
        pop = heapq.heappop
        emit = self.emit_beep
        advance = self._advance
        tau = CONTINUOUS_PERIOD
        while heap and heap[0][0] <= t_end:
            if self._cycling == everyone:
                self._fast_forward(t_end)
                break
            time, rank, v = pop(heap)
            self.now = time
            node = nodes[v]
            if rank == _RANK_BEEP:
                emit(v, time)
                if node.cycle is None:
                    advance(node, v, time)
                else:
                    first, second = node.cycle
                    self._open(node, v, _cycle_end(time, first, second), _RANK_BEEP)
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

    def _fast_forward(self, t_end: float) -> None:
        """Play every beep up to ``t_end`` as one stretch; every node cycles,
        and each one's next beep ends its window."""
        order = self._order
        t = np.array([node.win_end for node in order])
        first = np.array([node.cycle[0] for node in order])
        second = np.array([node.cycle[1] for node in order])
        before = np.array([node.last_beep for node in order])
        last = before.copy()
        times, who = [], []
        due = beeping = np.flatnonzero(t <= t_end)
        while due.size:
            at = t[due]
            times.append(at)
            who.append(due)
            last[due] = at
            step = (at + first[due]) + second[due]
            if (step <= at).any():  # name the first node that stalls
                i = int(due[np.argmax(step <= at)])
                _cycle_end(float(t[i]), float(first[i]), float(second[i]))
            t[due] = step
            due = due[step <= t_end]
        times, who = np.concatenate(times), np.concatenate(who)
        by_time = np.lexsort((who, times))  # the heap's (time, node) order
        times, who = times[by_time], who[by_time]
        self._stretches.append((times, who, before))
        self.tie_collisions += int(np.count_nonzero(times[1:] == times[:-1]))
        if float(times[0]) == self._last_emit:
            self.tie_collisions += 1
        self._last_emit = float(times[-1])
        self.now = float(times[-1])
        for i in beeping.tolist():
            node = order[i]
            node.last_beep = node.win_start = float(last[i])
            node.win_end = float(t[i])
        self._heap[:] = zip(t.tolist(), [_RANK_BEEP] * len(order), self._ids.tolist())
        heapq.heapify(self._heap)

    def _hear_stretches(self) -> None:
        """Add the beeps of every stretch not yet heard to the heard logs:
        each neighbor beep at an instant when the listener did not beep."""
        starts, adj, order = self._starts, self._adj, self._order
        for times, who, before in self._stretches[self._heard:]:
            count = starts[who + 1] - starts[who]
            beep = np.repeat(np.arange(len(who)), count)
            skip = np.repeat(np.cumsum(count) - count - starts[who], count)
            listener = adj[np.arange(len(beep)) - skip]
            # the first index of each beep's time names the instant exactly
            instant = np.searchsorted(times, times)
            own = np.sort(who * len(times) + instant)
            key = listener * len(times) + instant[beep]
            beeped = own[np.minimum(np.searchsorted(own, key), len(own) - 1)] == key
            t = times[beep]
            keep = ~beeped & (before[listener] != t)
            listener = listener[keep]
            grouped = np.argsort(listener, kind="stable")
            heard = t[keep][grouped].tolist()
            at = 0
            for i, n_heard in enumerate(np.bincount(listener, minlength=len(order)).tolist()):
                if n_heard:
                    order[i].heard_log.extend(heard[at:at + n_heard])
                    at += n_heard
        self._heard = len(self._stretches)

    # -- harness accessors ----------------------------------------------------

    def theta(self, v: int) -> float:
        """Clock offset of the node's period origin in the global frame."""
        return self._nodes[v].origin % CONTINUOUS_PERIOD

    def heard_log(self, v: int) -> tuple[float, ...]:
        if self._heard < len(self._stretches):
            self._hear_stretches()
        return tuple(self._nodes[v].heard_log)
