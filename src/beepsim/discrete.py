"""Slot-synchronous network engine.

Global time advances in slots, but only slots where something can happen
are stepped: a slot with no local period boundary and no queued beep is
silent.  The engine keeps a min-heap of the slots that hold a boundary or
a queued beep (a slot is pushed when it gains its first one; an entry
whose slot has been stepped or emptied is dropped when it reaches the
top), so ``run_slots`` jumps from one busy slot to the next without
looking at the silent ones between them.

Within a slot every awake node either beeps or listens; a listening
node hears something exactly when at least one graph neighbor beeps in
that slot, and cannot tell one beep from many.  A beeping node gets no
feedback, not even about its own beep.

Nodes run local periods of Q slots anchored at their wake slot.  At each
local period boundary the engine hands the protocol the phases heard
during the period that just ended, in ascending order, and receives the
beep offsets for the period that starts; an offset of exactly Q lands in
slot 0 of the following local period (a jittered beep wrapping past the
boundary).  A node's heard phases are kept as the ascending global slots
it heard in its current local period: a boundary at slot s turns slot t
into phase t - (s - Q), with no set and no sort.

The engine never decides when the topology changes: ``apply`` applies one
event at the current slot, and the runner's period loop calls it at each
global period boundary kQ, before stepping that slot.  All bookkeeping
is resolved in a fixed order so identical configurations produce
bit-identical runs.

The engine calls nothing back at a boundary: a node's protocol state
changes only at its own boundaries, one in any Q consecutive slots, so a
harness reads the protocols between calls to ``run_slots``.  To say whose
state changed, the engine appends each node whose ``on_period_end`` it
calls to ``reported``, by slot and then by id; the harness takes and
clears that list.

When every node wakes at slot 0 and beeps once per period, one period is
one window of Q slots for the whole network, and :func:`deliver_window`
delivers it in one array pass instead of slot by slot; the static
jitter-and-jump stepper ``StaticJitterJumpArrays.step`` calls it once per
period.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable, NamedTuple

import numpy as np

from .errors import ConfigError, InternalInconsistencyError
from .topology import DynamicEvent, Topology, link


class SlotOutcome(NamedTuple):
    """What happened in one global slot."""

    slot: int
    beeped: frozenset[int]
    heard: frozenset[int]


class DiscreteEngine:
    """Lockstep simulator driving one protocol instance per node.

    ``protocol_factory(node_id)`` must return an object exposing
    ``on_period_end(heard: tuple[int, ...]) -> tuple[int, ...]`` where the
    returned tuple holds beep offsets in [0, Q] for the next local period.
    Node ids are harness bookkeeping only; they are never passed to the
    protocol beyond stream derivation inside the factory.  ``adj`` is the
    graph as events leave it, the only adjacency map that changes.
    ``reported`` lists the nodes whose ``on_period_end`` was called, in
    call order, until the harness clears it.
    """

    def __init__(
        self,
        topology: Topology,
        q: int,
        protocol_factory: Callable[[int], object],
        wake_slots: dict[int, int],
    ):
        if q < 1:
            raise ConfigError("Q must be positive")
        self.adj = topology.adjacency()
        self._topology: Topology | None = topology
        self.q = int(q)
        self.slot = 0
        self._factory = protocol_factory
        self.protocols: dict[int, object] = {}
        self.reported: list[int] = []
        self.wake_slot: dict[int, int] = {}
        self._last_wake = 0  # no node wakes after this slot
        self._heard: dict[int, list[int]] = {}
        self._scheduled: dict[int, set[int]] = {}
        self._boundaries: dict[int, list[int]] = {}
        self._beeps: dict[int, list[int]] = {}
        self._due: list[int] = []  # heap over the keys of _boundaries and _beeps
        for v in self.adj:
            self._admit(v, wake_slots.get(v, 0))

    # -- membership ------------------------------------------------------

    def _admit(self, v: int, wake: int) -> None:
        if wake < self.slot:
            raise ConfigError(f"node {v} would wake in the past (slot {wake})")
        self.wake_slot[v] = wake
        self._last_wake = max(self._last_wake, wake)
        self.protocols[v] = self._factory(v)
        self._heard[v] = []
        self._scheduled[v] = set()
        due = self._boundaries.get(wake)
        if due is None:
            self._boundaries[wake] = [v]
            heappush(self._due, wake)
        else:
            due.append(v)

    def _retire(self, v: int) -> None:
        # drop the node's queued beeps and boundary, so a node re-added
        # under the same id does not inherit them; a list left empty goes
        # too, so that its slot stays silent
        del self._heard[v]
        beeps = self._beeps
        for t in self._scheduled.pop(v):
            kept = [u for u in beeps[t] if u != v]
            if kept:
                beeps[t] = kept
            else:
                del beeps[t]
        wake = self.wake_slot[v]
        pending = wake if wake >= self.slot else self.slot + (wake - self.slot) % self.q
        due = self._boundaries[pending]
        due.remove(v)
        if not due:
            del self._boundaries[pending]

    # -- queries ---------------------------------------------------------

    @property
    def topology(self) -> Topology:
        """The graph as it stands, rebuilt from :attr:`adj` after events."""
        if self._topology is None:
            self._topology = Topology.from_adjacency(self.adj)
        return self._topology

    def pending_phases(self, v: int) -> tuple[int, ...]:
        """Phases heard so far in the current local period of ``v``."""
        wake, q = self.wake_slot[v], self.q
        return tuple([(t - wake) % q for t in self._heard[v]])

    def fingerprint(self, v: int):
        """Full protocol-visible state of a node, for coupling experiments."""
        proto = self.protocols[v]
        wake = self.wake_slot[v]
        pending = tuple(sorted(t - wake for t in self._scheduled[v]))
        return (proto.fingerprint(), self.pending_phases(v), pending)

    # -- dynamics --------------------------------------------------------

    def apply(self, ev: DynamicEvent) -> None:
        """Apply one topology event at the current slot, before it is
        stepped: a node it adds wakes in this slot, and a node it removes
        takes its queued beeps and boundary with it."""
        kind, adj = ev.kind, self.adj
        self._topology = None
        if kind == "add_node":
            v = int(ev.nodes[0])
            if v < 0:
                raise ConfigError("node ids must be nonnegative")
            if v in adj:
                raise ConfigError(f"node {v} already exists")
            adj[v] = set()
            for u in ev.nodes[1:]:
                link(adj, v, u)
            self._admit(v, self.slot)
        elif kind == "remove_node":
            v = ev.nodes[0]
            if v not in adj:
                raise ConfigError(f"cannot remove unknown node {v}")
            for u in adj.pop(v):
                adj[u].discard(v)
            self._retire(v)
        elif kind == "add_edge":
            link(adj, *ev.nodes)
        else:  # remove_edge: DynamicEvent admits no other kind
            u, v = ev.nodes
            if u not in adj or v not in adj[u]:
                raise ConfigError(f"cannot remove unknown edge ({u}, {v})")
            adj[u].discard(v)
            adj[v].discard(u)

    # -- main loop -------------------------------------------------------

    def step_slot(self) -> SlotOutcome:
        """Advance the world by one slot and deliver beeps."""
        s, q = self.slot, self.q
        heard, scheduled, wake_slot = self._heard, self._scheduled, self.wake_slot

        # every node met here is alive: _retire takes a removed node out of
        # its boundary and beep lists, and apply out of the map
        due = self._boundaries.pop(s, None)
        if due:
            due.sort()
            beeps, protocols, reported = self._beeps, self.protocols, self.reported
            heap = self._due
            start = s - q  # the local period ending here began at slot s - Q
            for v in due:
                slots = heard[v]
                heard[v] = []
                if s != wake_slot[v]:  # the first period is listen only
                    got = tuple([t - start for t in slots])
                    reported.append(v)
                    for off in protocols[v].on_period_end(got):
                        if not 0 <= off <= q:
                            raise InternalInconsistencyError(
                                f"beep offset {off} outside [0, Q] from node {v}"
                            )
                        t = s + off
                        at = beeps.get(t)
                        if at is None:
                            beeps[t] = [v]
                            heappush(heap, t)
                        else:
                            at.append(v)
                        scheduled[v].add(t)
            after = self._boundaries.get(s + q)
            if after is None:
                self._boundaries[s + q] = due  # never an empty list
                heappush(heap, s + q)
            else:
                after.extend(due)

        # a listener hears the slot once however many neighbours beep: it
        # appends s unless its list already ends with s
        beepers = self._beeps.pop(s, None)
        if not beepers:
            self.slot = s + 1
            return SlotOutcome(s, frozenset(), frozenset())
        beepers = frozenset(beepers)
        adj = self.adj
        sleepers = s < self._last_wake  # some node may not be awake yet
        heard_now = []
        for u in beepers:
            scheduled[u].discard(s)
            for v in adj[u]:
                slots = heard[v]
                if (slots and slots[-1] == s) or v in beepers:
                    continue
                if sleepers and s < wake_slot[v]:
                    continue
                slots.append(s)
                heard_now.append(v)

        self.slot = s + 1
        return SlotOutcome(s, beepers, frozenset(heard_now))

    def next_busy_slot(self, end: int) -> int:
        """The first slot from the current one on that is not silent, or
        ``end`` if every slot before ``end`` is silent."""
        s, heap = self.slot, self._due
        boundaries, beeps = self._boundaries, self._beeps
        while heap:
            t = heap[0]
            if t >= s and (t in boundaries or t in beeps):
                break
            heappop(heap)  # stepped already, or emptied by _retire
        else:
            t = end
        return min(t, end)

    def run_slots(self, count: int) -> None:
        """Advance ``count`` slots, calling :meth:`step_slot` on each one that
        is not silent (a silent slot would yield an empty outcome)."""
        end = self.slot + count
        while (s := self.next_busy_slot(end)) < end:
            self.slot = s
            self.step_slot()
        self.slot = end


def deliver_window(listener: np.ndarray, beeper: np.ndarray, offsets: np.ndarray,
                   q: int) -> tuple[np.ndarray, np.ndarray]:
    """The phases each node hears in a window of Q slots in which node
    ``i`` beeps once, in slot ``offsets[i]`` of the window.

    ``listener`` and ``beeper`` hold both ends of every edge, each edge
    once in each direction, as node indices.  As in :meth:`DiscreteEngine.
    step_slot`, a node never hears its own slot and hears a slot once
    however many neighbours beep in it.  Returns ``(owner, phase)``: the
    heard phases, ascending by node and then by phase.
    """
    slot = offsets[beeper]
    audible = slot != offsets[listener]
    heard = np.sort(listener[audible] * q + slot[audible])
    heard = heard[np.diff(heard, prepend=-1) != 0]
    return heard // q, heard % q
