"""Slot-synchronous network engine.

Global time advances one slot at a time.  Within a slot every awake node
either beeps or listens; a listening node hears something exactly when at
least one graph neighbor beeps in that slot, and cannot tell one beep from
many.  A beeping node gets no feedback, not even about its own beep.

Nodes run local periods of Q slots anchored at their wake slot.  At each
local period boundary the engine hands the protocol the set of phases
heard during the period that just ended and receives the beep offsets for
the period that starts; an offset of exactly Q lands in slot 0 of the
following local period (a jittered beep wrapping past the boundary).

Dynamic topology events are applied at global period boundaries, those
of one period in the order given.  All bookkeeping is resolved in a fixed
order so identical configurations produce bit-identical runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from .errors import ConfigError, InternalInconsistencyError, ProtocolViolation
from .topology import DynamicEvent, Topology


@dataclass(frozen=True)
class SlotOutcome:
    """What happened in one global slot."""

    slot: int
    beeped: frozenset[int]
    heard: frozenset[int]

    def state_of(self, node: int) -> str:
        if node in self.beeped:
            return "beeped"
        if node in self.heard:
            return "heard_beep"
        return "silence"


class DiscreteEngine:
    """Lockstep simulator driving one protocol instance per node.

    ``protocol_factory(node_id)`` must return an object exposing
    ``on_period_end(heard: tuple[int, ...]) -> tuple[int, ...]`` where the
    returned tuple holds beep offsets in [0, Q] for the next local period.
    Node ids are harness bookkeeping only; they are never passed to the
    protocol beyond stream derivation inside the factory.
    """

    def __init__(
        self,
        topology: Topology,
        q: int,
        protocol_factory: Callable[[int], object],
        wake_slots: dict[int, int],
        events: Iterable[DynamicEvent] = (),
        observer=None,
    ):
        if q < 1:
            raise ConfigError("Q must be positive")
        self.topology = topology.copy()
        self.q = int(q)
        self.slot = 0
        self.observer = observer
        self._factory = protocol_factory
        self.protocols: dict[int, object] = {}
        self.wake_slot: dict[int, int] = {}
        self.alive: set[int] = set()
        self._heard: dict[int, set[int]] = {}
        self._scheduled: dict[int, set[int]] = {}
        self._boundaries: dict[int, list[int]] = {}
        self._beeps: dict[int, list[int]] = {}
        self._events = sorted(events, key=lambda e: e.at_period)  # stable: file order
        self._event_idx = 0
        for v in self.topology.nodes:
            self._admit(v, wake_slots.get(v, 0))

    # -- membership ------------------------------------------------------

    def _admit(self, v: int, wake: int) -> None:
        if wake < self.slot:
            raise ConfigError(f"node {v} would wake in the past (slot {wake})")
        self.wake_slot[v] = wake
        self.alive.add(v)
        self.protocols[v] = self._factory(v)
        self._heard[v] = set()
        self._scheduled[v] = set()
        self._boundaries.setdefault(wake, []).append(v)

    def _retire(self, v: int) -> None:
        # drop the node's queued beeps and boundary, so a node re-added
        # under the same id does not inherit them
        self.alive.discard(v)
        self._heard.pop(v, None)
        for t in self._scheduled.pop(v):
            self._beeps[t] = [u for u in self._beeps[t] if u != v]
        wake = self.wake_slot[v]
        pending = wake if wake >= self.slot else self.slot + (wake - self.slot) % self.q
        self._boundaries[pending].remove(v)

    # -- queries ---------------------------------------------------------

    def local_phase(self, v: int, global_slot: int | None = None) -> int:
        """Phase of ``v`` at a global slot; the period origin is its wake slot."""
        s = self.slot if global_slot is None else global_slot
        if v not in self.alive:
            raise ProtocolViolation(f"node {v} is not part of the network")
        if s < self.wake_slot[v]:
            raise ProtocolViolation(f"node {v} is asleep at slot {s}")
        return (s - self.wake_slot[v]) % self.q

    def pending_phases(self, v: int) -> tuple[int, ...]:
        """Phases heard so far in the current local period of ``v``."""
        return tuple(sorted(self._heard[v]))

    def fingerprint(self, v: int):
        """Full protocol-visible state of a node, for coupling experiments."""
        proto = self.protocols[v]
        wake = self.wake_slot[v]
        pending = tuple(sorted(t - wake for t in self._scheduled[v]))
        return (proto.fingerprint(), self.pending_phases(v), pending)

    # -- dynamics --------------------------------------------------------

    def apply_dynamic_events(self, period: int) -> None:
        """Apply all queued events scheduled for the given global period."""
        while self._event_idx < len(self._events):
            ev = self._events[self._event_idx]
            if ev.at_period > period:
                break
            if ev.at_period < period:
                raise ConfigError(f"event {ev} scheduled before the current period")
            self._apply(ev)
            self._event_idx += 1

    def _apply(self, ev: DynamicEvent) -> None:
        kind = ev.kind
        if kind == "add_node":
            v, neighbors = ev.nodes[0], ev.nodes[1:]
            self.topology.add_node(v, neighbors)
            self._admit(v, self.slot)
        elif kind == "remove_node":
            self.topology.remove_node(ev.nodes[0])
            self._retire(ev.nodes[0])
        elif kind == "add_edge":
            self.topology.add_edge(*ev.nodes)
        elif kind == "remove_edge":
            self.topology.remove_edge(*ev.nodes)
        else:  # pragma: no cover - DynamicEvent validates kinds
            raise InternalInconsistencyError(f"unhandled event kind {kind}")

    # -- main loop -------------------------------------------------------

    def step_slot(self) -> SlotOutcome:
        """Advance the world by one slot and deliver beeps."""
        s = self.slot
        if s % self.q == 0:
            self.apply_dynamic_events(s // self.q)

        for v in sorted(self._boundaries.pop(s, ())):
            if v not in self.alive:
                continue
            heard = tuple(sorted(self._heard[v]))
            self._heard[v] = set()
            if s == self.wake_slot[v]:
                plan: tuple[int, ...] = ()  # first period: listen only
            else:
                plan = tuple(self.protocols[v].on_period_end(heard))
            for off in plan:
                if not 0 <= off <= self.q:
                    raise InternalInconsistencyError(
                        f"beep offset {off} outside [0, Q] from node {v}"
                    )
                t = s + off
                self._beeps.setdefault(t, []).append(v)
                self._scheduled[v].add(t)
            self._boundaries.setdefault(s + self.q, []).append(v)
            if self.observer is not None:
                self.observer.on_period_boundary(self, v, s)

        beepers = frozenset(v for v in self._beeps.pop(s, ()) if v in self.alive)
        for v in beepers:
            self._scheduled[v].discard(s)
        heard_now: set[int] = set()
        for u in sorted(beepers):
            for v in self.topology.neighbors(u):
                if v in beepers or v not in self.alive or s < self.wake_slot[v]:
                    continue
                self._heard[v].add((s - self.wake_slot[v]) % self.q)
                heard_now.add(v)

        self.slot = s + 1
        return SlotOutcome(s, beepers, frozenset(heard_now))

    def run_slots(self, count: int) -> None:
        for _ in range(count):
            self.step_slot()
