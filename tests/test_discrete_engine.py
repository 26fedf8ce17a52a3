"""Slot-synchronous engine: delivery rules, clocks, churn, determinism."""

import pytest
from helpers import ReferenceEngine, WithEvents, valid_events
from hypothesis import given, settings, strategies as st

from beepsim import rng as rngmod
from beepsim.discrete import DiscreteEngine
from beepsim.errors import ConfigError
from beepsim.topology import DynamicEvent, Topology, build_wakeup, parse_events, star


class ScriptedProtocol:
    """Beeps at a fixed list of offsets every period; records what it hears."""

    def __init__(self, offsets=()):
        self.offsets = tuple(offsets)
        self.heard_periods = []

    def on_period_end(self, heard):
        self.heard_periods.append(heard)
        return self.offsets

    def fingerprint(self):
        return (self.offsets, tuple(self.heard_periods))


def make_engine(topology, q=8, offsets=None, wake=None, events=()):
    offsets = offsets or {}
    wake = wake or {v: 0 for v in topology.nodes}
    protos = {}

    def factory(v):
        protos[v] = ScriptedProtocol(offsets.get(v, ()))
        return protos[v]

    engine = WithEvents(DiscreteEngine(topology, q, factory, wake), events)
    return engine, protos


def test_beep_is_heard_by_adjacent_listener():
    topo = Topology.from_edges(2, [(0, 1)])
    engine, protos = make_engine(topo, offsets={0: (3,)})
    engine.run_slots(1 + 8)  # wake boundary + first period; plans applied at slot 8
    engine.run_slots(8)      # period 1 runs; node 0 beeps at its phase 3
    out = None
    # replay: inspect the heard sets collected at the period-2 boundary
    engine.run_slots(1)
    assert protos[1].heard_periods[-1] == (3,)
    assert protos[0].heard_periods[-1] == ()  # beeper gets no feedback


def test_simultaneous_beeps_are_mutually_unheard():
    topo = Topology.from_edges(2, [(0, 1)])
    engine, protos = make_engine(topo, offsets={0: (5,), 1: (5,)})
    engine.run_slots(2 * 8 + 1)
    assert protos[0].heard_periods[-1] == ()
    assert protos[1].heard_periods[-1] == ()


def test_non_adjacent_nodes_hear_nothing():
    topo = Topology.from_edges(3, [(1, 2)])
    engine, protos = make_engine(topo, offsets={0: (2,)})
    engine.run_slots(2 * 8 + 1)
    assert protos[1].heard_periods[-1] == ()
    assert protos[2].heard_periods[-1] == ()


def test_slot_outcome_states():
    topo = Topology.from_edges(3, [(0, 1)])
    engine, _ = make_engine(topo, offsets={0: (0,)})
    engine.run_slots(8)  # first (listen-only) period
    out = engine.step_slot()  # slot 8: boundary, then node 0 beeps at offset 0
    assert out.beeped == {0}
    assert out.heard == {1}  # node 2 is not adjacent: silence


def test_local_phase_and_wake_offsets():
    # Both nodes beep at their local phase 5 and wake 3 slots apart, so each
    # hears the other 3 slots off its own phase 5, mod Q = 16.
    topo = Topology.from_edges(2, [(0, 1)])
    engine, protos = make_engine(topo, q=16, offsets={0: (5,), 1: (5,)}, wake={0: 0, 1: 3})
    engine.run_slots(3 * 16 + 4)
    assert protos[1].heard_periods[-1] == (2,)  # global slot 37, node 1's phase 34 mod 16
    assert protos[0].heard_periods[-1] == (8,)  # global slot 40


def test_listener_phase_uses_its_own_clock():
    # Node 0 wakes at 0, node 1 at slot 2; node 0 beeps at phase 5,
    # which node 1 hears at its local phase (5 - 2) mod 8 = 3.
    topo = Topology.from_edges(2, [(0, 1)])
    engine, protos = make_engine(topo, offsets={0: (5,)}, wake={0: 0, 1: 2})
    engine.run_slots(2 * 8 + 3)
    assert 3 in protos[1].heard_periods[-1]


def test_wrapped_offset_lands_in_next_period():
    # Offset Q means slot 0 of the node's next local period.
    topo = Topology.from_edges(2, [(0, 1)])
    engine, protos = make_engine(topo, offsets={0: (8,)})
    engine.run_slots(3 * 8 + 1)
    assert protos[1].heard_periods[-1] == (0,)


def test_determinism_bit_identical_outcomes():
    topo = star(6)
    outs1 = []
    engine, _ = make_engine(topo, offsets={v: (v,) for v in topo.nodes})
    for _ in range(40):
        outs1.append(engine.step_slot())
    engine2, _ = make_engine(topo, offsets={v: (v,) for v in topo.nodes})
    outs2 = [engine2.step_slot() for _ in range(40)]
    assert outs1 == outs2


def test_remove_edge_isolates_both_sides():
    topo = Topology.from_edges(2, [(0, 1)])
    events = (DynamicEvent(2, "remove_edge", (0, 1)),)
    engine, protos = make_engine(topo, offsets={0: (1,), 1: (4,)}, events=events)
    engine.run_slots(8 * 4 + 1)
    assert protos[0].heard_periods[1] == (4,)   # before churn
    assert protos[0].heard_periods[-1] == ()    # after churn
    assert engine.topology.degree(0) == 0
    assert engine.topology.degree(1) == 0


def test_add_node_wakes_at_event_period():
    topo = Topology.from_edges(2, [(0, 1)])
    events = (DynamicEvent(2, "add_node", (2, 0)),)
    engine, protos = make_engine(topo, offsets={0: (1,)}, events=events)
    engine.run_slots(8 * 4 + 1)
    assert engine.wake_slot[2] == 16
    # the new node's first period is listen-only, so it heard node 0's beep
    assert protos[2].heard_periods[0] == (1,)


def test_removed_node_stops_beeping():
    topo = star(3)
    events = (DynamicEvent(2, "remove_node", (1,)),)
    engine, protos = make_engine(
        topo, offsets={1: (2,), 2: (5,)}, events=events
    )
    engine.run_slots(8 * 4 + 1)
    hub_periods = protos[0].heard_periods
    assert hub_periods[1] == (2, 5)
    assert hub_periods[-1] == (5,)


def test_spoke_removal_drops_hub_beep_count():
    n = 9
    topo = star(n)
    events = tuple(DynamicEvent(5, "remove_node", (v,)) for v in range(1, 5))
    engine, protos = make_engine(
        topo, offsets={v: (v - 1,) for v in range(1, n)}, events=events
    )
    engine.run_slots(8 * 8 + 1)
    hub = protos[0].heard_periods
    assert len(hub[3]) == 8
    assert len(hub[-1]) == 4


def test_event_referencing_unknown_node_fails():
    topo = Topology.from_edges(2, [(0, 1)])
    events = (DynamicEvent(1, "remove_node", (7,)),)
    engine, _ = make_engine(topo, events=events)
    with pytest.raises(ConfigError):
        engine.run_slots(16)


def test_events_in_one_period_apply_in_file_order():
    topo = Topology.from_edges(2, [(0, 1)])
    events = parse_events("5 add_node 70 0\n5 add_edge 70 1\n")
    engine, _ = make_engine(topo, events=events)
    engine.run_slots(8 * 6 + 1)
    assert engine.adj[70] == {0, 1}
    assert engine.wake_slot[70] == 40


def test_node_removed_and_readded_in_one_period_starts_afresh():
    topo = star(3)
    events = parse_events("2 remove_node 1\n2 add_node 1 0\n")
    # offset Q: the first node 1 queues a beep for slot 16, the event slot
    engine, protos = make_engine(topo, offsets={1: (8,)}, events=events)
    engine.run_slots(8 * 5 + 1)
    assert engine.wake_slot[1] == 16
    assert engine.adj[1] == {0}
    # the re-added node neither fires the old node's beep nor runs twice
    hub = protos[0].heard_periods
    assert hub[2] == ()
    assert hub[4] == (0,)
    assert len(protos[1].heard_periods) == 3


# -- differential check: run_slots skips silent slots, step_slot steps all, and
# both agree with the literal per-slot step of helpers.ReferenceEngine --


class HistoryProtocol:
    """Plans offsets in [0, Q] from everything heard so far, so any
    difference in delivery shows up in later plans and fingerprints."""

    def __init__(self, key, q):
        self.key = key
        self.q = q
        self.heard_periods = []

    def on_period_end(self, heard):
        self.heard_periods.append(heard)
        mix = self.key * 7 + 3 * len(self.heard_periods) + sum(heard) + len(heard)
        first = mix % (self.q + 1)
        if mix % 3 == 0:
            return (first,)
        return (first, (first + 1 + self.key) % (self.q + 1))

    def fingerprint(self):
        return tuple(self.heard_periods)


def logged(engine_cls, topo, q, wake, events):
    """An ``engine_cls`` of :class:`HistoryProtocol` nodes, and the log that
    every protocol call appends its slot, node and resulting state to."""
    rows = []

    def factory(v):
        proto = HistoryProtocol(v, q)
        plan = proto.on_period_end

        def on_period_end(heard):
            offsets = plan(heard)
            rows.append((engine.slot, v, proto.fingerprint()))
            return offsets

        proto.on_period_end = on_period_end
        return proto

    engine = WithEvents(engine_cls(topo, q, factory, wake), events)
    return engine, rows


def recording(engine_cls):
    """``engine_cls`` noting the slot of every ``step_slot`` call."""

    class Recording(engine_cls):
        def __init__(self, *args, **kwargs):
            self.stepped = []
            super().__init__(*args, **kwargs)

        def step_slot(self):
            self.stepped.append(self.slot)
            return super().step_slot()

    return Recording


@st.composite
def engine_cases(draw):
    n = draw(st.integers(min_value=2, max_value=7))
    q = draw(st.integers(min_value=3, max_value=16))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    schedule = draw(st.sampled_from(("explicit", "simultaneous", "random", "stagger")))
    if schedule == "explicit":
        # late wake slots included: up to three periods in
        wake = {v: draw(st.integers(min_value=0, max_value=3 * q)) for v in range(n)}
    else:
        if schedule == "stagger":
            schedule = f"stagger:{draw(st.integers(min_value=0, max_value=q))}"
        stream = rngmod.stream(draw(st.integers(min_value=0, max_value=2**16)), "wakeup")
        wake = build_wakeup(schedule, tuple(range(n)), q, stream)
    node = st.integers(min_value=0, max_value=n + 1)
    candidates = draw(st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=6),
            st.sampled_from(("add_node", "remove_node", "add_edge", "remove_edge")),
            node, node, st.lists(node, max_size=2),
        ),
        max_size=8,
    ))
    events = []
    for period, kind, a, b, rest in candidates:
        nodes = {"add_node": (a, *rest), "remove_node": (a,)}.get(kind, (a, b))
        events.append(DynamicEvent(period, kind, nodes))
    # a node removed and re-added under its id, in the same period or later
    readds = draw(st.lists(
        st.tuples(st.integers(min_value=0, max_value=6), node,
                  st.integers(min_value=0, max_value=2), st.lists(node, max_size=2)),
        max_size=2,
    ))
    for period, v, gap, neighbors in readds:
        events.append(DynamicEvent(period, "remove_node", (v,)))
        events.append(DynamicEvent(period + gap, "add_node", (v, *neighbors)))
    chunks = draw(st.lists(st.integers(min_value=0, max_value=3 * q), min_size=1, max_size=8))
    return Topology.from_edges(n, edges), q, wake, events, chunks


@settings(max_examples=200, deadline=None, derandomize=True)
@given(engine_cases())
def test_run_slots_matches_stepping_every_slot(case):
    topo, q, wake, candidates, chunks = case
    events = valid_events(topo, candidates)

    def build(engine_cls):
        return logged(engine_cls, topo, q, wake, events)

    skipping, skip_log = build(recording(DiscreteEngine))
    ref_skipping, _ = build(recording(ReferenceEngine))
    stepping, step_log = build(DiscreteEngine)
    reference, ref_log = build(ReferenceEngine)
    for k in chunks:
        skipping.run_slots(k)
        ref_skipping.run_slots(k)
        assert skipping.stepped == ref_skipping.stepped
        outs = []
        for _ in range(k):
            out = stepping.step_slot()
            assert out == reference.step_slot()
            outs.append(out)
            # listener rule: v hears iff an awake neighbour beeps and v does not
            assert not out.beeped & out.heard
            assert out.beeped <= set(stepping.adj)
            expected = {
                v for v in stepping.adj
                if out.slot >= stepping.wake_slot[v] and v not in out.beeped
                and stepping.adj[v] & out.beeped
            }
            assert out.heard == expected
            assert set(stepping.adj) == set(reference.adj)
            assert stepping.reported == reference.reported
            for v in reference.adj:
                assert stepping.pending_phases(v) == reference.pending_phases(v)
                assert stepping.fingerprint(v) == reference.fingerprint(v)
        # every slot run_slots skipped is silent
        stepped = set(skipping.stepped)
        assert not any(out.beeped or out.heard for out in outs if out.slot not in stepped)
        for engine, log in ((skipping, skip_log), (stepping, step_log)):
            assert engine.slot == reference.slot
            assert engine.reported == reference.reported
            assert set(engine.adj) == set(reference.adj)
            for v in reference.adj:
                assert engine.fingerprint(v) == reference.fingerprint(v)
            assert log == ref_log
