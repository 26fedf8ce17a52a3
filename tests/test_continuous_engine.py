"""Event-driven engine: windows, delivery, frame conversion, ties.

Times are in units of the period T = 1, and are dyadic fractions so that
sums and phases compare exactly.
"""

import pytest

from beepsim.continuous import CONTINUOUS_PERIOD, Beep, ContinuousEngine, Listen, Rebase
from beepsim.topology import Topology


class Script:
    """Runs a fixed list of commands, then listens forever in period chunks."""

    def __init__(self, commands):
        self.commands = commands
        self.results = []

    def run(self):
        for cmd in self.commands:
            got = yield cmd
            if isinstance(cmd, Listen):
                self.results.append(got)
        while True:
            got = yield Listen(CONTINUOUS_PERIOD)
            self.results.append(got)


def build(topology, scripts, wake=None):
    wake = wake or {v: 0.0 for v in topology.nodes}
    protos = {}

    def factory(v):
        protos[v] = Script(scripts.get(v, []))
        return protos[v]

    engine = ContinuousEngine(topology, factory, wake)
    return engine, protos


def test_beep_delivered_at_listener_local_phase():
    # u beeps at t=0.25; v's origin is 0.125, so v records phase 0.125.
    topo = Topology.from_edges(2, [(0, 1)])
    engine, protos = build(
        topo,
        {
            0: [Listen(0.25), Beep()],
            1: [Listen(0.125), Rebase(), Listen(1.0)],
        },
    )
    engine.run_until(2.0)
    assert protos[1].results[1] == (0.125,)


def test_beeping_node_misses_concurrent_beep():
    topo = Topology.from_edges(2, [(0, 1)])
    engine, protos = build(
        topo,
        {0: [Listen(0.375), Beep()], 1: [Listen(0.375), Beep()]},
    )
    engine.run_until(2.0)
    # both beeped at t=0.375 while not listening: neither heard anything
    assert protos[0].results[1] == ()
    assert protos[1].results[1] == ()


def test_listen_zero_hears_nothing():
    topo = Topology.from_edges(2, [(0, 1)])
    engine, protos = build(topo, {0: [Listen(0.0)], 1: [Beep()]})
    engine.run_until(0.5)
    assert protos[0].results[0] == ()


def test_silent_neighborhood_full_period():
    topo = Topology.from_edges(2, [(0, 1)])
    engine, protos = build(topo, {0: [Listen(1.0)]})
    engine.run_until(1.0)
    assert protos[0].results[0] == ()


def test_window_is_closed_open():
    # A beep exactly at a window's end belongs to the next listen.
    topo = Topology.from_edges(2, [(0, 1)])
    engine, protos = build(
        topo,
        {
            0: [Listen(0.5), Listen(0.5)],
            1: [Listen(0.5), Beep()],
        },
    )
    engine.run_until(1.25)
    assert protos[0].results[0] == ()
    assert protos[0].results[1] == (0.5,)


def test_beep_at_wake_instant_is_heard():
    topo = Topology.from_edges(2, [(0, 1)])
    engine, protos = build(
        topo,
        {0: [Listen(0.5)], 1: [Beep()]},
        wake={0: 0.0, 1: 0.0},
    )
    engine.run_until(0.625)
    assert protos[0].results[0] == (0.0,)


def test_identical_beep_times_counted_and_both_delivered():
    # two scripted sources beep at the same instant; the listener hears the
    # phase and the tie counter records the coincidence
    topo = Topology.from_edges(3, [(0, 2), (1, 2)])
    engine, protos = build(
        topo,
        {
            0: [Listen(0.375), Beep()],
            1: [Listen(0.375), Beep()],
            2: [Listen(1.0)],
        },
    )
    engine.run_until(1.0)
    assert engine.tie_collisions == 1
    assert protos[2].results[0] == (0.375,)


def test_stable_neighbor_heard_at_constant_phase():
    topo = Topology.from_edges(2, [(0, 1)])
    engine, protos = build(
        topo,
        {0: [Listen(0.25), Beep(), Listen(0.75), Listen(0.25), Beep(), Listen(0.75),
             Listen(0.25), Beep(), Listen(0.75)]},
    )
    engine.run_until(4.0)
    heard = [r for r in protos[1].results if r]
    assert heard[0] == (0.25,)
    assert all(r == (0.25,) for r in heard)


def test_event_order_is_deterministic():
    topo = Topology.from_edges(3, [(0, 1), (1, 2)])
    scripts = {
        0: [Listen(0.125), Beep(), Listen(0.5)],
        2: [Listen(0.125), Beep(), Listen(0.5)],
    }
    e1, p1 = build(topo, scripts)
    e1.run_until(1.5)
    e2, p2 = build(topo, scripts)
    e2.run_until(1.5)
    assert p1[1].results == p2[1].results
    assert e1.tie_collisions == e2.tie_collisions


def test_theta_reports_rebased_origin():
    topo = Topology.from_edges(1, [])
    engine, _ = build(topo, {0: [Listen(0.375), Rebase(), Listen(1.0)]})
    engine.run_until(0.5)
    assert engine.theta(0) == pytest.approx(0.375)
