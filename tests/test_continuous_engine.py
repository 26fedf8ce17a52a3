"""Event-driven engine: windows, delivery, frame conversion, ties.

Times are in units of the period T = 1, and are dyadic fractions so that
sums and phases compare exactly.
"""

import pytest
from helpers import edge_list, record_beeps
from hypothesis import given, settings, strategies as st

from beepsim.continuous import CONTINUOUS_PERIOD, Beep, ContinuousEngine, Cycle, Listen, Rebase
from beepsim.errors import ConfigError
from beepsim.phases import PhaseSet
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


def cycle_with_neighbors(neighbor_scripts, run_to):
    """Node 1 cycles from t=0 (listen 0.25, listen 0.75, beep); nodes 0 and 2
    are its neighbors, node 3 hangs off node 2 and only listens."""
    topo = Topology.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    scripts = {1: [Cycle(0.25, 0.75)], **neighbor_scripts}
    engine, protos = build(topo, scripts)
    beeps = record_beeps(engine)
    engine.run_until(run_to)
    return engine, protos, beeps


def test_cycle_beeps_at_the_end_of_each_window():
    _, protos, beeps = cycle_with_neighbors({}, 3.0)
    assert beeps[1] == [1.0, 2.0, 3.0]
    assert protos[1].results == []  # never resumed after the cycle
    assert protos[0].results == [(), (0.0,), (0.0,)]


def test_cycle_hears_a_beep_at_now_plus_first():
    # the two listens are one window: the instant between them is inside it
    engine, _, _ = cycle_with_neighbors({0: [Listen(0.25), Beep()]}, 1.0)
    assert engine.heard_log(1) == (0.25,)


def test_cycle_misses_beeps_at_its_own_beep_instant():
    # node 0 beeps at 1.0 just before node 1 (lower id), node 2 just after
    engine, _, beeps = cycle_with_neighbors(
        {0: [Listen(1.0), Beep()], 2: [Listen(1.0), Beep(), Listen(0.5), Beep()]}, 2.0)
    assert beeps[1] == [1.0, 2.0]
    assert engine.heard_log(1) == (1.5,)
    assert engine.tie_collisions == 2


def test_cycle_zero_second_listen_beeps_once_per_period():
    _, _, beeps = cycle_with_neighbors({1: [Listen(0.125), Beep(), Cycle(1.0, 0.0)]}, 3.5)
    assert beeps[1] == [0.125, 1.125, 2.125, 3.125]


def test_cycle_rejects_negative_durations():
    topo = Topology.from_edges(1, [])
    engine, _ = build(topo, {0: [Cycle(0.5, -0.25)]})
    with pytest.raises(ConfigError):
        engine.run_until(1.0)


@pytest.mark.parametrize("wake", [0.0, 2.0**53 - 4])
def test_cycle_that_never_advances_is_rejected(wake):
    # at 2**53 a step of 1.0 is lost to rounding: from 2**53 - 4 the cycle
    # advances four times, then stalls, on the heap path (node 1 listens
    # past the end) and in the fast-forward alike
    topo = Topology.from_edges(2, [(0, 1)])
    start = [Cycle(0.0, 0.0)] if wake == 0.0 else [Cycle(1.0, 0.0)]
    for scripts in ({0: start, 1: [Listen(2.0**60)]}, {0: start, 1: start}):
        engine, _ = build(topo, scripts, wake={0: wake, 1: wake})
        with pytest.raises(ConfigError):
            engine.run_until(wake + 8.0)


class CycleOrLoop:
    """Runs ``prefix``, then "listen ``first``, listen ``second``, beep"
    forever: as one :class:`Cycle`, or written out as a loop the engine
    resumes at every step."""

    def __init__(self, prefix, first, second, loop):
        self.prefix, self.first, self.second, self.loop = prefix, first, second, loop

    def run(self):
        for cmd in self.prefix:
            yield cmd
        if not self.loop:
            yield Cycle(self.first, self.second)
        while True:
            yield Listen(self.first)
            yield Listen(self.second)
            yield Beep()


eighths = st.integers(min_value=0, max_value=12).map(lambda k: k / 8)


@st.composite
def cycling_graphs(draw):
    """A small graph whose nodes all end up cycling, each after a beep or a
    listen; dyadic times make coincident beeps common, 0.3 + 0.7 adds
    float drift, and the run ends in one to three increments."""
    n = draw(st.integers(min_value=1, max_value=6))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = [e for e in pairs if draw(st.booleans())]
    nodes = []
    for _ in range(n):
        prefix = [Listen(draw(eighths))]
        if draw(st.booleans()):
            prefix.append(Beep())
        cycle = draw(st.sampled_from([(0.25, 0.75), (0.5, 0.5), (0.375, 0.125), (0.3, 0.7),
                                      (1.0, 0.0), (0.0, 1.0), (0.75, 0.75)]))
        nodes.append((draw(eighths), prefix, cycle))
    ends = sorted(draw(st.lists(st.integers(min_value=0, max_value=64), min_size=0,
                                max_size=2)))
    return Topology.from_edges(n, edges), nodes, [k / 8 for k in ends] + [8.5]


def cycle_or_loop_engine(topo, nodes, loop, idle=False):
    """The engine running ``nodes``; with ``idle``, one more node without
    edges listens forever, so the engine never fast-forwards."""
    if idle:
        topo = Topology.from_edges(topo.n + 1, edge_list(topo))

    def factory(v):
        if v == len(nodes):
            return Script([])
        _, prefix, (first, second) = nodes[v]
        return CycleOrLoop(prefix, first, second, loop)

    engine = ContinuousEngine(topo, factory, {v: wake for v, (wake, _, _) in enumerate(nodes)})
    return engine, record_beeps(engine)


def node_state(engine, v):
    node = engine._nodes[v]
    pending = [entry for entry in engine._heap if entry[2] == v]
    return node.last_beep, node.win_start, node.win_end, node.cycle, pending


@settings(max_examples=150, deadline=None, derandomize=True)
@given(cycling_graphs())
def test_fast_forward_matches_the_listen_listen_beep_loop(case):
    topo, nodes, ends = case
    (cyc, cyc_beeps), (ref, ref_beeps), (heap, _) = (
        cycle_or_loop_engine(topo, nodes, loop, idle)
        for loop, idle in ((False, False), (True, False), (False, True)))
    for t_end in ends:
        for engine in (cyc, ref, heap):
            engine.run_until(t_end)
        assert cyc_beeps == ref_beeps
        assert cyc.tie_collisions == ref.tie_collisions
        assert cyc.now == ref.now
        for v in topo.nodes:
            assert cyc.heard_log(v) == ref.heard_log(v)
            # each node's last beep, window and heap entry as the heap path leaves them
            assert node_state(cyc, v) == node_state(heap, v)
    assert cyc._stretches  # the cycling engine did fast-forward
    assert not ref._stretches and not heap._stretches


def test_fast_forward_starts_amid_coincident_beeps():
    # node 0 settles last, at t=0.5, with its beep tied to node 2's; then
    # nodes 1 and 2 keep beeping at the same instants inside the stretch
    topo = Topology.from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    nodes = [(0.0, [Listen(0.5), Beep()], (0.5, 0.5)),
             (0.0, [Listen(0.25)], (0.5, 0.75)),
             (0.0, [Listen(0.0), Beep()], (0.25, 0.25)),
             (0.0, [Listen(0.0)], (0.25, 1.0))]
    (cyc, cyc_beeps), (ref, ref_beeps) = (cycle_or_loop_engine(topo, nodes, loop)
                                          for loop in (False, True))
    for t_end in (0.5, 3.0, 5.25):
        cyc.run_until(t_end)
        ref.run_until(t_end)
    assert cyc_beeps == ref_beeps
    assert cyc.tie_collisions == ref.tie_collisions >= 4
    assert [cyc.heard_log(v) for v in topo.nodes] == [ref.heard_log(v) for v in topo.nodes]
    # node 2's beep at 0.5 came after node 0 settled, and node 0 missed it
    assert cyc._stretches[0][0][0] == 0.5
    assert 0.5 not in cyc.heard_log(0)


def test_negative_wake_time_is_rejected():
    topo = Topology.from_edges(2, [(0, 1)])
    with pytest.raises(ConfigError, match="wake times must be nonnegative"):
        build(topo, {}, wake={0: 0.0, 1: -0.5})


@st.composite
def listening_graphs(draw):
    """A small graph whose nodes listen, beep and rebase at non-dyadic
    times, so that beep phases carry float rounding and may repeat."""
    n = draw(st.integers(min_value=2, max_value=6))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = [e for e in pairs if draw(st.booleans())]
    times = st.one_of(st.floats(min_value=0.0, max_value=1.5), st.sampled_from([0.1, 0.3, 0.7]))
    command = st.one_of(times.map(Listen), st.just(Beep()), st.just(Rebase()))
    scripts = {v: draw(st.lists(command, max_size=10)) for v in range(n)}
    wake = {v: draw(times) for v in range(n)}
    return Topology.from_edges(n, edges), scripts, wake


@settings(max_examples=100, deadline=None, derandomize=True)
@given(listening_graphs())
def test_listen_resumes_with_reduced_distinct_ascending_phases(case):
    # the contract BeepFirst relies on when it wraps a listen's result as a
    # PhaseSet without reducing it again
    topo, scripts, wake = case
    engine, protos = build(topo, scripts, wake)
    engine.run_until(6.0)
    for proto in protos.values():
        for heard in proto.results:
            assert isinstance(heard, tuple)
            assert all(0.0 <= x < CONTINUOUS_PERIOD for x in heard)
            assert all(x < y for x, y in zip(heard, heard[1:]))
            assert heard == PhaseSet.from_iterable(heard, CONTINUOUS_PERIOD).phases
