"""Graphs, generators, and input file parsing."""

from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from helpers import apply_event, gnp_reference, max_neighborhood_degree, random_regular_reference
from hypothesis import given, settings, strategies as st

from beepsim import rng
from beepsim.analysis import validate_interval_coloring
from beepsim.config import SimConfig
from beepsim.discrete import DiscreteEngine
from beepsim.errors import ConfigError
from beepsim.runner import run_jitterjump_trial
from beepsim.topology import (
    DynamicEvent,
    Topology,
    build_wakeup,
    clique,
    cycle_of_blocks,
    gnp,
    link,
    parse_edge_list,
    parse_events,
    parse_graph_spec,
    parse_wakeup,
    random_regular,
    star,
    twin_pairs,
)


def test_self_loops_and_duplicates_rejected():
    adj = Topology.from_edges(3, [(0, 1)]).adjacency()
    with pytest.raises(ConfigError, match="self-loops"):
        link(adj, 1, 1)
    with pytest.raises(ConfigError, match=r"edge \(1, 0\) already exists"):
        link(adj, 1, 0)
    link(adj, 2, 1)
    assert adj == {0: {1}, 1: {0, 2}, 2: {1}}
    with pytest.raises(ConfigError, match="self-loops"):
        Topology.from_edges(3, [(2, 2)])
    with pytest.raises(ConfigError, match="already exists"):
        Topology.from_edges(3, [(0, 1), (1, 0)])
    with pytest.raises(ConfigError, match="unknown node"):
        Topology.from_edges(3, [(0, 5)])  # endpoints must lie in range(n)


def test_max_neighborhood_degree():
    t = star(5)
    assert max_neighborhood_degree(t, 0) == 4
    assert max_neighborhood_degree(t, 1) == 4
    isolated = Topology.from_edges(1, [])
    assert max_neighborhood_degree(isolated, 0) == 0
    assert t.arrays.dmax.tolist() == [4] * 5
    assert isolated.arrays.dmax.tolist() == [0]


def _assert_arrays_match(t, adj):
    """``t`` holds the graph of the adjacency map ``adj``, one node and one
    neighbour at a time."""
    ids = sorted(adj)
    view = t.arrays
    assert view.nodes.tolist() == ids == list(t.nodes) and t.n == len(ids)
    assert t.edges() == sorted((u, v) for u in ids for v in adj[u] if u < v)
    assert list(zip(view.u.tolist(), view.v.tolist())) == t.edges()
    assert (view.nodes[view.src] == view.u).all() and (view.nodes[view.dst] == view.v).all()
    assert view.degree.tolist() == [len(adj[v]) for v in ids] == [t.degree(v) for v in ids]
    assert t.delta == max(map(len, adj.values()), default=0)
    dmax = [max([len(adj[v])] + [len(adj[u]) for u in adj[v]]) for v in ids]
    assert view.dmax.tolist() == dmax == [max_neighborhood_degree(t, v) for v in ids]
    assert all(arr.dtype == np.int64 and not arr.flags.writeable for arr in view)
    assert t.adjacency() == adj and t.adjacency() is not t.adjacency()


@pytest.mark.parametrize("seed", range(4))
def test_arrays_match_the_adjacency_map(seed):
    g = gnp(40, 0.15, rng.stream(seed, "arrays"))
    adj = g.adjacency()
    _assert_arrays_match(g, adj)
    for v in (3, 17, 39):  # non-contiguous ids
        for u in adj.pop(v):
            adj[u].discard(v)
    adj[57] = set()
    for u in (2, 0, 1):
        link(adj, 57, u)
    t = Topology.from_adjacency(adj)
    _assert_arrays_match(t, adj)
    assert t.degree(57) == 3
    for unknown in (3, 39, 58, -1):
        with pytest.raises(KeyError):
            t.degree(unknown)
    _assert_arrays_match(Topology.from_edges(0, []), {})
    _assert_arrays_match(Topology.from_edges(3, []), {0: set(), 1: set(), 2: set()})
    _assert_arrays_match(Topology.from_adjacency({}), {})


QUIET = SimpleNamespace(on_period_end=lambda heard: ())


def _engine(t, q=8, events=()):
    """A :class:`DiscreteEngine` of silent nodes on ``t``, all awake at slot 0."""
    return DiscreteEngine(t, q, lambda v: QUIET, {v: 0 for v in t.nodes}, events=events)


def test_every_mutation_drops_the_arrays():
    # the engine rebuilds its topology after each event it applies to its
    # own map, and the topology it was given stays as it was
    t = Topology.from_edges(4, [(0, 1), (1, 2)])
    given_arrays = t.arrays
    before = [arr.tolist() for arr in given_arrays]
    events = parse_events("1 add_node 9 3\n2 remove_node 0\n3 add_edge 2 3\n"
                          "4 remove_edge 1 2\n")
    engine = _engine(t, events=events)
    engine.run_slots(1)
    assert engine.topology is t
    expected = t.adjacency()
    for ev in events:
        old = engine.topology
        engine.run_slots(8)  # its last slot is the boundary that applies ev
        apply_event(expected, ev)
        assert engine.adj == expected
        assert engine.topology is not old
        assert engine.topology is engine.topology  # built once per change
        _assert_arrays_match(engine.topology, expected)
    assert t.arrays is given_arrays
    assert [arr.tolist() for arr in t.arrays] == before


def test_gnp_bounds_and_determinism():
    g1 = gnp(30, 0.2, rng.stream(7, "topology"))
    g2 = gnp(30, 0.2, rng.stream(7, "topology"))
    assert g1.edges() == g2.edges()
    assert g1.n == 30


def test_random_regular_is_regular():
    g = random_regular(24, 4, rng.stream(3, "topology"))
    assert all(g.degree(v) == 4 for v in g.nodes)
    with pytest.raises(ConfigError):
        random_regular(5, 3, rng.stream(1, "topology"))  # odd degree sum


def same_graph(fast, slow):
    """Equal nodes and edges, in the same order."""
    assert fast.nodes == slow.nodes
    assert fast.edges() == slow.edges()


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("n,p", [(1, 0.5), (2, 0.5), (9, 0.0), (9, 1.0), (40, 0.1),
                                 (64, 0.1), (150, 0.03)])
def test_gnp_matches_pairwise_reference(seed, n, p):
    fast_rng, slow_rng = rng.stream(seed, "gnp"), rng.stream(seed, "gnp")
    same_graph(gnp(n, p, fast_rng), gnp_reference(n, p, slow_rng))
    assert fast_rng.random() == slow_rng.random()  # the stream is left in the same place


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("n,d", [(1, 0), (6, 0), (4, 3), (10, 3), (24, 4), (64, 4),
                                 (300, 4), (20, 5)])
def test_random_regular_matches_pairwise_reference(seed, n, d):
    fast_rng, slow_rng = rng.stream(seed, "rr"), rng.stream(seed, "rr")
    same_graph(random_regular(n, d, fast_rng), random_regular_reference(n, d, slow_rng))
    assert fast_rng.random() == slow_rng.random()


def test_random_regular_without_a_graph_is_config_error():
    for n, d in ((5, 3), (7, 1), (4, 4), (3, -1)):
        with pytest.raises(ConfigError, match=f"no {d}-regular graph on {n} nodes"):
            random_regular(n, d, rng.stream(1, "rr"))


def test_star_and_clique():
    s = star(6)
    assert s.degree(0) == 5
    assert all(s.degree(v) == 1 for v in range(1, 6))
    c = clique(5)
    assert all(c.degree(v) == 4 for v in c.nodes)


def test_cycle_of_blocks_counts():
    g = cycle_of_blocks(2)
    assert g.n == 8
    assert len(g.edges()) == 12


def test_cycle_of_blocks_twins_share_closed_neighborhood():
    k = 5
    g = cycle_of_blocks(k)
    adj = g.adjacency()
    for b, c in twin_pairs(k):
        closed_b = adj[b] | {b}
        closed_c = adj[c] | {c}
        assert closed_b == closed_c
        block = b // 4
        assert closed_b == {4 * block, 4 * block + 1, 4 * block + 2, 4 * block + 3}


def test_cycle_of_blocks_is_three_regular():
    g = cycle_of_blocks(4)
    assert all(g.degree(v) == 3 for v in g.nodes)


def test_edge_list_round_trip():
    g = cycle_of_blocks(3)
    text = "".join(f"{u} {v}\n" for u, v in g.edges())
    back = parse_edge_list(text)
    assert back.edges() == g.edges()


def test_edge_list_comments_and_errors():
    g = parse_edge_list("# comment\n0 1\n\n1 2  # trailing\n")
    assert g.edges() == [(0, 1), (1, 2)]
    with pytest.raises(ConfigError):
        parse_edge_list("0 1 2\n")
    with pytest.raises(ConfigError):
        parse_edge_list("a b\n")


def test_parse_graph_spec():
    g = parse_graph_spec("clique:4", rng.stream(1))
    assert len(g.edges()) == 6
    with pytest.raises(ConfigError):
        parse_graph_spec("mystery:4", rng.stream(1))
    with pytest.raises(ConfigError, match="unknown graph generator"):
        parse_graph_spec("cycle_of_blocks:4", rng.stream(1))  # hyphenated names only
    with pytest.raises(ConfigError):
        parse_graph_spec("gnp:4", rng.stream(1))


def test_events_parsing_sorts_and_validates():
    events = parse_events("20 remove_edge 0 5\n10 add_node 9 0 1\n")
    assert [e.at_period for e in events] == [10, 20]
    assert events[0].kind == "add_node"
    with pytest.raises(ConfigError):
        parse_events("5 explode 1\n")
    with pytest.raises(ConfigError):
        parse_events("5 add_edge 1\n")
    with pytest.raises(ConfigError):
        DynamicEvent(-1, "remove_node", (0,))


def test_wakeup_parsing_and_builders():
    table = parse_wakeup("0 3\n1 0\n")
    assert table == {0: 3, 1: 0}
    nodes = (0, 1, 2)
    assert build_wakeup("simultaneous", nodes, 16, rng.stream(1)) == {0: 0, 1: 0, 2: 0}
    rand = build_wakeup("random", nodes, 16, rng.stream(1))
    assert all(0 <= s < 16 for s in rand.values())
    stag = build_wakeup("stagger:4", nodes, 16, rng.stream(1))
    assert stag == {0: 0, 1: 4, 2: 8}
    with pytest.raises(ConfigError):
        build_wakeup("never", nodes, 16, rng.stream(1))
    with pytest.raises(ConfigError, match=r"wakeup line 3: node 0 is listed twice"):
        parse_wakeup("0 5\n# comment\n0 7\n")
    # nodes outside the graph stay allowed: one file serves a --n sweep
    assert parse_wakeup("0 5\n9 7\n") == {0: 5, 9: 7}


def test_wakeup_builder_serves_the_continuous_model():
    nodes = (0, 1, 2)
    rand = build_wakeup("random", nodes, 1.0, rng.stream(1))
    assert all(isinstance(t, float) and 0.0 <= t < 1.0 for t in rand.values())
    assert build_wakeup("stagger:2", nodes, 1.0, rng.stream(1)) == {0: 0.0, 1: 2.0, 2: 4.0}
    assert build_wakeup("simultaneous", nodes, 1.0, rng.stream(1)) == {0: 0.0, 1: 0.0, 2: 0.0}


@pytest.mark.parametrize("period", [1, 64, 8192, 1.0])
def test_random_wakeup_equals_one_scalar_draw_per_node(period):
    nodes = (0, 2, 3, 7, 11) + tuple(range(20, 200))
    batch, scalar = rng.stream(5, "wakeup"), rng.stream(5, "wakeup")
    wake = build_wakeup("random", nodes, period, batch)
    if isinstance(period, int):
        expected = {v: int(scalar.integers(0, period)) for v in nodes}
    else:
        expected = {v: float(scalar.uniform(0.0, period)) for v in nodes}
    assert list(wake.items()) == list(expected.items())
    assert all(type(t) is type(period) for t in wake.values())
    assert batch.integers(2**62) == scalar.integers(2**62)  # the streams stay in step


# -- generator output held as arrays, against the same edges added one by one --


def _answers(t):
    """Everything a topology answers, and its adjacency map with each
    node's neighbours in iteration order."""
    return (t.n, t.nodes, t.delta, [t.degree(v) for v in t.nodes], t.edges(),
            [(arr.dtype, arr.flags.writeable, arr.tolist()) for arr in t.arrays],
            [(v, list(nbrs)) for v, nbrs in t.adjacency().items()])


@st.composite
def generated_graphs(draw):
    """A builder of one ``gnp`` or ``random_regular`` graph, callable again
    for a fresh copy of the same graph."""
    seed = draw(st.integers(0, 2**16))
    if draw(st.booleans()):
        n = draw(st.integers(1, 30))
        p = draw(st.sampled_from([0.0, 0.05, 0.2, 0.5, 1.0]))
        return lambda: gnp(n, p, rng.stream(seed, "diff"))
    d = draw(st.integers(0, 4))  # the pairing model rejects most tries above
    n = draw(st.integers(max(1, 2 * d + 2), 30))
    n += n * d % 2
    return lambda: random_regular(n, d, rng.stream(seed, "diff"))


@st.composite
def events(draw, n):
    """One event of each of the four kinds at period 1, with arguments that
    may be invalid."""
    ids = st.integers(0, n + 1)
    kind = draw(st.sampled_from(["add_node", "remove_node", "add_edge", "remove_edge"]))
    if kind == "add_node":
        nodes = (draw(ids), *draw(st.lists(ids, unique=True, max_size=3)))
    elif kind == "remove_node":
        nodes = (draw(ids),)
    else:
        nodes = (draw(ids), draw(ids))
    return DynamicEvent(1, kind, nodes)


def _applied(t, ev):
    """The error the engine reports for ``ev`` on ``t``, or else the
    engine's map and topology once it is applied."""
    engine = _engine(t, events=(ev,))
    try:
        engine.run_slots(8 + 1)
    except ConfigError as exc:
        return str(exc)
    return engine.adj, _answers(engine.topology)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(generated_graphs(), st.data())
def test_generator_arrays_match_the_same_edges_added_one_by_one(build, data):
    fast = build()
    view = fast.arrays
    edges = list(zip(view.u.tolist(), view.v.tolist()))
    slow = Topology.from_edges(fast.n, edges)
    assert _answers(fast) == _answers(slow)

    # the engine applies an event to its own map alike on either graph,
    # and leaves the graph it was given as it was
    ev = data.draw(events(fast.n))
    outcome = _applied(fast, ev)
    assert outcome == _applied(slow, ev)
    expected = fast.adjacency()
    try:
        apply_event(expected, ev)
    except ConfigError:
        assert isinstance(outcome, str)
    else:
        assert outcome[0] == expected
        assert outcome[1] == _answers(Topology.from_adjacency(expected))
    assert _answers(fast) == _answers(build()) == _answers(slow)


@pytest.mark.parametrize("build", [
    lambda: random_regular(256, 4, rng.stream(3, "lazy")),
    lambda: gnp(64, 0.1, rng.stream(3, "lazy")),
])
def test_static_array_run_never_builds_the_adjacency_map(build):
    topo = build()
    with mock.patch.object(Topology, "adjacency", side_effect=AssertionError("map built")):
        result = run_jitterjump_trial(topo, SimConfig(master_seed=3), seed_key=("lazy",))
    assert result.topology is topo  # the array path ran
    assert not validate_interval_coloring(result.snapshot, topo).violations


def test_dynamic_run_leaves_its_input_topology_unchanged():
    topo = star(17)
    given_arrays = topo.arrays
    before = _answers(topo)
    evs = parse_events("3 remove_node 5\n3 add_edge 1 2\n6 add_node 40 0 1\n"
                       "6 remove_edge 0 7\n")
    cfg = SimConfig(master_seed=8, dynamic=True, r=4, max_periods=10)
    result = run_jitterjump_trial(topo, cfg, seed_key=("value",), events=evs)
    assert topo.arrays is given_arrays and _answers(topo) == before
    expected = topo.adjacency()
    for ev in evs:
        apply_event(expected, ev)
    assert _answers(result.topology) == _answers(Topology.from_adjacency(expected))
    assert result.topology.nodes == tuple(sorted(expected))
