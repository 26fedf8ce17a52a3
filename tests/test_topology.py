"""Graphs, generators, and input file parsing."""

import numpy as np
import pytest
from helpers import gnp_reference, max_neighborhood_degree, random_regular_reference
from hypothesis import given, settings, strategies as st

from beepsim import rng
from beepsim.analysis import validate_interval_coloring
from beepsim.config import SimConfig
from beepsim.errors import ConfigError
from beepsim.runner import run_jitterjump_trial
from beepsim.topology import (
    DynamicEvent,
    Topology,
    build_wakeup,
    clique,
    cycle_of_blocks,
    gnp,
    parse_edge_list,
    parse_events,
    parse_graph_spec,
    parse_wakeup,
    random_regular,
    star,
    twin_pairs,
)


def test_basic_mutation_and_queries():
    t = Topology.from_edges(4, [(0, 1), (1, 2)])
    assert t.n == 4
    assert t.delta == 2
    assert t.degree(3) == 0
    assert 0 in t.neighbors(1)
    t.add_edge(2, 3)
    t.remove_edge(0, 1)
    assert 1 not in t.neighbors(0)
    t.remove_node(1)
    assert t.nodes == (0, 2, 3)


def test_self_loops_and_duplicates_rejected():
    t = Topology.from_edges(3, [(0, 1)])
    with pytest.raises(ConfigError):
        t.add_edge(1, 1)
    with pytest.raises(ConfigError):
        t.add_edge(0, 1)
    with pytest.raises(ConfigError):
        t.remove_edge(0, 2)
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


def _assert_arrays_match(t):
    view = t.arrays
    assert view.nodes.tolist() == list(t.nodes)
    assert list(zip(view.u.tolist(), view.v.tolist())) == t.edges()
    assert (view.nodes[view.src] == view.u).all() and (view.nodes[view.dst] == view.v).all()
    assert view.degree.tolist() == [t.degree(v) for v in t.nodes]
    assert view.dmax.tolist() == [max_neighborhood_degree(t, v) for v in t.nodes]
    assert all(arr.dtype == np.int64 and not arr.flags.writeable for arr in view)


@pytest.mark.parametrize("seed", range(4))
def test_arrays_match_the_adjacency_map(seed):
    g = gnp(40, 0.15, rng.stream(seed, "arrays"))
    _assert_arrays_match(g)
    for v in (3, 17, 39):  # non-contiguous ids
        g.remove_node(v)
    g.add_node(57, [0, 1, 2])
    _assert_arrays_match(g)
    _assert_arrays_match(Topology.from_edges(0, []))
    _assert_arrays_match(Topology.from_edges(3, []))


def test_every_mutation_drops_the_arrays():
    t = Topology.from_edges(4, [(0, 1), (1, 2)])
    mutations = [
        lambda g: g.add_node(9, [3]),
        lambda g: g.remove_node(0),
        lambda g: g.add_edge(2, 3),
        lambda g: g.remove_edge(1, 2),
    ]
    for mutate in mutations:
        before = t.arrays
        mutate(t)
        assert t.arrays is not before
        _assert_arrays_match(t)
    cached = t.arrays
    twin = t.copy()
    twin.add_edge(1, 9)
    _assert_arrays_match(twin)
    assert t.arrays is cached  # the original is untouched
    _assert_arrays_match(t)


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
    """Equal node sets, and each node's neighbors in the same iteration order."""
    assert fast.nodes == slow.nodes
    assert all(list(fast.neighbors(v)) == list(slow.neighbors(v)) for v in fast.nodes)


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
    for b, c in twin_pairs(k):
        closed_b = g.neighbors(b) | {b}
        closed_c = g.neighbors(c) | {c}
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
    """Everything a topology answers without walking a neighbour set."""
    return (t.n, t.nodes, t.delta, [t.degree(v) for v in t.nodes], t.edges(),
            [(arr.dtype, arr.flags.writeable, arr.tolist()) for arr in t.arrays])


def _neighbour_order(t):
    return [list(t.neighbors(v)) for v in t.nodes]


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
def mutations(draw, n):
    """One of the four mutations, with arguments that may be invalid."""
    ids = st.integers(0, n + 1)
    kind = draw(st.sampled_from(["add_node", "remove_node", "add_edge", "remove_edge"]))
    if kind == "add_node":
        return kind, (draw(ids), draw(st.lists(ids, unique=True, max_size=3)))
    if kind == "remove_node":
        return kind, (draw(ids),)
    return kind, (draw(ids), draw(ids))


def _apply(t, mutation):
    """The mutation's error message, or None once it is applied."""
    kind, args = mutation
    try:
        getattr(t, kind)(*args)
    except ConfigError as exc:
        return str(exc)
    return None


@settings(max_examples=150, deadline=None, derandomize=True)
@given(generated_graphs(), st.data())
def test_generator_arrays_match_the_same_edges_added_one_by_one(build, data):
    fast = build()
    view = fast.arrays
    edges = list(zip(view.u.tolist(), view.v.tolist()))
    slow = Topology.from_edges(fast.n, edges)
    assert _answers(fast) == _answers(slow)
    assert fast._adj is None  # answered from the arrays
    assert _neighbour_order(fast) == _neighbour_order(slow)
    assert _answers(fast) == _answers(slow)  # and the same once the map is built

    # a copy shares the arrays and builds its own map when first mutated
    mutation = data.draw(mutations(fast.n))
    original = build()
    for fresh in (build(), original.copy()):
        twin = Topology.from_edges(fast.n, edges)
        assert _apply(fresh, mutation) == _apply(twin, mutation)
        assert _answers(fresh) == _answers(twin)
        assert _neighbour_order(fresh) == _neighbour_order(twin)
    assert original._adj is None
    assert _answers(original) == _answers(slow)
    assert _neighbour_order(original) == _neighbour_order(slow)


@pytest.mark.parametrize("build", [
    lambda: random_regular(256, 4, rng.stream(3, "lazy")),
    lambda: gnp(64, 0.1, rng.stream(3, "lazy")),
])
def test_static_array_run_never_builds_the_adjacency_map(build):
    topo = build()
    result = run_jitterjump_trial(topo, SimConfig(master_seed=3), seed_key=("lazy",))
    assert result.topology is topo  # the array path ran
    assert not validate_interval_coloring(result.snapshot, topo).violations
    twin = topo.copy()
    assert _answers(twin) == _answers(topo)
    assert twin.arrays is topo.arrays
    assert topo._adj is None and twin._adj is None
