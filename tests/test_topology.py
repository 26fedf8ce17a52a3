"""Graphs, generators, and input file parsing."""

import pytest
from helpers import gnp_reference, random_regular_reference

from beepsim import rng
from beepsim.errors import ConfigError
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
    assert t.has_edge(1, 0)
    t.add_edge(2, 3)
    t.remove_edge(0, 1)
    assert not t.has_edge(0, 1)
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


def test_max_neighborhood_degree():
    t = star(5)
    assert t.max_neighborhood_degree(0) == 4
    assert t.max_neighborhood_degree(1) == 4
    isolated = Topology.from_edges(1, [])
    assert isolated.max_neighborhood_degree(0) == 0


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
