"""Validators, classification, and the vertex-coloring reduction."""

import numpy as np
import pytest
from helpers import (
    NodeState,
    classify_good_bad_reference,
    hardness_reduction_reference,
    neighbor_phase_ties_reference,
    node_states,
    snapshot_of,
    symmetric_window_violations_reference,
    validate_interval_coloring_reference,
)
from hypothesis import given, settings, strategies as st

from beepsim.analysis import (
    ColoringSnapshot,
    classify_good_bad,
    fit_log_growth,
    hardness_reduction,
    neighbor_phase_ties,
    symmetric_window_violations,
    validate_interval_coloring,
)
from beepsim.errors import InternalInconsistencyError
from beepsim.topology import Topology


def snap(topology, tau, *triples):
    """A snapshot of ``topology``, whose nodes are 0, 1, ..., one triple
    (phase, interval, colored) each."""
    states = tuple(NodeState(i, p, i_len, colored)
                   for i, (p, i_len, colored) in enumerate(triples))
    return snapshot_of(topology, tau, states)


def test_disjoint_intervals_pass():
    topo = Topology.from_edges(2, [(0, 1)])
    report = validate_interval_coloring(snap(topo, 32, (2, 3, True), (10, 3, True)))
    assert not report.violations
    assert report.pairs_checked == 1


def test_overlapping_intervals_flagged():
    topo = Topology.from_edges(2, [(0, 1)])
    report = validate_interval_coloring(snap(topo, 32, (5, 3, True), (6, 3, True)))
    assert report.violations == ((0, 1),)


def test_wrap_around_interval_overlap_detected():
    topo = Topology.from_edges(2, [(0, 1)])
    # node 0's arc [30, 1] wraps; node 1's arc [0, 4] meets it at 0..1
    report = validate_interval_coloring(snap(topo, 32, (1, 3, True), (4, 4, True)))
    assert report.violations


def test_normalized_interval_metric():
    topo = Topology.from_edges(2, [(0, 1)])
    report = validate_interval_coloring(snap(topo, 32, (2, 2, True), (20, 2, True)), eta=1 / 16)
    # dmax = 1 for both: normalized = 2 * 3 / 2 = 3
    assert report.min_normalized_interval == pytest.approx(3.0)


def test_uncolored_nodes_are_not_checked():
    topo = Topology.from_edges(2, [(0, 1)])
    report = validate_interval_coloring(snap(topo, 32, (5, 3, True), (6, 3, False)))
    assert report.pairs_checked == 0


def test_classification_cases():
    topo = Topology.from_edges(3, [(0, 1), (1, 2)])
    labels = classify_good_bad(snap(topo, 32, (4, 1, True), (6, 1, True), (7, 1, False)))
    assert labels[0] == "good"          # distance 2 from its only neighbor
    assert labels[1] == "bad-colored"   # node 2 sits one slot away
    assert labels[2] == "bad-uncolored"


def test_classification_wraps_and_ignores_phaseless():
    topo = Topology.from_edges(3, [(0, 1), (0, 2)])
    labels = classify_good_bad(snap(topo, 16, (0, 1, True), (15, 1, True), (None, None, False)))
    assert labels[0] == "bad-colored"  # 15 and 0 are adjacent mod 16
    assert labels[2] == "bad-uncolored"
    topo2 = Topology.from_edges(2, [(0, 1)])
    labels2 = classify_good_bad(snap(topo2, 16, (5, 1, True), (None, None, False)))
    assert labels2[0] == "good"  # a neighbor without a phase cannot conflict


def reduce(topology, q, phases, offsets):
    """``hardness_reduction`` on dicts by node id, ``phases`` holding the
    nodes that hold one and ``offsets`` the same nodes; every node's color
    as one dict."""
    nodes = topology.arrays.nodes.tolist()
    snapshot = snapshot_of(topology, q, [NodeState(v, phases.get(v), None, False)
                                         for v in nodes])
    colors = hardness_reduction(snapshot, np.array([offsets.get(v, 0) for v in nodes],
                                                   dtype=snapshot.phase.dtype))
    return dict(zip(nodes, colors.tolist()))


def test_hardness_reduction_examples():
    topo = Topology.from_edges(1, [])
    colors = reduce(topo, 16, {0: 0}, {0: 7})
    assert colors == {0: 7}

    topo2 = Topology.from_edges(2, [(0, 1)])
    colors2 = reduce(topo2, 16, {0: 3, 1: 9}, {0: 0, 1: 0})
    assert colors2[0] != colors2[1]
    assert reduce(topo2, 16, {1: 9}, {1: 2}) == {0: -1, 1: 11}  # -1: no phase, no color


def test_hardness_reduction_rejects_improper_input():
    topo = Topology.from_edges(2, [(0, 1)])
    with pytest.raises(InternalInconsistencyError):
        reduce(topo, 16, {0: 3, 1: 3}, {0: 0, 1: 0})
    # equal colors via offsets also caught
    with pytest.raises(InternalInconsistencyError):
        reduce(topo, 16, {0: 3, 1: 1}, {0: 0, 1: 2})


def test_neighbor_phase_ties_counts_exact_equality():
    topo = Topology.from_edges(2, [(0, 1)])
    assert neighbor_phase_ties(snap(topo, 1.0, (0.25, 0.1, True), (0.25, 0.1, True))) == 1
    assert neighbor_phase_ties(snap(topo, 1.0, (0.25, 0.1, True), (0.2500001, 0.1, True))) == 0


def test_fit_log_growth():
    import math

    ns = [16, 32, 64, 128]
    ys = [2.0 * math.log(n) for n in ns]
    c, slope = fit_log_growth(ns, ys)
    assert c == pytest.approx(2.0)
    assert slope == pytest.approx(2.0)
    _, flat_slope = fit_log_growth(ns, [3, 3, 3, 3])
    assert flat_slope == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError, match="size above 1"):
        fit_log_growth([1, 1], [2, 2])


# -- the array passes against their one-edge-at-a-time references ------------

_GRID = [k / 16 for k in range(16)]  # float phases that touch and tie exactly


@st.composite
def snapshots(draw):
    """A snapshot of a topology with gaps in its ids, covering exactly its
    nodes; phases are ints mod Q or floats mod T = 1, and a node's phase
    and interval are -1 one time in four."""
    n = draw(st.integers(0, 10))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = [e for e, keep in zip(pairs, draw(st.lists(st.booleans(), min_size=len(pairs),
                                                        max_size=len(pairs)))) if keep]
    adj = Topology.from_edges(n, edges).adjacency()
    if n:
        for v in draw(st.lists(st.sampled_from(range(n)), unique=True, max_size=3)):
            for u in adj.pop(v):
                adj[u].discard(v)
    if draw(st.booleans()):
        adj[n + 5] = {v for v in adj if v % 2}
        for v in adj[n + 5]:
            adj[v].add(n + 5)
    topo = Topology.from_adjacency(adj)
    if draw(st.booleans()):
        tau = draw(st.sampled_from([16, 4, 1]))
        value = st.integers(0, tau - 1)
        length = st.integers(0, tau - 1)
    else:
        tau = 1.0
        value = st.one_of(st.sampled_from(_GRID), st.floats(0.0, 1.0, exclude_max=True))
        length = st.one_of(st.sampled_from(_GRID[:8]), st.floats(0.0, 0.5))

    def mostly(values):  # -1 one time in four
        return draw(values) if draw(st.integers(0, 3)) else -1

    states = tuple(NodeState(v, mostly(value), mostly(length), draw(st.integers(0, 3)) > 0)
                   for v in topo.nodes)
    return snapshot_of(topo, tau, states)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(snapshots(), st.sampled_from([None, 1 / 16, 0.1]))
def test_array_passes_match_the_loops(snapshot, eta):
    report = validate_interval_coloring(snapshot, eta=eta)
    assert report == validate_interval_coloring_reference(snapshot, eta=eta)
    assert type(report.pairs_checked) is int
    assert all(type(x) is int for pair in report.violations for x in pair)
    norm = report.min_normalized_interval
    assert norm is None or type(norm) is float

    window = symmetric_window_violations(snapshot)
    assert window == symmetric_window_violations_reference(snapshot)
    assert all(type(x) is int for pair in window for x in pair)

    ties = neighbor_phase_ties(snapshot)
    assert ties == neighbor_phase_ties_reference(snapshot)
    assert type(ties) is int

    # both runners color a node only once it holds a phase
    colored_phased = snapshot_of(snapshot.topology, snapshot.tau, [
        NodeState(s.node, s.global_phase, s.interval, s.colored and s.global_phase is not None)
        for s in node_states(snapshot)])
    labels = classify_good_bad(colored_phased)
    expected = classify_good_bad_reference(colored_phased)
    assert list(labels.items()) == list(expected.items())
    assert all(type(v) is int for v in labels)


def _reduction(snapshot, offsets):
    """The colors ``hardness_reduction`` gives, or the message it raises."""
    try:
        return hardness_reduction(snapshot, offsets).tolist()
    except InternalInconsistencyError as exc:
        return str(exc)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(snapshots(), st.data())
def test_hardness_reduction_matches_the_loop(snapshot, data):
    topo, q = snapshot.topology, snapshot.tau
    phases = {s.node: s.global_phase for s in node_states(snapshot) if s.global_phase is not None}
    offsets = {v: data.draw(st.integers(0, 2)) for v in phases}
    try:
        expected = hardness_reduction_reference(phases, offsets, q, topo)
    except InternalInconsistencyError as exc:
        with pytest.raises(InternalInconsistencyError) as got:
            reduce(topo, q, phases, offsets)
        assert str(got.value) == str(exc)
    else:
        assert reduce(topo, q, phases, offsets) == {v: expected.get(v, -1) for v in topo.nodes}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(snapshots(), st.data())
def test_a_node_holding_minus_one_enters_no_verdict(snapshot, data):
    # whatever the interval and colored flag of a node holding phase -1,
    # every verdict is that of its graph with the node's edges gone; and
    # whatever the colored flag of a node holding interval -1, the
    # normalized interval is the same
    topo, tau = snapshot.topology, snapshot.tau
    nodes = topo.arrays.nodes.tolist()
    phaseless = dict(zip(nodes, (snapshot.phase < 0).tolist()))
    junk = (st.one_of(st.just(-1), st.integers(0, 40)) if isinstance(tau, int)
            else st.one_of(st.just(-1.0), st.floats(0.0, 2.0)))
    interval, colored = snapshot.interval.copy(), snapshot.colored.copy()
    for i, v in enumerate(nodes):
        if phaseless[v]:
            interval[i], colored[i] = data.draw(junk), data.draw(st.booleans())
    junked = ColoringSnapshot(topo, tau, snapshot.phase, interval, colored)
    detached = ColoringSnapshot(
        Topology.from_adjacency({v: set() if phaseless[v] else
                                 {u for u in nbrs if not phaseless[u]}
                                 for v, nbrs in topo.adjacency().items()}),
        tau, snapshot.phase, snapshot.interval, snapshot.colored)

    ours, theirs = validate_interval_coloring(junked), validate_interval_coloring(detached)
    assert (ours.pairs_checked, ours.violations) == (theirs.pairs_checked, theirs.violations)
    assert symmetric_window_violations(junked) == symmetric_window_violations(detached)
    assert neighbor_phase_ties(junked) == neighbor_phase_ties(detached)
    ours, theirs = classify_good_bad(junked), classify_good_bad(detached)
    assert {v: ours[v] for v in nodes if not phaseless[v]} == \
        {v: theirs[v] for v in nodes if not phaseless[v]}
    offsets = np.array(data.draw(st.lists(st.integers(0, 2), min_size=len(nodes),
                                          max_size=len(nodes))), dtype=snapshot.phase.dtype)
    colors = _reduction(junked, offsets)
    assert colors == _reduction(detached, offsets)
    if isinstance(colors, list):
        assert [c for c, v in zip(colors, nodes) if phaseless[v]] == [-1] * sum(phaseless.values())

    no_interval = snapshot.interval < 0
    flips = np.array(data.draw(st.lists(st.booleans(), min_size=len(nodes),
                                        max_size=len(nodes))), dtype=bool)
    colored = np.where(no_interval, flips, snapshot.colored)
    flipped = ColoringSnapshot(topo, tau, snapshot.phase, snapshot.interval, colored)
    assert validate_interval_coloring(flipped, eta=1 / 16).min_normalized_interval == \
        validate_interval_coloring(snapshot, eta=1 / 16).min_normalized_interval


def test_array_passes_on_an_empty_graph():
    empty = Topology.from_edges(0, [])
    snapshot = snapshot_of(empty, 8, ())
    assert validate_interval_coloring(snapshot, eta=0.5) == \
        validate_interval_coloring_reference(snapshot, eta=0.5)
    assert symmetric_window_violations(snapshot) == []
    assert neighbor_phase_ties(snapshot) == 0
    assert classify_good_bad(snapshot) == {}
    assert reduce(empty, 8, {}, {}) == {}


def test_classification_measures_distance_from_the_neighbor():
    # in floats the wrap distance from a to b can round to a different side
    # of 1 than the distance from b to a: here 1.0 from node 1 to node 0
    # and 1.0000000000000002 from node 0 to node 1
    topo = Topology.from_edges(2, [(0, 1)])
    snapshot = snap(topo, 7.3, (2.805976866086028, 0.1, True), (1.8059768660860278, 0.1, True))
    expected = {0: "bad-colored", 1: "good"}
    assert classify_good_bad_reference(snapshot) == expected
    assert classify_good_bad(snapshot) == expected


@pytest.mark.parametrize("tau, a, b", [
    (32, (2, 3, True), (10, 8, True)),  # arcs [31, 2] and [2, 10] share slot 2
    (1.0, (0.125, 0.25, True), (0.375, 0.25, True)),  # [0.875, 0.125] and [0.125, 0.375]
    (32, (5, None, True), (5, None, True)),  # no interval: each arc is its phase alone
])
def test_arcs_whose_ends_touch_overlap(tau, a, b):
    topo = Topology.from_edges(2, [(0, 1)])
    for triples in ((a, b), (b, a)):
        snapshot = snap(topo, tau, *triples)
        report = validate_interval_coloring(snapshot)
        assert report.violations == ((0, 1),)
        assert report == validate_interval_coloring_reference(snapshot)
