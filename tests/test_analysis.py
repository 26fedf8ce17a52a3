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


def snap(tau, *triples):
    states = tuple(NodeState(i, p, i_len, colored)
                   for i, (p, i_len, colored) in enumerate(triples))
    return snapshot_of(tau, states)


def test_disjoint_intervals_pass():
    topo = Topology.from_edges(2, [(0, 1)])
    report = validate_interval_coloring(snap(32, (2, 3, True), (10, 3, True)), topo)
    assert not report.violations
    assert report.pairs_checked == 1


def test_overlapping_intervals_flagged():
    topo = Topology.from_edges(2, [(0, 1)])
    report = validate_interval_coloring(snap(32, (5, 3, True), (6, 3, True)), topo)
    assert report.violations == ((0, 1),)


def test_wrap_around_interval_overlap_detected():
    topo = Topology.from_edges(2, [(0, 1)])
    # node 0's arc [30, 1] wraps; node 1's arc [0, 4] meets it at 0..1
    report = validate_interval_coloring(snap(32, (1, 3, True), (4, 4, True)), topo)
    assert report.violations


def test_normalized_interval_metric():
    topo = Topology.from_edges(2, [(0, 1)])
    report = validate_interval_coloring(
        snap(32, (2, 2, True), (20, 2, True)), topo, eta=1 / 16, q=32
    )
    # dmax = 1 for both: normalized = 2 * 3 / 2 = 3
    assert report.min_normalized_interval == pytest.approx(3.0)


def test_uncolored_nodes_are_not_checked():
    topo = Topology.from_edges(2, [(0, 1)])
    report = validate_interval_coloring(snap(32, (5, 3, True), (6, 3, False)), topo)
    assert report.pairs_checked == 0


def test_classification_cases():
    topo = Topology.from_edges(3, [(0, 1), (1, 2)])
    labels = classify_good_bad(snap(32, (4, 1, True), (6, 1, True), (7, 1, False)), topo)
    assert labels[0] == "good"          # distance 2 from its only neighbor
    assert labels[1] == "bad-colored"   # node 2 sits one slot away
    assert labels[2] == "bad-uncolored"


def test_classification_wraps_and_ignores_phaseless():
    topo = Topology.from_edges(3, [(0, 1), (0, 2)])
    labels = classify_good_bad(snap(16, (0, 1, True), (15, 1, True), (None, None, False)), topo)
    assert labels[0] == "bad-colored"  # 15 and 0 are adjacent mod 16
    assert labels[2] == "bad-uncolored"
    topo2 = Topology.from_edges(2, [(0, 1)])
    labels2 = classify_good_bad(snap(16, (5, 1, True), (None, None, False)), topo2)
    assert labels2[0] == "good"  # a neighbor without a phase cannot conflict


def reduce(phases, offsets, q, topology):
    """``hardness_reduction`` on dicts by node id, with its colors as one."""
    ids = sorted(phases)
    colors = hardness_reduction(np.array(ids, dtype=np.int64), np.array([phases[v] for v in ids]),
                                np.array([offsets[v] for v in ids]), q, topology)
    return dict(zip(ids, colors.tolist()))


def test_hardness_reduction_examples():
    topo = Topology.from_edges(1, [])
    colors = reduce({0: 0}, {0: 7}, 16, topo)
    assert colors == {0: 7}

    topo2 = Topology.from_edges(2, [(0, 1)])
    colors2 = reduce({0: 3, 1: 9}, {0: 0, 1: 0}, 16, topo2)
    assert colors2[0] != colors2[1]


def test_hardness_reduction_rejects_improper_input():
    topo = Topology.from_edges(2, [(0, 1)])
    with pytest.raises(InternalInconsistencyError):
        reduce({0: 3, 1: 3}, {0: 0, 1: 0}, 16, topo)
    # equal colors via offsets also caught
    with pytest.raises(InternalInconsistencyError):
        reduce({0: 3, 1: 1}, {0: 0, 1: 2}, 16, topo)


def test_neighbor_phase_ties_counts_exact_equality():
    topo = Topology.from_edges(2, [(0, 1)])
    assert neighbor_phase_ties(snap(1.0, (0.25, 0.1, True), (0.25, 0.1, True)), topo) == 1
    assert neighbor_phase_ties(snap(1.0, (0.25, 0.1, True), (0.2500001, 0.1, True)), topo) == 0


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
def snapshot_and_topology(draw):
    """A topology with gaps in its ids and a snapshot that covers part of it
    plus nodes it lacks; phases are ints mod Q or floats mod T = 1."""
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
    kept = [v for v in topo.nodes if draw(st.integers(0, 3))]  # most topology nodes
    ids = sorted(set(kept) | set(draw(st.lists(st.integers(0, 20), max_size=3))))
    if draw(st.booleans()):
        tau = draw(st.sampled_from([16, 4, 1]))
        value = st.integers(0, tau - 1)
        length = st.integers(0, tau - 1)
    else:
        tau = 1.0
        value = st.one_of(st.sampled_from(_GRID), st.floats(0.0, 1.0, exclude_max=True))
        length = st.one_of(st.sampled_from(_GRID[:8]), st.floats(0.0, 0.5))

    def mostly(values):  # None one time in four
        return draw(values) if draw(st.integers(0, 3)) else None

    states = tuple(NodeState(v, mostly(value), mostly(length), bool(mostly(st.just(True))))
                   for v in ids)
    return snapshot_of(tau, states), topo


@settings(max_examples=200, deadline=None, derandomize=True)
@given(snapshot_and_topology(), st.sampled_from([(None, None), (1 / 16, 32), (0.1, 7)]))
def test_array_passes_match_the_loops(case, eta_q):
    snapshot, topo = case
    eta, q = eta_q
    report = validate_interval_coloring(snapshot, topo, eta=eta, q=q)
    assert report == validate_interval_coloring_reference(snapshot, topo, eta=eta, q=q)
    assert type(report.pairs_checked) is int
    assert all(type(x) is int for pair in report.violations for x in pair)
    norm = report.min_normalized_interval
    assert norm is None or type(norm) is float

    window = symmetric_window_violations(snapshot, topo)
    assert window == symmetric_window_violations_reference(snapshot, topo)
    assert all(type(x) is int for pair in window for x in pair)

    ties = neighbor_phase_ties(snapshot, topo)
    assert ties == neighbor_phase_ties_reference(snapshot, topo)
    assert type(ties) is int

    # both runners color a node only once it holds a phase
    colored_phased = snapshot_of(snapshot.tau, [
        NodeState(s.node, s.global_phase, s.interval, s.colored and s.global_phase is not None)
        for s in node_states(snapshot)])
    labels = classify_good_bad(colored_phased, topo)
    expected = classify_good_bad_reference(colored_phased, topo)
    assert list(labels.items()) == list(expected.items())
    assert all(type(v) is int for v in labels)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(snapshot_and_topology(), st.data())
def test_hardness_reduction_matches_the_loop(case, data):
    snapshot, topo = case
    q = snapshot.tau if isinstance(snapshot.tau, int) else 1.0
    phases = {s.node: s.global_phase for s in node_states(snapshot) if s.global_phase is not None}
    offsets = {v: data.draw(st.integers(0, 2)) for v in phases}
    try:
        expected = hardness_reduction_reference(phases, offsets, q, topo)
    except InternalInconsistencyError as exc:
        with pytest.raises(InternalInconsistencyError) as got:
            reduce(phases, offsets, q, topo)
        assert str(got.value) == str(exc)
    else:
        assert reduce(phases, offsets, q, topo) == expected


def test_array_passes_on_an_empty_graph():
    empty = Topology.from_edges(0, [])
    snapshot = snap(8, (1, 2, True))
    assert validate_interval_coloring(snapshot, empty, eta=0.5, q=8) == \
        validate_interval_coloring_reference(snapshot, empty, eta=0.5, q=8)
    assert symmetric_window_violations(snapshot, empty) == []
    assert neighbor_phase_ties(snapshot, empty) == 0
    assert classify_good_bad(snapshot_of(8, ()), empty) == {}
    assert reduce({}, {}, 8, empty) == {}


def test_classification_measures_distance_from_the_neighbor():
    # in floats the wrap distance from a to b can round to a different side
    # of 1 than the distance from b to a: here 1.0 from node 1 to node 0
    # and 1.0000000000000002 from node 0 to node 1
    topo = Topology.from_edges(2, [(0, 1)])
    snapshot = snap(7.3, (2.805976866086028, 0.1, True), (1.8059768660860278, 0.1, True))
    expected = {0: "bad-colored", 1: "good"}
    assert classify_good_bad_reference(snapshot, topo) == expected
    assert classify_good_bad(snapshot, topo) == expected


@pytest.mark.parametrize("tau, a, b", [
    (32, (2, 3, True), (10, 8, True)),  # arcs [31, 2] and [2, 10] share slot 2
    (1.0, (0.125, 0.25, True), (0.375, 0.25, True)),  # [0.875, 0.125] and [0.125, 0.375]
])
def test_arcs_whose_ends_touch_overlap(tau, a, b):
    topo = Topology.from_edges(2, [(0, 1)])
    for triples in ((a, b), (b, a)):
        snapshot = snap(tau, *triples)
        report = validate_interval_coloring(snapshot, topo)
        assert report.violations == ((0, 1),)
        assert report == validate_interval_coloring_reference(snapshot, topo)


# -- snapshots built from masked arrays against per-node records --------------


def _outputs(snapshot, topo):
    return (validate_interval_coloring(snapshot, topo, eta=1 / 16, q=32),
            symmetric_window_violations(snapshot, topo),
            list(classify_good_bad(snapshot, topo).items()),
            neighbor_phase_ties(snapshot, topo),
            [column.tolist() for column in snapshot.global_phases()])


@settings(max_examples=100, deadline=None, derandomize=True)
@given(snapshot_and_topology(), st.data())
def test_masked_arrays_read_back_as_the_records(case, data):
    # records with None phases and intervals; the arrays hold an arbitrary
    # value wherever a mask says a node holds none, which must not show
    snapshot, topo = case
    states = node_states(snapshot)
    tau = snapshot.tau
    junk = st.integers(-3, 40) if isinstance(tau, int) else st.floats(-2.0, 2.0)

    def masked(values):
        mask = np.array([x is not None for x in values], dtype=bool)
        filled = [data.draw(junk) if x is None else x for x in values]
        return np.array(filled, dtype=type(tau) if filled else float), mask

    masked_snapshot = ColoringSnapshot.from_arrays(
        tau, np.array([s.node for s in states], dtype=np.int64),
        *masked([s.global_phase for s in states]), *masked([s.interval for s in states]),
        np.array([s.colored for s in states], dtype=bool))
    assert node_states(masked_snapshot) == states
    assert _outputs(masked_snapshot, topo) == _outputs(snapshot, topo)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(snapshot_and_topology())
def test_global_phases_skip_nodes_without_one(case):
    snapshot, _ = case
    expected = {s.node: s.global_phase for s in node_states(snapshot)
                if s.global_phase is not None}
    phases = dict(zip(*(column.tolist() for column in snapshot.global_phases())))
    assert list(phases.items()) == list(expected.items())
    assert all(type(v) is int for v in phases)
    assert all(type(p) is type(snapshot.tau) for p in phases.values())
    assert node_states(snapshot_of(snapshot.tau, node_states(snapshot))) == \
        node_states(snapshot)
