"""The runner's per-period good set against the snapshot classifier, its
snapshots against the protocols, the array path against the per-node
engine, its boundary pass against per-boundary checks, the trace's row
labels, and the stability of per-node draws under topology edits."""

import dataclasses
import os
import tempfile
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from helpers import (
    apply_event,
    beepfirst_states,
    boundary_checks_reference,
    capture_engines,
    classify_good_bad_reference,
    label_for,
    node_states,
    protocol_states,
    reported_reference,
    run_on_engine,
    valid_events,
    wrap_distance,
)
from hypothesis import example, given, settings, strategies as st

from beepsim import rng as rngmod
from beepsim import runner
from beepsim.analysis import BAD_COLORED, GOOD, ColoringSnapshot, classify_good_bad, phases_clash
from beepsim.config import SimConfig
from beepsim.topology import DynamicEvent, Topology, random_regular


def test_phase_clash_is_wrap_distance_at_most_one():
    for q in (1, 2, 3, 4, 7, 64):
        a, b = np.meshgrid(np.arange(q), np.arange(q))
        expected = np.vectorize(lambda x, y: wrap_distance(x, y, q) <= 1)(a, b)
        assert (phases_clash(a, b, q) == expected).all()
        for x, y in zip(a.ravel().tolist(), b.ravel().tolist()):
            assert phases_clash(x, y, q) == (wrap_distance(x, y, q) <= 1)


@st.composite
def trial_cases(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    wakeup = draw(st.sampled_from(("simultaneous", "random"))
                  | st.integers(min_value=0, max_value=400).map(lambda k: f"stagger:{k}"))
    dynamic = draw(st.booleans())
    node = st.integers(min_value=0, max_value=n + 1)
    candidates = draw(st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=10),
            st.sampled_from(("add_node", "remove_node", "add_edge", "remove_edge")),
            node, node, st.lists(node, max_size=3),
        ),
        max_size=10 if dynamic else 0,
    ))
    events = []
    for period, kind, a, b, rest in candidates:
        nodes = {"add_node": (a, *rest), "remove_node": (a,)}.get(kind, (a, b))
        events.append(DynamicEvent(period, kind, nodes))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    return Topology.from_edges(n, edges), wakeup, dynamic, events, seed


@settings(max_examples=150, deadline=None)
@given(trial_cases())
@example((Topology.from_edges(2, [(0, 1)]), "stagger:68", False, [], 39400))  # the set shrinks
def test_array_good_set_matches_classifier_every_period(case):
    topo, wakeup, dynamic, candidates, seed = case
    events = valid_events(topo, candidates)
    # kappa 128 keeps free slots for nodes whose degree grows through events
    cfg = SimConfig(kappa=128.0, master_seed=seed, wakeup=wakeup, max_periods=10,
                    dynamic=dynamic)
    computed = []
    alive = []
    good = runner._good

    def recording_good(*args):
        # called once per period, after its last slot, on the arrays read then
        is_good = good(*args)
        (engine,) = engines
        computed.append(set(engine.topology.arrays.nodes[is_good].tolist()))
        alive.append(set(engine.adj))
        labels = classify_good_bad(runner._read(engine))
        assert computed[-1] == {v for v, label in labels.items() if label == GOOD}
        # the trace's per-node labels apply the same rule
        assert {v: label_for(engine, v) for v in engine.adj} == labels
        return is_good

    with capture_engines() as engines, \
            mock.patch.object(runner, "_good", recording_good):
        result = run_on_engine(topo, cfg, seed_key=("good",), events=events)
    assert len(computed) == result.periods_run
    # a node good after one period, still there and not good after the next
    shrank = sum(len((was & there) - now)
                 for was, now, there in zip([set(), *computed], computed, alive))
    assert result.monotonic_violations == shrank
    final_good = {v for v, label in result.final_labels.items() if label == GOOD}
    assert final_good == computed[-1]
    assert result.final_labels == classify_good_bad(result.final_snapshot)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_good_set_matches_the_loop_beside_phaseless_neighbors(data):
    # a node still without a phase holds -1, which sits next to phases 0
    # and Q - 2 mod Q yet must clash with no neighbor
    n = data.draw(st.integers(min_value=1, max_value=8))
    q = data.draw(st.sampled_from([1, 2, 3, 4, 8]))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    phase = data.draw(st.lists(st.integers(min_value=-1, max_value=q - 1),
                               min_size=n, max_size=n))
    colored = [p >= 0 and data.draw(st.booleans()) for p in phase]  # as both runners color
    topo = Topology.from_edges(n, edges)
    snapshot = ColoringSnapshot(topo, q, np.array(phase, dtype=np.int64), np.full(n, -1),
                                np.array(colored, dtype=bool))
    good = runner._good(snapshot)
    assert topo.arrays.nodes[good].tolist() == \
        [v for v, label in classify_good_bad_reference(snapshot).items() if label == GOOD]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(trial_cases())
def test_engine_snapshot_reads_every_protocol_every_period(case):
    topo, wakeup, dynamic, candidates, seed = case
    events = valid_events(topo, candidates)
    cfg = SimConfig(kappa=128.0, master_seed=seed, wakeup=wakeup, max_periods=10,
                    dynamic=dynamic)
    checked = []
    good = runner._good

    def checking_good(*args):
        # called once per period, after its last slot, on the arrays read then
        (engine,) = engines
        assert node_states(runner._read(engine)) == protocol_states(engine)
        checked.append(engine.slot)
        return good(*args)

    with capture_engines() as engines, \
            mock.patch.object(runner, "_good", checking_good):
        result = run_on_engine(topo, cfg, seed_key=("snap",), events=events)
    assert len(checked) == result.periods_run
    assert node_states(result.final_snapshot) == protocol_states(engines[0])


@settings(max_examples=100, deadline=None, derandomize=True)
@given(trial_cases())
def test_beepfirst_snapshot_reads_every_protocol(case):
    topo, wakeup, _, _, seed = case
    with capture_engines("ContinuousEngine") as engines:
        result = runner.run_beepfirst_trial(topo, SimConfig(master_seed=seed, wakeup=wakeup),
                                            seed_key=("snap",))
    (engine,) = engines
    states = beepfirst_states(engine)
    assert node_states(result.snapshot) == states
    assert result.all_stable == all(s.colored for s in states)
    assert all(type(s.global_phase) is float for s in node_states(result.snapshot) if s.colored)


@st.composite
def topology_edits(draw):
    n = draw(st.integers(min_value=2, max_value=8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True))
    absent = [e for e in pairs if e not in edges]
    before = Topology.from_edges(n, edges)
    kinds = ["add_node", "remove_node"]
    kinds += ["add_edge"] * bool(absent) + ["remove_edge"] * bool(edges)
    kind = draw(st.sampled_from(kinds))
    if kind == "add_edge":
        touched = draw(st.sampled_from(absent))
    elif kind == "remove_edge":
        touched = draw(st.sampled_from(edges))
    elif kind == "add_node":
        touched = (n, *draw(st.lists(st.integers(min_value=0, max_value=n - 1), unique=True)))
    else:
        touched = (draw(st.integers(min_value=0, max_value=n - 1)),)
    after = before.adjacency()
    apply_event(after, DynamicEvent(0, kind, touched))
    if kind == "add_node":
        touched = touched[:1]
    return (before, Topology.from_adjacency(after), set(touched),
            draw(st.integers(min_value=0, max_value=2**16)))


def protocol_seed_words(run, topology, cfg):
    """Run one trial and return each node's protocol stream seed words,
    which fix every draw of the stream."""
    words = {}
    seed_words = rngmod.seed_words  # rng.streams and the array path seed through it

    def recording(*key):
        rows = seed_words(*key)
        if key[-1] == "protocol":  # the node ids are the part before, a column or one id
            for v, row in zip(np.broadcast_to(key[-2], len(rows)).tolist(), rows):
                words[v] = row.tolist()
        return rows

    with mock.patch.object(rngmod, "seed_words", recording):
        run(topology, cfg, seed_key=("edit",))
    return words


@pytest.mark.parametrize("run", [runner.run_jitterjump_trial, runner.run_beepfirst_trial])
@settings(max_examples=60, deadline=None)
@given(topology_edits())
def test_topology_edit_leaves_untouched_nodes_draws_unchanged(run, case):
    before, after, touched, seed = case
    cfg = SimConfig(master_seed=seed, max_periods=4)
    old = protocol_seed_words(run, before, cfg)
    new = protocol_seed_words(run, after, cfg)
    assert set(old) == set(before.nodes) and set(new) == set(after.nodes)
    untouched = (set(before.nodes) & set(after.nodes)) - touched
    assert {v: new[v] for v in untouched} == {v: old[v] for v in untouched}


@st.composite
def static_trials(draw):
    n = draw(st.integers(min_value=0, max_value=16))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    eta, kappa = draw(st.sampled_from([(1 / 16, 64.0), (1 / 32, 128.0), (1 / 20, 90.0)]))
    # None runs to convergence; one period never converges, as no node is
    # colored before its second boundary
    max_periods = draw(st.sampled_from([None, None, 1, 2, 3]))
    cfg = SimConfig(eta=eta, kappa=kappa, master_seed=draw(st.integers(0, 2**16)),
                    max_periods=max_periods)
    return Topology.from_edges(n, edges), cfg


@settings(max_examples=120, deadline=None, derandomize=True)
@given(static_trials())
@example((  # a colored node hears a beep inside its buffer but not next to its phase
    Topology.from_edges(10, [(0, 1), (0, 2), (0, 5), (0, 6), (0, 7), (0, 8), (1, 2), (1, 6),
                             (1, 8), (2, 7), (3, 6), (3, 7), (3, 8), (4, 5), (5, 7), (5, 8),
                             (5, 9), (7, 8), (7, 9)]),
    SimConfig(eta=1 / 32, kappa=128.0, master_seed=33106),
))
def test_array_path_matches_per_node_engine(case):
    topo, cfg = case
    arrays = runner.run_jitterjump_trial(topo, cfg, seed_key=("same",), collect_rows=True)
    engine = run_on_engine(topo, cfg, seed_key=("same",), collect_rows=True)
    for name in ("snapshot", "final_snapshot"):
        ours, theirs = getattr(arrays, name), getattr(engine, name)
        assert ours.topology.edges() == theirs.topology.edges(), name
        assert repr(ours.tau) == repr(theirs.tau), name
        assert repr(node_states(ours)) == repr(node_states(theirs)), name
    for f in dataclasses.fields(runner.JitterJumpResult):
        if f.name not in ("snapshot", "final_snapshot"):
            # repr tells an int from a numpy integer
            assert repr(getattr(arrays, f.name)) == repr(getattr(engine, f.name)), f.name


@pytest.mark.parametrize("engine", [False, True], ids=["arrays", "engine"])
def test_row_label_sees_lower_ids_after_the_shared_boundary_and_higher_ids_before(engine):
    # with simultaneous wakeup every node's boundary is one slot, stepped in
    # id order; here node 27's label at period 1 reads a higher-id
    # neighbour's phase from before its boundary step, which clashes, while
    # the end-of-slot classification finds node 27 good
    seed = 29
    topo = random_regular(64, 4, rngmod.stream(seed, "g"))
    run = run_on_engine if engine else runner.run_jitterjump_trial
    # two periods: the final labels are those of the end of the row's slot
    result = run(topo, SimConfig(master_seed=seed, max_periods=2), seed_key=("x",),
                 collect_rows=True)
    (row,) = [r for r in result.rows if r.period == 1 and r.node == 27]
    assert row.label == BAD_COLORED
    assert result.final_labels[27] == GOOD


@st.composite
def boundary_cases(draw):
    if draw(st.booleans()):
        n = draw(st.integers(min_value=1, max_value=8))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        topo = Topology.from_edges(n, edges)
    else:  # enough neighbours sharing boundary slots for labels to read bad-colored
        n = draw(st.sampled_from((16, 32, 64)))
        topo = random_regular(n, 4, rngmod.stream(draw(st.integers(0, 2**16)), "g"))
    q = SimConfig(kappa=128.0).resolve_q(topo.delta)
    schedule = draw(st.sampled_from(("simultaneous", "random", "stagger", "file")))
    wake_slots = None
    if schedule == "stagger":  # a step below Q, or one that leaves nodes asleep for periods
        schedule = f"stagger:{draw(st.integers(min_value=0, max_value=2 * q))}"
    elif schedule == "file":
        wake_slots = draw(st.lists(st.integers(min_value=0, max_value=3 * q),
                                   min_size=n, max_size=n))
    dynamic = draw(st.booleans())
    max_periods = draw(st.integers(min_value=1, max_value=10))
    period = st.integers(min_value=0, max_value=max_periods)
    node = st.integers(min_value=0, max_value=n + 1)
    events = []
    for at, kind, a, b, rest in draw(st.lists(
        st.tuples(period, st.sampled_from(("add_node", "remove_node", "add_edge", "remove_edge")),
                  node, node, st.lists(node, max_size=3)),
        max_size=10 if dynamic else 0,
    )):
        nodes = {"add_node": (a, *rest), "remove_node": (a,)}.get(kind, (a, b))
        events.append(DynamicEvent(at, kind, nodes))
    # a node removed and re-added under its id, in the same period or later
    for at, v, later, rest in draw(st.lists(
        st.tuples(period, node, period, st.lists(node, max_size=2)),
        max_size=2 if dynamic else 0,
    )):
        events.append(DynamicEvent(at, "remove_node", (v,)))
        events.append(DynamicEvent(max(at, later), "add_node", (v, *rest)))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    return topo, schedule, wake_slots, dynamic, events, max_periods, seed


@contextmanager
def boundary_config(wakeup, wake_slots, **fields):
    """The trial's config, with the wake slots written to a ``file:``
    schedule while the block runs when ``wake_slots`` is given."""
    with tempfile.TemporaryDirectory() as tmp:
        if wake_slots is not None:
            path = os.path.join(tmp, "wake.txt")
            with open(path, "w", encoding="utf-8") as fh:
                fh.writelines(f"{v} {slot}\n" for v, slot in enumerate(wake_slots))
            wakeup = f"file:{path}"
        yield SimConfig(wakeup=wakeup, **fields)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(boundary_cases())
@example((Topology.from_edges(4, [(0, 1), (0, 2), (0, 3)]), "random", None, True,
          [DynamicEvent(2, "remove_node", (1,)), DynamicEvent(3, "add_node", (1, 0, 2)),
           DynamicEvent(4, "add_edge", (2, 3)), DynamicEvent(6, "add_node", (4, 1, 3))], 8, 5))
def test_boundary_pass_matches_per_boundary_reference(case):
    # one pass per period over arrays gives the rows, labels and counters
    # of checking every boundary as it is stepped, for either path
    topo, wakeup, wake_slots, dynamic, candidates, max_periods, seed = case
    events = valid_events(topo, candidates)
    with boundary_config(wakeup, wake_slots, kappa=128.0, master_seed=seed,
                         max_periods=max_periods, dynamic=dynamic) as cfg:
        result = runner.run_jitterjump_trial(topo, cfg, seed_key=("pass",), events=events,
                                             collect_rows=True)
        reference, resets = boundary_checks_reference(topo, cfg, ("pass",), events,
                                                      result.periods_run)
    assert result.rows == reference.rows
    for name in ("sandwich_violations", "free_floor_violations", "beep_bound_violations",
                 "window_observations"):
        assert getattr(result, name) == getattr(reference, name), name
    assert result.resets == resets


@settings(max_examples=100, deadline=None, derandomize=True)
@given(boundary_cases())
# node 1 is removed at period 2 and re-added under its id at 3; node 4 joins at 6
@example((Topology.from_edges(4, [(0, 1), (0, 2), (0, 3)]), "random", None, True,
          [DynamicEvent(2, "remove_node", (1,)), DynamicEvent(3, "add_node", (1, 0, 2)),
           DynamicEvent(4, "add_edge", (2, 3)), DynamicEvent(6, "add_node", (4, 1, 3))], 8, 5))
# nodes that wake inside a stretch, in its first slot and periods late
@example((Topology.from_edges(3, [(0, 1), (1, 2)]), "file", [0, 300, 512], False, [], 6, 1))
def test_engine_lists_the_boundaries_its_wake_slots_give(case):
    # per stretch, the nodes whose on_period_end the engine called are those
    # that woke before the stretch and have a boundary in it, by slot then id
    topo, wakeup, wake_slots, dynamic, candidates, max_periods, seed = case
    events = valid_events(topo, candidates)
    taken = runner._reported
    stretches = []

    def checking(engine, after):
        start = stretches[-1][1] if stretches else 0
        nodes = after.topology.arrays.nodes.tolist()
        expected = reported_reference(engine, nodes, start, engine.slot)
        stretches.append((start, engine.slot))
        assert engine.reported == expected
        return taken(engine, after)

    with boundary_config(wakeup, wake_slots, kappa=128.0, master_seed=seed,
                         max_periods=max_periods, dynamic=dynamic) as cfg, \
            capture_engines() as engines, mock.patch.object(runner, "_reported", checking):
        result = run_on_engine(topo, cfg, seed_key=("listed",), events=events)
    # one stretch of Q slots per period and the final boundary slot, each
    # taken and cleared
    (engine,) = engines
    assert [end - start for start, end in stretches] == [engine.q] * result.periods_run + [1]
    assert engine.reported == []
