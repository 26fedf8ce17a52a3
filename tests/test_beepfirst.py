"""Continuous first-fit protocol: initialization, search, stability."""

import gc
from unittest.mock import patch

import pytest
from helpers import (
    LoopBeepFirst,
    by_node,
    capture_engines,
    first_clear_phase,
    max_neighborhood_degree,
    node_states,
    record_beeps,
    wrap_distance,
)
from hypothesis import given, settings, strategies as st

from beepsim import continuous, rng, runner
from beepsim.beepfirst import BeepFirst
from beepsim.config import SimConfig
from beepsim.phases import PhaseSet
from beepsim.runner import run_beepfirst_trial
from beepsim.topology import Topology, clique, gnp


def offset(epsilon, *key):
    """The start offset a node draws first from the stream ``key``."""
    return float(rng.stream(*key).uniform(0.0, epsilon))


def trial_protocols(topo, cfg, seed_key):
    """``run_beepfirst_trial`` and every node's :class:`BeepFirst` from its engine."""
    with capture_engines("ContinuousEngine") as engines:
        result = run_beepfirst_trial(topo, cfg, seed_key=seed_key)
    return result, engines[0].protocols


def test_init_formulas_isolated_node():
    proto = BeepFirst(0.1, 0, 0, offset(0.1, 1, "p"))
    gen = proto.run()
    next(gen)  # runs initialization up to the first listen
    assert proto.interval == pytest.approx(0.45)
    assert 0.45 <= proto.b <= 0.5
    assert 0.0 <= proto.eps_v <= 0.1


def test_start_offset_is_deterministic_per_stream():
    # a trial draws each node's offset from the node's own protocol stream,
    # so the same key gives the same offsets, and they equal numpy's draw
    topo = gnp(12, 0.3, rng.stream(9, "g"))
    cfg = SimConfig(master_seed=9, epsilon=0.2, wakeup="random")
    (_, a), (_, b) = (trial_protocols(topo, cfg, ("offset",)) for _ in range(2))
    for v in topo.nodes:
        assert a[v].eps_v == b[v].eps_v
        assert a[v].eps_v == offset(0.2, 9, "offset", v, "protocol")


def test_first_clear_phase_empty_set():
    s = PhaseSet.from_iterable((), 1.0)
    phase, extra = first_clear_phase(s, 0.2, 1.0)
    assert phase == 0.0
    assert extra == 0.0


def test_first_clear_phase_single_beep():
    # one beep at 0.1 with buffer 0.2: the scan settles at 0.2 + 0.1
    s = PhaseSet.from_iterable((0.1,), 1.0)
    phase, _ = first_clear_phase(s, 0.2, 1.0)
    assert phase == pytest.approx(0.3)


def test_first_clear_phase_scans_past_cluster():
    s = PhaseSet.from_iterable((0.05, 0.2, 0.42), 1.0)
    b = 0.15
    phase, _ = first_clear_phase(s, b, 1.0)
    # settles exactly one buffer past the last cluster member it can see;
    # every heard beep ends up at least a buffer away (up to float dust)
    assert phase == pytest.approx(0.42 + b)
    assert all(min((phase - x) % 1.0, (x - phase) % 1.0) >= b - 1e-12 for x in s)


def test_first_clear_phase_wrapping_beep_near_period_end():
    # beep just before the boundary is "behind" phase 0 for a wrap-aware scan
    s = PhaseSet.from_iterable((0.95,), 1.0)
    phase, _ = first_clear_phase(s, 0.1, 1.0)
    assert phase == pytest.approx(0.05)


def test_isolated_node_settles_at_zero():
    topo = Topology.from_edges(1, [])
    result, protocols = trial_protocols(topo, SimConfig(master_seed=3), ("iso",))
    proto = protocols[0]
    assert proto.stable
    assert proto.p == 0.0
    assert node_states(result.snapshot)[0].interval == pytest.approx(0.45)


def test_two_node_clique_second_settles_behind_first():
    topo = Topology.from_edges(2, [(0, 1)])
    result, protocols = trial_protocols(topo, SimConfig(master_seed=11), ("pair",))
    assert result.all_stable
    p0 = protocols[0]
    p1 = protocols[1]
    states = by_node(result.snapshot)
    first, second = (0, 1) if p0.stable_since < p1.stable_since else (1, 0)
    # the later node settles exactly its own buffer after the earlier phase
    gap = (states[second].global_phase - states[first].global_phase) % 1.0
    second_proto = protocols[second]
    assert gap == pytest.approx(second_proto.b)


def test_stable_node_beeps_every_period_at_same_phase():
    topo = Topology.from_edges(2, [(0, 1)])
    cfg = SimConfig(master_seed=7)
    from beepsim.continuous import ContinuousEngine

    def factory(v):
        return BeepFirst(0.1, 1, 1, offset(0.1, 7, "steady", v, "p"))

    engine = ContinuousEngine(topo, factory, {0: 0.0, 1: 0.0})
    log = record_beeps(engine)
    engine.run_until(8.0)
    for v in (0, 1):
        proto = engine.protocols[v]
        assert proto.stable
        assert proto.stable_since < 3.0
        beeps = log[v]
        assert len(beeps) >= 5
        # one beep per period at the chosen phase; chained float additions
        # wobble the absolute times by a few ulp per period, nothing more
        origin = engine._nodes[v].origin
        for t in beeps:
            assert wrap_distance((t - origin) % 1.0, proto.p, 1.0) < 1e-12
        gaps = {round(b - a, 12) for a, b in zip(beeps, beeps[1:])}
        assert gaps == {1.0}


def test_intervals_never_contain_neighbor_phase():
    cfg = SimConfig(master_seed=19)
    topo = gnp(24, 0.2, rng.stream(19, "g"))
    result = run_beepfirst_trial(topo, cfg, seed_key=("lemma",))
    assert result.all_stable
    states = by_node(result.snapshot)
    for u, v in topo.edges():
        du = wrap_distance(states[u].global_phase, states[v].global_phase, 1.0)
        assert du > states[v].interval
        assert du > states[u].interval


def test_interval_formula_uses_neighborhood_max_degree():
    cfg = SimConfig(master_seed=23, epsilon=0.2)
    topo = clique(5)
    result = run_beepfirst_trial(topo, cfg, seed_key=("formula",))
    for state in node_states(result.snapshot):
        dmax = max_neighborhood_degree(topo, state.node)
        assert state.interval == (1 - 0.2) * 1.0 / (2 * (dmax + 1))


def test_search_shorter_than_one_period():
    cfg = SimConfig(master_seed=29)
    topo = clique(12)
    result, protocols = trial_protocols(topo, cfg, ("short",))
    assert result.search_overruns == 0
    for v in topo.nodes:
        assert protocols[v].search_listening < 1.0


def test_shared_streams_produce_identical_phases_and_a_tie():
    # two non-adjacent nodes with one common neighbor and identical streams
    # behave identically forever; the engine flags the coincident beeps
    topo = Topology.from_edges(3, [(0, 2), (1, 2)])
    cfg = SimConfig(master_seed=37)
    from beepsim.continuous import ContinuousEngine

    def factory(v):
        key = (37, "twin", "p") if v in (0, 1) else (37, v, "p")
        return BeepFirst(0.1, topo.degree(v), max_neighborhood_degree(topo, v),
                         offset(0.1, *key))

    engine = ContinuousEngine(topo, factory, {v: 0.0 for v in topo.nodes})
    engine.run_until(5.0)
    assert engine.protocols[0].p == engine.protocols[1].p
    assert engine.tie_collisions >= 1
    assert len(engine.heard_log(2)) >= 1


def test_staggered_wakeup_still_settles_within_three_periods():
    topo = gnp(16, 0.2, rng.stream(41, "g"))
    cfg = SimConfig(master_seed=41, wakeup="random")
    result = run_beepfirst_trial(topo, cfg, seed_key=("stagger",))
    assert result.all_stable
    assert result.late_nodes == 0
    assert result.max_stable_delay < 3.0


def trial_and_engine(topo, cfg, protocol_cls, pauses=()):
    """``run_beepfirst_trial`` with CSV rows, driving ``protocol_cls``, the
    engine it ran and the engine's beeps.  The engine's run stops at each
    of the ``pauses`` (fractions of its end time) on the way."""
    engines = []

    class Recording(continuous.ContinuousEngine):
        def __init__(self, *args):
            super().__init__(*args)
            engines.append((self, record_beeps(self)))

        def run_until(self, t_end):
            for fraction in pauses:
                super().run_until(fraction * t_end)
            super().run_until(t_end)

    with patch.object(runner, "ContinuousEngine", Recording), \
            patch.object(runner, "BeepFirst", protocol_cls):
        result = run_beepfirst_trial(topo, cfg, seed_key=("cycle",), collect_rows=True)
    return (result, *engines[0])


def assert_same_run(topo, cycled, looped):
    (res, eng, beeps), (ref, ref_eng, ref_beeps) = cycled, looped
    assert beeps == ref_beeps
    for v in topo.nodes:
        assert eng.heard_log(v) == ref_eng.heard_log(v)
        assert eng.theta(v) == ref_eng.theta(v)
        assert eng.protocols[v].stable_since == ref_eng.protocols[v].stable_since
        assert eng.protocols[v].p == ref_eng.protocols[v].p
    assert eng.tie_collisions == ref_eng.tie_collisions == res.tie_collisions
    assert res.rows == ref.rows
    assert res.snapshot.tau == ref.snapshot.tau
    assert node_states(res.snapshot) == node_states(ref.snapshot)
    # the cycle ran: some node beeped again after settling
    assert any(len(times) > 1 for times in beeps.values())


@st.composite
def cycle_cases(draw):
    seed = draw(st.integers(min_value=0, max_value=2**16))
    if draw(st.booleans()):
        topo = gnp(draw(st.integers(min_value=2, max_value=24)),
                   draw(st.sampled_from((0.1, 0.3))), rng.stream(seed, "g"))
    else:
        topo = clique(draw(st.integers(min_value=1, max_value=8)))
    wakeup = draw(st.sampled_from(("simultaneous", "random", "stagger:1")))
    pauses = sorted(draw(st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=2)))
    return topo, SimConfig(master_seed=seed, wakeup=wakeup), pauses


@settings(max_examples=60, deadline=None, derandomize=True)
@given(cycle_cases())
def test_cycle_matches_listen_listen_beep_loop(case):
    topo, cfg, pauses = case
    assert_same_run(topo, trial_and_engine(topo, cfg, BeepFirst, pauses),
                    trial_and_engine(topo, cfg, LoopBeepFirst, pauses))


@pytest.mark.parametrize("seed", (37, 38, 39))
def test_cycle_matches_loop_with_coincident_beeps(seed):
    # twins on one stream beep at the same instants every period
    topo = Topology.from_edges(3, [(0, 2), (1, 2)])
    runs = []
    for cls in (BeepFirst, LoopBeepFirst):
        def factory(v, cls=cls):
            key = (seed, "twin", "p") if v in (0, 1) else (seed, v, "p")
            return cls(0.1, topo.degree(v), max_neighborhood_degree(topo, v), offset(0.1, *key))

        engine = continuous.ContinuousEngine(topo, factory, {v: 0.0 for v in topo.nodes})
        beeps = record_beeps(engine)
        engine.run_until(6.0)
        runs.append((engine, beeps))
    (new, new_beeps), (old, old_beeps) = runs
    assert new.tie_collisions == old.tie_collisions >= 4
    assert new_beeps == old_beeps
    for v in topo.nodes:
        assert new.heard_log(v) == old.heard_log(v)


def test_trial_engine_is_freed_without_the_cycle_collector():
    gc.collect()
    gc.disable()
    try:
        result = run_beepfirst_trial(gnp(32, 0.2, rng.stream(5, "g")), SimConfig(master_seed=5),
                                     seed_key=("mem",))
        assert result.all_stable
        del result
        leaked = [o for o in gc.get_objects() if type(o) is continuous._Node]
    finally:
        gc.enable()
    assert leaked == []
