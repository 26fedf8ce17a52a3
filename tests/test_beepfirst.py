"""Continuous first-fit protocol: initialization, search, stability."""

import pytest
from helpers import first_clear_phase

from beepsim import rng
from beepsim.beepfirst import BeepFirst
from beepsim.config import SimConfig
from beepsim.phases import PhaseSet, wrap_distance
from beepsim.runner import run_beepfirst_trial
from beepsim.topology import Topology, clique, gnp


def bf_config(**kw):
    kw.setdefault("model", "continuous")
    return SimConfig(**kw)


def test_init_formulas_isolated_node():
    proto = BeepFirst(0.1, 0, 0, rng.stream(1, "p"))
    gen = proto.run()
    next(gen)  # runs initialization up to the first listen
    assert proto.interval == pytest.approx(0.45)
    assert 0.45 <= proto.b <= 0.5
    assert 0.0 <= proto.eps_v <= 0.1


def test_start_offset_is_deterministic_per_stream():
    a = BeepFirst(0.1, 2, 3, rng.stream(9, "p"))
    b = BeepFirst(0.1, 2, 3, rng.stream(9, "p"))
    next(a.run())
    next(b.run())
    assert a.eps_v == b.eps_v


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
    result = run_beepfirst_trial(topo, bf_config(master_seed=3), seed_key=("iso",))
    proto = result.protocols[0]
    assert proto.stable
    assert proto.p == 0.0
    assert result.snapshot.states[0].interval == pytest.approx(0.45)


def test_two_node_clique_second_settles_behind_first():
    topo = Topology.from_edges(2, [(0, 1)])
    result = run_beepfirst_trial(topo, bf_config(master_seed=11), seed_key=("pair",))
    assert result.all_stable
    p0 = result.protocols[0]
    p1 = result.protocols[1]
    states = result.snapshot.by_node()
    first, second = (0, 1) if p0.stable_since < p1.stable_since else (1, 0)
    # the later node settles exactly its own buffer after the earlier phase
    gap = (states[second].global_phase - states[first].global_phase) % 1.0
    second_proto = result.protocols[second]
    assert gap == pytest.approx(second_proto.b)


def test_stable_node_beeps_every_period_at_same_phase():
    topo = Topology.from_edges(2, [(0, 1)])
    cfg = bf_config(master_seed=7)
    from beepsim.continuous import ContinuousEngine
    from beepsim import rng as rngmod

    def factory(v):
        return BeepFirst(0.1, 1, 1, rngmod.stream(7, "steady", v, "p"))

    engine = ContinuousEngine(topo, factory, {0: 0.0, 1: 0.0})
    engine.run_until(8.0)
    for v in (0, 1):
        proto = engine.protocols[v]
        assert proto.stable
        assert proto.stable_since < 3.0
        beeps = engine.beep_log(v)
        assert len(beeps) >= 5
        # one beep per period at the chosen phase; chained float additions
        # wobble the absolute times by a few ulp per period, nothing more
        origin = engine._nodes[v].origin
        for t in beeps:
            assert wrap_distance((t - origin) % 1.0, proto.p, 1.0) < 1e-12
        gaps = {round(b - a, 12) for a, b in zip(beeps, beeps[1:])}
        assert gaps == {1.0}


def test_intervals_never_contain_neighbor_phase():
    cfg = bf_config(master_seed=19)
    topo = gnp(24, 0.2, rng.stream(19, "g"))
    result = run_beepfirst_trial(topo, cfg, seed_key=("lemma",))
    assert result.all_stable
    states = result.snapshot.by_node()
    for u, v in topo.edges():
        du = wrap_distance(states[u].global_phase, states[v].global_phase, 1.0)
        assert du > states[v].interval
        assert du > states[u].interval


def test_interval_formula_uses_neighborhood_max_degree():
    cfg = bf_config(master_seed=23, epsilon=0.2)
    topo = clique(5)
    result = run_beepfirst_trial(topo, cfg, seed_key=("formula",))
    for state in result.snapshot.states:
        dmax = topo.max_neighborhood_degree(state.node)
        assert state.interval == (1 - 0.2) * 1.0 / (2 * (dmax + 1))


def test_search_shorter_than_one_period():
    cfg = bf_config(master_seed=29)
    topo = clique(12)
    result = run_beepfirst_trial(topo, cfg, seed_key=("short",))
    assert result.search_overruns == 0
    for v in topo.nodes:
        assert result.protocols[v].search_listening < 1.0


def test_shared_streams_produce_identical_phases_and_a_tie():
    # two non-adjacent nodes with one common neighbor and identical streams
    # behave identically forever; the engine flags the coincident beeps
    topo = Topology.from_edges(3, [(0, 2), (1, 2)])
    cfg = bf_config(master_seed=37)
    from beepsim.continuous import ContinuousEngine

    def factory(v):
        key = (37, "twin", "p") if v in (0, 1) else (37, v, "p")
        return BeepFirst(0.1, topo.degree(v), topo.max_neighborhood_degree(v),
                         rng.stream(*key))

    engine = ContinuousEngine(topo, factory, {v: 0.0 for v in topo.nodes})
    engine.run_until(5.0)
    assert engine.protocols[0].p == engine.protocols[1].p
    assert engine.tie_collisions >= 1
    assert len(engine.heard_log(2)) >= 1


def test_staggered_wakeup_still_settles_within_three_periods():
    topo = gnp(16, 0.2, rng.stream(41, "g"))
    cfg = bf_config(master_seed=41, wakeup="random")
    result = run_beepfirst_trial(topo, cfg, seed_key=("stagger",))
    assert result.all_stable
    assert result.late_nodes == 0
    assert result.max_stable_delay < 3.0
