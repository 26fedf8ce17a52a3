"""Dynamic mode: second beeps, windowed degree estimate, churn recovery."""

import math

import numpy as np
import pytest
from helpers import by_node, watch_boundaries

from beepsim import rng
from beepsim.analysis import ColoringSnapshot
from beepsim.config import SimConfig
from beepsim.errors import ConfigError
from beepsim.jitterjump import JitterAndJump, PeriodArrays
from beepsim.runner import _BoundaryChecks, run_jitterjump_trial
from beepsim.topology import DynamicEvent, Topology, clique, star


def fed_protocol(q=4096, window=1, seed=2):
    return JitterAndJump(q, 1 / 16, rng.seed_words(seed, 0, "protocol")[0],
                         dynamic=True, window=window)


def test_reset_threshold_is_strict():
    # estimate 160, window max 10 = 160/16 exactly: no rebuild; 9 rebuilds
    proto = fed_protocol()
    proto.on_period_end(tuple(range(160)))
    assert proto.d_tilde == 160
    proto.on_period_end(tuple(range(10)))
    assert not proto.last_report.reset
    assert proto.d_tilde == 160
    proto.on_period_end(tuple(range(9)))
    assert proto.last_report.reset
    assert proto.d_tilde == 9
    assert not proto.colored


def test_estimate_never_decreases_without_reset():
    proto = fed_protocol(window=4)
    proto.on_period_end(tuple(range(40)))
    estimates, resets = [], 0
    for heard in (30, 35, 20, 38, 25):
        proto.on_period_end(tuple(range(heard)))
        estimates.append(proto.d_tilde)
        resets += proto.last_report.reset
    assert estimates == sorted(estimates)
    assert resets == 0


def test_second_phase_beeps_every_period():
    proto = fed_protocol(q=256)
    proto.on_period_end(())
    offsets = proto.on_period_end(())
    assert len(offsets) == 2
    assert proto.p_prime >= 0
    # second phase is redrawn from the free slots each period
    assert 0 <= proto.p_prime < 256


def test_star_collapse_triggers_recolor_with_larger_interval():
    # degree 64 -> 1 is far past the threshold: the hub must rebuild its
    # estimate within r periods of the churn and settle on a wide interval
    n = 65
    churn = 20
    r = math.ceil(math.log2(n))
    cfg = SimConfig(master_seed=15, dynamic=True, r=r, max_periods=churn + 3 * r)
    events = tuple(DynamicEvent(churn, "remove_node", (v,)) for v in range(2, n))
    seen = {}

    def watch(engine, v, slot):
        report = engine.protocols[v].last_report
        if v == 0 and report is not None:
            seen[slot // engine.q] = report.reset

    with watch_boundaries(watch):
        res = run_jitterjump_trial(star(n), cfg, seed_key=("collapse",), events=events)
    reset_period = next((p for p in sorted(seen) if seen[p]), None)
    assert reset_period is not None
    assert churn < reset_period <= churn + r + 1
    assert res.restabilized_after(reset_period) is not None
    hub = by_node(res.final_snapshot)[0]
    assert hub.colored
    # post-churn the hub's only neighbor keeps a full buffer clear of it
    assert hub.interval >= (1 / 16) * res.final_snapshot.tau / (2 * 1 + 1)


def test_restabilization_metric_counts_from_event():
    n = 17
    cfg = SimConfig(master_seed=21, dynamic=True, r=4, max_periods=30)
    events = (DynamicEvent(10, "add_node", (n, 0)),)
    res = run_jitterjump_trial(star(n), cfg, seed_key=("join",), events=events)
    delay = res.restabilized_after(10)
    assert delay is not None
    # the joining node listens one full period before claiming a slot
    assert delay >= 2


def test_beep_bound_allows_the_degree_before_an_event():
    # 14 of 16 spokes leave at period 10; the hub's first boundary after
    # that reports beeps heard from all 16 spokes, within 4 per neighbor
    cfg = SimConfig(master_seed=1, dynamic=True, r=4, max_periods=14)
    events = tuple(DynamicEvent(10, "remove_node", (v,)) for v in range(3, 17))
    res = run_jitterjump_trial(star(17), cfg, seed_key=("churn",), events=events)
    assert res.window_observations > 0
    assert res.beep_bound_violations == 0


def test_beep_bound_is_four_beeps_per_neighbor_at_either_boundary():
    topo = star(5)
    checks = _BoundaryChecks(1 / 16, 256, dynamic=True, collect_rows=False)

    def stretch(graph, *beeps_heard):
        # the hub, node 0, reports the beeps it heard, if any are given
        hub = np.zeros(len(beeps_heard), dtype=np.int64)
        report = PeriodArrays(hub, hub - 1, hub - 1, hub - 1, np.array(beeps_heard, dtype=np.int64),
                              hub == 1, hub - 1, hub == 1)
        none = np.full(graph.n, -1)
        after = ColoringSnapshot(graph, 256, none, none, np.zeros(graph.n, dtype=bool))
        checks.on_period_boundary(after, hub, report, hub - 1, hub + 1)

    stretch(topo)  # wake: no report, degree 4 noted
    stretch(topo, 4 * 4 + 1)
    assert checks.beep_bound_violations == 1
    # two spokes leave
    shrunk = Topology.from_adjacency({v: nbrs - {3, 4} for v, nbrs in topo.adjacency().items()
                                      if v not in (3, 4)})
    stretch(shrunk, 4 * 4)  # degree 4 -> 2 inside the period: the larger one bounds it
    assert checks.beep_bound_violations == 1
    stretch(shrunk, 4 * 2 + 1)  # degree 2 at both ends
    assert checks.beep_bound_violations == 2


def test_events_need_a_dynamic_run():
    events = (DynamicEvent(2, "add_node", (17, 0)),)
    with pytest.raises(ConfigError, match="need a dynamic run"):
        run_jitterjump_trial(star(17), SimConfig(master_seed=1, max_periods=4), events=events)


def test_resets_count_nodes_removed_later():
    # node 1 resets after nodes 2-19 leave at period 10 and is itself
    # removed at period 30: its reset still counts
    events = tuple(DynamicEvent(10, "remove_node", (v,)) for v in range(2, 20))
    events += (DynamicEvent(30, "remove_node", (1,)),)
    cfg = SimConfig(master_seed=3, dynamic=True, r=4, max_periods=40)
    res = run_jitterjump_trial(clique(20), cfg, seed_key=("x",), events=events)
    assert res.resets == 9
