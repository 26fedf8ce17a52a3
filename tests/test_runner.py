"""The runner's per-period good set against the snapshot classifier."""

from unittest import mock

import numpy as np
from helpers import valid_events
from hypothesis import given, settings, strategies as st

from beepsim import runner
from beepsim.analysis import GOOD, classify_good_bad
from beepsim.config import SimConfig
from beepsim.phases import wrap_distance
from beepsim.topology import DynamicEvent, Topology


def test_phase_clash_is_wrap_distance_at_most_one():
    for q in (1, 2, 3, 4, 7, 64):
        a, b = np.meshgrid(np.arange(q), np.arange(q))
        expected = np.vectorize(lambda x, y: wrap_distance(x, y, q) <= 1)(a, b)
        assert (runner._phases_clash(a, b, q) == expected).all()
        for x, y in zip(a.ravel().tolist(), b.ravel().tolist()):
            assert runner._phases_clash(x, y, q) == (wrap_distance(x, y, q) <= 1)


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
def test_array_good_set_matches_classifier_every_period(case):
    topo, wakeup, dynamic, candidates, seed = case
    events = valid_events(topo, candidates)
    # kappa 128 keeps free slots for nodes whose degree grows through events
    cfg = SimConfig(kappa=128.0, master_seed=seed, wakeup=wakeup, max_periods=10,
                    dynamic=dynamic)
    computed = []
    good_set = runner._EdgeArrays.good_set

    def recording_good_set(self):
        computed.append(good_set(self))
        return computed[-1]

    periods = []

    def hook(engine, period, labels):
        periods.append(period)
        assert computed[-1] == {v for v, label in labels.items() if label == GOOD}
        # the trace's per-node labels apply the same rule
        assert {v: runner._label_for(engine, v) for v in engine.alive} == labels

    with mock.patch.object(runner._EdgeArrays, "good_set", recording_good_set):
        result = runner.run_jitterjump_trial(topo, cfg, seed_key=("good",), events=events,
                                             state_hook=hook)
    assert periods == list(range(1, result.periods_run + 1))
    assert len(computed) == result.periods_run
    final_good = {v for v, label in result.final_labels.items() if label == GOOD}
    assert final_good == computed[-1]
    assert result.final_labels == classify_good_bad(result.final_snapshot, result.topology)
