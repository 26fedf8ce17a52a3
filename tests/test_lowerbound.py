"""Twin-coupling experiment on the block-cycle graph."""

import math

import pytest
from helpers import twin_coupling_reference
from hypothesis import given, settings, strategies as st

from beepsim.config import SimConfig
from beepsim.errors import ConfigError
from beepsim.lowerbound import (
    build_lowerbound_graph,
    expected_retention_floor,
    twin_coupling_experiment,
)
from beepsim.topology import twin_pairs

Q = SimConfig().resolve_q(build_lowerbound_graph(2).delta)  # 192 for every k


def test_graph_shape():
    g = build_lowerbound_graph(2)
    assert g.n == 8
    assert len(g.edges()) == 12


def test_shared_randomness_twins_never_diverge():
    stats = twin_coupling_experiment(4, slots=120, trials=30, seed=5,
                                     shared_randomness=True)
    assert stats.divergences == 0
    assert stats.retention_by_slot[-1] == 1.0


def test_shared_randomness_same_action_always():
    stats = twin_coupling_experiment(3, slots=100, trials=20, seed=6,
                                     shared_randomness=True)
    assert stats.same_action_frequency == 1.0


def test_independent_twins_same_action_floor():
    stats = twin_coupling_experiment(4, slots=400, trials=40, seed=7)
    n = stats.same_state_observations
    assert n > 0
    sigma = math.sqrt(0.25 / n)
    assert stats.same_action_frequency >= 0.5 - 3 * sigma


def test_retention_floor_helper():
    ell, floor = expected_retention_floor(16)
    assert ell == 4
    assert floor == pytest.approx(1 - 1 / math.e)


def test_retention_queries_validated():
    stats = twin_coupling_experiment(2, slots=10, trials=5, seed=8)
    with pytest.raises(ConfigError):
        stats.retention_at(10)
    assert 0.0 <= stats.retention_at(9) <= 1.0


def test_divergence_happens_eventually_without_sharing():
    # with independent streams the first redraw separates most pairs
    k = 4
    stats = twin_coupling_experiment(k, slots=3 * 192, trials=25, seed=9)
    assert stats.retention_by_slot[-1] < 1.0
    # but everyone is identical through the silent first period
    q = 64 * 3  # kappa * delta of the 3-regular block graph
    assert stats.retention_by_slot[q - 1] == 1.0


# slot counts up to 4Q, so that a run crosses several boundaries and may
# end inside a silent stretch, and a few either side of each boundary
slot_counts = st.one_of(
    st.integers(min_value=1, max_value=4 * Q),
    st.builds(lambda base, d: base + d, st.sampled_from((Q, 2 * Q, 3 * Q)),
              st.integers(min_value=-2, max_value=3)),
)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=8), slot_counts,
       st.integers(min_value=1, max_value=4), st.booleans(), st.integers(0, 2**16))
def test_experiment_matches_stepping_every_slot(k, slots, trials, shared, seed):
    assert twin_coupling_experiment(k, slots, trials, seed, shared) == twin_coupling_reference(
        k, slots, trials, seed, shared
    )
