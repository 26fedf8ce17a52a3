"""Twin-coupling experiment on the block-cycle graph."""

import math

import pytest
from helpers import twin_coupling_reference
from hypothesis import example, given, settings, strategies as st

from beepsim import lowerbound
from beepsim.cli import main
from beepsim.config import SimConfig
from beepsim.errors import ConfigError
from beepsim.lowerbound import (
    build_lowerbound_graph,
    expected_retention_floor,
    twin_coupling_experiment,
)
from beepsim.jitterjump import StaticJitterJumpArrays

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
# end inside a stretch, and each of the three slots either side of a boundary
slot_counts = st.one_of(
    st.integers(min_value=1, max_value=4 * Q),
    st.builds(lambda base, d: base + d, st.sampled_from((Q, 2 * Q, 3 * Q)),
              st.integers(min_value=-3, max_value=3)),
)


def run_in_batches(k, slots, trials, seed, shared, batch_trials):
    """The experiment with batches of ``batch_trials`` trials."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lowerbound, "BATCH_NODES", 4 * k * batch_trials)
        return twin_coupling_experiment(k, slots, trials, seed, shared)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(min_value=2, max_value=16), slot_counts,
       st.integers(min_value=1, max_value=4), st.booleans(), st.integers(0, 2**16),
       st.integers(min_value=1, max_value=3))
@example(16, Q - 3, 3, False, 11, 2)
@example(16, Q + 3, 4, True, 12, 1)
@example(16, 2 * Q + 1, 4, False, 13, 3)
@example(16, 3 * Q, 3, True, 14, 2)
# one pair drew the same phase and jitter and stays identical into the
# third stretch, and another pair's twins act differently at slot Q
@example(16, 3 * Q + 3, 4, False, 49, 1)
# a pair that diverged draws the same phase and jitter again, but its
# twins' intervals, measured from their old phases, differ
@example(16, 4 * Q, 4, False, 263, 2)
def test_experiment_matches_stepping_every_slot(k, slots, trials, shared, seed, batch_trials):
    got = run_in_batches(k, slots, trials, seed, shared, batch_trials)
    assert got == twin_coupling_reference(k, slots, trials, seed, shared)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.integers(min_value=2, max_value=16), st.integers(min_value=1, max_value=6 * Q),
       st.integers(min_value=1, max_value=64), st.booleans(), st.integers(0, 2**16),
       st.integers(min_value=1, max_value=5))
def test_stats_do_not_depend_on_the_batch_size(k, slots, trials, shared, seed, batch_trials):
    assert run_in_batches(k, slots, trials, seed, shared, batch_trials) == (
        twin_coupling_experiment(k, slots, trials, seed, shared))


def test_divergences_count_each_leaking_pair_once(monkeypatch):
    # a protocol that moves the second twin's phase at the second boundary
    # leaks identity: every pair diverges on slot 2Q+1 and counts once
    step = StaticJitterJumpArrays.step

    def leaky(self):
        offsets = step(self)
        if self.period == 2:
            self.p[2::4] = (self.p[2::4] + 1) % Q
        return offsets

    monkeypatch.setattr(StaticJitterJumpArrays, "step", leaky)
    k, trials, slots = 3, 5, 4 * Q
    stats = twin_coupling_experiment(k, slots, trials, seed=4, shared_randomness=True)
    assert stats.divergences == k * trials
    assert stats.same_state_observations == k * trials * (2 * Q + 1)
    assert stats.same_action_matches == stats.same_state_observations
    assert stats.retention_by_slot[2 * Q] == 1.0
    assert set(stats.retention_by_slot[2 * Q + 1:]) == {0.0}


# TwinCouplingStats of the benchmark's experiment, as the experiment gave
# them when it stepped one engine per trial; they differ by seed only in
# the mismatches at slot Q
@pytest.mark.parametrize("seed, mismatches", [(1, 3), (7, 1)])
def test_benchmark_sized_stats_are_pinned(seed, mismatches):
    shared = twin_coupling_experiment(16, 512, 20, seed, shared_randomness=True)
    assert (shared.divergences, shared.same_state_observations,
            shared.same_action_matches) == (0, 163840, 163840)
    assert shared.retention_by_slot == (1.0,) * 512
    free = twin_coupling_experiment(16, 512, 20, seed, shared_randomness=False)
    assert (free.divergences, free.same_state_observations,
            free.same_action_matches) == (0, 61760, 61760 - mismatches)
    assert free.retention_by_slot == (1.0,) * 193 + (0.0,) * 319


ORACLE_STDOUT = """\
blocks k=16 slots=512 trials=20
shared-randomness divergences: 0
same-state same-action frequency: 1.0000 (floor 0.5 - 3 sigma = 0.4940)
identical-pair retention at slot 4: 1.0000 (floor 0.3086)
note: this exercises the coupling mechanism at desk scale, not the asymptotic impossibility itself
"""


@pytest.mark.parametrize("seed", ["1", "7"])
def test_oracle_stdout_is_pinned(seed, capsys):
    code = main(["oracle", "lowerbound", "--k", "16", "--slots", "512", "--trials", "20",
                 "--seed", seed])
    assert code == 0
    assert capsys.readouterr().out == ORACLE_STDOUT
