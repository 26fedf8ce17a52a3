"""Occupancy oracle: exact distribution, brute-force cross-check, sampling."""

import itertools
import math
import sys
import threading
from fractions import Fraction

import pytest
from helpers import bb_montecarlo_reference
from hypothesis import example, given, settings, strategies as st

from beepsim import ballsbins
from beepsim.ballsbins import (
    MONTECARLO_CHUNK_DRAWS,
    amplification_rounds,
    bb_enumerate,
    bb_exact,
    bb_montecarlo,
    stirling2_row,
)
from beepsim.errors import ConfigError


def brute_counts(m, n):
    """Count occupied bins over all n^m placements the slow, obvious way."""
    counts = {}
    for placement in itertools.product(range(n), repeat=m):
        z = len(set(placement))
        counts[z] = counts.get(z, 0) + 1
    return counts


def test_stirling_small_values():
    assert stirling2_row(4) == [0, 1, 7, 6, 1]
    assert stirling2_row(1) == [0, 1]


def test_single_ball():
    dist = bb_exact(1, 5)
    assert dist.pmf == {1: Fraction(1)}
    assert dist.expected == 1


def test_two_balls_two_bins_by_hand():
    # 4 placements: (0,0) (1,1) -> one bin; (0,1) (1,0) -> two bins.
    dist = bb_exact(2, 2)
    assert dist.pmf == {1: Fraction(1, 2), 2: Fraction(1, 2)}
    assert dist.expected == Fraction(3, 2)


def test_zero_balls_degenerate():
    dist = bb_exact(0, 3)
    assert dist.pmf == {0: Fraction(1)}


def test_exact_matches_brute_force_grid():
    for m, n in [(2, 2), (3, 2), (3, 3), (4, 3), (5, 4), (6, 4), (4, 6), (7, 3)]:
        counts = brute_counts(m, n)
        dist = bb_exact(m, n)
        total = n**m
        assert dist.pmf == {k: Fraction(c, total) for k, c in counts.items()}


def test_enumerate_matches_brute_force():
    # every pair with n^m <= 10^5 on gate 9's grid, m > n and n > m alike
    pairs = [(m, n) for n in range(1, 13) for m in range(1, 25) if n**m <= 10**5]
    assert (16, 2) in pairs and (1, 12) in pairs and (4, 12) in pairs
    for m, n in pairs:
        counts = bb_enumerate(m, n)
        assert counts == brute_counts(m, n), (m, n)
        assert list(counts) == sorted(counts)
        assert all(type(v) is int for v in counts.values())


def test_enumerate_refuses_oversized(monkeypatch):
    monkeypatch.setattr(ballsbins, "ENUMERATION_LIMIT", 10**6)
    with pytest.raises(ConfigError):
        bb_enumerate(30, 10)


def test_enumerate_limit_counts_occupancy_vectors(monkeypatch):
    # C(7+10-1, 10-1) = 11440 vectors stand for the 10^7 placements
    monkeypatch.setattr(ballsbins, "ENUMERATION_LIMIT", 11440)
    assert sum(bb_enumerate(7, 10).values()) == 10**7
    monkeypatch.setattr(ballsbins, "ENUMERATION_LIMIT", 11439)
    with pytest.raises(ConfigError, match="11440 occupancy vectors"):
        bb_enumerate(7, 10)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(min_value=1, max_value=7), st.integers(min_value=1, max_value=7))
def test_exact_matches_enumeration(m, n):
    counts = bb_enumerate(m, n)
    dist = bb_exact(m, n)
    total = n**m
    assert dist.pmf == {k: Fraction(c, total) for k, c in counts.items()}


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(min_value=1, max_value=40), st.integers(min_value=1, max_value=40))
def test_expected_occupancy_closed_form(m, n):
    # E[occupied] = n * (1 - (1 - 1/n)^m), an independent derivation.
    dist = bb_exact(m, n)
    expected = Fraction(n) * (1 - (1 - Fraction(1, n)) ** m)
    assert dist.expected == expected


def test_occupancy_gate_at_twelve():
    dist = bb_exact(12, 12)
    assert dist.prob_greater(3) > Fraction(1, 2)
    assert dist.expected > 6


def test_montecarlo_agrees_with_exact():
    m, n, trials = 4, 6, 200_000
    dist = bb_exact(m, n)
    emp = bb_montecarlo(m, n, trials, seed=123)
    for k, p in dist.pmf.items():
        sigma = math.sqrt(float(p) * (1 - float(p)) / trials)
        assert abs(emp.get(k, 0.0) - float(p)) <= 4 * sigma


def test_montecarlo_is_seeded():
    assert bb_montecarlo(3, 5, 1000, seed=9) == bb_montecarlo(3, 5, 1000, seed=9)
    assert bb_montecarlo(3, 5, 1000, seed=9) != bb_montecarlo(3, 5, 1000, seed=10)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    st.integers(min_value=1, max_value=48),
    # both sides of the int16 sort, the largest int32 bound, and one bound
    # that stays on int64 draws
    st.sampled_from((1, 2, 2**15 - 1, 2**15, 2**15 + 1, 2**31, 2**31 + 1)),
    st.integers(min_value=1, max_value=1000),
    st.integers(min_value=0, max_value=2**16),
)
@example(1, 2**31 + 1, 1, 0)
@example(1, 3, 7, 5)  # one ball: a single occupied bin in every trial
@example(2, 2**15, 7, 3)
@example(24, 240, 1000, 5)
@example(8, 240, 1, 2)  # the padding and the bins each fill a whole word
@example(9, 2**15, 500, 4)  # the padding shares a word with the first bin
def test_montecarlo_matches_reference(m, n, extra, seed):
    chunk = max(1, MONTECARLO_CHUNK_DRAWS // m)
    trials = 2 * chunk + extra  # three chunks, the last one partial
    assert bb_montecarlo(m, n, trials, seed) == bb_montecarlo_reference(m, n, trials, seed)


def test_montecarlo_zero_balls():
    assert bb_montecarlo(0, 4, 100, seed=1) == {0: 1.0}


@pytest.mark.parametrize("m, n", [(-1, 4), (3, 0), (0, 0), (0, -2), (-1, 0)])
def test_montecarlo_rejects_bad_input(m, n):
    with pytest.raises(ConfigError, match=r"need n >= 1 and m >= 0"):
        bb_montecarlo(m, n, 100, seed=1)
    with pytest.raises(ConfigError, match=r"need n >= 1 and m >= 0"):
        bb_exact(m, n)


def test_montecarlo_under_fast_thread_switches():
    # the calling thread and the counting thread trade the GIL every microsecond
    m, n = 5, 7
    trials = 3 * (MONTECARLO_CHUNK_DRAWS // m) + 11  # four chunks, the last one partial
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = bb_montecarlo(m, n, trials, seed=21)
    finally:
        sys.setswitchinterval(interval)
    assert got == bb_montecarlo_reference(m, n, trials, seed=21)


def test_montecarlo_leaves_no_thread_behind():
    before = threading.enumerate()
    bb_montecarlo(24, 240, 3 * (MONTECARLO_CHUNK_DRAWS // 24), seed=3)
    assert threading.enumerate() == before


@pytest.mark.parametrize("failing_chunk", [0, 1, 2])
def test_montecarlo_raises_a_counting_error(failing_chunk, monkeypatch):
    count = ballsbins._count_occupied
    calls = []

    def failing_count(*args):
        calls.append(threading.current_thread())
        if len(calls) > failing_chunk:
            raise ZeroDivisionError("counting failed")
        return count(*args)

    monkeypatch.setattr(ballsbins, "_count_occupied", failing_count)
    before = threading.enumerate()
    with pytest.raises(ZeroDivisionError, match="counting failed"):
        bb_montecarlo(24, 240, 3 * (MONTECARLO_CHUNK_DRAWS // 24), seed=3)
    assert threading.enumerate() == before
    assert len(calls) == failing_chunk + 1  # no chunk is counted after the failing one
    assert threading.main_thread() not in calls
    assert not any(thread.is_alive() for thread in calls)


def test_amplification_examples():
    assert amplification_rounds(2, 0.5, 1, 16) == pytest.approx(8 * math.log(16))
    assert amplification_rounds(1, 1.0, 0, math.e) == pytest.approx(1.0)
    with pytest.raises(ConfigError):
        amplification_rounds(1, 0.0, 1, 16)
    with pytest.raises(ConfigError):
        amplification_rounds(1, 1.5, 1, 16)
    for bad in ((math.nan, 0.5, 1, 16), (1, 0.5, math.nan, 16), (1, 0.5, 1, math.nan),
                (math.inf, 0.5, 1, 16), (1, 0.5, math.inf, 16), (1, 0.5, 1, math.inf)):
        with pytest.raises(ConfigError):
            amplification_rounds(*bad)
