"""Slot-claiming protocol: buffers, free slots, coloring transitions."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import (
    ReferenceJitterAndJump,
    collision_escape_trial,
    free_slots_reference,
    heard_in_range_reference,
    in_range,
    measured_interval_reference,
)

from beepsim import rng
from beepsim.config import SimConfig
from beepsim.errors import ConfigError, ProtocolViolation
from beepsim.jitterjump import (
    JitterAndJump,
    PeriodReport,
    _FreeGaps,
    _nth_free,
    buffer_length,
    free_slots,
)
from beepsim.runner import run_jitterjump_trial
from beepsim.topology import clique, random_regular


def literal_free_slots(heard, b, q, own_phase=-1):
    """Literal guard-window definition, one (slot, marker) test at a time."""
    markers = set(heard)
    if own_phase >= 0:
        markers.add(own_phase % q)
    return [
        p
        for p in range(q)
        if not any(in_range(x, p - b - 2, p + b + 1, q) for x in markers)
    ]


def reference_free_slots(heard, b, q, own_phase=-1):
    """The same definition as one (Q x markers) broadcast of the wrap-aware
    closed range test of ``phases.in_range``: the oracle for
    ``free_slots_reference``."""
    markers = set(heard)
    if own_phase >= 0:
        markers.add(own_phase % q)
    x = np.array(sorted(markers), dtype=np.int64)
    p = np.arange(q, dtype=np.int64)[:, None]
    lo, hi = (p - b - 2) % q, (p + b + 1) % q
    inside = np.where(lo <= hi, (lo <= x) & (x <= hi), (x >= lo) | (x <= hi))
    return np.flatnonzero(~inside.any(axis=1)).tolist()


def proto(q=64, eta=1.0 / 16.0, seed=1, dynamic=False, window=4):
    return JitterAndJump(q, eta, rng.seed_words(seed, 0, "protocol")[0], dynamic=dynamic,
                         window=window)


def test_buffer_length_formula():
    assert buffer_length(1 / 16, 512, 1) == 16
    assert buffer_length(1 / 16, 256, 8) == 1
    assert buffer_length(1 / 16, 256, 100) == 1  # clamped to >= 1


def walked_free_slots(heard, b, q, own_phase=-1):
    """The count and every slot, in order, that ``free_slots`` gives one
    node: its one-node gaps take every rank at once."""
    gaps = free_slots(heard, b, q, own_phase=own_phase)
    if gaps is None:
        return q, list(range(q))
    (count,) = gaps.counts.tolist()
    return count, gaps.nth(np.arange(count)).tolist()


def test_free_slots_hand_example():
    # Q=32, b=2, one beep at 10: exactly slots 7..14 are blocked.
    count, free = walked_free_slots((10,), 2, 32)
    assert free == free_slots_reference((10,), 2, 32)
    assert sorted(set(range(32)) - set(free)) == list(range(7, 15))
    assert count == len(free) == 24
    gaps = free_slots((10,), 2, 32)
    slots = [_nth_free(gaps, k) for k in (0, 6, 7, 23)]
    assert slots == [0, 6, 15, 31]
    assert all(type(x) is int for x in slots)


def test_free_slots_empty_history():
    assert free_slots((), 3, 16) is None
    assert walked_free_slots((), 3, 16) == (16, free_slots_reference((), 3, 16))
    assert [_nth_free(None, k) for k in range(16)] == list(range(16))


def test_free_slots_includes_own_phase_marker():
    with_own = walked_free_slots((), 2, 32, own_phase=10)
    assert with_own == walked_free_slots((10,), 2, 32)
    assert with_own[1] == free_slots_reference((), 2, 32, own_phase=10)
    # the own phase counts mod Q
    assert walked_free_slots((), 2, 32, own_phase=42) == with_own


# small periods with few markers, and periods up to the Q = 8192 of a
# 128-degree star with up to 300 markers, so blocked runs merge and wrap
SMALL_PERIODS = st.tuples(st.integers(min_value=12, max_value=48), st.just(6))
LARGE_PERIODS = st.tuples(st.integers(min_value=49, max_value=8192), st.just(300))


@st.composite
def free_slot_cases(draw, periods=st.one_of(SMALL_PERIODS, LARGE_PERIODS)):
    q, most = draw(periods)
    count = draw(st.integers(min_value=0, max_value=min(most, q)))
    heard = draw(st.lists(st.integers(min_value=0, max_value=q - 1),
                          min_size=count, max_size=count))
    # keep the guard window narrower than the period, as every valid
    # configuration does (b <= eta*Q/2 <= Q/32); half the draws keep the
    # runs' total width near Q/2, so merged runs still leave gaps
    widest = (q - 5) // 2
    b = draw(st.one_of(
        st.integers(min_value=1, max_value=max(1, min(widest, q // (4 * max(count, 1))))),
        st.integers(min_value=1, max_value=widest),
    ))
    # the node's own phase is reduced mod Q, so values past Q are allowed;
    # -1 is none
    own = draw(st.one_of(st.just(-1), st.integers(min_value=0, max_value=3 * q)))
    return q, sorted(set(heard)), b, own


@settings(max_examples=100, deadline=None)
@given(free_slot_cases())
def test_free_slots_matches_reference(case):
    q, heard, b, own = case
    expected = free_slots_reference(tuple(heard), b, q, own_phase=own)
    assert expected == reference_free_slots(tuple(heard), b, q, own_phase=own)
    assert walked_free_slots(tuple(heard), b, q, own_phase=own) == (len(expected), expected)


@st.composite
def free_gap_cases(draw):
    """One Q in 1..256 and, per node, a buffer and a list of occupied
    slots; a node with none is not listed, and repeats are kept."""
    q = draw(st.integers(min_value=1, max_value=256))
    nodes = draw(st.integers(min_value=1, max_value=5))
    # narrow buffers leave free slots; wide ones reach 2b+4 >= Q
    buffers = st.one_of(st.integers(min_value=1, max_value=max(1, q // 16)),
                        st.integers(min_value=1, max_value=q))
    b = draw(st.lists(buffers, min_size=nodes, max_size=nodes))
    markers = draw(st.lists(st.lists(st.integers(min_value=0, max_value=q - 1), max_size=6),
                            min_size=nodes, max_size=nodes)
                   .filter(lambda lists: any(lists)))
    return q, b, markers


def free_gaps_of(b, markers, q, nodes):
    owner = [v for v in nodes for _ in markers[v]]
    marker = [x for v in nodes for x in markers[v]]
    return _FreeGaps(np.array(owner, dtype=np.int64), np.array(marker, dtype=np.int64),
                     np.array(b, dtype=np.int64), q)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(free_gap_cases())
@example((64, [2, 3], [[10, 10, 40], [5, 5]]))  # repeated markers
@example((12, [4, 1, 2], [[3], [0, 6], [2]]))  # 2b+4 >= Q; runs that cover Q; 4 free slots
@example((32, [2, 1, 3], [[31], [], [0, 30]]))  # runs that wrap past Q; node 1 unlisted
@example((1, [1], [[0]]))
@example((256, [1, 9], [[255, 0, 128], [250]]))
def test_free_gaps_match_reference_per_node(case):
    q, b, markers = case
    listed = [v for v in range(len(b)) if markers[v]]
    expected = {v: free_slots_reference(markers[v], b[v], q) for v in listed}
    counts = free_gaps_of(b, markers, q, listed).counts.tolist()
    assert counts == [len(expected[v]) for v in listed]
    assert all(count == 0 for v, count in zip(listed, counts) if 2 * b[v] + 4 >= q)
    # nth of the nodes that have a free slot: every rank of each in turn
    drawn = [v for v in listed if expected[v]]
    if not drawn:
        return
    gaps = free_gaps_of(b, markers, q, drawn)
    last = np.array([len(expected[v]) - 1 for v in drawn])
    for k in range(last.max() + 1):
        rank = np.minimum(k, last)
        assert gaps.nth(rank).tolist() == [expected[v][r] for v, r in zip(drawn, rank)]


@settings(max_examples=100, deadline=None)
@given(free_slot_cases(SMALL_PERIODS))
def test_broadcast_reference_matches_in_range(case):
    q, heard, b, own = case
    assert reference_free_slots(heard, b, q, own_phase=own) == literal_free_slots(
        heard, b, q, own_phase=own
    )


def test_measured_interval():
    assert measured_interval_reference((), 10, 32) == 31
    assert measured_interval_reference((5,), 10, 32) == 4
    assert measured_interval_reference((10,), 10, 32) == 0  # own slot occupied
    assert measured_interval_reference((11,), 10, 32) == 30  # only a trailing beep


@st.composite
def window_cases(draw):
    q = draw(st.integers(min_value=3, max_value=8192))
    phases = st.one_of(st.integers(min_value=0, max_value=q - 1), st.integers())
    heard = draw(st.lists(phases, max_size=40))
    # endpoints anywhere, including negative and >= Q, and ranges of every width
    a = draw(st.one_of(st.integers(min_value=-2 * q, max_value=3 * q), st.integers()))
    b = draw(st.one_of(st.integers(min_value=a - q, max_value=a + 2 * q), st.integers()))
    return q, tuple(heard), a, b, draw(phases)


@settings(max_examples=200, deadline=None)
@given(window_cases())
def test_window_checks_match_literal_references(case):
    q, heard, a, b, phase = case
    # the range [a, b] spelled out slot by slot, from a forward to b
    members = {(a + i) % q for i in range((b - a) % q + 1)}
    assert heard_in_range_reference(heard, a, b, q) == any(x % q in members for x in heard)
    # the interval found by widening [phase-s, phase] one slot at a time
    slots = {x % q for x in heard}
    widest = next((max(s - 1, 0) for s in range(q) if (phase - s) % q in slots), q - 1)
    assert measured_interval_reference(heard, phase, q) == widest


@st.composite
def heard_sequences(draw):
    # tiny periods reach the wrap of the window widths (2b or 3 mod Q) and
    # single free slots; larger ones fit enough beeps for a dynamic reset
    q, most = draw(st.one_of(st.tuples(st.integers(min_value=1, max_value=48), st.just(8)),
                             st.tuples(st.integers(min_value=49, max_value=256), st.just(24))))
    heard = st.lists(st.integers(min_value=0, max_value=q - 1), unique=True,
                     max_size=most).map(lambda xs: tuple(sorted(xs)))
    return (
        draw(st.booleans()),
        q,
        draw(st.sampled_from([1 / 16, 1 / 4, 1.0])),
        draw(st.integers(min_value=1, max_value=4)),
        # a colored phase to start from, as after a first period, so that
        # periods too short for any free slot still run their window tests
        draw(st.one_of(st.none(), st.integers(min_value=0, max_value=q - 1))),
        draw(st.lists(heard, min_size=1, max_size=8)),
        draw(st.integers(min_value=0, max_value=2**16)),
    )


@settings(max_examples=300, deadline=None, derandomize=True)
@given(heard_sequences())
@example((False, 7, 1 / 16, 1, None, [(3,), (), (0,)], 1))  # free_count == 1
@example((False, 3, 1 / 16, 1, 1, [(1,), (2,), (0,)], 2))  # near width 3 % 3 == 0
@example((False, 8, 1.0, 1, 2, [(2,), (5,), ()], 3))  # buffer width 2b % Q == 0
@example((True, 256, 1 / 16, 1, None, [tuple(range(0, 200, 10)), (), (7,)], 4))  # reset
def test_jitterjump_matches_reference(case):
    dynamic, q, eta, window, colored_at, periods, seed = case
    new = JitterAndJump(q, eta, rng.seed_words(seed, "protocol")[0], dynamic=dynamic,
                        window=window)
    ref = ReferenceJitterAndJump(q, eta, (seed, "protocol"), dynamic=dynamic, window=window)
    nodes = new, ref
    if colored_at is not None:
        for node in nodes:
            node.period, node.colored, node.p = 1, True, colored_at
    for heard in periods:
        outcomes = []
        for node in nodes:
            try:
                outcomes.append(node.on_period_end(heard))
            except ProtocolViolation as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]
        assert new.last_report == ref.last_report
        assert new.fingerprint() == ref.fingerprint()
        if isinstance(outcomes[0], str):
            break


def test_period_report_builds_positionally_and_by_keyword():
    fields = dict(period=3, phase=5, jitter=1, interval=7, beeps_heard=4, colored=True,
                  free_count=-1)
    report = PeriodReport(*fields.values())  # as tests/test_dynamic.py builds it
    assert report == PeriodReport(**fields)
    assert {name: getattr(report, name) for name in fields} == fields
    assert report.reset is False
    assert PeriodReport(*fields.values(), True).reset is True
    assert PeriodReport(**fields, reset=True).reset is True


def test_first_period_isolated_node():
    p = proto()
    offsets = p.on_period_end(())
    assert p.d_tilde == 1
    assert not p.colored
    assert len(offsets) == 1
    assert 0 <= offsets[0] <= 64


def test_first_period_counts_distinct_slots():
    p = proto()
    p.on_period_end((3, 9, 40))
    assert p.d_tilde == 3
    assert p.b == buffer_length(1 / 16, 64, 3)


def test_isolated_node_colors_in_second_period():
    p = proto()
    p.on_period_end(())      # first period: pick a slot
    p.on_period_end(())      # second period: nothing heard, coloring check passes
    assert p.colored
    assert p.interval == 63


def test_beep_inside_buffer_blocks_coloring():
    p = proto(q=64)
    p.on_period_end(())
    phase = p.p
    p.on_period_end(((phase + 1) % 64,))
    assert not p.colored


def test_uncolor_window_covers_jittered_collision():
    p = proto(q=64)
    p.on_period_end(())
    p.on_period_end(())
    assert p.colored
    phase = p.p
    # beep two slots after the nominal phase: inside [p-1, p+2]
    p.on_period_end(((phase + 2) % 64,))
    assert not p.colored
    # beep three slots after: outside the uncolor window, node stays colored
    p2 = proto(q=64, seed=5)
    p2.on_period_end(())
    p2.on_period_end(())
    phase2 = p2.p
    p2.on_period_end(((phase2 + 3) % 64, (phase2 - p2.b - 1) % 64))
    assert p2.colored


def test_redraw_avoids_guard_window():
    p = proto(q=64, seed=3)
    p.on_period_end(())
    phase = p.p
    heard = (7, 30, phase)  # a beep on its own phase keeps the node uncolored
    p.on_period_end(heard)
    assert not p.colored
    assert p.p in free_slots_reference(heard, p.b, 64, own_phase=phase)
    # phases and counts stay plain ints, as the CSV rows and --json print them
    assert type(p.p) is int and type(p.last_report.free_count) is int


def test_fingerprint_tracks_state():
    p1 = proto(seed=11)
    p2 = proto(seed=11)
    assert p1.fingerprint() == p2.fingerprint()
    p1.on_period_end((4,))
    p2.on_period_end((4,))
    assert p1.fingerprint() == p2.fingerprint()
    p1.on_period_end((9,))
    assert p1.fingerprint() != p2.fingerprint()


def test_config_rejects_bad_parameters():
    with pytest.raises(ConfigError):
        SimConfig(eta=0.2)
    with pytest.raises(ConfigError):
        SimConfig(eta=1 / 16, kappa=32)
    with pytest.raises(ConfigError):
        SimConfig(epsilon=1.5)
    with pytest.raises(ConfigError):
        SimConfig(epsilon=0.0)
    with pytest.raises(ConfigError):
        SimConfig(kappa=64.5).resolve_q(1)  # not a whole number of slots


def test_resolve_q_scales_with_delta():
    cfg = SimConfig()
    assert cfg.resolve_q(4) == 256
    assert cfg.resolve_q(0) == 64  # isolated graphs still get one period


def test_two_node_collision_detected_with_half_probability():
    cfg = SimConfig(master_seed=77)
    outcomes = [collision_escape_trial(cfg, ("collide", t)) for t in range(600)]
    freq = sum(outcomes) / len(outcomes)
    sigma = math.sqrt(0.25 / len(outcomes))
    assert freq >= 0.5 - 4 * sigma
    assert freq <= 0.5 + 4 * sigma  # aligned nominals: detection is exactly a coin flip


def test_small_clique_converges_and_stays_good():
    cfg = SimConfig(master_seed=5)
    result = run_jitterjump_trial(clique(6), cfg, seed_key=("clique", 0))
    assert result.converged
    assert result.monotonic_violations == 0
    assert result.sandwich_violations == 0
    assert result.free_floor_violations == 0
    assert all(lab == "good" for lab in result.final_labels.values())


def test_degree_estimate_lower_bounds_uncolored_neighbors():
    # Nodes with at least a dozen conflicting neighbors should, at least half
    # the time, hear at least a quarter as many distinct slots.
    cfg = SimConfig(master_seed=31, max_periods=2)
    n = 18
    hits = 0
    total = 0
    adj = clique(n).adjacency()
    for t in range(120):
        # each boundary after the first writes one row per node: the period-0
        # row says who stayed uncolored, and the static estimate drawn at the
        # next boundary is max(beeps heard, 1) of the period-1 row
        rows = run_jitterjump_trial(clique(n), cfg, seed_key=("estimate", t),
                                    collect_rows=True).rows
        uncolored = {r.node for r in rows if r.period == 0 and not r.colored}
        estimate = {r.node: max(r.beeps_heard, 1) for r in rows if r.period == 1}
        for v in adj:
            conflicted = len(adj[v] & uncolored)
            if conflicted >= 12:
                total += 1
                if estimate[v] >= conflicted / 4:
                    hits += 1
    assert total > 200
    sigma = math.sqrt(0.25 / total)
    assert hits / total >= 0.5 - 3 * sigma


def test_trial_is_reproducible():
    cfg = SimConfig(master_seed=42)
    topo = random_regular(16, 4, rng.stream(42, "g"))
    r1 = run_jitterjump_trial(topo, cfg, seed_key=("rep",), collect_rows=True)
    r2 = run_jitterjump_trial(topo, cfg, seed_key=("rep",), collect_rows=True)
    assert r1.rows == r2.rows
    assert r1.converged_period == r2.converged_period


@pytest.mark.parametrize("dynamic", [False, True], ids=["static", "dynamic"])
def test_unaligned_trial_completes_at_billions_of_slots(dynamic):
    # random wakeup takes the per-node engine path, which draws from one
    # node's gaps: a Q-long list of free slots here would hold billions of
    # ints.  The validators are not asserted: random-wakeup overlaps are
    # a separate, known failure
    cfg = SimConfig(master_seed=3, kappa=1e9, wakeup="random", dynamic=dynamic)
    tracemalloc.start()
    try:
        result = run_jitterjump_trial(clique(4), cfg, seed_key=("billions",))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.snapshot.tau == 3 * 10**9
    assert result.periods_run >= 1
    assert peak < 2**20
