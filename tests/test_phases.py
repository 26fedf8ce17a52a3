"""Wrap-aware phase arithmetic."""

import math

from helpers import in_range, wrap_distance
from hypothesis import example, given, settings, strategies as st

from beepsim.phases import PhaseSet, lift_onto


def make(values, tau=10):
    return PhaseSet.from_iterable(values, tau)


def test_range_query_plain():
    s = make({1, 5, 9})
    assert tuple(s.range_query(4, 6)) == (5,)


def test_range_query_wraps_through_boundary():
    s = make({1, 5, 9})
    assert tuple(s.range_query(8, 2)) == (1, 9)


def test_range_query_empty_set():
    assert make(set()).range_query(0, 9).phases == ()


def test_range_query_full_range_is_identity():
    s = make({0, 3, 7, 9.5})
    assert tuple(s.range_query(0, math.nextafter(10, 0))) == tuple(s)


def test_endpoints_are_inclusive():
    s = make({2, 6})
    assert 2 in s.range_query(2, 3).phases
    assert 6 in s.range_query(5, 6).phases


def test_negative_and_oversized_endpoints_reduce():
    s = make({1, 5, 9})
    assert tuple(s.range_query(-2, 12)) == (1, 9)  # [8, 2] after reduction


def test_wrap_distance():
    assert wrap_distance(0, 15, 16) == 1
    assert wrap_distance(3, 3, 16) == 0
    assert wrap_distance(2, 10, 16) == 8


def test_lift_onto():
    assert lift_onto(-2.5, 8.0, 10.0) == -2.0
    assert lift_onto(4, 1, 10) == 11


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.integers(min_value=2, max_value=24).flatmap(
        lambda q: st.tuples(
            st.just(q),
            st.sets(st.integers(min_value=0, max_value=q - 1), max_size=q),
            st.integers(min_value=-q, max_value=2 * q),
            st.integers(min_value=-q, max_value=2 * q),
        )
    )
)
def test_partition_property(case):
    # range [a, b] and its circular complement [b+1, a-1] split S exactly,
    # provided the complement is not degenerate.
    q, values, a, b = case
    if (b + 1) % q == a % q:
        return
    s = make(values, q)
    left = set(s.range_query(a, b))
    right = set(s.range_query(b + 1, a - 1))
    assert left | right == set(s)
    assert not (left & right)


@st.composite
def range_cases(draw):
    """A set, a range whose endpoints are often members, and a probe.

    Endpoints also come out equal (``a == b``), reversed (a wrapped
    range) and outside [0, q) (reduced first)."""
    q = draw(st.integers(min_value=2, max_value=32))
    values = draw(st.sets(st.integers(min_value=0, max_value=q - 1), max_size=8))
    point = st.integers(min_value=-q, max_value=2 * q)
    if values:
        point = st.one_of(st.sampled_from(sorted(values)), point)
    a = draw(point)
    b = draw(st.one_of(st.just(a), point))
    probe = draw(st.integers(min_value=0, max_value=q - 1))
    return q, values, a, b, probe


@settings(max_examples=300, deadline=None, derandomize=True)
@example((10, {1, 5, 9}, 9, 1, 0))  # wrapped, both endpoints members
@example((10, {1, 5, 9}, 5, 5, 5))  # a == b on a member
@example((10, {1, 5, 9}, 4, 4, 4))  # a == b between members
@example((10, {0, 9}, 9, 0, 9))  # wrapped range of exactly the two ends
@given(range_cases())
def test_in_range_matches_range_query(case):
    q, values, a, b, probe = case
    s = make(values, q)
    got = tuple(s.range_query(a, b))
    assert got == tuple(sorted(x for x in values if in_range(x, a, b, q)))  # ascending
    assert (probe in set(got)) == (probe in values and in_range(probe, a, b, q))
