"""Phase arithmetic on a circular period.

Both engine variants measure events as *phases*: positions inside a
repeating period of length ``tau`` (Q slots in the discrete model, T time
units in the continuous one).  Ranges over phases are closed on both ends
and wrap around the period boundary, so ``[8, 2]`` on a period of 10 is
the arc 8, 9, 0, 1, 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator


def wrap_distance(a, b, tau):
    """Shortest circular distance between two phases."""
    d = (a - b) % tau
    return min(d, tau - d)


def in_range(phase, a, b, tau) -> bool:
    """Wrap-aware membership test for the closed range [a, b].

    ``a`` and ``b`` may be any numbers; they are reduced mod ``tau``.  If the
    reduced endpoints satisfy x <= y the range is the ordinary closed
    interval, otherwise it is the arc from x forward through the period
    boundary to y.
    """
    x = a % tau
    y = b % tau
    p = phase % tau
    if x <= y:
        return x <= p <= y
    return p >= x or p <= y


def to_global(phase, theta, tau):
    """Map a local phase to the shared reference frame."""
    return (phase + theta) % tau


def from_global(global_phase, theta, tau):
    """Map a global phase into the frame of a node with clock offset theta."""
    return (global_phase - theta) % tau


def lift_onto(anchor, phase, tau):
    """Unroll ``phase`` onto the real line so it lands in [anchor, anchor+tau).

    Used when scanning forward from ``anchor`` around the circle: the lifted
    value preserves scan order and may be negative if ``anchor`` is.
    """
    return anchor + ((phase - anchor) % tau)


@dataclass(frozen=True)
class PhaseSet:
    """Immutable ordered set of phases heard within one period."""

    phases: tuple
    period: float | int

    @classmethod
    def from_iterable(cls, values: Iterable, period) -> "PhaseSet":
        if period <= 0:
            raise ValueError("period must be positive")
        reduced = sorted({v % period for v in values})
        return cls(tuple(reduced), period)

    @property
    def is_empty(self) -> bool:
        return not self.phases

    def __len__(self) -> int:
        return len(self.phases)

    def __iter__(self) -> Iterator:
        return iter(self.phases)

    def __contains__(self, value) -> bool:
        return value % self.period in self.phases

    def range_query(self, a, b) -> "PhaseSet":
        """Subset of phases in the wrap-aware closed range [a, b]."""
        tau = self.period
        kept = tuple(p for p in self.phases if in_range(p, a, b, tau))
        return PhaseSet(kept, tau)

    def union(self, values: Iterable) -> "PhaseSet":
        return PhaseSet.from_iterable(list(self.phases) + list(values), self.period)
