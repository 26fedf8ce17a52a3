"""Phase arithmetic on a circular period.

Both engine variants measure events as *phases*: positions inside a
repeating period of length ``tau`` (Q slots in the discrete model, T time
units in the continuous one).  Ranges over phases are closed on both ends
and wrap around the period boundary, so ``[8, 2]`` on a period of 10 is
the arc 8, 9, 0, 1, 2.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Iterable, Iterator


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

    def __iter__(self) -> Iterator:
        return iter(self.phases)

    def range_query(self, a, b) -> "PhaseSet":
        """Subset of phases in the wrap-aware closed range [a, b].

        Bisects the sorted members, already reduced mod ``period``, at
        x = a and y = b reduced.  A wrapped range (x > y) is the members up
        to y followed by those from x on, so the result stays ascending.
        """
        tau = self.period
        phases = self.phases
        x = a % tau
        y = b % tau
        if x <= y:
            kept = phases[bisect_left(phases, x):bisect_right(phases, y)]
        else:
            kept = phases[:bisect_right(phases, y)] + phases[bisect_left(phases, x):]
        return PhaseSet(kept, tau)

    def union(self, values: Iterable) -> "PhaseSet":
        return PhaseSet.from_iterable(list(self.phases) + list(values), self.period)
