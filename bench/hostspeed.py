"""How fast the host runs right now, from a fixed pure-Python kernel.

The shared VMs this benchmark was sized on switch between a fast and a
slow phase about 1.8x apart, for seconds to minutes at a time, with no
steal time reported and CPU time equal to wall time (see NOTES.md). A run
of 30 s cannot outlast such a phase, so raw host seconds differ between
runs by the phase they fell into. The kernel below slows down with the
host: its time, measured right before and after each timed region,
gives the factor that converts host seconds into *reference seconds*,
the seconds the same work takes when the kernel runs in
``REFERENCE_KERNEL_S``. The kernel does not touch beepsim, so a change to
the program under test does not change the factor.
"""

from __future__ import annotations

import time

REFERENCE_KERNEL_S = 0.010  # the kernel's time in the fast phase of the sizing VM
ITERATIONS = 24_000
REPEATS = 2  # best of two: one run can straddle a phase change


def kernel() -> int:
    """Fixed dict, set and sort work, like the interpreter paths beepsim uses."""
    counts: dict[int, int] = {}
    live: set[int] = set()
    acc = 0
    for i in range(ITERATIONS):
        k = (i * 7919) % 10007
        counts[k] = counts.get(k, 0) + 1
        if k & 1:
            live.add(k)
        else:
            live.discard(k - 1)
        acc += len(live) & 3
    return acc + len(sorted(counts.items()))


def factor() -> float:
    """Reference seconds per host second now: below 1 while the host runs slow."""
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - start)
    return REFERENCE_KERNEL_S / best
