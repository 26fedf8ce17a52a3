"""Global-knowledge validators over simulation snapshots.

Everything here sees the whole network at once, which the protocols never
do: interval disjointness across every edge, the good/bad classification,
the reduction from phases to an ordinary vertex coloring, and small
statistics helpers for convergence sweeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InternalInconsistencyError
from .phases import wrap_distance
from .topology import Topology

GOOD = "good"
BAD_COLORED = "bad-colored"
BAD_UNCOLORED = "bad-uncolored"


@dataclass(frozen=True)
class NodeState:
    """Externally observed state of one node."""

    node: int
    global_phase: float | int | None
    interval: float | int | None
    colored: bool


@dataclass(frozen=True)
class ColoringSnapshot:
    """Per-node (phase, interval, colored) triple plus the period length."""

    tau: float | int
    states: tuple[NodeState, ...]

    def by_node(self) -> dict[int, NodeState]:
        return {s.node: s for s in self.states}


@dataclass(frozen=True)
class IntervalReport:
    """Outcome of checking interval disjointness across every edge."""

    pairs_checked: int
    violations: tuple[tuple[int, int], ...]
    min_normalized_interval: float | None

    @property
    def ok(self) -> bool:
        return not self.violations


def _arcs_intersect(end_a, len_a, end_b, len_b, tau) -> bool:
    # Arcs [end - len, end], closed, wrap-aware.
    return (end_b - end_a) % tau <= len_b or (end_a - end_b) % tau <= len_a


def validate_interval_coloring(
    snapshot: ColoringSnapshot,
    topology: Topology,
    eta: float | None = None,
    q: int | None = None,
) -> IntervalReport:
    """Check that [p-I, p] arcs of adjacent colored nodes never overlap.

    When ``eta`` and ``q`` are given the report also carries the smallest
    normalized interval min I*(2*dmax+1)/(eta*Q), which is at least 1 when
    every node meets the guaranteed interval floor.
    """
    states = snapshot.by_node()
    tau = snapshot.tau
    violations = []
    pairs = 0
    for u, v in topology.edges():
        su, sv = states.get(u), states.get(v)
        if su is None or sv is None:
            continue
        if su.global_phase is None or sv.global_phase is None:
            continue
        if not (su.colored and sv.colored):
            continue
        pairs += 1
        if _arcs_intersect(
            su.global_phase, su.interval or 0, sv.global_phase, sv.interval or 0, tau
        ):
            violations.append((u, v))
    min_norm = None
    if eta is not None and q is not None:
        norms = [
            s.interval * (2 * topology.max_neighborhood_degree(s.node) + 1) / (eta * q)
            for s in snapshot.states
            if s.colored and s.interval is not None and s.node in topology
        ]
        min_norm = min(norms) if norms else None
    return IntervalReport(pairs, tuple(violations), min_norm)


def symmetric_window_violations(snapshot: ColoringSnapshot, topology: Topology) -> list[tuple[int, int]]:
    """Edges where one endpoint's phase falls inside the other's symmetric interval.

    The continuous protocol guarantees the stronger symmetric property
    p_u not in [p_v - I_v, p_v + I_v] for stable neighbors.
    """
    states = snapshot.by_node()
    tau = snapshot.tau
    bad = []
    for u, v in topology.edges():
        su, sv = states.get(u), states.get(v)
        if su is None or sv is None or su.global_phase is None or sv.global_phase is None:
            continue
        d = wrap_distance(su.global_phase, sv.global_phase, tau)
        if d <= (sv.interval or 0) or d <= (su.interval or 0):
            bad.append((u, v))
    return bad


def classify_good_bad(snapshot: ColoringSnapshot, topology: Topology) -> dict[int, str]:
    """Label nodes good / bad-colored / bad-uncolored.

    A node is good when it is colored and no neighbor holds a phase within
    wrap-aware distance 1 of its own; phaseless neighbors (still in their
    first period) cannot conflict.
    """
    states = snapshot.by_node()
    labels: dict[int, str] = {}
    tau = snapshot.tau
    for v in topology.nodes:
        sv = states.get(v)
        if sv is None or not sv.colored:
            labels[v] = BAD_UNCOLORED
            continue
        conflict = False
        for u in topology.neighbors(v):
            su = states.get(u)
            if su is None or su.global_phase is None:
                continue
            if wrap_distance(su.global_phase, sv.global_phase, tau) <= 1:
                conflict = True
                break
        labels[v] = BAD_COLORED if conflict else GOOD
    return labels


def hardness_reduction(
    local_phases: dict[int, int], offsets: dict[int, int], q: int, topology: Topology
) -> dict[int, int]:
    """Turn phases plus clock offsets into a proper vertex coloring.

    Colors are c_v = (p_v + theta_v) mod Q.  A valid snapshot can never
    produce two adjacent equal colors; if it does, something upstream is
    broken, so that case raises instead of returning.
    """
    colors = {v: (local_phases[v] + offsets[v]) % q for v in local_phases}
    for u, v in topology.edges():
        if u in colors and v in colors and colors[u] == colors[v]:
            raise InternalInconsistencyError(
                f"adjacent nodes {u} and {v} share color {colors[u]}"
            )
    if len(set(colors.values())) > q:
        raise InternalInconsistencyError("more colors than slots")
    return colors


def neighbor_phase_ties(snapshot: ColoringSnapshot, topology: Topology) -> int:
    """Adjacent pairs sharing bit-identical global phases (should be zero)."""
    states = snapshot.by_node()
    ties = 0
    for u, v in topology.edges():
        su, sv = states.get(u), states.get(v)
        if su is None or sv is None:
            continue
        if su.global_phase is not None and su.global_phase == sv.global_phase:
            ties += 1
    return ties


def fit_log_growth(ns, values) -> tuple[float, float]:
    """Fit values ~ C*ln(n); returns (C, affine slope against ln n)."""
    xs = [math.log(n) for n in ns]
    ys = list(values)
    if len(xs) != len(ys) or not xs:
        raise ValueError("need equally many sizes and values")
    c = sum(x * y for x, y in zip(xs, ys)) / sum(x * x for x in xs)
    mean_x = sum(xs) / len(xs)
    mean_y = sum(ys) / len(ys)
    var = sum((x - mean_x) ** 2 for x in xs)
    slope = (
        sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)) / var if var else 0.0
    )
    return c, slope
