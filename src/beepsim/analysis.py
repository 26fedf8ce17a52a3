"""Global-knowledge validators over simulation snapshots.

Everything here sees the whole network at once, which the protocols never
do: interval disjointness across every edge, the good/bad classification,
the reduction from phases to an ordinary vertex coloring, and small
statistics helpers for convergence sweeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InternalInconsistencyError
from .topology import Topology, TopologyArrays

GOOD = "good"
BAD_COLORED = "bad-colored"
BAD_UNCOLORED = "bad-uncolored"


def phases_clash(a, b, tau):
    """The good/bad rule: phase ``a`` clashes with phase ``b`` when the wrap
    distance from ``a`` to ``b``, as measured from ``a``, is at most 1.

    For integer phases the rule is symmetric; in floats the two directions
    can round to different sides of 1.  Takes numbers or numpy arrays alike.
    """
    d = (a - b) % tau
    return (d <= 1) | (tau - d <= 1)


def label_names(colored, bad) -> list[str]:
    """Per node: uncolored, colored but ``bad`` (a neighbour clashes), or good."""
    codes = np.where(colored, np.where(bad, 1, 2), 0).tolist()
    return [(BAD_UNCOLORED, BAD_COLORED, GOOD)[c] for c in codes]


@dataclass(frozen=True, eq=False)
class ColoringSnapshot:
    """Every node of ``topology`` as a period leaves it: its global
    ``phase`` and ``interval``, -1 where it holds none, and its ``colored``
    flag, each an array in ``topology.arrays.nodes`` order; ``tau`` is the
    period length."""

    topology: Topology
    tau: float | int
    phase: np.ndarray
    interval: np.ndarray
    colored: np.ndarray


@dataclass(frozen=True)
class IntervalReport:
    """Outcome of checking interval disjointness across every edge."""

    pairs_checked: int
    violations: tuple[tuple[int, int], ...]
    min_normalized_interval: float | None


def validate_interval_coloring(snapshot: ColoringSnapshot,
                               eta: float | None = None) -> IntervalReport:
    """Check that [p-I, p] arcs of adjacent colored nodes never overlap.

    Arcs are closed and wrap around the period; a node holding no interval
    spans its phase alone.  When ``eta`` is given the report also carries
    the smallest normalized interval min I*(2*dmax+1)/(eta*Q), Q the
    snapshot's period, which is at least 1 when every node meets the
    guaranteed interval floor.
    """
    view = snapshot.topology.arrays
    tau, phase, colored = snapshot.tau, snapshot.phase, snapshot.colored
    held = (phase >= 0) & colored
    checked = held[view.src] & held[view.dst]
    iu, iv = view.src[checked], view.dst[checked]
    pu, pv = phase[iu], phase[iv]
    length = np.maximum(snapshot.interval, 0)
    hit = ((pv - pu) % tau <= length[iv]) | ((pu - pv) % tau <= length[iu])
    violations = tuple(zip(view.u[checked][hit].tolist(), view.v[checked][hit].tolist()))
    min_norm = None
    if eta is not None:
        measured = colored & (snapshot.interval >= 0)
        if measured.any():
            norms = snapshot.interval[measured] * (2 * view.dmax[measured] + 1) / (eta * tau)
            min_norm = float(norms.min())
    return IntervalReport(int(checked.sum()), violations, min_norm)


def _held_edges(view: TopologyArrays, values: np.ndarray) -> tuple[np.ndarray, ...]:
    """The edges whose both ends hold a value (not -1): a mask over the
    edges, and the values at their u and v ends."""
    held = values >= 0
    both = held[view.src] & held[view.dst]
    return both, values[view.src[both]], values[view.dst[both]]


def symmetric_window_violations(snapshot: ColoringSnapshot) -> list[tuple[int, int]]:
    """Edges where one endpoint's phase falls inside the other's symmetric interval.

    The continuous protocol guarantees the stronger symmetric property
    p_u not in [p_v - I_v, p_v + I_v] for stable neighbors.
    """
    view, tau = snapshot.topology.arrays, snapshot.tau
    both, pu, pv = _held_edges(view, snapshot.phase)
    length = np.maximum(snapshot.interval, 0)
    d = (pu - pv) % tau
    d = np.minimum(d, tau - d)  # wrap distance
    bad = (d <= length[view.dst[both]]) | (d <= length[view.src[both]])
    return list(zip(view.u[both][bad].tolist(), view.v[both][bad].tolist()))


def classify_good_bad(snapshot: ColoringSnapshot) -> dict[int, str]:
    """Label nodes good / bad-colored / bad-uncolored.

    A node is good when it is colored and no neighbor holds a phase within
    wrap-aware distance 1 of its own; phaseless neighbors (still in their
    first period) cannot conflict.
    """
    view, tau = snapshot.topology.arrays, snapshot.tau
    both, pu, pv = _held_edges(view, snapshot.phase)
    src, dst = view.src[both], view.dst[both]
    bad = np.zeros(len(view.nodes), dtype=bool)
    bad[dst[phases_clash(pu, pv, tau)]] = True  # v's neighbor u clashes with v
    bad[src[phases_clash(pv, pu, tau)]] = True
    return dict(zip(view.nodes.tolist(), label_names(snapshot.colored, bad)))


def hardness_reduction(snapshot: ColoringSnapshot, offsets: np.ndarray) -> np.ndarray:
    """Turn phases plus clock offsets into a proper vertex coloring.

    Each node holding a phase gets the color (phase + offset) mod Q, Q the
    snapshot's period, in node order; a node holding none gets -1.  A valid
    snapshot can never produce two adjacent equal colors; if it does,
    something upstream is broken, so that case raises instead of
    returning, naming the first such edge (u, v) in id order.
    """
    view, phase = snapshot.topology.arrays, snapshot.phase
    colors = np.where(phase >= 0, (phase + offsets) % snapshot.tau, -1)
    both, cu, cv = _held_edges(view, colors)
    first = np.flatnonzero(cu == cv)
    if first.size:
        u, v = view.u[both][first[0]], view.v[both][first[0]]
        raise InternalInconsistencyError(f"adjacent nodes {u} and {v} share color "
                                         f"{cu[first[0]].item()}")
    return colors


def neighbor_phase_ties(snapshot: ColoringSnapshot) -> int:
    """Adjacent pairs sharing bit-identical global phases (should be zero)."""
    _, pu, pv = _held_edges(snapshot.topology.arrays, snapshot.phase)
    return int(np.count_nonzero(pu == pv))


def fit_log_growth(ns, values) -> tuple[float, float]:
    """Fit values ~ C*ln(n); returns (C, affine slope against ln n)."""
    xs = [math.log(n) for n in ns]
    ys = list(values)
    if len(xs) != len(ys) or not xs:
        raise ValueError("need equally many sizes and values")
    norm = sum(x * x for x in xs)
    if not norm:
        raise ValueError("ln(n) is 0 at every size: need a size above 1")
    c = sum(x * y for x, y in zip(xs, ys)) / norm
    mean_x = sum(xs) / len(xs)
    mean_y = sum(ys) / len(ys)
    var = sum((x - mean_x) ** 2 for x in xs)
    slope = (
        sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)) / var if var else 0.0
    )
    return c, slope
