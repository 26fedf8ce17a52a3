"""Global-knowledge validators over simulation snapshots.

Everything here sees the whole network at once, which the protocols never
do: interval disjointness across every edge, the good/bad classification,
the reduction from phases to an ordinary vertex coloring, and small
statistics helpers for convergence sweeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InternalInconsistencyError
from .topology import Topology

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


def _positions(ids: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Index of each ``query`` id in the sorted ``ids``, the last of equal
    ids, or ``len(ids)`` for an id not there."""
    m = len(ids)
    if m == 0:
        return np.zeros(len(query), dtype=np.intp)
    pos = np.maximum(np.searchsorted(ids, query, side="right") - 1, 0)
    return np.where(ids[pos] == query, pos, m)


class _NodeArrays(NamedTuple):
    """A snapshot's states as arrays in node-id order, each one entry longer
    than ``ids``: the last entry, phaseless and uncolored, stands for a node
    the snapshot lacks."""

    ids: np.ndarray
    phase: np.ndarray  # 0 where the phase is None
    has_phase: np.ndarray
    interval: np.ndarray  # 0 where the interval is None
    has_interval: np.ndarray
    colored: np.ndarray

    def at(self, topology: Topology) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Positions here of the topology's nodes and of its edges' u and v ends."""
        view = topology.arrays
        own = _positions(self.ids, view.nodes)
        return own, own[view.src], own[view.dst]


@dataclass(frozen=True, eq=False)
class ColoringSnapshot:
    """Every node's (phase, interval, colored) triple, as arrays, plus the
    period length."""

    tau: float | int
    _arrays: _NodeArrays

    @classmethod
    def from_arrays(cls, tau, ids, phase, has_phase, interval, has_interval,
                    colored) -> "ColoringSnapshot":
        """Nodes ``ids``, ascending, each holding its ``phase`` where
        ``has_phase`` and its ``interval`` where ``has_interval``; the values
        elsewhere are ignored."""
        return cls(tau, _NodeArrays(
            ids=ids,
            phase=np.append(np.where(has_phase, phase, 0), 0),
            has_phase=np.append(has_phase, False),
            interval=np.append(np.where(has_interval, interval, 0), 0),
            has_interval=np.append(has_interval, False),
            colored=np.append(colored, False),
        ))

    def global_phases(self) -> tuple[np.ndarray, np.ndarray]:
        """The ids, ascending, of the nodes holding a global phase, and their phases."""
        arrs = self._arrays
        held = arrs.has_phase[:len(arrs.ids)]
        return arrs.ids[held], arrs.phase[:-1][held]


@dataclass(frozen=True)
class IntervalReport:
    """Outcome of checking interval disjointness across every edge."""

    pairs_checked: int
    violations: tuple[tuple[int, int], ...]
    min_normalized_interval: float | None


def validate_interval_coloring(
    snapshot: ColoringSnapshot,
    topology: Topology,
    eta: float | None = None,
    q: int | None = None,
) -> IntervalReport:
    """Check that [p-I, p] arcs of adjacent colored nodes never overlap.

    Arcs are closed and wrap around the period.  When ``eta`` and ``q`` are
    given the report also carries the smallest normalized interval
    min I*(2*dmax+1)/(eta*Q), which is at least 1 when every node meets the
    guaranteed interval floor.
    """
    arrs = snapshot._arrays
    view = topology.arrays
    tau = snapshot.tau
    _, iu, iv = arrs.at(topology)
    checked = arrs.has_phase[iu] & arrs.has_phase[iv] & arrs.colored[iu] & arrs.colored[iv]
    iu, iv = iu[checked], iv[checked]
    pu, pv = arrs.phase[iu], arrs.phase[iv]
    hit = ((pv - pu) % tau <= arrs.interval[iv]) | ((pu - pv) % tau <= arrs.interval[iu])
    violations = tuple(zip(view.u[checked][hit].tolist(), view.v[checked][hit].tolist()))
    min_norm = None
    if eta is not None and q is not None:
        m = len(arrs.ids)
        where = _positions(view.nodes, arrs.ids)
        measured = arrs.colored[:m] & arrs.has_interval[:m] & (where < len(view.nodes))
        if measured.any():
            dmax = view.dmax[where[measured]]
            norms = arrs.interval[:m][measured] * (2 * dmax + 1) / (eta * q)
            min_norm = float(norms.min())
    return IntervalReport(int(checked.sum()), violations, min_norm)


def symmetric_window_violations(snapshot: ColoringSnapshot, topology: Topology) -> list[tuple[int, int]]:
    """Edges where one endpoint's phase falls inside the other's symmetric interval.

    The continuous protocol guarantees the stronger symmetric property
    p_u not in [p_v - I_v, p_v + I_v] for stable neighbors.
    """
    arrs = snapshot._arrays
    view = topology.arrays
    tau = snapshot.tau
    _, iu, iv = arrs.at(topology)
    both = arrs.has_phase[iu] & arrs.has_phase[iv]
    iu, iv = iu[both], iv[both]
    d = (arrs.phase[iu] - arrs.phase[iv]) % tau
    d = np.minimum(d, tau - d)  # wrap distance
    bad = (d <= arrs.interval[iv]) | (d <= arrs.interval[iu])
    return list(zip(view.u[both][bad].tolist(), view.v[both][bad].tolist()))


def classify_good_bad(snapshot: ColoringSnapshot, topology: Topology) -> dict[int, str]:
    """Label nodes good / bad-colored / bad-uncolored.

    A node is good when it is colored and no neighbor holds a phase within
    wrap-aware distance 1 of its own; phaseless neighbors (still in their
    first period) cannot conflict.
    """
    arrs = snapshot._arrays
    view = topology.arrays
    tau = snapshot.tau
    own, iu, iv = arrs.at(topology)
    both = arrs.has_phase[iu] & arrs.has_phase[iv]
    pu, pv = arrs.phase[iu], arrs.phase[iv]
    bad = np.zeros(len(view.nodes), dtype=bool)
    bad[view.dst[both & phases_clash(pu, pv, tau)]] = True  # v's neighbor u clashes with v
    bad[view.src[both & phases_clash(pv, pu, tau)]] = True
    return dict(zip(view.nodes.tolist(), label_names(arrs.colored[own], bad)))


def hardness_reduction(ids: np.ndarray, phases: np.ndarray, offsets: np.ndarray, q: int,
                       topology: Topology) -> np.ndarray:
    """Turn phases plus clock offsets into a proper vertex coloring.

    Node ``ids[i]``, ids ascending, gets the color (phases[i] + offsets[i])
    mod Q, returned at index i.  A valid snapshot can never produce two
    adjacent equal colors; if it does, something upstream is broken, so
    that case raises instead of returning, naming the first such edge
    (u, v) in id order.
    """
    colors = (phases + offsets) % q
    values = np.append(colors, 0)  # then a filler for the nodes not in ``ids``
    view = topology.arrays
    own = _positions(ids, view.nodes)
    iu, iv = own[view.src], own[view.dst]
    same = (iu < len(ids)) & (iv < len(ids)) & (values[iu] == values[iv])
    first = np.flatnonzero(same)
    if first.size:
        u, v, color = view.u[first[0]], view.v[first[0]], values[iu[first[0]]]
        raise InternalInconsistencyError(f"adjacent nodes {u} and {v} share color {color.item()}")
    return colors


def neighbor_phase_ties(snapshot: ColoringSnapshot, topology: Topology) -> int:
    """Adjacent pairs sharing bit-identical global phases (should be zero)."""
    arrs = snapshot._arrays
    _, iu, iv = arrs.at(topology)
    tied = arrs.has_phase[iu] & arrs.has_phase[iv] & (arrs.phase[iu] == arrs.phase[iv])
    return int(np.count_nonzero(tied))


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
