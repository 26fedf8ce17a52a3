"""Trial orchestration: build engines, drive protocols, collect checks.

A trial owns everything it touches (topology copy, protocol streams,
engine), so trials are independent and reproducible from their seed key
alone.  Global-knowledge checks (degree-estimate bounds, free-slot floor,
good-set monotonicity, interval validity) are gathered as counters, never
enforced inside the protocols.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import rng as rngmod
from .analysis import (
    BAD_COLORED,
    BAD_UNCOLORED,
    GOOD,
    ColoringSnapshot,
    NodeState,
    classify_good_bad,
)
from .beepfirst import BeepFirst
from .config import SimConfig
from .continuous import CONTINUOUS_PERIOD, ContinuousEngine
from .discrete import DiscreteEngine
from .errors import ConfigError, ProtocolViolation
from .jitterjump import JitterAndJump
from .topology import DynamicEvent, Topology, build_wakeup
from .trace import TraceRow

BEEPFIRST_HORIZON_PERIODS = 4  # a beep-first trial runs this long past the last wake


def _phases_clash(a, b, q):
    """The good/bad rule: two global phases clash when they lie within wrap
    distance 1 of each other.  Takes ints or numpy arrays alike."""
    d = (a - b) % q
    return (d <= 1) | (d >= q - 1)


def _label_for(engine: DiscreteEngine, v: int) -> str:
    proto = engine.protocols[v]
    if proto.p is None or not proto.colored:
        return BAD_UNCOLORED
    q = engine.q
    pv = (proto.p + engine.wake_slot[v]) % q
    for u in engine.topology.neighbors(v):
        if u not in engine.alive:
            continue
        pu = engine.protocols[u].p
        if pu is None:
            continue
        if _phases_clash((pu + engine.wake_slot[u]) % q, pv, q):
            return BAD_COLORED
    return GOOD


class _EdgeArrays:
    """The engine's nodes and edges as index arrays, for whole-graph passes.

    Valid until the next topology event: the caller rebuilds it after a
    period in which events were applied (node ids, wake slots and protocol
    objects change only then).
    """

    def __init__(self, engine: DiscreteEngine):
        nodes = engine.topology.nodes
        self.q = engine.q
        self.nodes = np.array(nodes, dtype=np.int64)
        pairs = np.array(engine.topology.edges(), dtype=np.int64).reshape(-1, 2)
        self.src = np.searchsorted(self.nodes, pairs[:, 0])
        self.dst = np.searchsorted(self.nodes, pairs[:, 1])
        self.wake = np.array([engine.wake_slot[v] for v in nodes], dtype=np.int64)
        self.protocols = [engine.protocols[v] for v in nodes]

    def good_set(self) -> set[int]:
        """Nodes that are colored and clash with no neighbor holding a phase."""
        local = np.array([-1 if pr.p is None else pr.p for pr in self.protocols], dtype=np.int64)
        colored = np.array([pr.colored for pr in self.protocols], dtype=bool)
        has_phase = local >= 0
        phase = (local + self.wake) % self.q
        src, dst = self.src, self.dst
        clash = has_phase[src] & has_phase[dst] & _phases_clash(phase[src], phase[dst], self.q)
        bad = np.zeros(len(self.nodes), dtype=bool)
        bad[src[clash]] = True
        bad[dst[clash]] = True
        return set(self.nodes[colored & has_phase & ~bad].tolist())


def discrete_snapshot(engine: DiscreteEngine) -> ColoringSnapshot:
    states = []
    q = engine.q
    for v in sorted(engine.alive):
        proto = engine.protocols[v]
        phase = None if proto.p is None else (proto.p + engine.wake_slot[v]) % q
        states.append(NodeState(v, phase, proto.interval, proto.colored))
    return ColoringSnapshot(q, tuple(states))


class _BoundaryChecks:
    """Per-boundary bookkeeping shared by the static and dynamic runners."""

    def __init__(self, eta: float, q: int, dynamic: bool, collect_rows: bool):
        self.eta = eta
        self.q = q
        self.dynamic = dynamic
        self.collect_rows = collect_rows
        self.free_floor = (1.0 - 3.0 * eta) * q
        self.sandwich_violations = 0
        self.free_floor_violations = 0
        self.beep_bound_violations = 0
        self.window_observations = 0
        self.rows: list[TraceRow] = []
        self._degree_at_boundary: dict[int, int] = {}

    def on_period_boundary(self, engine: DiscreteEngine, v: int, slot: int) -> None:
        proto = engine.protocols[v]
        report = proto.last_report
        degree = engine.topology.degree(v)
        if self.dynamic:
            # events land on global period boundaries, so during the local
            # period that just ended the degree was this one or the previous
            previous = self._degree_at_boundary.get(v, degree)
            self._degree_at_boundary[v] = degree
        if report is None:
            return
        if self.dynamic:
            # two beeps per node per period: the static floor constant does
            # not apply, only the per-period beep bound
            self.window_observations += 1
            if report.beeps_heard > 4 * max(previous, degree):
                self.beep_bound_violations += 1
        elif report.period >= 1:
            if not 1 <= proto.d_tilde <= max(2 * degree, 1):
                self.sandwich_violations += 1
        if (
            not self.dynamic
            and report.free_count is not None
            and report.free_count < self.free_floor
        ):
            self.free_floor_violations += 1
        if self.collect_rows:
            self.rows.append(
                TraceRow(
                    period=report.period,
                    node=v,
                    phase=report.phase,
                    jitter=report.jitter,
                    interval=report.interval,
                    colored=report.colored,
                    label=_label_for(engine, v),
                    beeps_heard=report.beeps_heard,
                )
            )


@dataclass
class JitterJumpResult:
    """One discrete-protocol trial."""

    topology: Topology
    q: int
    converged_period: int | None
    periods_run: int
    snapshot: ColoringSnapshot | None
    final_snapshot: ColoringSnapshot | None
    final_labels: dict[int, str] | None
    wake: dict[int, int]
    sandwich_violations: int
    free_floor_violations: int
    monotonic_violations: int
    beep_bound_violations: int
    window_observations: int
    resets: int
    rows: list[TraceRow] = field(default_factory=list)
    all_good_periods: list[int] = field(default_factory=list)

    @property
    def converged(self) -> bool:
        return self.converged_period is not None

    def restabilized_after(self, period: int) -> int | None:
        """Periods from an event at ``period`` until the next all-good state."""
        for g in self.all_good_periods:
            if g >= period:
                return g - period
        return None


def run_jitterjump_trial(
    topology: Topology,
    cfg: SimConfig,
    seed_key: tuple = (),
    events: tuple[DynamicEvent, ...] = (),
    collect_rows: bool = False,
    state_hook=None,
) -> JitterJumpResult:
    """Run the slot-claiming protocol on one topology.

    A static run stops at convergence; a dynamic run (``cfg.dynamic``)
    runs all ``max_periods`` periods so that it sees every event.
    ``state_hook(engine, period, labels)`` is called after every global
    period boundary, for tests that want to watch intermediate state.
    """
    q = cfg.resolve_q(topology.delta)
    n = topology.n
    max_periods = cfg.max_periods or max(64, math.ceil(50.0 * math.log(max(n, 2))))
    for ev in events:
        if ev.at_period > max_periods:
            raise ConfigError(f"event at period {ev.at_period} comes after the last "
                              f"period {max_periods}")
    master = cfg.master_seed
    wake = build_wakeup(
        cfg.wakeup, topology.nodes, q, rngmod.stream(master, *seed_key, "wakeup")
    )
    window = cfg.window_length(n)

    def factory(v: int) -> JitterAndJump:
        return JitterAndJump(
            q,
            cfg.eta,
            rngmod.stream(master, *seed_key, v, "protocol"),
            dynamic=cfg.dynamic,
            window=window,
        )

    checks = _BoundaryChecks(cfg.eta, q, cfg.dynamic, collect_rows)
    engine = DiscreteEngine(topology, q, factory, wake, events=events, observer=checks)

    monotonic_violations = 0
    prev_good: set[int] = set()
    converged_period = None
    snapshot = None
    all_good_periods: list[int] = []
    event_periods = {ev.at_period for ev in events}

    engine.run_slots(1)  # wake processing and the events of period 0 at slot 0
    edge_arrays = _EdgeArrays(engine)
    periods_run = 0
    for k in range(1, max_periods + 1):
        engine.run_slots(q)  # its last slot, kQ, applies the events of period k
        periods_run = k
        if k in event_periods:
            edge_arrays = _EdgeArrays(engine)
        good = edge_arrays.good_set()
        lost = (prev_good & engine.alive) - good
        monotonic_violations += len(lost)
        prev_good = good
        if state_hook is not None:
            state_hook(engine, k, classify_good_bad(discrete_snapshot(engine), engine.topology))
        if good == engine.alive and engine.alive:
            all_good_periods.append(k)
            if converged_period is None:
                converged_period = k
                snapshot = discrete_snapshot(engine)
            if not cfg.dynamic:
                break

    final_snapshot = discrete_snapshot(engine)
    final_labels = classify_good_bad(final_snapshot, engine.topology)
    if snapshot is None:
        snapshot = final_snapshot

    total_resets = sum(engine.protocols[v].resets for v in engine.alive)
    return JitterJumpResult(
        topology=engine.topology,
        q=q,
        converged_period=converged_period,
        periods_run=periods_run,
        snapshot=snapshot,
        final_snapshot=final_snapshot,
        final_labels=final_labels,
        wake=dict(engine.wake_slot),
        sandwich_violations=checks.sandwich_violations,
        free_floor_violations=checks.free_floor_violations,
        monotonic_violations=monotonic_violations,
        beep_bound_violations=checks.beep_bound_violations,
        window_observations=checks.window_observations,
        resets=total_resets,
        rows=checks.rows,
        all_good_periods=all_good_periods,
    )


# -- continuous-model trials -------------------------------------------------


@dataclass
class BeepFirstResult:
    """One continuous-protocol trial."""

    topology: Topology
    t_period: float
    all_stable: bool
    late_nodes: int
    search_overruns: int
    tie_collisions: int
    snapshot: ColoringSnapshot
    wake: dict[int, float]
    max_stable_delay: float
    protocols: dict[int, BeepFirst]
    rows: list[TraceRow] = field(default_factory=list)


def run_beepfirst_trial(
    topology: Topology,
    cfg: SimConfig,
    seed_key: tuple = (),
    collect_rows: bool = False,
) -> BeepFirstResult:
    t_period = CONTINUOUS_PERIOD
    master = cfg.master_seed
    wake = build_wakeup(
        cfg.wakeup, topology.nodes, t_period, rngmod.stream(master, *seed_key, "wakeup")
    )

    def factory(v: int) -> BeepFirst:
        return BeepFirst(
            cfg.epsilon,
            topology.degree(v),
            topology.max_neighborhood_degree(v),
            rngmod.stream(master, *seed_key, v, "protocol"),
        )

    engine = ContinuousEngine(topology, factory, wake)
    overruns = 0
    try:
        engine.run_until(max(wake.values(), default=0.0) + BEEPFIRST_HORIZON_PERIODS * t_period)
    except ProtocolViolation:
        overruns = 1

    states = []
    late = 0
    max_delay = 0.0
    for v in sorted(topology.nodes):
        proto = engine.protocols[v]
        theta = engine.theta(v)
        if proto.stable:
            phase = (proto.p + theta) % t_period
            delay = proto.stable_since - wake[v]
            max_delay = max(max_delay, delay)
            if delay >= 3.0 * t_period:
                late += 1
        else:
            phase = None
            late += 1
        states.append(NodeState(v, phase, proto.interval, proto.stable))
    snapshot = ColoringSnapshot(t_period, tuple(states))
    all_stable = all(engine.protocols[v].stable for v in topology.nodes)

    rows: list[TraceRow] = []
    if collect_rows:
        for v in sorted(topology.nodes):
            proto = engine.protocols[v]
            node_origin = engine._nodes[v].origin
            heard = engine.heard_log(v)
            for k in range(BEEPFIRST_HORIZON_PERIODS):
                start = node_origin + k * t_period
                end = start + t_period
                n_heard = sum(1 for t in heard if start <= t < end)
                settled = proto.stable and proto.stable_since < end
                rows.append(
                    TraceRow(
                        period=k,
                        node=v,
                        phase=proto.p if settled else None,
                        jitter=None,
                        interval=proto.interval if settled else None,
                        colored=settled,
                        label="stable" if settled else "searching",
                        beeps_heard=n_heard,
                    )
                )

    return BeepFirstResult(
        topology=topology,
        t_period=t_period,
        all_stable=all_stable,
        late_nodes=late,
        search_overruns=overruns,
        tie_collisions=engine.tie_collisions,
        snapshot=snapshot,
        wake=wake,
        max_stable_delay=max_delay,
        protocols=dict(engine.protocols),
        rows=rows,
    )
