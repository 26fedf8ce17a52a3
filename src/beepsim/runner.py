"""Trial orchestration: build engines, drive protocols, collect checks.

A trial owns everything it changes (protocol streams and the engine,
whose adjacency map is the only graph that events change), so trials are
independent and reproducible from their seed key alone.  Global-knowledge
checks (degree-estimate bounds, free-slot floor, good-set monotonicity,
interval validity) are gathered as counters, never enforced inside the
protocols.  A static jitter-and-jump run whose nodes all wake at slot 0
steps the whole network over arrays instead of through the engine, with
the same draws, checks and result.  A beep-first trial draws every node's
start offset from its protocol stream in one array pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from . import rng as rngmod
from .analysis import (
    BAD_COLORED,
    BAD_UNCOLORED,
    GOOD,
    ColoringSnapshot,
    classify_good_bad,
    label_names,
    phases_clash,
)
from .beepfirst import BeepFirst
from .config import SimConfig
from .continuous import CONTINUOUS_PERIOD, ContinuousEngine
from .discrete import DiscreteEngine, deliver_window
from .errors import ConfigError, ProtocolViolation
from .jitterjump import JitterAndJump, StaticJitterJumpArrays
from .topology import DynamicEvent, Topology, build_wakeup
from .trace import TraceRow

BEEPFIRST_HORIZON_PERIODS = 4  # a beep-first trial runs this long past the last wake


def _label_for(engine: DiscreteEngine, v: int) -> str:
    """The trace row label of ``v`` at its period boundary.

    It is read while the boundary slot is being stepped, with nodes in id
    order, so when several nodes share the boundary slot (simultaneous
    wakeup) a lower-id neighbour is seen after its own boundary step and
    a higher-id neighbour before it.  The label can therefore differ from
    the end-of-slot classification that the good set uses.
    """
    proto = engine.protocols[v]
    if proto.p is None or not proto.colored:
        return BAD_UNCOLORED
    q = engine.q
    pv = (proto.p + engine.wake_slot[v]) % q
    for u in engine.adj[v]:
        pu = engine.protocols[u].p
        if pu is None:
            continue
        if phases_clash((pu + engine.wake_slot[u]) % q, pv, q):
            return BAD_COLORED
    return GOOD


def _good(src, dst, phase, has_phase, colored, q) -> np.ndarray:
    """Per node: colored and no neighbor holding a phase clashes with it
    (the rule is symmetric for integer phases, so once per edge)."""
    clash = has_phase[src] & has_phase[dst] & phases_clash(phase[src], phase[dst], q)
    bad = np.zeros(len(phase), dtype=bool)
    bad[src[clash]] = True
    bad[dst[clash]] = True
    return colored & has_phase & ~bad


class _EdgeArrays:
    """The engine's nodes, edges and protocols as arrays, for whole-graph
    passes.

    Valid until the next topology event: the caller rebuilds it after a
    period in which events were applied (node ids, wake slots and protocol
    objects change only then).
    """

    def __init__(self, engine: DiscreteEngine):
        view = engine.topology.arrays
        nodes = view.nodes.tolist()
        self.q = engine.q
        self.nodes, self.src, self.dst = view.nodes, view.src, view.dst
        self.wake = np.array([engine.wake_slot[v] for v in nodes], dtype=np.int64)
        self.protocols = [engine.protocols[v] for v in nodes]

    def phases(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each node's global phase, whether it holds one, and its colored flag."""
        local = np.array([-1 if pr.p is None else pr.p for pr in self.protocols], dtype=np.int64)
        colored = np.array([pr.colored for pr in self.protocols], dtype=bool)
        return (local + self.wake) % self.q, local >= 0, colored

    def good_set(self) -> set[int]:
        """Nodes that are colored and clash with no neighbor holding a phase."""
        good = _good(self.src, self.dst, *self.phases(), self.q)
        return set(self.nodes[good].tolist())


def discrete_snapshot(engine: DiscreteEngine) -> ColoringSnapshot:
    """Every node's global phase, interval and colored flag, read from its protocol."""
    arrays = _EdgeArrays(engine)
    phase, has_phase, colored = arrays.phases()
    interval = np.array([-1 if pr.interval is None else pr.interval for pr in arrays.protocols],
                        dtype=np.int64)
    return ColoringSnapshot.from_arrays(engine.q, arrays.nodes, phase, has_phase,
                                        interval, interval >= 0, colored)


class _BoundaryChecks:
    """Per-boundary bookkeeping shared by the static and dynamic runners."""

    def __init__(self, eta: float, q: int, topology: Topology, dynamic: bool,
                 collect_rows: bool):
        self.dynamic = dynamic
        self.collect_rows = collect_rows
        self.free_floor = (1.0 - 3.0 * eta) * q
        self.sandwich_violations = 0
        self.free_floor_violations = 0
        self.beep_bound_violations = 0
        self.window_observations = 0
        self.rows: list[TraceRow] = []
        self._degree_at_boundary: dict[int, int] = {}
        # a static topology never changes, so its degree bounds are fixed
        self._estimate_bound = None if dynamic else dict(
            zip(topology.nodes, np.maximum(2 * topology.arrays.degree, 1).tolist()))

    def on_period_boundary(self, engine: DiscreteEngine, v: int, slot: int) -> None:
        proto = engine.protocols[v]
        report = proto.last_report
        if self.dynamic:
            degree = len(engine.adj[v])
            # events land on global period boundaries, so during the local
            # period that just ended the degree was this one or the previous
            previous = self._degree_at_boundary.get(v, degree)
            self._degree_at_boundary[v] = degree
            if report is None:
                return
            # two beeps per node per period: the static floor constant does
            # not apply, only the per-period beep bound
            self.window_observations += 1
            if report.beeps_heard > 4 * max(previous, degree):
                self.beep_bound_violations += 1
        elif report is None:
            return
        else:
            if report.period and not 1 <= proto.d_tilde <= self._estimate_bound[v]:
                self.sandwich_violations += 1
            free_count = report.free_count
            if free_count is not None and free_count < self.free_floor:
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


def _protocol_streams(master: int, seed_key: tuple, nodes) -> dict:
    """Each node's protocol stream, keyed ``(master, *seed_key, v, "protocol")``."""
    keys = [(master, *seed_key, v, "protocol") for v in nodes]
    return dict(zip(nodes, rngmod.streams(keys)))


def run_jitterjump_trial(
    topology: Topology,
    cfg: SimConfig,
    seed_key: tuple = (),
    events: tuple[DynamicEvent, ...] = (),
    collect_rows: bool = False,
) -> JitterJumpResult:
    """Run the slot-claiming protocol on one topology.

    A static run stops at convergence; a dynamic run (``cfg.dynamic``)
    runs all ``max_periods`` periods so that it sees every event.

    A static run in which every node wakes at slot 0 steps the whole
    network one period at a time over arrays (see
    :func:`_run_static_arrays`); every other run drives one
    :class:`JitterAndJump` per node through the :class:`DiscreteEngine`
    (see :func:`_run_engine`).  Both give the same result, draw for draw.
    """
    q = cfg.resolve_q(topology.delta)
    n = topology.n
    max_periods = cfg.max_periods or max(64, math.ceil(50.0 * math.log(max(n, 2))))
    if events and not cfg.dynamic:  # static checks read each degree once
        raise ConfigError("topology events need a dynamic run")
    for ev in events:
        if ev.at_period > max_periods:
            raise ConfigError(f"event at period {ev.at_period} comes after the last "
                              f"period {max_periods}")
    master = cfg.master_seed
    wake = build_wakeup(
        cfg.wakeup, topology.nodes, q, rngmod.stream(master, *seed_key, "wakeup")
    )
    if not cfg.dynamic and not any(wake.values()):
        return _run_static_arrays(topology, cfg, q, max_periods, seed_key, wake, collect_rows)
    return _run_engine(topology, cfg, q, max_periods, seed_key, wake, collect_rows, events)


def _run_engine(topology, cfg, q, max_periods, seed_key, wake, collect_rows, events):
    """:func:`run_jitterjump_trial` on the :class:`DiscreteEngine`, one
    :class:`JitterAndJump` per node, for any wakeup and any events."""
    master = cfg.master_seed
    window = cfg.window_length(topology.n)
    # the initial nodes' streams in one batch; a node added by an event,
    # or re-added under a removed node's id, builds its own
    initial = _protocol_streams(master, seed_key, topology.nodes)

    def factory(v: int) -> JitterAndJump:
        gen = initial.pop(v, None)
        if gen is None:
            gen = rngmod.stream(master, *seed_key, v, "protocol")
        return JitterAndJump(q, cfg.eta, gen, dynamic=cfg.dynamic, window=window)

    checks = _BoundaryChecks(cfg.eta, q, topology, cfg.dynamic, collect_rows)
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
        if good == engine.alive and engine.alive:
            all_good_periods.append(k)
            if converged_period is None:
                converged_period = k
                snapshot = discrete_snapshot(engine)
            if not cfg.dynamic:
                break

    if snapshot is None or cfg.dynamic:
        final_snapshot = discrete_snapshot(engine)
    else:  # a static run stops at convergence, so the state has not moved
        final_snapshot = snapshot
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


def _boundary_labels(src, dst, before, after, colored, q) -> list[str]:
    """Every node's :func:`_label_for` at a boundary slot shared by all
    nodes: a lower-id neighbour is seen with its phase ``after`` the
    boundary step, a higher-id one with its phase ``before`` it (``None``
    when no node held one yet)."""
    bad = np.zeros(len(colored), dtype=bool)
    bad[dst[phases_clash(after[src], after[dst], q)]] = True
    if before is not None:
        bad[src[phases_clash(before[dst], after[src], q)]] = True
    return label_names(colored, bad)


def _run_static_arrays(topology, cfg, q, max_periods, seed_key, wake, collect_rows):
    """:func:`run_jitterjump_trial` for a static run whose nodes all wake at
    slot 0: one :class:`StaticJitterJumpArrays` step and one
    :func:`deliver_window` per period, with the boundary checks, the good
    set, the trace rows, the final labels and the snapshot of the per-node
    run computed from the same arrays.  The result holds ``topology``
    itself, which nothing changes."""
    view = topology.arrays
    nodes = view.nodes.tolist()
    n = len(nodes)
    keys = [(cfg.master_seed, *seed_key, v, "protocol") for v in nodes]
    protocol = StaticJitterJumpArrays(q, cfg.eta, rngmod.ArrayDraws(rngmod.seed_words(keys)), n)
    src, dst = view.src, view.dst
    listener, beeper = np.concatenate((src, dst)), np.concatenate((dst, src))
    estimate_bound = np.maximum(2 * view.degree, 1)
    free_floor = (1.0 - 3.0 * cfg.eta) * q
    has_phase = np.ones(n, dtype=bool)
    sandwich = floor = monotonic = 0
    rows: list[TraceRow] = []
    prev_good = np.zeros(n, dtype=bool)
    converged_period = None
    heard = (np.zeros(0, dtype=np.int64),) * 2  # the first period is listen only
    for k in range(1, max_periods + 1):
        offsets = protocol.on_period_end(*heard)
        report = protocol.last_report
        if report.period:
            d_tilde = protocol.d_tilde
            sandwich += int(np.count_nonzero((d_tilde < 1) | (d_tilde > estimate_bound)))
        drew = report.free_count >= 0
        floor += int(np.count_nonzero(drew & (report.free_count < free_floor)))
        if collect_rows:
            if report.period:
                phase, jitter = report.phase.tolist(), report.jitter.tolist()
                interval = report.interval.tolist()
            else:
                phase = jitter = interval = [None] * n
            labels = _boundary_labels(src, dst, report.phase, protocol.p, protocol.colored, q)
            rows += map(TraceRow, repeat(report.period), nodes, phase, jitter, interval,
                        report.colored.tolist(), labels, report.beeps_heard.tolist())
        good = _good(src, dst, protocol.p, has_phase, protocol.colored, q)
        monotonic += int(np.count_nonzero(prev_good & ~good))
        prev_good = good
        if n and good.all():
            converged_period = k
            break
        heard = deliver_window(listener, beeper, offsets, q)

    interval = protocol.interval  # None after the first period only
    snapshot = ColoringSnapshot.from_arrays(
        q, view.nodes, protocol.p, has_phase,
        np.zeros(n, dtype=np.int64) if interval is None else interval,
        np.full(n, interval is not None), protocol.colored)
    return JitterJumpResult(
        topology=topology,
        q=q,
        converged_period=converged_period,
        periods_run=k,
        snapshot=snapshot,
        final_snapshot=snapshot,
        final_labels=dict(zip(nodes, label_names(protocol.colored, ~good))),
        wake=dict(wake),
        sandwich_violations=sandwich,
        free_floor_violations=floor,
        monotonic_violations=monotonic,
        beep_bound_violations=0,
        window_observations=0,
        resets=0,
        rows=rows,
        all_good_periods=[] if converged_period is None else [converged_period],
    )


# -- continuous-model trials -------------------------------------------------


@dataclass
class BeepFirstResult:
    """One continuous-protocol trial."""

    topology: Topology
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

    # each node's start offset is the first draw of its protocol stream
    view = topology.arrays
    ids = view.nodes.tolist()
    words = rngmod.seed_words([(master, *seed_key, v, "protocol") for v in ids])
    eps_v = rngmod.ArrayDraws(words).uniform(np.arange(len(ids)), cfg.epsilon)
    known = dict(zip(ids, zip(view.degree.tolist(), view.dmax.tolist(), eps_v.tolist())))

    def factory(v: int) -> BeepFirst:
        return BeepFirst(cfg.epsilon, *known[v])

    engine = ContinuousEngine(topology, factory, wake)
    overruns = 0
    try:
        engine.run_until(max(wake.values(), default=0.0) + BEEPFIRST_HORIZON_PERIODS * t_period)
    except ProtocolViolation:
        overruns = 1

    protos = [engine.protocols[v] for v in ids]
    stable = np.array([pr.stable for pr in protos], dtype=bool)
    phase = np.array([(pr.p + engine.theta(v)) % t_period if pr.stable else 0.0
                      for v, pr in zip(ids, protos)])
    interval = np.array([math.nan if pr.interval is None else pr.interval for pr in protos])
    snapshot = ColoringSnapshot.from_arrays(t_period, view.nodes, phase, stable,
                                            interval, ~np.isnan(interval), stable)
    delays = [pr.stable_since - wake[v] for v, pr in zip(ids, protos) if pr.stable]
    # late: unsettled, or settled three periods or more after waking
    late = len(ids) - len(delays) + sum(d >= 3.0 * t_period for d in delays)
    all_stable = len(delays) == len(ids)

    rows: list[TraceRow] = []
    if collect_rows:
        for v, proto in zip(ids, protos):
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
        all_stable=all_stable,
        late_nodes=late,
        search_overruns=overruns,
        tie_collisions=engine.tie_collisions,
        snapshot=snapshot,
        wake=wake,
        max_stable_delay=max([0.0, *delays]),
        protocols=dict(engine.protocols),
        rows=rows,
    )
