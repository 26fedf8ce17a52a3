"""Trial orchestration: build engines, drive protocols, collect checks.

A trial owns everything it changes (protocol streams and the engine,
whose adjacency map is the only graph that events change), so trials are
independent and reproducible from their seed key alone.  Global-knowledge
checks (degree-estimate bounds, free-slot floor, good-set monotonicity,
interval validity) are gathered as counters, never enforced inside the
protocols.  A jitter-and-jump trial is one period loop: a stepper, over
arrays for a static run whose nodes all wake at slot 0 and through the
engine otherwise, steps each period with the same draws, hands its
boundaries to one array pass, :meth:`_BoundaryChecks.on_period_boundary`,
and reads the state it leaves; the loop builds the good set, the
snapshots, the final labels and the result from those reads alone.  A
beep-first trial draws every node's start offset from its protocol
stream in one array pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import rng as rngmod
from .analysis import ColoringSnapshot, classify_good_bad, label_names, phases_clash
from .beepfirst import BeepFirst
from .config import SimConfig
from .continuous import CONTINUOUS_PERIOD, ContinuousEngine
from .discrete import DiscreteEngine
from .errors import ConfigError, ProtocolViolation
from .jitterjump import JitterAndJump, PeriodArrays, StaticJitterJumpArrays
from .topology import DynamicEvent, Topology, TopologyArrays, build_wakeup
from .trace import TraceRow

BEEPFIRST_HORIZON_PERIODS = 4  # a beep-first trial runs this long past the last wake


def _good(src, dst, phase, has_phase, colored, q) -> np.ndarray:
    """Per node: colored and no neighbor holding a phase clashes with it
    (the rule is symmetric for integer phases, so once per edge)."""
    clash = has_phase[src] & has_phase[dst] & phases_clash(phase[src], phase[dst], q)
    bad = np.zeros(len(phase), dtype=bool)
    bad[src[clash]] = True
    bad[dst[clash]] = True
    return colored & has_phase & ~bad


class _Read(NamedTuple):
    """The nodes as a period leaves them, in id order: the graph, and each
    node's global phase and interval (-1 where it holds none) and colored
    flag."""

    topology: Topology
    phase: np.ndarray
    interval: np.ndarray
    colored: np.ndarray


def _ints(values) -> np.ndarray:
    """``values`` as an int array, -1 where a value is ``None``."""
    return np.array([-1 if x is None else x for x in values], dtype=np.int64)


def _wake(engine: DiscreteEngine, nodes: np.ndarray) -> np.ndarray:
    """The wake slot of each of ``nodes``."""
    return np.array([engine.wake_slot[v] for v in nodes.tolist()], dtype=np.int64)


def _read(engine: DiscreteEngine) -> _Read:
    """Every protocol of ``engine`` read once into arrays."""
    topology = engine.topology
    nodes = topology.arrays.nodes
    protocols = [engine.protocols[v] for v in nodes.tolist()]
    local = _ints([pr.p for pr in protocols])
    phase = np.where(local < 0, -1, (local + _wake(engine, nodes)) % engine.q)
    return _Read(topology, phase, _ints([pr.interval for pr in protocols]),
                 np.array([pr.colored for pr in protocols], dtype=bool))


def discrete_snapshot(read: _Read, q: int) -> ColoringSnapshot:
    """Every node's global phase, interval and colored flag as ``read`` holds them."""
    return ColoringSnapshot.from_arrays(q, read.topology.arrays.nodes, read.phase,
                                        read.phase >= 0, read.interval, read.interval >= 0,
                                        read.colored)


def _reported(engine: DiscreteEngine, read: _Read, start: int, width: int) -> tuple:
    """The arguments of :meth:`_BoundaryChecks.on_period_boundary` for the
    engine's boundaries in slots [start, start + width), ``width`` at most
    Q, with ``read`` taken once every node has passed its boundary there.

    A node's state changes only at its own boundaries, one per Q slots,
    so each node then holds what its boundary there left, report
    included.  A node reports there exactly when it woke before
    ``start``; one that wakes inside only starts listening.
    """
    q, nodes = engine.q, read.topology.arrays.nodes
    wake = _wake(engine, nodes)
    gap = (wake - start) % q  # a node's boundary falls in slot start + gap
    at = np.flatnonzero((wake < start) & (gap < width))
    order = at[np.argsort(gap[at], kind="stable")]  # by slot, then by id
    protocols = [engine.protocols[v] for v in nodes[order].tolist()]
    columns = zip(*[pr.last_report for pr in protocols]) if protocols else \
        [()] * len(PeriodArrays._fields)
    period, phase, jitter, interval, heard, colored, free_count, reset = map(_ints, columns)
    report = PeriodArrays(period, phase, jitter, interval, heard, colored.astype(bool),
                          free_count, reset.astype(bool))
    d_tilde = np.array([pr.d_tilde for pr in protocols], dtype=np.int64)
    before = np.where(period > 0, (phase + wake[order]) % q, -1)
    return read.topology, order, report, before, read.phase, read.colored, d_tilde


class _BoundaryChecks:
    """The boundary checks, trace rows and row labels of a trial, one
    stretch of at most Q slots at a time, for both period steppers."""

    def __init__(self, eta: float, q: int, dynamic: bool, collect_rows: bool):
        self.q = q
        self.dynamic = dynamic
        self.collect_rows = collect_rows
        self.free_floor = (1.0 - 3.0 * eta) * q
        self.sandwich_violations = 0
        self.free_floor_violations = 0
        self.beep_bound_violations = 0
        self.window_observations = 0
        self.resets = 0
        self.rows: list[TraceRow] = []
        self._last: TopologyArrays | None = None  # the graph of the previous stretch

    def on_period_boundary(self, topology: Topology, order: np.ndarray, report: PeriodArrays,
                           before: np.ndarray, after: np.ndarray, colored: np.ndarray,
                           d_tilde: np.ndarray) -> None:
        """Check the boundaries at which the nodes ``order`` reported in one
        stretch, in which the graph was ``topology``.

        ``order`` indexes ``topology.arrays.nodes`` in the order of the
        boundaries, by slot and then by id; ``report``, ``d_tilde`` and
        ``before``, each node's global phase before its boundary (-1 where
        it held none), follow it.
        ``after`` and ``colored`` hold every node's global phase (-1 where
        it holds none) and colored flag after the stretch.
        """
        view = topology.arrays
        degree = view.degree[order]
        if self.dynamic:
            # events land on global period boundaries, so during the local
            # period that just ended the degree was this one or the one of
            # the stretch before
            last, self._last = self._last, view
            previous = degree if last is None or last is view else \
                last.degree[np.searchsorted(last.nodes, view.nodes[order])]
            # two beeps per node per period: the static floor constant does
            # not apply, only the per-period beep bound
            self.window_observations += len(order)
            over = report.beeps_heard > 4 * np.maximum(previous, degree)
            self.beep_bound_violations += int(np.count_nonzero(over))
            self.resets += int(np.count_nonzero(report.reset))
        else:
            off = (report.period > 0) & ((d_tilde < 1) | (d_tilde > np.maximum(2 * degree, 1)))
            self.sandwich_violations += int(np.count_nonzero(off))
            short = (report.free_count >= 0) & (report.free_count < self.free_floor)
            self.free_floor_violations += int(np.count_nonzero(short))
        if self.collect_rows:
            self.rows += self._rows(view, order, report, before, after, colored)

    def _rows(self, view, order, report, before, after, colored) -> list[TraceRow]:
        """The trace rows of the boundaries: at each one, a neighbour shows
        the phase it holds ``after`` its own boundary in the stretch when
        that came earlier, and its phase ``before`` it otherwise."""
        n = len(view.nodes)
        rank = np.full(n, -1)  # the nodes that do not report hold one phase throughout
        rank[order] = np.arange(len(order))
        held = after.copy()
        held[order] = before
        listener = np.concatenate((view.src, view.dst))
        other = np.concatenate((view.dst, view.src))
        shown = np.where(rank[other] < rank[listener], after[other], held[other])
        # a colored node holds a phase, and an uncolored one is never good
        clash = (shown >= 0) & phases_clash(shown, after[listener], self.q)
        bad = np.zeros(n, dtype=bool)
        bad[listener[clash]] = True
        period = np.broadcast_to(report.period, order.shape).tolist()

        def values(field):  # None before a node's first phase draw
            return [x if k else None for k, x in zip(period, field.tolist())]

        return list(map(TraceRow, period, view.nodes[order].tolist(), values(report.phase),
                        values(report.jitter), values(report.interval),
                        report.colored.tolist(), label_names(colored[order], bad[order]),
                        report.beeps_heard.tolist()))


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
) -> JitterJumpResult:
    """Run the slot-claiming protocol on one topology.

    A static run stops at convergence; a dynamic run (``cfg.dynamic``)
    runs all ``max_periods`` periods so that it sees every event.

    One loop runs the trial a period at a time; a stepper steps each
    period, hands its boundaries to the boundary checks and reads the
    state it leaves.  A static run in which every node wakes at slot 0
    steps the whole network over arrays (:class:`_ArraySteps`); every
    other run drives one :class:`JitterAndJump` per node through the
    :class:`DiscreteEngine` (:class:`_EngineSteps`).  Both give the same
    result, draw for draw.  The loop takes the good set, good-set
    monotonicity and convergence from each period's read, and the
    snapshots and final labels from the read of the period they are of.
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
    wake = build_wakeup(
        cfg.wakeup, topology.nodes, q, rngmod.stream(cfg.master_seed, *seed_key, "wakeup")
    )
    checks = _BoundaryChecks(cfg.eta, q, cfg.dynamic, collect_rows)
    if not cfg.dynamic and not any(wake.values()):
        steps = _ArraySteps(topology, cfg, q, seed_key, checks)
    else:
        steps = _EngineSteps(topology, cfg, q, seed_key, checks, wake, events)

    monotonic_violations = 0
    was_good = np.zeros(0, dtype=np.int64)  # the ids good after the previous period
    converged_period = snapshot = None
    all_good_periods: list[int] = []
    for k in range(1, max_periods + 1):
        read = steps.step()
        view = read.topology.arrays
        good = _good(view.src, view.dst, read.phase, read.phase >= 0, read.colored, q)
        # good after the previous period, still there and good no longer
        lost = np.intersect1d(was_good, view.nodes[~good], assume_unique=True)
        monotonic_violations += len(lost)
        was_good = view.nodes[good]
        if good.size and good.all():
            all_good_periods.append(k)
            if converged_period is None:
                converged_period = k
                snapshot = discrete_snapshot(read, q)
            if not cfg.dynamic:
                break
    steps.finish(read)

    # a static run stops at convergence, so its last read is the converged one
    final_snapshot = snapshot if converged_period == k else discrete_snapshot(read, q)
    return JitterJumpResult(
        topology=read.topology,
        q=q,
        converged_period=converged_period,
        periods_run=k,
        snapshot=final_snapshot if snapshot is None else snapshot,
        final_snapshot=final_snapshot,
        final_labels=classify_good_bad(final_snapshot, read.topology),
        sandwich_violations=checks.sandwich_violations,
        free_floor_violations=checks.free_floor_violations,
        monotonic_violations=monotonic_violations,
        beep_bound_violations=checks.beep_bound_violations,
        window_observations=checks.window_observations,
        resets=checks.resets,
        rows=checks.rows,
        all_good_periods=all_good_periods,
    )


class _EngineSteps:
    """The periods of a trial on the :class:`DiscreteEngine`, one
    :class:`JitterAndJump` per node, for any wakeup and any events.

    Each period runs to its last slot but one, when every node has passed
    its boundary of the period's stretch of Q slots, for the boundary
    checks; then its last slot, which applies the next period's events,
    for the read."""

    def __init__(self, topology, cfg, q, seed_key, checks, wake, events):
        master = cfg.master_seed
        window = cfg.window_length(topology.n)
        # the initial nodes' streams in one batch; a node added by an event,
        # or re-added under a removed node's id, builds its own
        nodes = topology.arrays.nodes
        initial = dict(zip(nodes.tolist(), rngmod.streams(master, *seed_key, nodes, "protocol")))

        def factory(v: int) -> JitterAndJump:
            gen = initial.pop(v, None)
            if gen is None:
                gen = rngmod.stream(master, *seed_key, v, "protocol")
            return JitterAndJump(q, cfg.eta, gen, dynamic=cfg.dynamic, window=window)

        self.checks = checks
        self.engine = DiscreteEngine(topology, q, factory, wake, events=events)
        self.engine.run_slots(1)  # wake processing and the events of period 0 at slot 0

    def step(self) -> _Read:
        engine, q = self.engine, self.engine.q
        engine.run_slots(q - 1)
        self.checks.on_period_boundary(*_reported(engine, _read(engine), engine.slot - q, q))
        engine.run_slots(1)  # slot kQ applies the events of period k
        return _read(engine)

    def finish(self, read: _Read) -> None:
        """Check the boundaries at slot kQ, the last slot run."""
        self.checks.on_period_boundary(*_reported(self.engine, read, self.engine.slot - 1, 1))


class _ArraySteps:
    """The periods of a static trial whose nodes all wake at slot 0, over
    arrays: one :meth:`StaticJitterJumpArrays.step` each.  Every boundary
    falls in one slot, taken in id order."""

    def __init__(self, topology, cfg, q, seed_key, checks):
        view = topology.arrays
        words = rngmod.seed_words(cfg.master_seed, *seed_key, view.nodes, "protocol")
        self.protocol = StaticJitterJumpArrays(q, cfg.eta, words, view.src, view.dst)
        self.topology, self.checks = topology, checks

    def step(self) -> _Read:
        protocol = self.protocol
        protocol.step()
        report = protocol.last_report
        self.checks.on_period_boundary(self.topology, np.arange(self.topology.n), report,
                                       report.phase, protocol.p, protocol.colored,
                                       protocol.d_tilde)
        return _Read(self.topology, protocol.p, protocol.interval, protocol.colored)

    def finish(self, read: _Read) -> None:
        """Nothing: each step checks the boundaries it runs."""


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
    max_stable_delay: float
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
    words = rngmod.seed_words(master, *seed_key, view.nodes, "protocol")
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
        max_stable_delay=max([0.0, *delays]),
        rows=rows,
    )
