"""Trial orchestration: build engines, drive protocols, collect checks.

A trial owns everything it changes (protocol streams and the engine,
whose adjacency map is the only graph that events change), so trials are
independent and reproducible from their seed key alone.  Every node of a
trial draws from its row of ``rng.seed_words``, on either path.
Global-knowledge checks (degree-estimate bounds, free-slot floor,
good-set monotonicity, interval validity) are gathered as counters, never
enforced inside the protocols.  A jitter-and-jump trial is one period
loop: a stepper, over arrays for a static run whose nodes all wake at
slot 0 and through the engine otherwise, steps each period with the same
draws, hands the boundaries it ran (the engine lists them) to one array
pass, :meth:`_BoundaryChecks.on_period_boundary`, and returns the
period's :class:`ColoringSnapshot`; the loop builds the good set, the
final labels and the result from those snapshots alone.  The engine
stepper's loop alone decides when a topology event applies: those of
period k at slot kQ, before that slot is stepped.  A beep-first
trial draws every node's start offset from its protocol stream in one
array pass.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from . import rng as rngmod
from .analysis import ColoringSnapshot, classify_good_bad, label_names, phases_clash
from .beepfirst import BeepFirst
from .config import SimConfig
from .continuous import CONTINUOUS_PERIOD, ContinuousEngine
from .discrete import DiscreteEngine
from .errors import ConfigError, ProtocolViolation
from .jitterjump import JitterAndJump, PeriodReport, StaticJitterJumpArrays
from .topology import DynamicEvent, Topology, TopologyArrays, build_wakeup
from .trace import TraceRow

BEEPFIRST_HORIZON_PERIODS = 4  # a beep-first trial runs this long past the last wake


def _good(snapshot: ColoringSnapshot) -> np.ndarray:
    """Per node: colored, holding a phase (not -1), and no neighbor holding
    a phase clashes with it (the rule is symmetric for integer phases, so
    once per edge)."""
    view, phase = snapshot.topology.arrays, snapshot.phase
    src, dst = view.src, view.dst
    held = phase >= 0
    clash = held[src] & held[dst] & phases_clash(phase[src], phase[dst], snapshot.tau)
    bad = np.zeros(len(phase), dtype=bool)
    bad[src[clash]] = True
    bad[dst[clash]] = True
    return snapshot.colored & held & ~bad


def discrete_snapshot(topology: Topology, q: int, p: np.ndarray, interval: np.ndarray,
                      colored: np.ndarray, woke: np.ndarray | None = None) -> ColoringSnapshot:
    """The nodes of ``topology`` as a discrete period leaves them, from each
    one's local phase ``p`` (-1 where it holds none), interval and colored
    flag in node order.  A node's global phase is its local phase plus its
    wake slot ``woke`` mod ``q``; a run whose nodes all woke at slot 0
    passes none, and its local phases are the global ones."""
    if woke is not None:
        p = np.where(p < 0, -1, (p + woke) % q)
    return ColoringSnapshot(topology, q, p, interval, colored)


def _read(engine: DiscreteEngine) -> ColoringSnapshot:
    """Every protocol of ``engine`` read once into a snapshot."""
    topology = engine.topology
    nodes = topology.arrays.nodes.tolist()
    protocols = [engine.protocols[v] for v in nodes]
    return discrete_snapshot(topology, engine.q,
                             np.array([pr.p for pr in protocols], dtype=np.int64),
                             np.array([pr.interval for pr in protocols], dtype=np.int64),
                             np.array([pr.colored for pr in protocols], dtype=bool),
                             np.array([engine.wake_slot[v] for v in nodes], dtype=np.int64))


def _reported(engine: DiscreteEngine, after: ColoringSnapshot) -> tuple:
    """The arguments of :meth:`_BoundaryChecks.on_period_boundary` for the
    boundaries ``engine.reported`` lists, which this takes and clears,
    with ``after`` read once every node has passed its boundary there."""
    protocols, wake = engine.protocols, engine.wake_slot
    ids = engine.reported
    columns = np.array([(*protocols[v].last_report, protocols[v].d_tilde, wake[v]) for v in ids],
                       dtype=np.int64).reshape(-1, len(PeriodReport._fields) + 2).T
    period, phase, jitter, interval, heard, colored, free_count, reset, d_tilde, woke = columns
    report = PeriodReport(period, phase, jitter, interval, heard, colored.astype(bool),
                          free_count, reset.astype(bool))
    before = np.where(period > 0, (phase + woke) % engine.q, -1)
    order = np.searchsorted(after.topology.arrays.nodes, ids)
    ids.clear()
    return after, order, report, before, d_tilde


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

    def on_period_boundary(self, after: ColoringSnapshot, order: np.ndarray,
                           report: PeriodReport, before: np.ndarray, d_tilde: np.ndarray) -> None:
        """Check the boundaries at which the nodes ``order`` reported in one
        stretch, which leaves the nodes as ``after`` holds them.

        ``order`` indexes ``after.topology.arrays.nodes`` in the order of
        the boundaries, by slot and then by id; ``report``, ``d_tilde`` and
        ``before``, each node's global phase before its boundary (-1 where
        it held none), follow it.
        """
        view = after.topology.arrays
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
            self.rows += self._rows(view, order, report, before, after.phase, after.colored)

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
    period, hands its boundaries to the boundary checks and returns the
    snapshot of the state it leaves.  A static run in which every node wakes at slot 0
    steps the whole network over arrays (:class:`_ArraySteps`); every
    other run drives one :class:`JitterAndJump` per node through the
    :class:`DiscreteEngine` (:class:`_EngineSteps`).  Both give the same
    result, draw for draw.  The loop takes the good set, good-set
    monotonicity and convergence from each period's snapshot; the first
    all-good snapshot and the last are the result's, and the final
    labels come from the last.
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
        last = steps.step()
        view = last.topology.arrays
        good = _good(last)
        # good after the previous period, still there and good no longer
        lost = np.intersect1d(was_good, view.nodes[~good], assume_unique=True)
        monotonic_violations += len(lost)
        was_good = view.nodes[good]
        if good.size and good.all():
            all_good_periods.append(k)
            if converged_period is None:
                converged_period, snapshot = k, last
            if not cfg.dynamic:
                break
    steps.finish(last)

    return JitterJumpResult(
        converged_period=converged_period,
        periods_run=k,
        snapshot=last if snapshot is None else snapshot,
        final_snapshot=last,
        final_labels=classify_good_bad(last),
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
    checks; then the next period's events apply and its last slot runs,
    for the read."""

    def __init__(self, topology, cfg, q, seed_key, checks, wake, events):
        master = cfg.master_seed
        window = cfg.window_length(topology.n)
        # the initial nodes' rows in one batch, as _ArraySteps seeds them; a
        # node added by an event, or re-added under a removed node's id,
        # seeds its own
        nodes = topology.arrays.nodes
        words = rngmod.seed_words(master, *seed_key, nodes, "protocol")
        initial = dict(zip(nodes.tolist(), words.tolist()))

        def factory(v: int) -> JitterAndJump:
            row = initial.pop(v, None)
            if row is None:
                row = rngmod.seed_words(master, *seed_key, v, "protocol")[0]
            return JitterAndJump(q, cfg.eta, row, dynamic=cfg.dynamic, window=window)

        self.checks = checks
        self.engine = DiscreteEngine(topology, q, factory, wake)
        self._events = deque(sorted(events, key=lambda e: e.at_period))  # stable: file order
        self._boundary(0)  # the events of period 0, then wake processing at slot 0

    def _boundary(self, k: int) -> None:
        """Apply the events of period ``k``, in file order, and step slot
        kQ."""
        events = self._events
        while events and events[0].at_period == k:
            self.engine.apply(events.popleft())
        self.engine.run_slots(1)

    def step(self) -> ColoringSnapshot:
        engine = self.engine
        engine.run_slots(engine.q - 1)
        self.checks.on_period_boundary(*_reported(engine, _read(engine)))
        self._boundary(engine.slot // engine.q)
        return _read(engine)

    def finish(self, last: ColoringSnapshot) -> None:
        """Check the boundaries at slot kQ, the last slot run."""
        self.checks.on_period_boundary(*_reported(self.engine, last))


class _ArraySteps:
    """The periods of a static trial whose nodes all wake at slot 0, over
    arrays: one :meth:`StaticJitterJumpArrays.step` each.  Every boundary
    falls in one slot, taken in id order."""

    def __init__(self, topology, cfg, q, seed_key, checks):
        view = topology.arrays
        words = rngmod.seed_words(cfg.master_seed, *seed_key, view.nodes, "protocol")
        self.protocol = StaticJitterJumpArrays(q, cfg.eta, words, view.src, view.dst)
        self.topology, self.checks = topology, checks

    def step(self) -> ColoringSnapshot:
        protocol = self.protocol
        protocol.step()
        # each step builds new state arrays, so the snapshot keeps its own
        snapshot = discrete_snapshot(self.topology, protocol.q, protocol.p, protocol.interval,
                                     protocol.colored)
        report = protocol.last_report
        self.checks.on_period_boundary(snapshot, np.arange(self.topology.n), report,
                                       report.phase, protocol.d_tilde)
        return snapshot

    def finish(self, last: ColoringSnapshot) -> None:
        """Nothing: each step checks the boundaries it runs."""


# -- continuous-model trials -------------------------------------------------


@dataclass
class BeepFirstResult:
    """One continuous-protocol trial."""

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
    phase = np.array([(pr.p + engine.theta(v)) % t_period if pr.stable else -1.0
                      for v, pr in zip(ids, protos)])
    interval = np.array([-1.0 if pr.interval is None else pr.interval for pr in protos])
    snapshot = ColoringSnapshot(topology, t_period, phase, interval, stable)
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
        all_stable=all_stable,
        late_nodes=late,
        search_overruns=overruns,
        tie_collisions=engine.tie_collisions,
        snapshot=snapshot,
        max_stable_delay=max([0.0, *delays]),
        rows=rows,
    )
