"""Test-only drivers and the literal reference versions of vectorized code.

``tests/`` has no ``__init__.py``, so pytest puts this directory on
``sys.path`` and test modules import this one as ``helpers``.
"""

import importlib
import importlib.util
import pkgutil
from collections import defaultdict, deque
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np

import beepsim
from beepsim import rng as rngmod
from beepsim import runner
from beepsim.analysis import BAD_COLORED, BAD_UNCOLORED, GOOD, ColoringSnapshot, IntervalReport
from beepsim.beepfirst import BeepFirst, _first_fit
from beepsim.continuous import CONTINUOUS_PERIOD, Beep, Listen, Rebase
from beepsim.discrete import DiscreteEngine, SlotOutcome
from beepsim.errors import ConfigError, InternalInconsistencyError, ProtocolViolation
from beepsim.config import SimConfig
from beepsim.jitterjump import JitterAndJump, PeriodReport, buffer_length
from beepsim.lowerbound import TwinCouplingStats
from beepsim.phases import PhaseSet
from beepsim.topology import (
    _PAIRING_ATTEMPTS,
    Topology,
    build_wakeup,
    cycle_of_blocks,
    link,
    twin_pairs,
)
from beepsim.trace import TraceRow

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    """A fresh copy of the benchmark's tracer module, ``bench/spans.py``."""
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def beepsim_modules():
    """Every beepsim module by its short name, as ``spans.install`` takes them."""
    return SimpleNamespace(**{m.name: importlib.import_module(f"beepsim.{m.name}")
                              for m in pkgutil.iter_modules(beepsim.__path__)})


# a Topology never changes, so one map per graph serves every reference below
adjacency_of = lru_cache(maxsize=16)(Topology.adjacency)


def edge_list(topology):
    """The edges of ``topology`` as (u, v) pairs, u < v, in its arrays'
    ascending order."""
    view = topology.arrays
    return list(zip(view.u.tolist(), view.v.tolist()))


@dataclass(frozen=True)
class NodeState:
    """Externally observed state of one node: the reference reading of a
    snapshot, one record per node."""

    node: int
    global_phase: float | int | None
    interval: float | int | None
    colored: bool


def snapshot_of(topology, tau, states):
    """A snapshot of ``topology`` from one :class:`NodeState` per node, in
    any order, None or -1 where a node holds no phase or interval; the
    arrays are ints for an int ``tau`` and floats otherwise."""
    by_id = {s.node: s for s in states}
    nodes = topology.arrays.nodes.tolist()
    if sorted(by_id) != nodes:
        raise ValueError(f"states of nodes {sorted(by_id)} for a graph of nodes {nodes}")
    ordered = [by_id[v] for v in nodes]
    dtype = np.int64 if isinstance(tau, int) else float

    def held(values):
        return np.array([-1 if x is None else x for x in values], dtype=dtype)

    return ColoringSnapshot(topology, tau, held([s.global_phase for s in ordered]),
                            held([s.interval for s in ordered]),
                            np.array([s.colored for s in ordered], dtype=bool))


def held_or_none(value):
    """A protocol field as the readings here hold it: None where it holds
    -1, the protocols' value for none."""
    return None if value == -1 else value


def protocol_states(engine):
    """Every alive node's state read from its protocol, one node at a time:
    the reference for ``runner.discrete_snapshot``."""
    states = []
    for v in sorted(engine.adj):
        proto = engine.protocols[v]
        phase = None if proto.p < 0 else (proto.p + engine.wake_slot[v]) % engine.q
        states.append(NodeState(v, phase, held_or_none(proto.interval), proto.colored))
    return states


def beepfirst_states(engine):
    """Every node's state read from its :class:`BeepFirst`, one node at a
    time: the reference for the snapshot of ``runner.run_beepfirst_trial``."""
    states = []
    for v in sorted(engine.protocols):
        proto = engine.protocols[v]
        phase = (proto.p + engine.theta(v)) % CONTINUOUS_PERIOD if proto.stable else None
        states.append(NodeState(v, phase, proto.interval, proto.stable))
    return states


def node_states(snapshot):
    """A snapshot's nodes as :class:`NodeState` records in id order, read
    back from its arrays (None where a node holds -1)."""
    return [NodeState(v, held_or_none(p), held_or_none(i), c) for v, p, i, c in zip(
        snapshot.topology.arrays.nodes.tolist(), snapshot.phase.tolist(),
        snapshot.interval.tolist(), snapshot.colored.tolist())]


def by_node(snapshot):
    """A snapshot's states keyed by node id."""
    return {s.node: s for s in node_states(snapshot)}


def wrap_distance(a, b, tau):
    """Shortest circular distance between two phases."""
    d = (a - b) % tau
    return min(d, tau - d)


def lift_onto(anchor, phase, tau):
    """Unroll ``phase`` onto the real line so it lands in [anchor, anchor+tau).

    Used when scanning forward from ``anchor`` around the circle: the lifted
    value preserves scan order and may be negative if ``anchor`` is.
    """
    return anchor + ((phase - anchor) % tau)


def last_blocking_beep_reference(s, p, b, tau):
    """Every phase of ``s`` in the closed range [p - b, p + b], lifted onto
    the scan anchored at p - b, and the largest of those past the anchor:
    the oracle for ``beepfirst._last_blocking_beep``."""
    anchor = p - b
    lifted = [lift_onto(anchor, x, tau) for x in s.phases if in_range(x, anchor, p + b, tau)]
    blocking = [x for x in lifted if x > anchor]
    return max(blocking) if blocking else None


def max_neighborhood_degree(topology, v):
    """Largest degree within the closed 1-neighborhood of ``v``, one
    neighbor at a time: the oracle for ``TopologyArrays.dmax``."""
    adj = adjacency_of(topology)
    return max([len(adj[v])] + [len(adj[u]) for u in adj[v]])


def _arcs_intersect(end_a, len_a, end_b, len_b, tau) -> bool:
    # Arcs [end - len, end], closed, wrap-aware.
    return (end_b - end_a) % tau <= len_b or (end_a - end_b) % tau <= len_a


def validate_interval_coloring_reference(snapshot, eta=None):
    """One edge at a time: the oracle for ``analysis.validate_interval_coloring``."""
    states = by_node(snapshot)
    topology, tau = snapshot.topology, snapshot.tau
    violations = []
    pairs = 0
    for u, v in edge_list(topology):
        su, sv = states[u], states[v]
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
    if eta is not None:
        norms = [
            s.interval * (2 * max_neighborhood_degree(topology, s.node) + 1) / (eta * tau)
            for s in node_states(snapshot)
            if s.colored and s.interval is not None
        ]
        min_norm = min(norms) if norms else None
    return IntervalReport(pairs, tuple(violations), min_norm)


def symmetric_window_violations_reference(snapshot):
    """One edge at a time: the oracle for ``analysis.symmetric_window_violations``."""
    states = by_node(snapshot)
    tau = snapshot.tau
    bad = []
    for u, v in edge_list(snapshot.topology):
        su, sv = states[u], states[v]
        if su.global_phase is None or sv.global_phase is None:
            continue
        d = wrap_distance(su.global_phase, sv.global_phase, tau)
        if d <= (sv.interval or 0) or d <= (su.interval or 0):
            bad.append((u, v))
    return bad


def classify_good_bad_reference(snapshot):
    """One node and one neighbor at a time: the oracle for
    ``analysis.classify_good_bad``."""
    states = by_node(snapshot)
    topology, tau = snapshot.topology, snapshot.tau
    labels = {}
    for v in topology.nodes:
        sv = states[v]
        if not sv.colored:
            labels[v] = BAD_UNCOLORED
            continue
        conflict = False
        for u in adjacency_of(topology)[v]:
            su = states[u]
            if su.global_phase is None:
                continue
            if wrap_distance(su.global_phase, sv.global_phase, tau) <= 1:
                conflict = True
                break
        labels[v] = BAD_COLORED if conflict else GOOD
    return labels


def hardness_reduction_reference(local_phases, offsets, q, topology):
    """One edge at a time: the oracle for ``analysis.hardness_reduction``."""
    colors = {v: (local_phases[v] + offsets[v]) % q for v in local_phases}
    for u, v in edge_list(topology):
        if u in colors and v in colors and colors[u] == colors[v]:
            raise InternalInconsistencyError(
                f"adjacent nodes {u} and {v} share color {colors[u]}"
            )
    return colors


def neighbor_phase_ties_reference(snapshot):
    """One edge at a time: the oracle for ``analysis.neighbor_phase_ties``."""
    states = by_node(snapshot)
    ties = 0
    for u, v in edge_list(snapshot.topology):
        su, sv = states[u], states[v]
        if su.global_phase is not None and su.global_phase == sv.global_phase:
            ties += 1
    return ties


def first_clear_phase(s, b, t_period):
    """The beep-first first-fit scan over a frozen set of heard phases.

    Returns (phase, extra_listening) where extra_listening is how much
    additional listening the scan would have consumed.
    """
    scan = _first_fit(s, b, t_period)
    try:
        scan.send(None)
        while True:
            scan.send(())
    except StopIteration as done:
        return done.value


class LoopBeepFirst(BeepFirst):
    """Beep-first with its settled phase spelled out as listens and beeps,
    resumed by the engine at every one: the oracle for ``Cycle``."""

    def run(self):
        t_period = CONTINUOUS_PERIOD
        self.interval = (1.0 - self.epsilon) * t_period / (2.0 * (self.d_max + 1))
        self.b = (1.0 - self.eps_v) * t_period / (2.0 * (self.d + 1))
        yield Listen(self.eps_v)
        yield Rebase()

        heard = yield Listen(t_period)
        s = PhaseSet.from_iterable(heard, t_period)
        p, self.search_listening = yield from _first_fit(s, self.b, t_period)
        self.p = p

        beeped_at = yield Beep()
        self.stable_since = beeped_at
        yield Listen(t_period - p)
        while True:
            yield Listen(p)
            yield Beep()
            yield Listen(t_period - p)


def record_beeps(engine):
    """Log every beep ``engine`` emits from now on; returns a dict from node
    to its beep times in order.  Wraps the engine's ``emit_beep`` and, for
    the beeps a fast-forward plays without it, reads the engine's new
    stretches after each ``run_until``."""
    log = defaultdict(list)
    emit, run_until = engine.emit_beep, engine.run_until
    seen = len(engine._stretches)

    def emit_beep(v, t):
        log[v].append(t)
        emit(v, t)

    def run_until_recorded(t_end):
        nonlocal seen
        try:
            run_until(t_end)
        finally:
            for times, who, _ in engine._stretches[seen:]:
                for v, t in zip(engine._ids[who].tolist(), times.tolist()):
                    log[v].append(t)
            seen = len(engine._stretches)

    engine.emit_beep = emit_beep
    engine.run_until = run_until_recorded
    return log


def collision_escape_trial(cfg, seed_key) -> bool:
    """Engineer two adjacent colored nodes onto the same slot; report whether
    both give the slot up at the end of the next period."""
    topo = Topology.from_edges(2, [(0, 1)])
    q = cfg.resolve_q(topo.delta)
    master = cfg.master_seed

    def factory(v):
        return JitterAndJump(q, cfg.eta, rngmod.seed_words(master, *seed_key, v, "protocol")[0])

    engine = DiscreteEngine(topo, q, factory, {0: 0, 1: 0})
    engine.run_slots(1)
    for v in (0, 1):
        proto = engine.protocols[v]
        proto.colored = True
        proto.p = q // 2
    # Boundary at Q keeps the injected phases (colored nodes do not redraw),
    # the collision period runs, and the boundary at 2Q applies the verdict.
    engine.run_slots(2 * q)
    return all(not engine.protocols[v].colored for v in (0, 1))


def in_range(phase, a, b, tau) -> bool:
    """Wrap-aware membership test for the closed range [a, b]: the oracle
    for ``PhaseSet.range_query`` and the window tests of ``JitterAndJump``.

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


def heard_in_range_reference(heard, a, b, q):
    """Any heard phase in the wrap-aware closed range [a, b], one
    ``in_range`` call per phase: the buffer and near tests of
    ``ReferenceJitterAndJump``."""
    return any(in_range(x, a, b, q) for x in heard)


def measured_interval_reference(heard, phase, q):
    """Largest s with no heard beep in [phase-s, phase], clamped at 0, and
    Q-1 when nothing was heard: the interval of ``ReferenceJitterAndJump``."""
    if not heard:
        return q - 1
    gap = min((phase - x) % q for x in heard)
    return max(gap - 1, 0)


def free_slots_reference(heard, b, q, own_phase=-1):
    """Every slot whose guard window [p-b-2, p+b+1] contains no occupied
    slot, as one Q-long list: the oracle for ``jitterjump.free_slots`` and
    its gap walk.

    Occupied slots are the heard beeps plus the node's own current phase
    (-1 when it holds none).  A slot p is blocked by an occupied slot x
    exactly when p lies in [x-b-1, x+b+2] (wrap-aware).
    """
    markers = set(heard)
    if own_phase >= 0:
        markers.add(own_phase % q)
    if not markers:
        return list(range(q))
    width = 2 * b + 4
    if width >= q:
        return []
    # each marker blocks the run [start, start+width) on the circle; all
    # runs share one width, so in order of start they also end in order,
    # and of the runs that wrap past Q the last blocks the longest [0, tail)
    starts = sorted((x - b - 1) % q for x in markers)
    free = []
    reach = max(starts[-1] + width - q, 0)
    for start in starts:
        free.extend(range(reach, start))
        reach = start + width
    free.extend(range(reach, q))
    return free


class ReferenceJitterAndJump(JitterAndJump):
    """Jitter-and-jump with one window check per pass over the heard phases,
    every free slot listed by ``free_slots_reference`` and every draw from
    numpy's ``Generator.integers`` on the stream of ``key``: the oracle for
    the one-pass period digest, the gap walk and the draws of
    ``JitterAndJump`` from its row ``seed_words(*key)[0]``."""

    def __init__(self, q, eta, key, dynamic=False, window=1):
        super().__init__(q, eta, rngmod.seed_words(*key)[0], dynamic=dynamic, window=window)
        self.rng = rngmod.stream(*key)

    def on_period_end(self, heard):
        q, p, dynamic, colored = self.q, self.p, self.dynamic, self.colored
        n_heard = len(heard)
        interval, reset = -1, False
        if dynamic:
            self._window.append(n_heard)
            d_star = self.d_star = max(self._window)
        if self.period == 0 or not dynamic:
            d_tilde = max(n_heard, 1)
        else:
            d_tilde = max(self.d_tilde, d_star)
        b = buffer_length(self.eta, q, d_tilde)
        if self.period:
            interval = self.interval = measured_interval_reference(heard, p, q)
            if not heard_in_range_reference(heard, p - b, p + b, q):
                colored = True
            elif heard_in_range_reference(heard, p - 1, p + 2, q):
                colored = False
            if dynamic and d_star < d_tilde / 16:
                d_tilde = max(d_star, 1)
                b = buffer_length(self.eta, q, d_tilde)
                colored = False
                reset = True
        self.d_tilde, self.b, self.colored = d_tilde, b, colored

        free_count = -1
        if not colored or dynamic:
            free = free_slots_reference(heard, b, q, own_phase=p)
            free_count = len(free)
            if not free:
                raise ProtocolViolation(
                    f"no free slots (Q={q}, b={b}, heard={n_heard}); "
                    "parameters are outside the supported regime"
                )
        rng = self.rng
        if not colored:
            self.p = free[rng.integers(free_count)]
        used_jitter = self.jitter
        jitter = self.jitter = int(rng.integers(2))
        offsets = ((self.p + jitter) % q,)
        if dynamic:
            self.p_prime = free[rng.integers(free_count)]
            offsets += (self.p_prime,)

        self.last_report = PeriodReport(
            self.period, p, used_jitter, interval, n_heard, colored, free_count, reset
        )
        self.period += 1
        return offsets


def bb_montecarlo_reference(m, n, trials, seed):
    """The occupancy sampler drawing int64 bins about 2,000,000 at a time:
    the oracle for ``ballsbins.bb_montecarlo``."""
    if trials < 1:
        raise ConfigError("trials must be >= 1")
    if m == 0:
        return {0: 1.0}
    rng = rngmod.stream(seed, "ballsbins")
    counts = np.zeros(min(m, n) + 1, dtype=np.int64)
    chunk = max(1, int(2_000_000 // m))
    remaining = trials
    while remaining:
        c = min(chunk, remaining)
        draws = rng.integers(0, n, size=(c, m))
        if n < 2**15:  # the same bins sort faster as int16
            draws = draws.astype(np.int16)
        srt = np.sort(draws, axis=1)
        occ = np.count_nonzero(srt[:, 1:] != srt[:, :-1], axis=1) + 1
        counts += np.bincount(occ, minlength=counts.size)
        remaining -= c
    return {k: c / trials for k, c in enumerate(counts) if c}


def gnp_reference(n, p, rng):
    """G(n, p) drawn one pair at a time: the oracle for ``topology.gnp``."""
    if n < 1 or not 0.0 <= p <= 1.0:
        raise ConfigError("gnp needs n >= 1 and p in [0, 1]")
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Topology.from_edges(n, edges)


def random_regular_reference(n, d, rng):
    """The pairing model checked one pair at a time: the oracle for
    ``topology.random_regular``."""
    if n * d % 2 != 0 or d >= n or d < 0:
        raise ConfigError(f"no {d}-regular graph on {n} nodes exists")
    stubs = np.repeat(np.arange(n), d)
    for _ in range(_PAIRING_ATTEMPTS):
        perm = rng.permutation(stubs)
        pairs = perm.reshape(-1, 2)
        seen = set()
        ok = True
        for a, b in pairs:
            u, v = int(a), int(b)
            if u == v:
                ok = False
                break
            key = (u, v) if u < v else (v, u)
            if key in seen:
                ok = False
                break
            seen.add(key)
        if ok:
            return Topology.from_edges(n, sorted(seen))
    raise ConfigError(f"could not sample a simple {d}-regular graph in {_PAIRING_ATTEMPTS} attempts")


def apply_event(adj, ev):
    """Apply one event to a plain adjacency map, with the engine's checks
    spelled out (the edge checks are ``topology.link``'s)."""
    if ev.kind == "add_node":
        v = ev.nodes[0]
        if v < 0 or v in adj:
            raise ConfigError(f"cannot add node {v}")
        adj[v] = set()
        for u in ev.nodes[1:]:
            link(adj, v, u)
    elif ev.kind == "remove_node":
        if ev.nodes[0] not in adj:
            raise ConfigError(f"cannot remove unknown node {ev.nodes[0]}")
        for u in adj.pop(ev.nodes[0]):
            adj[u].discard(ev.nodes[0])
    elif ev.kind == "add_edge":
        link(adj, *ev.nodes)
    else:
        u, v = ev.nodes
        if u not in adj or v not in adj[u]:
            raise ConfigError(f"cannot remove unknown edge ({u}, {v})")
        adj[u].discard(v)
        adj[v].discard(u)


def valid_events(topo, candidates):
    """Keep the candidate events that apply cleanly, in period then list order."""
    shadow = topo.adjacency()
    kept = []
    for ev in sorted(candidates, key=lambda e: e.at_period):
        trial = {v: set(nbrs) for v, nbrs in shadow.items()}  # a failing event may half apply
        try:
            apply_event(trial, ev)
        except ConfigError:
            continue
        shadow = trial
        kept.append(ev)
    return tuple(kept)


@contextmanager
def watch_boundaries(fn):
    """Call ``fn(engine, v, slot)`` once per per-node period boundary of the
    engine runs inside the block, in (slot, id) order, right after the
    runner's boundary pass that covers it: every node then holds the state
    its boundary left."""
    checks = runner._BoundaryChecks.on_period_boundary
    watched_to = {}  # engine -> the first slot whose boundaries fn has not seen

    def watched(self, *args):
        checks(self, *args)
        engine = engines[-1]
        start, end, q = watched_to.get(engine, 0), engine.slot, engine.q
        watched_to[engine] = end
        due = []
        for v in engine.adj:
            wake = engine.wake_slot[v]
            first = wake if wake >= start else start + (wake - start) % q
            due += [(s, v) for s in range(first, end, q)]
        for s, v in sorted(due):
            fn(engine, v, s)

    with capture_engines() as engines, \
            mock.patch.object(runner._BoundaryChecks, "on_period_boundary", watched):
        yield


@contextmanager
def capture_engines(name="DiscreteEngine"):
    """Yield a list that collects every engine of class ``runner.<name>``
    (``DiscreteEngine`` or ``ContinuousEngine``) the runner builds inside
    the block."""
    built = []

    class Captured(getattr(runner, name)):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    with mock.patch.object(runner, name, Captured):
        yield built


def run_on_engine(topology, cfg, **kwargs):
    """``run_jitterjump_trial`` with a static run whose nodes all wake at
    slot 0 stepped by the per-node engine instead of over arrays."""
    def engine_steps(topology, cfg, q, seed_key, checks):
        wake = dict.fromkeys(topology.nodes, 0)
        return runner._EngineSteps(topology, cfg, q, seed_key, checks, wake, ())

    with mock.patch.object(runner, "_ArraySteps", engine_steps):
        return runner.run_jitterjump_trial(topology, cfg, **kwargs)


class ReferenceEngine(DiscreteEngine):
    """The engine with its slot step written out one node and one beeper at a
    time, beepers in id order, each node's heard phases kept as a set, and
    every slot of a run tested for work in turn: the oracle for
    ``DiscreteEngine.step_slot``, ``pending_phases`` and ``run_slots``.

    ``observer.on_period_boundary(engine, v, slot)``, when given, runs at
    every node's every boundary, right after the node's boundary step."""

    def __init__(self, *args, observer=None, **kwargs):
        self.observer = observer
        super().__init__(*args, **kwargs)

    def _admit(self, v, wake):
        super()._admit(v, wake)
        self._heard[v] = set()  # phases of its own clock, not global slots

    def pending_phases(self, v):
        return tuple(sorted(self._heard[v]))

    def step_slot(self) -> SlotOutcome:
        s = self.slot
        for v in sorted(self._boundaries.pop(s, ())):
            if v not in self.adj:
                continue
            heard = tuple(sorted(self._heard[v]))
            self._heard[v] = set()
            if s == self.wake_slot[v]:
                plan: tuple[int, ...] = ()  # first period: listen only
            else:
                self.reported.append(v)
                plan = tuple(self.protocols[v].on_period_end(heard))
            for off in plan:
                if not 0 <= off <= self.q:
                    raise InternalInconsistencyError(
                        f"beep offset {off} outside [0, Q] from node {v}"
                    )
                t = s + off
                self._beeps.setdefault(t, []).append(v)
                self._scheduled[v].add(t)
            self._boundaries.setdefault(s + self.q, []).append(v)
            if self.observer is not None:
                self.observer.on_period_boundary(self, v, s)

        beepers = frozenset(v for v in self._beeps.pop(s, ()) if v in self.adj)
        for v in beepers:
            self._scheduled[v].discard(s)
        heard_now: set[int] = set()
        for u in sorted(beepers):
            for v in self.adj[u]:
                if v in beepers or v not in self.adj or s < self.wake_slot[v]:
                    continue
                self._heard[v].add((s - self.wake_slot[v]) % self.q)
                heard_now.add(v)

        self.slot = s + 1
        return SlotOutcome(s, beepers, frozenset(heard_now))

    def run_slots(self, count):
        s, end = self.slot, self.slot + count
        while s < end:
            if s in self._boundaries or s in self._beeps:
                self.slot = s
                self.step_slot()
            s += 1
        self.slot = s


class WithEvents:
    """``engine`` driven slot by slot with topology events applied as the
    runner's period loop applies them: those of period k at slot kQ, in
    the order given, before that slot is stepped.  Every other attribute
    is the engine's."""

    def __init__(self, engine, events):
        self.engine = engine
        self._events = deque(sorted(events, key=lambda e: e.at_period))

    def __getattr__(self, name):
        return getattr(self.engine, name)

    def _apply_due(self):
        engine, events = self.engine, self._events
        while events and events[0].at_period * engine.q == engine.slot:
            engine.apply(events.popleft())

    def step_slot(self):
        self._apply_due()
        return self.engine.step_slot()

    def run_slots(self, count):
        """``engine.run_slots(count)``, stopping at each global period
        boundary to apply its events."""
        engine = self.engine
        end = engine.slot + count
        while engine.slot < end:
            self._apply_due()
            engine.run_slots(min(end, (engine.slot // engine.q + 1) * engine.q) - engine.slot)


def reported_reference(engine, nodes, start, end):
    """The ids of ``nodes`` whose boundaries the engine ran in the stretch
    of slots [start, end), at most Q long, by slot and then by id, derived
    from wake slots: the oracle for ``engine.reported``.

    A node's boundaries fall every Q slots from its wake slot, so it has
    at most one in the stretch, and it reports there exactly when it woke
    before ``start``; one that wakes inside only starts listening."""
    q = engine.q
    due = []
    for v in nodes:
        wake = engine.wake_slot[v]
        gap = (wake - start) % q  # its boundary falls in slot start + gap
        if wake < start and gap < end - start:
            due.append((gap, v))
    return [v for _, v in sorted(due)]


def label_for(engine, v):
    """The trace row label of ``v`` read from the protocols as they stand:
    the oracle, one node at a time, for the labels of
    ``runner._BoundaryChecks.on_period_boundary``.

    Read while the boundary slot is being stepped, with nodes in id order,
    a lower-id neighbour sharing the slot is seen after its own boundary
    step and a higher-id one before it."""
    proto = engine.protocols[v]
    if proto.p < 0 or not proto.colored:
        return BAD_UNCOLORED
    q = engine.q
    pv = (proto.p + engine.wake_slot[v]) % q
    for u in engine.adj[v]:
        pu = engine.protocols[u].p
        if pu < 0:
            continue
        if wrap_distance((pu + engine.wake_slot[u]) % q, pv, q) <= 1:
            return BAD_COLORED
    return GOOD


class BoundaryChecks:
    """``runner._BoundaryChecks`` one boundary at a time, as
    :class:`ReferenceEngine`'s observer: its oracle."""

    def __init__(self, eta, q, topology, dynamic, collect_rows):
        self.dynamic = dynamic
        self.collect_rows = collect_rows
        self.free_floor = (1.0 - 3.0 * eta) * q
        self.sandwich_violations = 0
        self.free_floor_violations = 0
        self.beep_bound_violations = 0
        self.window_observations = 0
        self.resets = 0
        self.rows = []
        self._degree_at_boundary = {}
        self._estimate_bound = {v: max(2 * topology.degree(v), 1) for v in topology.nodes}

    def on_period_boundary(self, engine, v, slot):
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
            self.window_observations += 1
            if report.beeps_heard > 4 * max(previous, degree):
                self.beep_bound_violations += 1
        elif report is None:
            return
        else:
            if report.period and not 1 <= proto.d_tilde <= self._estimate_bound[v]:
                self.sandwich_violations += 1
            if report.free_count >= 0 and report.free_count < self.free_floor:
                self.free_floor_violations += 1
        self.resets += report.reset
        if self.collect_rows:
            self.rows.append(TraceRow(report.period, v, held_or_none(report.phase),
                                      held_or_none(report.jitter), held_or_none(report.interval),
                                      report.colored, label_for(engine, v), report.beeps_heard))


def boundary_checks_reference(topology, cfg, seed_key, events, periods):
    """The boundaries of a ``periods``-period ``run_jitterjump_trial`` checked
    one at a time on :class:`ReferenceEngine`, with every node's draws of
    the trial: the :class:`BoundaryChecks` and the resets of every report,
    those of nodes removed later included."""
    q = cfg.resolve_q(topology.delta)
    master = cfg.master_seed
    wake = build_wakeup(cfg.wakeup, topology.nodes, q, rngmod.stream(master, *seed_key, "wakeup"))
    window = cfg.window_length(topology.n)

    def factory(v):
        return JitterAndJump(q, cfg.eta, rngmod.seed_words(master, *seed_key, v, "protocol")[0],
                             dynamic=cfg.dynamic, window=window)

    checks = BoundaryChecks(cfg.eta, q, topology, cfg.dynamic, collect_rows=True)
    engine = ReferenceEngine(topology, q, factory, wake, observer=checks)
    WithEvents(engine, events).run_slots(1 + periods * q)
    return checks, checks.resets


def twin_coupling_reference(k, slots, trials, seed, shared_randomness=False):
    """The twin experiment stepping and fingerprinting every slot: the
    oracle for ``lowerbound.twin_coupling_experiment``."""
    cfg = SimConfig()
    topo = cycle_of_blocks(k)
    pairs = twin_pairs(k)
    twin_index = {}
    for idx, (b, c) in enumerate(pairs):
        twin_index[b] = idx
        twin_index[c] = idx
    q = cfg.resolve_q(topo.delta)

    divergences = 0
    same_state = 0
    same_action = 0
    retained = [0] * slots

    for trial in range(trials):

        def factory(v):
            if shared_randomness and v in twin_index:
                key = (seed, trial, "twin", twin_index[v], "protocol")
            else:
                key = (seed, trial, v, "protocol")
            return JitterAndJump(q, cfg.eta, rngmod.seed_words(*key)[0])

        engine = DiscreteEngine(topo, q, factory, {v: 0 for v in topo.nodes})
        alive_pairs = set(range(len(pairs)))
        for s in range(slots):
            identical = {
                idx
                for idx in alive_pairs
                if engine.fingerprint(pairs[idx][0]) == engine.fingerprint(pairs[idx][1])
            }
            if identical:
                retained[s] += 1
            if shared_randomness and len(identical) < len(alive_pairs):
                divergences += len(alive_pairs) - len(identical)
                alive_pairs = identical
            outcome = engine.step_slot()
            for idx in identical:
                b, c = pairs[idx]
                same_state += 1
                if (b in outcome.beeped) == (c in outcome.beeped):
                    same_action += 1

    return TwinCouplingStats(
        k=k,
        trials=trials,
        slots=slots,
        shared_randomness=shared_randomness,
        divergences=divergences,
        same_state_observations=same_state,
        same_action_matches=same_action,
        retention_by_slot=tuple(r / trials for r in retained),
    )
