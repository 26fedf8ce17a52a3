"""Per-layer spans recorded from outside the program.

A :class:`Tracer` replaces a public name of a beepsim module with a
wrapper that times every call, at the place where the caller looks the
name up (``beepsim.cli.parse_graph_spec``, not only
``beepsim.topology.parse_graph_spec``).  Spans nest on one stack, so each
layer's *self* time is its spans' duration minus the time spent in
wrapped calls inside them.  Counters are taken at the same boundaries.
:meth:`Tracer.restore` puts every original object back.

This module imports nothing from beepsim: :func:`install` receives the
already imported modules, so importing it costs nothing in set-up time.
"""

from __future__ import annotations

import os
import time
import weakref
from collections import defaultdict
from types import SimpleNamespace

SELF_TIMES = (
    "topology.self_s",
    "rng.self_s",
    "discrete.self_s",
    "jitterjump.self_s",
    "jitterjump.free_slots_s",
    "runner.self_s",
    "runner.snapshot_s",
    "runner.observer_s",
    "analysis.classify_s",
    "analysis.validate_s",
    "continuous.self_s",
    "beepfirst.self_s",
    "phases.self_s",
    "trace.self_s",
    "ballsbins.exact_s",
    "ballsbins.enumerate_s",
    "ballsbins.montecarlo_s",
    "lowerbound.self_s",
    "lowerbound.fingerprint_s",
    "cli.self_s",
)

COUNTERS = (
    "topology.calls",
    "topology.edges",
    "rng.calls",
    "discrete.slots",
    "discrete.beeps",
    "discrete.hears",
    "jitterjump.calls",
    "jitterjump.free_slots_calls",
    "jitterjump.resets",
    "analysis.classify_calls",
    "continuous.beeps",
    "continuous.tie_collisions",
    "beepfirst.resumes",
    "phases.range_query_calls",
    "trace.rows",
    "trace.bytes",
    "lowerbound.fingerprint_calls",
)


class Tracer:
    """Span stack, per-layer self times, counters and the patches made."""

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[list[float]] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, layer: str, fn, observe=None):
        """Return ``fn`` timed as a span of ``layer``.

        ``observe(result, args)`` runs after the span closes; its cost is
        hidden from the enclosing span, so it shows only as overhead.
        """
        stack = self._stack
        self_s = self.self_s
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self_s[layer] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
            if observe is not None:
                observe(result, args)
                if stack:
                    stack[-1][0] += clock() - end
            return result

        return traced

    def patch(self, owner, name: str, layer: str, observe=None) -> None:
        """Replace ``owner.name`` (a module or class attribute) by a span."""
        original = vars(owner)[name]
        if isinstance(original, classmethod):
            replacement = classmethod(self.wrap(layer, original.__func__, observe))
        else:
            replacement = self.wrap(layer, original, observe)
        self.replace(owner, name, replacement)

    def replace(self, owner, name: str, replacement) -> None:
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, replacement)

    def restore(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def patched(self) -> list[tuple[object, str, object]]:
        return list(self._patches)

    def count(self, key: str, amount: int = 1) -> None:
        self.counts[key] += amount

    def counter(self, key: str):
        """An ``observe`` callback that counts calls under ``key``."""
        return lambda result, args: self.count(key)

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {key: float(self.self_s.get(key, 0.0)) for key in SELF_TIMES}
        out.update({key: int(self.counts.get(key, 0)) for key in COUNTERS})
        slots = self.counts.get("discrete.slots", 0)
        busy = self.counts.get("discrete.busy_slots", 0)
        out["discrete.busy_slot_ratio"] = busy / slots if slots else 0.0
        return out


def _edges(topology) -> int:
    return sum(topology.degree(v) for v in topology.nodes) // 2


def install(tracer: Tracer, bs: SimpleNamespace) -> None:
    """Wrap the layer boundaries of the beepsim modules in ``bs``.

    ``bs`` holds the imported modules by their short names (``cli``,
    ``topology``, ``rng``, ...).  Hot helpers called from inside a layer
    (``phases.in_range``, ``phases.wrap_distance``) stay unwrapped and
    count toward their caller's self time.
    """
    t = tracer
    cli = bs.cli

    def graph_built(topology, args):
        t.count("topology.calls")
        t.count("topology.edges", _edges(topology))

    t.patch(cli, "parse_graph_spec", "topology.self_s", graph_built)
    t.patch(cli, "load_events", "topology.self_s")
    t.patch(bs.lowerbound, "build_lowerbound_graph", "topology.self_s", graph_built)

    t.patch(bs.rng, "stream", "rng.self_s", t.counter("rng.calls"))
    t.patch(bs.ballsbins, "stream", "rng.self_s", t.counter("rng.calls"))

    def slot_done(outcome, args):
        t.count("discrete.slots")
        if outcome.beeped:
            t.count("discrete.busy_slots")
            t.count("discrete.beeps", len(outcome.beeped))
        t.count("discrete.hears", len(outcome.heard))

    t.patch(bs.discrete.DiscreteEngine, "step_slot", "discrete.self_s", slot_done)
    t.patch(bs.discrete.DiscreteEngine, "fingerprint", "lowerbound.fingerprint_s",
            t.counter("lowerbound.fingerprint_calls"))

    def period_done(result, args):
        t.count("jitterjump.calls")
        if args[0].last_report.reset:
            t.count("jitterjump.resets")

    t.patch(bs.jitterjump.JitterAndJump, "on_period_end", "jitterjump.self_s", period_done)
    t.patch(bs.jitterjump, "free_slots", "jitterjump.free_slots_s",
            t.counter("jitterjump.free_slots_calls"))

    t.patch(cli, "run_jitterjump_trial", "runner.self_s")
    t.patch(cli, "run_beepfirst_trial", "runner.self_s")
    t.patch(bs.runner, "discrete_snapshot", "runner.snapshot_s")
    t.patch(bs.runner._BoundaryChecks, "on_period_boundary", "runner.observer_s")

    t.patch(bs.runner, "classify_good_bad", "analysis.classify_s",
            t.counter("analysis.classify_calls"))
    for name in ("validate_interval_coloring", "symmetric_window_violations",
                 "neighbor_phase_ties", "hardness_reduction"):
        t.patch(cli, name, "analysis.validate_s")

    ties_seen: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    def ran_until(result, args):
        engine = args[0]
        t.count("continuous.tie_collisions", engine.tie_collisions - ties_seen.get(engine, 0))
        ties_seen[engine] = engine.tie_collisions

    engine_cls = bs.continuous.ContinuousEngine
    t.patch(engine_cls, "run_until", "continuous.self_s", ran_until)
    t.patch(engine_cls, "emit_beep", "continuous.self_s", t.counter("continuous.beeps"))

    # The engine only ever calls ``gen.send``, so a proxy exposing a timed
    # ``send`` is enough to time the protocol's generator body.
    run = vars(bs.beepfirst.BeepFirst)["run"]
    resumed = t.counter("beepfirst.resumes")

    def timed_run(self):
        return SimpleNamespace(send=t.wrap("beepfirst.self_s", run(self).send, resumed))

    t.replace(bs.beepfirst.BeepFirst, "run", timed_run)

    t.patch(bs.phases.PhaseSet, "range_query", "phases.self_s",
            t.counter("phases.range_query_calls"))
    t.patch(bs.phases.PhaseSet, "union", "phases.self_s")
    t.patch(bs.phases.PhaseSet, "from_iterable", "phases.self_s")

    def csv_written(result, args):
        t.count("trace.rows", len(args[1]))
        t.count("trace.bytes", os.path.getsize(args[0]))

    t.patch(cli, "write_csv", "trace.self_s", csv_written)

    t.patch(cli, "bb_exact", "ballsbins.exact_s")
    t.patch(cli, "bb_montecarlo", "ballsbins.montecarlo_s")
    t.patch(bs.ballsbins, "bb_enumerate", "ballsbins.enumerate_s")
    t.patch(cli, "twin_coupling_experiment", "lowerbound.self_s")

    t.patch(cli, "main", "cli.self_s")
