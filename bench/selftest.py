"""Self-test of the benchmark on tiny versions of its four workloads.

Run from the repository root::

    python3 bench/selftest.py

It checks that tracing restores every wrapped attribute, that self times
are non-negative and sum to no more than the traced wall time, that each
layer is busy on the workloads the layer table names and idle where the
table predicts a bypass, that digests agree between traced, untraced and
repeated runs, and that the benchmark refuses to run without sources.
Exit code 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import bench
import spans
from workloads import make_workloads

ALL = {"static-regular", "dynamic-churn", "beepfirst-gnp", "oracles"}
DISCRETE = {"static-regular", "dynamic-churn", "oracles"}
RUNNER = {"static-regular", "dynamic-churn", "beepfirst-gnp"}

# Per-layer metric -> workloads where it must be positive; zero everywhere else.
BUSY_ON = {
    "topology.self_s": ALL,
    "topology.calls": ALL,
    "topology.edges": ALL,
    "rng.self_s": ALL,
    "rng.calls": ALL,
    "discrete.self_s": DISCRETE,
    "discrete.slots": DISCRETE,
    "discrete.beeps": DISCRETE,
    "discrete.hears": DISCRETE,
    "discrete.busy_slot_ratio": DISCRETE,
    "jitterjump.self_s": DISCRETE,
    "jitterjump.calls": DISCRETE,
    "jitterjump.free_slots_s": DISCRETE,
    "jitterjump.free_slots_calls": DISCRETE,
    "jitterjump.resets": {"dynamic-churn"},
    "runner.self_s": RUNNER,
    "runner.snapshot_s": {"static-regular", "dynamic-churn"},
    "runner.observer_s": {"static-regular", "dynamic-churn"},
    "analysis.classify_s": {"static-regular", "dynamic-churn"},
    "analysis.classify_calls": {"static-regular", "dynamic-churn"},
    "analysis.validate_s": RUNNER,
    "continuous.self_s": {"beepfirst-gnp"},
    "continuous.beeps": {"beepfirst-gnp"},
    "continuous.tie_collisions": set(),
    "beepfirst.self_s": {"beepfirst-gnp"},
    "beepfirst.resumes": {"beepfirst-gnp"},
    "phases.self_s": {"beepfirst-gnp"},
    "phases.range_query_calls": {"beepfirst-gnp"},
    "trace.self_s": {"dynamic-churn"},
    "trace.rows": {"dynamic-churn"},
    "trace.bytes": {"dynamic-churn"},
    "ballsbins.exact_s": {"oracles"},
    "ballsbins.enumerate_s": {"oracles"},
    "ballsbins.montecarlo_s": {"oracles"},
    "lowerbound.self_s": {"oracles"},
    "lowerbound.fingerprint_s": {"oracles"},
    "lowerbound.fingerprint_calls": {"oracles"},
    "cli.self_s": ALL,
}


class Checks:
    def __init__(self):
        self.failures: list[str] = []

    def __call__(self, ok: bool, what: str) -> None:
        if not ok:
            self.failures.append(what)
        print(f"{'ok  ' if ok else 'FAIL'} {what}")


def originals(bs) -> list[tuple[object, str, object]]:
    tracer = spans.Tracer()
    try:
        spans.install(tracer, bs)
        return tracer.patched()
    finally:
        tracer.restore()


def check_workload(check: Checks, workload, seed: int) -> None:
    name = workload.name
    with bench.workdir() as wd:
        _, bs, inputs = bench.setup(workload, seed, wd)
        patched = originals(bs)
        plain = bench.timed_run(workload, bs, inputs, 0.0)
        traced = bench.traced_run(workload, bs, inputs, 0.0)
        again = bench.timed_run(workload, bs, inputs, 0.0)
    check(all(vars(owner)[attr] is orig for owner, attr, orig in patched),
          f"{name}: all {len(patched)} wrapped attributes restored")
    check(not any(c.errors or c.failed for c in plain["campaigns"] + traced["campaigns"]),
          f"{name}: every operation passed its output checks")
    check(plain["digest"] == traced["digest"] == again["digest"],
          f"{name}: sim_digest equal untraced, traced and repeated")
    for run, wall in zip(traced["layer_runs"], traced["traced_wall_s"]):
        selfs = [run[key] for key in spans.SELF_TIMES]
        check(min(selfs) >= 0.0 and sum(selfs) <= wall,
              f"{name}: self times >= 0 and sum {sum(selfs):.4f} s <= traced wall {wall:.4f} s")
    metrics = {key: value for key, (value, _unit) in traced["metrics"].items()}
    for key, busy in sorted(BUSY_ON.items()):
        if name in busy:
            check(metrics[key] > 0, f"{name}: {key} = {metrics[key]} > 0")
        else:
            check(metrics[key] == 0, f"{name}: {key} = {metrics[key]} == 0 (bypassed)")


def check_refuses_without_sources(check: Checks) -> None:
    base = bench.ROOT / ".bench_tmp"
    base.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=base))
    try:
        shutil.copy(bench.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(Path(bench.__file__).parent, bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "bench/bench.py", "--workload", "oracles", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0 and '"correct"' not in proc.stdout,
          f"without src/ the benchmark exits {proc.returncode} and prints no result")


def main() -> int:
    check = Checks()
    missing = set(spans.SELF_TIMES + spans.COUNTERS) - set(BUSY_ON)
    check(not missing, f"every per-layer metric has an expectation (missing {sorted(missing)})")
    for workload in make_workloads(tiny=True).values():
        check_workload(check, workload, seed=3)
    check_refuses_without_sources(check)
    print(f"{len(check.failures)} check(s) failed" if check.failures else "all checks passed")
    return 1 if check.failures else 0


if __name__ == "__main__":
    sys.exit(main())
