"""Benchmark for beepsim: campaign wall time, simulation rate and a traced per-layer split.

Run from the repository root::

    python3 bench/bench.py --workload static-regular --seed 7 --seconds 30 --trace 0

The program under test is ``src/beepsim`` of the checkout that holds this
file; it is imported from there and nowhere else.  Each workload's
campaign is driven in-process through ``beepsim.cli.main(argv)`` (plus one
direct ``bb_enumerate`` call for ``oracles``) in a closed loop: one
caller, no threads, the next campaign starts when the previous one ends.

``--trace 0`` times campaigns with tracing off and prints the end-to-end
metrics.  Times are reported in reference seconds: host seconds times the
host-speed factor measured around each timed operation (see
``hostspeed.py``); the report line keeps the raw host seconds.
``--trace 1`` alternates untraced and traced campaigns of the
workload's first instance and prints the per-layer split (see
``spans.py``).  Every run hashes the simulated outputs into a
``sim_digest``; a digest that differs between a traced and an untraced
campaign, or between two campaigns of one instance, aborts with exit 2.

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The line before it holds the
full report: provenance, digest, failed ratio and per-campaign times.
Exit 2 means a benchmark error (bad arguments, missing sources, a CLI
exit 2, nondeterminism) and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import hostspeed
import spans
from workloads import Op, OpResult, make_workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5  # set-ups per run: this process plus four probe processes
MIN_CAMPAIGNS = 3
MIN_TRACED = 2  # untraced + traced pairs; two traced campaigns compare their counts
MODULES = ("analysis", "ballsbins", "beepfirst", "cli", "config", "continuous", "discrete",
           "jitterjump", "lowerbound", "phases", "rng", "runner", "topology")


class BenchError(Exception):
    """A benchmark error: the run stops with exit code 2 and no result."""


@dataclass
class Campaign:
    instance: int
    results: list[OpResult]
    wall: float  # host seconds
    digest: str = ""
    errors: list[str] = field(default_factory=list)
    node_periods: float = 0.0
    rate_seconds: float = 0.0  # reference seconds behind node_periods

    @property
    def failed(self) -> int:
        return sum(1 for r in self.results if r.rc != 0)

    @property
    def ref_wall(self) -> float:
        return sum(r.ref_wall for r in self.results)

    @property
    def speed(self) -> float:
        return self.ref_wall / self.wall


# -- set-up -------------------------------------------------------------------


def setup(workload, seed: int, workdir: str):
    """Import beepsim from this checkout and build the workload's inputs.

    Returns (reference seconds, modules, inputs); the time runs from
    before the first beepsim import until the inputs are ready.
    """
    if not (SRC / "beepsim" / "__init__.py").is_file():
        raise BenchError(f"no beepsim sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    bs = SimpleNamespace(**{name: importlib.import_module(f"beepsim.{name}") for name in MODULES})
    inputs = workload.inputs(seed, workdir, bs)
    seconds = time.perf_counter() - start
    seconds *= hostspeed.factor()
    if SRC.resolve() not in Path(bs.cli.__file__).resolve().parents:
        raise BenchError(f"beepsim was imported from {bs.cli.__file__}, not from {SRC}")
    return seconds, bs, inputs


def probe_setup(name: str, seed: int) -> float:
    """Set-up time, in reference seconds, measured in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", name, "--seed", str(seed)],
        cwd=str(ROOT), capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


@contextlib.contextmanager
def workdir():
    base = ROOT / ".bench_tmp"
    base.mkdir(exist_ok=True)
    path = tempfile.mkdtemp(dir=base)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            base.rmdir()  # only succeeds once no other run uses it


# -- campaigns ----------------------------------------------------------------


def run_op(bs, op: Op) -> OpResult:
    """Run one operation, timed, between two host-speed measurements."""
    before = hostspeed.factor()
    result = OpResult(op, None)
    start = time.perf_counter()
    try:
        if op.enumerate is not None:
            result.value = bs.ballsbins.bb_enumerate(*op.enumerate)
            result.rc = 0
        else:
            buf = io.StringIO()
            try:
                with contextlib.redirect_stdout(buf):
                    result.rc = bs.cli.main(list(op.argv))
            finally:
                result.stdout = buf.getvalue()
    except Exception:  # noqa: BLE001 - a raising operation counts as failed
        traceback.print_exc()
    result.wall = time.perf_counter() - start
    result.speed = (before + hostspeed.factor()) / 2
    if result.rc == 2:
        raise BenchError(f"{op.label}: beepsim exited 2 for {' '.join(op.argv)}")
    return result


def run_campaign(workload, bs, inputs, instance: int) -> Campaign:
    ops = workload.ops(inputs, instance)
    gc.collect()  # start every campaign from the same heap state
    results = [run_op(bs, op) for op in ops]
    campaign = Campaign(instance, results, sum(r.wall for r in results))
    for r in results:
        if r.op.csv is not None and os.path.exists(r.op.csv):
            r.csv_bytes = Path(r.op.csv).read_bytes()
            os.remove(r.op.csv)
    campaign.digest = sim_digest(results)
    campaign.errors = workload.check(inputs, results, bs)
    if not campaign.failed:
        campaign.node_periods, campaign.rate_seconds = workload.node_periods(inputs, results)
    return campaign


def sim_digest(results: list[OpResult]) -> str:
    """Hash of everything the campaign computed: CLI output, CSV bytes, counts."""
    h = hashlib.sha256()
    for r in results:
        h.update(repr((r.op.label, r.rc, r.stdout, sorted((r.value or {}).items()))).encode())
        h.update(r.csv_bytes)
    return h.hexdigest()


def keep_going(start: float, seconds: float, walls: list[float], minimum: int) -> bool:
    """Closed loop: start another campaign if it should end within the budget."""
    if len(walls) < minimum:
        return True
    return time.perf_counter() - start + statistics.median(walls) <= seconds


def check_repeat(digests: dict[int, str], campaign: Campaign, what: str) -> None:
    first = digests.setdefault(campaign.instance, campaign.digest)
    if first != campaign.digest:
        raise BenchError(f"instance {campaign.instance}: {what} digest {campaign.digest[:12]} "
                         f"differs from {first[:12]}")


def timed_run(workload, bs, inputs, seconds: float) -> dict:
    campaigns: list[Campaign] = []
    digests: dict[int, str] = {}
    start = time.perf_counter()
    while keep_going(start, seconds, [c.wall for c in campaigns], MIN_CAMPAIGNS):
        campaign = run_campaign(workload, bs, inputs, workload.instance(len(campaigns)))
        check_repeat(digests, campaign, "repeated")
        campaigns.append(campaign)
    rates = [c.node_periods / c.rate_seconds for c in campaigns if c.rate_seconds]
    metrics = {
        "wall_s": (statistics.median(c.ref_wall for c in campaigns), "s"),
        "node_periods_per_s": (statistics.median(rates) if rates else 0.0, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return {"campaigns": campaigns, "digest": digests[0], "metrics": metrics}


def traced_run(workload, bs, inputs, seconds: float) -> dict:
    campaigns: list[Campaign] = []
    untraced: list[float] = []
    traced: list[float] = []
    layer_runs: list[dict] = []
    digests: dict[int, str] = {}
    start = time.perf_counter()
    while keep_going(start, seconds, [u + t for u, t in zip(untraced, traced)], MIN_TRACED):
        plain = run_campaign(workload, bs, inputs, 0)
        check_repeat(digests, plain, "untraced")
        tracer = spans.Tracer()
        try:
            spans.install(tracer, bs)
            shadow = run_campaign(workload, bs, inputs, 0)
        finally:
            tracer.restore()
        check_repeat(digests, shadow, "traced")
        layers = tracer.metrics()
        for key in spans.SELF_TIMES:
            layers[key] *= shadow.speed
        counts = {k: layers[k] for k in spans.COUNTERS}
        if layer_runs and counts != {k: layer_runs[0][k] for k in spans.COUNTERS}:
            raise BenchError("per-layer counters differ between two traced campaigns")
        campaigns += [plain, shadow]
        untraced.append(plain.ref_wall)
        traced.append(shadow.ref_wall)
        layer_runs.append(layers)
    metrics = {}
    for key, first in layer_runs[0].items():
        if key.endswith("_s"):
            metrics[key] = (statistics.median(run[key] for run in layer_runs), "s")
        else:  # counts repeat exactly, as checked above
            metrics[key] = (first, "ratio" if key.endswith("_ratio") else "count")
    metrics["trace_overhead_s"] = (statistics.median(traced) - statistics.median(untraced), "s")
    return {"campaigns": campaigns, "digest": digests[0], "metrics": metrics,
            "layer_runs": layer_runs, "traced_wall_s": traced, "untraced_wall_s": untraced}


# -- provenance and output ----------------------------------------------------


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(seed: int) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
        "seed": seed,
        "machine": platform.machine(),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    workloads = make_workloads()
    if args.workload not in workloads:
        raise BenchError(f"unknown workload {args.workload!r}; choose from {sorted(workloads)}")
    workload = workloads[args.workload]
    with workdir() as wd:
        setup_s, bs, inputs = setup(workload, args.seed, wd)
        if args.setup_probe:
            print(repr(setup_s))
            return 0
        setups = [setup_s]
        if not args.trace:
            setups += [probe_setup(workload.name, args.seed) for _ in range(SETUP_REPEATS - 1)]
        run = (traced_run if args.trace else timed_run)(workload, bs, inputs, args.seconds)
    campaigns = run["campaigns"]
    metrics = dict(run["metrics"])
    if not args.trace:
        metrics["setup_s"] = (statistics.median(setups), "s")
    attempted = sum(len(c.results) for c in campaigns)
    failed = sum(c.failed for c in campaigns)
    errors = sorted({e for c in campaigns for e in c.errors})
    report = {
        "workload": workload.name,
        "trace": args.trace,
        "provenance": provenance(args.seed),
        "sim_digest": run["digest"],
        "ops": attempted,
        "failed_ratio": failed / attempted,
        "campaigns": len(campaigns),
        "campaign_wall_s": [round(c.wall, 6) for c in campaigns],
        "campaign_host_speed": [round(c.speed, 4) for c in campaigns],
        "wall_s_host_median": statistics.median(c.wall for c in campaigns),
        "setup_s_samples": [round(s, 6) for s in setups],
        "errors": errors,
        "argv": [list(op.argv) or [op.label, *op.enumerate]
                 for op in workload.ops(inputs, 0)],
    }
    for key in ("traced_wall_s", "untraced_wall_s"):
        if key in run:
            report[key] = [round(x, 6) for x in run[key]]
    for name, (value, unit) in sorted(metrics.items()):
        print(f"{workload.name:>15}  {name:<28} {value:>16.6f} {unit}")
    print(f"{workload.name:>15}  {'failed_ratio':<28} {failed / attempted:>16.6f} "
          f"(ops {attempted}, failed {failed})")
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        sys.exit(2)
