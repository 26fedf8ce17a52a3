"""Command-line harness for simulation campaigns and the analysis oracles.

Subcommands::

    beepsim static   --protocol {beepfirst,jitterjump} --graph SPEC ...
    beepsim dynamic  --graph SPEC --events FILE --r N ...
    beepsim oracle   {ballsbins,amplify,lowerbound} ...

Exit codes: 0 all validators passed, 1 a validator failed, 2 bad
configuration or input.  Identical flags and seed produce byte-identical
CSV output.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from fractions import Fraction

import numpy as np

from . import rng as rngmod
from .analysis import (
    fit_log_growth,
    hardness_reduction,
    neighbor_phase_ties,
    symmetric_window_violations,
    validate_interval_coloring,
)
from .ballsbins import amplification_rounds, bb_exact, bb_montecarlo
from .config import DEFAULT_EPSILON, DEFAULT_ETA, DEFAULT_KAPPA, SimConfig
from .errors import ConfigError, InternalInconsistencyError, ProtocolViolation
from .lowerbound import (
    BATCH_NODES,
    build_lowerbound_graph,
    expected_retention_floor,
    twin_coupling_experiment,
)
from .runner import run_beepfirst_trial, run_jitterjump_trial
from .topology import GENERATORS, Topology, load_edge_list, load_events, parse_graph_spec
from .trace import write_csv


def _at_least_one(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--graph", required=True,
                        help="edge-list path or generator spec (e.g. gnp:64:0.1)")
    parser.add_argument("--n", default=None,
                        help="node count(s) for a bare generator name; comma list sweeps")
    parser.add_argument("--delta", type=int, default=None, help="degree for random-regular")
    parser.add_argument("--p", type=float, default=None, help="edge probability for gnp")
    parser.add_argument("--eta", type=float, default=None,
                        help=f"jitterjump buffer fraction (default {DEFAULT_ETA:g})")
    parser.add_argument("--kappa", type=float, default=None,
                        help=f"jitterjump slots per unit of degree (default {DEFAULT_KAPPA:g})")
    parser.add_argument("--epsilon", type=float, default=None,
                        help=f"beepfirst buffer randomization (default {DEFAULT_EPSILON:g})")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trials", type=_at_least_one, default=1)
    parser.add_argument("--max-periods", type=int, default=None, help="jitterjump period cap")
    parser.add_argument("--wakeup", default="simultaneous")
    parser.add_argument("--out", default=None, help="CSV output path")
    parser.add_argument("--json", action="store_true", help="print a JSON summary")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on first use and kept for the process."""
    parser = argparse.ArgumentParser(prog="beepsim",
                                     description="beeping-network interval coloring simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_static = sub.add_parser("static", help="run a protocol on a fixed topology")
    p_static.add_argument("--protocol", choices=("beepfirst", "jitterjump"),
                          default="jitterjump")
    _add_common(p_static)

    p_dyn = sub.add_parser("dynamic", help="run the discrete protocol under churn")
    _add_common(p_dyn)
    p_dyn.add_argument("--events", default=None, help="dynamic events file")
    p_dyn.add_argument("--r", type=int, default=None, help="degree-estimate window length")

    p_oracle = sub.add_parser("oracle", help="analysis oracles")
    osub = p_oracle.add_subparsers(dest="oracle", required=True)

    p_bb = osub.add_parser("ballsbins", help="occupancy distribution oracle")
    p_bb.add_argument("--m", type=int, required=True)
    p_bb.add_argument("--n", type=int, required=True)
    p_bb.add_argument("--trials", type=_at_least_one, default=None,
                      help="optional Monte Carlo check")
    p_bb.add_argument("--seed", type=int, default=1)

    p_amp = osub.add_parser("amplify", help="success-probability amplification calculator")
    p_amp.add_argument("--c", type=float, required=True)
    p_amp.add_argument("--p", type=float, required=True)
    p_amp.add_argument("--q", type=float, required=True)
    p_amp.add_argument("--n", type=float, required=True)

    p_lb = osub.add_parser("lowerbound", help="twin-coupling symmetry experiment")
    p_lb.add_argument("--k", type=int, required=True, help="number of 4-node blocks")
    p_lb.add_argument("--slots", type=_at_least_one, required=True)
    p_lb.add_argument("--trials", type=_at_least_one, required=True,
                      help=f"run in batches of at most {BATCH_NODES:,} nodes, so memory "
                           "does not grow with it")
    p_lb.add_argument("--seed", type=int, default=1)

    return parser


def _sizes(args) -> list[int]:
    if args.n is None:
        return []
    try:
        return [int(part) for part in str(args.n).split(",") if part]
    except ValueError as exc:
        raise ConfigError(f"bad --n value {args.n!r}") from exc


def _build_topology(args, n: int | None, seed_key) -> Topology:
    spec = args.graph
    gen = GENERATORS.get(spec)
    takes = {name for name, _ in gen.fields[1:]} if gen is not None else set()
    for flag in ("delta", "p"):
        if getattr(args, flag) is not None and flag not in takes:
            raise ConfigError(f"--{flag} does not apply to --graph {spec!r}")
    if gen is not None:
        # a bare generator name: --n fills the first spec field, the
        # flag named after each further field fills that field
        if n is None:
            raise ConfigError(f"generator {spec!r} needs --n")
        values = [n]
        for name, _ in gen.fields[1:]:
            value = getattr(args, name)
            if value is None:
                raise ConfigError(f"{spec} needs --{name}")
            values.append(value)
        spec = ":".join([spec, *map(str, values)])
    elif n is not None:
        raise ConfigError(f"--n applies only to a bare generator name, not to --graph {spec!r}")
    if ":" in spec:
        return parse_graph_spec(spec, rngmod.stream(args.seed, *seed_key, "topology"))
    if not os.path.exists(spec):
        raise ConfigError(f"graph file {spec!r} not found")
    return load_edge_list(spec)


def _size_label(n: int | None) -> str:
    """How output names a size: ``n=N``, or ``graph`` for a full spec or a file."""
    return f"n={n}" if n is not None else "graph"


def _out_path(base: str, trial: int, trials: int) -> str:
    if trials == 1:
        return base
    stem, ext = os.path.splitext(base)
    return f"{stem}_t{trial:03d}{ext or '.csv'}"


def _reject_flags(args, flags: tuple[str, ...], protocol: str) -> None:
    """Exit 2 on a flag the protocol would ignore, rather than pass vacuously."""
    for flag in flags:
        if getattr(args, flag.replace("-", "_")) is not None:
            raise ConfigError(f"--{flag} does not apply to the {protocol} protocol")


def _config(args, dynamic: bool = False, r: int | None = None) -> SimConfig:
    _reject_flags(args, ("epsilon",), "jitterjump")
    return SimConfig(
        kappa=DEFAULT_KAPPA if args.kappa is None else args.kappa,
        eta=DEFAULT_ETA if args.eta is None else args.eta,
        r=r,
        master_seed=args.seed,
        wakeup=args.wakeup,
        max_periods=args.max_periods,
        dynamic=dynamic,
    )


def _campaign(args, sizes: list[int], summary: dict, run_trial, check) -> list[str]:
    """Run ``args.trials`` trials at each size (of the one graph the flags
    give when ``sizes`` is empty): build the topology, ``run_trial(topology,
    seed_key)``, ``check(result, failures, tag)`` for the trial's summary
    entry, then write its CSV.  Fills ``summary`` and returns the failures."""
    sizes = sizes or [None]
    summary.update(trials_per_size=args.trials, seed=args.seed, sizes=[])
    failures: list[str] = []
    trial_counter = 0
    for n in sizes:
        size_entry = {"n": n, "trials": []}
        for t in range(args.trials):
            seed_key = ("trial", trial_counter)
            result = run_trial(_build_topology(args, n, seed_key), seed_key)
            size_entry["trials"].append(check(result, failures, f"{_size_label(n)} trial={t}"))
            if args.out:
                write_csv(_out_path(args.out, trial_counter, args.trials * len(sizes)),
                          result.rows)
            trial_counter += 1
        summary["sizes"].append(size_entry)
    return failures


def _convergence_summary(summary: dict) -> None:
    """Each size's median and max convergence period over its converged
    trials, and the C*ln(n) fit of the medians once two sizes have one
    and one of them is above 1."""
    medians, used_sizes = [], []
    for size_entry in summary["sizes"]:
        periods = sorted(entry["converged_period"] for entry in size_entry["trials"]
                         if entry["converged_period"] is not None)
        if periods:
            med = periods[len(periods) // 2]
            size_entry["median_convergence_period"] = med
            size_entry["max_convergence_period"] = periods[-1]
            if size_entry["n"] is not None:
                medians.append(med)
                used_sizes.append(size_entry["n"])
    if len(used_sizes) >= 2 and max(used_sizes) > 1:
        summary["log_fit_constant"], summary["log_fit_slope"] = \
            fit_log_growth(used_sizes, medians)


def _run_jitterjump_campaign(args, events=(), dynamic=False, r=None) -> int:
    sizes = _sizes(args)
    cfg = _config(args, dynamic=dynamic, r=r)
    events = tuple(events)

    def run_trial(topology, seed_key):
        return run_jitterjump_trial(topology, cfg, seed_key=seed_key, events=events,
                                    collect_rows=args.out is not None)

    def check(result, failures, tag):
        return _validate_jitterjump(result, cfg, failures, tag, events=events)

    summary = {"protocol": "jitterjump", "dynamic": dynamic}
    failures = _campaign(args, sizes, summary, run_trial, check)
    _convergence_summary(summary)
    return _finish(args, summary, failures)


def _validate_jitterjump(result, cfg, failures: list[str], tag: str, events=()) -> dict:
    entry: dict = {
        "converged_period": result.converged_period,
        "periods_run": result.periods_run,
        "sandwich_violations": result.sandwich_violations,
        "free_floor_violations": result.free_floor_violations,
        "monotonic_violations": result.monotonic_violations,
        "resets": result.resets,
    }
    if not result.converged:
        failures.append(f"{tag}: did not converge within {result.periods_run} periods")
    if result.sandwich_violations:
        failures.append(f"{tag}: degree-estimate bound violated")
    if result.free_floor_violations:
        failures.append(f"{tag}: free-slot floor violated")
    if result.beep_bound_violations:
        failures.append(f"{tag}: per-period beep bound violated")
    if not events and result.monotonic_violations:
        failures.append(f"{tag}: good set shrank")
    # validate the settled state: the final one under churn, the first
    # all-good one otherwise
    snapshot = result.final_snapshot if events else result.snapshot
    settled = (
        result.final_labels and all(l == "good" for l in result.final_labels.values())
        if events
        else result.converged
    )
    if events:
        churn: dict[str, int | None] = {}
        for period in sorted({e.at_period for e in events}):
            churn[str(period)] = result.restabilized_after(period)
            if churn[str(period)] is None:
                failures.append(f"{tag}: no stable coloring after the event at period {period}")
        entry["restabilize_periods"] = churn
    if settled:
        report = validate_interval_coloring(snapshot, result.topology,
                                            eta=cfg.eta, q=result.q)
        entry["interval_violations"] = len(report.violations)
        entry["min_normalized_interval"] = report.min_normalized_interval
        if report.violations:
            failures.append(f"{tag}: overlapping intervals {report.violations[:3]}")
        if not events and (report.min_normalized_interval is not None
                           and report.min_normalized_interval < 1.0):
            failures.append(f"{tag}: interval below the guaranteed floor")
        ids, phases = snapshot.global_phases()
        try:
            colors = hardness_reduction(ids, phases, np.zeros_like(phases), result.q,
                                        result.topology)
            # distinct colors: each color >= 0 differs from the -1 before it
            entry["colors_used"] = int(np.count_nonzero(np.diff(np.sort(colors), prepend=-1)))
        except InternalInconsistencyError as exc:
            failures.append(f"{tag}: vertex coloring reduction failed: {exc}")
    return entry


def _run_beepfirst_campaign(args) -> int:
    sizes = _sizes(args)
    _reject_flags(args, ("eta", "kappa", "max-periods"), "beepfirst")
    epsilon = DEFAULT_EPSILON if args.epsilon is None else args.epsilon
    cfg = SimConfig(epsilon=epsilon, master_seed=args.seed, wakeup=args.wakeup)

    def run_trial(topology, seed_key):
        return run_beepfirst_trial(topology, cfg, seed_key=seed_key,
                                   collect_rows=args.out is not None)

    summary = {"protocol": "beepfirst"}
    return _finish(args, summary, _campaign(args, sizes, summary, run_trial, _validate_beepfirst))


def _validate_beepfirst(result, failures: list[str], tag: str) -> dict:
    topo = result.topology
    if not result.all_stable:
        failures.append(f"{tag}: not all nodes reached a stable phase")
    if result.late_nodes:
        failures.append(f"{tag}: {result.late_nodes} nodes settled after 3 periods")
    if result.search_overruns:
        failures.append(f"{tag}: search phase outlived one period")
    ties = result.tie_collisions + neighbor_phase_ties(result.snapshot, topo)
    if ties:
        failures.append(f"{tag}: {ties} floating-point phase ties")
    report = validate_interval_coloring(result.snapshot, topo)
    if report.violations:
        failures.append(f"{tag}: overlapping intervals {report.violations[:3]}")
    if symmetric_window_violations(result.snapshot, topo):
        failures.append(f"{tag}: neighbor phase inside a symmetric interval")
    return {
        "all_stable": result.all_stable,
        "max_stable_delay_periods": result.max_stable_delay,  # T = 1
        "tie_collisions": result.tie_collisions,
    }


def _finish(args, summary: dict, failures: list[str]) -> int:
    summary["failures"] = failures
    if args.json:
        print(json.dumps(summary, sort_keys=True, default=str))
    else:
        for size_entry in summary["sizes"]:
            med = size_entry.get("median_convergence_period")
            label = _size_label(size_entry["n"])
            if med is not None:
                print(f"{label}: median convergence {med} periods, "
                      f"max {size_entry.get('max_convergence_period')}")
            else:
                print(f"{label}: {len(size_entry['trials'])} trial(s) complete")
        if "log_fit_constant" in summary:
            print(f"fit: median-convergence ~= {summary['log_fit_constant']:.2f} * ln(n) "
                  f"(slope {summary['log_fit_slope']:.2f})")
        for f in failures:
            print(f"FAIL {f}")
        if not failures:
            print("all validators passed")
    return 1 if failures else 0


def _cmd_static(args) -> int:
    if args.protocol == "beepfirst":
        return _run_beepfirst_campaign(args)
    return _run_jitterjump_campaign(args)


def _cmd_dynamic(args) -> int:
    events = load_events(args.events) if args.events else ()
    return _run_jitterjump_campaign(args, events=events, dynamic=True, r=args.r)


def _cmd_oracle(args) -> int:
    if args.oracle == "ballsbins":
        dist = bb_exact(args.m, args.n)
        threshold = Fraction(args.m, 4)
        p_gt = dist.prob_greater(threshold)
        ez = dist.expected
        print(f"m={args.m} n={args.n}")
        print(f"P[occupied > m/4] = {float(p_gt):.6f} ({p_gt})")
        print(f"E[occupied] = {float(ez):.6f} ({ez})")
        ok = True
        if args.m >= 12 and args.n >= args.m:
            ok = p_gt > Fraction(1, 2) and ez > Fraction(args.m, 2)
            print(f"gates (P > 1/2, E > m/2): {'pass' if ok else 'FAIL'}")
        if args.trials is not None:
            emp = bb_montecarlo(args.m, args.n, args.trials, args.seed)
            worst = 0.0
            rare = 0
            for k, p in dist.pmf.items():
                expected_count = float(p) * args.trials
                if expected_count < 16.0:
                    # Poisson regime: a normalized sigma bound is meaningless
                    rare += 1
                    continue
                sigma = math.sqrt(float(p) * (1 - float(p)) / args.trials)
                dev = abs(emp.get(k, 0.0) - float(p))
                # a point mass (sigma 0) is compared exactly: any deviation fails
                excess = dev / sigma if sigma else (math.inf if dev else 0.0)
                worst = max(worst, excess)
                if excess > 4:
                    ok = False
            print(f"monte carlo ({args.trials} trials): worst bin deviation "
                  f"{worst:.2f} sigma ({rare} near-empty bins not sigma-tested)")
        return 0 if ok else 1
    if args.oracle == "amplify":
        value = amplification_rounds(args.c, args.p, args.q, args.n)
        print(f"periods until all nodes succeed w.p. 1 - n^-{args.q:g}: {value:.6f}")
        return 0
    if args.oracle == "lowerbound":
        q = SimConfig().resolve_q(build_lowerbound_graph(args.k).delta)
        if args.slots <= q:
            raise ConfigError(
                f"--slots {args.slots} must exceed Q = {q}: every node listens through "
                f"its first period, so no twin acts before slot {q}"
            )
        shared = twin_coupling_experiment(args.k, args.slots, args.trials, args.seed,
                                          shared_randomness=True)
        free = twin_coupling_experiment(args.k, args.slots, args.trials, args.seed,
                                        shared_randomness=False)
        ell, floor = expected_retention_floor(args.k)
        ell = min(ell, args.slots - 1)
        n_obs = free.same_state_observations
        sigma_a = math.sqrt(0.25 / n_obs) if n_obs else 0.0
        sigma_r = math.sqrt(floor * (1 - floor) / args.trials)
        retention = free.retention_at(ell)
        print(f"blocks k={args.k} slots={args.slots} trials={args.trials}")
        print(f"shared-randomness divergences: {shared.divergences}")
        print(f"same-state same-action frequency: {free.same_action_frequency:.4f} "
              f"(floor 0.5 - 3 sigma = {0.5 - 3 * sigma_a:.4f})")
        print(f"identical-pair retention at slot {ell}: {retention:.4f} "
              f"(floor {floor - 3 * sigma_r:.4f})")
        print("note: this exercises the coupling mechanism at desk scale, "
              "not the asymptotic impossibility itself")
        ok = (shared.divergences == 0
              and free.same_action_frequency >= 0.5 - 3 * sigma_a
              and retention >= floor - 3 * sigma_r)
        return 0 if ok else 1
    raise ConfigError(f"unknown oracle {args.oracle!r}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "static":
            return _cmd_static(args)
        if args.command == "dynamic":
            return _cmd_dynamic(args)
        return _cmd_oracle(args)
    except (ConfigError, ProtocolViolation, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
