"""The four benchmark workloads: their inputs, operations and output checks.

Every input is derived from the workload seed with :func:`derive`, so one
seed always gives the same inputs.  A workload's *campaign* is a list of
operations run one after another (a closed loop with one caller); each is
a ``beepsim.cli.main(argv)`` call or one direct ``bb_enumerate`` call.
Campaign ``i`` of a run uses instance ``i`` when the workload samples
fresh graphs per campaign, otherwise instance 0 every time.

Nothing here imports beepsim or numpy: the modules are passed in after
set-up has imported them, so the set-up time covers those imports.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass, field

CSV_HEADER = "period,node,phase,jitter,interval,colored,label,beeps_heard"


def derive(*parts) -> int:
    """A 31-bit seed from a workload name, the workload seed and labels."""
    digest = hashlib.sha256("/".join(str(p) for p in parts).encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big") & 0x7FFFFFFF


@dataclass(frozen=True)
class Op:
    """One operation: ``cli.main(argv)`` or ``bb_enumerate(m, n)``."""

    label: str
    argv: tuple[str, ...] = ()
    enumerate: tuple[int, int] | None = None
    csv: str | None = None  # CSV trace path the operation writes


@dataclass
class OpResult:
    op: Op
    rc: int | None  # None when the call raised
    stdout: str = ""
    value: object = None
    csv_bytes: bytes = b""
    wall: float = 0.0  # host seconds
    speed: float = 1.0  # host-speed factor around the operation

    @property
    def ref_wall(self) -> float:
        """Reference seconds: host seconds times the host-speed factor."""
        return self.wall * self.speed

    def summary(self) -> dict:
        return json.loads(self.stdout)


@dataclass
class Workload:
    name: str
    why: str
    fresh_instances: bool = False
    params: dict = field(default_factory=dict)

    def instance(self, i: int) -> int:
        return i if self.fresh_instances else 0

    # -- overridden per workload ------------------------------------------

    def inputs(self, seed: int, workdir: str, bs) -> dict:
        return {"seed": seed}

    def ops(self, inputs: dict, instance: int) -> list[Op]:
        raise NotImplementedError

    def check(self, inputs: dict, results: list[OpResult], bs) -> list[str]:
        raise NotImplementedError

    def node_periods(self, inputs: dict, results: list[OpResult]) -> tuple[float, float]:
        """Simulated node-periods and the reference seconds that produced them."""
        raise NotImplementedError


def _rc_errors(results: list[OpResult]) -> list[str]:
    return [f"{r.op.label}: exit {r.rc}" for r in results if r.rc != 0]


class StaticRegular(Workload):
    def ops(self, inputs, instance):
        p = self.params
        seed = derive(self.name, inputs["seed"], instance)
        argv = ("static", "--protocol", "jitterjump", "--graph", "random-regular",
                "--n", ",".join(str(n) for n in p["sizes"]), "--delta", str(p["delta"]),
                "--wakeup", "simultaneous", "--seed", str(seed),
                "--trials", str(p["trials"]), "--json")
        return [Op("static-jitterjump", argv)]

    def check(self, inputs, results, bs):
        errors = _rc_errors(results)
        if errors:
            return errors
        summary = results[0].summary()
        sizes = [entry["n"] for entry in summary["sizes"]]
        if sizes != list(self.params["sizes"]):
            errors.append(f"swept sizes {sizes}")
        for entry in summary["sizes"]:
            trials = entry["trials"]
            if len(trials) != self.params["trials"]:
                errors.append(f"n={entry['n']}: {len(trials)} trials")
            for t in trials:
                if t["converged_period"] is None or t.get("interval_violations") != 0:
                    errors.append(f"n={entry['n']}: unconverged or overlapping trial {t}")
        return errors

    def node_periods(self, inputs, results):
        summary = results[0].summary()
        periods = sum(entry["n"] * t["periods_run"]
                      for entry in summary["sizes"] for t in entry["trials"])
        return periods, results[0].ref_wall


class DynamicChurn(Workload):
    """Star churn: drop all but a few spokes, later add fresh ones."""

    def inputs(self, seed, workdir, bs):
        p = self.params
        rng = random.Random(derive(self.name, seed, "events"))
        spokes = list(range(1, p["spokes"] + 1))
        survivors = set(rng.sample(spokes, p["survivors"]))
        lines = [f"{p['remove_at']} remove_node {v}" for v in spokes if v not in survivors]
        fresh = list(range(p["spokes"] + 1, p["spokes"] + 1 + p["added"]))
        rng.shuffle(fresh)
        lines += [f"{p['add_at']} add_node {v} 0" for v in fresh]
        events = os.path.join(workdir, "events.txt")
        with open(events, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        return {"seed": seed, "events": events, "csv": os.path.join(workdir, "churn.csv"),
                "survivors": sorted(survivors)}

    def ops(self, inputs, instance):
        p = self.params
        argv = ("dynamic", "--graph", f"star:{p['spokes'] + 1}", "--wakeup", "random",
                "--events", inputs["events"], "--max-periods", str(p["periods"]),
                "--seed", str(derive(self.name, inputs["seed"], instance)),
                "--out", inputs["csv"], "--json")
        return [Op("dynamic-churn", argv, csv=inputs["csv"])]

    def check(self, inputs, results, bs):
        errors = _rc_errors(results)
        if errors:
            return errors
        p = self.params
        (trial,) = results[0].summary()["sizes"][0]["trials"]
        if trial["periods_run"] != p["periods"]:
            errors.append(f"ran {trial['periods_run']} of {p['periods']} periods")
        churn = trial.get("restabilize_periods", {})
        for period in (p["remove_at"], p["add_at"]):
            if churn.get(str(period)) is None:
                errors.append(f"no stable coloring after the event at period {period}")
        if trial["resets"] < 1:
            errors.append("the degree drop did not trigger a re-color")
        lines = results[0].csv_bytes.decode("utf-8").splitlines()
        if not lines or lines[0] != CSV_HEADER or len(lines) < 2:
            errors.append("CSV trace lacks its header or rows")
        elif any(line.count(",") != 7 for line in lines[1:]):
            errors.append("CSV trace row with the wrong field count")
        return errors

    def node_periods(self, inputs, results):
        (trial,) = results[0].summary()["sizes"][0]["trials"]
        return trial["periods_run"] * (self.params["spokes"] + 1), results[0].ref_wall


class BeepFirstGnp(Workload):
    HORIZON_PERIODS = 4  # run_beepfirst_trial's default horizon

    def ops(self, inputs, instance):
        p = self.params
        argv = ("static", "--protocol", "beepfirst", "--graph", f"gnp:{p['n']}:{p['p']}",
                "--wakeup", "random", "--seed", str(derive(self.name, inputs["seed"], instance)),
                "--trials", str(p["trials"]), "--json")
        return [Op("static-beepfirst", argv)]

    def check(self, inputs, results, bs):
        errors = _rc_errors(results)
        if errors:
            return errors
        trials = results[0].summary()["sizes"][0]["trials"]
        if len(trials) != self.params["trials"]:
            errors.append(f"{len(trials)} trials")
        if not all(t["all_stable"] and t["tie_collisions"] == 0 for t in trials):
            errors.append("a trial left nodes unstable or tied")
        return errors

    def node_periods(self, inputs, results):
        trials = len(results[0].summary()["sizes"][0]["trials"])
        return self.params["n"] * self.HORIZON_PERIODS * trials, results[0].ref_wall


class Oracles(Workload):
    def inputs(self, seed, workdir, bs):
        k = self.params["k"]
        q = bs.config.SimConfig().resolve_q(bs.topology.cycle_of_blocks(k).delta)
        return {"seed": seed, "lowerbound_q": q}

    def ops(self, inputs, instance):
        p = self.params
        seed = str(derive(self.name, inputs["seed"], instance))
        return [
            Op("oracle-ballsbins", ("oracle", "ballsbins", "--m", str(p["m"]), "--n", str(p["n"]),
                                    "--trials", str(p["mc_trials"]), "--seed", seed)),
            Op("bb_enumerate", enumerate=p["enumerate"]),
            Op("oracle-lowerbound", ("oracle", "lowerbound", "--k", str(p["k"]),
                                     "--slots", str(p["slots"]),
                                     "--trials", str(p["lb_trials"]), "--seed", seed)),
        ]

    def check(self, inputs, results, bs):
        errors = _rc_errors(results)
        bb, enum, lb = results
        if bb.rc == 0 and "gates (P > 1/2, E > m/2): pass" not in bb.stdout:
            errors.append("ballsbins gates not reported as passing")
        if lb.rc == 0 and "shared-randomness divergences: 0" not in lb.stdout:
            errors.append("twins with shared randomness diverged")
        if enum.rc == 0:
            m, n = enum.op.enumerate
            if "enumeration" not in inputs:
                exact = bs.ballsbins.bb_exact(m, n).pmf
                inputs["enumeration"] = {k: int(pk * n**m) for k, pk in exact.items()}
            if enum.value != inputs["enumeration"]:
                errors.append("bb_enumerate disagrees with bb_exact")
        return errors

    def node_periods(self, inputs, results):
        p = self.params
        lb = results[2]
        node_slots = 2 * p["lb_trials"] * 4 * p["k"] * p["slots"]  # shared + independent runs
        return node_slots / inputs["lowerbound_q"], lb.ref_wall


def make_workloads(tiny: bool = False) -> dict[str, Workload]:
    """The four workloads; ``tiny`` shrinks them for the self-test."""
    if tiny:
        static = {"sizes": (32, 64), "delta": 4, "trials": 1}
        churn = {"spokes": 32, "survivors": 1, "remove_at": 4, "added": 4, "add_at": 12,
                 "periods": 20}
        gnp = {"n": 32, "p": 0.2, "trials": 2}
        oracles = {"m": 12, "n": 12, "mc_trials": 20_000, "enumerate": (4, 5),
                   "k": 4, "slots": 400, "lb_trials": 2}
    else:
        static = {"sizes": (1024, 4096), "delta": 4, "trials": 1}
        churn = {"spokes": 128, "survivors": 4, "remove_at": 10, "added": 28, "add_at": 24,
                 "periods": 40}
        gnp = {"n": 256, "p": 0.05, "trials": 10}
        oracles = {"m": 24, "n": 240, "mc_trials": 1_000_000, "enumerate": (7, 10),
                   "k": 16, "slots": 512, "lb_trials": 20}
    workloads = [
        StaticRegular("static-regular",
                      "discrete protocol on large random 4-regular graphs: per-node work "
                      "(protocol step, streams, pairing model, classification) dominates",
                      fresh_instances=True, params=static),
        DynamicChurn("dynamic-churn",
                     "star churn with a 32x degree drop and a CSV trace: per-slot engine loop, "
                     "free-slot scan, events path and trace writer dominate",
                     params=churn),
        BeepFirstGnp("beepfirst-gnp",
                     "continuous model on gnp: heap engine, generator protocol, PhaseSet "
                     "queries; bypasses the discrete engine and jitter-and-jump",
                     params=gnp),
        Oracles("oracles",
                "ballsbins Monte Carlo and enumeration plus the lowerbound twin experiment, "
                "which steps the discrete engine one slot at a time",
                params=oracles),
    ]
    return {w.name: w for w in workloads}
