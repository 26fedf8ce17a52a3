"""Twin-coupling experiment on the cycle-of-blocks graph.

Each block of the graph contains a pair of nodes with identical closed
neighborhoods.  Because protocols are anonymous, two such twins given the
same random draws behave identically forever; with independent draws,
twins in identical states still pick the same action (beep or listen) in
a slot with probability at least 1/2, so symmetry between them survives
for a logarithmic number of slots with constant probability.  This module
measures all three effects on real protocol executions.

A node's fingerprint changes only in a slot where it has a local period
boundary, beeps or hears.  Every node wakes at slot 0, so boundaries fall
on multiples of Q.  The experiment therefore asks the engine for the next
busy slot and jumps to it, and compares a twin pair again only after a
boundary slot or a slot in which one of its twins beeped or heard.  A
silent stretch leaves every pair as it was: it is credited in bulk, each
of its slots to retention when a pair is identical and each identical
pair to same-state and same-action counts.  The statistics equal those
of fingerprinting every pair in every slot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

from . import rng as rngmod
from .config import SimConfig
from .discrete import DiscreteEngine
from .errors import ConfigError
from .jitterjump import JitterAndJump
from .topology import cycle_of_blocks, twin_pairs

build_lowerbound_graph = cycle_of_blocks


@dataclass(frozen=True)
class TwinCouplingStats:
    """Aggregated outcome of the coupling runs."""

    k: int
    trials: int
    slots: int
    shared_randomness: bool
    divergences: int
    same_state_observations: int
    same_action_matches: int
    retention_by_slot: tuple[float, ...]

    @property
    def same_action_frequency(self) -> float:
        if not self.same_state_observations:
            return 1.0
        return self.same_action_matches / self.same_state_observations

    def retention_at(self, slot: int) -> float:
        """Fraction of trials with at least one still-identical twin pair
        at the start of the given slot."""
        if not 0 <= slot < len(self.retention_by_slot):
            raise ConfigError(f"slot {slot} outside the simulated range")
        return self.retention_by_slot[slot]


def twin_coupling_experiment(
    k: int,
    slots: int,
    trials: int,
    seed: int,
    shared_randomness: bool = False,
) -> TwinCouplingStats:
    """Run jitter-and-jump on the block-cycle graph and track twin symmetry.

    With ``shared_randomness`` the two nodes of every twin pair draw from
    identically seeded streams, making divergence impossible for any
    protocol that ignores node identity; a divergence is reported as
    evidence of identity leakage.  With
    independent streams the run measures how often same-state twins take
    the same beep/listen action, and how long at least one pair stays
    identical.
    """
    cfg = SimConfig()
    topo = build_lowerbound_graph(k)
    pairs = twin_pairs(k)
    twin_index = {}
    for idx, (b, c) in enumerate(pairs):
        twin_index[b] = idx
        twin_index[c] = idx
    q = cfg.resolve_q(topo.delta)

    divergences = 0
    same_state = 0
    same_action = 0
    retained = [0] * (slots + 1)  # differences: stretches are credited in bulk

    for trial in range(trials):
        keys = [
            (seed, trial, "twin", twin_index[v], "protocol")
            if shared_randomness and v in twin_index
            else (seed, trial, v, "protocol")
            for v in topo.nodes
        ]
        gens = dict(zip(topo.nodes, rngmod.streams(keys)))
        engine = DiscreteEngine(
            topo, q, lambda v: JitterAndJump(q, cfg.eta, gens[v]), {v: 0 for v in topo.nodes}
        )
        alive_pairs = set(range(len(pairs)))
        changed = alive_pairs  # pairs whose identity must be recomputed
        identical: set[int] = set()
        s = 0
        while s < slots:
            for idx in changed:
                b, c = pairs[idx]
                if engine.fingerprint(b) == engine.fingerprint(c):
                    identical.add(idx)
                else:
                    identical.discard(idx)
            if shared_randomness and len(identical) < len(alive_pairs):
                divergences += len(alive_pairs) - len(identical)
                alive_pairs = set(identical)
            # slots s .. end-1 all start in this state: every one before the
            # next busy slot is silent, and the busy slot, if any, is the last
            end = min(engine.next_busy_slot(slots) + 1, slots)
            if identical:
                retained[s] += 1
                retained[end] -= 1
            outcome = engine.run_slots(end - s)
            # identical twins act alike in every slot but a busy one that
            # one of them beeps in and the other does not
            same_state += len(identical) * (end - s)
            same_action += len(identical) * (end - s)
            s = end
            if outcome is None:  # no state changed
                changed = ()
                continue
            for idx in identical:
                b, c = pairs[idx]
                if (b in outcome.beeped) != (c in outcome.beeped):
                    same_action -= 1
            if outcome.slot % q == 0:  # every node woke at slot 0, so boundaries fall here
                changed = alive_pairs
            else:
                touched = outcome.beeped | outcome.heard
                changed = {twin_index[v] for v in touched if v in twin_index} & alive_pairs

    return TwinCouplingStats(
        k=k,
        trials=trials,
        slots=slots,
        shared_randomness=shared_randomness,
        divergences=divergences,
        same_state_observations=same_state,
        same_action_matches=same_action,
        retention_by_slot=tuple(r / trials for r in accumulate(retained[:slots])),
    )


def expected_retention_floor(k: int) -> tuple[int, float]:
    """Slot count log2(k) and the 1 - 1/e retention lower bound at it."""
    return max(1, math.ceil(math.log2(k))), 1.0 - 1.0 / math.e
