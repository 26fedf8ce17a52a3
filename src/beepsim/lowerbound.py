"""Twin-coupling experiment on the cycle-of-blocks graph.

Each block of the graph contains a pair of nodes with identical closed
neighborhoods.  Because protocols are anonymous, two such twins given the
same random draws behave identically forever; with independent draws,
twins in identical states still pick the same action (beep or listen) in
a slot with probability at least 1/2, so symmetry between them survives
for a logarithmic number of slots with constant probability.  This module
measures all three effects on real protocol executions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import rng as rngmod
from .config import SimConfig
from .discrete import DiscreteEngine
from .errors import ConfigError, ProtocolViolation
from .jitterjump import JitterAndJump
from .topology import Topology, cycle_of_blocks, twin_pairs

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
    strict: bool = False,
) -> TwinCouplingStats:
    """Run jitter-and-jump on the block-cycle graph and track twin symmetry.

    With ``shared_randomness`` the two nodes of every twin pair draw from
    identically seeded streams, making divergence impossible for any
    protocol that ignores node identity; a divergence is reported (or
    raised, with ``strict``) as evidence of identity leakage.  With
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
    retained = [0] * slots

    for trial in range(trials):

        def factory(v: int) -> JitterAndJump:
            if shared_randomness and v in twin_index:
                key = (seed, trial, "twin", twin_index[v], "protocol")
            else:
                key = (seed, trial, v, "protocol")
            return JitterAndJump(q, cfg.eta, rngmod.stream(*key))

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
                if strict:
                    raise ProtocolViolation(
                        "twins with shared randomness diverged: the protocol "
                        "behaves as if it can read node identity"
                    )
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


def expected_retention_floor(k: int) -> tuple[int, float]:
    """Slot count log2(k) and the 1 - 1/e retention lower bound at it."""
    return max(1, math.ceil(math.log2(k))), 1.0 - 1.0 / math.e
