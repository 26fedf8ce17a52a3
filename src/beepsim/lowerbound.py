"""Twin-coupling experiment on the cycle-of-blocks graph.

Each block of the graph contains a pair of nodes with identical closed
neighborhoods.  Because protocols are anonymous, two such twins given the
same random draws behave identically forever; with independent draws,
twins in identical states still pick the same action (beep or listen) in
a slot with probability at least 1/2, so symmetry between them survives
for a logarithmic number of slots with constant probability.  This module
measures all three effects on real protocol executions.

Every node wakes at slot 0 and the graph never changes, so the trials'
graphs are stacked into one block-diagonal graph and run as static
jitter-and-jump on arrays, one ``StaticJitterJumpArrays.step`` per
period, each node with the draws it would take through its own engine.
The statistics are taken once per period, and they equal those of
comparing every twin pair's whole engine state in every slot:

- through slot Q, where the first boundary falls, every node holds its
  initial state, so slots [0, Q] count as identical for every pair;
- a node's protocol state changes only at its boundaries, which fall on
  multiples of Q.  Twins whose protocol state (phase, jitter, colored
  flag, degree estimate, interval) is equal right after boundary kQ plan
  the same beep, and since they share a closed neighborhood they hear the
  same slots: they stay identical on slots [kQ+1, (k+1)Q].  Twins whose
  protocol state differs stay apart over those slots;
- identical twins beep in the same slot, so a pair can act differently
  only in the boundary slot (k+1)Q that ends its stretch, when exactly
  one twin's new offset is 0 and beeps in that slot;
- a run cut off at ``slots`` inside a stretch is credited the part of the
  stretch before the cut.

Trials run in batches of at most ``BATCH_NODES`` nodes, so memory does not
grow with the trial count; the statistics do not depend on the batch size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from . import rng as rngmod
from .config import SimConfig
from .errors import ConfigError
from .jitterjump import StaticJitterJumpArrays
from .topology import Topology, cycle_of_blocks, twin_pairs

build_lowerbound_graph = cycle_of_blocks

# nodes stepped together: bounds memory and never changes a result (larger
# batches take more memory and run no faster)
BATCH_NODES = 1 << 12


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
    evidence of identity leakage, and the pair is not observed again.
    With independent streams the run measures how often same-state twins
    take the same beep/listen action, and how long at least one pair
    stays identical.
    """
    cfg = SimConfig()
    topo = build_lowerbound_graph(k)
    q = cfg.resolve_q(topo.delta)
    retained = [0] * (slots + 1)  # differences: each stretch is credited in bulk
    divergences = same_state = mismatches = 0
    per_batch = max(1, BATCH_NODES // topo.n)
    for first in range(0, trials, per_batch):
        batch = range(first, min(first + per_batch, trials))
        counts = _run_batch(topo, k, q, cfg.eta, batch, seed, shared_randomness, slots,
                            retained)
        divergences += counts[0]
        same_state += counts[1]
        mismatches += counts[2]

    return TwinCouplingStats(
        k=k,
        trials=trials,
        slots=slots,
        shared_randomness=shared_randomness,
        divergences=divergences,
        same_state_observations=same_state,
        same_action_matches=same_state - mismatches,
        retention_by_slot=tuple(r / trials for r in accumulate(retained[:slots])),
    )


def _run_batch(topo: Topology, k: int, q: int, eta: float, batch: range, seed: int,
               shared: bool, slots: int, retained: list[int]) -> tuple[int, int, int]:
    """Run the trials of ``batch`` together, add each stretch's count of
    trials holding an identical pair to the differences in ``retained``,
    and return the batch's divergences, same-state observations and
    same-state action mismatches.

    Stretch 0 is slots [0, Q] and stretch j >= 1 is [jQ+1, (j+1)Q], each
    cut at ``slots``; ``alike`` holds, per trial and twin pair, whether
    the pair is identical over the current stretch.
    """
    n, m = topo.n, len(batch)
    last = (slots - 1) // q  # the boundaries jQ, j = 1 .. last, fall inside the run
    pairs = np.array(twin_pairs(k))
    base = np.arange(m)[:, None] * n  # trial t's copy holds rows t*n .. t*n + n-1
    b, c = base + pairs[:, 0], base + pairs[:, 1]
    alike = np.ones((m, k), dtype=bool)
    if last:
        # cycle_of_blocks numbers its nodes 0 .. n-1, so ids are row indices
        trial, node = np.repeat(np.asarray(batch), n), np.tile(np.arange(n), m)
        twin = np.full(n, -1)
        if shared:  # a twin takes its pair's stream
            twin[pairs] = np.arange(k)[:, None]
        pair = twin[node]
        own = pair < 0
        words = np.empty((m * n, 4), dtype=np.uint64)
        words[own] = rngmod.seed_words(seed, trial[own], node[own], "protocol")
        words[~own] = rngmod.seed_words(seed, trial[~own], "twin", pair[~own], "protocol")
        view = topo.arrays
        protocol = StaticJitterJumpArrays(q, eta, words, (base + view.src).ravel(),
                                          (base + view.dst).ravel())

    divergences = same_state = mismatches = 0
    for j in range(last + 1):
        start, stop = j * q + (j > 0), min((j + 1) * q + 1, slots)
        if j:
            offsets = protocol.step()
            # boundary slot jQ ends stretch j-1: a pair alike through it acts
            # differently there when exactly one twin now beeps at offset 0
            beeps_now = offsets == 0
            mismatches += int(np.count_nonzero(alike & (beeps_now[b] != beeps_now[c])))
            if start >= stop:  # the run ends on this boundary slot
                break
            same = _alike_after_boundary(protocol, b, c)
            if shared:  # a pair that diverged is dropped for good
                same &= alike
                divergences += int(np.count_nonzero(alike)) - int(np.count_nonzero(same))
            alike = same
        same_state += int(np.count_nonzero(alike)) * (stop - start)
        held = int(np.count_nonzero(alike.any(axis=1)))
        retained[start] += held
        retained[stop] -= held
    return divergences, same_state, mismatches


def _alike_after_boundary(protocol: StaticJitterJumpArrays, b: np.ndarray,
                          c: np.ndarray) -> np.ndarray:
    """Per twin pair (rows ``b`` and ``c``): equal protocol state right
    after a boundary.  The buffer is a function of the degree estimate,
    and the beep offset one of the phase and jitter."""
    same = np.ones(b.shape, dtype=bool)
    for row in (protocol.p, protocol.jitter, protocol.colored, protocol.d_tilde,
                protocol.interval):
        same &= row[b] == row[c]
    return same


def expected_retention_floor(k: int) -> tuple[int, float]:
    """Slot count log2(k) and the 1 - 1/e retention lower bound at it."""
    return max(1, math.ceil(math.log2(k))), 1.0 - 1.0 / math.e
