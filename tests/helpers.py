"""Test-only drivers and the literal reference versions of vectorized code.

``tests/`` has no ``__init__.py``, so pytest puts this directory on
``sys.path`` and test modules import this one as ``helpers``.
"""

import numpy as np

from beepsim import rng as rngmod
from beepsim.beepfirst import _first_fit
from beepsim.discrete import DiscreteEngine
from beepsim.errors import ConfigError
from beepsim.jitterjump import JitterAndJump
from beepsim.topology import _PAIRING_ATTEMPTS, Topology


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


def collision_escape_trial(cfg, seed_key) -> bool:
    """Engineer two adjacent colored nodes onto the same slot; report whether
    both give the slot up at the end of the next period."""
    topo = Topology.from_edges(2, [(0, 1)])
    q = cfg.resolve_q(topo.delta)
    master = cfg.master_seed

    def factory(v):
        return JitterAndJump(q, cfg.eta, rngmod.stream(master, *seed_key, v, "protocol"))

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


def valid_events(topo, candidates):
    """Keep the candidate events that apply cleanly, in period then list order."""
    shadow = topo.copy()
    kept = []
    for ev in sorted(candidates, key=lambda e: e.at_period):
        trial = shadow.copy()  # a failing add_node leaves its node half added
        try:
            if ev.kind == "add_node":
                trial.add_node(ev.nodes[0], ev.nodes[1:])
            elif ev.kind == "remove_node":
                trial.remove_node(ev.nodes[0])
            elif ev.kind == "add_edge":
                trial.add_edge(*ev.nodes)
            else:
                trial.remove_edge(*ev.nodes)
        except ConfigError:
            continue
        shadow = trial
        kept.append(ev)
    return tuple(kept)
