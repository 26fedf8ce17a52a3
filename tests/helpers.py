"""Test-only drivers built on the public beepsim API.

``tests/`` has no ``__init__.py``, so pytest puts this directory on
``sys.path`` and test modules import this one as ``helpers``.
"""

from beepsim import rng as rngmod
from beepsim.beepfirst import _first_fit
from beepsim.discrete import DiscreteEngine
from beepsim.jitterjump import JitterAndJump
from beepsim.topology import Topology


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
