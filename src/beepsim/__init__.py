"""Deterministic simulator for beeping-network interval coloring."""

from .analysis import (
    ColoringSnapshot,
    IntervalReport,
    NodeState,
    classify_good_bad,
    fit_log_growth,
    hardness_reduction,
    neighbor_phase_ties,
    validate_interval_coloring,
)
from .ballsbins import (
    OccupancyDistribution,
    amplification_rounds,
    bb_enumerate,
    bb_exact,
    bb_montecarlo,
)
from .beepfirst import BeepFirst
from .config import SimConfig
from .continuous import Beep, ContinuousEngine, Listen, Rebase
from .discrete import DiscreteEngine, SlotOutcome
from .errors import ConfigError, InternalInconsistencyError, ProtocolViolation
from .jitterjump import JitterAndJump, free_slots
from .lowerbound import TwinCouplingStats, build_lowerbound_graph, twin_coupling_experiment
from .phases import PhaseSet, in_range, wrap_distance
from .runner import (
    BeepFirstResult,
    JitterJumpResult,
    run_beepfirst_trial,
    run_jitterjump_trial,
)
from .topology import (
    DynamicEvent,
    Topology,
    build_wakeup,
    clique,
    cycle_of_blocks,
    gnp,
    parse_edge_list,
    parse_events,
    random_regular,
    star,
    twin_pairs,
)

__version__ = "0.1.0"
