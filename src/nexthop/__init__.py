"""Deterministic simulator and analysis toolkit for next-hop routing with
filtering: a round-based control/forwarding-plane engine, activation
schedulers with delivery guarantees, exact stability oracles, and a
3-CNF hardness-instance generator."""

from .model import (
    FirstClassDecomposition,
    Network,
    RoutingGraph,
    first_class_decomposition,
    format_instance,
    out_plus,
    parse_instance,
    q_subtree,
    resolve,
    validate_network,
)
from .engine import (
    Adversary,
    EngineState,
    PacketState,
    Stop,
    activate,
    best_valid,
    forward_packets,
    is_equilibrium,
    run,
    run_round,
)
from .schedulers import (
    CoordinateScheduler,
    FairStabiliseScheduler,
    Partition,
    RandomScheduler,
    ReplayScheduler,
    coordinate,
    coordinate_sequence,
    find_stable,
)
from .analysis import (
    StableTreeReport,
    enumerate_equilibria,
    has_strong_stability,
    is_skeleton,
    is_stable_tree,
    max_stable_tree,
)
from .gadgets import CnfFormula, build_reduction, parse_formula, verify_dichotomy

__version__ = "0.1.0"
