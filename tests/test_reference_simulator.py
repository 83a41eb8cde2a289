"""The engine against the benchmark's reference simulator, which shares no
code with ``nexthop``: on random networks, filters, starts, adversaries and
schedules, both must deliver the same packets in the same rounds and end on
the same next hops.
"""

from __future__ import annotations

import importlib.util
import random
import sys
from dataclasses import replace
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import nogood_chain
from nexthop.engine import Adversary, EngineState, Stop, run
from nexthop.generators import random_network
from nexthop.model import RoutingGraph, format_instance, resolve
from nexthop.schedulers import RandomScheduler

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.py"


def _load_reference():
    spec = importlib.util.spec_from_file_location("perfbench_reference", REFERENCE)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


reference = _load_reference()


class RecordingScheduler(RandomScheduler):
    """The random scheduler, keeping every permutation it issues and
    checking that each state it is shown holds the verified paths, the
    contract the coordination and fair-stabilise schedulers read."""

    def __init__(self, net, seed):
        super().__init__(net, seed)
        self.perms = []

    def permutation(self, state):
        assert state.paths == resolve(state.rg, state.net.sink)[0]
        perm = super().permutation(state)
        self.perms.append(perm)
        return perm


# Per node, the filter is drawn from these: empty, self, or two random nodes.
FILTER_KINDS = {"empty": (0,), "self": (1,), "mixed": (0, 1, 2)}


@st.composite
def runs(draw, max_n=8):
    """A random network or a chain of NOGOOD pairs (which keeps packets
    cycling), with empty, self or mixed filters, a random start (any ranked
    neighbour or none per node) and a random-scheduler run."""
    rng = random.Random(draw(st.integers(0, 10_000)))
    if draw(st.booleans()):
        net = random_network(rng, draw(st.integers(2, max_n)), min_deg=1)
    else:
        net = nogood_chain(draw(st.integers(1, max_n // 2)))[0]
    n, kind = net.n, FILTER_KINDS[draw(st.sampled_from(sorted(FILTER_KINDS)))]
    filters = [
        [(), {v}, rng.sample(range(n), 2)][rng.choice(kind)] for v in net.nodes()
    ]
    net = replace(net, filters=tuple(map(frozenset, filters)))
    rg0 = RoutingGraph(
        tuple(rng.choice(list(net.prefs[v]) + [None]) for v in net.nodes())
    )
    policy = draw(st.sampled_from(list(Adversary)))
    rounds = draw(st.integers(1, 6))
    return net, rg0, policy, rounds, draw(st.integers(0, 10_000))


@settings(max_examples=300, deadline=None)
@given(runs())
def test_engine_matches_reference_simulator(case):
    net, rg0, policy, rounds, seed = case
    sched = RecordingScheduler(net, seed)
    state, trace = run(
        EngineState.initial(net, rg0), sched, max_rounds=rounds,
        stop=Stop.ROUNDS, policy=policy,
    )
    inst = reference.read_instance(format_instance(net, rg0))
    replay = reference.simulate(inst, sched.perms, policy.value)
    delivered = {p.origin: p.delivered_round for p in state.packets if p.delivered}
    assert delivered == replay.delivered_round
    assert state.rg.next_hop == replay.next_hops
    assert state.paths == resolve(state.rg, net.sink)[0]
    assert reference.trace_permutations(trace) == sched.perms
