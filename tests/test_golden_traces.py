"""Golden traces: SHA-256 digests of whole runs, pinned in golden_traces.json.

Every case runs a fixed number of rounds on one instance under one
scheduler and one adversary policy, then hashes the trace text (the bytes
``nexthop run --trace`` writes) and the summary fields: delivered count,
last delivery round, equilibrium verdict and imperfect rounds.  An engine
refactor must leave every digest unchanged.

The digests are written only by running this module as a script:

    PYTHONPATH=src python tests/test_golden_traces.py
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

from conftest import all_clear_rg, imperfect_union, nogood_chain
from nexthop import engine
from nexthop.engine import Adversary, EngineState, Stop
from nexthop.generators import random_network
from nexthop.model import Network, RoutingGraph
from nexthop.schedulers import (
    CoordinateScheduler,
    FairStabiliseScheduler,
    RandomScheduler,
    ReplayScheduler,
)

GOLDEN = Path(__file__).with_name("golden_traces.json")
ROUNDS = 8
POLICIES = {
    "stay": Adversary.STAY,
    "min-id": Adversary.MIN_ID,
    "max-id": Adversary.MAX_ID,
}


def instances() -> dict[str, tuple[Network, RoutingGraph | None]]:
    nogood = Network.of([[], [2, 0], [1, 0]])
    out = {
        "tri": (Network.of([[], [0, 2], [1, 0]]), None),
        "notme2": (Network.of([[], [2, 0], [1, 0]], filters="self"), None),
        "nogood": (nogood, None),
        "nogood-clear": (nogood, all_clear_rg(nogood)),
        "chain": nogood_chain(4),
        "chain12": nogood_chain(12),
        "imperfect": imperfect_union(1),
        "union6": imperfect_union(6, seed=2),
    }
    for seed, n in ((3, 7), (5, 9), (8, 11)):
        for filters in (None, "self"):
            net = random_network(random.Random(seed), n, filters=filters)
            out[f"random{seed}-n{n}-{filters or 'empty'}"] = (net, None)
    return out


def replay_perms(net: Network) -> list[list[int]]:
    """Ascending node order in even rounds, descending in odd ones."""
    up = list(net.non_sink_nodes())
    return [up if t % 2 == 0 else up[::-1] for t in range(ROUNDS)]


def schedulers(net: Network) -> dict[str, object]:
    out = {
        "random-s1": lambda: RandomScheduler(net, seed=1),
        "random-s7": lambda: RandomScheduler(net, seed=7),
        "replay": lambda: ReplayScheduler(replay_perms(net)),
    }
    if not any(net.filters):
        out["coordinate"] = lambda: CoordinateScheduler(net)
    if all(net.filters[v] == {v} for v in net.non_sink_nodes()):
        out["fair-stabilise"] = lambda: FairStabiliseScheduler(net)
    return out


def cases():
    for name, (net, rg0) in instances().items():
        for sched_name, make in schedulers(net).items():
            for policy_name in POLICIES:
                yield f"{name}/{sched_name}/{policy_name}", net, rg0, make, policy_name


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def digest(net, rg0, make, policy_name) -> dict[str, str]:
    state, trace = engine.run(
        EngineState.initial(net, rg0),
        make(),
        max_rounds=ROUNDS,
        stop=Stop.ROUNDS,
        policy=POLICIES[policy_name],
    )
    delivered = [p.delivered_round for p in state.packets if p.delivered]
    summary = (
        f"delivered={len(delivered)} last={max(delivered, default=None)} "
        f"equilibrium={engine.is_equilibrium(state)} "
        f"imperfect={engine.imperfect_rounds(state)}"
    )
    return {"trace": sha256("\n".join(trace) + "\n"), "summary": sha256(summary)}


def compute() -> dict[str, dict[str, str]]:
    return {case: digest(*rest) for case, *rest in cases()}


def test_golden_traces():
    golden = json.loads(GOLDEN.read_text())
    got = compute()
    assert sorted(got) == sorted(golden)
    changed = [case for case in golden if got[case] != golden[case]]
    assert not changed, f"{len(changed)} runs changed, first: {changed[:5]}"


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(compute(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
