"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; any assertion failure archives the offending instance under
``tests/failures/`` before failing the test.
"""

from __future__ import annotations

import contextlib
import random
import time
from pathlib import Path

import pytest

from conftest import (
    actual_path,
    all_clear_rg,
    random_spanning_tree,
    random_stable_restriction,
    skeleton_component,
)
from nexthop import engine
from nexthop.analysis import (
    enumerate_equilibria,
    exhaustive_delivery,
    has_strong_stability,
    is_skeleton,
    is_stable_tree,
    max_stable_tree,
    max_stable_tree_dfs,
)
from nexthop.cli import main
from nexthop.engine import EngineState, Stop, run, run_round
from nexthop.gadgets import CnfFormula, verify_dichotomy
from nexthop.generators import random_network
from nexthop.model import (
    Network,
    RoutingGraph,
    format_instance,
    parse_instance,
    sink_component,
    validate_spanning_tree,
)
from nexthop.schedulers import CoordinateScheduler, FairStabiliseScheduler, find_stable

BASE_SEED = 20250811
FAILURE_DIR = Path(__file__).parent / "failures"


@contextlib.contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number}: FAIL — {label}")
        raise
    print(f"criterion {number}: PASS — {label}")


def archive_counterexample(tag: str, net: Network, note: str) -> Path:
    FAILURE_DIR.mkdir(exist_ok=True)
    path = FAILURE_DIR / f"{tag}.txt"
    path.write_text(f"# {note}\n" + format_instance(net))
    return path


# --- shared run corpora -----------------------------------------------------


@pytest.fixture(scope="module")
def coordinate_runs():
    """200 seeded empty-filter networks driven 4 coordination rounds each."""
    t0 = time.monotonic()
    rng = random.Random(BASE_SEED)
    runs = []
    for i in range(200):
        n = 4 + i % 12
        net = random_network(rng, n, min_deg=2, max_deg=4)
        sched = CoordinateScheduler(net)
        state = EngineState.initial(net)
        for _ in range(4):
            if state.all_delivered:
                break
            state = run_round(state, sched.permutation(state))
            sched.after_round(state)
        runs.append((net, sched, state))
    return runs, time.monotonic() - t0


@pytest.fixture(scope="module")
def stabilise_runs():
    """200 seeded self-filter networks, each driven exactly n rounds.

    The bounds are claims about an executing protocol, so the driver never
    stops early: packets only move while rounds run.
    """
    rng = random.Random(BASE_SEED + 1)
    runs = []
    for i in range(200):
        n = 4 + i % 12
        net = random_network(rng, n, min_deg=2, max_deg=4, filters="self")
        sched = FairStabiliseScheduler(net)
        state, _ = run(
            EngineState.initial(net), sched, max_rounds=n, stop=Stop.ROUNDS
        )
        runs.append((net, sched, state))
    return runs


def _imperfect_round_trace():
    """A clear-start instance whose first round traps packets in a cycle."""
    net = Network.of([[], [0], [4, 0], [2, 1], [3]], filters="self")
    rg0 = RoutingGraph.from_arcs(5, [(1, 0), (2, 0), (3, 1), (4, 3)])
    sched = FairStabiliseScheduler(net)
    state, _ = run(
        EngineState.initial(net, rg0), sched, max_rounds=5, stop=Stop.EQUILIBRIUM
    )
    return net, sched, state


# --- criteria ---------------------------------------------------------------


def test_criterion_1_four_round_delivery(coordinate_runs):
    runs, elapsed = coordinate_runs
    with criterion(1, "coordination delivers every packet within four rounds"):
        t0 = time.monotonic()
        for net, _, state in runs:
            ok = state.all_delivered and all(
                p.delivered_round <= 4 for p in state.packets
            )
            if not ok:
                archive_counterexample(
                    "criterion1", net, "four-round delivery violated"
                )
            assert ok
        for net, _, _ in runs:
            if net.n <= 8:
                fresh = CoordinateScheduler(net)
                branched = exhaustive_delivery(net, fresh, rounds=4)
                if not branched:
                    archive_counterexample(
                        "criterion1-adversary", net,
                        "an adversary branch defeats four-round delivery",
                    )
                assert branched
        total = elapsed + (time.monotonic() - t0)
        assert total < 60.0, f"criterion 1 took {total:.1f}s"


def test_criterion_2_no_equilibrium_two_round_delivery(nogood):
    with criterion(2, "the no-equilibrium fixture still routes in two rounds"):
        assert enumerate_equilibria(nogood) == []
        for rg0 in (None, all_clear_rg(nogood)):
            sched = CoordinateScheduler(nogood)
            state, _ = run(
                EngineState.initial(nogood, rg0),
                sched,
                max_rounds=2,
                stop=Stop.ALL_DELIVERED,
            )
            assert state.all_delivered
            assert all(p.delivered_round <= 2 for p in state.packets)


def test_criterion_3_self_filter_bounds(stabilise_runs):
    with criterion(3, "self-filter delivery, stability and imperfection bounds"):
        for net, _, state in stabilise_runs:
            n = net.n
            bound = n // 3
            try:
                assert state.all_delivered
                assert all(p.delivered_round <= bound for p in state.packets)
                assert engine.is_equilibrium(state)
                assert state.round <= n
                assert all(
                    state.rg.next_hop[v] is not None
                    for v in net.non_sink_nodes()
                )
                assert len(engine.imperfect_rounds(state)) <= bound
            except AssertionError:
                path = archive_counterexample(
                    f"criterion3-n{n}", net, f"bounds violated at n={n}"
                )
                raise AssertionError(
                    f"bounds violated; instance archived at {path}"
                )


# The clear-start instance of _imperfect_round_trace, as archived in
# perfbench/archive/fair-stabilise-n5-late-delivery.txt.
LATE_DELIVERY_N5 = """\
nodes 5
sink 0
prefs 1: 0
prefs 2: 4 0
prefs 3: 2 1
prefs 4: 3
filter 0: 0
filter 1: 1
filter 2: 2
filter 3: 3
filter 4: 4
rg0 1: 0
rg0 2: 0
rg0 3: 1
rg0 4: 3
"""


def test_fair_stabilise_late_delivery_from_clear_start(tmp_path, capsys):
    # An open finding, pinned as observed: from this clear start
    # fair-stabilise delivers its last packet in round 2, and 2 > 5 // 3.
    # Criterion 3 keeps its floor(n/3) bound and its first-choice starts;
    # this clear start lies outside that class, so neither refutes the other.
    net, rg0 = parse_instance(LATE_DELIVERY_N5)
    assert rg0 == RoutingGraph.from_arcs(5, [(1, 0), (2, 0), (3, 1), (4, 3)])
    state, _ = run(
        EngineState.initial(net, rg0),
        FairStabiliseScheduler(net),
        max_rounds=net.n,
        stop=Stop.ALL_DELIVERED,
    )
    assert state.all_delivered and state.round == 2
    assert max(p.delivered_round for p in state.packets) == 2 > net.n // 3
    assert len(engine.imperfect_rounds(state)) == 1
    assert engine.is_equilibrium(state)

    inst = tmp_path / "late.txt"
    inst.write_text(LATE_DELIVERY_N5)
    code = main(["run", str(inst), "--scheduler", "fair-stabilise",
                 "--stop", "delivered"])
    assert code == 0
    assert capsys.readouterr().out == (
        "delivered 4/4 by round 2; equilibrium: yes; imperfect rounds: 1; "
        "rounds executed: 2\n"
    )


# No three-node start breaks floor(n/3), but 672 of the 109,136 four-node
# self-filter starts deliver their last packet in round 2; none of them
# starts on first choices.  This one is a clear start.
LATE_DELIVERY_N4 = """\
nodes 4
sink 0
prefs 1: 3
prefs 2: 1 0
prefs 3: 2 0
filter 0: 0
filter 1: 1
filter 2: 2
filter 3: 3
rg0 1: 3
rg0 2: 0
rg0 3: 0
"""


def test_fair_stabilise_late_delivery_at_four_nodes(tmp_path, capsys):
    # An open finding, pinned as observed: round 1 activates 1, 3, 2 and
    # closes the cycle 1 -> 3 -> 2 -> 1 before any packet is delivered, so
    # the last packet arrives in round 2, and 2 > 4 // 3.  Like the five-node
    # case above it lies outside criterion 3's first-choice starts.
    inst = tmp_path / "late4.txt"
    inst.write_text(LATE_DELIVERY_N4)
    code = main(["run", str(inst), "--scheduler", "fair-stabilise",
                 "--stop", "delivered"])
    assert code == 0
    assert capsys.readouterr().out == (
        "delivered 3/3 by round 2; equilibrium: yes; imperfect rounds: 1; "
        "rounds executed: 2\n"
    )


def test_criterion_4_ever_opaque_growth(stabilise_runs):
    with criterion(4, "ever-opaque set grows strictly, by three after failures"):
        cases = [
            (net, sched, state) for net, sched, state in stabilise_runs
        ] + [_imperfect_round_trace()]
        saw_imperfect = False
        for net, sched, state in cases:
            sizes = [len(o) for o in sched.opaque_history]
            full = net.n - 1
            for a, b in zip(sizes, sizes[1:]):
                if a < full:
                    assert b > a
            for t in engine.imperfect_rounds(state):
                if t < len(sizes):
                    saw_imperfect = True
                    before = sizes[t - 1] if t >= 1 else 0
                    assert sizes[t] >= before + 3
        assert saw_imperfect  # the crafted trace must exercise the jump


def test_criterion_5_find_stable_contract():
    with criterion(5, "tree extension keeps spanning and strong stability"):
        rng = random.Random(BASE_SEED + 2)
        done = 0
        attempts = 0
        while done < 500:
            attempts += 1
            assert attempts < 20_000
            net = random_network(rng, rng.randint(4, 8), min_deg=2, max_deg=4)
            s_in = random_spanning_tree(rng, net)
            o_prev = random_stable_restriction(rng, net, s_in)
            t_arcs = skeleton_component(rng, net, s_in, o_prev)
            if not is_skeleton(s_in, net.sink, t_arcs, o_prev):
                continue
            out = find_stable(t_arcs, s_in, o_prev, net)
            validate_spanning_tree(net, out)
            t_nodes = {u for arc in t_arcs for u in arc} | {net.sink}
            outside = frozenset(net.nodes()) - t_nodes
            assert has_strong_stability(net, out, o_prev | outside)
            done += 1


def test_criterion_6_coordination_lemmas(coordinate_runs, nogood):
    runs, _ = coordinate_runs
    with criterion(6, "partitions are component-monochromatic and realised"):
        two_round = CoordinateScheduler(nogood)
        state = EngineState.initial(nogood, all_clear_rg(nogood))
        for _ in range(2):
            state = run_round(state, two_round.permutation(state))
            two_round.after_round(state)
        for net, sched, state in runs + [(nogood, two_round, state)]:
            fcd = sched.fcd
            for part, clear in zip(sched.partitions, sched.clear_sets):
                for comp in fcd.components:
                    assert comp <= part.red or comp <= part.blue
            # the last executed round's colouring against the final graph
            comp = sink_component(state.rg, net)
            assert sched.partitions[-1].red <= comp
            assert not sched.partitions[-1].blue & comp


def test_criterion_7_gadget_dichotomy():
    import itertools

    with criterion(7, "satisfiability matches the stable-tree dichotomy"):
        t0 = time.monotonic()
        for n_vars in (1, 2):
            lits = list(range(1, n_vars + 1)) + [
                -v for v in range(1, n_vars + 1)
            ]
            clause_pool = list(itertools.product(lits, repeat=3))
            for m in (1, 2):
                for clauses in itertools.product(clause_pool, repeat=m):
                    f = CnfFormula(n_vars, tuple(clauses))
                    for padding in (0, 2):
                        rep = verify_dichotomy(f, padding)
                        assert rep.satisfiable == (rep.classification == "YES")
                        if not rep.satisfiable:
                            assert rep.max_size_bound == 4 * n_vars + 5 * m + 2
                            assert rep.padding_tree is None
        elapsed = time.monotonic() - t0
        assert elapsed < 120.0, f"criterion 7 took {elapsed:.1f}s"


def test_criterion_8_oracle_agreement(tri, nogood, notme2):
    with criterion(8, "independent stability oracles agree"):
        rng = random.Random(BASE_SEED + 3)
        for _ in range(100):
            n = rng.randint(3, 7)
            net = random_network(rng, n, min_deg=1, max_deg=3)
            filters = tuple(
                frozenset({rng.randrange(n)}) if rng.random() < 0.5 else frozenset()
                for _ in range(n)
            )
            net = Network(net.n, net.sink, net.prefs, filters)
            rg = random_spanning_tree(rng, net)
            paths = tuple(actual_path(rg, v, net.sink) for v in net.nodes())
            state = EngineState(
                net=net, round=0, rg=rg, paths=paths, packets=(), trace=()
            )
            assert (
                is_stable_tree(net, rg.arcs()).stable
                == engine.is_equilibrium(state)
            )
        for net in [tri, nogood, notme2]:
            assert max_stable_tree(net).size == max_stable_tree_dfs(net)
        for _ in range(40):
            n = rng.randint(3, 7)
            net = random_network(rng, n, min_deg=1, max_deg=3)
            if rng.random() < 0.5:
                net = Network(
                    net.n,
                    net.sink,
                    net.prefs,
                    tuple(frozenset({v}) for v in range(n)),
                )
            assert max_stable_tree(net).size == max_stable_tree_dfs(net)


def test_criterion_9_deterministic_traces():
    with criterion(9, "fixed instance, seed and policy reproduce traces"):
        rng = random.Random(BASE_SEED + 4)
        net = random_network(rng, 9, min_deg=2, max_deg=4)
        netself = random_network(rng, 9, min_deg=2, max_deg=4, filters="self")

        def coordinate_trace():
            state, trace = run(
                EngineState.initial(net),
                CoordinateScheduler(net),
                max_rounds=4,
                stop=Stop.ROUNDS,
            )
            return trace

        def stabilise_trace():
            state, trace = run(
                EngineState.initial(netself),
                FairStabiliseScheduler(netself),
                max_rounds=9,
                stop=Stop.ROUNDS,
            )
            return trace

        def random_trace():
            from nexthop.schedulers import RandomScheduler

            state, trace = run(
                EngineState.initial(net),
                RandomScheduler(net, seed=77),
                max_rounds=6,
                stop=Stop.ROUNDS,
                policy=engine.Adversary.MIN_ID,
            )
            return trace

        assert coordinate_trace() == coordinate_trace()
        assert stabilise_trace() == stabilise_trace()
        assert random_trace() == random_trace()
