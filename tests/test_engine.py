from __future__ import annotations

import pytest

from conftest import actual_path, all_clear_rg, walk
from nexthop import engine
from nexthop.engine import (
    Adversary,
    EngineState,
    FairnessError,
    Stop,
    activate,
    best_valid,
    forward_packets,
    is_equilibrium,
    place_cycled_packets,
    run,
    run_round,
)
from nexthop.model import Network, RoutingGraph
from nexthop.schedulers import RandomScheduler


def verified(net, rg):
    state = EngineState.initial(net, rg)
    return state


def test_best_valid_choice_respects_filters(notme2):
    # u believes (u,w,r); w believes (w,r)
    state = verified(notme2, RoutingGraph.from_arcs(3, [(1, 2), (2, 0)]))
    assert best_valid(state.net, state.paths, 2) == 0  # u's path contains w
    assert best_valid(state.net, state.paths, 1) == 2


def test_best_valid_choice_no_clear_neighbour(notme2):
    state = verified(notme2, RoutingGraph.empty(3))
    state = activate(state, 1)  # u picks r
    assert state.paths[1] == (1, 0)


def test_activate_steps(notme2):
    state = verified(notme2, RoutingGraph.empty(3))
    state = activate(state, 2)
    assert state.rg.next_hop[2] == 0 and state.paths[2] == (2, 0)
    state = activate(state, 1)
    assert state.rg.next_hop[1] == 2 and state.paths[1] == (1, 2, 0)


def test_activate_without_choice_clears_arc():
    # u's only neighbour is w; with w opaque, u must go empty and drop its arc
    net = Network.of([[], [2], [0]])
    state = verified(net, RoutingGraph.from_arcs(3, [(1, 2)]))
    assert state.paths[1] == ()  # w has no arc, so u's walk dies
    state = activate(state, 1)
    assert state.rg.next_hop[1] is None
    assert state.paths[1] == ()


def test_run_round_notme2_rank1_start(notme2):
    state = EngineState.initial(notme2)
    state = run_round(state, [2, 1])
    assert dict(state.rg.arcs()) == {2: 0, 1: 2}
    assert all(p.delivered_round == 1 for p in state.packets)
    assert is_equilibrium(state)


def test_run_round_nogood_all_clear(nogood):
    state = EngineState.initial(nogood, all_clear_rg(nogood))
    state = run_round(state, [2, 1])
    assert dict(state.rg.arcs()) == {2: 1, 1: 2}
    assert not any(p.delivered for p in state.packets)
    assert state.opaque_set == frozenset({1, 2})


def test_run_round_rejects_unfair_permutation(tri):
    state = EngineState.initial(tri)
    with pytest.raises(FairnessError):
        run_round(state, [1])
    with pytest.raises(FairnessError):
        run_round(state, [1, 1])


def test_forwarding_cycles_record_capture(nogood):
    state = EngineState.initial(nogood)  # rank-1 graph is the 2-cycle
    state = forward_packets(state)
    pkt = next(p for p in state.packets if p.origin == 1)
    assert pkt.location == 2  # 3 hops around the 2-cycle
    assert pkt.last_cycle == (1, 2)
    assert pkt.last_hops == 3


def test_forwarding_no_arc_stays_put(nogood):
    state = EngineState.initial(nogood, RoutingGraph.empty(3))
    state = forward_packets(state)
    assert [p.location for p in state.packets] == [1, 2]
    assert all(p.last_cycle is None for p in state.packets)


def test_forwarding_is_idempotent_on_delivered(tri):
    state = EngineState.initial(tri)
    state = forward_packets(state)
    again = forward_packets(state)
    assert again.packets == state.packets


def test_walk_ends_and_capturing_cycle():
    # 5 -> 2 -> 3 -> 4 -> 2: a one-hop tail into the 3-cycle (2, 3, 4)
    rg = RoutingGraph((None, 0, 3, 4, 2, 2, 5, 6))
    hops, end, delivered, cycle = walk(rg, 5, 0)
    assert len(hops) == 8 and end == 3 and not delivered
    # the walk passed 3 three times; the cycle is listed once, smallest id first
    assert cycle == (2, 3, 4)
    assert walk(rg, 1, 0) == ([(1, 0)], 0, True, None)
    dead = RoutingGraph((None, None, 1))
    assert walk(dead, 2, 0) == ([(2, 1)], 1, False, None)


def test_adversary_policies(nogood):
    state = forward_packets(EngineState.initial(nogood))
    stay = place_cycled_packets(state, Adversary.STAY)
    assert stay.packets == state.packets
    moved = place_cycled_packets(state, Adversary.MIN_ID)
    assert all(p.location == 1 for p in moved.packets)


def test_packet_conservation_and_walk_equivalence(nogood):
    sched = RandomScheduler(nogood, seed=5)
    state = EngineState.initial(nogood)
    for _ in range(6):
        before = {p.origin for p in state.packets}
        perm = sched.permutation(state)
        prev = state
        state = run_round(state, perm)
        assert {p.origin for p in state.packets} == before
        for pkt, old in zip(state.packets, prev.packets):
            if old.delivered:
                assert pkt == old
                continue
            expect = bool(actual_path(state.rg, old.location, nogood.sink))
            assert (pkt.delivered_round == state.round) == expect


def test_consistency_after_verification(tri):
    state = run_round(EngineState.initial(tri), [2, 1])
    for v in tri.nodes():
        assert state.paths[v] == actual_path(state.rg, v, tri.sink)


def test_equilibrium_examples(nogood, notme2):
    good = verified(notme2, RoutingGraph.from_arcs(3, [(1, 2), (2, 0)]))
    assert is_equilibrium(good)
    both_r = verified(nogood, RoutingGraph.from_arcs(3, [(1, 0), (2, 0)]))
    assert not is_equilibrium(both_r)  # u prefers clear w
    empty = verified(nogood, RoutingGraph.empty(3))
    assert not is_equilibrium(empty)  # the sink is a valid choice for both


def test_run_stop_conditions(tri):
    state, _ = run(
        EngineState.initial(tri), RandomScheduler(tri, 0), max_rounds=5,
        stop=Stop.ROUNDS,
    )
    assert state.round == 5
    state, _ = run(
        EngineState.initial(tri), RandomScheduler(tri, 0), max_rounds=5,
        stop=Stop.EQUILIBRIUM,
    )
    assert state.round == 0  # the rank-1 start is already stable


def test_determinism_bit_identical(nogood):
    def go():
        sched = RandomScheduler(nogood, seed=11)
        state, trace = run(
            EngineState.initial(nogood), sched, max_rounds=8, stop=Stop.ROUNDS
        )
        return trace

    assert go() == go()


def test_trace_format_golden(notme2):
    state = run_round(EngineState.initial(notme2), [2, 1])
    assert state.trace == (
        "round 0 | verify clear={0}",
        "round 1 | activate 2 -> 0 path=2-0",
        "round 1 | activate 1 -> 2 path=1-2-0",
        "round 1 | forward pkt=1 1->2",
        "round 1 | forward pkt=1 2->0",
        "round 1 | delivered pkt=1",
        "round 1 | forward pkt=2 2->0",
        "round 1 | delivered pkt=2",
        "round 1 | verify clear={0,1,2}",
    )


def test_trace_permutations_roundtrip(nogood):
    sched = RandomScheduler(nogood, seed=3)
    state, trace = run(
        EngineState.initial(nogood), sched, max_rounds=4, stop=Stop.ROUNDS
    )
    perms = engine.trace_permutations(trace)
    assert len(perms) == 4
    assert all(sorted(p) == [1, 2] for p in perms)
