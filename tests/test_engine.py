from __future__ import annotations

from dataclasses import replace

import pytest

from conftest import actual_path, all_clear_rg, walk
from nexthop import engine
from nexthop.engine import (
    Adversary,
    EngineState,
    FairnessError,
    PacketState,
    Stop,
    activate,
    best_valid,
    forward_packets,
    is_equilibrium,
    place_cycled_packets,
    route_verification,
    run,
    run_round,
)
from nexthop.model import (
    DuplicatePreferenceError,
    Network,
    RoutingGraph,
    SelfPreferenceError,
    SinkOutArcError,
    UnreachableNodeError,
    resolve,
)
from nexthop.schedulers import RandomScheduler


def verified(net, rg):
    state = EngineState.initial(net, rg)
    return state


@pytest.mark.parametrize(
    "prefs, error",
    [
        ([[], [1]], SelfPreferenceError),
        ([[], [0, 0]], DuplicatePreferenceError),
        ([[1], [0]], SinkOutArcError),
        ([[], [0], [3], [2]], UnreachableNodeError),
    ],
)
def test_initial_rejects_invalid_network(prefs, error):
    # the network cannot be built, so no engine run ever starts on it
    with pytest.raises(error):
        EngineState.initial(Network.of(prefs))


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
    assert frozenset(nogood.nodes()) - state.clear_set == frozenset({1, 2})


def test_run_round_rejects_unfair_permutation(tri):
    state = EngineState.initial(tri)
    with pytest.raises(FairnessError):
        run_round(state, [1])
    with pytest.raises(FairnessError):
        run_round(state, [1, 1])


def test_run_round_resolves_once_per_round(nogood, monkeypatch):
    state = EngineState.initial(nogood, all_clear_rg(nogood))
    calls = []

    def counted(rg, sink):
        calls.append(rg)
        return resolve(rg, sink)

    monkeypatch.setattr(engine, "resolve", counted)
    sched = RandomScheduler(nogood, seed=2)
    for k in range(1, 6):
        state = run_round(state, sched.permutation(state), Adversary.MIN_ID)
        assert len(calls) == k
        assert calls[-1] == state.rg  # the post-activation graph


def _parked_states():
    """Hand-built round boundaries on r=0, 1 ranks [2], 2 ranks [1, 0], from
    the 1-2 cycle.  Activated before 2, node 1 finds no valid choice and
    parks the packets at it.  They carry a capture and hop count left from
    an earlier round, or none."""
    net = Network.of([[], [2], [1, 0]])
    rg = RoutingGraph((None, 2, 1))
    packets = [
        (PacketState(1, 1, None, (1, 2), 3), PacketState(2, 2, None, (1, 2), 3)),
        (PacketState(1, 1, None, None, 2), PacketState(2, 2)),
        (PacketState(1, 1), PacketState(2, None, 1, None, 1)),
        (PacketState(1, 2, None, (1, 2), 3), PacketState(2, 1, None, (1, 2), 3)),
    ]
    return [
        EngineState(net, 3, rg, ((0,), (), ()), pkts, ("earlier",))
        for pkts in packets
    ]


@pytest.mark.parametrize("policy", list(Adversary))
@pytest.mark.parametrize("perm", [[1, 2], [2, 1]], ids=["1-first", "2-first"])
@pytest.mark.parametrize(
    "state", _parked_states(), ids=["captured", "stale-hops", "clean", "swapped"]
)
def test_run_round_equals_its_phases_composed(state, perm, policy):
    phases = place_cycled_packets(state, policy)
    phases = route_verification(forward_packets(activate(phases, *perm)))
    out = run_round(state, perm, policy)
    assert out == replace(phases, round=state.round + 1)  # every field
    parked = out.rg.next_hop[1] is None
    assert parked == (perm == [1, 2])
    for before, after in zip(state.packets, out.packets):
        if parked and after.location == 1:
            assert (after.last_cycle, after.last_hops) == (None, 0)
            if before == after:
                assert after is before  # a clean parked packet is left alone


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
