from __future__ import annotations

import dataclasses
import random
from collections import Counter

import pytest

from conftest import (
    actual_path,
    all_clear_rg,
    imperfect_union,
    nogood_chain,
    random_spanning_tree,
    random_stable_restriction,
    skeleton_component,
)
from nexthop import engine
from nexthop.analysis import has_strong_stability, is_skeleton
from nexthop.engine import EngineState, Stop, run, run_round
from nexthop.generators import random_network
from nexthop.model import (
    Network,
    RoutingGraph,
    TreeError,
    arc_nodes,
    distances_to,
    first_class_decomposition,
    in_neighbours,
    out_plus,
    sink_component,
    sink_component_arcs,
    validate_spanning_tree,
)
from nexthop.schedulers import (
    CoordinateScheduler,
    FairStabiliseScheduler,
    ModelAssumptionError,
    ReplayScheduler,
    bfs_order,
    coordinate,
    coordinate_sequence,
    find_stable,
    initial_spanning_tree,
    random_fair_permutation,
)


# --- random scheduler -------------------------------------------------------


def test_random_permutation_trivial_and_deterministic(tri):
    two = Network.of([[], [0]])
    assert random_fair_permutation(random.Random(9), two) == [1]
    a = random_fair_permutation(random.Random(7), tri)
    b = random_fair_permutation(random.Random(7), tri)
    assert a == b and sorted(a) == [1, 2]


def test_random_permutation_uniform():
    net = Network.of([[], [0], [0], [0]])
    rng = random.Random(0)
    counts = Counter(
        tuple(random_fair_permutation(rng, net)) for _ in range(10_000)
    )
    assert len(counts) == 6
    chi2 = sum((c - 10_000 / 6) ** 2 / (10_000 / 6) for c in counts.values())
    assert chi2 < 20.5  # df=5 at p=0.001
    for c in counts.values():
        assert abs(c / 10_000 - 1 / 6) < 0.05


# --- coordination -----------------------------------------------------------


def test_coordinate_nogood_clear_cycle(nogood):
    fcd = first_class_decomposition(nogood)
    part = coordinate(nogood, fcd, frozenset({0, 1, 2}))
    assert part.blue_seed == frozenset({1, 2})
    assert part.red == frozenset({0})
    assert part.blue == frozenset({1, 2})


def test_coordinate_nogood_sink_only(nogood):
    fcd = first_class_decomposition(nogood)
    part = coordinate(nogood, fcd, frozenset({0}))
    assert part.blue_seed == frozenset()
    assert part.red == frozenset({0, 1, 2})
    assert part.blue == frozenset()
    assert part.red_order == (1, 2)


def test_coordinate_tri_acyclic_first_class(tri):
    fcd = first_class_decomposition(tri)
    part = coordinate(tri, fcd, frozenset({0, 1, 2}))
    assert part.blue_seed == frozenset()
    assert part.red == frozenset({0, 1, 2})


def test_coordinate_sequence_seed_component(nogood):
    fcd = first_class_decomposition(nogood)
    state = EngineState.initial(nogood, all_clear_rg(nogood))
    part = coordinate(nogood, fcd, state.clear_set)
    assert coordinate_sequence(part, fcd, nogood, state.clear_set) == [2, 1]


def test_coordinate_sequence_all_red(nogood):
    fcd = first_class_decomposition(nogood)
    state = EngineState.initial(nogood)  # rank-1 start: only the sink is clear
    part = coordinate(nogood, fcd, state.clear_set)
    assert part.blue == frozenset()
    seq = coordinate_sequence(part, fcd, nogood, state.clear_set)
    assert seq == list(part.red_order) == [1, 2]


def test_coordinate_scheduler_two_rounds_from_clear(nogood):
    sched = CoordinateScheduler(nogood)
    state = EngineState.initial(nogood, all_clear_rg(nogood))
    state, _ = run(state, sched, max_rounds=4, stop=Stop.ALL_DELIVERED)
    assert state.round == 2
    assert all(p.delivered_round <= 2 for p in state.packets)


def test_coordinate_scheduler_spanning_first_class_round_one(tri):
    sched = CoordinateScheduler(tri)
    state, _ = run(
        EngineState.initial(tri), sched, max_rounds=4, stop=Stop.ALL_DELIVERED
    )
    assert state.round == 1


def test_coordinate_requires_empty_filters(notme2):
    with pytest.raises(ValueError):
        CoordinateScheduler(notme2)


def test_coordinate_partition_monotone_lemma():
    # on any trace: an earlier partition whose later blue seed is contained
    # in its blue side must have its red side contained in the later red side
    rng = random.Random(4)
    for _ in range(20):
        net = random_network(rng, rng.randint(4, 9))
        sched = CoordinateScheduler(net)
        state = EngineState.initial(net)
        for _ in range(4):
            state = run_round(state, sched.permutation(state))
            sched.after_round(state)
        parts = sched.partitions
        for early in range(len(parts)):
            for late in range(early + 1, len(parts)):
                if parts[late].blue_seed <= parts[early].blue:
                    assert parts[early].red <= parts[late].red


def test_coordinate_red_blue_sink_component():
    rng = random.Random(12)
    for _ in range(25):
        net = random_network(rng, rng.randint(4, 10))
        sched = CoordinateScheduler(net)  # after_round raises on violation
        state = EngineState.initial(net)
        for _ in range(4):
            state = run_round(state, sched.permutation(state))
            sched.after_round(state)
        comp = sink_component(state.rg, net)
        assert sched.partitions[-1].red <= comp
        assert not sched.partitions[-1].blue & comp


def _scanned_coordinate(net, fcd, clear):
    """Reference partition: after every move the scan restarts from the
    smallest undecided id.  Returns (red, blue, blue_seed, red_order)."""
    blue_seed = frozenset().union(
        *(
            fcd.components[j]
            for j in range(1, len(fcd.components))
            if set(fcd.cycles[j]) & clear
        )
    )
    blue = set(blue_seed)
    while True:
        red = {net.sink}
        order = []
        undecided = set(net.nodes()) - red - blue
        moved = True
        while moved:
            moved = False
            for v in sorted(undecided):
                comparison = blue | (undecided & clear)
                best = None
                for w in net.prefs[v]:
                    if w in red:
                        best = "red"
                        break
                    if w in comparison:
                        best = "other"
                        break
                if best == "red":
                    undecided.discard(v)
                    red.add(v)
                    order.append(v)
                    moved = True
                    break
        if blue | undecided == blue:
            return frozenset(red), frozenset(blue), blue_seed, tuple(order)
        blue |= undecided


def _assert_coordinate_matches_scan(net, clear):
    fcd = first_class_decomposition(net)
    part = coordinate(net, fcd, clear)
    got = (part.red, part.blue, part.blue_seed, part.red_order)
    assert got == _scanned_coordinate(net, fcd, clear)


def test_coordinate_matches_scan_random():
    rng = random.Random(17)
    for _ in range(60):
        net = random_network(rng, rng.randint(3, 30), min_deg=1, max_deg=4)
        for _ in range(3):
            clear = frozenset(
                v for v in net.non_sink_nodes() if rng.random() < 0.5
            ) | {net.sink}
            _assert_coordinate_matches_scan(net, clear)


def test_coordinate_matches_scan_on_runs():
    rng = random.Random(18)
    shapes = [nogood_chain(12), nogood_chain(5)]
    shapes += [
        (Network.of(imperfect_union(5, seed=s)[0].prefs), None) for s in range(3)
    ]
    shapes += [(random_network(rng, rng.randint(10, 30)), None) for _ in range(8)]
    for net, rg0 in shapes:
        sched = CoordinateScheduler(net)
        state = EngineState.initial(net, rg0)
        for _ in range(4):
            _assert_coordinate_matches_scan(net, state.clear_set)
            state = run_round(state, sched.permutation(state))
            sched.after_round(state)


def _stepped_coordinate_sequence(part, fcd, state):
    """Reference order: every emitted node activates on a trace-free copy of
    the engine state, and each greedy step asks ``engine.best_valid`` on the
    simulated paths.  ``coordinate_sequence`` must return the same list."""
    net = state.net
    seq = []
    sim = dataclasses.replace(state, trace=())
    first_back = in_neighbours([p[:1] for p in net.prefs])
    for j in range(1, len(fcd.components)):
        comp = fcd.components[j]
        if not comp <= part.blue_seed:
            continue
        anchor = sorted(set(fcd.cycles[j]) & state.clear_set)[0]
        dist = distances_to(anchor, first_back)
        rest = sorted((dist[v], v) for v in comp if v != anchor)
        block = [v for _, v in rest] + [anchor]
        sim = engine.activate(sim, *block)
        seq.extend(block)
    pending = sorted(part.blue - part.blue_seed)
    while pending:
        emitted = None
        for v in pending:
            w = engine.best_valid(net, sim.paths, v)
            if w is not None and w in part.blue:
                emitted = v
                break
        if emitted is None:
            raise ModelAssumptionError(
                f"coordination greedy phase stalled on {pending}"
            )
        pending.remove(emitted)
        sim = engine.activate(sim, emitted)
        seq.append(emitted)
    seq.extend(part.red_order)
    return seq


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


def _assert_sequences_match_stepped(net, rg0, rounds=4):
    """Drives coordination from rg0 and compares the two orders every round.
    Returns the number of rounds whose partition had a non-empty blue side."""
    fcd = first_class_decomposition(net)
    state = EngineState.initial(net, rg0)
    blue_rounds = 0
    for _ in range(rounds):
        part = coordinate(net, fcd, state.clear_set)
        got = _outcome(coordinate_sequence, part, fcd, net, state.clear_set)
        assert got == _outcome(_stepped_coordinate_sequence, part, fcd, state)
        if not isinstance(got, list):
            return blue_rounds
        blue_rounds += bool(part.blue - part.blue_seed)
        state = run_round(state, got)
    return blue_rounds


def test_coordinate_sequence_matches_stepped_reference_random():
    rng = random.Random(23)
    greedy = 0
    for _ in range(300):
        net = random_network(rng, rng.randint(2, 30), min_deg=1, max_deg=4)
        # a partial start: every node on a random choice, some on none
        rg0 = RoutingGraph(
            tuple(
                None if v == net.sink else rng.choice(net.prefs[v] + (None,))
                for v in net.nodes()
            )
        )
        greedy += _assert_sequences_match_stepped(net, rg0)
    assert greedy  # the greedy phase had blue nodes to emit


def test_coordinate_sequence_matches_stepped_reference_shapes():
    shapes = [nogood_chain(k) for k in (1, 2, 5, 12)]
    for c, s in ((1, None), (3, 0), (5, 1), (9, 2)):
        net, rg0 = imperfect_union(c, seed=s)
        shapes.append((Network.of(net.prefs), rg0))
    for net, rg0 in shapes:
        _assert_sequences_match_stepped(net, rg0)
        _assert_sequences_match_stepped(net, all_clear_rg(net))
        _assert_sequences_match_stepped(net, None)


# --- BFS orders -------------------------------------------------------------


def test_bfs_orders():
    tree = RoutingGraph((None, 0, 1))
    assert bfs_order({1, 2}, tree, 0) == [1, 2]
    assert bfs_order({0}, tree, 0) == []
    deep = RoutingGraph((None, 0, 0, 2))
    assert bfs_order({1, 2, 3}, deep, 0) == [1, 2, 3]  # ids break the depth tie


# --- FindStable -------------------------------------------------------------


def test_find_stable_notme2_example(notme2):
    s_in = initial_spanning_tree(notme2)
    assert s_in.next_hop == (None, 0, 0)
    out = find_stable(frozenset(), s_in, frozenset(), notme2)
    assert out.next_hop == (None, 2, 0)  # u retargets to w, w keeps the sink


def test_find_stable_spanning_input_is_identity(tri):
    tree = initial_spanning_tree(tri)
    out = find_stable(tree.arcs(), tree, frozenset(), tri)
    assert out == tree


def test_find_stable_contract_violation(notme2):
    bad = RoutingGraph((None, 2, 1))  # w -> u -> w would not even be a tree
    with pytest.raises(TreeError, match="node 1 does not reach the sink"):
        find_stable(frozenset(), bad, frozenset(), notme2)


def test_find_stable_randomised_contract():
    rng = random.Random(99)
    done = 0
    while done < 60:
        net = random_network(rng, rng.randint(4, 8))
        s_in = random_spanning_tree(rng, net)
        restricted = random_stable_restriction(rng, net, s_in)
        t_arcs = skeleton_component(rng, net, s_in, restricted)
        if not is_skeleton(s_in, net.sink, t_arcs, restricted):
            continue
        out = find_stable(t_arcs, s_in, restricted, net)
        validate_spanning_tree(net, out)
        outside = frozenset(net.nodes()) - {u for a in t_arcs for u in a} - {net.sink}
        assert has_strong_stability(net, out, restricted | outside)
        done += 1


def _leaf_scan_find_stable(t_in, s_in, net):
    """Reference extension: the smallest current leaf of the shrinking
    forest, found by scanning every remaining pair, is re-pointed first; its
    forbidden set is the outside nodes whose walk passes through it."""
    outside = frozenset(net.nodes()) - arc_nodes(t_in, net.sink)
    parent = [None] * net.n
    for u, w in t_in:
        parent[u] = w
    for v in outside:
        parent[v] = s_in.next_hop[v]
    original = {v: parent[v] for v in outside if parent[v] in outside}
    remaining = set(outside)
    for _ in range(len(outside)):
        leaves = [
            v
            for v in remaining
            if not any(
                u in remaining and original.get(u) == v for u in remaining
            )
        ]
        v = min(leaves)
        rg = RoutingGraph(tuple(parent))
        forbidden = {x for x in outside if v in actual_path(rg, x, net.sink)}
        parent[v] = next(w for w in net.prefs[v] if w not in forbidden)
        remaining.discard(v)
    return RoutingGraph(tuple(parent))


def test_find_stable_matches_leaf_scan_random():
    rng = random.Random(41)
    done = 0
    while done < 80:
        net = random_network(rng, rng.randint(4, 30), filters="self")
        s_in = random_spanning_tree(rng, net)
        restricted = random_stable_restriction(rng, net, s_in)
        t_arcs = skeleton_component(rng, net, s_in, restricted)
        if not is_skeleton(s_in, net.sink, t_arcs, restricted):
            continue
        out = find_stable(t_arcs, s_in, restricted, net)
        assert out == _leaf_scan_find_stable(t_arcs, s_in, net)
        done += 1


def test_find_stable_matches_leaf_scan_on_runs():
    rng = random.Random(42)
    shapes = [imperfect_union(c, seed=s) for c, s in ((2, 0), (6, 1), (9, 2))]
    shapes += [
        (random_network(rng, rng.randint(10, 30), filters="self"), None)
        for _ in range(8)
    ]
    for net, rg0 in shapes:
        sched = FairStabiliseScheduler(net)
        state = EngineState.initial(net, rg0)
        for _ in range(net.n):
            t_in = sink_component_arcs(state.rg, net)
            nxt = state.rg.next_hop
            assert t_in == {(v, nxt[v]) for v in state.clear_set - {net.sink}}
            out = find_stable(t_in, sched.tree, sched.ever_opaque, net)
            assert out == _leaf_scan_find_stable(t_in, sched.tree, net)
            state = run_round(state, sched.permutation(state))
            sched.after_round(state)
            if engine.is_equilibrium(state):
                break


# --- Fair-Stabilise ---------------------------------------------------------


def test_fair_stabilise_notme2(notme2):
    sched = FairStabiliseScheduler(notme2)
    state = EngineState.initial(notme2)
    perm = sched.permutation(state)
    assert perm == [2, 1]  # the ever-opaque block in tree BFS order
    state = run_round(state, perm)
    sched.after_round(state)
    assert all(p.delivered_round == 1 for p in state.packets)
    assert engine.is_equilibrium(state)


def test_fair_stabilise_requires_self_filters(nogood):
    with pytest.raises(ValueError):
        FairStabiliseScheduler(nogood)


def test_fair_stabilise_bfs_block_realises_tree():
    # after the ever-opaque block runs, those nodes sit on their tree arcs
    # and are consistent
    rng = random.Random(21)
    for _ in range(15):
        net = random_network(rng, rng.randint(4, 9), filters="self")
        sched = FairStabiliseScheduler(net)
        state = EngineState.initial(net)
        for _ in range(net.n):
            perm = sched.permutation(state)
            tree = sched.tree
            ever = sched.ever_opaque
            # the ever-opaque block comes first; it never holds the sink
            inside, rest = perm[: len(ever)], perm[len(ever) :]
            mid = state
            for v in inside:
                mid = engine.activate(mid, v)
            for v in ever:
                assert mid.rg.next_hop[v] == tree.next_hop[v]
                assert mid.paths[v] == tuple(_tree_path(tree, v, net.sink))
            got = out_plus(mid.rg.arcs(), ever)
            assert got == out_plus(tree.arcs(), ever)
            for v in rest:
                mid = engine.activate(mid, v)
            mid = engine.forward_packets(mid)
            mid = engine.route_verification(mid)
            import dataclasses

            state = dataclasses.replace(mid, round=state.round + 1)
            sched.after_round(state)


def _tree_path(tree, v, sink):
    path = [v]
    while path[-1] != sink:
        path.append(tree.next_hop[path[-1]])
    return path


def test_fair_stabilise_imperfect_round_case():
    # a clear-start instance in which round 1 traps three packets in a cycle;
    # the ever-opaque set then jumps by three and round 2 delivers
    net = Network.of(
        [[], [0], [4, 0], [2, 1], [3]], filters="self"
    )
    rg0 = RoutingGraph.from_arcs(5, [(1, 0), (2, 0), (3, 1), (4, 3)])
    sched = FairStabiliseScheduler(net)
    state = EngineState.initial(net, rg0)
    state, _ = run(state, sched, max_rounds=5, stop=Stop.EQUILIBRIUM)
    delivered = {p.origin: p.delivered_round for p in state.packets}
    assert delivered == {1: 1, 2: 2, 3: 2, 4: 2}
    assert engine.imperfect_rounds(state) == (1,)
    sizes = [len(o) for o in sched.opaque_history]
    assert sizes[0] == 1 and sizes[1] == 4  # growth of three after imperfection
    assert state.round == 2 and engine.is_equilibrium(state)


def test_fair_stabilise_equilibrium_within_n():
    rng = random.Random(33)
    for _ in range(20):
        n = rng.randint(4, 12)
        net = random_network(rng, n, filters="self")
        sched = FairStabiliseScheduler(net)
        state, _ = run(
            EngineState.initial(net), sched, max_rounds=n, stop=Stop.ROUNDS
        )
        assert engine.is_equilibrium(state)
        assert all(w is not None for v, w in enumerate(state.rg.next_hop) if v != 0)


def test_scheduler_decision_lines_golden(notme2, nogood):
    sched = FairStabiliseScheduler(notme2)
    state = EngineState.initial(notme2)
    state = run_round(state, sched.permutation(state))
    sched.after_round(state)
    assert sched.decisions == [
        "round 1 | stabilise opaque=[1, 2] promote=None tree=[(1, 2), (2, 0)]"
    ]
    coord = CoordinateScheduler(nogood)
    st = EngineState.initial(nogood, all_clear_rg(nogood))
    coord.permutation(st)
    assert coord.decisions == [
        "round 1 | partition red=[0] blue=[1, 2] seed=[1, 2]"
    ]


def test_replay_scheduler_reproduces(nogood):
    sched = CoordinateScheduler(nogood)
    state, trace = run(
        EngineState.initial(nogood, all_clear_rg(nogood)),
        sched,
        max_rounds=3,
        stop=Stop.ALL_DELIVERED,
    )
    perms = engine.trace_permutations(trace)
    text = ReplayScheduler.to_text(perms)
    replay = ReplayScheduler.from_text(text)
    state2, trace2 = run(
        EngineState.initial(nogood, all_clear_rg(nogood)),
        replay,
        max_rounds=len(perms),
        stop=Stop.ROUNDS,
    )
    assert trace2 == trace


@pytest.mark.parametrize(
    "perms",
    [[], [[]], [[], [], []], [[1, 2], [], [2, 1]], [[3, 1, 2]], [[1], [1], []]],
)
def test_replay_text_round_trip(perms):
    text = ReplayScheduler.to_text(perms)
    assert ReplayScheduler.from_text(text).perms == perms
    assert text.count("\n") == len(perms)
