from __future__ import annotations

import dataclasses
import itertools
import random

import pytest

from conftest import (
    actual_path,
    all_clear_rg,
    assert_packet_gap,
    brute_force_equilibria,
    nogood_chain,
    random_spanning_tree,
    random_stable_restriction,
    walk,
)
from nexthop import analysis, engine
from nexthop.analysis import (
    BudgetExceededError,
    StableTreeReport,
    choice_budget,
    enumerate_equilibria,
    exhaustive_delivery,
    has_strong_stability,
    is_skeleton,
    is_stable_tree,
    max_stable_tree,
    max_stable_tree_dfs,
    tree_paths,
)
from nexthop.engine import EngineState
from nexthop.generators import random_network
from nexthop.model import (
    Network,
    RoutingGraph,
    TreeError,
    format_instance,
    resolve,
    sink_component,
)
from nexthop.schedulers import (
    CoordinateScheduler,
    RandomScheduler,
    ReplayScheduler,
    random_fair_permutation,
)


def test_is_stable_tree_examples(nogood, notme2):
    good = is_stable_tree(notme2, [(1, 2), (2, 0)])
    assert good.stable and good.size == 3

    bad = is_stable_tree(nogood, [(1, 0), (2, 0)])
    assert bad.witness_violation == (1, 2)

    bare = is_stable_tree(nogood, [])
    assert bare.stable and bare.size == 1
    assert bare.external_blocking == ((1, 0), (2, 0))


def test_is_stable_tree_rejects_non_trees(nogood):
    with pytest.raises(TreeError):
        is_stable_tree(nogood, [(1, 2), (2, 1)])
    with pytest.raises(TreeError):
        tree_paths(frozenset({(1, 2)}), 0)


def test_tree_paths_two_arcs_and_cycle():
    assert tree_paths(frozenset({(1, 0), (2, 1)}), 0) == {
        0: (0,), 1: (1, 0), 2: (2, 1, 0)
    }
    with pytest.raises(TreeError, match="node 1 has two outgoing arcs"):
        tree_paths(frozenset({(1, 0), (1, 2), (2, 0)}), 0)
    # 4 leads into the cycle 1 -> 2, and 1 is the smallest node without a path
    with pytest.raises(TreeError, match="node 1 has no path to the sink"):
        tree_paths(frozenset({(1, 2), (2, 1), (3, 0), (4, 1)}), 0)
    with pytest.raises(TreeError, match="the sink must have no outgoing arc"):
        tree_paths(frozenset({(0, 1), (1, 0)}), 0)


def _reference_stable_tree_report(net, arcs):
    """The stability scans written out per node: a tail's parent must be
    valid and ranked above every valid tree member; an outside node is
    blocked by its first valid tree member."""
    tree = frozenset(arcs)
    paths = tree_paths(tree, net.sink)
    members = set(paths)
    witness = None
    for u, w in sorted(tree):
        filt = net.filters[u]
        if filt & set(paths[w]):
            witness = (u, w)
            break
        for x in net.prefs[u]:
            if x == w:
                break
            if x in members and not (filt & set(paths[x])):
                witness = (u, x)
                break
        if witness:
            break
    blocked = []
    for v in sorted(set(net.nodes()) - members):
        for x in net.prefs[v]:
            if x in members and not (net.filters[v] & set(paths[x])):
                blocked.append((v, x))
                break
    return StableTreeReport(tree, len(members), witness, tuple(blocked))


def _random_partial_tree(rng, net):
    """Arcs of a random in-arborescence on some of the nodes; a tail now and
    then takes a tree member it does not rank as its parent."""
    attached = [net.sink]
    arcs = set()
    for v in rng.sample(net.non_sink_nodes(), rng.randint(0, net.n - 1)):
        ranked = [w for w in net.prefs[v] if w in attached]
        if ranked and rng.random() < 0.85:
            arcs.add((v, rng.choice(ranked)))
        else:
            arcs.add((v, rng.choice(attached)))
        attached.append(v)
    return arcs


def test_is_stable_tree_matches_reference_scans():
    rng = random.Random(53)
    outcomes = {"off-network": 0, "unstable": 0, "blocked": 0}
    for _ in range(2_000):
        n = rng.randint(2, 8)
        net = random_network(rng, n, min_deg=1, max_deg=4)
        filters = tuple(
            frozenset(rng.sample(range(n), rng.randint(0, min(2, n))))
            for _ in range(n)
        )
        net = Network(net.n, net.sink, net.prefs, filters)
        arcs = _random_partial_tree(rng, net)
        report = is_stable_tree(net, arcs)
        assert report == _reference_stable_tree_report(net, arcs)
        outcomes["off-network"] += any(w not in net.prefs[u] for u, w in arcs)
        outcomes["unstable"] += not report.stable
        outcomes["blocked"] += bool(report.external_blocking)
    assert min(outcomes.values()) >= 200, outcomes


def test_strong_stability_path_example():
    # chain e=5 d=4 c=3 b=2 a=1 r=0; b prefers a over d, e and r
    net = Network.of(
        [[], [0, 3], [1, 4, 5, 0], [2, 5], [3, 1], [4, 2]],
        filters="self",
    )
    tree = RoutingGraph((None, 0, 1, 2, 3, 4))
    assert has_strong_stability(net, tree, {2, 3, 5})
    # flip b's list so the unreachable descendant e outranks the parent
    net2 = Network.of(
        [[], [0, 3], [5, 1, 4, 0], [2, 5], [3, 1], [4, 2]],
        filters="self",
    )
    assert not has_strong_stability(net2, tree, {2, 3, 5})
    assert has_strong_stability(net2, tree, frozenset())


def test_skeleton_examples(notme2):
    tree = RoutingGraph((None, 2, 0))  # u -> w -> r
    assert is_skeleton(tree, 0, frozenset(), frozenset())
    assert not is_skeleton(tree, 0, frozenset({(2, 0)}), frozenset({1, 2}))
    assert is_skeleton(tree, 0, tree.arcs(), frozenset({1, 2}))


def test_enumerate_equilibria_fixtures(tri, nogood, notme2):
    assert enumerate_equilibria(nogood) == []
    pair = enumerate_equilibria(notme2)
    assert {rg.arcs() for rg in pair} == {
        ((1, 2), (2, 0)),
        ((1, 0), (2, 1)),
    }
    only = enumerate_equilibria(tri)
    assert [rg.arcs() for rg in only] == [((1, 0), (2, 1))]


def test_enumeration_budget(tri):
    with pytest.raises(BudgetExceededError):
        enumerate_equilibria(tri, budget=2)


@pytest.mark.parametrize(
    "oracle", [enumerate_equilibria, max_stable_tree, max_stable_tree_dfs]
)
def test_budget_caps_the_choice_function_count(tri, oracle):
    # tri has 3 * 3 choice functions; the budget caps that product, not the
    # number of search nodes a pruned search visits
    assert choice_budget(tri) == 9
    oracle(tri, budget=9)
    with pytest.raises(BudgetExceededError):
        oracle(tri, budget=8)


def _relabel_sink(net: Network, sink: int) -> Network:
    """The same network with nodes 0 and ``sink`` swapped."""
    swap = list(range(net.n))
    swap[0], swap[sink] = sink, 0
    prefs: list = [()] * net.n
    for v in net.nodes():
        prefs[swap[v]] = [swap[w] for w in net.prefs[v]]
    return Network.of(prefs, sink=sink)


def _with_random_filters(rng: random.Random, net: Network) -> Network:
    """``net`` with each filtering list empty, the node itself, or one or two
    arbitrary nodes, the sink included."""
    filters = []
    for v in net.nodes():
        r = rng.random()
        filters.append(
            () if r < 0.3
            else (v,) if r < 0.55
            else rng.sample(range(net.n), rng.randint(1, 2))
        )
    return Network.of(net.prefs, filters, sink=net.sink)


def _mixed_filter_network(rng: random.Random, n: int) -> Network:
    """Out-degree 2; each filtering list empty, the node itself or one other
    node, drawn as the benchmark's oracle workload draws them."""
    base = random_network(rng, n, min_deg=2, max_deg=2)
    filters = []
    for v in range(n):
        r = rng.random()
        filters.append(() if r < 0.4 else (v,) if r < 0.7 else (rng.randrange(n),))
    return Network.of(base.prefs, filters)


def test_enumeration_matches_brute_force_reference():
    # same equilibria in the same order as testing every choice function
    rng = random.Random(53)
    nets = []
    for _ in range(2000):
        n = rng.randint(2, 7)
        net = random_network(rng, n, min_deg=1, max_deg=3 if n <= 4 else 2)
        if rng.random() < 0.3:
            net = _relabel_sink(net, rng.randrange(n))
        nets.append(_with_random_filters(rng, net))
    oracle_rng = random.Random("oracle:1")
    nets += [_mixed_filter_network(oracle_rng, 9) for _ in range(16)]
    found = 0
    for net in nets:
        expected = brute_force_equilibria(net)
        assert enumerate_equilibria(net) == expected, format_instance(net)
        found += len(expected)
    assert found > 1000  # the corpus is not all equilibrium-free


def _cross_check_networks() -> list[Network]:
    """1,200 seeded networks with n = 2-7, out-degree 1-3 at every size and
    random filtering lists; a third have the sink relabelled away from 0."""
    rng = random.Random(19)
    nets = []
    for i in range(1200):
        n = rng.randint(2, 7)
        net = random_network(rng, n, min_deg=1, max_deg=3)
        if i % 3 == 0:
            net = _relabel_sink(net, rng.randrange(1, n))
        nets.append(_with_random_filters(rng, net))
    return nets


def test_max_stable_tree_oracles_match_brute_force():
    # both oracles against the largest sink-component over the reference
    # enumerator's equilibria, 1 when there are none
    for net in _cross_check_networks():
        brute = max(
            (len(sink_component(rg, net)) for rg in brute_force_equilibria(net)),
            default=1,
        )
        dfs = max_stable_tree_dfs(net)
        assert dfs == max_stable_tree(net).size == brute, format_instance(net)


def test_packet_gap_at_every_equilibrium():
    # one round from an equilibrium delivers exactly |clear set| - 1 packets
    found = 0
    for net in _cross_check_networks():
        for rg in enumerate_equilibria(net):
            assert_packet_gap(net, rg)
            found += 1
    assert found > 500


def test_max_stable_tree_fixtures(nogood, notme2):
    assert max_stable_tree(notme2).size == 3
    assert max_stable_tree(nogood).size == 1


def test_union_lemma_randomised():
    rng = random.Random(17)
    done = 0
    while done < 40:
        net = random_network(rng, rng.randint(4, 8))
        tree = random_spanning_tree(rng, net)
        a = random_stable_restriction(rng, net, tree)
        b = random_stable_restriction(rng, net, tree)
        if not a or not b:
            continue
        assert has_strong_stability(net, tree, a | b)
        done += 1


def test_skeleton_lemma_randomised():
    # strong stability survives on the part of the restriction set that the
    # skeleton's tree keeps
    from conftest import skeleton_component

    rng = random.Random(23)
    done = 0
    while done < 40:
        net = random_network(rng, rng.randint(4, 8))
        tree = random_spanning_tree(rng, net)
        restricted = random_stable_restriction(rng, net, tree)
        t_arcs = skeleton_component(rng, net, tree, restricted)
        if not is_skeleton(tree, net.sink, t_arcs, restricted):
            continue
        t_nodes = {u for a in t_arcs for u in a} | {net.sink}
        assert has_strong_stability(net, tree, restricted & t_nodes)
        done += 1


def test_stable_tree_matches_equilibrium_on_spanning():
    rng = random.Random(31)
    for _ in range(60):
        n = rng.randint(3, 7)
        net = random_network(rng, n, min_deg=1)
        # sprinkle random singleton filters to exercise general filtering
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
        assert is_stable_tree(net, rg.arcs()).stable == engine.is_equilibrium(
            state
        )


def test_two_oracle_agreement_small():
    rng = random.Random(41)
    for _ in range(25):
        n = rng.randint(3, 7)
        net = random_network(rng, n, min_deg=1, max_deg=3)
        if rng.random() < 0.5:
            net = Network(
                net.n,
                net.sink,
                net.prefs,
                tuple(
                    frozenset({v}) if rng.random() < 0.7 else frozenset()
                    for v in range(n)
                ),
            )
        assert max_stable_tree(net).size == max_stable_tree_dfs(net)


def test_exhaustive_delivery_matches_forked_branches(nogood):
    # factorised possible-location tracking must agree with literal forking
    rg0 = all_clear_rg(nogood)
    branch_ok = _forked_all_delivered(nogood, rounds=2, rg0=rg0)
    sched = CoordinateScheduler(nogood)
    fact_ok = exhaustive_delivery(nogood, sched, rounds=2, rg0=rg0)
    assert branch_ok == fact_ok is True
    # random starts: even cases run coordination, odd ones a fixed random
    # permutation per round, on empty or self filters
    rng = random.Random(24)
    verdicts = {True: [], False: []}
    for i in range(400):
        coordinated = i % 2 == 0
        filters = None if coordinated else rng.choice([None, "self"])
        n = rng.randint(3, 6)
        net = random_network(rng, n, min_deg=1, max_deg=3, filters=filters)
        rg0 = RoutingGraph(tuple(
            None if v == net.sink else rng.choice(net.prefs[v] + (None,))
            for v in net.nodes()
        ))
        rounds = rng.randint(1, 3)
        if coordinated:
            perms, sched = None, CoordinateScheduler(net)
        else:
            perms = [random_fair_permutation(rng, net) for _ in range(rounds)]
            sched = ReplayScheduler(perms)
        got = exhaustive_delivery(net, sched, rounds, rg0)
        assert got == _forked_all_delivered(net, rounds, rg0, perms), (
            format_instance(net, rg0), perms, rounds
        )
        verdicts[coordinated].append(got)
    for found in verdicts.values():
        assert True in found and False in found


def test_exhaustive_delivery_resolves_once_per_round(nogood, monkeypatch):
    calls = []

    def counted(rg, sink):
        calls.append(rg)
        return resolve(rg, sink)

    monkeypatch.setattr(engine, "resolve", counted)
    monkeypatch.setattr(analysis, "resolve", counted)
    for rounds in (1, 3, 4):
        calls.clear()
        sched = CoordinateScheduler(nogood)
        exhaustive_delivery(nogood, sched, rounds, all_clear_rg(nogood))
        assert len(calls) == 1 + rounds


def walked_exhaustive_delivery(net, scheduler, rounds, rg0=None):
    """Reference: ``exhaustive_delivery`` with every placement walked hop by
    hop instead of read off the round's one ``resolve``."""
    state = EngineState.initial(net, rg0)
    possible = {p.origin: {(p.location, None)} for p in state.packets}
    delivered = set()
    for _ in range(rounds):
        perm = scheduler.permutation(state)
        state = engine.run_round(state, perm)
        scheduler.after_round(state)
        for origin, opts in possible.items():
            if origin in delivered:
                continue
            nxt = set()
            for loc, cycle in opts:
                for spot in cycle if cycle else (loc,):
                    _, end, done, caught = walk(state.rg, spot, net.sink)
                    if not done:
                        nxt.add((end, caught))
            if nxt:
                possible[origin] = nxt
            else:
                delivered.add(origin)
    return len(delivered) == len(possible)


def _relabelled(rng, net):
    """The same network with its node ids shuffled, so the sink moves."""
    label = list(net.nodes())
    rng.shuffle(label)
    prefs, filters = [None] * net.n, [None] * net.n
    for v in net.nodes():
        prefs[label[v]] = [label[w] for w in net.prefs[v]]
        filters[label[v]] = [label[w] for w in net.filters[v]]
    return Network.of(prefs, filters, sink=label[net.sink])


def test_exhaustive_delivery_matches_walked_reference():
    rng = random.Random(10)
    cases = []
    for i in range(300):
        n = rng.randint(3, 8)
        net = random_network(rng, n, min_deg=1, filters=rng.choice([None, "self"]))
        if i % 3 == 0:
            net = _relabelled(rng, net)
        rg0 = None
        if i % 2 == 0:  # a random start, cycles and dead ends included
            rg0 = RoutingGraph(tuple(
                None if v == net.sink else rng.choice(net.prefs[v] + (None,))
                for v in net.nodes()
            ))
        cases.append((net, rg0, rng.randrange(2**31)))
    for pairs in (1, 2, 3, 4):
        net, rg0 = nogood_chain(pairs)
        cases += [(net, rg0, None), (net, all_clear_rg(net), None)]
        cases.append((net, rg0, rng.randrange(2**31)))
    verdicts = []
    for net, rg0, seed in cases:
        # a seed means the random scheduler, None coordination
        def scheduler():
            if seed is None:
                return CoordinateScheduler(net)
            return RandomScheduler(net, seed)

        rounds = rng.randint(1, 4)
        got = exhaustive_delivery(net, scheduler(), rounds, rg0)
        ref = walked_exhaustive_delivery(net, scheduler(), rounds, rg0)
        assert got == ref, (format_instance(net, rg0), seed, rounds)
        verdicts.append(got)
    assert True in verdicts and False in verdicts


def _forked_all_delivered(net, rounds, rg0, perms=None):
    """Literal forking: one branch per joint placement of the captured
    packets on their cycles at the start of every round.  ``perms`` gives
    every round's permutation; without it each round runs coordination."""
    frontier = [EngineState.initial(net, rg0)]
    for r in range(rounds):
        nxt = []
        for state in frontier:
            # coordination's permutation only depends on the clear set, so
            # each branch can rebuild it from its own state
            perm = perms[r] if perms else _perm_for(net, state)
            options = [
                [dataclasses.replace(p, location=dest) for dest in p.last_cycle]
                if p.last_cycle and not p.delivered
                else [p]
                for p in state.packets
            ]
            for combo in itertools.product(*options):
                placed = dataclasses.replace(state, packets=combo)
                nxt.append(engine.run_round(placed, perm))
        frontier = nxt
    return all(state.all_delivered for state in frontier)


def _perm_for(net, state):
    from nexthop.model import first_class_decomposition
    from nexthop.schedulers import coordinate, coordinate_sequence

    fcd = first_class_decomposition(net)
    part = coordinate(net, fcd, state.clear_set)
    return coordinate_sequence(part, fcd, net, state.clear_set)
