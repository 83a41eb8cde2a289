from __future__ import annotations

import random
import re
from dataclasses import replace

import pytest

from conftest import actual_path, imperfect_union, nogood_chain
from nexthop.generators import random_network
from nexthop.model import (
    DuplicatePreferenceError,
    FirstClassDecomposition,
    FormatError,
    InstanceError,
    Network,
    RoutingGraph,
    SelfPreferenceError,
    SinkOutArcError,
    TreeError,
    UnreachableNodeError,
    arc_nodes,
    first_class_decomposition,
    format_instance,
    out_plus,
    parse_instance,
    q_subtree,
    resolve,
    validate_network,
    validate_spanning_tree,
)


def test_validate_fixture_ok(tri):
    validate_network(tri)


@pytest.mark.parametrize(
    "prefs, filters, sink, error, message",
    [
        ([[], [0]], None, 5, InstanceError, "sink 5 out of range"),
        ([[], [0]], [()], 0, InstanceError, "length does not match"),
        ([[1], [0]], None, 0, SinkOutArcError, "no outgoing arc"),
        ([[], [1]], None, 0, SelfPreferenceError, "node 1 ranks itself"),
        ([[], [0, 7]], None, 0, InstanceError, "ranks unknown node 7"),
        ([[], [0], [1, 1]], None, 0, DuplicatePreferenceError, "ranks 1 twice"),
        ([[], [0], [1, 0]], [(), (99,), ()], 0, InstanceError, "filters unknown"),
        ([[], [0], [3], [2]], None, 0, UnreachableNodeError, "cannot reach"),
        ([[], ["0"]], None, 0, InstanceError, "ranks unknown node '0'"),
        ([[], [0.0]], None, 0, InstanceError, "ranks unknown node 0.0"),
        ([[], [0]], [(), ("1",)], 0, InstanceError, "filters unknown node '1'"),
        ([[], [0]], None, "0", InstanceError, "sink '0' out of range"),
        ([[], [0], [0], [0]], "slef", 0, InstanceError, "not 'slef'"),
    ],
    ids=[
        "sink-out-of-range",
        "length-mismatch",
        "sink-out-arc",
        "self-preference",
        "unknown-preference",
        "duplicate-preference",
        "unknown-filter",
        "unreachable",
        "str-preference",
        "float-preference",
        "str-filter",
        "str-sink",
        "unknown-filters-string",
    ],
)
def test_network_rejects_invalid(tri, prefs, filters, sink, error, message):
    # every way of building a network raises its first violation's class
    filt = [() for _ in prefs] if filters is None else filters
    raw = dict(
        n=len(prefs),
        sink=sink,
        prefs=tuple(tuple(p) for p in prefs),
        filters=tuple(frozenset(f) for f in filt),
    )
    builders = [lambda: Network.of(prefs, filters, sink)]
    if isinstance(filters, str):  # only these two read a filters string
        rng = random.Random(0)
        builders.append(lambda: random_network(rng, len(prefs), filters=filters))
    else:
        builders += [lambda: Network(**raw), lambda: replace(tri, **raw)]
    for build in builders:
        with pytest.raises(InstanceError, match=message) as info:
            build()
        assert type(info.value) is error


def test_validate_duplicate_preference():
    with pytest.raises(DuplicatePreferenceError):
        Network.of([[], [0], [1, 1]])


def test_validate_unreachable():
    with pytest.raises(UnreachableNodeError):
        Network.of([[], []])


def test_validate_sink_arc():
    with pytest.raises(SinkOutArcError):
        Network.of([[1], [0]])


def test_first_class_tri(tri):
    fcd = first_class_decomposition(tri)
    assert fcd.components == (frozenset({0, 1, 2}),)
    assert fcd.cycles == ((0,),)


def test_first_class_nogood(nogood):
    fcd = first_class_decomposition(nogood)
    assert fcd.components == (frozenset({0}), frozenset({1, 2}))
    assert fcd.cycles[1] == (1, 2)
    assert fcd.component_of == (0, 1, 1)


def test_first_class_star():
    net = Network.of([[], [0, 2], [0, 3], [0, 1]])
    fcd = first_class_decomposition(net)
    assert len(fcd.components) == 1
    assert fcd.cycles == ((0,),)


def test_first_class_partitions_nodes():
    net = Network.of([[], [2, 0], [1, 0], [4, 0], [3, 2], [3, 0]])
    fcd = first_class_decomposition(net)
    union = frozenset().union(*fcd.components)
    assert union == frozenset(net.nodes())
    total = sum(len(c) for c in fcd.components)
    assert total == net.n
    for j, cyc in enumerate(fcd.cycles):
        if j == 0:
            continue
        assert set(cyc) <= fcd.components[j]
        for v in cyc:
            assert net.first_choice(v) in cyc


def test_actual_path_walks(tri):
    rg = RoutingGraph.from_arcs(3, [(1, 0), (2, 1)])
    assert actual_path(rg, 2, 0) == (2, 1, 0)
    assert actual_path(rg, 0, 0) == (0,)
    cyc = RoutingGraph.from_arcs(3, [(1, 2), (2, 1)])
    assert actual_path(cyc, 1, 0) == ()
    assert resolve(rg, 0) == (((0,), (1, 0), (2, 1, 0)), (None, None, None))
    assert resolve(cyc, 0) == (((0,), (), ()), (None, (1, 2), (1, 2)))


def test_resolve_tree_dead_ends_and_cycles():
    # 1, 2 reach the sink; 4 dies at 3; 8 leads into the cycle 5 -> 6 -> 7
    rg = RoutingGraph((None, 0, 1, None, 3, 6, 7, 5, 6))
    paths, cycle_of = resolve(rg, 0)
    assert paths == ((0,), (1, 0), (2, 1, 0), (), (), (), (), (), ())
    assert cycle_of == (None,) * 5 + ((5, 6, 7),) * 4


def _union_find_decomposition(net: Network) -> FirstClassDecomposition:
    """The former first-class decomposition: its own cycle search over the
    first-choice graph plus a union-find for the weak components."""
    n = net.n
    nxt = [net.first_choice(v) for v in net.nodes()]
    on_cycle = {}
    state = [0] * n  # 0 unvisited, 1 in progress, 2 done
    for start in range(n):
        if state[start]:
            continue
        trail = []
        pos = {}
        cur = start
        while cur is not None and state[cur] == 0:
            state[cur] = 1
            pos[cur] = len(trail)
            trail.append(cur)
            cur = nxt[cur]
        if cur is not None and state[cur] == 1:
            cyc = tuple(trail[pos[cur]:])
            lead = cyc.index(min(cyc))
            cyc = cyc[lead:] + cyc[:lead]
            for u in cyc:
                on_cycle[u] = cyc
        for u in trail:
            state[u] = 2

    comp_of = list(range(n))

    def find(a):
        while comp_of[a] != a:
            comp_of[a] = comp_of[comp_of[a]]
            a = comp_of[a]
        return a

    for v in range(n):
        w = nxt[v]
        if w is not None:
            ra, rb = find(v), find(w)
            if ra != rb:
                comp_of[max(ra, rb)] = min(ra, rb)

    roots = sorted({find(v) for v in range(n)})
    sink_root = find(net.sink)
    order = [sink_root] + [rt for rt in roots if rt != sink_root]
    index_of = {rt: i for i, rt in enumerate(order)}
    component_of = tuple(index_of[find(v)] for v in range(n))
    members = [set() for _ in order]
    for v in range(n):
        members[component_of[v]].add(v)
    cycles = [(net.sink,)] + [
        next(on_cycle[v] for v in sorted(comp) if v in on_cycle)
        for comp in members[1:]
    ]
    return FirstClassDecomposition(
        component_of=component_of,
        components=tuple(frozenset(m) for m in members),
        cycles=tuple(cycles),
    )


def test_first_class_matches_union_find():
    nets = []
    rng = random.Random(7)
    for _ in range(150):
        n = rng.randint(2, 30)
        nets.append(random_network(rng, n, min_deg=1, max_deg=rng.randint(1, 4)))
    for net in nets[:50]:
        # the same graph with shuffled ids, so the sink is rarely node 0
        label = rng.sample(range(net.n), net.n)
        prefs = [()] * net.n
        for v in net.nodes():
            prefs[label[v]] = [label[w] for w in net.prefs[v]]
        nets.append(Network.of(prefs, sink=label[net.sink]))
    nets += [nogood_chain(pairs)[0] for pairs in range(1, 8)]
    nets += [imperfect_union(c, seed)[0] for c in (1, 3, 6) for seed in (None, 1, 2)]
    cycled = 0
    for net in nets:
        fcd = first_class_decomposition(net)
        old = _union_find_decomposition(net)
        assert fcd.component_of == old.component_of
        assert fcd.components == old.components
        assert fcd.cycles == old.cycles
        cycled += len(fcd.cycles) > 1
    assert cycled > 20  # many inputs have first-choice cycles


def test_out_plus_and_arc_nodes():
    arcs = [(1, 0), (2, 1)]
    assert out_plus(arcs, {2}) == frozenset({(2, 1)})
    assert out_plus(arcs, {1, 2}) == frozenset(arcs)
    assert out_plus([], {0, 1, 2}) == frozenset()
    assert arc_nodes(arcs, 0) == frozenset({0, 1, 2})


def path_tree() -> RoutingGraph:
    # e=5 -> d=4 -> c=3 -> b=2 -> a=1 -> r=0
    return RoutingGraph((None, 0, 1, 2, 3, 4))


def test_q_subtree_cuts_at_gaps():
    tree = path_tree()
    assert q_subtree(tree, {2, 3, 5}, 2) == frozenset({2, 3})
    assert q_subtree(tree, {2}, 2) == frozenset({2})
    assert q_subtree(tree, range(6), 0) == frozenset(range(6))


def test_validate_spanning_tree_errors():
    # r=0; 1 ranks [r, 2]; 2 ranks [1, 3]; 3 ranks [2, r]
    net = Network.of([[], [0, 2], [1, 3], [2, 0]])
    validate_spanning_tree(net, RoutingGraph((None, 0, 1, 2)))
    cases = [
        ((None, 0, 3, 2), "node 2 does not reach the sink"),  # cycle 2 <-> 3
        ((None, 2, None, 2), "non-sink node 2 has no parent"),
        ((None, 0, 0, 2), "tree arc (2,0) is not a network arc"),
        ((1, 0, 1, 2), "sink must have no parent"),
    ]
    for parent, message in cases:
        with pytest.raises(TreeError, match=f"^{re.escape(message)}$"):
            validate_spanning_tree(net, RoutingGraph(parent))


def test_q_subtree_requires_membership():
    with pytest.raises(ValueError):
        q_subtree(path_tree(), {2, 3}, 4)


def test_instance_round_trip(notme2):
    text = format_instance(notme2)
    net, rg0 = parse_instance(text)
    assert net == notme2
    assert rg0 is None
    assert format_instance(net) == text


def test_instance_rg0_round_trip(nogood):
    rg0 = RoutingGraph.from_arcs(3, [(1, 0), (2, 0)])
    text = format_instance(nogood, rg0)
    net, parsed = parse_instance(text)
    assert net == nogood
    assert parsed == rg0
    assert format_instance(net, parsed) == text


def test_instance_comments_and_defaults():
    text = "# header\nnodes 3\nsink 0\nprefs 1: 2 0\nprefs 2: 1 0  # trailing\n"
    net, rg0 = parse_instance(text)
    assert net.prefs[1] == (2, 0)
    assert net.filters == (frozenset(),) * 3
    assert rg0 is None


HEAD = "nodes 3\nsink 0\nprefs 1: 0\nprefs 2: 1 0\n"


@pytest.mark.parametrize(
    "text",
    [
        "nodes 2\nsink 0\nprefs 1: 0\nrg0 5: 0\n",
        HEAD + "prefs 7: 0\n",
        HEAD + "filter 3: 1\n",
        HEAD + "rg0 -1:\n",
    ],
    ids=["rg0", "prefs", "filter", "negative"],
)
def test_parse_rejects_out_of_range_directive(text):
    with pytest.raises(FormatError):
        parse_instance(text)


@pytest.mark.parametrize(
    "extra",
    [
        "prefs 1: 0\n",
        "filter 2: 2\nfilter 2: 1\n",
        "rg0 1: 0\nrg0 1:\n",
        "nodes 3\n",
        "sink 0\n",
    ],
    ids=["prefs", "filter", "rg0", "nodes", "sink"],
)
def test_parse_rejects_repeated_directive(extra):
    with pytest.raises(FormatError):
        parse_instance(HEAD + extra)


def test_validate_filter_range():
    with pytest.raises(InstanceError):
        parse_instance(HEAD + "filter 1: 99\n")
