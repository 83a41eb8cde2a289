"""Property-based checks of the structural invariants."""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import actual_path, random_spanning_tree, walk
from nexthop.engine import EngineState, PacketState, forward_packets, run_round
from nexthop.generators import random_network
from nexthop.model import (
    InstanceError,
    Network,
    RoutingGraph,
    first_class_decomposition,
    format_instance,
    out_plus,
    parse_instance,
    q_subtree,
    resolve,
)
from nexthop.schedulers import random_fair_permutation


@st.composite
def networks(draw, max_n=9, filters=None):
    seed = draw(st.integers(0, 10_000))
    n = draw(st.integers(3, max_n))
    return random_network(random.Random(seed), n, min_deg=1, filters=filters)


@given(networks())
def test_first_class_components_partition(net):
    fcd = first_class_decomposition(net)
    assert sum(len(c) for c in fcd.components) == net.n
    assert frozenset().union(*fcd.components) == frozenset(net.nodes())
    for j in range(1, len(fcd.components)):
        cyc = fcd.cycles[j]
        assert len(cyc) >= 2
        for v in cyc:
            assert net.first_choice(v) in cyc
            assert fcd.component_of[v] == j


@given(networks(), st.integers(0, 10_000))
def test_actual_path_prefix_and_arcs(net, seed):
    rng = random.Random(seed)
    rg = random_spanning_tree(rng, net)
    for v in net.nodes():
        path = actual_path(rg, v, net.sink)
        assert path and path[0] == v
        for a, b in zip(path, path[1:]):
            assert rg.next_hop[a] == b


@st.composite
def routing_graphs(draw, max_n=12):
    """Any functional graph on up to max_n nodes: nodes with no next hop,
    cycles, and components that never reach the sink all occur."""
    n = draw(st.integers(1, max_n))
    sink = draw(st.integers(0, n - 1))
    hops = draw(st.lists(st.integers(-1, n - 1), min_size=n, max_size=n))
    nxt = tuple(
        None if v == sink or w < 0 or w == v else w for v, w in enumerate(hops)
    )
    return RoutingGraph(nxt), sink


@given(routing_graphs())
def test_resolve_matches_reference_walks(case):
    rg, sink = case
    paths, cycle_of = resolve(rg, sink)
    for v in range(len(rg.next_hop)):
        assert paths[v] == actual_path(rg, v, sink)
        # the packet walk finds the capturing cycle on its own
        assert cycle_of[v] == walk(rg, v, sink)[3]


@st.composite
def forwarding_cases(draw, max_n=12):
    """An engine state on any functional graph with up to max_n nodes and
    any sink.  Over random arcs (dead ends included) a lasso is laid: a
    lead-in of any length into a cycle of any length, so packets start on
    cycles, at every distance before them, and at n - lead both divisible
    and not by the cycle length.  Each packet sits at any non-sink node, and
    some are delivered already.  A live packet may carry a capture and a hop
    count left from an earlier round, which a packet parked at a node with
    no next hop must drop."""
    n = draw(st.integers(2, max_n))
    sink = draw(st.integers(0, n - 1))
    others = draw(st.permutations([v for v in range(n) if v != sink]))
    hops = draw(st.lists(st.integers(-1, n - 1), min_size=n, max_size=n))
    nxt = [None if v == sink or w < 0 or w == v else w for v, w in enumerate(hops)]
    size = draw(st.integers(0, len(others)))
    if size >= 2:
        lasso = others[:size]
        for u, w in zip(lasso, lasso[1:]):
            nxt[u] = w
        nxt[lasso[-1]] = lasso[draw(st.integers(0, size - 2))]
    t = draw(st.integers(0, 3))
    stale = st.lists(st.sampled_from(others), min_size=1, max_size=3)
    packets = []
    for v in others:
        if draw(st.integers(0, 4)) == 0:
            packets.append(PacketState(v, None, draw(st.integers(1, t + 1))))
        else:
            packets.append(
                PacketState(
                    v,
                    draw(st.sampled_from(others)),
                    None,
                    draw(st.none() | stale.map(tuple)),
                    draw(st.integers(0, n)),
                )
            )
    rg = RoutingGraph(tuple(nxt))
    # the sink as every node's fallback keeps the network valid; forwarding
    # reads only rg, n and the sink
    prefs = [[] for _ in range(n)]
    for v in others:
        prefs[v] = [sink] if nxt[v] in (None, sink) else [nxt[v], sink]
    net = Network.of(prefs, sink=sink)
    return EngineState(net, t, rg, resolve(rg, sink)[0], tuple(packets), ())


def walked_forwarding(state):
    """Reference forwarding phase: every packet walks hop by hop."""
    t = state.round + 1
    lines, packets = [], []
    for pkt in state.packets:
        if pkt.delivered:
            packets.append(pkt)
            continue
        hops, end, delivered, cycle = walk(state.rg, pkt.location, state.net.sink)
        lines += [f"round {t} | forward pkt={pkt.origin} {u}->{w}" for u, w in hops]
        if delivered:
            lines.append(f"round {t} | delivered pkt={pkt.origin}")
        packets.append(
            PacketState(
                pkt.origin,
                None if delivered else end,
                t if delivered else None,
                cycle,
                len(hops),
            )
        )
    return tuple(lines), tuple(packets)


@settings(max_examples=300)
@given(forwarding_cases())
def test_forwarding_matches_hop_by_hop_walk(state):
    out = forward_packets(state)
    lines, packets = walked_forwarding(state)
    assert out.trace == lines
    # location, delivered_round, last_cycle and last_hops of every packet
    assert out.packets == packets


@given(networks(), st.integers(0, 10_000))
def test_out_plus_subset_and_identity(net, seed):
    rng = random.Random(seed)
    tree = random_spanning_tree(rng, net)
    arcs = frozenset(tree.arcs())
    sub = frozenset(rng.sample(list(net.nodes()), rng.randint(0, net.n)))
    assert out_plus(arcs, sub) <= arcs
    assert out_plus(arcs, net.nodes()) == arcs


@given(networks(), st.integers(0, 10_000))
def test_q_subtree_monotone(net, seed):
    rng = random.Random(seed)
    tree = random_spanning_tree(rng, net)
    v = rng.choice(list(net.nodes()))
    small = set(rng.sample(list(net.nodes()), rng.randint(0, net.n - 1)))
    small.add(v)
    big = small | set(rng.sample(list(net.nodes()), rng.randint(0, net.n)))
    assert q_subtree(tree, small, v) <= q_subtree(tree, big, v)

    def walk_stays_to_v(x):
        path = actual_path(tree, x, net.sink)
        return v in path and set(path[: path.index(v) + 1]) <= small

    assert q_subtree(tree, small, v) == {x for x in small if walk_stays_to_v(x)}


@given(networks(filters="self"), st.integers(0, 10_000))
def test_instance_round_trip_random(net, seed):
    rng = random.Random(seed)
    rg0 = None
    if rng.random() < 0.5:
        rg0 = random_spanning_tree(rng, net)
    text = format_instance(net, rg0)
    net2, rg2 = parse_instance(text)
    assert net2 == net
    if rg0 is not None and rg0 != RoutingGraph.first_choice(net):
        assert rg2 == rg0
    else:
        assert rg2 is None  # the default start is never spelled out
    assert format_instance(net2, rg2) == text


@given(
    networks(), st.integers(0, 10_000), st.sampled_from(["full", "partial", "empty"])
)
def test_instance_round_trip_any_rg0(net, seed, kind):
    rng = random.Random(seed)
    nxt = [None] * net.n
    if kind != "empty":
        for v in net.non_sink_nodes():
            if kind == "full" or rng.random() < 0.5:
                nxt[v] = rng.choice(net.prefs[v])
    rg0 = RoutingGraph(tuple(nxt))
    net2, rg2 = parse_instance(format_instance(net, rg0))
    assert net2 == net
    # the first-choice start is the default and is never spelled out
    assert (rg2 if rg2 is not None else RoutingGraph.first_choice(net)) == rg0


@st.composite
def instance_texts(draw):
    """A valid instance's text with a few lines dropped and a few random
    directives inserted.  Node ids range over [-2, n + 2]; every ``nodes``
    value stays at most 8, since the loader allocates per node."""
    net = draw(networks(max_n=8))
    ids = st.integers(-2, net.n + 2)
    id_list = st.lists(ids, max_size=4).map(lambda xs: " ".join(map(str, xs)))
    directive = st.one_of(
        st.integers(-2, 8).map(lambda v: f"nodes {v}"),
        ids.map(lambda v: f"sink {v}"),
        st.tuples(st.sampled_from(["prefs", "filter", "rg0"]), ids, id_list).map(
            lambda t: f"{t[0]} {t[1]}: {t[2]}"
        ),
        st.sampled_from(["nodes", "sink x", "prefs 1", "rg0 x: 0", "route 1: 0"]),
    )
    lines = format_instance(net).splitlines()
    dropped = draw(st.sets(st.integers(0, len(lines) - 1), max_size=2))
    for i in sorted(dropped, reverse=True):
        del lines[i]
    for line in draw(st.lists(directive, max_size=3)):
        lines.insert(draw(st.integers(0, len(lines))), line)
    return "\n".join(lines) + "\n"


@given(instance_texts())
def test_parse_instance_raises_only_instance_error(text):
    try:
        parse_instance(text)
    except InstanceError:
        pass


@st.composite
def any_lists(draw, max_n=5):
    """A sink and per-node preference and filter lists over ids in [-1, n]:
    self-ranks, duplicates, out-of-range ids and unreachable nodes all
    occur.  The sink's list is emptied and the filters left out half the
    time each, so that some draws are valid networks."""
    n = draw(st.integers(0, max_n))
    ids = st.lists(st.integers(-1, n), max_size=3)
    sink = draw(st.integers(-1, n))
    prefs = draw(st.lists(ids, min_size=n, max_size=n))
    if 0 <= sink < n and draw(st.booleans()):
        prefs[sink] = []
    filters = draw(st.none() | st.lists(ids, min_size=n, max_size=n))
    return prefs, filters, sink


@settings(max_examples=300)
@given(any_lists())
def test_network_of_rejects_or_round_trips(lists):
    try:
        net = Network.of(*lists)
    except InstanceError:
        return
    assert parse_instance(format_instance(net))[0] == net


@settings(max_examples=40)
@given(networks(max_n=7), st.integers(0, 10_000), st.integers(1, 4))
def test_round_preserves_packets_and_consistency(net, seed, rounds):
    rng = random.Random(seed)
    state = EngineState.initial(net)
    for _ in range(rounds):
        state = run_round(state, random_fair_permutation(rng, net))
    assert len(state.packets) == net.n - 1
    for v in net.nodes():
        assert state.paths[v] == actual_path(state.rg, v, net.sink)
    for pkt in state.packets:
        assert pkt.delivered == (pkt.location is None)
