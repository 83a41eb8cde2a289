from __future__ import annotations

import itertools
import random

import pytest

from nexthop import engine
from nexthop.analysis import has_strong_stability
from nexthop.model import Network, Path, RoutingGraph, SpanningTree, resolve


@pytest.fixture
def tri() -> Network:
    # r=0; a=1 prefs [r, b]; b=2 prefs [a, r]; no filters
    return Network.of([[], [0, 2], [1, 0]])


@pytest.fixture
def nogood() -> Network:
    # r=0; u=1 prefs [w, r]; w=2 prefs [u, r]; no filters
    return Network.of([[], [2, 0], [1, 0]])


@pytest.fixture
def notme2() -> Network:
    # NOGOOD shape with self filters
    return Network.of([[], [2, 0], [1, 0]], filters="self")


def actual_path(rg: RoutingGraph, v: int, sink: int) -> Path:
    """Reference walk: follow next hops from v; the v,sink-path if the walk
    gets there, the empty path when it enters a cycle or dies at a node with
    no choice.  The library's ``resolve`` is compared against it."""
    path = [v]
    seen = {v}
    cur = v
    while cur != sink:
        nxt = rg.next_hop[cur]
        if nxt is None or nxt in seen:
            return ()
        path.append(nxt)
        seen.add(nxt)
        cur = nxt
    return tuple(path)


def walk(rg: RoutingGraph, start: int, sink: int):
    """Reference packet walk, hop by hop: at most n hops, stopping at the
    sink or at a node with no next hop.  The engine's forwarding by cycle
    arithmetic is compared against it.

    Returns (hops, end, delivered, cycle).  ``cycle`` is the cycle the packet
    is captured in, canonically rotated (smallest id first), when it spent
    all n hops without delivery; otherwise None.  Such a walk visits n + 1
    non-sink nodes, so it goes round its cycle at least once, and the cycle
    is the stretch between the end node's first two visits.
    """
    next_hop = rg.next_hop
    seq = [start]
    while len(seq) <= len(next_hop) and seq[-1] != sink:
        nxt = next_hop[seq[-1]]
        if nxt is None:
            break
        seq.append(nxt)
    end = seq[-1]
    hops = list(zip(seq, seq[1:]))
    cycle = None
    if len(hops) == len(next_hop) and end != sink:
        first = seq.index(end)
        loop = seq[first : seq.index(end, first + 1)]
        lead = loop.index(min(loop))
        cycle = tuple(loop[lead:] + loop[:lead])
    return hops, end, end == sink, cycle


def brute_force_equilibria(net: Network) -> list[RoutingGraph]:
    """Reference enumerator: tests every one of the product of (deg + 1)
    choice functions in lexicographic order, keeping those on which every
    node sits on its best valid choice.  ``enumerate_equilibria`` must
    return the same list in the same order."""
    nodes = net.non_sink_nodes()
    options = [list(net.prefs[v]) + [None] for v in nodes]
    found = []
    for combo in itertools.product(*options):
        nxt: list = [None] * net.n
        for v, w in zip(nodes, combo):
            nxt[v] = w
        rg = RoutingGraph(tuple(nxt))
        paths, _ = resolve(rg, net.sink)
        if all(nxt[v] == engine.best_valid(net, paths, v) for v in nodes):
            found.append(rg)
    return found


def all_clear_rg(net: Network) -> RoutingGraph:
    """Initial graph in which every node points straight at the sink when it
    can; used by tests that want an everyone-clear starting state."""
    nxt = [None] * net.n
    for v in net.non_sink_nodes():
        nxt[v] = net.sink if net.sink in net.prefs[v] else None
    return RoutingGraph(tuple(nxt))


def random_spanning_tree(rng: random.Random, net: Network) -> SpanningTree:
    """Uniform-ish spanning in-arborescence built by random attachment."""
    attached = {net.sink}
    parent = [None] * net.n
    while len(attached) < net.n:
        options = [
            (v, w)
            for v in net.nodes()
            if v not in attached
            for w in net.prefs[v]
            if w in attached
        ]
        v, w = rng.choice(options)
        parent[v] = w
        attached.add(v)
    return SpanningTree(net.sink, tuple(parent))


def random_stable_restriction(
    rng: random.Random, net: Network, tree: SpanningTree, tries: int = 40
) -> frozenset[int]:
    """Random node set on which the tree is strongly stable (rejection)."""
    nodes = list(net.non_sink_nodes())
    for _ in range(tries):
        k = rng.randint(0, len(nodes))
        cand = frozenset(rng.sample(nodes, k))
        if has_strong_stability(net, tree, cand):
            return cand
    return frozenset()


def skeleton_component(
    rng: random.Random,
    net: Network,
    tree: SpanningTree,
    restricted: frozenset[int],
) -> frozenset[tuple[int, int]]:
    """Random in-arborescence T such that ``tree`` is a skeleton of T.

    Drops whole tree subtrees rooted at nodes that are either outside the
    restriction set or roots of maximal restricted subtrees, then rewires
    the surviving unrestricted nodes to random attached neighbours.  The
    surviving restricted nodes keep their tree arcs, which is exactly what
    the skeleton property needs.
    """
    eligible = [
        v
        for v in net.non_sink_nodes()
        if v not in restricted or tree.parent[v] not in restricted
    ]
    dropped: set[int] = set()
    kids = tree.children()
    for v in eligible:
        if v in dropped or rng.random() > 0.3:
            continue
        stack = [v]
        while stack:
            u = stack.pop()
            dropped.add(u)
            stack.extend(kids[u])
    kept = [v for v in net.nodes() if v not in dropped]
    depth = tree.depths()

    parent: dict[int, int] = {}
    attached = {net.sink}
    pending = set(kept) - attached
    while pending:
        attachable = []
        for v in sorted(pending):
            if v in restricted:
                if tree.parent[v] in attached:
                    attachable.append((v, [tree.parent[v]]))
            else:
                options = sorted(
                    {w for w in net.prefs[v] if w in attached}
                    | ({tree.parent[v]} if tree.parent[v] in attached else set())
                )
                if options:
                    attachable.append((v, options))
        if attachable:
            v, options = rng.choice(attachable)
            w = rng.choice(options)
        else:
            # the shallowest pending node's tree parent is always attached
            v = min(pending, key=lambda u: (depth[u], u))
            w = tree.parent[v]
        parent[v] = w
        attached.add(v)
        pending.discard(v)
    return frozenset(parent.items())


def nogood_chain(pairs: int) -> tuple[Network, RoutingGraph]:
    """Chained NOGOOD pairs, every node starting on its second choice.

    Pair i is (u, w); each prefers the other first, then the pair below
    (the sink for i = 0): both of its nodes for even i, one for odd i.
    """
    n = 1 + 2 * pairs
    prefs: list[list[int]] = [[] for _ in range(n)]
    for i in range(pairs):
        u, w = 1 + 2 * i, 2 + 2 * i
        below = [0] if i == 0 else [u - 2, u - 1] if i % 2 == 0 else [u - 1]
        prefs[u] = [w] + below
        prefs[w] = [u] + below[::-1]
    return Network.of(prefs), RoutingGraph(tuple([None] + [p[1] for p in prefs[1:]]))


# the acceptance suite's clear start whose first round traps packets
IMPERFECT_PREFS = ((), (0,), (4, 0), (2, 1), (3,))
IMPERFECT_RG0 = (None, 0, 0, 1, 3)


def imperfect_union(
    copies: int, seed: int | None = None
) -> tuple[Network, RoutingGraph]:
    """Disjoint copies of the imperfect-round shape sharing the sink.

    With a seed the non-sink ids are shuffled, so that fair-stabilise's
    forests have many leaves whose order is set by id alone.
    """
    label = list(range(1 + 4 * copies))
    if seed is not None:
        label[1:] = random.Random(seed).sample(label[1:], 4 * copies)
    prefs: list[tuple[int, ...]] = [()] * len(label)
    nxt: list[int | None] = [None] * len(label)
    for c in range(copies):
        def node(x: int) -> int:
            return 0 if x == 0 else label[4 * c + x]

        for x in range(1, 5):
            prefs[node(x)] = tuple(node(y) for y in IMPERFECT_PREFS[x])
            nxt[node(x)] = node(IMPERFECT_RG0[x])
    return Network.of(prefs, filters="self"), RoutingGraph(tuple(nxt))
