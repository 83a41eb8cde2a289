"""Static problem instances and pure graph structure.

A network is a directed graph on dense integer node ids with a distinguished
sink, a strict per-node ranking of out-neighbours (position 0 is the most
preferred next hop), and a per-node filtering list: a set of nodes whose
presence anywhere on an offered path makes that path unacceptable.

Everything here is an immutable value, and a :class:`Network` is valid by
construction.  The dynamic protocol lives in :mod:`nexthop.engine`; this
module owns validation, the first-choice decomposition, the spanning-tree
check and the subtree and arc operators that the schedulers and checkers
share.  A spanning tree is a :class:`RoutingGraph` in which every walk
reaches the sink; :func:`validate_spanning_tree` checks that.
:func:`resolve` is the one walk of a routing graph: every node's true path,
the sink component, route verification, the equilibrium test, tree paths,
the spanning-tree check, fair-stabilise's BFS order and the first-choice
cycles all read it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

Node = int
Arc = tuple[Node, Node]
Path = tuple[Node, ...]  # empty tuple == no believed path (opaque owner)


class InstanceError(ValueError):
    """A network or instance file violates a model invariant."""


class SinkOutArcError(InstanceError):
    """The sink has a non-empty preference list."""


class UnreachableNodeError(InstanceError):
    """Some node has no directed path to the sink in the all-choice graph."""


class DuplicatePreferenceError(InstanceError):
    """A preference list mentions the same neighbour twice."""


class SelfPreferenceError(InstanceError):
    """A preference list mentions the node itself."""


class FormatError(InstanceError):
    """Malformed instance text."""


class TreeError(ValueError):
    """A claimed spanning tree, or tree arc set, is not an in-arborescence
    reaching the sink."""


@dataclass(frozen=True)
class Network:
    """A routing instance: node count, sink, rankings and filtering lists.

    ``prefs[v]`` lists v's out-neighbours in strictly decreasing preference;
    ``prefs[v][k-1]`` is v's k-th choice.  ``filters[v]`` is the set of nodes
    v never wants its packets to route through.  Building an invalid one,
    directly, through :meth:`of` or with ``dataclasses.replace``, raises
    the :class:`InstanceError` subclass of its first violated invariant.
    """

    n: int
    sink: Node
    prefs: tuple[tuple[Node, ...], ...]
    filters: tuple[frozenset[Node], ...]

    def __post_init__(self) -> None:
        validate_network(self)

    @staticmethod
    def of(
        prefs: Sequence[Sequence[Node]],
        filters: Sequence[Iterable[Node]] | str | None = None,
        sink: Node = 0,
    ) -> "Network":
        """Build a network from per-node preference lists.

        ``filters`` may be a per-node sequence of iterables, the string
        ``"self"`` (every node filters itself), or None (all empty); any
        other string raises :class:`InstanceError`.
        """
        n = len(prefs)
        if filters is None:
            filt = tuple(frozenset() for _ in range(n))
        elif filters == "self":
            filt = tuple(frozenset({v}) for v in range(n))
        elif isinstance(filters, str):
            raise InstanceError(f"filters must be 'self' or per-node, not {filters!r}")
        else:
            filt = tuple(frozenset(f) for f in filters)
        return Network(
            n=n,
            sink=sink,
            prefs=tuple(tuple(p) for p in prefs),
            filters=filt,
        )

    def nodes(self) -> range:
        return range(self.n)

    def non_sink_nodes(self) -> tuple[Node, ...]:
        return tuple(v for v in range(self.n) if v != self.sink)

    def rank(self, v: Node, w: Node) -> int:
        """1-based preference rank of the arc (v, w)."""
        return self.prefs[v].index(w) + 1

    def first_choice(self, v: Node) -> Optional[Node]:
        p = self.prefs[v]
        return p[0] if p else None


def validate_network(net: Network) -> None:
    """Raise a distinct :class:`InstanceError` per violated invariant.  A
    node id must be an ``int`` in range."""
    if type(net.sink) is not int or not 0 <= net.sink < net.n:
        raise InstanceError(f"sink {net.sink!r} out of range for n={net.n}")
    if len(net.prefs) != net.n or len(net.filters) != net.n:
        raise InstanceError("prefs/filters length does not match node count")
    if net.prefs[net.sink]:
        raise SinkOutArcError(f"sink {net.sink} must have no outgoing arc")
    for v in net.nodes():
        seen: set[Node] = set()
        for w in net.prefs[v]:
            if w == v:
                raise SelfPreferenceError(f"node {v} ranks itself")
            if type(w) is not int or not 0 <= w < net.n:
                raise InstanceError(f"node {v} ranks unknown node {w!r}")
            if w in seen:
                raise DuplicatePreferenceError(f"node {v} ranks {w} twice")
            seen.add(w)
        for d in net.filters[v]:
            if type(d) is not int or not 0 <= d < net.n:
                raise InstanceError(f"node {v} filters unknown node {d!r}")
    # every node must reach the sink in the all-choice graph
    reach = distances_to(net.sink, in_neighbours(net.prefs))
    missing = [v for v in net.nodes() if v not in reach]
    if missing:
        raise UnreachableNodeError(f"nodes {missing} cannot reach the sink")


def in_neighbours(prefs: Sequence[Sequence[Node]]) -> list[list[Node]]:
    """Per node w, in increasing id order, the nodes that rank w."""
    back: list[list[Node]] = [[] for _ in prefs]
    for v, ranked in enumerate(prefs):
        for w in ranked:
            back[w].append(v)
    return back


def distances_to(target: Node, back: Sequence[Sequence[Node]]) -> dict[Node, int]:
    """Hop count to ``target`` of every node that reaches it along the arcs
    that ``back`` lists reversed; the keys come in breadth-first order."""
    dist = {target: 0}
    queue = [target]
    for w in queue:  # the queue grows while it is read
        for v in back[w]:
            if v not in dist:
                dist[v] = dist[w] + 1
                queue.append(v)
    return dist


@dataclass(frozen=True)
class RoutingGraph:
    """Per-node chosen next hop; at most one outgoing arc per node.

    Every weakly-connected component is an in-arborescence plus at most one
    arc leaving its root, so a component contains a cycle exactly when its
    root selects a neighbour.
    """

    next_hop: tuple[Optional[Node], ...]

    @staticmethod
    def empty(n: int) -> "RoutingGraph":
        return RoutingGraph(tuple(None for _ in range(n)))

    @staticmethod
    def first_choice(net: Network) -> "RoutingGraph":
        return RoutingGraph(tuple(net.first_choice(v) for v in net.nodes()))

    @staticmethod
    def from_arcs(n: int, arcs: Iterable[Arc]) -> "RoutingGraph":
        nxt: list[Optional[Node]] = [None] * n
        for u, w in arcs:
            if nxt[u] is not None:
                raise ValueError(f"node {u} has two outgoing arcs")
            nxt[u] = w
        return RoutingGraph(tuple(nxt))

    def arcs(self) -> tuple[Arc, ...]:
        return tuple(
            (v, w) for v, w in enumerate(self.next_hop) if w is not None
        )


def resolve(
    rg: RoutingGraph, sink: Node
) -> tuple[tuple[Path, ...], tuple[Optional[tuple[Node, ...]], ...]]:
    """Every node's walk in rg, in one pass over the functional graph.

    Returns (paths, cycle_of).  ``paths[v]`` is v's true path to the sink,
    or the empty path when the walk enters a cycle or dies at a node with no
    next hop; the sink's path is (sink,).  ``cycle_of[v]`` is the cycle v's
    walk enters, smallest id first, and None when it reaches the sink or
    dies.  A walk marks the nodes it passes and stops at the first node that
    is resolved already or marked by itself, which closes a cycle; so every
    node is walked once.
    """
    nxt = rg.next_hop
    paths: list = [None] * len(nxt)  # None unvisited, False on this walk
    cycle_of: list[Optional[tuple[Node, ...]]] = [None] * len(nxt)
    paths[sink] = (sink,)
    for start in range(len(nxt)):
        if paths[start] is not None:
            continue
        trail = []
        cur = start
        while cur is not None and paths[cur] is None:
            paths[cur] = False
            trail.append(cur)
            cur = nxt[cur]
        if cur is None:
            tail, cycle = (), None
        elif paths[cur] is False:
            loop = trail[trail.index(cur):]
            lead = loop.index(min(loop))
            tail, cycle = (), tuple(loop[lead:] + loop[:lead])
        else:
            tail, cycle = paths[cur], cycle_of[cur]
        for u in reversed(trail):
            tail = (u,) + tail if tail else ()
            paths[u] = tail
            cycle_of[u] = cycle
    return tuple(paths), tuple(cycle_of)


def out_plus(arcs: Iterable[Arc], nodes: Iterable[Node]) -> frozenset[Arc]:
    """Arcs whose tail lies in ``nodes`` (induced arcs plus arcs leaving)."""
    members = set(nodes)
    return frozenset((u, w) for u, w in arcs if u in members)


def arc_nodes(arcs: Iterable[Arc], sink: Node) -> frozenset[Node]:
    """Node set of an arc set, always including the sink."""
    out = {sink}
    for u, w in arcs:
        out.add(u)
        out.add(w)
    return frozenset(out)


def sink_component(rg: RoutingGraph, net: Network) -> frozenset[Node]:
    """Nodes whose walk in rg reaches the sink (the sink-component)."""
    paths, _ = resolve(rg, net.sink)
    return frozenset(v for v, path in enumerate(paths) if path)


def sink_component_arcs(rg: RoutingGraph, net: Network) -> frozenset[Arc]:
    comp = sink_component(rg, net)
    return frozenset(
        (v, rg.next_hop[v])
        for v in comp
        if v != net.sink and rg.next_hop[v] is not None
    )


def validate_spanning_tree(net: Network, tree: RoutingGraph) -> None:
    """Check that a routing graph is a spanning tree of the network: every
    non-sink node's next hop is a network arc and its walk reaches the sink."""
    nxt = tree.next_hop
    if len(nxt) != net.n:
        raise TreeError("tree shape does not match the network")
    if nxt[net.sink] is not None:
        raise TreeError("sink must have no parent")
    for v in net.non_sink_nodes():
        p = nxt[v]
        if p is None:
            raise TreeError(f"non-sink node {v} has no parent")
        if p not in net.prefs[v]:
            raise TreeError(f"tree arc ({v},{p}) is not a network arc")
    paths, _ = resolve(tree, net.sink)
    for v, path in enumerate(paths):
        if not path:
            raise TreeError(f"node {v} does not reach the sink")


def q_subtree(tree: RoutingGraph, q_set: Iterable[Node], v: Node) -> frozenset[Node]:
    """Descendants of v inside ``q_set``, v included.

    This is the maximal subtree rooted at v of the forest obtained by
    restricting the tree to ``q_set``: :func:`distances_to` walks down the
    reversed tree arcs whose tail lies in ``q_set``.
    """
    members = set(q_set)
    if v not in members:
        raise ValueError(f"node {v} is not in the restriction set")
    nxt = tree.next_hop
    kids = in_neighbours(
        [(w,) if u in members and w is not None else () for u, w in enumerate(nxt)]
    )
    return frozenset(distances_to(v, kids))


@dataclass(frozen=True)
class FirstClassDecomposition:
    """Components of the rank-1 (first-choice) subgraph.

    Component 0 contains the sink and carries the degenerate cycle (sink,);
    every other component contains exactly one directed cycle of length >= 2.
    """

    component_of: tuple[int, ...]
    components: tuple[frozenset[Node], ...]
    cycles: tuple[tuple[Node, ...], ...]


def first_class_decomposition(net: Network) -> FirstClassDecomposition:
    """Decompose the functional graph of every node's first choice.

    Nodes are grouped by where their first-choice walk ends: the sink or one
    cycle.  The sink's group comes first and the others follow in order of
    their smallest member.
    """
    _, cycle_of = resolve(RoutingGraph.first_choice(net), net.sink)
    ends = [cycle or (net.sink,) for cycle in cycle_of]
    groups: dict[tuple[Node, ...], set[Node]] = {(net.sink,): set()}
    for v, end in enumerate(ends):
        groups.setdefault(end, set()).add(v)
    index = {end: i for i, end in enumerate(groups)}
    return FirstClassDecomposition(
        component_of=tuple(index[end] for end in ends),
        components=tuple(frozenset(m) for m in groups.values()),
        cycles=tuple(groups),
    )


# ---------------------------------------------------------------------------
# Instance text format.
#
# One directive per line, '#' starts a comment:
#   nodes <n>
#   sink <id>
#   prefs <v>: <w1> <w2> ...     decreasing preference
#   filter <v>: <d1> <d2> ...    omitted => empty filtering list
#   rg0 <v>: <w>                 optional initial next-hop override, no next
#                                hop when <w> is left out; when any rg0 line is
#                                present the initial routing graph is exactly
#                                the given arcs
#
# There is one nodes and one sink line, each node has at most one prefs,
# filter and rg0 line, and every node id lies in [0, n).
# ---------------------------------------------------------------------------


def parse_instance(text: str) -> tuple[Network, Optional[RoutingGraph]]:
    n: Optional[int] = None
    sink: Optional[int] = None
    prefs: dict[int, tuple[int, ...]] = {}
    filters: dict[int, frozenset[int]] = {}
    rg0: dict[int, Optional[int]] = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        try:
            if head == "nodes":
                if n is not None:
                    raise FormatError(f"line {lineno}: second nodes line")
                n = int(rest)
            elif head == "sink":
                if sink is not None:
                    raise FormatError(f"line {lineno}: second sink line")
                sink = int(rest)
            elif head in ("prefs", "filter", "rg0"):
                target, _, body = rest.partition(":")
                v = int(target)
                values = tuple(int(tok) for tok in body.split())
                table = {"prefs": prefs, "filter": filters, "rg0": rg0}[head]
                if v in table:
                    raise FormatError(f"line {lineno}: second {head} line for node {v}")
                if head == "prefs":
                    prefs[v] = values
                elif head == "filter":
                    filters[v] = frozenset(values)
                else:
                    if len(values) > 1:
                        raise FormatError(
                            f"line {lineno}: rg0 takes at most one next hop"
                        )
                    rg0[v] = values[0] if values else None
            else:
                raise FormatError(f"line {lineno}: unknown directive {head!r}")
        except ValueError as exc:
            if isinstance(exc, FormatError):
                raise
            raise FormatError(f"line {lineno}: {raw.strip()!r}") from exc

    if n is None:
        raise FormatError("missing 'nodes' directive")
    if sink is None:
        raise FormatError("missing 'sink' directive")
    for table in (prefs, filters, rg0):
        for v in table:
            if not 0 <= v < n:
                raise FormatError(f"directive for node {v} outside [0, {n})")
    # a non-sink node without a prefs line has no arc; report it before
    # anything n-sized is built, so a huge declared n costs nothing
    if 0 <= sink < n and len(prefs.keys() - {sink}) < n - 1:
        v = next(v for v in range(n) if v != sink and v not in prefs)
        raise UnreachableNodeError(
            f"node {v} has no prefs line and cannot reach the sink"
        )
    net = Network(
        n=n,
        sink=sink,
        prefs=tuple(prefs.get(v, ()) for v in range(n)),
        filters=tuple(filters.get(v, frozenset()) for v in range(n)),
    )
    graph = None
    if rg0:
        graph = RoutingGraph(tuple(rg0.get(v) for v in range(n)))
        for v, w in rg0.items():
            if w is not None and w not in net.prefs[v]:
                raise FormatError(f"rg0 arc ({v},{w}) is not a network arc")
    return net, graph


def format_instance(net: Network, rg0: Optional[RoutingGraph] = None) -> str:
    """Canonical text for an instance; bit-exact round-trip with the parser."""
    lines = [f"nodes {net.n}", f"sink {net.sink}"]
    for v in net.nodes():
        if v == net.sink:
            continue
        lines.append(f"prefs {v}: " + " ".join(str(w) for w in net.prefs[v]))
    for v in net.nodes():
        if net.filters[v]:
            lines.append(
                f"filter {v}: " + " ".join(str(d) for d in sorted(net.filters[v]))
            )
    if rg0 is not None and rg0 != RoutingGraph.first_choice(net):
        for v in net.nodes():
            w = rg0.next_hop[v]
            if w is not None:
                lines.append(f"rg0 {v}: {w}")
            elif v != net.sink:
                lines.append(f"rg0 {v}:")
    return "\n".join(lines) + "\n"
