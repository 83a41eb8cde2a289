"""Activation-order generators.

Three scheduler families share the engine's round protocol:

* ``RandomScheduler`` draws a fresh uniform permutation per round from a
  seeded generator.
* ``CoordinateScheduler`` (empty filtering lists) builds a red/blue node
  partition each round and an activation order that provably drags every
  red node into the sink-component and keeps every blue node out; run four
  rounds in a row and every round-0 packet reaches the sink.  An activation
  changes only its own node's path, so the order is worked out on the clear
  set alone: every reformed blue-seed component ends its phase clear.
* ``FairStabiliseScheduler`` (self-only filtering lists) maintains a
  spanning tree with a strong-stability property, activates the ever-opaque
  nodes in tree BFS order and the rest in reverse BFS order, and promotes
  one node per round until the routing graph is that stable spanning tree.

The last two check the paper's invariants on every round and raise
:class:`ModelAssumptionError` or :class:`ContractViolationError` when one
fails.  Permutations aside, schedulers record their per-round decisions in
``self.decisions`` so tests and the CLI can expose them without polluting
the engine trace.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Iterable, Optional, Sequence

from . import engine
from .analysis import has_strong_stability, is_skeleton
from .model import (
    Arc,
    FirstClassDecomposition,
    Network,
    Node,
    RoutingGraph,
    arc_nodes,
    distances_to,
    first_class_decomposition,
    in_neighbours,
    resolve,
    validate_spanning_tree,
)


class SchedulerError(RuntimeError):
    """A scheduler hit a state its model guarantees cannot happen."""


class ContractViolationError(SchedulerError):
    """A precondition of the stabilisation pipeline failed at runtime."""


class ModelAssumptionError(SchedulerError):
    """A proven invariant of the coordination algorithm failed at runtime."""


def random_fair_permutation(rng: random.Random, net: Network) -> list[Node]:
    """Uniform permutation of the non-sink nodes, reproducible from the rng."""
    nodes = list(net.non_sink_nodes())
    rng.shuffle(nodes)
    return nodes


class RandomScheduler:
    def __init__(self, net: Network, seed: int = 0):
        self.net = net
        self.rng = random.Random(seed)
        self.decisions: list[str] = []

    def permutation(self, state: engine.EngineState) -> list[Node]:
        return random_fair_permutation(self.rng, self.net)

    def after_round(self, state: engine.EngineState) -> None:
        pass


class ReplayScheduler:
    """Re-issues a recorded list of per-round permutations."""

    def __init__(self, perms: Sequence[Sequence[Node]]):
        self.perms = [list(p) for p in perms]
        self.cursor = 0
        self.decisions: list[str] = []

    @staticmethod
    def from_text(text: str) -> "ReplayScheduler":
        """One permutation per line, node ids separated by spaces; a blank
        line is the empty permutation."""
        perms = []
        for lineno, line in enumerate(text.splitlines(), start=1):
            try:
                perms.append([int(tok) for tok in line.split()])
            except ValueError:
                raise ValueError(
                    f"line {lineno}: not a list of node ids: {line.strip()!r}"
                ) from None
        return ReplayScheduler(perms)

    @staticmethod
    def to_text(perms: Iterable[Sequence[Node]]) -> str:
        return "".join(" ".join(str(v) for v in p) + "\n" for p in perms)

    def permutation(self, state: engine.EngineState) -> list[Node]:
        if self.cursor >= len(self.perms):
            raise SchedulerError("replay exhausted: no permutation recorded")
        perm = self.perms[self.cursor]
        self.cursor += 1
        return perm

    def after_round(self, state: engine.EngineState) -> None:
        pass


# ---------------------------------------------------------------------------
# Coordination (empty filtering lists)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Partition:
    """Red/blue colouring: red nodes are forced into the sink-component by
    the derived activation order, blue nodes are forced out."""

    red: frozenset[Node]
    blue: frozenset[Node]
    blue_seed: frozenset[Node]
    red_order: tuple[Node, ...]


def coordinate(
    net: Network, fcd: FirstClassDecomposition, clear: frozenset[Node]
) -> Partition:
    """Red/blue partition for one round, from the current clear set.

    The blue seed is the union of first-choice components (other than the
    sink's) whose cycle currently holds a clear node.  The refinement loop
    then repeatedly bleaches to red the smallest node that prefers some red
    node over all of its blue and still-undecided-but-clear neighbours, and
    turns the nodes left undecided blue, until the blue side stops growing.

    A node that qualifies keeps qualifying while others turn red, and only
    the nodes ranking the one just bleached can start to qualify.  So each
    pass keeps the qualifying nodes in a heap and tests a node again only
    when one of its neighbours turns red: a pass makes
    O(sum of squared out-degrees) membership tests and O(n log n) heap
    steps.
    """
    if net.sink not in clear:
        raise ValueError("the sink must be clear")
    seeded = [
        fcd.components[j]
        for j in range(1, len(fcd.components))
        if set(fcd.cycles[j]) & clear
    ]
    blue_seed = frozenset().union(*seeded)
    back = in_neighbours(net.prefs)

    def prefers_red(v: Node) -> bool:
        for w in net.prefs[v]:
            if w in red:
                return True
            if w in blue or (w in clear and w in undecided):
                return False
        return False

    blue = set(blue_seed)
    while True:
        red = {net.sink}
        order: list[Node] = []
        undecided = set(net.nodes()) - red - blue
        ready = sorted(v for v in undecided if prefers_red(v))
        queued = set(ready)
        while ready:
            v = heappop(ready)
            undecided.discard(v)
            red.add(v)
            order.append(v)
            for u in back[v]:
                if u in undecided and u not in queued and prefers_red(u):
                    heappush(ready, u)
                    queued.add(u)
        if not undecided:
            part = Partition(
                red=frozenset(red),
                blue=frozenset(blue),
                blue_seed=blue_seed,
                red_order=tuple(order),
            )
            _check_monochromatic(fcd, part)
            return part
        blue |= undecided


def _check_monochromatic(fcd: FirstClassDecomposition, part: Partition) -> None:
    for comp in fcd.components:
        if not (comp <= part.red or comp <= part.blue):
            raise ModelAssumptionError(
                f"first-choice component {sorted(comp)} is not monochromatic"
            )


def coordinate_sequence(
    part: Partition,
    fcd: FirstClassDecomposition,
    net: Network,
    clear: frozenset[Node],
) -> list[Node]:
    """Activation order realising a partition, worked out on ``clear``, the
    clear set the partition was built from.

    Phase 1 reforms every blue-seed component around one of its clear cycle
    nodes (nearest members first, the chosen node last), so each such
    component re-selects its first choices wholesale.  An activation changes
    only its own node's path and each member's first choice is clear when it
    activates, so the whole blue seed ends phase 1 clear.  Phase 2 emits the
    remaining blue nodes greedily: a node goes out, clear, once its first
    clear preference (its empty-filter best valid choice) is blue.  Phase 3
    replays the red nodes in the order the partition construction added them.
    """
    clear = set(clear)
    seq: list[Node] = []
    # a component holds every node whose first choice lies in it
    first_back = in_neighbours([p[:1] for p in net.prefs])
    for j in range(1, len(fcd.components)):
        comp = fcd.components[j]
        if not comp <= part.blue_seed:
            continue
        anchor = min(v for v in fcd.cycles[j] if v in clear)
        dist = distances_to(anchor, first_back)
        rest = sorted((dist[v], v) for v in comp if v != anchor)
        seq += [v for _, v in rest] + [anchor]
    # each seed node's first choice (the anchor or a member just before it)
    # was clear when it activated
    clear |= part.blue_seed

    pending = sorted(part.blue - part.blue_seed)
    while pending:
        for v in pending:
            best = next((w for w in net.prefs[v] if w in clear), None)
            if best in part.blue:
                break
        else:
            raise ModelAssumptionError(
                f"coordination greedy phase stalled on {pending}"
            )
        pending.remove(v)
        clear.add(v)
        seq.append(v)

    seq.extend(part.red_order)
    return seq


class CoordinateScheduler:
    """One coordination round per engine round; empty filters required."""

    def __init__(self, net: Network):
        if any(net.filters[v] for v in net.nodes()):
            raise ValueError("coordination requires empty filtering lists")
        self.net = net
        self.fcd = first_class_decomposition(net)
        self.partitions: list[Partition] = []
        self.clear_sets: list[frozenset[Node]] = []
        self.decisions: list[str] = []

    def permutation(self, state: engine.EngineState) -> list[Node]:
        clear = state.clear_set
        part = coordinate(self.net, self.fcd, clear)
        self.partitions.append(part)
        self.clear_sets.append(clear)
        self.decisions.append(
            f"round {state.round + 1} | partition red={sorted(part.red)} "
            f"blue={sorted(part.blue)} seed={sorted(part.blue_seed)}"
        )
        return coordinate_sequence(part, self.fcd, self.net, clear)

    def after_round(self, state: engine.EngineState) -> None:
        part = self.partitions[-1]
        comp = state.clear_set  # verified paths: the sink-component
        if not part.red <= comp:
            raise ModelAssumptionError(
                f"red nodes {sorted(part.red - comp)} escaped the sink-component"
            )
        if part.blue & comp:
            raise ModelAssumptionError(
                f"blue nodes {sorted(part.blue & comp)} entered the sink-component"
            )
        # when the clear set was exactly the blue seed, a packet that spent
        # all n hops without delivery must sit at a round-start clear node
        clear = self.clear_sets[-1]
        if clear - {self.net.sink} == part.blue_seed:
            for pkt in state.packets:
                if not pkt.delivered and pkt.last_hops == self.net.n:
                    if pkt.location not in clear:
                        raise ModelAssumptionError(
                            f"packet {pkt.origin} stranded at non-clear node "
                            f"{pkt.location}"
                        )


# ---------------------------------------------------------------------------
# Stabilisation (self-only filtering lists)
# ---------------------------------------------------------------------------


def bfs_order(nodes: Iterable[Node], tree: RoutingGraph, sink: Node) -> list[Node]:
    """Non-sink members of a spanning tree sorted by tree distance to the
    sink, ids break ties."""
    paths, _ = resolve(tree, sink)
    picked = [v for v in nodes if v != sink]
    return sorted(picked, key=lambda v: (len(paths[v]), v))


def initial_spanning_tree(net: Network) -> RoutingGraph:
    """Shortest-path in-arborescence over the all-choice graph; each node
    takes its best-ranked neighbour among those one layer closer."""
    depth = distances_to(net.sink, in_neighbours(net.prefs))
    parent: list[Optional[Node]] = [None] * net.n
    for v in depth:
        if v != net.sink:
            parent[v] = next(w for w in net.prefs[v] if depth[w] == depth[v] - 1)
    tree = RoutingGraph(tuple(parent))
    validate_spanning_tree(net, tree)
    return tree


def find_stable(
    t_in: frozenset[Arc],
    s_in: RoutingGraph,
    o_prev: frozenset[Node],
    net: Network,
) -> RoutingGraph:
    """Extend a strongly stable spanning tree across the current sink-component.

    ``t_in`` is the sink-component's arc set; ``s_in`` must be strongly
    stable on ``o_prev`` and a skeleton of ``t_in``.  The output keeps
    ``t_in`` verbatim, hangs the outside nodes by their old arcs, and then
    re-points those nodes leaf-first at their best-ranked neighbour outside
    their own descendant set, which makes the result strongly stable on
    ``o_prev`` united with the outside nodes.

    Each step re-points the smallest id among the nodes whose children in
    the hung forest have all been re-pointed; child counts and a heap give
    that order.  The step's forbidden set is the node's current subtree,
    read by :func:`distances_to` from the child lists.  Inside nodes hang
    only from inside nodes, so that set holds every descendant, and the
    new parent, drawn from outside it, cannot close a cycle.

    Every call checks its contract: the input tree's validity, strong
    stability and skeleton property, and the hung tree's validity.  The
    re-pointing makes O(n log n + s) steps, s the summed sizes of the
    re-pointed subtrees; the checks add O(m + k*n), m the summed
    preference-list lengths and k the size of ``o_prev``.  A call is
    therefore O(m + n**2) in the worst case.
    """
    validate_spanning_tree(net, s_in)
    if not has_strong_stability(net, s_in, o_prev):
        raise ContractViolationError("input tree lost strong stability")
    if not is_skeleton(s_in, net.sink, t_in, o_prev):
        raise ContractViolationError("input tree is not a skeleton")

    outside = frozenset(net.nodes()) - arc_nodes(t_in, net.sink)
    parent: list[Optional[Node]] = [None] * net.n
    for u, w in t_in:
        parent[u] = w
    for v in outside:
        parent[v] = s_in.next_hop[v]
    validate_spanning_tree(net, RoutingGraph(tuple(parent)))

    # kids: the current tree's arcs among outside nodes (inside nodes hang
    # from inside nodes only); pending: children in the hung forest that are
    # still to be re-pointed
    kids: list[list[Node]] = [[] for _ in net.nodes()]
    for v in outside:
        if parent[v] in outside:
            kids[parent[v]].append(v)
    pending = [len(c) for c in kids]
    leaves = sorted(v for v in outside if not pending[v])  # a sorted list is a heap
    while leaves:
        v = heappop(leaves)
        forbidden = distances_to(v, kids)
        choice = next(w for w in net.prefs[v] if w not in forbidden)
        old = parent[v]
        if old in outside:
            kids[old].remove(v)
            pending[old] -= 1
            if not pending[old]:
                heappush(leaves, old)
        if choice in outside:
            kids[choice].append(v)
        parent[v] = choice
    return RoutingGraph(tuple(parent))


class FairStabiliseScheduler:
    """Bring a self-filtering network to a stable spanning tree.

    Per round: refresh the guide tree with :func:`find_stable` against the
    current sink-component, fold the currently opaque nodes into the
    ever-opaque set, activate that set in tree BFS order and its complement
    in reverse BFS order, then adopt the first reverse-BFS node's new arc
    into the tree and promote the node.
    """

    def __init__(self, net: Network):
        for v in net.nodes():
            if v != net.sink and net.filters[v] != frozenset({v}):
                raise ValueError(
                    "stabilisation requires every filtering list to be {self}"
                )
        self.net = net
        self.tree = initial_spanning_tree(net)
        self.ever_opaque: frozenset[Node] = frozenset()
        self._promote: Optional[Node] = None
        self.opaque_history: list[frozenset[Node]] = []
        self.decisions: list[str] = []

    def permutation(self, state: engine.EngineState) -> list[Node]:
        # a round boundary's paths are the verified ones: the clear nodes
        # are the sink-component, and the opaque ones join the ever set
        nxt, sink = state.rg.next_hop, self.net.sink
        t_in = frozenset(
            (v, nxt[v]) for v, path in enumerate(state.paths) if path and v != sink
        )
        self.tree = tree = find_stable(t_in, self.tree, self.ever_opaque, self.net)
        self.ever_opaque = ever = self.ever_opaque | {
            v for v, path in enumerate(state.paths) if not path
        }
        order = bfs_order(self.net.nodes(), tree, sink)
        inside = [v for v in order if v in ever]
        rest = [v for v in reversed(order) if v not in ever]
        self._promote = rest[0] if rest else None
        self.decisions.append(
            f"round {state.round + 1} | stabilise opaque={sorted(ever)} "
            f"promote={self._promote} tree={sorted(tree.arcs())}"
        )
        return inside + rest

    def after_round(self, state: engine.EngineState) -> None:
        v = self._promote
        if v is not None:
            w = state.rg.next_hop[v]
            if w is not None:
                nxt = self.tree.next_hop
                tree = RoutingGraph(nxt[:v] + (w,) + nxt[v + 1 :])
                validate_spanning_tree(self.net, tree)
                self.tree, self.ever_opaque = tree, self.ever_opaque | {v}
        self.opaque_history.append(self.ever_opaque)
        if len(self.opaque_history) >= 2:
            prev, cur = self.opaque_history[-2], self.opaque_history[-1]
            full = frozenset(self.net.non_sink_nodes())
            if prev != full and not prev < cur:
                raise ModelAssumptionError(
                    "ever-opaque set failed to grow strictly"
                )
