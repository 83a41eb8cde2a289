"""Static checkers and exact oracles.

The checkers (stable tree, strong stability, skeleton) are direct readings
of their definitions.  The exact oracles search the choice functions of a
small network: ``enumerate_equilibria`` backtracks node by node and prunes a
branch once a placed node is off its best valid choice, while
``max_stable_tree_dfs`` tests every complete choice function as an
independent cross-check.  Both are gated by an explicit budget on the number
of choice functions.  Everything here is pure and independent of the
schedulers, so these functions double as oracles for the scheduler
pipelines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional

from . import engine
from .model import (
    Arc,
    Network,
    Node,
    RoutingGraph,
    SpanningTree,
    arc_nodes,
    out_plus,
    q_subtree,
    resolve,
    sink_component,
)


class BudgetExceededError(RuntimeError):
    """The instance is too large for exhaustive enumeration."""


class NotATreeError(ValueError):
    """The candidate arc set is not an in-arborescence containing the sink."""


def tree_paths(arcs: frozenset[Arc], sink: Node) -> dict[Node, tuple[Node, ...]]:
    """Per-node path to the sink inside an in-arborescence, or raise."""
    nodes = sorted(arc_nodes(arcs, sink))
    try:
        rg = RoutingGraph.from_arcs(nodes[-1] + 1, arcs)
    except ValueError as exc:
        raise NotATreeError(str(exc)) from None
    paths, _ = resolve(rg, sink)
    for v in nodes:
        if not paths[v]:
            raise NotATreeError(f"node {v} has no path to the sink")
    return {v: paths[v] for v in nodes}


@dataclass(frozen=True)
class StableTreeReport:
    """Outcome of a stable-tree check.

    ``witness_violation`` names a node and the better-ranked valid neighbour
    (or invalid parent) that breaks stability; absent means stable.
    ``external_blocking`` lists nodes outside the tree that currently have a
    valid choice into it: the tree-local stability notion does not forbid
    them, but a full equilibrium would.
    """

    tree: frozenset[Arc]
    size: int
    witness_violation: Optional[tuple[Node, Node]]
    external_blocking: tuple[tuple[Node, Node], ...] = ()

    @property
    def stable(self) -> bool:
        return self.witness_violation is None


def is_stable_tree(net: Network, arcs: Iterable[Arc]) -> StableTreeReport:
    """Check the two tree-stability conditions on an in-arborescence.

    Every arc's head must be valid for its tail (the head's tree path avoids
    the tail's filtering list) and every tail must sit on its best valid
    choice among the tree's members.  A tail whose parent it does not rank
    is unstable only when some member is valid for it.
    """
    tree = frozenset(arcs)
    members = tree_paths(tree, net.sink)
    paths = [members.get(v, ()) for v in net.nodes()]

    witness: Optional[tuple[Node, Node]] = None
    for u, w in sorted(tree):
        if net.filters[u].intersection(paths[w]):
            witness = (u, w)
            break
        best = engine.best_valid(net, paths, u)
        if best not in (w, None):
            witness = (u, best)
            break

    blocked = []
    for v in net.nodes():
        if v not in members:
            best = engine.best_valid(net, paths, v)
            if best is not None:
                blocked.append((v, best))
    return StableTreeReport(
        tree=tree,
        size=len(members),
        witness_violation=witness,
        external_blocking=tuple(blocked),
    )


def has_strong_stability(
    net: Network, tree: SpanningTree, restricted: Iterable[Node]
) -> bool:
    """True when every restricted node prefers its tree parent to every
    neighbour outside its own subtree within the restriction set."""
    members = frozenset(restricted)
    for v in sorted(members):
        if v == net.sink:
            continue
        inside = q_subtree(tree, members, v)
        parent = tree.parent[v]
        for x in net.prefs[v]:
            if x == parent:
                break
            if x not in inside:
                return False
    return True


def is_skeleton(
    tree: SpanningTree, t_arcs: Iterable[Arc], restricted: Iterable[Node]
) -> bool:
    """Each maximal restricted subtree of ``tree`` either has all its arcs
    (plus the root's leaving arc) inside ``t_arcs`` or is node-disjoint from
    them."""
    t_set = frozenset(t_arcs)
    t_nodes = arc_nodes(t_set, tree.sink)
    members = frozenset(restricted)
    tree_arcs = tree.arcs()
    roots = [
        v for v in members if v != tree.sink and tree.parent[v] not in members
    ]
    for root in roots:
        block = q_subtree(tree, members, root)
        if not out_plus(tree_arcs, block) <= t_set and block & t_nodes:
            return False
    return True


def choice_budget(net: Network) -> int:
    return math.prod(len(net.prefs[v]) + 1 for v in net.non_sink_nodes())


DEFAULT_BUDGET = 2_000_000


def enumerate_equilibria(
    net: Network, budget: int = DEFAULT_BUDGET
) -> list[RoutingGraph]:
    """Every choice function (a neighbour or nothing, per node) that is an
    equilibrium after route verification, in lexicographic choice order:
    each node's choice is its best valid one on the graph's true paths.

    A backtracking search places the non-sink nodes in increasing id order,
    trying each node's options in the order ``prefs[v] + [None]``, so the
    equilibria come out in lexicographic order.  After each placement every
    placed node's path is clear (its walk reaches the sink through placed
    nodes), dead (its walk ends at None or closes a cycle) or unknown (its
    walk reaches an unplaced node).  A branch is pruned when a placed node's
    best valid choice is decided, that is every preference up to its first
    clear and unfiltered one has a known path, and differs from its choice.
    Clear and dead paths run through placed nodes only, so later placements
    never change them and the pruning is exact; at a leaf every path is
    known and the test is the equilibrium test itself.

    ``budget`` caps the number of choice functions, ∏(deg + 1), not the
    number of search nodes visited.
    """
    if choice_budget(net) > budget:
        raise BudgetExceededError(
            f"{choice_budget(net)} choice functions exceed budget {budget}"
        )
    nodes = net.non_sink_nodes()
    nxt: list[Optional[Node]] = [None] * net.n
    placed = [False] * net.n
    found = []

    def settle(paths: list, upto: int) -> None:
        """Resolve, in place, the unknown paths of the first ``upto`` nodes
        that no longer reach an unplaced node."""
        for u in nodes[:upto]:
            if paths[u] is not None:
                continue
            trail = [u]
            cur = nxt[u]
            while (
                cur is not None
                and paths[cur] is None
                and placed[cur]
                and cur not in trail
            ):
                trail.append(cur)
                cur = nxt[cur]
            if cur is None or cur in trail:
                tail = ()
            elif paths[cur] is None:
                continue  # the walk reaches an unplaced node
            else:
                tail = paths[cur]
            for x in reversed(trail):
                tail = (x,) + tail if tail else ()
                paths[x] = tail

    def off_best(u: Node, paths: list) -> bool:
        """u's best valid choice is decided and is not its choice."""
        filt = net.filters[u]
        for w in net.prefs[u]:
            path = paths[w]
            if path is None:
                return False
            if path and not (filt and filt.intersection(path)):
                return w != nxt[u]
        return nxt[u] is not None

    def place(i: int, paths: list) -> None:
        if i == len(nodes):
            found.append(RoutingGraph(tuple(nxt)))
            return
        v = nodes[i]
        placed[v] = True
        for w in net.prefs[v] + (None,):
            nxt[v] = w
            trial = paths.copy()
            settle(trial, i + 1)
            if not any(off_best(u, trial) for u in nodes[: i + 1]):
                place(i + 1, trial)
        nxt[v] = None
        placed[v] = False

    # None marks an unknown path: an unplaced node, or a walk reaching one
    start: list = [None] * net.n
    start[net.sink] = (net.sink,)
    place(0, start)
    return found


def max_stable_tree(net: Network, budget: int = DEFAULT_BUDGET) -> StableTreeReport:
    """Largest sink-component over all equilibria; the bare sink if none."""
    best: Optional[tuple[int, RoutingGraph]] = None
    for rg in enumerate_equilibria(net, budget):
        size = len(sink_component(rg, net))
        if best is None or size > best[0]:
            best = (size, rg)
    if best is None:
        return StableTreeReport(
            tree=frozenset(), size=1, witness_violation=None
        )
    _, rg = best
    arcs = frozenset(
        (v, w) for v, w in enumerate(rg.next_hop) if w is not None
    )
    report = is_stable_tree(net, arcs)
    return report


def max_stable_tree_dfs(net: Network, budget: int = DEFAULT_BUDGET) -> int:
    """Independent search for the maximum stable sink-component size.

    Recursive assignment over nodes in descending id order with a
    relaxation-based path derivation, deliberately sharing no code with
    :func:`enumerate_equilibria`.
    """
    if choice_budget(net) > budget:
        raise BudgetExceededError("instance too large for the DFS oracle")
    nodes = sorted(net.non_sink_nodes(), reverse=True)
    best = 1

    def derive_paths(choice: dict[Node, Optional[Node]]) -> dict[Node, tuple]:
        paths: dict[Node, tuple] = {v: () for v in net.nodes()}
        paths[net.sink] = (net.sink,)
        for _ in range(net.n):
            changed = False
            for v, w in choice.items():
                if w is None:
                    continue
                want = (v,) + paths[w] if paths[w] else ()
                if want and want != paths[v]:
                    paths[v] = want
                    changed = True
            if not changed:
                break
        return paths

    def settled(choice: dict[Node, Optional[Node]]) -> Optional[int]:
        paths = derive_paths(choice)
        for v in nodes:
            filt = net.filters[v]
            pick = None
            for w in net.prefs[v]:
                if paths[w] and not (filt & set(paths[w])):
                    pick = w
                    break
            if pick != choice[v]:
                return None
        return sum(1 for v in net.nodes() if paths[v])

    def walk(i: int, choice: dict[Node, Optional[Node]]) -> None:
        nonlocal best
        if i == len(nodes):
            size = settled(choice)
            if size is not None and size > best:
                best = size
            return
        v = nodes[i]
        for w in list(net.prefs[v]) + [None]:
            choice[v] = w
            walk(i + 1, choice)
        del choice[v]

    walk(0, {})
    return best


def exhaustive_delivery(
    net: Network,
    scheduler: engine.Scheduler,
    rounds: int,
    rg0: Optional[RoutingGraph] = None,
) -> bool:
    """Whether every packet is delivered within the given rounds under every
    adversarial repositioning.

    The control plane never reads packet positions, so the routing-graph
    trajectory is one and the same on every adversary branch and packets can
    be tracked independently: each packet carries the set of (location,
    capturing-cycle) pairs it could be in, a captured packet fanning out to
    the whole cycle when the next round begins.
    """
    state = engine.EngineState.initial(net, rg0)
    possible: dict[int, set] = {
        p.origin: {(p.location, None)} for p in state.packets
    }
    delivered: set[int] = set()
    for _ in range(rounds):
        perm = scheduler.permutation(state)
        state = engine.run_round(state, perm)
        scheduler.after_round(state)
        trip = engine.trips(state.rg, net.sink)
        for origin, opts in possible.items():
            if origin in delivered:
                continue
            nxt = set()
            alive = False
            for loc, cycle in opts:
                placements = cycle if cycle else (loc,)
                for spot in placements:
                    _, end, caught = trip(spot)
                    if end == net.sink:
                        continue
                    alive = True
                    nxt.add((end, caught))
            if alive:
                possible[origin] = nxt
            else:
                delivered.add(origin)
    return len(delivered) == len(possible)
