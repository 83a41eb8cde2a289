"""Static checkers and exact oracles.

The checkers (stable tree, strong stability, skeleton) are direct readings
of their definitions.  The exact oracles search the choice functions of a
small network: ``enumerate_equilibria`` places node by node on an explicit
stack and prunes a branch once a placed node is off its best valid choice,
while ``max_stable_tree_dfs`` tests every complete choice function as an
independent cross-check.  Neither recurses, and both are gated by an
explicit budget on the number of choice functions.  Everything here is pure
and independent of the schedulers, so these functions double as oracles for
the scheduler pipelines.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Iterable, Optional

from . import engine
from .model import (
    Arc,
    Network,
    Node,
    RoutingGraph,
    TreeError,
    arc_nodes,
    out_plus,
    q_subtree,
    resolve,
    sink_component,
)


class BudgetExceededError(RuntimeError):
    """The instance is too large for exhaustive enumeration."""


def tree_paths(arcs: frozenset[Arc], sink: Node) -> dict[Node, tuple[Node, ...]]:
    """Per-node path to the sink inside an in-arborescence, or raise."""
    nodes = sorted(arc_nodes(arcs, sink))
    try:
        rg = RoutingGraph.from_arcs(nodes[-1] + 1, arcs)
    except ValueError as exc:
        raise TreeError(str(exc)) from None
    if rg.next_hop[sink] is not None:
        raise TreeError("the sink must have no outgoing arc")
    paths, _ = resolve(rg, sink)
    for v in nodes:
        if not paths[v]:
            raise TreeError(f"node {v} has no path to the sink")
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
    net: Network, tree: RoutingGraph, restricted: Iterable[Node]
) -> bool:
    """True when every restricted node prefers its tree parent to every
    neighbour outside its own subtree within the restriction set."""
    members = frozenset(restricted)
    for v in sorted(members):
        if v == net.sink:
            continue
        inside = q_subtree(tree, members, v)
        parent = tree.next_hop[v]
        for x in net.prefs[v]:
            if x == parent:
                break
            if x not in inside:
                return False
    return True


def is_skeleton(
    tree: RoutingGraph,
    sink: Node,
    t_arcs: Iterable[Arc],
    restricted: Iterable[Node],
) -> bool:
    """Each maximal restricted subtree of ``tree`` either has all its arcs
    (plus the root's leaving arc) inside ``t_arcs`` or is node-disjoint from
    them."""
    t_set = frozenset(t_arcs)
    t_nodes = arc_nodes(t_set, sink)
    members = frozenset(restricted)
    tree_arcs = tree.arcs()
    roots = [
        v for v in members if v != sink and tree.next_hop[v] not in members
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
    equilibria come out in lexicographic order.  It runs on an explicit
    stack, so the interpreter's recursion limit does not bound its depth.
    After each placement every placed node's path is clear (its walk
    reaches the sink through placed nodes), dead (its walk ends at None or
    closes a cycle) or unknown (its walk reaches an unplaced node).  A
    branch is pruned when a placed node's best valid choice is decided, that
    is every preference up to its first clear and unfiltered one has a known
    path, and differs from its choice.  Clear and dead paths run through
    placed nodes only, so later placements never change them and the
    pruning is exact; at a leaf every path is known and the test is the
    equilibrium test itself.

    ``budget`` caps the number of choice functions, ∏(deg + 1), not the
    number of search nodes visited.
    """
    if choice_budget(net) > budget:
        raise BudgetExceededError(
            f"{choice_budget(net)} choice functions exceed budget {budget}"
        )
    nodes = net.non_sink_nodes()
    nxt: list[Optional[Node]] = [None] * net.n
    found = []

    def settle(paths: list, upto: int) -> None:
        """Resolve, in place, the unknown paths of the first ``upto`` nodes
        that no longer reach an unplaced node."""
        last = nodes[upto - 1]  # the placed nodes are the non-sink ids <= last
        for u in nodes[:upto]:
            if paths[u] is not None:
                continue
            trail = [u]
            cur = nxt[u]
            while (
                cur is not None
                and paths[cur] is None
                and cur <= last
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

    # None marks an unknown path: an unplaced node, or a walk reaching one
    start: list = [None] * net.n
    start[net.sink] = (net.sink,)
    options = [net.prefs[v] + (None,) for v in nodes]
    # entries (depth, index of the next option to try, paths so far)
    stack = [(0, 0, start)]
    while stack:
        i, k, paths = stack.pop()
        if i == len(nodes):
            found.append(RoutingGraph(tuple(nxt)))
            continue
        if k + 1 < len(options[i]):
            stack.append((i, k + 1, paths))
        nxt[nodes[i]] = options[i][k]
        trial = paths.copy()
        settle(trial, i + 1)
        if not any(off_best(u, trial) for u in nodes[: i + 1]):
            stack.append((i + 1, 0, trial))
    return found


def max_stable_tree(net: Network, budget: int = DEFAULT_BUDGET) -> StableTreeReport:
    """Largest sink-component over all equilibria; the bare sink if none."""
    best = max(
        enumerate_equilibria(net, budget),
        key=lambda rg: len(sink_component(rg, net)),
        default=None,
    )
    if best is None:
        return StableTreeReport(
            tree=frozenset(), size=1, witness_violation=None
        )
    return is_stable_tree(net, best.arcs())


def max_stable_tree_dfs(net: Network, budget: int = DEFAULT_BUDGET) -> int:
    """Independent search for the maximum stable sink-component size.

    Tests every complete choice function, drawn as one flat tuple from a
    product over the non-sink nodes' options.  Each node in turn walks its
    preferences' paths, the preference and the sink included, until the
    first that reaches the sink clear of its filtering list; the function
    is rejected at the first node whose pick is not its choice.  At an
    equilibrium the nodes with a pick are the sink-component's non-sink
    nodes.  Deliberately shares no code with :func:`enumerate_equilibria`.
    """
    if choice_budget(net) > budget:
        raise BudgetExceededError("instance too large for the DFS oracle")
    sink, prefs, filters = net.sink, net.prefs, net.filters
    nodes = net.non_sink_nodes()
    best = 1
    for combo in itertools.product(*(prefs[v] + (None,) for v in nodes)):
        choice = combo[:sink] + (None,) + combo[sink:]
        size = 1
        for v in nodes:
            pick = None
            for w in prefs[v]:
                path = [w]
                cur = w
                while cur != sink:
                    cur = choice[cur]
                    if cur is None or cur in path:
                        break
                    path.append(cur)
                else:
                    if filters[v].isdisjoint(path):
                        pick = w
                        break
            if pick != choice[v]:
                break
            size += pick is not None
        else:
            best = max(best, size)
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
    be tracked independently: each origin carries the set of nodes it could
    start the next round at.  Each round forwards one engine packet from
    every node in any set; then a delivered packet adds nothing to the sets
    it stands in, one captured by a cycle adds the whole cycle, since the
    adversary may place it anywhere on it, and any other its location.  An
    origin whose set empties is delivered.  ``scheduler.after_round`` sees
    these packets, so coordination's stranded-packet check covers every node
    an adversary could place a packet at.
    """
    state = engine.EngineState.initial(net, rg0)
    possible = [{p.origin} for p in state.packets]
    for _ in range(rounds):
        state = engine.run_round(state, scheduler.permutation(state))
        scheduler.after_round(state)
        ends = {
            p.origin: () if p.delivered else p.last_cycle or (p.location,)
            for p in state.packets
        }
        possible = [set().union(*(ends[v] for v in spots)) for spots in possible]
        starts = sorted(set().union(*possible))
        state = replace(state, packets=tuple(engine.PacketState(v, v) for v in starts))
    return not any(possible)
