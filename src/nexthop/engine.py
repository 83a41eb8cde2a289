"""Round-based dynamics: activation, packet forwarding, route verification.

A round runs four phases in order: adversarial repositioning of cycling
packets (one of the :class:`Adversary` rules), the control plane (every
non-sink node activates once, in the scheduler's permutation), the
forwarding plane (each live packet moves up to n hops or reaches the sink),
and route verification (every believed path is reset to the true path in
the routing graph).

Forwarding reads one ``model.resolve`` of the routing graph: a delivered
packet's hops are its path, and a captured packet's are the lead-in to its
cycle followed by n - lead hops round it, found by cycle arithmetic.  The
trace still holds one line per hop, but a lap's lines are formatted once
and repeated for every lap.

Every engine function returns a new state, with the trace extended, and
leaves its argument untouched; within one call the work is done on plain
lists.  A simulation is therefore a pure function of (network, initial
routing graph, scheduler, adversary).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Optional, Protocol, Sequence

from .model import (
    Network,
    Node,
    Path,
    RoutingGraph,
    resolve,
)


class FairnessError(ValueError):
    """A round's permutation does not cover every non-sink node exactly once."""


@dataclass(frozen=True)
class PacketState:
    """One packet of the round-0 cohort, named by the node it starts at.

    ``location`` is None once delivered; ``last_cycle`` is the cycle the
    packet was captured in during the previous forwarding phase, if any, and
    ``last_hops`` how many hops that phase consumed.
    """

    origin: Node
    location: Optional[Node]
    delivered_round: Optional[int] = None
    last_cycle: Optional[tuple[Node, ...]] = None
    last_hops: int = 0

    @property
    def delivered(self) -> bool:
        return self.delivered_round is not None


class Adversary(enum.Enum):
    """Where a packet caught in a cycle sits when the next round begins:
    where it stopped, or the cycle's smallest or largest node id.  The
    values are the CLI's ``--adversary`` names."""

    STAY = "stay"
    MIN_ID = "min-id"
    MAX_ID = "max-id"


@dataclass(frozen=True)
class EngineState:
    net: Network
    round: int
    rg: RoutingGraph
    paths: tuple[Path, ...]
    packets: tuple[PacketState, ...]
    trace: tuple[str, ...]

    @property
    def clear_set(self) -> frozenset[Node]:
        return frozenset(v for v in self.net.nodes() if self.paths[v])

    @property
    def opaque_set(self) -> frozenset[Node]:
        return frozenset(v for v in self.net.nodes() if not self.paths[v])

    @property
    def all_delivered(self) -> bool:
        return all(p.delivered for p in self.packets)

    @staticmethod
    def initial(net: Network, rg0: Optional[RoutingGraph] = None) -> "EngineState":
        """Round-0 state: verified paths on rg0 and one packet per non-sink node.

        rg0 defaults to the all-first-choice graph.
        """
        rg = rg0 if rg0 is not None else RoutingGraph.first_choice(net)
        paths, _ = resolve(rg, net.sink)
        packets = tuple(
            PacketState(origin=v, location=v) for v in net.non_sink_nodes()
        )
        state = EngineState(
            net=net, round=0, rg=rg, paths=paths, packets=packets, trace=()
        )
        return replace(state, trace=(_verify_line(0, state),))


def _fmt_path(path: Path) -> str:
    return "-".join(str(v) for v in path) if path else "empty"


def _verify_line(t: int, state: EngineState) -> str:
    inside = ",".join(str(v) for v in sorted(state.clear_set))
    return f"round {t} | verify clear={{{inside}}}"


def best_valid(net: Network, paths: Sequence[Path], v: Node) -> Optional[Node]:
    """Earliest neighbour in prefs[v] that is clear under ``paths`` and whose
    path avoids v's filtering list; None when no neighbour qualifies."""
    filt = net.filters[v]
    for w in net.prefs[v]:
        path = paths[w]
        if path and not (filt and filt.intersection(path)):
            return w
    return None


def activate(state: EngineState, *order: Node) -> EngineState:
    """Control-plane steps: the nodes of ``order`` activate in turn, each
    adopting its best valid choice given the activations before it.

    With no valid choice the believed path empties and the outgoing arc is
    removed, keeping the routing graph in step with the believed state.
    """
    t = state.round + 1
    next_hop = list(state.rg.next_hop)
    paths = list(state.paths)
    lines = []
    for v in order:
        w = best_valid(state.net, paths, v)
        next_hop[v] = w
        if w is None:
            paths[v] = ()
            lines.append(f"round {t} | activate {v} -> none path=empty")
        else:
            paths[v] = (v,) + paths[w]
            path = _fmt_path(paths[v])
            lines.append(f"round {t} | activate {v} -> {w} path={path}")
    return replace(
        state,
        rg=RoutingGraph(tuple(next_hop)),
        paths=tuple(paths),
        trace=state.trace + tuple(lines),
    )


def trips(rg: RoutingGraph, sink: Node):
    """One forwarding phase on rg, from one ``resolve``: returns ``trip``,
    where ``trip(v)`` is (seq, end, cycle) for a packet at v that moves n hops
    or reaches the sink.

    ``seq`` is the walk's simple part: v's path when it is delivered (``end``
    is the sink), the walk to the node with no next hop (``end``), or the
    lead-in up to and including the first node of its capturing ``cycle``
    (smallest id first; None otherwise).  A captured packet spends its other
    n - lead hops going round the cycle, so ``end`` is found by cycle
    arithmetic.  A cycle's node positions are indexed once, on first use.
    """
    nxt = rg.next_hop
    n = len(nxt)
    paths, cycle_of = resolve(rg, sink)
    at: list[Optional[int]] = [None] * n  # position on an indexed cycle

    def trip(v: Node):
        if paths[v]:
            return paths[v], sink, None
        cycle = cycle_of[v]
        if cycle is not None and at[cycle[0]] is None:
            for i, u in enumerate(cycle):
                at[u] = i
        seq = [v]  # a simple walk: it stops on the cycle or at a dead end
        while at[seq[-1]] is None and nxt[seq[-1]] is not None:
            seq.append(nxt[seq[-1]])
        if cycle is None:
            return seq, seq[-1], None
        return seq, cycle[(at[seq[-1]] + n - len(seq) + 1) % len(cycle)], cycle

    return trip


def forward_packets(state: EngineState) -> EngineState:
    """Forwarding phase: each live packet moves at most n hops or reaches
    the sink.  A packet at a node with no next hop stays put.  A captured
    packet's lines for one lap of its cycle are formatted once and repeated
    for every lap."""
    t = state.round + 1
    n = state.net.n
    trip = trips(state.rg, state.net.sink)
    arc = [f"{u}->{w}" for u, w in enumerate(state.rg.next_hop)]
    lines: list[str] = []
    packets: list[PacketState] = []
    for pkt in state.packets:
        if pkt.delivered:
            packets.append(pkt)
            continue
        seq, end, cycle = trip(pkt.location)
        head = f"round {t} | forward pkt={pkt.origin} "
        lines += [head + arc[u] for u in seq[:-1]]
        hops = len(seq) - 1
        if cycle is not None:
            j = cycle.index(seq[-1])
            lap = [head + arc[u] for u in cycle[j:] + cycle[:j]]
            laps, rest = divmod(n - hops, len(cycle))
            lines += lap * laps
            lines += lap[:rest]
            packets.append(PacketState(pkt.origin, end, None, cycle, n))
        elif end == state.net.sink:
            lines.append(f"round {t} | delivered pkt={pkt.origin}")
            packets.append(PacketState(pkt.origin, None, t, None, hops))
        else:
            packets.append(PacketState(pkt.origin, end, None, None, hops))
    return replace(
        state, packets=tuple(packets), trace=state.trace + tuple(lines)
    )


def route_verification(state: EngineState) -> EngineState:
    """Every node learns its true path in the routing graph."""
    t = state.round + 1
    paths, _ = resolve(state.rg, state.net.sink)
    state = replace(state, paths=paths)
    return replace(state, trace=state.trace + (_verify_line(t, state),))


def place_cycled_packets(state: EngineState, policy: Adversary) -> EngineState:
    """Reposition packets captured in cycles, per the adversary."""
    if policy is Adversary.STAY:
        return state
    pick = {Adversary.MIN_ID: min, Adversary.MAX_ID: max}[policy]
    t = state.round + 1
    packets = []
    lines = []
    for pkt in state.packets:
        if pkt.last_cycle and not pkt.delivered:
            dest = pick(pkt.last_cycle)
            if dest != pkt.location:
                lines.append(
                    f"round {t} | adversary pkt={pkt.origin} {pkt.location}->{dest}"
                )
            packets.append(
                PacketState(pkt.origin, dest, None, pkt.last_cycle, pkt.last_hops)
            )
        else:
            packets.append(pkt)
    return replace(
        state, packets=tuple(packets), trace=state.trace + tuple(lines)
    )


def run_round(
    state: EngineState,
    perm: Sequence[Node],
    policy: Adversary = Adversary.STAY,
) -> EngineState:
    """Execute one full round under a fair activation permutation."""
    if sorted(perm) != sorted(state.net.non_sink_nodes()):
        raise FairnessError(
            f"permutation {list(perm)} is not a permutation of the non-sink nodes"
        )
    t = state.round + 1
    state = place_cycled_packets(state, policy)
    state = activate(state, *perm)
    state = forward_packets(state)
    state = route_verification(state)
    return replace(state, round=t)


def is_equilibrium(state: EngineState) -> bool:
    """True when every node is consistent and sits on its best valid choice
    (no valid choice if and only if its path is empty)."""
    if state.paths != resolve(state.rg, state.net.sink)[0]:
        return False
    for v in state.net.non_sink_nodes():
        if state.rg.next_hop[v] != best_valid(state.net, state.paths, v):
            return False
    return True


class Scheduler(Protocol):
    """Per-round permutation source; may observe the full engine state."""

    def permutation(self, state: EngineState) -> list[Node]: ...

    def after_round(self, state: EngineState) -> None: ...


class Stop(enum.Enum):
    """When :func:`run` stops early; the values are the CLI's ``--stop``
    names."""

    ALL_DELIVERED = "delivered"
    EQUILIBRIUM = "equilibrium"
    ROUNDS = "rounds"


def stop_met(state: EngineState, stop: Stop) -> bool:
    if stop is Stop.ALL_DELIVERED:
        return state.all_delivered
    if stop is Stop.EQUILIBRIUM:
        return is_equilibrium(state)
    return True


def run(
    state: EngineState,
    scheduler: Scheduler,
    max_rounds: int,
    stop: Stop = Stop.ROUNDS,
    policy: Adversary = Adversary.STAY,
) -> tuple[EngineState, tuple[str, ...]]:
    """Drive rounds until the stop condition or max_rounds.

    With ``Stop.ROUNDS`` exactly ``max_rounds`` rounds are executed.
    """
    for _ in range(max_rounds):
        if stop is not Stop.ROUNDS and stop_met(state, stop):
            break
        perm = scheduler.permutation(state)
        state = run_round(state, perm, policy)
        scheduler.after_round(state)
    return state, state.trace


def imperfect_rounds(state: EngineState) -> tuple[int, ...]:
    """Rounds at whose end some round-0 packet was still undelivered."""
    out = []
    for t in range(1, state.round + 1):
        if any(
            p.delivered_round is None or p.delivered_round > t
            for p in state.packets
        ):
            out.append(t)
    return tuple(out)


def trace_permutations(trace: Sequence[str]) -> list[list[Node]]:
    """Recover the per-round activation permutations from a trace."""
    rounds: dict[int, list[Node]] = {}
    for line in trace:
        head, _, rest = line.partition(" | ")
        if rest.startswith("activate "):
            t = int(head.split()[1])
            v = int(rest.split()[1])
            rounds.setdefault(t, []).append(v)
    return [rounds[t] for t in sorted(rounds)]
