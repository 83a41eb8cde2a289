"""Round-based dynamics: activation, packet forwarding, route verification.

A round runs four phases in order: adversarial repositioning of cycling
packets (one of the :class:`Adversary` rules), the control plane (every
non-sink node activates once, in the scheduler's permutation), the
forwarding plane (each live packet moves up to n hops or reaches the sink),
and route verification (every believed path is reset to the true path in
the routing graph).

Forwarding works by cycle arithmetic: a delivered packet's hops are its
path, and a captured packet's are the lead-in to its cycle followed by
n - lead hops round it.  The trace still holds one line per hop, but a
lap's lines are formatted once and repeated for every lap.  A packet
parked at a node with no next hop makes no hop and emits no line.

Every engine function returns a new state, with the trace extended, and
leaves its argument untouched.  :func:`run_round` does a whole round in
one pass over plain lists, with one ``model.resolve`` of the
post-activation graph for forwarding and verification and one trace
extension; the four phase functions wrap the same list code.  A
simulation is therefore a pure function of (network, initial routing
graph, scheduler, adversary).
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
    def all_delivered(self) -> bool:
        return all(p.delivered for p in self.packets)

    @staticmethod
    def initial(net: Network, rg0: Optional[RoutingGraph] = None) -> "EngineState":
        """Round-0 state: verified paths on rg0 and one packet per non-sink node.

        rg0 defaults to the all-first-choice graph.  ``net`` needs no check:
        a ``model.Network`` is valid by construction.
        """
        rg = rg0 if rg0 is not None else RoutingGraph.first_choice(net)
        paths, _ = resolve(rg, net.sink)
        packets = tuple(
            PacketState(origin=v, location=v) for v in net.non_sink_nodes()
        )
        return EngineState(
            net=net, round=0, rg=rg, paths=paths, packets=packets,
            trace=(_verify_line(0, paths),),
        )


def _fmt_path(path: Path) -> str:
    return "-".join(str(v) for v in path) if path else "empty"


def _verify_line(t: int, paths: Sequence[Path]) -> str:
    inside = ",".join(str(v) for v, path in enumerate(paths) if path)
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


def _activate(net: Network, next_hop: list, paths: list, order, t: int, lines):
    """The control plane on plain lists: each node of ``order`` adopts its
    best valid choice.  A new path's text extends its next hop's, which a
    memo keyed by path holds once formatted."""
    text: dict[Path, str] = {}
    for v in order:
        w = best_valid(net, paths, v)
        next_hop[v] = w
        if w is None:
            paths[v] = ()
            lines.append(f"round {t} | activate {v} -> none path=empty")
        else:
            tail = paths[w]
            path = paths[v] = (v,) + tail
            line = text[path] = f"{v}-{text.get(tail) or _fmt_path(tail)}"
            lines.append(f"round {t} | activate {v} -> {w} path={line}")


def activate(state: EngineState, *order: Node) -> EngineState:
    """Control-plane steps: the nodes of ``order`` activate in turn, each
    adopting its best valid choice given the activations before it.

    With no valid choice the believed path empties and the outgoing arc is
    removed, keeping the routing graph in step with the believed state.
    """
    next_hop, paths, lines = list(state.rg.next_hop), list(state.paths), []
    _activate(state.net, next_hop, paths, order, state.round + 1, lines)
    return replace(
        state,
        rg=RoutingGraph(tuple(next_hop)),
        paths=tuple(paths),
        trace=state.trace + tuple(lines),
    )


def _forward(net: Network, rg: RoutingGraph, resolved, packets: list, t: int, lines):
    """The forwarding plane on a plain packet list, read from ``resolved``,
    the ``resolve`` of rg.  A delivered packet's hops are its path.  Any
    other packet walks to a dead end or up to the first node of its capturing
    cycle, a cycle's node positions being indexed on first use, and a
    captured packet spends its other n - lead hops going round the cycle.  A
    packet parked at a node with no next hop makes no hop and emits no line;
    its state is only rebuilt to drop a capture or hop count left from an
    earlier round."""
    nxt, n = rg.next_hop, net.n
    paths, cycle_of = resolved
    at: list[Optional[int]] = [None] * n  # position on an indexed cycle
    arc = [f"{u}->{w}" for u, w in enumerate(nxt)]
    for i, pkt in enumerate(packets):
        if pkt.delivered_round is not None:
            continue
        v = pkt.location
        if nxt[v] is None:
            if pkt.last_cycle is not None or pkt.last_hops:
                packets[i] = PacketState(pkt.origin, v)
            continue
        head = f"round {t} | forward pkt={pkt.origin} "
        if paths[v]:
            lines += [head + arc[u] for u in paths[v][:-1]]
            lines.append(f"round {t} | delivered pkt={pkt.origin}")
            packets[i] = PacketState(pkt.origin, None, t, None, len(paths[v]) - 1)
            continue
        cycle = cycle_of[v]
        if cycle is not None and at[cycle[0]] is None:
            for k, u in enumerate(cycle):
                at[u] = k
        seq = [v]  # a simple walk: it stops on the cycle or at a dead end
        while at[seq[-1]] is None and nxt[seq[-1]] is not None:
            seq.append(nxt[seq[-1]])
        lines += [head + arc[u] for u in seq[:-1]]
        hops = len(seq) - 1
        if cycle is None:
            packets[i] = PacketState(pkt.origin, seq[-1], None, None, hops)
            continue
        j = at[seq[-1]]
        lap = [head + arc[u] for u in cycle[j:] + cycle[:j]]
        laps, rest = divmod(n - hops, len(cycle))
        lines += lap * laps
        lines += lap[:rest]
        end = cycle[(j + n - hops) % len(cycle)]
        packets[i] = PacketState(pkt.origin, end, None, cycle, n)


def forward_packets(state: EngineState) -> EngineState:
    """Forwarding phase: each live packet moves at most n hops or reaches
    the sink.  A packet at a node with no next hop stays put.  A captured
    packet's lines for one lap of its cycle are formatted once and repeated
    for every lap."""
    packets, lines = list(state.packets), []
    resolved = resolve(state.rg, state.net.sink)
    _forward(state.net, state.rg, resolved, packets, state.round + 1, lines)
    return replace(
        state, packets=tuple(packets), trace=state.trace + tuple(lines)
    )


def route_verification(state: EngineState) -> EngineState:
    """Every node learns its true path in the routing graph."""
    paths, _ = resolve(state.rg, state.net.sink)
    line = _verify_line(state.round + 1, paths)
    return replace(state, paths=paths, trace=state.trace + (line,))


def _place(packets: list, policy: Adversary, t: int, lines: list) -> None:
    """The adversary on a plain packet list: a packet captured in the last
    forwarding phase moves to its cycle's node of the policy's choice."""
    if policy is Adversary.STAY:
        return
    pick = {Adversary.MIN_ID: min, Adversary.MAX_ID: max}[policy]
    for i, pkt in enumerate(packets):
        if pkt.last_cycle and not pkt.delivered:
            dest = pick(pkt.last_cycle)
            if dest != pkt.location:
                lines.append(
                    f"round {t} | adversary pkt={pkt.origin} {pkt.location}->{dest}"
                )
                packets[i] = PacketState(
                    pkt.origin, dest, None, pkt.last_cycle, pkt.last_hops
                )


def place_cycled_packets(state: EngineState, policy: Adversary) -> EngineState:
    """Reposition packets captured in cycles, per the adversary."""
    packets, lines = list(state.packets), []
    _place(packets, policy, state.round + 1, lines)
    return replace(
        state, packets=tuple(packets), trace=state.trace + tuple(lines)
    )


def run_round(
    state: EngineState,
    perm: Sequence[Node],
    policy: Adversary = Adversary.STAY,
) -> EngineState:
    """Execute one full round under a fair activation permutation: the
    adversary, activations, forwarding and verification in one pass over
    plain lists, with one ``resolve`` of the new routing graph."""
    if sorted(perm) != list(state.net.non_sink_nodes()):
        raise FairnessError(
            f"permutation {list(perm)} is not a permutation of the non-sink nodes"
        )
    net, t = state.net, state.round + 1
    packets, lines = list(state.packets), []
    next_hop, paths = list(state.rg.next_hop), list(state.paths)
    _place(packets, policy, t, lines)
    _activate(net, next_hop, paths, perm, t, lines)
    rg = RoutingGraph(tuple(next_hop))
    resolved = resolve(rg, net.sink)
    _forward(net, rg, resolved, packets, t, lines)
    lines.append(_verify_line(t, resolved[0]))
    trace = state.trace + tuple(lines)
    return EngineState(net, t, rg, resolved[0], tuple(packets), trace)


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
