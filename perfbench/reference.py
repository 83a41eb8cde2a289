"""Reference checker for the benchmark, sharing no code with ``nexthop``.

Three small, plain computations that the benchmark compares the program's
outputs against:

* a next-hop simulator that replays recorded activation permutations under a
  packet-cycling adversary and reports the same summary figures as
  ``nexthop run``;
* a best-valid-choice equilibrium test on a routing graph, and brute-force
  enumeration of equilibria with it;
* truth-table satisfiability for 3-CNF formulas.

Instances are read from the canonical instance text, with this module's own
parser, so a fault in the program's reader or writer shows as a mismatch.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence


@dataclass(frozen=True)
class Instance:
    n: int
    sink: int
    prefs: tuple[tuple[int, ...], ...]
    filters: tuple[frozenset[int], ...]
    rg0: Optional[tuple[Optional[int], ...]]  # None: every node's first choice

    def initial_next_hops(self) -> list[Optional[int]]:
        if self.rg0 is not None:
            return list(self.rg0)
        return [p[0] if p else None for p in self.prefs]


def read_instance(text: str) -> Instance:
    """Parse ``nodes``/``sink``/``prefs``/``filter``/``rg0`` directives."""
    n = sink = None
    prefs: dict[int, tuple[int, ...]] = {}
    filters: dict[int, frozenset[int]] = {}
    rg0: Optional[dict[int, Optional[int]]] = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, rest = line.partition(" ")
        if key == "nodes":
            n = int(rest)
        elif key == "sink":
            sink = int(rest)
        else:
            head, _, body = rest.partition(":")
            v = int(head)
            values = tuple(int(tok) for tok in body.split())
            if key == "prefs":
                prefs[v] = values
            elif key == "filter":
                filters[v] = frozenset(values)
            elif key == "rg0":
                rg0 = {} if rg0 is None else rg0
                rg0[v] = values[0] if values else None
            else:
                raise ValueError(f"unknown directive {key!r}")
    if n is None or sink is None:
        raise ValueError("instance lacks 'nodes' or 'sink'")
    return Instance(
        n=n,
        sink=sink,
        prefs=tuple(prefs.get(v, ()) for v in range(n)),
        filters=tuple(filters.get(v, frozenset()) for v in range(n)),
        rg0=None if rg0 is None else tuple(rg0.get(v) for v in range(n)),
    )


def true_path(nxt: Sequence[Optional[int]], v: int, sink: int) -> tuple[int, ...]:
    """The walk from v to the sink along next hops; () if it never gets there."""
    path = [v]
    while path[-1] != sink:
        w = nxt[path[-1]]
        if w is None or w in path:
            return ()
        path.append(w)
    return tuple(path)


def best_choice(
    inst: Instance, v: int, paths: Sequence[tuple[int, ...]]
) -> Optional[int]:
    """v's most preferred neighbour whose path exists and avoids v's filter."""
    for w in inst.prefs[v]:
        if paths[w] and not inst.filters[v].intersection(paths[w]):
            return w
    return None


def is_equilibrium(inst: Instance, nxt: Sequence[Optional[int]]) -> bool:
    """Every non-sink node sits on its best valid choice under true paths."""
    paths = [true_path(nxt, v, inst.sink) for v in range(inst.n)]
    return all(
        nxt[v] == best_choice(inst, v, paths)
        for v in range(inst.n)
        if v != inst.sink
    )


def equilibria(inst: Instance) -> list[tuple[Optional[int], ...]]:
    """Every choice function (a neighbour or nothing per non-sink node) that
    is an equilibrium, by brute force."""
    options = [
        list(inst.prefs[v]) + [None] if v != inst.sink else [None]
        for v in range(inst.n)
    ]
    return [nxt for nxt in itertools.product(*options) if is_equilibrium(inst, nxt)]


def max_stable_size(inst: Instance) -> int:
    """Largest sink-component (sink included) over all equilibria; 1, the
    bare sink, when there is none."""
    return max(
        (sum(1 for v in range(inst.n) if true_path(nxt, v, inst.sink))
         for nxt in equilibria(inst)),
        default=1,
    )


def is_permutation_round(inst: Instance, perm: Sequence[int]) -> bool:
    """A fair round activates every non-sink node exactly once."""
    return sorted(perm) == [v for v in range(inst.n) if v != inst.sink]


@dataclass(frozen=True)
class Summary:
    delivered: int
    total: int
    last_round: Optional[int]
    equilibrium: bool
    imperfect_rounds: int
    rounds: int


@dataclass(frozen=True)
class Replay:
    summary: Summary
    delivered_round: dict[int, int]  # origin -> round of delivery
    next_hops: tuple[Optional[int], ...]


def _cycle_through(nxt: Sequence[Optional[int]], v: int) -> list[int]:
    cycle = [v]
    while nxt[cycle[-1]] != v:
        cycle.append(nxt[cycle[-1]])
    return cycle


def simulate(
    inst: Instance, perms: Sequence[Sequence[int]], adversary: str = "stay"
) -> Replay:
    """Replay one activation permutation per round.

    A round repositions packets caught in a cycle by the previous round
    (``min-id``/``max-id``: to the cycle's smallest/largest node; ``stay``:
    left where they are), activates the nodes in order, moves every live
    packet up to n hops, and resets every path to the true path.
    """
    n, sink = inst.n, inst.sink
    nxt = inst.initial_next_hops()
    paths = [true_path(nxt, v, sink) for v in range(n)]
    where = {v: v for v in range(n) if v != sink}  # live packets by origin
    caught: dict[int, list[int]] = {}
    delivered: dict[int, int] = {}
    imperfect = 0
    pick = {"min-id": min, "max-id": max}.get(adversary)
    for t, perm in enumerate(perms, start=1):
        if pick is not None:
            for pid, cycle in caught.items():
                where[pid] = pick(cycle)
        caught = {}
        for v in perm:
            w = best_choice(inst, v, paths)
            nxt[v] = w
            paths[v] = (v,) + paths[w] if w is not None else ()
        for pid in sorted(where):
            cur, hops = where[pid], 0
            while hops < n and cur != sink and nxt[cur] is not None:
                cur = nxt[cur]
                hops += 1
            if cur == sink:
                delivered[pid] = t
                del where[pid]
            else:
                where[pid] = cur
                if hops == n:
                    caught[pid] = _cycle_through(nxt, cur)
        paths = [true_path(nxt, v, sink) for v in range(n)]
        imperfect += bool(where)
    summary = Summary(
        delivered=len(delivered),
        total=n - 1,
        last_round=max(delivered.values(), default=None),
        equilibrium=is_equilibrium(inst, nxt),
        imperfect_rounds=imperfect,
        rounds=len(perms),
    )
    return Replay(summary, delivered, tuple(nxt))


def parse_summary(line: str) -> Summary:
    """Read the one-line summary that ``nexthop run`` prints."""
    parts = dict(
        part.split(": ", 1) if ": " in part else ("delivered", part)
        for part in line.strip().split("; ")
    )
    words = parts["delivered"].split()
    done, total = (int(x) for x in words[1].split("/"))
    return Summary(
        delivered=done,
        total=total,
        last_round=int(words[-1]) if words[2] == "by" else None,
        equilibrium=parts["equilibrium"] == "yes",
        imperfect_rounds=int(parts["imperfect rounds"]),
        rounds=int(parts["rounds executed"]),
    )


def read_permutations(text: str) -> list[list[int]]:
    return [[int(tok) for tok in line.split()] for line in text.splitlines() if line]


def trace_permutations(trace_lines: Sequence[str]) -> list[list[int]]:
    """Activation order per round, read from ``round t | activate v ...`` lines."""
    rounds: list[list[int]] = []
    for line in trace_lines:
        head, _, event = line.partition(" | ")
        if event.startswith("activate "):
            t = int(head.split()[1])
            while len(rounds) < t:
                rounds.append([])
            rounds[t - 1].append(int(event.split()[1]))
    return rounds


def satisfies(bits: Sequence[bool], clauses: Sequence[Sequence[int]]) -> bool:
    return all(
        any(bits[abs(lit) - 1] == (lit > 0) for lit in clause) for clause in clauses
    )


def satisfiable(num_vars: int, clauses: Sequence[Sequence[int]]) -> bool:
    """Truth-table decision over all 2**num_vars assignments."""
    return any(
        satisfies(bits, clauses)
        for bits in itertools.product((False, True), repeat=num_vars)
    )
