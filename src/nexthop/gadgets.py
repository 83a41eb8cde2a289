"""3-CNF hardness instances: construction and desk-scale verification.

A formula becomes a network in which stable trees mirror satisfying
assignments.  Each variable gets a four-node gadget whose two internal
configurations encode true/false; each clause gets a five-node gadget that
can reach the sink without the dummy sink d0 only when the encoded
assignment satisfies it; L padding nodes hang off the last clause and can
join a stable tree only when every clause is satisfied.  Gadgets are chained
so the path of any clause's tail node traverses one side of every variable
gadget, which is what the clause filters inspect.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .analysis import is_stable_tree, tree_paths
from .engine import best_valid
from .model import Arc, Network, Node, Path


class FormulaError(ValueError):
    """Malformed DIMACS text or an unusable formula."""


class GadgetError(RuntimeError):
    """A structural assertion about the reduction failed."""


class DichotomyError(GadgetError):
    """The stable-tree verdict disagrees with the truth-table oracle."""


@dataclass(frozen=True)
class CnfFormula:
    num_vars: int
    clauses: tuple[tuple[int, int, int], ...]


def parse_formula(text: str) -> CnfFormula:
    """DIMACS-style parser: 'p cnf N M' then M zero-terminated 3-clauses."""
    header: Optional[tuple[int, int]] = None
    literals: list[int] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if header is not None:
                raise FormulaError("duplicate header")
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise FormulaError(f"malformed header {line!r}")
            try:
                header = (int(parts[2]), int(parts[3]))
            except ValueError as exc:
                raise FormulaError(f"malformed header {line!r}") from exc
            continue
        try:
            literals.extend(int(tok) for tok in line.split())
        except ValueError as exc:
            raise FormulaError(f"bad clause line {line!r}") from exc
    if header is None:
        raise FormulaError("missing 'p cnf' header")
    num_vars, num_clauses = header
    clauses: list[tuple[int, int, int]] = []
    current: list[int] = []
    for lit in literals:
        if lit == 0:
            if len(current) != 3:
                raise FormulaError(
                    f"clause {current} has {len(current)} literals, need 3"
                )
            clauses.append(tuple(current))
            current = []
        else:
            if not 1 <= abs(lit) <= num_vars:
                raise FormulaError(f"literal {lit} out of range")
            current.append(lit)
    if current:
        raise FormulaError("unterminated clause")
    if len(clauses) != num_clauses:
        raise FormulaError(
            f"header promises {num_clauses} clauses, found {len(clauses)}"
        )
    return CnfFormula(num_vars=num_vars, clauses=tuple(clauses))


def satisfiable(f: CnfFormula) -> bool:
    """Truth-table decision; stops at the first satisfying assignment."""
    return any(
        all(any((lit > 0) == bits[abs(lit) - 1] for lit in c) for c in f.clauses)
        for bits in itertools.product((False, True), repeat=f.num_vars)
    )


@dataclass(frozen=True)
class GadgetNetwork:
    net: Network
    index: dict[str, Node]  # label -> node id, in id order
    num_vars: int
    num_clauses: int
    padding: int

    def node(self, label: str) -> Node:
        return self.index[label]

    @property
    def chain_size(self) -> int:
        """Count of non-padding nodes."""
        return 4 * self.num_vars + 5 * self.num_clauses + 2


def build_reduction(f: CnfFormula, padding: int) -> GadgetNetwork:
    """Construct the hardness network for a 3-CNF formula.

    Variable gadget i: nodes a_i, uT_i, uF_i, b_i; the u nodes rank a_i
    first and b_i second, a_i ranks uT_i over uF_i, every gadget node
    filters itself.  Clause gadget j: nodes s_j, q_{1..3,j}, t_j; each q
    ranks t_j over the dummy sink d0 and filters the u node whose presence
    on t_j's path means the corresponding literal is falsified; s_j ranks
    the q's in literal order and filters d0, as does t_j.  The gadgets are
    chained b_1 -> sink, b_i -> a_{i-1}, t_1 -> a_N, t_j -> s_{j-1}, and the
    padding nodes all point at s_M and filter d0.
    """
    if padding < 0:
        raise ValueError("padding must be non-negative")
    if f.num_vars < 1 or not f.clauses:
        raise FormulaError("the reduction needs at least one variable and clause")
    n_vars, n_cls = f.num_vars, len(f.clauses)

    labels = ["r", "d0"]
    for i in range(1, n_vars + 1):
        labels += [f"a{i}", f"uT{i}", f"uF{i}", f"b{i}"]
    for j in range(1, n_cls + 1):
        labels += [f"s{j}", f"q1_{j}", f"q2_{j}", f"q3_{j}", f"t{j}"]
    for k in range(1, padding + 1):
        labels.append(f"d{k}")
    idx = {name: i for i, name in enumerate(labels)}

    n = len(labels)
    prefs: list[tuple[int, ...]] = [()] * n
    filters: list[frozenset[int]] = [frozenset()] * n

    prefs[idx["d0"]] = (idx["r"],)
    filters[idx["d0"]] = frozenset({idx["d0"]})

    for i in range(1, n_vars + 1):
        a, ut, uf, b = (idx[f"a{i}"], idx[f"uT{i}"], idx[f"uF{i}"], idx[f"b{i}"])
        prefs[a] = (ut, uf)
        prefs[ut] = (a, b)
        prefs[uf] = (a, b)
        prefs[b] = (idx["r"],) if i == 1 else (idx[f"a{i - 1}"],)
        for v in (a, ut, uf, b):
            filters[v] = frozenset({v})

    for j, clause in enumerate(f.clauses, start=1):
        s, t = idx[f"s{j}"], idx[f"t{j}"]
        qs = tuple(idx[f"q{z}_{j}"] for z in (1, 2, 3))
        prefs[s] = qs
        filters[s] = frozenset({idx["d0"]})
        prefs[t] = (idx[f"a{n_vars}"],) if j == 1 else (idx[f"s{j - 1}"],)
        filters[t] = frozenset({idx["d0"]})
        for z, q in enumerate(qs, start=1):
            lit = clause[z - 1]
            i = abs(lit)
            # the filtered u node is the one that sits on t_j's path exactly
            # when the assignment of x_i falsifies this literal
            side = f"uT{i}" if lit < 0 else f"uF{i}"
            prefs[q] = (t, idx["d0"])
            filters[q] = frozenset({idx[side]})

    for k in range(1, padding + 1):
        d = idx[f"d{k}"]
        prefs[d] = (idx[f"s{n_cls}"],)
        filters[d] = frozenset({idx["d0"]})

    net = Network(n=n, sink=idx["r"], prefs=tuple(prefs), filters=tuple(filters))
    expected = 4 * n_vars + 5 * n_cls + padding + 2
    if n != expected:
        raise GadgetError(f"node count {n} != {expected}")
    return GadgetNetwork(
        net=net,
        index=idx,
        num_vars=n_vars,
        num_clauses=n_cls,
        padding=padding,
    )


def format_labels(g: GadgetNetwork) -> str:
    return "\n".join(f"label {i} {name}" for i, name in enumerate(g.index)) + "\n"


# ---------------------------------------------------------------------------
# Exact stable-tree searches specialised to the gadget chain.
#
# Raw enumeration over all choice functions is hopeless here (the N=M=2
# instances already have ~1e9 of them), but the chain layout admits an exact
# search over minimal units: every node's out-neighbours sit in its own unit
# or an earlier one, and only a variable's a, uT and uF rank one another, so
# every other node is a unit of its own.  Paths and all stability checks are
# decidable the moment a unit's choices are placed, and the DFS over per-unit
# choice combinations prunes every doomed prefix immediately.
# ---------------------------------------------------------------------------


def _units(g: GadgetNetwork) -> list[list[Node]]:
    """Minimal node blocks, in chain order."""
    idx = g.index
    units = [[idx["d0"]]]
    for i in range(1, g.num_vars + 1):
        units += [[idx[f"b{i}"]], [idx[f"a{i}"], idx[f"uT{i}"], idx[f"uF{i}"]]]
    for j in range(1, g.num_clauses + 1):
        names = (f"t{j}", f"q1_{j}", f"q2_{j}", f"q3_{j}", f"s{j}")
        units += [[idx[name]] for name in names]
    units += [[idx[f"d{k}"]] for k in range(1, g.padding + 1)]
    return units


def spanning_stable_trees(g: GadgetNetwork) -> list[frozenset[Arc]]:
    """All spanning stable trees of a gadget network, exactly.

    A unit's joint pick is kept when every node of the unit sits on its
    best valid choice; every out-neighbour of a unit lies inside it or in
    an earlier unit, so the paths it needs are known.  A pick that closes a
    cycle leaves its nodes' paths empty, and no best valid choice has one.
    A singleton's only possible pick, its best valid choice, is placed in a
    loop, so only the joint units recurse and padding adds no depth.
    """
    net = g.net
    units = _units(g)
    results: list[frozenset[Arc]] = []
    parent: list[Optional[Node]] = [None] * net.n
    paths: list[Path] = [()] * net.n
    paths[net.sink] = (net.sink,)

    def descend(k: int) -> None:
        start = k
        while k < len(units) and len(units[k]) == 1:
            [v] = units[k]
            parent[v] = best_valid(net, paths, v)
            if parent[v] is None:
                break
            paths[v] = (v,) + paths[parent[v]]
            k += 1
        if k == len(units):
            results.append(
                frozenset((v, parent[v]) for v in net.non_sink_nodes())
            )
        elif len(units[k]) > 1:  # else the singleton units[k] has no valid pick
            unit = units[k]
            for picks in itertools.product(*(net.prefs[v] for v in unit)):
                for v, w in zip(unit, picks):
                    parent[v] = w
                # one pass per unit node sets every path that leaves the
                # unit, and the guard builds each path once
                for _ in unit:
                    for v in unit:
                        if not paths[v] and paths[parent[v]]:
                            paths[v] = (v,) + paths[parent[v]]
                if all(best_valid(net, paths, v) == parent[v] for v in unit):
                    descend(k + 1)
                for v in unit:
                    paths[v] = ()
        for [v] in units[start:k]:
            paths[v] = ()

    descend(0)
    for arcs in results:
        report = is_stable_tree(net, arcs)
        if not report.stable or report.size != net.n:
            raise GadgetError("spanning search produced a non-stable tree")
    return results


def stable_tree_with_padding(g: GadgetNetwork) -> Optional[frozenset[Arc]]:
    """A stable tree containing a padding node, if one exists.

    Any stable tree restricted to one member's path to the sink is itself a
    stable tree (paths are preserved and competitors only disappear), and
    conversely a padding node extends any stable tree that gives s_M a
    d0-free path.  So padding membership reduces to: some simple path from
    the first padding node to the sink forms a stable tree on its own.

    Simple paths are walked in preference order, and a prefix is dropped as
    soon as the next node is filtered by a node already on it: every node
    appended after u lies on u's tree path, so that arc would be the
    filter violation :func:`is_stable_tree` reports, whatever the rest of
    the path.  Every complete path is still checked by ``is_stable_tree``.
    """
    if not g.padding:
        return None
    net = g.net
    start = g.node("d1")

    def paths_from(v: Node, seen: tuple[Node, ...], banned: frozenset[Node]):
        if v == net.sink:
            yield seen
            return
        for w in net.prefs[v]:
            if w not in seen and w not in banned:
                yield from paths_from(w, seen + (w,), banned | net.filters[w])

    for path in paths_from(start, (start,), net.filters[start]):
        arcs = frozenset(zip(path, path[1:]))
        if is_stable_tree(net, arcs).stable:
            return arcs
    return None


def decode_assignment(g: GadgetNetwork, arcs: frozenset[Arc]) -> tuple[bool, ...]:
    """Variable assignment encoded by a spanning stable tree."""
    parent = dict(arcs)
    bits = []
    for i in range(1, g.num_vars + 1):
        a, ut = g.node(f"a{i}"), g.node(f"uT{i}")
        bits.append(parent.get(a) == ut)
    return tuple(bits)


def _assert_one_u_per_gadget(g: GadgetNetwork, arcs: frozenset[Arc]) -> None:
    # each clause tail's path must pierce exactly one side of every gadget
    paths = tree_paths(arcs, g.net.sink)
    for j in range(1, g.num_clauses + 1):
        path = set(paths[g.node(f"t{j}")])
        for i in range(1, g.num_vars + 1):
            hits = len(path & {g.node(f"uT{i}"), g.node(f"uF{i}")})
            if hits != 1:
                raise GadgetError(
                    f"t{j}'s path meets gadget {i} in {hits} u-nodes"
                )


@dataclass(frozen=True)
class DichotomyReport:
    satisfiable: bool
    spanning_trees: tuple[frozenset[Arc], ...]
    assignments: tuple[tuple[bool, ...], ...]
    padding_tree: Optional[frozenset[Arc]]
    node_count: int
    chain_size: int

    @property
    def classification(self) -> str:
        return "YES" if self.spanning_trees else "NO"

    @property
    def max_size_bound(self) -> int:
        return self.node_count if self.spanning_trees else self.chain_size


def verify_dichotomy(f: CnfFormula, padding: int) -> DichotomyReport:
    """Classify a formula's network and cross-check against truth-table SAT.

    YES means a spanning stable tree exists; NO means no stable tree
    contains a padding node, which caps every stable tree at the chain size.
    A mismatch with the truth-table oracle raises :class:`DichotomyError`.
    """
    g = build_reduction(f, padding)
    sat = satisfiable(f)
    spanning = spanning_stable_trees(g)
    if bool(spanning) != sat:
        raise DichotomyError(
            f"satisfiable={sat} but spanning stable trees={len(spanning)}"
        )
    assignments = []
    for arcs in spanning:
        _assert_one_u_per_gadget(g, arcs)
        assignments.append(decode_assignment(g, arcs))
    padding_tree = None
    if not sat:
        padding_tree = stable_tree_with_padding(g)
        if padding_tree is not None:
            raise DichotomyError(
                "unsatisfiable formula admits a stable tree with padding"
            )
    return DichotomyReport(
        satisfiable=sat,
        spanning_trees=tuple(spanning),
        assignments=tuple(assignments),
        padding_tree=padding_tree,
        node_count=g.net.n,
        chain_size=g.chain_size,
    )
