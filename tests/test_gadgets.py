from __future__ import annotations

import itertools

import pytest

from conftest import assert_packet_gap
from nexthop.analysis import enumerate_equilibria, is_stable_tree, sink_component
from nexthop.gadgets import (
    CnfFormula,
    FormulaError,
    GadgetError,
    build_reduction,
    decode_assignment,
    format_labels,
    parse_formula,
    satisfiable,
    spanning_stable_trees,
    stable_tree_with_padding,
    verify_dichotomy,
    _assert_one_u_per_gadget,
    _units,
)


def test_parse_formula_basics():
    f = parse_formula("p cnf 3 1\n1 2 3 0\n")
    assert f.num_vars == 3 and f.clauses == ((1, 2, 3),)
    rep = parse_formula("c comment\np cnf 1 1\n1 -1 1 0")
    assert rep.clauses == ((1, -1, 1),)


def test_parse_formula_errors():
    with pytest.raises(FormulaError):
        parse_formula("p cnf 2 1\n1 2 0")  # arity 2
    with pytest.raises(FormulaError):
        parse_formula("p cnf 1 1\n1 2 1 0")  # variable out of range
    with pytest.raises(FormulaError):
        parse_formula("1 2 3 0")  # missing header
    with pytest.raises(FormulaError):
        parse_formula("p dimacs 1 1\n1 1 1 0")


def test_node_count_formula_and_filters():
    for n_vars, n_cls, padding in itertools.product((1, 2, 3), (1, 2), (0, 3)):
        clauses = tuple(
            tuple(((z + j) % n_vars) + 1 for z in range(3)) for j in range(n_cls)
        )
        f = CnfFormula(n_vars, clauses)
        g = build_reduction(f, padding)
        assert g.net.n == 4 * n_vars + 5 * n_cls + padding + 2
        for v in g.net.nodes():
            if v != g.net.sink:
                assert len(g.net.filters[v]) == 1


def test_reduction_validates_at_scale():
    for n_vars in range(1, 5):
        for n_cls in range(1, 5):
            clauses = tuple(
                tuple((((z + j) % n_vars) + 1) * (-1 if z == 1 else 1) for z in range(3))
                for j in range(n_cls)
            )
            for padding in range(6):
                # building the network validates it
                build_reduction(CnfFormula(n_vars, clauses), padding)


def test_clause_filters_follow_literal_sign():
    f = CnfFormula(2, ((1, -2, 1),))
    g = build_reduction(f, 0)
    # positive literal filters the false-side node, negative the true side
    assert g.net.filters[g.node("q1_1")] == {g.node("uF1")}
    assert g.net.filters[g.node("q2_1")] == {g.node("uT2")}
    assert g.net.filters[g.node("q3_1")] == {g.node("uF1")}
    assert g.net.filters[g.node("s1")] == {g.node("d0")}
    assert g.net.filters[g.node("t1")] == {g.node("d0")}


def test_dichotomy_satisfiable_single_clause():
    f = parse_formula("p cnf 1 1\n1 1 1 0")
    rep = verify_dichotomy(f, 2)
    assert rep.classification == "YES"
    assert rep.assignments == ((True,),)
    assert rep.max_size_bound == rep.node_count == 13


def test_dichotomy_unsatisfiable_pair():
    f = CnfFormula(1, ((1, 1, 1), (-1, -1, -1)))
    rep = verify_dichotomy(f, 2)
    assert rep.classification == "NO"
    assert rep.max_size_bound == 4 * 1 + 5 * 2 + 2 == 16
    assert rep.padding_tree is None


def test_long_padding_does_not_deepen_the_search():
    # the recursion follows variable units only, so 2,000 padding nodes
    # need no raised recursion limit
    f = parse_formula("p cnf 1 2\n1 1 1 0\n1 1 -1 0\n")
    rep = verify_dichotomy(f, 2000)
    assert rep.classification == "YES"
    assert rep.assignments == ((True,),)
    assert rep.node_count == 4 + 5 * 2 + 2000 + 2


def test_padding_tree_found_when_satisfiable():
    g = build_reduction(CnfFormula(1, ((1, 1, 1),)), 2)
    arcs = stable_tree_with_padding(g)
    assert arcs is not None
    assert any(u == g.node("d1") for u, _ in arcs)


def _unpruned_padding_tree(g):
    """Reference: every simple path from d1 to the sink, in preference
    order, checked whole by ``is_stable_tree``; the first stable one."""
    net = g.net

    def paths_from(v, seen):
        if v == net.sink:
            yield seen
            return
        for w in net.prefs[v]:
            if w not in seen:
                yield from paths_from(w, seen + (w,))

    for path in paths_from(g.node("d1"), (g.node("d1"),)):
        arcs = frozenset(zip(path, path[1:]))
        if is_stable_tree(net, arcs).stable:
            return arcs
    return None


def test_padding_search_matches_unpruned_reference():
    # every formula of acceptance criterion 7, at padding 1 and 2
    verdicts = set()
    for n_vars in (1, 2):
        lits = list(range(1, n_vars + 1)) + [-v for v in range(1, n_vars + 1)]
        pool = list(itertools.product(lits, repeat=3))
        for m in (1, 2):
            for clauses in itertools.product(pool, repeat=m):
                f = CnfFormula(n_vars, clauses)
                for padding in (1, 2):
                    g = build_reduction(f, padding)
                    arcs = stable_tree_with_padding(g)
                    assert arcs == _unpruned_padding_tree(g), clauses
                    verdicts.add((satisfiable(f), arcs is not None))
    assert verdicts == {(True, True), (False, False)}


def test_variable_gadget_exclusivity_via_enumeration():
    # brute-force equilibria of a small instance: any fully contained gadget
    # uses exactly one of the two canonical arc triples
    f = CnfFormula(1, ((1, -1, 1),))
    g = build_reduction(f, 1)
    for rg in enumerate_equilibria(g.net, budget=500_000):
        comp = sink_component(rg, g.net)
        gadget = {g.node(x) for x in ("a1", "uT1", "uF1", "b1")}
        if not gadget <= comp:
            continue
        nxt = rg.next_hop
        config_true = (
            nxt[g.node("uT1")] == g.node("b1")
            and nxt[g.node("uF1")] == g.node("a1")
            and nxt[g.node("a1")] == g.node("uT1")
        )
        config_false = (
            nxt[g.node("uF1")] == g.node("b1")
            and nxt[g.node("uT1")] == g.node("a1")
            and nxt[g.node("a1")] == g.node("uF1")
        )
        assert config_true != config_false


def test_assignments_biject_with_spanning_trees():
    for clauses in [((1, 2, -1), (-2, 1, 2)), ((1, -2, 2),), ((-1, -1, 2),)]:
        f = CnfFormula(2, clauses)
        g = build_reduction(f, 2)
        trees = spanning_stable_trees(g)
        decoded = [decode_assignment(g, t) for t in trees]
        truth = [  # satisfying assignments, in truth-table (sorted) order
            bits
            for bits in itertools.product((False, True), repeat=2)
            if all(any((lit > 0) == bits[abs(lit) - 1] for lit in c) for c in clauses)
        ]
        assert sorted(decoded) == truth
        assert len(set(decoded)) == len(trees)


def test_clause_tail_missing_every_u_node_is_rejected():
    # t2 reaches the sink through s1 and q1_1 -> d0, so its path meets no
    # u-node of gadget 1, while t1's path meets uT1 only
    g = build_reduction(parse_formula("p cnf 1 2\n1 1 1 0\n1 1 -1 0\n"), 0)
    labelled = [
        ("d0", "r"), ("b1", "r"), ("uT1", "b1"), ("uF1", "b1"), ("a1", "uT1"),
        ("t1", "a1"), ("s1", "q1_1"), ("t2", "s1"), ("s2", "q1_2"),
    ] + [(f"q{z}_{j}", "d0") for z in (1, 2, 3) for j in (1, 2)]
    arcs = frozenset((g.node(u), g.node(w)) for u, w in labelled)
    assert len(arcs) == g.net.n - 1
    with pytest.raises(GadgetError, match="^t2's path meets gadget 1 in 0 u-nodes$"):
        _assert_one_u_per_gadget(g, arcs)


def _criterion_7_formulas(n_vars, m):
    """Criterion 7's formulas with ``n_vars`` variables and ``m`` clauses,
    in its sweep order."""
    lits = list(range(1, n_vars + 1)) + [-v for v in range(1, n_vars + 1)]
    pool = list(itertools.product(lits, repeat=3))
    return [
        CnfFormula(n_vars, clauses)
        for clauses in itertools.product(pool, repeat=m)
    ]


def test_spanning_search_agrees_with_equilibrium_enumeration():
    # the generic pruned enumeration shares no code with the gadget search:
    # on criterion 7's unsatisfiable formulas, a stride of its N=2, M=2 ones
    # and three one-clause formulas, an equilibrium exists, the spanning ones
    # are exactly the gadget search's trees, and only satisfiable formulas
    # reach all n nodes
    unsat = [
        f
        for n_vars in (1, 2)
        for m in (1, 2)
        for f in _criterion_7_formulas(n_vars, m)
        if not satisfiable(f)
    ]
    assert len(unsat) == 6
    one_clause = [CnfFormula(1, (c,)) for c in ((1, 1, 1), (-1, -1, -1), (1, -1, 1))]
    sweep = _criterion_7_formulas(2, 2)[::200]
    for f in dict.fromkeys(one_clause + unsat + sweep):
        for padding in (0, 2):
            g = build_reduction(f, padding)
            n = g.net.n
            equilibria = enumerate_equilibria(g.net, budget=2 * 10**9)
            assert equilibria, (f, padding)
            sizes = [len(sink_component(rg, g.net)) for rg in equilibria]
            spanning = {
                frozenset(rg.arcs())
                for rg, size in zip(equilibria, sizes)
                if size == n
            }
            assert spanning == set(spanning_stable_trees(g)), (f, padding)
            assert (max(sizes) == n) == satisfiable(f), (f, padding)
            if not satisfiable(f):
                assert max(sizes) <= g.chain_size, (f, padding)
            for rg in equilibria:
                assert_packet_gap(g.net, rg)


def test_units_are_minimal_and_in_chain_order():
    for n_vars, n_cls, padding in itertools.product((1, 2, 3), (1, 2, 3), (0, 3)):
        clauses = tuple(
            tuple(((z + j) % n_vars) + 1 for z in range(3)) for j in range(n_cls)
        )
        g = build_reduction(CnfFormula(n_vars, clauses), padding)
        units = _units(g)
        placed = [v for unit in units for v in unit]
        assert sorted(placed) == [v for v in g.net.nodes() if v != g.net.sink]
        earlier = {g.net.sink}
        for unit in units:
            earlier |= set(unit)
            for v in unit:
                assert set(g.net.prefs[v]) <= earlier, (list(g.index)[v], unit)
        joint = [frozenset(unit) for unit in units if len(unit) > 1]
        assert joint == [
            frozenset(g.node(f"{x}{i}") for x in ("a", "uT", "uF"))
            for i in range(1, n_vars + 1)
        ]


def test_format_labels(tmp_path):
    g = build_reduction(CnfFormula(1, ((1, 1, 1),)), 1)
    text = format_labels(g)
    assert "label 0 r" in text and f"label {g.net.n - 1} d1" in text


def test_satisfiable_truth_table():
    assert satisfiable(CnfFormula(2, ((1, 2, 2), (-1, -2, -2))))
    assert not satisfiable(CnfFormula(1, ((1, 1, 1), (-1, -1, -1))))
