"""Workload inputs and jobs.

Each workload turns a seed into instance files and a fixed list of jobs.  A
job's ``run`` is the timed call into ``nexthop``; its ``check`` compares the
output with the reference checker (``reference.py``) or with a bound the
paper proves, and raises :class:`CheckError` on a mismatch; its ``digest``
fingerprints the output so that every pass can be compared with the first
one.  The sizes below set how much work one pass does; they were
chosen so that a pass takes a few seconds and varies little from seed to
seed (see README.md).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional

import reference

# Each family repeats one size.  Chains, unions and gadget shapes cost nearly
# the same whatever the seed, so the pass time varies little between seeds,
# and the job counts put the median job inside one such family: a chain on
# simulate, a union on schedule, a satisfiable dichotomy check on oracle.
# Random networks add seed-dependent work, so they are kept small.

# simulate: random scheduler, min-id adversary, fixed round count
SIM_RANDOM_SIZES = (120,) * 4
SIM_CHAIN_PAIRS = (90,) * 8
SIM_ROUNDS = 8

# schedule: coordination for four rounds, fair-stabilise to equilibrium
COORD_RANDOM_SIZES = (150,) * 2
COORD_CHAIN_PAIRS = (80,) * 4
FAIR_RANDOM_SIZES = (100,) * 2
FAIR_UNION_COPIES = (35,) * 12

# oracle: exact searches on small instances
MST_SIZES = (9,) * 16  # out-degree 2: 3**8 choice functions each
# (variables, clauses) of the satisfiable and the unsatisfiable formulas; the
# cost of a dichotomy check is set by this shape and the padding
CNF_SHAPES = {True: (3, 3), False: (2, 5)}
CNF_COUNT = {True: 30, False: 10}
CNF_PADDINGS = (0, 2)
EXHAUSTIVE_SIZES = (5, 6, 7, 8) * 7
EXHAUSTIVE_CHAIN_PAIRS = (2, 3, 2, 3)


class CheckError(AssertionError):
    """A job's output disagrees with the reference or a proven bound."""


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


@dataclass
class Job:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], None]
    digest: Callable[[Any], str]
    activations: Callable[[Any], int]  # control-plane activations in rounds


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def trace_digest(trace) -> str:
    """SHA-256 of the bytes ``nexthop run --trace`` writes for a trace,
    hashed line by line so that no copy of the whole text is made."""
    h = hashlib.sha256()
    for line in trace:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


# --- instance families ------------------------------------------------------


def nogood_chain(nh, rng: random.Random, pairs: int):
    """Chained NOGOOD gadgets with a clear start.

    Pair i is (u, w); each prefers the other first and then one or both
    nodes of pair i-1 (the sink for i = 0).  The clear start points every
    node at its second choice, so each pair forms a cycle in round 1 and can
    only leave it once the pair below is clear again.
    """
    n = 1 + 2 * pairs
    prefs: list[list[int]] = [[] for _ in range(n)]
    for i in range(pairs):
        u, w = 1 + 2 * i, 2 + 2 * i
        below = [0] if i == 0 else rng.sample([u - 2, u - 1], rng.randint(1, 2))
        prefs[u] = [w] + below
        prefs[w] = [u] + below[::-1]
    net = nh.model.Network.of(prefs)
    nh.model.validate_network(net)
    rg0 = nh.model.RoutingGraph(tuple([None] + [p[1] for p in prefs[1:]]))
    return net, rg0


# the clear-start instance of the acceptance suite whose first round traps
# packets in a cycle; alone it breaks the floor(n/3) delivery bound (see
# archive/), so the workload only uses unions of two or more copies
IMPERFECT_PREFS = ((), (0,), (4, 0), (2, 1), (3,))
IMPERFECT_RG0 = (None, 0, 0, 1, 3)


def imperfect_union(nh, rng: random.Random, copies: int):
    """Disjoint copies of the imperfect-round shape sharing the sink, with
    the non-sink node ids shuffled."""
    n = 1 + 4 * copies
    label = list(range(1, n))
    rng.shuffle(label)
    label = [0] + label
    prefs: list[tuple[int, ...]] = [()] * n
    nxt: list[Optional[int]] = [None] * n
    for c in range(copies):
        def node(x: int) -> int:
            return 0 if x == 0 else label[4 * c + x]

        for x in range(1, 5):
            prefs[node(x)] = tuple(node(y) for y in IMPERFECT_PREFS[x])
            nxt[node(x)] = node(IMPERFECT_RG0[x])
    net = nh.model.Network.of(prefs, filters="self")
    nh.model.validate_network(net)
    return net, nh.model.RoutingGraph(tuple(nxt))


def mixed_filter_network(nh, rng: random.Random, n: int):
    """Random network of out-degree 2 whose filtering lists are empty, the
    node itself or one other node."""
    base = nh.generators.random_network(rng, n, min_deg=2, max_deg=2)
    filters = []
    for v in range(n):
        r = rng.random()
        filters.append(() if r < 0.4 else (v,) if r < 0.7 else (rng.randrange(n),))
    net = nh.model.Network.of(base.prefs, filters)
    nh.model.validate_network(net)
    return net


def random_cnf(rng: random.Random, num_vars: int, m: int, want_sat: bool):
    """3-CNF with m clauses, literals drawn with repetition, redrawn until
    the truth table gives the wanted verdict."""
    lits = [v for v in range(1, num_vars + 1)] + [-v for v in range(1, num_vars + 1)]
    while True:
        clauses = tuple(tuple(rng.choice(lits) for _ in range(3)) for _ in range(m))
        if reference.satisfiable(num_vars, clauses) == want_sat:
            return clauses


def dimacs(num_vars: int, clauses) -> str:
    lines = [f"p cnf {num_vars} {len(clauses)}"]
    lines += [" ".join(str(lit) for lit in c) + " 0" for c in clauses]
    return "\n".join(lines) + "\n"


# --- simulate ---------------------------------------------------------------


def simulate_jobs(nh, seed: int, out: Path) -> list[Job]:
    rng = random.Random(f"simulate:{seed}")
    instances = []
    for i, n in enumerate(SIM_RANDOM_SIZES):
        instances.append((f"random{i}-n{n}", nh.generators.random_network(rng, n), None))
    for i, pairs in enumerate(SIM_CHAIN_PAIRS):
        net, rg0 = nogood_chain(nh, rng, pairs)
        instances.append((f"chain{i}-n{net.n}", net, rg0))
    jobs = []
    for name, net, rg0 in instances:
        path = out / f"{name}.txt"
        path.write_text(nh.model.format_instance(net, rg0))
        jobs.append(_simulate_job(nh, name, path, net.n, rng.randrange(2**31)))
    return jobs


def _run_cli(nh, argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = nh.cli.main(argv)
    return code, buf.getvalue()


def _simulate_job(nh, name: str, path: Path, n: int, sched_seed: int) -> Job:
    trace, perms = path.with_suffix(".trace"), path.with_suffix(".perms")
    common = ["--adversary", "min-id", "--stop", "rounds",
              "--max-rounds", str(SIM_ROUNDS)]
    argv = ["run", str(path), "--scheduler", "random", "--seed", str(sched_seed),
            *common, "--trace", str(trace), "--perms-out", str(perms)]

    def run():
        return _run_cli(nh, argv)

    def check(result):
        code, stdout = result
        inst = reference.read_instance(path.read_text())
        trace_bytes = trace.read_bytes()
        expect(code == 0, f"exit code {code}")
        recorded = reference.read_permutations(perms.read_text())
        expect(len(recorded) == SIM_ROUNDS, "wrong number of permutations")
        expect(all(reference.is_permutation_round(inst, p) for p in recorded),
               "a recorded permutation is not fair")
        expect(reference.trace_permutations(trace_bytes.decode().splitlines())
               == recorded, "--perms-out disagrees with the trace")
        ref = reference.simulate(inst, recorded, adversary="min-id")
        got = reference.parse_summary(stdout.strip().splitlines()[-1])
        expect(got == ref.summary, f"summary {got} != reference {ref.summary}")
        replayed = path.with_suffix(".replay.trace")
        code, _ = _run_cli(nh, ["run", str(path), "--scheduler", "replay",
                                "--replay-file", str(perms), *common,
                                "--trace", str(replayed)])
        expect(code == 0, f"replay exit code {code}")
        expect(replayed.read_bytes() == trace_bytes, "replay changed the trace")

    def digest(result):
        h = hashlib.sha256(trace.read_bytes())
        h.update(result[1].encode())
        return h.hexdigest()

    def activations(result):
        return reference.parse_summary(result[1].strip().splitlines()[-1]).rounds * (n - 1)

    return Job(f"simulate:{name}", run, check, digest, activations)


# --- schedule ---------------------------------------------------------------


def schedule_jobs(nh, seed: int, out: Path) -> list[Job]:
    rng = random.Random(f"schedule:{seed}")
    cases = []
    for i, n in enumerate(COORD_RANDOM_SIZES):
        net = nh.generators.random_network(rng, n)
        cases.append(("coordinate", f"random{i}-n{n}", net, None))
    for i, pairs in enumerate(COORD_CHAIN_PAIRS):
        net, rg0 = nogood_chain(nh, rng, pairs)
        cases.append(("coordinate", f"chain{i}-n{net.n}", net, rg0))
    for i, n in enumerate(FAIR_RANDOM_SIZES):
        net = nh.generators.random_network(rng, n, filters="self")
        cases.append(("fair-stabilise", f"random{i}-n{n}", net, None))
    for i, copies in enumerate(FAIR_UNION_COPIES):
        net, rg0 = imperfect_union(nh, rng, copies)
        cases.append(("fair-stabilise", f"union{i}-n{net.n}", net, rg0))
    jobs = []
    for kind, name, net, rg0 in cases:
        path = out / f"{kind}-{name}.txt"
        path.write_text(nh.model.format_instance(net, rg0))
        make = _coordinate_job if kind == "coordinate" else _stabilise_job
        jobs.append(make(nh, f"schedule:{kind}:{name}", net, rg0, path))
    return jobs


def _check_schedule(inst: reference.Instance, state, trace,
                    deliver_by: int) -> reference.Replay:
    perms = reference.trace_permutations(trace)
    expect(len(perms) == state.round, "trace rounds != executed rounds")
    expect(all(reference.is_permutation_round(inst, p) for p in perms),
           "a round's permutation is not fair")
    ref = reference.simulate(inst, perms)
    got = {p.origin: p.delivered_round for p in state.packets if p.delivered}
    expect(got == ref.delivered_round, "delivery rounds differ from the reference")
    expect(ref.summary.delivered == inst.n - 1, "a packet was never delivered")
    expect(ref.summary.last_round <= deliver_by,
           f"delivery in round {ref.summary.last_round} > bound {deliver_by}")
    expect(tuple(state.rg.next_hop) == ref.next_hops, "final routing graph differs")
    return ref


def _coordinate_job(nh, name, net, rg0, path: Path) -> Job:
    engine = nh.engine

    def run():
        sched = nh.schedulers.CoordinateScheduler(net)
        return engine.run(engine.EngineState.initial(net, rg0), sched,
                          max_rounds=4, stop=engine.Stop.ROUNDS)

    def check(result):
        state, trace = result
        expect(state.round == 4, "coordination did not run four rounds")
        inst = reference.read_instance(path.read_text())
        _check_schedule(inst, state, trace, deliver_by=4)

    return Job(name, run, check, lambda r: trace_digest(r[1]),
               lambda r: r[0].round * (net.n - 1))


def _stabilise_job(nh, name, net, rg0, path: Path) -> Job:
    engine = nh.engine

    def run():
        sched = nh.schedulers.FairStabiliseScheduler(net)
        state, _ = engine.run(engine.EngineState.initial(net, rg0), sched,
                              max_rounds=net.n, stop=engine.Stop.ALL_DELIVERED)
        return engine.run(state, sched, max_rounds=net.n - state.round,
                          stop=engine.Stop.EQUILIBRIUM)

    def check(result):
        state, trace = result
        expect(state.round <= net.n, f"{state.round} rounds > n = {net.n}")
        inst = reference.read_instance(path.read_text())
        ref = _check_schedule(inst, state, trace, deliver_by=net.n // 3)
        paths = [reference.true_path(ref.next_hops, v, inst.sink) for v in range(inst.n)]
        expect(all(paths), "final routing graph is not a spanning tree")
        expect(reference.is_equilibrium(inst, ref.next_hops),
               "final spanning tree is not an equilibrium")

    return Job(name, run, check, lambda r: trace_digest(r[1]),
               lambda r: r[0].round * (net.n - 1))


# --- oracle -----------------------------------------------------------------


def oracle_jobs(nh, seed: int, out: Path) -> list[Job]:
    rng = random.Random(f"oracle:{seed}")
    jobs: list[Job] = []
    sizes: dict[int, int] = {}  # shared between each mst / dfs pair
    for i, n in enumerate(MST_SIZES):
        net = mixed_filter_network(nh, rng, n)
        path = out / f"mixed-{i}.txt"
        path.write_text(nh.model.format_instance(net))
        jobs += _stable_tree_jobs(nh, i, net, path, sizes)
    verdicts = [True] * CNF_COUNT[True] + [False] * CNF_COUNT[False]
    for i, sat in enumerate(verdicts):
        num_vars, m = CNF_SHAPES[sat]
        clauses = random_cnf(rng, num_vars, m, want_sat=sat)
        (out / f"cnf-{i}.cnf").write_text(dimacs(num_vars, clauses))
        formula = nh.gadgets.CnfFormula(num_vars, clauses)
        for padding in CNF_PADDINGS:
            gadget = nh.gadgets.build_reduction(formula, padding)
            (out / f"gadget-{i}-pad{padding}.txt").write_text(
                nh.model.format_instance(gadget.net))
            jobs.append(_dichotomy_job(nh, f"oracle:dichotomy-{i}-pad{padding}",
                                       formula, padding))
    cases = [(f"random{i}-n{n}", nh.generators.random_network(rng, n), None)
             for i, n in enumerate(EXHAUSTIVE_SIZES)]
    for i, pairs in enumerate(EXHAUSTIVE_CHAIN_PAIRS):
        net, rg0 = nogood_chain(nh, rng, pairs)
        cases.append((f"chain{i}-n{net.n}", net, rg0))
    for name, net, rg0 in cases:
        (out / f"exhaustive-{name}.txt").write_text(nh.model.format_instance(net, rg0))
        jobs.append(_exhaustive_job(nh, f"oracle:exhaustive-{name}", net, rg0))
    return jobs


def _stable_tree_jobs(nh, i, net, path: Path, sizes) -> list[Job]:
    analysis = nh.analysis

    def check_mst(report):
        inst = reference.read_instance(path.read_text())
        sizes[i] = report.size
        best = reference.max_stable_size(inst)
        expect(report.size == best, f"size {report.size} != brute-force maximum {best}")
        nxt = [None] * inst.n
        for u, w in report.tree:
            nxt[u] = w
        if report.tree:
            expect(reference.is_equilibrium(inst, nxt),
                   "the returned tree is not an equilibrium")
            clear = sum(1 for v in range(inst.n) if reference.true_path(nxt, v, inst.sink))
            expect(clear == report.size, f"size {report.size} != sink-component {clear}")

    def check_dfs(size):
        expect(size == sizes[i], f"max_stable_tree_dfs {size} != max_stable_tree {sizes[i]}")

    return [
        Job(f"oracle:max_stable_tree-{i}", lambda: analysis.max_stable_tree(net),
            check_mst, lambda r: sha256(repr((r.size, sorted(r.tree)))), lambda r: 0),
        Job(f"oracle:max_stable_tree_dfs-{i}", lambda: analysis.max_stable_tree_dfs(net),
            check_dfs, repr, lambda r: 0),
    ]


def _dichotomy_job(nh, name, formula, padding) -> Job:
    def check(rep):
        sat = reference.satisfiable(formula.num_vars, formula.clauses)
        expect(rep.satisfiable == sat, "dichotomy verdict != truth table")
        expect((rep.classification == "YES") == sat, "classification != truth table")
        expect(all(reference.satisfies(bits, formula.clauses) for bits in rep.assignments),
               "a decoded assignment does not satisfy the formula")
        if not sat:
            chain = 4 * formula.num_vars + 5 * len(formula.clauses) + 2
            expect(rep.padding_tree is None and rep.max_size_bound == chain,
                   "unsatisfiable formula admits more than the chain")

    def digest(rep):
        return sha256(repr((rep.classification, sorted(map(sorted, rep.spanning_trees)))))

    return Job(name, lambda: nh.gadgets.verify_dichotomy(formula, padding),
               check, digest, lambda r: 0)


def _exhaustive_job(nh, name, net, rg0) -> Job:
    rounds = 4

    def run():
        sched = nh.schedulers.CoordinateScheduler(net)
        return nh.analysis.exhaustive_delivery(net, sched, rounds, rg0)

    def check(ok):
        expect(ok is True, "an adversary branch defeats four-round delivery")

    return Job(name, run, check, repr, lambda r: rounds * (net.n - 1))


WORKLOADS = {
    "simulate": simulate_jobs,
    "schedule": schedule_jobs,
    "oracle": oracle_jobs,
}
