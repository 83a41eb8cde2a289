"""Command-line driver.

Subcommands: run, gen-gadget, check-stable, max-stable-tree,
enumerate-equilibria, export-dot.  Exit codes: 0 when the stop condition or
check succeeded, 2 when it did not, 3 for errors, usage errors included.
The ``--adversary`` and ``--stop`` names are the values of
:class:`engine.Adversary` and :class:`engine.Stop`.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from pathlib import Path
from typing import Optional, Sequence

from . import analysis, engine, gadgets, model, schedulers

SEED_ENV = "NEXTHOP_SEED"


def _load_instance(path: str) -> tuple[model.Network, Optional[model.RoutingGraph]]:
    return model.parse_instance(Path(path).read_text())


def _make_scheduler(args, net: model.Network):
    if args.scheduler == "random":
        return schedulers.RandomScheduler(net, seed=args.seed)
    if args.scheduler == "coordinate":
        return schedulers.CoordinateScheduler(net)
    if args.scheduler == "fair-stabilise":
        return schedulers.FairStabiliseScheduler(net)
    if args.scheduler == "replay":
        if not args.replay_file:
            raise ValueError("--replay-file is required with --scheduler replay")
        text = Path(args.replay_file).read_text()
        try:
            return schedulers.ReplayScheduler.from_text(text)
        except ValueError as exc:
            raise ValueError(f"{args.replay_file} {exc}") from None
    raise ValueError(f"unknown scheduler {args.scheduler!r}")


class _Recorder:
    """Passes a scheduler through and keeps every permutation it hands to
    the engine: the ``--perms-out`` record."""

    def __init__(self, scheduler):
        self.scheduler = scheduler
        self.perms: list[list[model.Node]] = []

    @property
    def decisions(self) -> list[str]:
        return self.scheduler.decisions

    def permutation(self, state: engine.EngineState) -> list[model.Node]:
        perm = self.scheduler.permutation(state)
        self.perms.append(list(perm))
        return perm

    def after_round(self, state: engine.EngineState) -> None:
        self.scheduler.after_round(state)


def cmd_run(args) -> int:
    if args.max_rounds < 0:
        raise ValueError(f"--max-rounds must be at least 0, got {args.max_rounds}")
    net, rg0 = _load_instance(args.instance)
    scheduler = _Recorder(_make_scheduler(args, net))
    stop = engine.Stop(args.stop)
    state = engine.EngineState.initial(net, rg0)
    with contextlib.ExitStack() as stack:
        # open every output before the first round, so a bad path costs no run
        trace_out, perms_out, decisions_out = (
            stack.enter_context(open(path, "w")) if path else None
            for path in (args.trace, args.perms_out, args.decisions)
        )
        state, trace = engine.run(
            state,
            scheduler,
            max_rounds=args.max_rounds,
            stop=stop,
            policy=engine.Adversary(args.adversary),
        )
        if trace_out:
            trace_out.write("\n".join(trace) + "\n")
        if perms_out:
            perms_out.write(schedulers.ReplayScheduler.to_text(scheduler.perms))
        if decisions_out:
            decisions_out.write("".join(f"{d}\n" for d in scheduler.decisions))

    total = len(state.packets)
    done = sum(1 for p in state.packets if p.delivered)
    last = max(
        (p.delivered_round for p in state.packets if p.delivered), default=None
    )
    eq = engine.is_equilibrium(state)
    imperfect = len(engine.imperfect_rounds(state))
    by = f"by round {last}" if done else "never"
    print(
        f"delivered {done}/{total} {by}; "
        f"equilibrium: {'yes' if eq else 'no'}; "
        f"imperfect rounds: {imperfect}; "
        f"rounds executed: {state.round}"
    )
    return 0 if engine.stop_met(state, stop) else 2


def cmd_gen_gadget(args) -> int:
    formula = gadgets.parse_formula(Path(args.cnf).read_text())
    g = gadgets.build_reduction(formula, args.padding)
    out = Path(args.out)
    out.write_text(model.format_instance(g.net))
    out.with_suffix(out.suffix + ".labels").write_text(gadgets.format_labels(g))
    print(
        f"wrote {out} ({g.net.n} nodes = 4*{g.num_vars} + 5*{g.num_clauses} "
        f"+ {g.padding} + 2)"
    )
    return 0


def _read_arcs(path: str, net: model.Network) -> frozenset[model.Arc]:
    """The 'u w' arc lines of a file; each must be an arc of ``net``."""
    arcs = set()
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            u, w = (int(tok) for tok in line.split())
        except ValueError:
            raise ValueError(
                f"{path} line {lineno}: not a 'u w' arc: {raw.strip()!r}"
            ) from None
        if not (0 <= u < net.n and w in net.prefs[u]):
            raise ValueError(f"{path} line {lineno}: ({u},{w}) is not a network arc")
        arcs.add((u, w))
    return frozenset(arcs)


def cmd_check_stable(args) -> int:
    net, _ = _load_instance(args.instance)
    arcs = _read_arcs(args.tree, net)
    report = analysis.is_stable_tree(net, arcs)
    print(f"size {report.size}")
    if report.stable:
        print("stable")
    else:
        v, w = report.witness_violation
        print(f"unstable: node {v} would rather use {w}")
    for v, w in report.external_blocking:
        print(f"outside node {v} has valid choice {w}")
    return 0 if report.stable else 2


def cmd_max_stable_tree(args) -> int:
    net, _ = _load_instance(args.instance)
    report = analysis.max_stable_tree(net, budget=args.budget)
    print(f"max stable tree size {report.size}")
    for u, w in sorted(report.tree):
        print(f"{u} {w}")
    return 0


def cmd_enumerate_equilibria(args) -> int:
    net, _ = _load_instance(args.instance)
    found = analysis.enumerate_equilibria(net, budget=args.budget)
    print(f"{len(found)} equilibria")
    for rg in found:
        arcs = " ".join(f"{u}->{w}" for u, w in rg.arcs())
        print(arcs if arcs else "(empty)")
    return 0


def cmd_export_dot(args) -> int:
    net, rg0 = _load_instance(args.instance)
    if args.rg:
        rg = model.RoutingGraph.from_arcs(net.n, _read_arcs(args.rg, net))
    elif rg0 is not None:
        rg = rg0
    else:
        rg = model.RoutingGraph.first_choice(net)
    lines = ["digraph routing {"]
    for v in net.nodes():
        shape = ' [shape=doublecircle]' if v == net.sink else ""
        lines.append(f"  {v}{shape};")
    for v, w in rg.arcs():
        lines.append(f'  {v} -> {w} [label="{net.rank(v, w)}"];')
    lines.append("}")
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        print(text, end="")
    return 0


class _Parser(argparse.ArgumentParser):
    """Exits 3 on a usage error; argparse's own 2 means "stop condition
    unmet" here."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="nexthop",
        description="Simulate and analyse next-hop routing with filtering.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="simulate an instance")
    run.add_argument("instance")
    run.add_argument(
        "--scheduler",
        choices=["random", "coordinate", "fair-stabilise", "replay"],
        default="random",
    )
    run.add_argument("--replay-file", help="permutation file for replay")
    run.add_argument(
        "--adversary",
        choices=[a.value for a in engine.Adversary],
        default=engine.Adversary.STAY.value,
    )
    # argparse converts a string default with ``type`` only when the option
    # is absent, so a bad NEXTHOP_SEED is a usage error of ``run`` alone
    run.add_argument(
        "--seed",
        type=int,
        default=os.environ.get(SEED_ENV, "0"),
        help=f"random scheduler seed (env {SEED_ENV})",
    )
    run.add_argument("--max-rounds", type=int, default=100)
    run.add_argument(
        "--stop",
        choices=[s.value for s in engine.Stop],
        default=engine.Stop.ALL_DELIVERED.value,
    )
    run.add_argument("--trace", help="write the engine trace here")
    run.add_argument("--perms-out", help="write the executed permutations here")
    run.add_argument("--decisions", help="write scheduler decisions here")
    run.set_defaults(func=cmd_run)

    gen = sub.add_parser("gen-gadget", help="build a hardness instance from CNF")
    gen.add_argument("--cnf", required=True)
    gen.add_argument("--padding", type=int, default=0)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=cmd_gen_gadget)

    chk = sub.add_parser("check-stable", help="check a tree for stability")
    chk.add_argument("instance")
    chk.add_argument("--tree", required=True, help="file of 'u w' arc lines")
    chk.set_defaults(func=cmd_check_stable)

    mst = sub.add_parser("max-stable-tree", help="exhaustive max stable tree")
    mst.add_argument("instance")
    mst.add_argument("--budget", type=int, default=analysis.DEFAULT_BUDGET)
    mst.set_defaults(func=cmd_max_stable_tree)

    enum = sub.add_parser("enumerate-equilibria", help="list all equilibria")
    enum.add_argument("instance")
    enum.add_argument("--budget", type=int, default=analysis.DEFAULT_BUDGET)
    enum.set_defaults(func=cmd_enumerate_equilibria)

    dot = sub.add_parser("export-dot", help="render a routing graph as DOT")
    dot.add_argument("instance")
    dot.add_argument("--rg", help="file of 'u w' arc lines (default: rank-1)")
    dot.add_argument("--out")
    dot.set_defaults(func=cmd_export_dot)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (
        gadgets.GadgetError,
        analysis.BudgetExceededError,
        schedulers.SchedulerError,
        ValueError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
