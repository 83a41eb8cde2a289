from __future__ import annotations

import argparse
import contextlib
import io
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import all_clear_rg, nogood_chain
from nexthop import engine, schedulers
from nexthop.cli import build_parser, main
from nexthop.engine import Adversary, Stop
from nexthop.model import Network, format_instance


def write_instance(tmp_path: Path, net: Network, rg0=None, name="net.txt") -> Path:
    path = tmp_path / name
    path.write_text(format_instance(net, rg0))
    return path


def test_run_coordinate_summary(tmp_path, capsys, nogood):
    inst = write_instance(tmp_path, nogood, all_clear_rg(nogood))
    code = main(["run", str(inst), "--scheduler", "coordinate"])
    out = capsys.readouterr().out
    assert code == 0
    assert "delivered 2/2 by round 2" in out
    assert "equilibrium: no" in out


def test_run_fair_stabilise_summary(tmp_path, capsys, notme2):
    inst = write_instance(tmp_path, notme2)
    code = main(
        ["run", str(inst), "--scheduler", "fair-stabilise", "--stop", "equilibrium"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "delivered 2/2 by round 1" in out
    assert "equilibrium: yes" in out


def test_run_scheduler_filter_mismatch(tmp_path, capsys, notme2):
    inst = write_instance(tmp_path, notme2)
    code = main(["run", str(inst), "--scheduler", "coordinate"])
    assert code == 3
    assert "error" in capsys.readouterr().err


def test_run_stop_unmet_exit_code(tmp_path, capsys, nogood):
    inst = write_instance(tmp_path, nogood, all_clear_rg(nogood))
    # one random round on the no-equilibrium instance cannot stabilise
    code = main(
        [
            "run",
            str(inst),
            "--scheduler",
            "random",
            "--stop",
            "equilibrium",
            "--max-rounds",
            "1",
        ]
    )
    assert code == 2


def test_replay_reproduces_trace(tmp_path, capsys, nogood):
    inst = write_instance(tmp_path, nogood, all_clear_rg(nogood))
    trace1 = tmp_path / "a.trace"
    perms = tmp_path / "perms.txt"
    assert (
        main(
            [
                "run",
                str(inst),
                "--scheduler",
                "coordinate",
                "--trace",
                str(trace1),
                "--perms-out",
                str(perms),
            ]
        )
        == 0
    )
    trace2 = tmp_path / "b.trace"
    assert (
        main(
            [
                "run",
                str(inst),
                "--scheduler",
                "replay",
                "--replay-file",
                str(perms),
                "--stop",
                "rounds",
                "--max-rounds",
                str(len(perms.read_text().splitlines())),
                "--trace",
                str(trace2),
            ]
        )
        == 0
    )
    assert trace1.read_bytes() == trace2.read_bytes()


def _perms_run(tmp_path, inst, *args):
    """Run with --trace, --perms-out and --decisions; return the exit code
    and the three files' texts."""
    files = [tmp_path / name for name in ("t.trace", "t.perms", "t.decisions")]
    code = main(
        ["run", str(inst), *args, "--trace", str(files[0]),
         "--perms-out", str(files[1]), "--decisions", str(files[2])]
    )
    return (code, *(f.read_text() for f in files))


@pytest.mark.parametrize(
    "adversary, args",
    [
        ("min-id", ["--scheduler", "random", "--seed", "7", "--stop", "rounds",
                    "--max-rounds", "6"]),
        ("max-id", ["--scheduler", "random", "--stop", "rounds", "--max-rounds", "0"]),
        ("stay", ["--scheduler", "random", "--seed", "1", "--stop", "delivered"]),
        ("stay", ["--scheduler", "coordinate", "--stop", "rounds", "--max-rounds", "4"]),
        ("min-id", ["--scheduler", "fair-stabilise", "--stop", "equilibrium"]),
    ],
)
def test_perms_out_is_the_traced_permutations(tmp_path, capsys, adversary, args):
    net, rg0 = nogood_chain(3)
    if "fair-stabilise" in args:
        net = Network.of(net.prefs, filters="self")
    inst = write_instance(tmp_path, net, rg0)
    code, trace, perms, _ = _perms_run(tmp_path, inst, "--adversary", adversary, *args)
    assert code == 0
    expect = engine.trace_permutations(trace.splitlines())
    assert perms == schedulers.ReplayScheduler.to_text(expect)
    if "delivered" in args:  # stopped early, before the round limit
        assert 0 < len(expect) < 100
    # replaying the record reproduces the trace and the record
    replay = tmp_path / "replay.txt"
    replay.write_text(perms)
    code, again, perms_again, _ = _perms_run(
        tmp_path, inst, "--scheduler", "replay", "--replay-file", str(replay),
        "--stop", "rounds", "--max-rounds", str(len(expect)), "--adversary", adversary,
    )
    assert code == 0
    assert (again, perms_again) == (trace, perms)


@pytest.mark.parametrize("kind", ["coordinate", "fair-stabilise"])
def test_decisions_unchanged_by_the_perms_record(tmp_path, capsys, kind):
    net, rg0 = nogood_chain(3)
    if kind == "fair-stabilise":
        net = Network.of(net.prefs, filters="self")
        sched = schedulers.FairStabiliseScheduler(net)
    else:
        sched = schedulers.CoordinateScheduler(net)
    inst = write_instance(tmp_path, net, rg0)
    code, _, _, decisions = _perms_run(
        tmp_path, inst, "--scheduler", kind, "--stop", "rounds", "--max-rounds", "5"
    )
    engine.run(engine.EngineState.initial(net, rg0), sched, 5)
    assert code == 0 and sched.decisions
    assert decisions == "".join(f"{d}\n" for d in sched.decisions)


def test_unfair_replay_permutation_exits_3(tmp_path, capsys, nogood):
    inst = write_instance(tmp_path, nogood)
    replay = tmp_path / "perms.txt"
    replay.write_text("1 2\n1 1\n")
    perms = tmp_path / "out.perms"
    code = main(
        ["run", str(inst), "--scheduler", "replay", "--replay-file", str(replay),
         "--stop", "rounds", "--max-rounds", "2", "--perms-out", str(perms)]
    )
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error:") and "not a permutation" in err
    assert "Traceback" not in err


def test_run_seed_determinism(tmp_path, capsys, nogood):
    inst = write_instance(tmp_path, nogood)
    t1, t2 = tmp_path / "1.trace", tmp_path / "2.trace"
    for t in (t1, t2):
        main(
            [
                "run",
                str(inst),
                "--scheduler",
                "random",
                "--seed",
                "42",
                "--stop",
                "rounds",
                "--max-rounds",
                "5",
                "--trace",
                str(t),
            ]
        )
    capsys.readouterr()
    assert t1.read_bytes() == t2.read_bytes()


def test_gen_gadget_and_check_stable(tmp_path, capsys):
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 1 1\n1 1 1 0\n")
    out = tmp_path / "gadget.txt"
    assert (
        main(
            ["gen-gadget", "--cnf", str(cnf), "--padding", "2", "--out", str(out)]
        )
        == 0
    )
    assert "13 nodes" in capsys.readouterr().out
    labels = out.with_suffix(out.suffix + ".labels").read_text()
    assert "label 0 r" in labels

    tree = tmp_path / "tree.txt"
    tree.write_text("1 0\n")  # just the dummy sink attached
    assert main(["check-stable", str(out), "--tree", str(tree)]) == 0
    capsys.readouterr()


def test_check_stable_fixture(tmp_path, capsys, notme2):
    inst = write_instance(tmp_path, notme2)
    tree = tmp_path / "tree.txt"
    tree.write_text("1 2\n2 0\n")
    assert main(["check-stable", str(inst), "--tree", str(tree)]) == 0
    assert "stable" in capsys.readouterr().out
    tree.write_text("1 0\n2 0\n")
    assert main(["check-stable", str(inst), "--tree", str(tree)]) == 2


def test_max_stable_tree_and_enumerate(tmp_path, capsys, nogood, notme2):
    inst = write_instance(tmp_path, notme2)
    assert main(["max-stable-tree", str(inst)]) == 0
    assert "size 3" in capsys.readouterr().out
    inst2 = write_instance(tmp_path, nogood, name="nogood.txt")
    assert main(["enumerate-equilibria", str(inst2)]) == 0
    assert "0 equilibria" in capsys.readouterr().out


def test_enumerate_equilibria_stdout_in_choice_order(tmp_path, capsys, notme2):
    # node 1's first choice (2) before its second (0)
    inst = write_instance(tmp_path, notme2)
    assert main(["enumerate-equilibria", str(inst)]) == 0
    assert capsys.readouterr().out == "2 equilibria\n1->2 2->0\n1->0 2->1\n"


@pytest.mark.parametrize("cmd", ["max-stable-tree", "enumerate-equilibria"])
def test_budget_below_choice_function_count_exits_3(tmp_path, capsys, notme2, cmd):
    inst = write_instance(tmp_path, notme2)  # 3 * 3 choice functions
    assert main([cmd, str(inst), "--budget", "2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: 9 choice functions exceed budget 2\n"


def test_export_dot_deterministic(tmp_path, capsys, tri):
    inst = write_instance(tmp_path, tri)
    assert main(["export-dot", str(inst)]) == 0
    first = capsys.readouterr().out
    assert main(["export-dot", str(inst)]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert '1 -> 0 [label="1"]' in first
    assert '2 -> 1 [label="1"]' in first


def test_export_dot_empty_graph(tmp_path, capsys, tri):
    inst = write_instance(tmp_path, tri)
    arcs = tmp_path / "arcs.txt"
    arcs.write_text("")
    assert main(["export-dot", str(inst), "--rg", str(arcs)]) == 0
    out = capsys.readouterr().out
    assert "->" not in out


def test_bad_instance_error_exit(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("nodes 2\nsink 0\nprefs 1: 1\n")
    assert main(["run", str(bad)]) == 3


def test_seed_env_variable(tmp_path, capsys, monkeypatch, nogood):
    inst = write_instance(tmp_path, nogood)
    t_env, t_flag = tmp_path / "env.trace", tmp_path / "flag.trace"
    monkeypatch.setenv("NEXTHOP_SEED", "42")
    main(["run", str(inst), "--stop", "rounds", "--max-rounds", "3",
          "--trace", str(t_env)])
    monkeypatch.delenv("NEXTHOP_SEED")
    main(["run", str(inst), "--seed", "42", "--stop", "rounds",
          "--max-rounds", "3", "--trace", str(t_flag)])
    capsys.readouterr()
    assert t_env.read_bytes() == t_flag.read_bytes()


def test_out_of_range_directive_exits_3(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("nodes 2\nsink 0\nprefs 1: 0\nrg0 5: 0\n")
    assert main(["run", str(bad)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("line", ["nodes 3", "sink 0"])
def test_repeated_nodes_or_sink_exits_3(tmp_path, capsys, line):
    bad = tmp_path / "bad.txt"
    bad.write_text(f"nodes 3\nsink 0\nprefs 1: 0\nprefs 2: 1 0\n{line}\n")
    assert main(["run", str(bad)]) == 3
    err = capsys.readouterr().err
    assert f"second {line.split()[0]} line" in err and "Traceback" not in err


def test_negative_max_rounds_rejected(tmp_path, capsys, nogood):
    inst = write_instance(tmp_path, nogood)
    code = main(["run", str(inst), "--max-rounds", "-3", "--stop", "rounds"])
    assert code == 3
    assert "--max-rounds" in capsys.readouterr().err


@pytest.mark.parametrize(
    "arcs, line",
    [
        pytest.param("1 0\n5 0\n", 2, id="id-past-n"),
        pytest.param("-1 0\n", 1, id="negative-id"),
        pytest.param("2 0\n", 1, id="unranked-head"),  # 2 ranks only 1
        pytest.param("0 1\n", 1, id="sink-tail"),  # the sink ranks nobody
        pytest.param("1 0 2\n", 1, id="three-ids"),
    ],
)
@pytest.mark.parametrize(
    "cmd, flag", [("check-stable", "--tree"), ("export-dot", "--rg")]
)
def test_arc_file_checked_against_network(tmp_path, capsys, cmd, flag, arcs, line):
    inst = write_instance(tmp_path, Network.of([[], [0], [1]]))  # path 2 -> 1 -> 0
    arc_file = tmp_path / "arcs.txt"
    arc_file.write_text(arcs)
    assert main([cmd, str(inst), flag, str(arc_file)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"line {line}:" in err
    assert "Traceback" not in err


def _run_option(dest: str) -> argparse.Action:
    sub = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    return next(a for a in sub.choices["run"]._actions if a.dest == dest)


@pytest.mark.parametrize(
    "dest, enum, names",
    [
        ("adversary", Adversary, ["stay", "min-id", "max-id"]),
        ("stop", Stop, ["delivered", "equilibrium", "rounds"]),
    ],
)
def test_run_choices_are_the_enum_values(dest, enum, names):
    action = _run_option(dest)
    assert action.choices == [m.value for m in enum] == names
    assert action.default in names


@pytest.mark.parametrize(
    "args",
    [
        ["run", "{inst}", "--adversary", "sideways"],
        ["run", "{inst}", "--max-rounds", "x"],
        ["run"],
        [],
        ["--help"],
        ["run", "--help"],
    ],
)
def test_usage_errors_exit_3_and_help_exits_0(tmp_path, capsys, nogood, args):
    inst = write_instance(tmp_path, nogood)
    argv = [str(inst) if a == "{inst}" else a for a in args]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    err = capsys.readouterr().err
    assert exc.value.code == (0 if "--help" in args else 3)
    assert "Traceback" not in err


def test_bad_seed_env_variable_exits_3(tmp_path, capsys, monkeypatch, nogood):
    inst = write_instance(tmp_path, nogood)
    monkeypatch.setenv("NEXTHOP_SEED", "abc")
    with pytest.raises(SystemExit) as exc:
        main(["run", str(inst)])
    err = capsys.readouterr().err
    assert exc.value.code == 3
    assert "error:" in err and "'abc'" in err and "Traceback" not in err
    # an explicit --seed overrides the variable, and other subcommands ignore it
    assert main(["run", str(inst), "--seed", "1"]) == 0
    assert main(["export-dot", str(inst)]) == 0


def test_bad_replay_file_names_file_and_line(tmp_path, capsys, nogood):
    inst = write_instance(tmp_path, nogood)
    replay = tmp_path / "perms.txt"
    replay.write_text("1 2\nx\n")
    code = main(["run", str(inst), "--scheduler", "replay", "--replay-file", str(replay)])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error:") and str(replay) in err and "line 2:" in err
    assert "Traceback" not in err


def test_run_output_paths_opened_before_first_round(tmp_path, capsys, nogood):
    # one recorded round for five: a run that started would fail with
    # "replay exhausted" instead of naming the unwritable trace path
    inst = write_instance(tmp_path, nogood)
    replay = tmp_path / "perms.txt"
    replay.write_text("1 2\n")
    code = main(
        ["run", str(inst), "--scheduler", "replay", "--replay-file", str(replay),
         "--stop", "rounds", "--max-rounds", "5", "--trace", str(tmp_path)]
    )
    err = capsys.readouterr().err
    assert code == 3
    assert str(tmp_path) in err and "replay exhausted" not in err
    assert "Traceback" not in err


SUBCOMMANDS = [
    "run", "gen-gadget", "check-stable", "max-stable-tree",
    "enumerate-equilibria", "export-dot",
]
OPTIONS = [
    "--scheduler", "--replay-file", "--adversary", "--seed", "--max-rounds",
    "--stop", "--trace", "--perms-out", "--decisions", "--cnf", "--padding",
    "--out", "--tree", "--budget", "--rg", "--help", "-h",
]
CHOICES = [
    "random", "coordinate", "fair-stabilise", "replay", "stay", "min-id",
    "max-id", "delivered", "equilibrium", "rounds",
]
# integers stay small: a large --max-rounds or --padding is slow, not wrong
INTEGERS = ["0", "1", "2", "7", "-1", "x", "1.5", "", "0x10"]
FILES = ["inst.txt", "f.cnf", "arcs.txt", "missing.txt", "dir", "binary.dat"]


def _fuzz_files(root: Path) -> None:
    (root / "inst.txt").write_text(
        format_instance(Network.of([[], [2, 0], [1, 0]]))
    )
    (root / "f.cnf").write_text("p cnf 1 1\n1 1 1 0\n")
    (root / "arcs.txt").write_text("1 2\n2 0\n")  # also a replay file
    (root / "dir").mkdir()
    (root / "binary.dat").write_bytes(bytes(range(256)))


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(st.sampled_from(SUBCOMMANDS), st.sampled_from(FILES + CHOICES)),
    st.lists(st.sampled_from(FILES), max_size=1),
    st.lists(st.sampled_from(FILES + OPTIONS + CHOICES + INTEGERS), max_size=8),
)
def test_cli_exits_only_with_documented_codes(command, positional, rest):
    # files are named relative to a fresh directory, so outputs land there
    with tempfile.TemporaryDirectory() as tmp:
        _fuzz_files(Path(tmp))
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()) as err:
                try:
                    code = main([command, *positional, *rest])
                except SystemExit as exc:
                    code = exc.code
        finally:
            os.chdir(cwd)
    assert code in (0, 2, 3), (command, positional, rest, code)
    assert "Traceback" not in err.getvalue()
