#!/usr/bin/env python3
"""Benchmark for the nexthop simulator, its schedulers and its exact oracles.

One run::

    python3 perfbench/run.py --workload simulate --seed 1 --seconds 30 --trace 0

sets the workload up (fresh import of ``nexthop``, input generation,
instance files), then repeats whole timed passes over the workload's fixed
job list, one job after another on one thread (a closed loop with one
client), until ``--seconds`` have passed and at least three passes ran.  One
more, untimed pass checks every output against the reference checker, and
then the set-up is repeated to time it.  Every pass compares each output's
digest with the first pass and, for the recorded seeds, with
``digests.json``.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a traced run with
``--trace 1``.

Other modes::

    python3 perfbench/run.py --steady [--seconds 30] [--first-seed 1]
    python3 perfbench/run.py --regen-digests

``--steady`` runs every workload ten times in fresh processes, with seeds
``--first-seed``, ``--first-seed`` + 1, ... and the workload order
alternating, and prints each metric's median, quartiles and spread.
``--regen-digests`` records the trace digests of the current program for
seeds 0-31.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import workloads  # noqa: E402

OUT = HERE / "out"
DIGESTS = HERE / "digests.json"
MIN_PASSES = 3
SETUP_REPEATS = 21
STEADY_RUNS = 10
DIGEST_WORKLOADS = ("simulate", "schedule")
DIGEST_SEEDS = range(32)
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "job_p50_ms": "ms",
    "activations_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def import_nexthop():
    """Import ``nexthop`` and its layer modules afresh from ``src/``."""
    for name in [m for m in sys.modules if m == "nexthop" or m.startswith("nexthop.")]:
        del sys.modules[name]
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    package = importlib.import_module("nexthop")
    if not Path(package.__file__).is_relative_to(src):
        raise ImportError(f"nexthop comes from {package.__file__}, not {src}")
    for layer in layers.FUNCTIONS:
        importlib.import_module(f"nexthop.{layer}")
    return package


def setup(workload: str, seed: int, fresh: bool = True, nh=None):
    """Import (when ``fresh``), generate inputs and write instance files."""
    out = OUT / workload
    out.mkdir(parents=True, exist_ok=True)
    gc.collect()
    start = time.perf_counter()
    if fresh:
        nh = import_nexthop()
    jobs = workloads.WORKLOADS[workload](nh, seed, out)
    return time.perf_counter() - start, nh, jobs


def memory_mb(field: str) -> float:
    """``VmRSS`` (resident now) or ``VmHWM`` (peak resident) of this process."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith(field + ":"):
                return int(line.split()[1]) / 1024
    raise OSError(f"/proc/self/status has no {field}")


def load_digests() -> dict:
    return json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}


class Run:
    """Timings, outcomes and digests of the passes of one run."""

    def __init__(self, jobs, expected: dict[str, str]):
        self.jobs = jobs
        self.expected = expected
        self.times: dict[str, list[float]] = {job.name: [] for job in jobs}
        self.first: dict[str, str] = {}
        self.pass_walls: list[float] = []
        self.activations = 0  # per pass, from the checked pass
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def one_pass(self, checked: bool = False) -> float:
        """Run every job once; a timed pass records job times, a checked
        pass checks the outputs instead."""
        wall = 0.0
        for job in self.jobs:
            self.attempted += 1
            result = None  # free the previous output before the next job runs
            gc.collect()
            start = time.perf_counter()
            try:
                result = job.run()
            except Exception:
                self.failed += 1
                print(f"{job.name}: failed\n{traceback.format_exc()}", file=sys.stderr)
                continue
            elapsed = time.perf_counter() - start
            if not checked:
                wall += elapsed
                self.times[job.name].append(elapsed)
            else:
                self.activations += job.activations(result)
                try:
                    job.check(result)
                except workloads.CheckError as exc:
                    self.correct = False
                    print(f"{job.name}: wrong output: {exc}", file=sys.stderr)
                except Exception:
                    self.correct = False
                    print(f"{job.name}: output not checkable\n{traceback.format_exc()}",
                          file=sys.stderr)
            digest = job.digest(result)
            want = self.first.setdefault(job.name, digest)
            if self.expected.get(job.name, want) != digest or want != digest:
                self.failed += 1
                print(f"{job.name}: digest {digest} differs from the expected "
                      f"{self.expected.get(job.name, want)}", file=sys.stderr)
        if not checked:
            self.pass_walls.append(wall)
        return wall

    def metrics(self, setup_s: float, peak_rss_mb: float) -> dict:
        medians = [statistics.median(t) for t in self.times.values() if t]
        every = [x for t in self.times.values() for x in t]
        wall = sum(medians)
        values = {
            "wall_s": wall,
            "setup_s": setup_s,
            "job_p50_ms": statistics.median(every) * 1e3,
            "activations_per_s": self.activations / wall,
            "peak_rss_mb": peak_rss_mb,
        }
        return {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}


def measure(args) -> dict:
    expected = load_digests().get(args.workload, {}).get(str(args.seed), {})
    if args.trace:
        return measure_traced(args, import_nexthop(), expected)
    # resident memory before nexthop is imported: the interpreter and the
    # benchmark's own modules, which the peak below leaves out
    gc.collect()
    base_rss = memory_mb("VmRSS")
    seconds, nh, jobs = setup(args.workload, args.seed)
    setups = [seconds]
    run = Run(jobs, expected)
    start = time.perf_counter()
    for _ in range(MIN_PASSES):
        run.one_pass()
    # the peak over the set-up and the same number of passes in every run,
    # before the checked pass and the repeated set-ups, whose memory is the
    # benchmark's, not the jobs'
    peak_rss_mb = memory_mb("VmHWM") - base_rss
    while time.perf_counter() - start < args.seconds:
        run.one_pass()
    run.one_pass(checked=True)
    for _ in range(SETUP_REPEATS - 1):
        seconds, _, _ = setup(args.workload, args.seed)
        setups.append(seconds)
    print(f"{args.workload} seed {args.seed}: {len(run.pass_walls)} timed passes of "
          f"{len(run.jobs)} jobs; pass walls "
          + " ".join(f"{w:.3f}" for w in run.pass_walls))
    return {
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": run.metrics(statistics.median(setups), peak_rss_mb),
    }


def measure_traced(args, nh, expected) -> dict:
    """Per-layer figures for one set-up plus one pass.

    Untraced and traced passes alternate, and a last, untraced pass checks
    the outputs.  Calls and counts of a pass repeat exactly, so they are
    taken from the traced passes' total divided by their number.
    """
    tracer = layers.Tracer(nh)
    tracer.install()
    try:
        _, _, jobs = setup(args.workload, args.seed, fresh=False, nh=nh)
    finally:
        tracer.uninstall()
    at_setup = tracer.snapshot()
    tracer.reset()
    run = Run(jobs, expected)
    untraced, traced = [], []
    start = time.perf_counter()
    while (len(traced) < MIN_PASSES - 1 or len(untraced) <= len(traced)
           or time.perf_counter() - start < args.seconds):
        if len(untraced) <= len(traced):
            untraced.append(run.one_pass())
            continue
        tracer.install()
        try:
            traced.append(run.one_pass())
        finally:
            tracer.uninstall()
    run.one_pass(checked=True)
    k = len(traced)
    values = {}
    for layer, funcs in layers.FUNCTIONS.items():
        for func in funcs:
            name = f"{layer}.{func}"
            values[f"{name}.calls"] = at_setup["calls"][name] + tracer.calls[name] / k
            values[f"{name}.self_ms"] = (
                at_setup["self_s"][name] + tracer.self_s[name] / k) * 1e3
    for name in layers.COUNTS:
        values[name] = at_setup["counts"][name] + tracer.counts[name] / k
    choices = values["analysis.choice_functions"]
    values["analysis.equilibria_per_choice_function"] = (
        values["analysis.equilibria_found"] / choices if choices else 0.0)
    values["tracing.untraced_wall_s"] = statistics.median(untraced)
    values["tracing.traced_wall_s"] = statistics.median(traced)
    values["tracing.overhead_pct"] = (
        values["tracing.traced_wall_s"] / values["tracing.untraced_wall_s"] - 1) * 100
    write_spans(args, tracer, at_setup, k)
    units = {name: _unit(name) for name in layers.metric_names()}
    return {
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in units},
    }


def _unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("per_choice_function"):
        return "ratio"
    return "count"


def write_spans(args, tracer, at_setup, passes: int) -> None:
    """Caller -> callee call counts and the first spans, for inspection."""
    path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps({
        "traced_passes": passes,
        "setup_calls": dict(at_setup["calls"]),
        "edges": [[a, b, c] for (a, b), c in sorted(tracer.edges.items(), key=str)],
        "spans": [
            {"id": i, "parent": p, "name": n, "start": s, "end": e}
            for i, p, n, s, e in tracer.spans
        ],
    }))


# --- other modes ------------------------------------------------------------


def regen_digests() -> int:
    """Record every simulate/schedule job's digest for ``DIGEST_SEEDS``."""
    table: dict = {}
    nh = import_nexthop()
    for workload in DIGEST_WORKLOADS:
        for seed in DIGEST_SEEDS:
            _, _, jobs = setup(workload, seed, fresh=False, nh=nh)
            run = Run(jobs, {})
            run.one_pass(checked=True)
            if not run.correct or run.failed:
                print(f"{workload} seed {seed}: outputs failed their checks; "
                      "digests not recorded", file=sys.stderr)
                return 1
            table.setdefault(workload, {})[str(seed)] = dict(sorted(run.first.items()))
            print(f"{workload} seed {seed}: {len(run.first)} digests", flush=True)
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


def steady(args) -> int:
    """Repeat every workload in fresh processes and report the spread."""
    names = list(workloads.WORKLOADS)
    results: dict[str, list[dict]] = {w: [] for w in names}
    for r in range(STEADY_RUNS):
        for workload in names if r % 2 == 0 else names[::-1]:
            seed = args.first_seed + r
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            results[workload].append(result)
            print(f"run {r} {workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                flush=True)
    summary = {}
    for workload, runs in results.items():
        rows = {}
        for metric in END_TO_END:
            values = [run["metrics"][metric]["value"] for run in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            rows[metric] = {"median": med, "q1": q1, "q3": q3,
                            "spread": (q3 - q1) / med, "values": values}
            print(f"{workload:9s} {metric:18s} median {med:10.4f}  q1 {q1:10.4f}  "
                  f"q3 {q3:10.4f}  spread {(q3 - q1) / med:7.2%}")
        shares = {run["failed"] / run["attempted"] for run in runs}
        print(f"{workload:9s} failed shares {sorted(shares)}; "
              f"correct {all(run['correct'] for run in runs)}")
        summary[workload] = rows
    OUT.mkdir(exist_ok=True)
    (OUT / "steady.json").write_text(json.dumps(summary, indent=1))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", action="store_true")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--regen-digests", action="store_true")
    args = parser.parse_args(argv)
    if args.steady:
        return steady(args)
    if args.regen_digests:
        return regen_digests()
    if args.workload is None:
        parser.error("--workload is required")
    try:
        result = measure(args)
    except ImportError as exc:
        print(f"cannot import nexthop from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
