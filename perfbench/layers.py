"""Per-layer tracing by wrapping ``nexthop``'s public functions from outside.

Each wrapped function records calls and self time (its span minus the spans
of wrapped functions it called).  A name that another module imported with
``from .model import ...`` is wrapped in that module too, so every caller's
lookup reaches the wrapper.  Work counts are read from the arguments and
results at the same boundaries.  Nothing under ``src/`` changes.
"""

from __future__ import annotations

import math
import time
from collections import Counter

# Layer module -> public functions (``Class.method`` for methods).
FUNCTIONS = {
    "cli": ["main"],
    "model": [
        "parse_instance",
        "format_instance",
        "first_class_decomposition",
        "sink_component",
        "sink_component_arcs",
        "q_subtree",
        "validate_spanning_tree",
    ],
    "engine": [
        "run_round",
        "activate",
        "forward_packets",
        "route_verification",
        "place_cycled_packets",
        "is_equilibrium",
        "trace_permutations",
    ],
    "schedulers": [
        "RandomScheduler.permutation",
        "coordinate",
        "coordinate_sequence",
        "CoordinateScheduler.after_round",
        "initial_spanning_tree",
        "find_stable",
        "FairStabiliseScheduler.permutation",
        "FairStabiliseScheduler.after_round",
    ],
    "analysis": [
        "enumerate_equilibria",
        "max_stable_tree",
        "max_stable_tree_dfs",
        "is_stable_tree",
        "has_strong_stability",
        "is_skeleton",
        "exhaustive_delivery",
    ],
    "gadgets": [
        "build_reduction",
        "spanning_stable_trees",
        "stable_tree_with_padding",
        "verify_dichotomy",
    ],
    "generators": ["random_network"],
}

COUNTS = [
    "engine.activations",
    "engine.forward_hops",
    "engine.trace_lines",
    "engine.rounds",
    "schedulers.find_stable.repointed",
    "analysis.choice_functions",
    "analysis.equilibria_found",
    "gadgets.spanning_trees",
]

# Spans kept verbatim (the first ones of a run); every span is aggregated.
RAW_SPAN_LIMIT = 20_000


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in a fixed order."""
    names = []
    for layer, funcs in FUNCTIONS.items():
        for func in funcs:
            names += [f"{layer}.{func}.calls", f"{layer}.{func}.self_ms"]
    names += COUNTS
    names += [
        "analysis.equilibria_per_choice_function",
        "tracing.untraced_wall_s",
        "tracing.traced_wall_s",
        "tracing.overhead_pct",
    ]
    return names


def _run_round(counts, args, kwargs, out):
    state, perm = args[0], args[1]
    counts["engine.activations"] += len(perm)
    counts["engine.rounds"] += 1
    counts["engine.trace_lines"] += len(out.trace) - len(state.trace)


def _forward_packets(counts, args, kwargs, out):
    counts["engine.forward_hops"] += sum(
        after.last_hops
        for before, after in zip(args[0].packets, out.packets)
        if not before.delivered
    )


def _find_stable(counts, args, kwargs, out):
    t_in, net = args[0], args[3]
    inside = {net.sink} | {u for arc in t_in for u in arc}
    counts["schedulers.find_stable.repointed"] += net.n - len(inside)


def _enumerate_equilibria(counts, args, kwargs, out):
    net = args[0]
    counts["analysis.choice_functions"] += math.prod(
        len(net.prefs[v]) + 1 for v in range(net.n) if v != net.sink
    )
    counts["analysis.equilibria_found"] += len(out)


def _spanning_stable_trees(counts, args, kwargs, out):
    counts["gadgets.spanning_trees"] += len(out)


COUNTERS = {
    "engine.run_round": _run_round,
    "engine.forward_packets": _forward_packets,
    "schedulers.find_stable": _find_stable,
    "analysis.enumerate_equilibria": _enumerate_equilibria,
    "gadgets.spanning_stable_trees": _spanning_stable_trees,
}


class Tracer:
    """Installs wrappers on demand and accumulates their figures."""

    def __init__(self, package):
        self.modules = {
            layer: getattr(package, layer) for layer in FUNCTIONS
        }
        self.stack: list[list] = []
        self.installed: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.edges: Counter = Counter()  # (caller, callee) -> calls
        self.counts: Counter = Counter()
        self.spans: list[tuple] = []
        self.next_span = 0

    def _wrap(self, name, fn):
        stack, counter, clock = self.stack, COUNTERS.get(name), time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [name, self.next_span, 0.0]  # name, span id, child time
            self.next_span += 1
            parent = stack[-1] if stack else None
            stack.append(frame)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if parent is not None:
                    parent[2] += end - start
                self.calls[name] += 1
                self.self_s[name] += end - start - frame[2]
                self.edges[(parent and parent[0], name)] += 1
                if len(self.spans) < RAW_SPAN_LIMIT:
                    self.spans.append(
                        (frame[1], parent and parent[1], name, start, end)
                    )
            if counter is not None:
                counter(self.counts, args, kwargs, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        for layer, funcs in FUNCTIONS.items():
            module = self.modules[layer]
            for func in funcs:
                name = f"{layer}.{func}"
                if "." in func:
                    cls_name, meth = func.split(".")
                    owner = getattr(module, cls_name)
                    original = owner.__dict__[meth]
                    self._patch(owner, meth, self._wrap(name, original))
                    continue
                original = getattr(module, func)
                wrapper = self._wrap(name, original)
                # the defining module and every module that imported the name
                for other in self.modules.values():
                    if other.__dict__.get(func) is original:
                        self._patch(other, func, wrapper)

    def _patch(self, owner, attr, wrapper) -> None:
        self.installed.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self.installed:
            owner, attr, original = self.installed.pop()
            setattr(owner, attr, original)

    def snapshot(self) -> dict:
        return {
            "calls": Counter(self.calls),
            "self_s": Counter(self.self_s),
            "counts": Counter(self.counts),
        }
