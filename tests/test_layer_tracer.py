"""The benchmark's layer tracer wraps ``nexthop`` functions by name, so a
rename in ``src/`` must fail here rather than at ``perfbench/run.py --trace 1``.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import nexthop

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _lookup(module, func):
    """The attribute the tracer patches for ``func``: a module function, or a
    method in its class's own namespace."""
    if "." in func:
        cls_name, meth = func.split(".")
        return getattr(module, cls_name).__dict__[meth]
    return getattr(module, func)


def test_tracer_finds_and_restores_every_wrapped_name():
    layers = _load_layers()
    modules = {
        layer: importlib.import_module(f"nexthop.{layer}")
        for layer in layers.FUNCTIONS
    }
    originals = {
        (layer, func): _lookup(modules[layer], func)
        for layer, funcs in layers.FUNCTIONS.items()
        for func in funcs
    }
    tracer = layers.Tracer(nexthop)
    try:
        tracer.install()
        for (layer, func), original in originals.items():
            wrapped = _lookup(modules[layer], func)
            assert wrapped is not original, f"{layer}.{func} not wrapped"
            assert wrapped.__wrapped__ is original
    finally:
        tracer.uninstall()
    for (layer, func), original in originals.items():
        assert _lookup(modules[layer], func) is original, f"{layer}.{func}"
