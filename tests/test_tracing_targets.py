"""The benchmark tracer in perfbench/tracing.py wraps package functions by
name; a rename or removal in the package must fail here, not only in a
traced benchmark run."""

import importlib.util
from pathlib import Path

import bifurcation


def _load_tracing():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_resolves():
    tracing = _load_tracing()
    missing = []
    for _, module, path, _ in tracing.TARGETS:
        owner = getattr(bifurcation, module, None)
        for attr in path.split("."):
            owner = getattr(owner, attr, None)
        if not callable(owner):
            missing.append("%s.%s" % (module, path))
    assert missing == []
    assert all(hasattr(bifurcation, m) for m in tracing.MODULES)
