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


def _small_pass():
    """A small staged search, one run_experiment per algorithm, the game's
    minimax value and the adaptive adversary. Each function is looked up on
    its module at call time, so a traced pass runs the tracer's wrappers.
    Returns the walker steps of every run and the oracle calls of the runs
    with an InstrumentedOracle (the adversary's oracle is not one)."""
    gen, alg = bifurcation.generators, bifurcation.algorithms
    tree = gen.build_instance(gen.FamilySpec("random", 512, 16, seed=3))
    staged = alg.bifurcation_search(
        tree, bifurcation.model.InstrumentedOracle(tree))
    spec = gen.FamilySpec("comb", 128, 4, seed=1)
    runs = [staged] + [bifurcation.harness.run_experiment(spec, algo)
                       for algo in alg.ALGORITHMS]
    bifurcation.lowerbound.minimax_price(4)
    report = bifurcation.lowerbound.adaptive_fork_adversary(256, 16)
    return (sum(r.steps for r in runs) + report.steps,
            sum(r.oracle_calls for r in runs))


def _bindings(tracing):
    """Every module name, registry entry and class attribute of the traced
    modules, with the object it holds."""
    found = {}
    for mod in [bifurcation] + [getattr(bifurcation, m)
                                for m in tracing.MODULES]:
        for key, value in vars(mod).items():
            found[mod.__name__, key] = value
            if isinstance(value, type):
                value = vars(value)
            elif not isinstance(value, dict) or key.startswith("__"):
                continue
            for k, v in dict(value).items():
                found[mod.__name__, key, k] = v
    return found


def test_a_traced_pass_reaches_every_layer_and_counts_as_untraced():
    # a layer that a refactor stops reaching, say through a local alias the
    # tracer cannot rebind, would read 0 here
    tracing = _load_tracing()
    steps, calls = _small_pass()
    before = _bindings(tracing)
    tracer = tracing.Tracer(bifurcation)
    try:
        tracer.install()
        _small_pass()
        tracer.harvest()
    finally:
        tracer.uninstall()
    totals = tracing.layer_totals(tracer.spans, tracer.counts)
    assert [name for name, value in totals.items() if not value > 0] == []
    assert totals["model.walker_steps"] == steps
    assert totals["model.oracle_calls"] == calls
    after = _bindings(tracing)
    assert after.keys() == before.keys()
    assert [key for key, value in before.items()
            if after[key] is not value] == []
