"""Spans around the public calls of the bifurcation package, from outside.

The tracer replaces public functions and methods with timing wrappers for the
duration of a traced pass and puts the originals back afterwards. Nothing in
the package is edited, so the untraced passes run the code exactly as shipped.
``Walker.move`` is deliberately left alone: a large search calls it about
500k times, and its work is read from ``walker.steps`` and ``walker.revealed``.
"""

from __future__ import annotations

import time
from collections import defaultdict


def _ids_returned(result):
    """Ids returned by an inorder rescan (of a nodes+leaves pair, the nodes)."""
    if isinstance(result, tuple):
        result = result[0]
    return len(result)


def _rounds(result):
    return len(result.rounds)


def _node_count(result):
    return result.size


# (span name, module, attribute path, size of the result or None).
# A path with a dot names a method on a class. Every target must exist: a
# renamed or removed one stops the traced run with an error, rather than
# leaving the layer metrics built on it at zero.
TARGETS = (
    ("generators.build_instance", "generators", "build_instance", _node_count),
    ("generators.place_target", "generators", "place_target", None),
    ("generators.gen_complete_path", "generators", "gen_complete_path", None),
    ("model.inorder", "model", "TreeInstance.inorder_ranks", None),
    ("model.inorder", "model", "TreeInstance.inorder_sequence", None),
    ("algorithms.bifurcation_search", "algorithms", "bifurcation_search", _rounds),
    ("algorithms.baseline_full", "algorithms", "baseline_full", None),
    ("algorithms.baseline_rounds", "algorithms", "baseline_rounds", None),
    ("algorithms.halve", "algorithms", "halve", None),
    ("algorithms.median", "algorithms", "median_node", None),
    ("algorithms.median", "algorithms", "median_leaf", None),
    ("algorithms.trim", "algorithms", "trim", None),
    ("algorithms.final_binary_search", "algorithms", "final_binary_search", None),
    ("algorithms.rescan", "algorithms", "ExploredTree.inorder_nodes_and_leaves",
     _ids_returned),
    ("algorithms.rescan", "algorithms", "ExploredTree.inorder_below", _ids_returned),
    ("lowerbound.minimax_price", "lowerbound", "minimax_price", None),
    ("lowerbound.adaptive_fork_adversary", "lowerbound",
     "adaptive_fork_adversary", None),
    ("lowerbound.oracle_init", "lowerbound", "AdaptiveOracle.__init__", None),
    ("lowerbound.adaptive_query", "lowerbound", "AdaptiveOracle.query", None),
    ("harness.run_experiment", "harness", "run_experiment", None),
)

MODULES = ("model", "algorithms", "generators", "lowerbound", "harness")


class Tracer:
    """In-memory span recorder. A span is [name, start, end, parent, size].

    Walkers and instrumented oracles are collected as they are built, not
    timed; ``harvest`` reads their counters once an operation has returned.
    """

    def __init__(self, package):
        self.package = package
        self.spans = []
        self.counts = defaultdict(int)
        self._stack = []
        self._walkers = []
        self._oracles = []
        self._undo = []

    def _timed(self, name, fn, size):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if size is not None:
                span[4] = size(result)
            return result

        return traced

    @staticmethod
    def _collecting(init, into):
        def collecting(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            into.append(obj)

        return collecting

    def _bind(self, owner, key, value):
        """Set an attribute or a dict entry, remembering how to undo it."""
        if isinstance(owner, dict):
            self._undo.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._undo.append((owner, key, getattr(owner, key)))
            setattr(owner, key, value)

    def _rebind_everywhere(self, original, replacement):
        """Replace every module-level name and registry entry holding
        ``original``: ``from .x import f`` copies the binding into the
        importing module, and ``ALGORITHMS`` holds the search functions."""
        modules = [self.package] + [getattr(self.package, m) for m in MODULES]
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._bind(mod, key, replacement)
                elif isinstance(value, dict) and not key.startswith("__"):
                    for k, v in list(value.items()):
                        if v is original:
                            self._bind(value, k, replacement)

    def install(self):
        for name, module, path, size in TARGETS:
            owner = getattr(self.package, module)
            *classes, attr = path.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            original = getattr(owner, attr)
            wrapped = self._timed(name, original, size)
            if classes:
                self._bind(owner, attr, wrapped)
            else:
                self._rebind_everywhere(original, wrapped)
        model = self.package.model
        for cls, into in ((model.Walker, self._walkers),
                          (model.InstrumentedOracle, self._oracles)):
            self._bind(cls, "__init__", self._collecting(cls.__init__, into))

    def uninstall(self):
        while self._undo:
            owner, key, saved = self._undo.pop()
            if isinstance(owner, dict):
                owner[key] = saved
            else:
                setattr(owner, key, saved)

    def harvest(self):
        """Fold in the counters of the walkers and oracles built since the
        last call."""
        for w in self._walkers:
            self.counts["walker_steps"] += w.steps
            self.counts["revealed"] += w.revealed.count(1)
        for o in self._oracles:
            self.counts["oracle_calls"] += o.calls
        self._walkers.clear()
        self._oracles.clear()


def layer_totals(spans, counts):
    """Raw per-layer sums of one traced phase: times in s, counts as ints."""
    dur = defaultdict(float)
    size = defaultdict(int)
    calls = defaultdict(int)
    covered = [0.0] * len(spans)
    for name, start, end, parent, n in spans:
        dur[name] += end - start
        size[name] += n
        calls[name] += 1
        if parent >= 0:
            covered[parent] += end - start

    def self_time(name):
        return sum(s[2] - s[1] - covered[i] for i, s in enumerate(spans)
                   if s[0] == name)

    def under(name, parent_name):
        return [s for s in spans if s[0] == name and s[3] >= 0
                and spans[s[3]][0] == parent_name]

    # Decimation is a halving plus the rescans around it; a rescan made by a
    # halving (median_leaf) already lies inside the halving's span.
    decimate = sum(s[2] - s[1] for s in spans
                   if s[0] == "algorithms.halve"
                   or (s[0] == "algorithms.rescan" and s[3] >= 0
                       and spans[s[3]][0] == "algorithms.bifurcation_search"))
    final_rescans = under("algorithms.rescan",
                          "algorithms.final_binary_search")
    arena = under("generators.gen_complete_path",
                  "lowerbound.adaptive_fork_adversary")
    return {
        "generators.build_instance_s": dur["generators.build_instance"],
        "generators.place_target_s": dur["generators.place_target"],
        "generators.nodes": size["generators.build_instance"],
        "model.inorder_s": dur["model.inorder"],
        "model.walker_steps": counts["walker_steps"],
        "model.revealed": counts["revealed"],
        "model.oracle_calls": counts["oracle_calls"],
        "algorithms.search_s": dur["algorithms.bifurcation_search"],
        "algorithms.explore_s": self_time("algorithms.bifurcation_search"),
        "algorithms.decimate_s": decimate,
        "algorithms.median_s": dur["algorithms.median"],
        "algorithms.trim_s": dur["algorithms.trim"],
        "algorithms.halvings": calls["algorithms.halve"],
        "algorithms.rescan_nodes": size["algorithms.rescan"],
        "algorithms.final_bisect_s": dur["algorithms.final_binary_search"],
        "algorithms.final_candidates": sum(s[4] for s in final_rescans),
        "algorithms.rounds": size["algorithms.bifurcation_search"],
        "algorithms.full_s": dur["algorithms.baseline_full"],
        "algorithms.rounds_baseline_s": dur["algorithms.baseline_rounds"],
        "lowerbound.minimax_s": dur["lowerbound.minimax_price"],
        "lowerbound.adversary_s": dur["lowerbound.adaptive_fork_adversary"],
        "lowerbound.arena_build_s": sum(s[2] - s[1] for s in arena),
        "lowerbound.adversary_setup_s": dur["lowerbound.oracle_init"],
        "lowerbound.adaptive_query_s": dur["lowerbound.adaptive_query"],
        "lowerbound.adaptive_queries": calls["lowerbound.adaptive_query"],
        "harness.run_experiment_s": dur["harness.run_experiment"],
        "harness.self_s": self_time("harness.run_experiment"),
    }
