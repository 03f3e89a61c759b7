#!/usr/bin/env python3
"""Benchmark of the bifurcation package: model cost and wall-clock time.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload staged_large --seed 1 \
        --seconds 30 --trace 0

Workloads (see README.md in this directory for why each was chosen):

* ``staged_large``: the staged search on prebuilt large instances.
* ``sweep_grid``: ``harness.run_experiment`` over a fixed grid of cells.
* ``lowerbound_lab``: ``minimax_price`` and the adaptive fork adversary.

Each workload is a list of operations. A pass runs every operation once;
passes repeat until ``--seconds`` have gone by, and an operation's time is
the median over passes. A fixed reference kernel (``reference.py``) is timed
next to every timed call, and the call's time is scaled by the kernel's
nominal time over its measured time, so that a slow stretch of the host does
not read as a slow package. Every result is checked, and the counters of
every operation must repeat exactly from pass to pass, traced or not. With
``--trace 0`` the last line of output carries the end-to-end metrics; with
``--trace 1`` passes alternate between untraced and traced, and the last
line carries the per-layer metrics. The process exits nonzero when any
operation failed or when the package cannot be found.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# The workloads are single-threaded Python; keep numpy's BLAS pool from
# starting threads that would only add noise.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("steps", "count"),
    ("oracle_calls", "count"),
    ("cost_linear_decider", "count"),
    ("call_budget_ratio_max", "ratio"),
)

PER_LAYER = (
    ("generators.build_instance_s", "s"),
    ("generators.place_target_s", "s"),
    ("generators.nodes_per_s", "1/s"),
    ("model.inorder_s", "s"),
    ("model.walker_steps", "count"),
    ("model.oracle_calls", "count"),
    ("model.reveal_yield", "ratio"),
    ("algorithms.search_s", "s"),
    ("algorithms.explore_s", "s"),
    ("algorithms.decimate_s", "s"),
    ("algorithms.median_s", "s"),
    ("algorithms.trim_s", "s"),
    ("algorithms.halvings", "count"),
    ("algorithms.rescan_nodes", "count"),
    ("algorithms.final_bisect_s", "s"),
    ("algorithms.final_candidates", "count"),
    ("algorithms.rounds", "count"),
    ("algorithms.full_s", "s"),
    ("algorithms.rounds_baseline_s", "s"),
    ("lowerbound.minimax_s", "s"),
    ("lowerbound.adversary_s", "s"),
    ("lowerbound.arena_build_s", "s"),
    ("lowerbound.adversary_setup_s", "s"),
    ("lowerbound.adaptive_query_s", "s"),
    ("lowerbound.adaptive_queries", "count"),
    ("harness.run_experiment_s", "s"),
    ("harness.self_s", "s"),
    ("trace.overhead_s", "s"),
)

SETUP_REPEATS = 3
IMPORT_PROBES = 15
MIN_PASSES = 3        # untraced
MIN_TRACE_PASSES = 4  # half of them traced

# Instance sizes per workload; "small" is the self-check scale.
SIZES = {
    "full": {
        "staged": (("random", 8192, 256, 16), ("comb", 8192, 64, 4)),
        "sweep_ns": (1 << 10, 1 << 12),
        "sweep_ts": (16, 64),
        "sweep_trials": 2,
        "minimax": (10, 56),
        "adversary": (4096, 64),
    },
    "small": {
        "staged": (("random", 512, 16, 3), ("comb", 512, 8, 1)),
        "sweep_ns": (64, 128),
        "sweep_ts": (4, 16),
        "sweep_trials": 1,
        "minimax": (6, 22),
        "adversary": (256, 16),
    },
}

SWEEP_FAMILIES = ("random", "comb", "complete_path")
SWEEP_ALGOS = ("bifurcation", "full", "rounds")

# Cells deliberately absent from sweep_grid. complete_path turns t into a
# complete tree of height sqrt(t) with n // sqrt(t) edges per stretched edge;
# at t = 256 that is more than the generator's 8M-node cap for every
# n >= 1024, so the cell raises InfeasibleInstanceError instead of running.
# They are listed in every sweep_grid output rather than dropped silently.
SWEEP_EXCLUDED = (
    (("complete_path", 1 << 10, 256),
     "InfeasibleInstanceError: over the 8M-node cap of gen_complete_path"),
    (("complete_path", 1 << 12, 256),
     "InfeasibleInstanceError: over the 8M-node cap of gen_complete_path"),
)

PLAYERS = ("bifurcation", "full", "rounds")


@dataclasses.dataclass(frozen=True)
class Outcome:
    """Checked result of one operation. ``key`` must repeat exactly."""

    ok: bool
    key: tuple
    steps: int = 0
    calls: int = 0
    cost: int = 0
    ratio: float | None = None


@dataclasses.dataclass(frozen=True)
class Op:
    label: str
    run: object    # () -> raw result; this call alone is timed
    check: object  # raw result -> Outcome
    numpy: bool = False  # time spent mostly in numpy, not in Python


def budget_ratio(calls, n, t):
    """Oracle calls over the staged search's call budget sqrt(t) + log2(n)."""
    return calls / (math.sqrt(t) + math.log2(n))


# --------------------------------------------------------------- workloads
# A workload's setup builds its inputs from the seed and returns its ops.
# Package functions are looked up at call time, so a traced pass sees the
# tracer's wrappers.


def setup_staged_large(bf, seed, size):
    cells = [(family, n, t) for family, n, t, count in size["staged"]
             for _ in range(count)]
    ops = []
    for i, (family, n, t) in enumerate(cells):
        spec = bf.generators.FamilySpec(family, n, t,
                                        bf.generators.mix_seed(seed, i))
        tree = bf.generators.build_instance(spec)
        tree.inorder_ranks()
        ops.append(Op("%s n=%d t=%d" % (spec.family, spec.n, spec.t),
                      lambda tree=tree: _staged_search(bf, tree),
                      lambda result, tree=tree: _check_search(tree, result)))
    return ops


def _staged_search(bf, tree):
    oracle = bf.model.InstrumentedOracle(tree)
    return bf.algorithms.bifurcation_search(tree, oracle)


def _check_search(tree, r):
    return Outcome(r.found == tree.target,
                   (r.found, r.steps, r.oracle_calls,
                    tuple(map(dataclasses.astuple, r.rounds))),
                   r.steps, r.oracle_calls, r.steps + tree.n * r.oracle_calls,
                   budget_ratio(r.oracle_calls, tree.n, tree.t))


def sweep_cells(size):
    """The sweep_grid cells, listed in the order they run."""
    return [(family, n, t) for family in SWEEP_FAMILIES
            for n in size["sweep_ns"] for t in size["sweep_ts"]]


def setup_sweep_grid(bf, seed, size):
    ops = []
    runs = [(cell, trial) for cell in sweep_cells(size)
            for trial in range(size["sweep_trials"])]
    for i, ((family, n, t), trial) in enumerate(runs):
        spec = bf.generators.FamilySpec(family, n, t,
                                        bf.generators.mix_seed(seed, i))
        for algo in SWEEP_ALGOS:
            label = "%s n=%d t=%d trial %d %s" % (family, n, t, trial, algo)
            ops.append(Op(label,
                          lambda spec=spec, algo=algo:
                          bf.harness.run_experiment(spec, algo),
                          _check_record))
    return ops


def _check_record(rec):
    ratio = (budget_ratio(rec.oracle_calls, rec.n, rec.t)
             if rec.algo == "bifurcation" else None)
    return Outcome(rec.found, dataclasses.astuple(rec), rec.steps, rec.oracle_calls,
                   rec.cost_linear_decider, ratio)


def setup_lowerbound_lab(bf, seed, size):
    # The lab's inputs are fixed by the paper's witnesses (the complete
    # stretched arena and the pricing game); the seed has nothing to pick.
    h, value = size["minimax"]
    n, t = size["adversary"]
    ops = [Op("minimax_price h=%d" % h,
              lambda: bf.lowerbound.minimax_price(h),
              lambda v: Outcome(v == value, (v,)), numpy=True)]
    for player in PLAYERS:
        ops.append(Op("adversary n=%d t=%d %s" % (n, t, player),
                      lambda player=player:
                      bf.lowerbound.adaptive_fork_adversary(n, t, player),
                      _check_report))
    return ops


def _check_report(rep):
    key = (rep.steps, rep.oracle_calls, rep.cost, rep.target,
           rep.revealed_forks, rep.froze, rep.transcript)
    ratio = (budget_ratio(rep.oracle_calls, rep.instance_n, rep.t)
             if rep.player == "bifurcation" else None)
    return Outcome(rep.replay_consistent(), key, rep.steps, rep.oracle_calls,
                   rep.cost, ratio)


WORKLOADS = {
    "staged_large": setup_staged_large,
    "sweep_grid": setup_sweep_grid,
    "lowerbound_lab": setup_lowerbound_lab,
}


# ------------------------------------------------------------- environment


def commit_id():
    """HEAD of the checkout's own .git; None when it has none."""
    try:
        out = subprocess.run(["git", "--git-dir", os.path.join(ROOT, ".git"),
                              "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=30)
    except OSError:
        return None
    return out.stdout.strip() or None


def environment(seed, load_at_start):
    import numpy
    return {"seed": seed, "nproc": os.cpu_count(),
            "loadavg_at_start": load_at_start,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "commit": commit_id()}


def import_seconds(kernel):
    """Median wall time of a fresh interpreter that imports the package."""
    env = dict(os.environ, PYTHONPATH=SRC)
    times = []
    for _ in range(IMPORT_PROBES):
        _, _, scaled = kernel.timed(lambda: subprocess.run(
            [sys.executable, "-c", "import bifurcation"], cwd=ROOT, env=env,
            check=True, timeout=120))
        times.append(scaled)
    return statistics.median(times)


# ----------------------------------------------------------------- running


class Runner:
    """Runs passes over a workload's ops and keeps every time and outcome.
    Times are scaled to the reference speed; ``unscaled`` keeps the raw
    times of untraced passes."""

    def __init__(self, ops, kernel):
        self.ops = ops
        self.kernel = kernel
        self.times = {False: [[] for _ in ops], True: [[] for _ in ops]}
        self.unscaled = [[] for _ in ops]
        self.first = [None] * len(ops)
        self.attempted = 0
        self.failed = 0
        self.reported = set()

    def run_pass(self, tracer=None):
        for i, op in enumerate(self.ops):
            gc.collect()
            self.attempted += 1
            try:
                result, elapsed, scaled = self.kernel.timed(op.run, op.numpy)
                if tracer is not None:
                    tracer.harvest()
                outcome = op.check(result)
            except Exception:  # a failed operation is counted, not fatal
                self._fail(op, traceback.format_exc())
                continue
            if self.first[i] is None:
                self.first[i] = outcome
            if not outcome.ok:
                self._fail(op, "result check failed")
            elif outcome.key != self.first[i].key:
                self._fail(op, "counters differ from the first pass"
                           + (" (traced)" if tracer is not None else ""))
            else:
                self.times[tracer is not None][i].append(scaled)
                if tracer is None:
                    self.unscaled[i].append(elapsed)

    def _fail(self, op, why):
        self.failed += 1
        if op.label not in self.reported:
            self.reported.add(op.label)
            print("FAILED %s: %s" % (op.label, why), file=sys.stderr)

    def wall(self, traced):
        """Sum over ops of the median time of each op."""
        return sum(statistics.median(t) for t in self.times[traced] if t)

    def wall_unscaled(self):
        return sum(statistics.median(t) for t in self.unscaled if t)

    def counters(self):
        done = [o for o in self.first if o is not None]
        ratios = [o.ratio for o in done if o.ratio is not None]
        return {"steps": sum(o.steps for o in done),
                "oracle_calls": sum(o.calls for o in done),
                "cost_linear_decider": sum(o.cost for o in done),
                "call_budget_ratio_max": max(ratios) if ratios else 0.0}


def layer_metrics(setup_totals, pass_totals, overhead, scale):
    """Setup phase plus the median traced pass, then the derived ratios.
    Span times are scaled by the run's median kernel factor, since a span
    of many calls has no single kernel sample of its own."""
    merged = {k: setup_totals[k]
              + statistics.median_low(p[k] for p in pass_totals)
              for k in setup_totals}
    for k in merged:
        if k.endswith("_s"):
            merged[k] *= scale
    build = merged["generators.build_instance_s"]
    steps = merged["model.walker_steps"]
    merged["generators.nodes_per_s"] = (merged["generators.nodes"] / build
                                        if build > 0 else 0.0)
    merged["model.reveal_yield"] = (merged["model.revealed"] / steps
                                    if steps else 0.0)
    merged["trace.overhead_s"] = overhead
    return merged


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=sorted(SIZES), default="full",
                   help="instance scale; small is for the self-check")
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "bifurcation", "__init__.py")):
        print("error: no bifurcation package under %s" % SRC, file=sys.stderr)
        return 2
    load_at_start = list(os.getloadavg())
    sys.path.insert(0, SRC)
    import bifurcation as bf
    from reference import NOMINAL_S, ReferenceKernel
    from tracing import Tracer, layer_totals

    kernel = ReferenceKernel()
    size = SIZES[args.size]
    setup = WORKLOADS[args.workload]
    print(json.dumps({"env": environment(args.seed, load_at_start)}))

    setup_totals = None
    builds = []
    if args.trace:
        tracer = Tracer(bf)
        tracer.install()
        try:
            ops = setup(bf, args.seed, size)
        finally:
            tracer.uninstall()
        setup_totals = layer_totals(tracer.spans, tracer.counts)
    else:
        import_s = import_seconds(kernel)
        for _ in range(SETUP_REPEATS):
            ops = None  # drop the previous inputs before building new ones
            gc.collect()
            ops, _, scaled = kernel.timed(lambda: setup(bf, args.seed, size))
            builds.append(scaled)

    runner = Runner(ops, kernel)
    pass_totals = []
    passes = 0
    start = time.perf_counter()
    min_passes = MIN_TRACE_PASSES if args.trace else MIN_PASSES
    # Start another pass only if, at the mean pass time so far, it ends
    # within --seconds.
    while (passes < min_passes or (time.perf_counter() - start)
           * (passes + 1) / passes <= args.seconds):
        if args.trace and passes % 2:
            tracer = Tracer(bf)
            tracer.install()
            try:
                runner.run_pass(tracer)
            finally:
                tracer.uninstall()
            pass_totals.append(layer_totals(tracer.spans, tracer.counts))
        else:
            runner.run_pass()
        passes += 1

    detail = {"passes": passes, "ops": [o.label for o in ops],
              "op_median_unscaled_s": [statistics.median(t) if t else None
                                       for t in runner.unscaled],
              "op_counters": [o and {"steps": o.steps, "calls": o.calls}
                              for o in runner.first],
              "error_rate": {"failed": runner.failed,
                             "attempted": runner.attempted,
                             "value": runner.failed / runner.attempted},
              "reference": {"samples": len(kernel.samples),
                            "median_s": statistics.median(kernel.samples),
                            "nominal_s": NOMINAL_S}}
    if args.trace:
        values = layer_metrics(setup_totals, pass_totals,
                               runner.wall(True) - runner.wall(False),
                               kernel.median_scale())
        units = PER_LAYER
    else:
        detail["unscaled_wall_s"] = runner.wall_unscaled()
        values = dict(runner.counters(),
                      wall_s=runner.wall(False),
                      setup_s=import_s + statistics.median(builds),
                      peak_rss_mb=resource.getrusage(
                          resource.RUSAGE_SELF).ru_maxrss / 1024)
        units = END_TO_END
    if args.workload == "sweep_grid":
        detail["excluded_cells"] = [{"cell": list(cell), "reason": why}
                                    for cell, why in SWEEP_EXCLUDED]
    print(json.dumps({"detail": detail}))
    correct = runner.failed == 0
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed,
                      "metrics": {name: {"value": values[name], "unit": unit}
                                  for name, unit in units}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
