"""Acceptance gate. Each test exercises one numbered criterion at its stated
tolerance and prints one pass/fail line."""

import contextlib
import math
import random
import time

import pytest

from bifurcation import algorithms
from bifurcation.algorithms import bifurcation_search
from bifurcation.generators import (FamilySpec, build_instance, gen_random,
                                    mix_seed, place_target)
from bifurcation.harness import ExperimentRecord, fit_scaling
from bifurcation.lowerbound import (adaptive_fork_adversary, minimax_price,
                                    play_game)
from bifurcation.model import FOUND, InstrumentedOracle

from helpers import brute_minimax, target_inside_stub

GRID_NS = (1 << 10, 1 << 12, 1 << 14)
GRID_TS = (16, 64, 256)
GRID_TRIALS = 5

CALL_FACTOR = 8.0
STEP_FACTOR = 64.0
ROUND_CONSTANT = 6.0


def _report(num, name, ok, detail=""):
    print("\n[criterion %02d] %-24s %s  %s"
          % (num, name, "PASS" if ok else "FAIL", detail))
    return ok


class _TrimAudit:
    """Counts stub creations and target-inside-stub violations across runs.

    ``watching(tree)`` wraps ``algorithms.trim`` for the searches run inside
    it; ``halve`` looks ``trim`` up at call time, so every trim is seen.
    """

    def __init__(self):
        self.checked = 0
        self.violations = 0

    @contextlib.contextmanager
    def watching(self, tree):
        trim = algorithms.trim

        def checked_trim(explored, u, answer):
            new_stubs = trim(explored, u, answer)
            self.checked += len(new_stubs)
            if target_inside_stub(tree, explored):
                self.violations += 1
            return new_stubs

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(algorithms, "trim", checked_trim)
            yield


@pytest.fixture(scope="module")
def audit():
    return _TrimAudit()


@pytest.fixture(scope="module")
def correctness_runs(audit):
    """Criterion 1 workload: >= 1000 random instances, all three algorithms."""
    rng = random.Random(20260808)
    cases = []
    for k in range(1000):
        u = rng.uniform(4.0, 12.0)
        n = max(16, min(4096, int(2.0 ** u)))
        t_hi = min(256, max(1, (1 << 13) // n))
        t = rng.randint(0, t_hi)
        cases.append((n, t, k))
    # pin the parameter-range corners explicitly
    cases += [(16, 0, 9001), (16, 256, 9002), (4096, 0, 9003),
              (4096, 2, 9004), (4096, 256, 9005), (2048, 128, 9006)]
    strategies = ("random_node", "random_leaf", "adversarial_deep", "fixed:0")
    failures = []
    t0 = time.perf_counter()
    for n, t, k in cases:
        tree = gen_random(n, t, seed=mix_seed(1, k))
        tree.target = place_target(tree, strategies[k % 4], seed=mix_seed(2, k))
        for algo, search in algorithms.ALGORITHMS.items():
            oracle = InstrumentedOracle(tree)
            with audit.watching(tree):
                result = search(tree, oracle)
            if result.found != tree.target:
                failures.append((n, t, k, algo))
    elapsed = time.perf_counter() - t0
    return {"count": len(cases), "failures": failures, "elapsed": elapsed}


@pytest.fixture(scope="module")
def grid_runs(audit):
    """Criteria 2/3/7 workload: the call/step budget grid, 5 trials a cell."""
    runs = []
    for n in GRID_NS:
        for t in GRID_TS:
            for trial in range(GRID_TRIALS):
                seed = mix_seed(42, n * 1000 + t * 10 + trial)
                spec = FamilySpec("random", n, t, seed)
                tree = build_instance(spec)
                oracle = InstrumentedOracle(tree)
                with audit.watching(tree):
                    result = bifurcation_search(tree, oracle)
                assert result.found == tree.target
                runs.append((n, t, seed, result.params, result))
    return runs


@pytest.fixture(scope="module")
def separation_runs(audit):
    """Criterion 4 workload: complete_path, fixed fork parameter 64."""
    rows = []
    for n in GRID_NS:
        spec = FamilySpec("complete_path", n, 64, seed=1,
                          target_strategy="adversarial_deep")
        tree = build_instance(spec)
        oracle_b = InstrumentedOracle(tree)
        with audit.watching(tree):
            rb = bifurcation_search(tree, oracle_b)
        assert rb.found == tree.target
        oracle_r = InstrumentedOracle(tree)
        rr = algorithms.baseline_rounds(tree, oracle_r)
        assert rr.found == tree.target
        rows.append((n, rr.oracle_calls, rb.oracle_calls))
    return rows


def test_criterion_01_correctness_sweep(correctness_runs):
    ok = (not correctness_runs["failures"]
          and correctness_runs["count"] >= 1000
          and correctness_runs["elapsed"] < 60.0)
    assert _report(
        1, "correctness sweep", ok,
        "%d instances x 3 algorithms, %d misses, %.1fs"
        % (correctness_runs["count"], len(correctness_runs["failures"]),
           correctness_runs["elapsed"]))
    assert correctness_runs["elapsed"] < 60.0


def test_criterion_02_oracle_call_budget(grid_runs):
    worst = 0.0
    for n, t, _, _, result in grid_runs:
        budget = CALL_FACTOR * (math.sqrt(t) + math.log2(n))
        worst = max(worst, result.oracle_calls / budget)
    ok = worst <= 1.0
    assert _report(2, "oracle call budget", ok,
                   "max calls/budget = %.3f over %d runs"
                   % (worst, len(grid_runs)))


def test_criterion_03_step_budget_and_exponents(grid_runs):
    worst = 0.0
    records = []
    for n, t, seed, params, result in grid_runs:
        budget = STEP_FACTOR * n * math.sqrt(t)
        worst = max(worst, result.steps / budget)
        records.append(ExperimentRecord(
            family="random", n=n, t=t, psi=params.psi, algo="bifurcation",
            seed=seed, steps=result.steps, oracle_calls=result.oracle_calls,
            found=True, target_inorder_rank=0,
            cost_linear_decider=result.steps + n * result.oracle_calls))
    report = fit_scaling(records, metrics=("steps",))
    en, et, _ = report.exponents["bifurcation"]["steps"]
    ok = worst <= 1.0 and 0.9 <= en <= 1.1 and 0.4 <= et <= 0.6
    assert _report(3, "step budget + scaling", ok,
                   "max steps/budget = %.3f, exponents n^%.3f t^%.3f"
                   % (worst, en, et))


def test_criterion_04_separation_from_round_baseline(separation_runs):
    ratios = [rounds_calls / bif_calls
              for _, rounds_calls, bif_calls in separation_runs]
    ok = all(a < b for a, b in zip(ratios, ratios[1:]))
    assert _report(4, "baseline separation", ok,
                   "call ratios " + ", ".join("%.2f" % r for r in ratios))


def test_criterion_05_halving_size_bound():
    from bifurcation.algorithms import ExploredTree, halve
    from helpers import preorder_prefix
    checked = 0
    violations = 0
    seed = 0
    while checked < 300:
        seed += 1
        n = 8 + seed % 24
        tree = gen_random(n, n, seed=mix_seed(5, seed))
        if tree.size < 4 * n:
            continue
        tree.target = place_target(tree, "random_node", seed=seed)
        ids = preorder_prefix(tree, 4 * n)
        explored = ExploredTree(tree)
        walker = explored.walker
        for v in ids[1:]:  # revealed, so trim can ask the walker for kinds
            walker.revealed[v] = 1
            explored.add_chain(v, v)
        oracle = InstrumentedOracle(tree)
        answer, _, _ = halve(explored, oracle)
        if answer == FOUND:
            continue
        checked += 1
        if explored.node_count > 1 + 3 * n:
            violations += 1
    ok = violations == 0
    assert _report(5, "halving size bound", ok,
                   "%d triggered halvings, %d violations"
                   % (checked, violations))


def test_criterion_06_trim_soundness(audit, correctness_runs, grid_runs,
                                     separation_runs):
    ok = audit.checked > 0 and audit.violations == 0
    assert _report(6, "trim soundness", ok,
                   "%d stub creations audited, %d violations"
                   % (audit.checked, audit.violations))


def test_criterion_07_per_round_call_bound(grid_runs):
    worst = 0.0
    for _, _, _, params, result in grid_runs:
        for rs in result.rounds:
            ratio = rs.oracle_calls / (1.0 + rs.new_forks / params.leaf_budget)
            worst = max(worst, ratio)
    ok = worst <= ROUND_CONSTANT
    assert _report(7, "per-round call bound", ok,
                   "max o_i / (1 + f_i/L) = %.2f (cap %.0f)"
                   % (worst, ROUND_CONSTANT))


def test_criterion_08_leaf_game_values():
    t0 = time.perf_counter()
    exact_ok = all(minimax_price(h) == brute_minimax(h) for h in (1, 2, 3))
    vals = [minimax_price(h) for h in range(1, 11)]
    growth_ok = all(v >= h * h / 8.0 for h, v in enumerate(vals, 1))
    ratios = [v / h for h, v in enumerate(vals, 1)]
    ratio_ok = all(a < b for a, b in zip(ratios, ratios[1:]))
    elapsed = time.perf_counter() - t0
    ok = exact_ok and growth_ok and ratio_ok and elapsed < 30.0
    assert _report(8, "leaf game values", ok,
                   "values %s, %.1fs" % (vals, elapsed))
    assert elapsed < 30.0


def test_criterion_09_trap_inequality():
    rng = random.Random(99)
    applicable = 0
    violations = 0
    for i in range(10_000):
        h = 1 + i % 10
        transcript = play_game("random", h, seed=mix_seed(9, i))
        x, y = 0, (1 << h) - 1
        queried = set()
        for step in transcript.steps:
            q = step.query
            if x < q < y and (x - 1) in queried and (y + 1) in queried:
                applicable += 1
                bound = max(1.0, min(math.log2(q - (x - 1)),
                                     math.log2((y + 1) - q)))
                if step.price < bound:
                    violations += 1
            queried.add(q)
            x, y = step.range_lo, step.range_hi
    ok = applicable > 0 and violations == 0
    assert _report(9, "trap price inequality", ok,
                   "%d applicable steps, %d violations"
                   % (applicable, violations))


def test_criterion_10_linear_decider_adversary():
    worst_margin = float("inf")
    all_consistent = True
    runs = 0
    for t in (4, 16, 64):
        for n in (64, 256):
            floor = n * math.sqrt(t) / 8.0
            for player in ("bifurcation", "rounds", "full"):
                rep = adaptive_fork_adversary(n, t, player)
                runs += 1
                worst_margin = min(worst_margin, rep.cost / floor)
                if not rep.replay_consistent():
                    all_consistent = False
    ok = worst_margin >= 1.0 and all_consistent
    assert _report(10, "linear-decider adversary", ok,
                   "%d runs, min cost/floor = %.2f, replay consistent: %s"
                   % (runs, worst_margin, all_consistent))
