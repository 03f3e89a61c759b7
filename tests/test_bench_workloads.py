"""The benchmark's workloads in perfbench/run.py, run in process at the
small size: every operation checks out and repeats its counters, and the
summed counters are pinned. A package change that a workload reads (a
renamed field, a moved function) fails here, not only in a benchmark run."""

import importlib.util
import sys
from pathlib import Path

import pytest

import bifurcation


def _load_run():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"
    spec = importlib.util.spec_from_file_location("perfbench_run", path)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while they are built
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


RUN = _load_run()


@pytest.mark.parametrize("workload, steps, calls, cost", [
    ("staged_large", 19_246, 48, 43_822),
    ("sweep_grid", 25_772, 338, 59_372),
    ("lowerbound_lab", 9_664, 55, 23_744),
])
def test_workload_ops_check_out_and_repeat(workload, steps, calls, cost):
    ops = RUN.WORKLOADS[workload](bifurcation, 7, RUN.SIZES["small"])
    first = [op.check(op.run()) for op in ops]
    again = [op.check(op.run()) for op in ops]
    assert all(o.ok for o in first + again)
    assert [o.key for o in again] == [o.key for o in first]
    assert (sum(o.steps for o in first), sum(o.calls for o in first),
            sum(o.cost for o in first)) == (steps, calls, cost)


@pytest.mark.parametrize("player, steps, calls, forks, froze, target", [
    ("bifurcation", 231_424, 18, 64, True, 6144),
    ("full", 145_408, 17, 64, True, 1024),
    ("rounds", 16_128, 152, 8, False, 8192),
])
def test_lowerbound_lab_full_size_freeze(player, steps, calls, forks, froze,
                                         target):
    """The lab's adversary at full size, where the budget of 64 forks is
    reached and the freeze runs; at the small size nothing freezes."""
    n, t = RUN.SIZES["full"]["adversary"]
    rep = bifurcation.lowerbound.adaptive_fork_adversary(n, t, player)
    assert rep.replay_consistent()
    assert (rep.steps, rep.oracle_calls, rep.revealed_forks, rep.froze,
            rep.target) == (steps, calls, forks, froze, target)
