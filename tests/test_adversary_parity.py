"""The adaptive adversary against the brute-force reference in helpers.

Both oracles face the same player on identical copies of one tree, so as
long as their answers agree the walks agree too; every answer, the freeze
and the tree it leaves behind must match.
"""

import pytest

from bifurcation.algorithms import ALGORITHMS, _ceil_div, _ceil_sqrt
from bifurcation.generators import gen_comb, gen_complete_path, gen_random
from bifurcation.lowerbound import AdaptiveOracle
from bifurcation.model import TreeError

from helpers import ReferenceAdaptiveOracle

PLAYERS = tuple(ALGORITHMS)


def _arena(n, t):
    h = _ceil_sqrt(t)
    return lambda: gen_complete_path(h, _ceil_div(n, h))


def _play(oracle_cls, tree, budget, player):
    oracle = oracle_cls(tree, budget)
    try:
        result = ALGORITHMS[player](tree, oracle)
        outcome = (result.found, result.steps, result.oracle_calls)
    except TreeError as exc:
        outcome = type(exc)
    return (outcome, oracle.calls, oracle.transcript, oracle.committed,
            oracle.revealed_forks, oracle.froze, tree.parent, tree.left,
            tree.right)


def _check(build, budget, player):
    got = _play(AdaptiveOracle, build(), budget, player)
    want = _play(ReferenceAdaptiveOracle, build(), budget, player)
    assert got == want
    return got


# (tree builder, fork budgets): budget 1 freezes on the first fork, the
# root itself on the arenas, before the walker has finished starting up.
CASES = [
    ("arena-32-4", _arena(32, 4), (1, 2, 4)),
    ("arena-64-16", _arena(64, 16), (1, 5, 16)),
    ("arena-256-9", _arena(256, 9), (1, 3, 9)),
    ("path-2-3", lambda: gen_complete_path(2, 3), (1, 2, 9)),
    ("random-64-6", lambda: gen_random(64, 6, seed=1), (1, 3, 7)),
    ("random-96-20", lambda: gen_random(96, 20, seed=4), (1, 8, 21)),
    ("random-48-30", lambda: gen_random(48, 30, seed=9), (2, 12, 31)),
    ("comb-64-8", lambda: gen_comb(64, 8, seed=2), (1, 4, 9)),
    ("comb-40-15", lambda: gen_comb(40, 15, seed=5), (1, 6, 16)),
]


@pytest.mark.parametrize("name,build,budgets", CASES,
                         ids=[c[0] for c in CASES])
def test_adaptive_oracle_matches_reference(name, build, budgets):
    froze = set()
    for budget in budgets:
        for player in PLAYERS:
            froze.add(_check(build, budget, player)[5])
    assert True in froze


def test_adaptive_oracle_matches_reference_without_a_freeze():
    got = _check(_arena(4096, 64), 64, "rounds")
    assert got[4] == 8
    assert not got[5]
