"""``dfs_extend``, which walks unary runs with ``Walker.follow`` and
``Walker.climb``, against the single-move ``reference_dfs_extend`` in
helpers.

Two copies of one search state, each with its own walker and explored tree,
take the same calls: ``dfs_extend`` on one and the reference on the other,
from varied anchors and depth limits, with stubs made by real ``trim`` calls
in between. After every call the whole state must match: the return value,
the walker's position, steps and revealed bytes, the ``on_fork`` calls,
every ``ExploredTree`` array and both counts.
"""

import random

import pytest

from bifurcation import algorithms
from bifurcation.algorithms import (ALGORITHMS, ExploredTree, _ceil_div,
                                    _ceil_sqrt, _descend, dfs_extend,
                                    median_leaf, median_node, trim)
from bifurcation.generators import (gen_comb, gen_complete_path, gen_random,
                                    place_target)
from bifurcation.lowerbound import AdaptiveOracle, adaptive_fork_adversary
from bifurcation.model import FOUND, InstrumentedOracle, TreeError, Walker

from helpers import (explored_ids, explored_kinds, path_to_root,
                     reference_dfs_extend)


class _Side:
    def __init__(self, tree):
        self.log = []
        self.explored = ExploredTree(tree, self.log.append)
        self.walker = self.explored.walker

    def state(self):
        w = self.walker
        e = self.explored
        return (w.current, w.steps, bytes(w.revealed), list(self.log),
                explored_kinds(e), bytes(e.held), bytes(e.stub),
                e.node_count, len(e.leaves()))

    def go_to(self, anchor):
        """Climb to the root, then walk the explored path down to anchor."""
        w = self.walker
        while w.current != w.tree.root:
            w.move(w.tree.parent[w.current])
        _descend(self.explored, anchor)


def _instances():
    for seed in range(6):
        yield gen_random(16 + 40 * seed, 3 * seed, seed=seed)
        yield gen_random(64, 20 + seed, seed=seed + 50)
        yield gen_comb(20 + 30 * seed, 1 + 2 * seed, seed=seed)
        yield gen_complete_path(1 + seed % 4, 1 + seed)


def _play(tree, rng, seen):
    """Alternate explorations and trims on both copies; returns the number
    of ``dfs_extend`` calls compared."""
    tree.target = place_target(tree, "random_node", rng.randrange(1000))
    new = _Side(tree)
    ref = _Side(tree)
    oracle = InstrumentedOracle(tree)
    runs = 0
    for _ in range(12):
        explored = new.explored
        live = [v for v in explored_ids(explored) if not explored.stub[v]]
        anchor = rng.choice(live) if rng.random() < 0.5 else tree.root
        for side in (new, ref):
            side.go_to(anchor)
        depth = len(path_to_root(explored, anchor)) - 1
        limit = depth + rng.randint(-1, tree.n // 2 + 1)
        got = dfs_extend(new.explored, limit)
        want = reference_dfs_extend(ref.explored, limit)
        assert (got, new.state()) == (want, ref.state())
        runs += 1
        seen.add("root" if anchor == tree.root else "inner anchor")
        for _ in range(rng.randint(0, 3)):
            median = median_leaf if rng.random() < 0.5 else median_node
            try:
                u = median(new.explored)
            except TreeError:
                break
            answer = oracle.query(u)
            if answer == FOUND:
                break
            stubs = trim(new.explored, u, answer)
            assert trim(ref.explored, u, answer) == stubs
            if stubs:
                seen.add("stubs")
    return runs


def test_dfs_extend_matches_the_single_move_reference():
    rng = random.Random(12)
    seen = set()
    runs = 0
    for tree in _instances():
        for _ in range(3):
            runs += _play(tree, rng, seen)
    assert runs >= 800
    assert seen == {"root", "inner anchor", "stubs"}


def _report(monkeypatch, dfs, n, t, player):
    monkeypatch.setattr(algorithms, "dfs_extend", dfs)
    r = adaptive_fork_adversary(n, t, player)
    return (r.steps, r.oracle_calls, r.cost, r.target, r.revealed_forks,
            r.froze, r.transcript, r.tree.parent, r.tree.left, r.tree.right)


# (n, t): the arena has 2**ceil(sqrt(t)) - 1 forks, so only t = 2, 5, 10,
# 20 and 40 can reach the fork budget and freeze
CELLS = [(16, 2), (40, 5), (64, 10), (128, 20), (256, 40), (64, 4),
         (128, 16)]


def test_adversary_reports_match_the_reference(monkeypatch):
    froze = set()
    for n, t in CELLS:
        for player in ALGORITHMS:
            got = _report(monkeypatch, dfs_extend, n, t, player)
            want = _report(monkeypatch, reference_dfs_extend, n, t, player)
            assert got == want
            froze.add(got[5])
    assert froze == {True, False}


class _Recording(AdaptiveOracle):
    """An adaptive oracle that also remembers every fork revealed."""

    def __init__(self, tree, fork_budget):
        super().__init__(tree, fork_budget)
        self.seen = []

    def on_fork(self, node):
        self.seen.append(node)
        super().on_fork(node)


def _freeze_play(monkeypatch, dfs, budget, player):
    h = 3
    tree = gen_complete_path(h, _ceil_div(48, h))
    forks = [f for f in range(tree.size)
             if tree.left[f] >= 0 and tree.right[f] >= 0]
    oracle = _Recording(tree, budget)
    walkers = []

    def build(*args):
        walkers.append(Walker(*args))
        return walkers[-1]

    monkeypatch.setattr(algorithms, "dfs_extend", dfs)
    monkeypatch.setattr(algorithms, "Walker", build)
    result = ALGORITHMS[player](tree, oracle)
    # demoted forks that kept child id + 1 and that the walker entered
    [walker] = walkers
    kept = [f for f in forks if walker.revealed[f] and tree.right[f] < 0
            and tree.left[f] == f + 1]
    return (result.found, result.steps, result.oracle_calls, oracle.calls,
            oracle.transcript, oracle.froze, oracle.seen, tree.parent,
            tree.left, tree.right), kept


def test_freeze_that_keeps_child_id_plus_one_matches_reference(monkeypatch):
    """A demoted fork keeps its run flag of 0, so a run ends on it early;
    budget 1 freezes inside ``Walker.__init__``, budget 4 part-way."""
    for budget in (1, 4):
        for player in ALGORITHMS:
            got, kept = _freeze_play(monkeypatch, dfs_extend, budget, player)
            want, _ = _freeze_play(monkeypatch, reference_dfs_extend, budget,
                                   player)
            assert got == want
            assert got[5]  # froze
            assert kept
