"""Decimation by node value against the per-node references in helpers.

The package rescans an ``ExploredTree`` by scattering its ids into value
space and trims it with one masked pass; the references walk it node by
node (``reference_explored_inorder``, ``reference_trim`` and
``reference_mark_stub``). Two copies of one search state, each with its own
walker, explored tree and oracle, take the same random interleaving of
``dfs_extend`` calls, halvings by either median, trims at random explored
nodes with random answers, direct stubs and rescans: one copy through the
package, the other through the references. After every operation the
returned ids and stubs, and every array and count of the two explored
trees, must match. Full searches, adversary runs with freezes included,
must match searches that decimate through the references. After every
operation on the package side, explores and trims inside those runs too,
the explored tree's slot index holds exactly its explored ids, stubs
included, each at its own value.

The value contract is pinned here too: values of ids the explored tree
does not hold may be anything, and every id handed out is an ``int``.
"""

import random
from array import array

import numpy as np
import pytest

from bifurcation import algorithms
from bifurcation.algorithms import (ALGORITHMS, ExploredTree, _bisect,
                                    _descend, dfs_extend,
                                    final_binary_search, halve, median_leaf,
                                    median_node, trim)
from bifurcation.generators import (FamilySpec, build_instance, gen_comb,
                                    gen_complete_path, gen_random,
                                    place_target)
from bifurcation.lowerbound import adaptive_fork_adversary
from bifurcation.model import (DIR_PARENT, FOUND, TARGET_LARGER,
                               TARGET_SMALLER, InstrumentedOracle, TreeError,
                               Walker)

from helpers import (explored_ids, explored_kinds, path_to_root,
                     reference_explored_inorder, reference_mark_stub,
                     reference_nodes_and_leaves, reference_trim)


def _state(explored):
    return (explored_kinds(explored), bytes(explored.held),
            bytes(explored.stub), explored.node_count,
            len(explored.leaves()))


def _assert_index_exact(explored):
    values, slots = explored._index()
    ids = explored_ids(explored)
    assert slots[values[ids]].tolist() == ids
    assert np.count_nonzero(slots >= 0) == len(ids)


def _checked(fn):
    """``fn``, then the exact-index check on the explored tree it took."""
    def run(explored, *args):
        out = fn(explored, *args)
        _assert_index_exact(explored)
        return out
    return run


def _ints(ids):
    ids = list(ids)
    assert all(type(v) is int for v in ids)
    return ids


class _Side:
    def __init__(self, tree):
        self.explored = ExploredTree(tree)
        self.walker = self.explored.walker
        self.oracle = InstrumentedOracle(tree)

    def go_to(self, anchor):
        """Climb to the root, then walk the explored path down to anchor."""
        w = self.walker
        while w.current != w.tree.root:
            w.move(DIR_PARENT)
        _descend(self.explored, anchor)


def _reference_median(explored, leaves):
    if leaves:
        seq = reference_nodes_and_leaves(explored)[1]
    else:
        seq = reference_explored_inorder(explored, explored.root)
    if not seq:
        raise TreeError("nothing to bisect")
    return seq[(len(seq) - 1) // 2]


def _halve(new, ref, leaves, seen):
    """One halving on each side; returns False once the target is found."""
    try:
        want_u = _reference_median(ref.explored, leaves)
    except TreeError:
        with pytest.raises(TreeError):
            halve(new.explored, new.oracle,
                  median_leaf if leaves else median_node)
        return True
    got = halve(new.explored, new.oracle,
                median_leaf if leaves else median_node)
    answer = ref.oracle.query(want_u)
    want = (answer, want_u, [] if answer == FOUND
            else reference_trim(ref.explored, want_u, answer))
    assert type(got[1]) is int
    assert (got[0], got[1], _ints(got[2])) == want
    seen.add("leaf median" if leaves else "node median")
    if want[2]:
        seen.add("halving stubs")
    return answer != FOUND


def _step(new, ref, rng, seen):
    """One random operation on both sides; returns False to stop."""
    tree = new.walker.tree
    op = rng.random()
    if op < 0.2:
        live = [v for v in explored_ids(new.explored)
                if not new.explored.stub[v]]
        anchor = tree.root
        if live and rng.random() < 0.5:
            anchor = rng.choice(live)
        depth = len(path_to_root(new.explored, anchor)) - 1
        limit = depth + rng.randint(0, tree.n // 2 + 1)
        for side in (new, ref):
            side.go_to(anchor)
        assert (dfs_extend(new.explored, limit)
                == dfs_extend(ref.explored, limit))
        seen.add("explore")
    elif op < 0.5:
        return _halve(new, ref, rng.random() < 0.5, seen)
    elif op < 0.75:
        u = rng.choice(explored_ids(new.explored))
        answer = rng.choice((TARGET_LARGER, TARGET_SMALLER))
        stubs = _ints(trim(new.explored, u, answer))
        assert stubs == reference_trim(ref.explored, u, answer)
        seen.add("trim at a stub" if new.explored.stub[u] and not stubs
                 else "trim")
    elif op < 0.85:
        below_root = explored_ids(new.explored)[1:]
        if not below_root:
            return True
        v = rng.choice(below_root)
        for side in (new, ref):
            reference_mark_stub(side.explored, v)
        seen.add("direct stub")
    else:
        v = rng.choice(explored_ids(new.explored))
        below = new.explored.inorder_below(v)
        assert below.dtype == np.intc
        assert below.tolist() == reference_explored_inorder(ref.explored, v)
        nodes, leaves = new.explored.inorder_nodes_and_leaves()
        assert ((nodes.tolist(), leaves.tolist())
                == reference_nodes_and_leaves(ref.explored))
        seen.add("rescan")
    return True


def _instances():
    for seed in range(5):
        yield gen_random(24 + 40 * seed, 2 + 3 * seed, seed=seed)
        yield gen_random(64, 30 + seed, seed=seed + 70)
        yield gen_comb(20 + 30 * seed, 1 + 2 * seed, seed=seed)
        yield gen_complete_path(1 + seed % 4, 1 + seed)


def test_decimation_matches_the_per_node_references():
    rng = random.Random(14)
    seen = set()
    ops = 0
    for tree in _instances():
        for _ in range(4):
            tree.target = place_target(tree, "random_node",
                                       rng.randrange(1000))
            new = _Side(tree)
            ref = _Side(tree)
            for _ in range(30):
                going = _step(new, ref, rng, seen)
                assert _state(new.explored) == _state(ref.explored)
                _assert_index_exact(new.explored)
                ops += 1
                if not going:
                    break
            if going:  # the final bisection over what survives
                cand = reference_explored_inorder(ref.explored, tree.root)
                want = _bisect(cand, ref.oracle)[0]
                if want is not None:
                    got = final_binary_search(new.explored, new.oracle)
                    assert type(got) is int and got == want
                    assert new.oracle.calls == ref.oracle.calls
                    seen.add("final")
    assert ops >= 800
    assert seen == {"explore", "leaf median", "node median", "halving stubs",
                    "trim", "trim at a stub", "direct stub", "rescan",
                    "final"}


class _ReferenceExploredTree(ExploredTree):
    """Rescans by the per-node walk; ``reference_trim`` goes with it."""

    __slots__ = ()

    def inorder_below(self, top):
        return reference_explored_inorder(self, top)

    def inorder_nodes_and_leaves(self):
        return reference_nodes_and_leaves(self)


def _report(monkeypatch, reference, n, t, player):
    monkeypatch.undo()
    if reference:
        monkeypatch.setattr(algorithms, "ExploredTree", _ReferenceExploredTree)
        monkeypatch.setattr(algorithms, "trim", reference_trim)
    else:
        for name in ("dfs_extend", "trim"):
            monkeypatch.setattr(algorithms, name,
                                _checked(getattr(algorithms, name)))
    r = adaptive_fork_adversary(n, t, player)
    return (r.steps, r.oracle_calls, r.cost, r.target, r.revealed_forks,
            r.froze, r.transcript, r.tree.parent, r.tree.left, r.tree.right)


# (n, t): the arena has 2**ceil(sqrt(t)) - 1 forks, so t = 2, 5, 10, 20 and
# 40 reach the fork budget and freeze
CELLS = [(16, 2), (40, 5), (64, 10), (128, 20), (256, 40), (64, 4),
         (128, 16), (512, 64)]


def test_adversary_reports_match_reference_decimation(monkeypatch):
    froze = set()
    for n, t in CELLS:
        for player in ALGORITHMS:
            got = _report(monkeypatch, False, n, t, player)
            want = _report(monkeypatch, True, n, t, player)
            assert got == want
            assert all(type(q) is int for q, _ in got[6])
            froze.add(got[5])
    assert froze == {True, False}


def test_searches_match_reference_decimation(monkeypatch):
    runs = 0
    for family in ("random", "comb", "complete_path"):
        for n, t in ((40, 4), (128, 9), (300, 16)):
            for seed in range(3):
                tree = build_instance(FamilySpec(family, n, t, seed))
                for name, fn in ALGORITHMS.items():
                    monkeypatch.undo()
                    got = fn(tree, InstrumentedOracle(tree))
                    monkeypatch.setattr(algorithms, "ExploredTree",
                                        _ReferenceExploredTree)
                    monkeypatch.setattr(algorithms, "trim", reference_trim)
                    want = fn(tree, InstrumentedOracle(tree))
                    assert got == want
                    assert type(got.found) is int
                    runs += 1
    assert runs == 81


# ------------------------------------------------------- the value contract


class _PoisonedWalker(Walker):
    """Discloses a private copy of the values, which ``poison`` rewrites
    at every id the explored tree does not hold."""

    __slots__ = ("poisoned",)

    def values(self):
        if not hasattr(self, "poisoned"):
            self.poisoned = array("i", self.tree.inorder_ranks())
        return self.poisoned

    def poison(self, explored, mode, rng):
        ranks = np.frombuffer(self.tree.inorder_ranks(), np.intc)
        mine = np.frombuffer(self.values(), np.intc)
        held = np.zeros(len(ranks), bool)
        held[explored_ids(explored)] = True
        mine[held] = ranks[held]
        if mode == "minus_one":
            mine[~held] = -1
        else:
            mine[~held] = rng.permutation(ranks[~held])


@pytest.mark.parametrize("mode", ["minus_one", "shuffle"])
def test_values_are_read_only_at_held_ids(monkeypatch, mode):
    rng = np.random.default_rng(3)
    checked = 0
    for tree in _instances():
        tree.target = place_target(tree, "random_node", 5)
        clean = ExploredTree(tree)
        with monkeypatch.context() as patched:
            patched.setattr(algorithms, "Walker", _PoisonedWalker)
            poisoned = ExploredTree(tree)
        dirty = poisoned.walker
        sides = [(clean.walker, clean), (dirty, poisoned)]
        oracles = [InstrumentedOracle(tree), InstrumentedOracle(tree)]
        step = max(1, tree.n // 3)
        done = False
        for limit in range(step, tree.n + step, step):
            results = []
            for (walker, explored), oracle in zip(sides, oracles):
                dfs_extend(explored, limit)
                out = []
                for leaves in (True, False, True):
                    if walker is dirty:
                        dirty.poison(explored, mode, rng)
                    out.append(explored.inorder_below(tree.root).tolist())
                    try:
                        answer, u, stubs = halve(
                            explored, oracle,
                            median_leaf if leaves else median_node)
                    except TreeError:
                        break
                    out.append((answer, u, stubs))
                    if answer == FOUND:
                        break
                for v in explored_ids(explored)[::7]:
                    if walker is dirty:
                        dirty.poison(explored, mode, rng)
                    out.append(explored.inorder_below(v).tolist())
                results.append((out, _state(explored)))
            assert results[0] == results[1]
            checked += 1
            if any(isinstance(x, tuple) and x[0] == FOUND
                   for x in results[0][0]):
                done = True
                break
        if not done:
            dirty.poison(sides[1][1], mode, rng)
            assert (final_binary_search(sides[0][1], oracles[0])
                    == final_binary_search(sides[1][1], oracles[1]))
    assert checked >= 40

