"""Every small tree, every target, every search.

The shapes are every tree of 1-7 nodes with preorder ids, in which each
node is a leaf, unary-left, unary-right or a fork: the Catalan numbers
1, 2, 5, 14, 42, 132 and 429 of them, each declared at its height.

Every node is the target of all three searches. Besides the answer, each
run checks the invariants the searches keep on the way: every
``dfs_extend`` walks each edge of the region it may reach twice, adds
exactly that region and brings the walker back; after every
``dfs_extend`` and ``trim`` the maintained counts equal a rescan and no
stub holds the target; the final bisection stays within
ceil(log2(candidates)) + 1 calls; and ``full`` walks every edge twice.

No search on trees this small explores again after a trim, so a second
sweep does: on every shape, every node is trimmed with either answer,
the tree is explored again to every depth limit, and it is trimmed once
more at the root with the same answer, so that a cut deletes the stubs
of an earlier one, all under the same checks. A third sweep plays every
search on every shape against the adaptive oracle at fork budgets t,
t - 1 and t - 2, under the same checks, so they also hold through a
freeze that cuts the instance while ``dfs_extend`` walks it. A run that
breaks any check is counted, so a seeded fault reports how many runs it
breaks.
"""

import math
from array import array

import pytest

from bifurcation import algorithms
from bifurcation.algorithms import ALGORITHMS, ExploredTree
from bifurcation.generators import validate_instance
from bifurcation.lowerbound import AdaptiveOracle
from bifurcation.model import (FORK, TARGET_LARGER, TARGET_SMALLER,
                               InstrumentedOracle, TreeInstance)

from helpers import (assert_counts_match_rescan, explored_ids,
                     target_inside_stub)

SIZES = range(1, 8)
CATALAN = (1, 1, 2, 5, 14, 42, 132, 429)


def every_shape(m):
    """Every tree of m nodes as its preorder list of (has left child, has
    right child)."""
    if not m:
        yield ()
        return
    for a in range(m):
        for left in every_shape(a):
            for right in every_shape(m - 1 - a):
                yield ((a > 0, m - 1 - a > 0),) + left + right


def _instance(shape):
    """The shape's instance with preorder ids, declared at its height."""
    none = array("i", [-1])
    parent, left, right = (none * len(shape) for _ in range(3))
    waiting = []  # (node, child array) slots in preorder, last one first
    for v, (has_l, has_r) in enumerate(shape):
        if v:
            p, links = waiting.pop()
            parent[v] = p
            links[p] = v
        if has_r:
            waiting.append((v, right))
        if has_l:
            waiting.append((v, left))
    tree = TreeInstance(parent, left, right, n=0,
                        t=sum(has_l and has_r for has_l, has_r in shape))
    tree.n = int(tree.depths().max())
    validate_instance(tree)
    return tree


def _check_explored(explored):
    assert_counts_match_rescan(explored)
    assert not target_inside_stub(explored.walker.tree, explored)


def _reach(explored, limit):
    """Ids below the walker, within the depth limit, that no stub hides:
    the region ``dfs_extend`` walks, read off the instance."""
    walker = explored.walker
    tree = walker.tree
    out = []
    stack = [(walker.current, walker.depth)]
    while stack:
        v, depth = stack.pop()
        if depth < limit:
            for c in (tree.left[v], tree.right[v]):
                if c >= 0 and not explored.stub[c]:
                    out.append(c)
                    stack.append((c, depth + 1))
    return out


def _checked_dfs(fn):
    def run(explored, limit):
        walker = explored.walker
        anchor, steps = walker.current, walker.steps
        before = set(explored_ids(explored))
        new_forks = fn(explored, limit)
        assert walker.current == anchor
        # read after the walk: a freeze during it cuts only subtrees of
        # forks the walk has not reached, which it then never enters
        reach = _reach(explored, limit)
        assert walker.steps - steps == 2 * len(reach)
        assert set(explored_ids(explored)) == before | set(reach)
        assert new_forks == sum(walker.tree.kind(v) == FORK
                                for v in reach if v not in before)
        _check_explored(explored)
        return new_forks
    return run


def _checked_trim(fn):
    def run(explored, u, answer):
        stubs = fn(explored, u, answer)
        _check_explored(explored)
        return stubs
    return run


def _bounded(fn):
    def run(explored, oracle):
        candidates = len(explored.inorder_below(explored.root))
        calls = oracle.calls
        found = fn(explored, oracle)
        assert oracle.calls - calls <= math.ceil(math.log2(candidates)) + 1
        return found
    return run


@pytest.fixture
def checked(monkeypatch):
    """The package's ``dfs_extend``, ``trim`` and ``final_binary_search``,
    checked at every call, the searches' calls included."""
    monkeypatch.setattr(algorithms, "dfs_extend",
                        _checked_dfs(algorithms.dfs_extend))
    monkeypatch.setattr(algorithms, "trim", _checked_trim(algorithms.trim))
    monkeypatch.setattr(algorithms, "final_binary_search",
                        _bounded(algorithms.final_binary_search))
    return algorithms


def _search(tree, name):
    result = ALGORITHMS[name](tree, InstrumentedOracle(tree))
    assert result.found == tree.target
    if name == "full":
        assert result.steps == 2 * (tree.size - 1)


def _re_explore(algo, tree, u, answer):
    explored = ExploredTree(tree)
    algo.dfs_extend(explored, tree.n)
    # a trim that stubs nothing leaves a tree that is already checked
    if algo.trim(explored, u, answer) and not explored.stub[tree.root]:
        for limit in range(tree.n + 1):
            algo.dfs_extend(explored, limit)
        # a second cut, whose side may hold the first one's stubs
        algo.trim(explored, tree.root, answer)


def _assert_none_failed(bad, runs, want):
    assert runs == want
    assert not bad, "%d of %d runs failed, first %r" % (len(bad), runs,
                                                        bad[0])


@pytest.mark.parametrize("m", SIZES)
def test_every_shape_every_target_every_search(checked, m):
    runs = 0
    bad = []
    for shape in every_shape(m):
        tree = _instance(shape)
        for target in range(m):
            tree.target = target
            for name in ALGORITHMS:
                runs += 1
                try:
                    _search(tree, name)
                except Exception as exc:  # counted, and the first shown
                    bad.append((shape, target, name, exc))
    _assert_none_failed(bad, runs, CATALAN[m] * m * len(ALGORITHMS))


@pytest.mark.parametrize("m", SIZES)
def test_every_shape_explored_again_after_every_trim(checked, m):
    runs = 0
    bad = []
    for shape in every_shape(m):
        tree = _instance(shape)
        tree.target = -1  # these trims follow no oracle
        for u in range(m):
            for answer in (TARGET_LARGER, TARGET_SMALLER):
                runs += 1
                try:
                    _re_explore(checked, tree, u, answer)
                except Exception as exc:  # counted, and the first shown
                    bad.append((shape, u, answer, exc))
    _assert_none_failed(bad, runs, CATALAN[m] * m * 2)


def _play_adaptive(shape, budget, name):
    tree = _instance(shape)  # fresh links: a freeze cuts them
    tree.target = -1  # the oracle commits to one only at the end
    oracle = AdaptiveOracle(tree, budget)
    result = ALGORITHMS[name](tree, oracle)
    assert result.found == oracle.committed
    tree.target = oracle.committed
    honest = InstrumentedOracle(tree)
    assert [(q, honest.query(q)) for q, _ in oracle.transcript] \
        == oracle.transcript


@pytest.mark.parametrize("m", SIZES)
def test_every_shape_against_the_adaptive_oracle(checked, m):
    runs = 0
    want = 0
    bad = []
    for shape in every_shape(m):
        t = sum(has_l and has_r for has_l, has_r in shape)
        budgets = sorted({t, max(t - 1, 0), max(t - 2, 0)})
        want += len(budgets) * len(ALGORITHMS)
        for budget in budgets:
            for name in ALGORITHMS:
                runs += 1
                try:
                    _play_adaptive(shape, budget, name)
                except Exception as exc:  # counted, and the first shown
                    bad.append((shape, budget, name, exc))
    _assert_none_failed(bad, runs, want)
