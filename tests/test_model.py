import gc
import itertools
import random
import tracemalloc
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bifurcation.model import (DIR_LEFT, DIR_ONLY, DIR_PARENT, DIR_RIGHT,
                               FORK, FOUND, LEAF, TARGET_LARGER,
                               TARGET_SMALLER, UNARY, InstrumentedOracle,
                               NodeIdError, TreeInstance, Walker,
                               WalkerError)
from bifurcation.algorithms import ExploredTree, dfs_extend, median_node, trim
from bifurcation.generators import (gen_comb, gen_complete_path, gen_random,
                                    place_target)
from bifurcation.lowerbound import AdaptiveOracle

from helpers import (explored_kinds, inorder_compare, is_leaf, make_path,
                     reference_dfs_extend, slow_inorder)


def test_walker_single_edge():
    tree = make_path("L")
    w = Walker(tree)
    node, side = w.move(DIR_ONLY)
    assert node == 1
    assert w.kind_of(node) == LEAF
    assert side == "left"
    assert w.steps == 1


def test_walker_round_trip():
    tree = make_path("R")
    w, log = _logged(tree)
    assert w.revealed == b"\x01\x00"  # root was revealed at the start
    w.move(DIR_ONLY)
    node, _ = w.move(DIR_PARENT)
    assert node == tree.root
    assert w.revealed == b"\x01\x01"
    assert log == []  # a path has no fork
    assert w.steps == 2


def test_walker_full_path_dfs_steps():
    # each of the 7 edges is traversed exactly twice
    tree = make_path("LRLRLRL")
    w = Walker(tree)
    down = 0
    while not is_leaf(tree, w.current):
        w.move(DIR_ONLY)
        down += 1
    while w.current != tree.root:
        w.move(DIR_PARENT)
    assert down == 7
    assert w.steps == 14


def test_walker_errors():
    tree = gen_random(4, 1, seed=0)
    w = Walker(tree)
    with pytest.raises(WalkerError):
        w.move(DIR_PARENT)
    # descend to the fork, then misuse direction kinds
    while w.tree.kind(w.current) == UNARY:
        w.move(DIR_ONLY)
    at_fork = w.current
    if tree.kind(at_fork) == FORK:
        with pytest.raises(WalkerError):
            w.move(DIR_ONLY)
    path = make_path("LL")
    w2 = Walker(path)
    with pytest.raises(WalkerError):
        w2.move(DIR_LEFT)  # unary node: only only_child is legal
    w2.move(DIR_ONLY)
    w2.move(DIR_ONLY)
    with pytest.raises(WalkerError):
        w2.move(DIR_RIGHT)  # leaf
    assert w2.steps == 2


def test_kind_of_refuses_an_unrevealed_id():
    # Walker.kind_of's WalkerError for a node the walker has not entered
    w = Walker(make_path("L"))
    with pytest.raises(WalkerError, match="node 1 has not been revealed"):
        w.kind_of(1)


def test_move_refuses_an_unknown_direction_before_moving():
    # Walker.move's WalkerError for a direction that is none of the four
    w = Walker(make_path("L"))
    with pytest.raises(WalkerError, match="unknown direction 'sideways'"):
        w.move("sideways")
    assert (w.current, w.depth, w.steps) == (0, 0, 0)


def test_walker_reveal_once():
    tree = _tree(**FORKED)
    w, log = _logged(tree)
    w.move(DIR_ONLY)
    node, _ = w.move(DIR_ONLY)
    assert log == [node]
    w.move(DIR_PARENT)
    node, _ = w.move(DIR_ONLY)
    assert log == [node]
    assert w.revealed[node]
    assert w.kind_of(node) == FORK


def test_steps_count_only_successful_moves():
    tree = make_path("L")
    w = Walker(tree)
    with pytest.raises(WalkerError):
        w.move(DIR_PARENT)
    assert w.steps == 0
    w.move(DIR_ONLY)
    assert w.steps == 1


def test_inorder_reflexive_and_fork_order():
    tree = gen_complete_path(1, 1)  # root fork with two leaf children
    root = tree.root
    left = tree.left[root]
    right = tree.right[root]
    assert inorder_compare(tree, root, root) == "equal"
    assert inorder_compare(tree, left, root) == "smaller"
    assert inorder_compare(tree, right, root) == "larger"
    assert inorder_compare(tree, left, right) == "smaller"


def test_inorder_matches_reference_traversal():
    tree = gen_random(24, 6, seed=9)
    assert tree.size >= 50
    ref = slow_inorder(tree)
    pos = {v: i for i, v in enumerate(ref)}
    assert list(tree.inorder_sequence()) == ref
    for a in range(0, tree.size, 3):
        for b in range(0, tree.size, 5):
            want = ("equal" if pos[a] == pos[b]
                    else "smaller" if pos[a] < pos[b] else "larger")
            assert inorder_compare(tree, a, b) == want


def test_inorder_total_order_exhaustive_small():
    # antisymmetry and transitivity on every triple of a few tiny instances
    for seed in range(6):
        tree = gen_random(4, 1 + seed % 2, seed=seed)
        assert tree.size <= 12
        ids = range(tree.size)
        for a, b in itertools.permutations(ids, 2):
            ab = inorder_compare(tree, a, b)
            ba = inorder_compare(tree, b, a)
            assert (ab == "smaller") == (ba == "larger")
        for a, b, c in itertools.permutations(ids, 3):
            if (inorder_compare(tree, a, b) == "smaller"
                    and inorder_compare(tree, b, c) == "smaller"):
                assert inorder_compare(tree, a, c) == "smaller"


def test_oracle_identity_and_counting():
    tree = gen_random(16, 3, seed=2)
    tree.target = 5
    oracle = InstrumentedOracle(tree)
    assert oracle.query(5) == FOUND
    assert oracle.calls == 1


def test_oracle_all_left_path_root_is_last():
    tree = make_path("LLLLLL")
    tree.target = tree.root
    oracle = InstrumentedOracle(tree)
    deepest = len(tree.parent) - 1
    assert oracle.query(deepest) == TARGET_LARGER
    ref = slow_inorder(tree)
    assert ref[-1] == tree.root


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), qseed=st.integers(0, 10_000))
def test_oracle_agrees_with_inorder_compare(seed, qseed):
    tree = gen_random(12 + seed % 20, seed % 7, seed=seed)
    tree.target = place_target(tree, "random_node", seed)
    oracle = InstrumentedOracle(tree)
    q = qseed % tree.size
    answer = oracle.query(q)
    rel = inorder_compare(tree, tree.target, q)
    if q == tree.target:
        assert answer == FOUND
    elif rel == "smaller":
        assert answer == TARGET_SMALLER
    else:
        assert answer == TARGET_LARGER


def test_oracle_answers_are_path_consistent():
    tree = gen_random(40, 8, seed=4)
    tree.target = place_target(tree, "random_node", 11)
    oracle = InstrumentedOracle(tree)
    smaller_at = [q for q in range(tree.size)
                  if q != tree.target and oracle.query(q) == TARGET_SMALLER]
    larger_at = [q for q in range(tree.size)
                 if q != tree.target and oracle.query(q) == TARGET_LARGER]
    for q in smaller_at[:20]:
        for p in larger_at[:20]:
            assert inorder_compare(tree, p, q) == "smaller"


def test_oracle_rejects_out_of_range_ids():
    tree = gen_random(10, 2, seed=6)
    tree.target = place_target(tree, "random_node", 3)
    oracle = InstrumentedOracle(tree)
    for q in (-1, -tree.size, tree.size, tree.size + 5):
        with pytest.raises(NodeIdError):
            oracle.query(q)
    assert oracle.calls == 0


def test_walker_rejects_out_of_range_ids():
    tree = make_path("LR")
    w = Walker(tree)
    w.move(DIR_ONLY)
    w.move(DIR_ONLY)  # the last node is revealed, so -1 would read it
    for v in (-1, -tree.size, tree.size):
        with pytest.raises(NodeIdError):
            w.kind_of(v)
    assert (w.current, w.steps) == (2, 2)



def _tree(parent, left, right):
    """A hand-built instance from its three link lists; its depth bound
    follows."""
    depth = [0] * len(parent)
    for v in range(len(parent)):
        u = v
        while parent[u] >= 0:
            depth[v] += 1
            u = parent[u]
    return TreeInstance(array("i", parent), array("i", left),
                        array("i", right),
                        n=max(depth), t=sum(1 for a, b in zip(left, right)
                                            if a >= 0 and b >= 0))


# 0 -> 1 -> 2, a fork with 3 -> 4 on its left and 5 -> 6 on its right
FORKED = dict(parent=[-1, 0, 1, 2, 3, 2, 5], left=[1, -1, 3, -1, -1, 6, -1],
              right=[-1, 2, 5, 4, -1, -1, -1])
# 0 -> 2 -> 3 -> 5, a fork with 6 -> 7 on its left and 1 -> 4 on its
# right: the only child of 0, 3 and 1 is not id + 1
SHUFFLED = dict(parent=[-1, 5, 0, 2, 1, 3, 5, 6],
                left=[-1, 4, 3, -1, -1, 6, 7, -1],
                right=[2, -1, -1, 5, -1, 1, -1, -1])


def _logged(tree):
    log = []
    return Walker(tree, log.append), log


def _seen(walker, log):
    return (walker.current, walker.steps, bytes(walker.revealed), list(log),
            walker.depth)


def test_follow_equals_single_moves():
    tree = make_path("LRRLLRLR")
    for start in (0, 3):
        for k in range(1, tree.size - start):
            a, log_a = _logged(tree)
            b, log_b = _logged(tree)
            for w in (a, b):
                for _ in range(start):
                    w.move(DIR_ONLY)
            end, lefts, rights = a.follow(k)
            for _ in range(k):
                node, _ = b.move(DIR_ONLY)
            assert end == node == start + k
            assert _seen(a, log_a) == _seen(b, log_b)
            assert list(lefts) == list(tree.left[start:end])
            assert list(rights) == list(tree.right[start:end])
    # a second pass over revealed nodes fires no hook
    a, log = _logged(_tree(**FORKED))
    assert a.follow(1)[0] == 1
    a.move(DIR_PARENT)
    assert log == []
    assert a.follow(2)[0] == 2  # 1 was revealed, the fork 2 is new
    assert log == [2]
    assert a.climb(2) == 0
    assert a.follow(2)[0] == 2
    assert log == [2]


def test_climb_equals_single_moves():
    tree = make_path("RLLRL")
    for k in range(1, tree.size):
        a, log_a = _logged(tree)
        b, log_b = _logged(tree)
        for w in (a, b):
            w.follow(5)
        assert a.climb(k) == 5 - k
        for _ in range(k):
            b.move(DIR_PARENT)
        assert _seen(a, log_a) == _seen(b, log_b)


def test_follow_stops_after_entering_a_fork_or_a_leaf():
    tree = _tree(**FORKED)
    w, log = _logged(tree)
    assert w.follow(10)[0] == 2
    w.move(DIR_LEFT)
    assert w.follow(10)[0] == 4
    assert w.steps == 4
    assert log == [2]
    assert w.revealed == b"\x01" * 5 + b"\x00" * 2
    # a climb stops at the first node of its run: 3, below the fork
    assert w.climb(4) == 3
    assert w.steps == 5


def test_follow_and_climb_refuse_before_anything_moves():
    tree = _tree(**SHUFFLED)
    w, log = _logged(tree)
    for call, k in ((w.follow, 0), (w.follow, -1), (w.climb, 0),
                    (w.follow, 1),  # the only child of 0 is 2
                    (w.climb, 1)):  # the root
        before = _seen(w, log)
        with pytest.raises(WalkerError):
            call(k)
        assert _seen(w, log) == before
    w.move(DIR_ONLY)
    assert w.follow(5)[0] == 3  # 3's only child is 5
    assert log == []
    w.move(DIR_ONLY)
    assert log == [5]
    w.move(DIR_LEFT)
    assert w.follow(1)[0] == 7
    assert log == [5]
    for call, k in ((w.follow, 1),  # a leaf
                    (w.climb, 6)):  # 7 is at depth 5
        before = _seen(w, log)
        with pytest.raises(WalkerError):
            call(k)
        assert _seen(w, log) == before
    w.climb(1)
    w.move(DIR_PARENT)
    before = _seen(w, log)
    with pytest.raises(WalkerError):
        w.follow(1)  # a fork
    assert _seen(w, log) == before


def _arena():
    """The adversary arena with an oracle that freezes after 4 forks."""
    tree = gen_complete_path(3, 16)
    return tree, AdaptiveOracle(tree, 4).on_fork


@pytest.mark.parametrize("make", [
    lambda: (gen_random(128, 16, seed=4), None),
    lambda: (gen_comb(160, 9, seed=2), None),
    lambda: (gen_complete_path(3, 5), None),
    _arena,
], ids=["random", "comb", "complete_path", "frozen_arena"])
def test_walker_depth_is_the_instance_depth(make):
    """After every ``move``, ``follow`` and ``climb`` of random walks, the
    walker's own depth count equals the instance's depth of the node it
    stands at, past a freeze too; a refused call leaves it as it was."""
    tree, on_fork = make()
    depth = tree.depths()  # a freeze changes no reachable node's depth
    rng = random.Random(7)
    refused = set()
    for _ in range(20):
        w = Walker(tree, on_fork)
        for _ in range(300):
            before = (w.current, w.depth)
            op = rng.choice(("follow", "climb", "down", "down", "up"))
            try:
                if op == "follow":
                    w.follow(rng.randint(-1, 12))
                elif op == "climb":
                    w.climb(rng.randint(-1, w.depth + 2))
                else:
                    w.move(DIR_PARENT if op == "up" else rng.choice(
                        (DIR_ONLY, DIR_LEFT, DIR_RIGHT)))
            except WalkerError:
                assert (w.current, w.depth) == before
                refused.add(op)
            assert w.depth == depth[w.current]
    assert refused == {"follow", "climb", "down", "up"}
    if on_fork is not None:
        assert on_fork.__self__.froze


def test_dfs_extend_matches_reference_where_children_skip_ids():
    tree = _tree(**SHUFFLED)
    for limit in range(7):
        sides = []
        for dfs in (dfs_extend, reference_dfs_extend):
            w, log = _logged(tree)
            explored = ExploredTree(w)
            forks = dfs(explored, limit)
            again = dfs(explored, limit + 1)
            sides.append((forks, again, _seen(w, log),
                          explored_kinds(explored), list(explored.parent),
                          list(explored.left), list(explored.right),
                          explored.node_count, explored.leaf_count))
        assert sides[0] == sides[1]
    assert sides[0][2][1] == 4 * (tree.size - 1)  # two full walks


@pytest.mark.parametrize("make", [lambda: gen_random(128, 16, seed=4),
                                  lambda: gen_random(300, 40, seed=7),
                                  lambda: gen_complete_path(3, 5)],
                         ids=["random-128-16", "random-300-40",
                              "complete_path"])
def test_fork_hook_hears_each_revealed_fork_once_in_reveal_order(
        monkeypatch, make):
    """A full-depth ``dfs_extend`` calls the hook once for each fork it
    reveals, as it reveals it, and for no other node. The reveal order is
    read off the revealed bytes after every ``move`` and ``follow``: a call
    reveals one node, or a chain in id order whose last node alone may be a
    fork."""
    tree = make()
    w, log = _logged(tree)
    seen = bytearray(w.revealed)
    order = [v for v in range(tree.size) if seen[v] and tree.kind(v) == FORK]

    def watched(name):
        original = getattr(Walker, name)

        def call(self, *args):
            out = original(self, *args)
            new = [v for v in range(tree.size)
                   if self.revealed[v] and not seen[v]]
            order.extend(v for v in new if tree.kind(v) == FORK)
            seen[:] = self.revealed
            return out
        monkeypatch.setattr(Walker, name, call)

    watched("move")
    watched("follow")
    dfs_extend(ExploredTree(w), tree.n)
    forks = [v for v in range(tree.size) if tree.kind(v) == FORK]
    assert len(forks) == tree.t
    assert all(w.revealed)
    assert log == order
    assert sorted(log) == forks


def test_exploring_ranks_nothing_until_the_first_rescan(monkeypatch):
    """The SHUFFLED tree cannot be ranked, yet it explores: the explored
    tree asks the walker for values only when it first rescans."""
    def refuse(self):
        raise AssertionError("ranked")

    monkeypatch.setattr(TreeInstance, "_compute_inorder", refuse)
    tree = _tree(**SHUFFLED)
    w, _ = _logged(tree)
    explored = ExploredTree(w)
    dfs_extend(explored, tree.n)
    assert explored.node_count == tree.size
    with pytest.raises(AssertionError, match="ranked"):
        explored.inorder_below(tree.root)


def _held_bytes_per_node(tree, build):
    """Bytes that ``build()``'s result still holds, per node of tree."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = build()  # alive while measured
        return (tracemalloc.get_traced_memory()[0] - before) / tree.size
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("make", [lambda: gen_random(2048, 64, 3),
                                  lambda: gen_complete_path(8, 64)],
                         ids=["random", "complete_path"])
def test_built_instance_stays_lean(make):
    """A built instance holds its three int32 link arrays and no depth
    array beside them: depths are derived on demand."""
    tree = make()
    assert _held_bytes_per_node(tree, make) <= 12.5


@pytest.mark.parametrize("make", [lambda: gen_random(2048, 64, 3),
                                  lambda: gen_complete_path(8, 64)],
                         ids=["random", "complete_path"])
def test_node_sized_state_stays_lean(make):
    """Ranks are one int32 a node, with no inverse order kept beside them;
    a walker (two byte flags) and an explored tree (three int32 links and
    a stub byte) explored to full depth hold no copy of the kinds."""
    tree = make()
    assert _held_bytes_per_node(tree, tree.inorder_ranks) <= 5

    def explore():
        w = Walker(tree)
        explored = ExploredTree(w)
        dfs_extend(explored, tree.n)
        assert explored.node_count == tree.size
        return w, explored

    tree = make()
    assert _held_bytes_per_node(tree, explore) <= 16


@pytest.mark.parametrize("make", [lambda: gen_random(2048, 64, 3),
                                  lambda: gen_complete_path(8, 64)],
                         ids=["random", "complete_path"])
def test_ranking_peak_stays_lean(make):
    """Ranking peaks at 4.5 int32 a node, the rank cache it fills and the
    subtree sizes it returns included: node-sized work is done in id
    order, with no permuted copy of the tree."""
    tree = make()
    gc.collect()
    tracemalloc.start()
    try:
        tree.inorder_ranks()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4.5 * 4 * tree.size


@pytest.mark.parametrize("make", [lambda: gen_random(2048, 64, 3),
                                  lambda: gen_complete_path(8, 64)],
                         ids=["random", "complete_path"])
def test_subtree_spans_peak_stays_lean(make):
    """Spans peak at 6 int32 a node: the ranking, then each bound written
    straight into its ``array("i")`` result, with no numpy copy beside it."""
    tree = make()
    gc.collect()
    tracemalloc.start()
    try:
        tree.subtree_spans()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * 4 * tree.size


@pytest.mark.parametrize("make", [lambda: gen_random(2048, 64, 3),
                                  lambda: gen_complete_path(8, 64)],
                         ids=["random", "complete_path"])
def test_value_index_stays_lean(make):
    """After a full-depth ``dfs_extend``, one rescan and one trim, the walker
    and the explored tree hold the lean state plus the int32 slot index by
    value; the values are the instance's ranks."""
    tree = make()
    tree.inorder_ranks()

    def decimate():
        w = Walker(tree)
        explored = ExploredTree(w)
        dfs_extend(explored, tree.n)
        trim(explored, median_node(explored), TARGET_LARGER)
        assert explored.node_count < tree.size
        return w, explored

    assert _held_bytes_per_node(tree, decimate) <= 20
