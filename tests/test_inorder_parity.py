"""Ranking and depths by id runs against the node-by-node walks in
helpers."""

from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from bifurcation.generators import gen_comb, gen_complete_path, gen_random
from bifurcation.lowerbound import AdaptiveOracle
from bifurcation.model import InfeasibleInstanceError, TreeError, TreeInstance

from helpers import (grid_trees, make_path, reference_depths,
                     reference_inorder, reference_subtree_spans)


def _assert_matches_walk(tree):
    ranks, order = reference_inorder(tree)
    for got, want in ((tree.inorder_ranks(), ranks),
                      (tree.inorder_sequence(), order)):
        assert got.typecode == "i"
        assert got.tobytes() == want.tobytes()
    lo, hi = reference_subtree_spans(tree)
    sizes = tree.subtree_sizes()
    assert sizes.tolist() == [h - l + 1 for l, h in zip(lo, hi)]
    depth = tree.depths()
    assert depth.dtype == np.intc
    assert depth.tolist() == reference_depths(tree)


def test_ranks_match_walk_on_generator_grid():
    for seed in range(4):
        for tree in grid_trees(seed):
            _assert_matches_walk(tree)


def test_ranks_match_walk_on_complete_trees():
    # every fork of gen_complete_path(h, 1) ends an id run with both of its
    # children off the run
    for h in range(1, 13):
        _assert_matches_walk(gen_complete_path(h, 1))
    for h, delta in ((3, 2), (4, 5), (6, 3)):
        _assert_matches_walk(gen_complete_path(h, delta))


def test_ranks_match_walk_on_paths():
    for sides in ("", "L", "R", "LLLL", "RRRR", "LRLRLRL", "RRLLRLRRL"):
        _assert_matches_walk(make_path(sides))


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 80), t=st.integers(0, 120),
       seed=st.integers(0, 2 ** 64 - 1))
def test_ranks_match_walk_property(n, t, seed):
    for gen in (gen_random, gen_comb):
        try:
            tree = gen(n, t, seed=seed)
        except InfeasibleInstanceError:
            continue
        _assert_matches_walk(tree)


def _hand_tree(links):
    """A tree in id order from the ``(parent, side)`` of nodes 1, 2, ...,
    below root 0."""
    size = len(links) + 1
    parent, left, right, depth = ([-1] * size for _ in range(4))
    depth[0] = 0
    for v, (p, side) in enumerate(links, 1):
        parent[v] = p
        depth[v] = depth[p] + 1
        (left if side == "L" else right)[p] = v
    forks = sum(l >= 0 and r >= 0 for l, r in zip(left, right))
    return TreeInstance(*(array("i", a) for a in (parent, left, right)),
                        n=max(depth), t=forks)


# runs are maximal id ranges with parent[v] == v - 1; the other nodes are
# run heads, hung left or right off interior run nodes and off run ends
HAND_TREES = {
    "one_node": [],
    "heads_off_interior_nodes_and_ends": [
        (0, "R"), (1, "L"), (2, "L"), (3, "R"),  # the root's run, 0..4
        (2, "R"),  # 5: right of interior 2, whose run goes left
        (1, "R"), (6, "L"),  # 6..7: right of interior 1
        (4, "L"), (4, "R"),  # 8 and 9: both sides of the run end 4
        (7, "R"),  # 10: the only child of the run end 7
        (6, "R"),  # 11: right of interior 6
        (0, "L"), (12, "R"),  # 12..13: left of the root, whose run goes right
        (5, "L"),  # 14: left of the one-node run 5
        (13, "L"), (13, "R"),  # 15 and 16: both sides of the run end 13
        (15, "L"),  # 17: the only child of the one-node run 15
    ],
    "every_node_past_1_a_head": [(0, "L")] + [
        (v - 2, "R" if v % 3 else "L") for v in range(2, 40)],
    "heads_left_of_right_runs": [
        (0, "R"), (1, "R"), (2, "R"), (0, "L"), (1, "L"), (5, "R"),
        (2, "L"), (7, "L"), (7, "R"), (9, "R")],
}


@pytest.mark.parametrize("links", HAND_TREES.values(), ids=HAND_TREES)
def test_ranks_match_walk_on_hand_built_trees(links):
    _assert_matches_walk(_hand_tree(links))


def test_ranks_match_walk_when_the_prefix_sums_wrap():
    # every node past 1 heads its own run, nested about size / 2 deep, so
    # the subtree sizes sum past 2**32 and int32 prefix sums wrap
    size = 1 << 17
    tree = _hand_tree([(0, "L")] + [(v - 2, "R" if v % 3 else "L")
                                    for v in range(2, size)])
    want = [1] * size
    for v in range(size - 1, 0, -1):
        want[tree.parent[v]] += want[v]
    assert sum(want) > 2 ** 32
    sizes = tree.subtree_sizes()
    assert sizes.tolist() == want
    assert tree.inorder_ranks().tobytes() == reference_inorder(
        tree)[0].tobytes()


def _tree(parent, left, right):
    return TreeInstance(array("i", parent), array("i", left),
                        array("i", right), n=len(parent), t=0)


@pytest.mark.parametrize("parent, left, right, root", [
    # node 1 hangs below node 2: a parent id above its child's
    ([-1, 2, 0], [2, -1, 1], [-1, -1, -1], 0),
    # a second root, node 2, with its own child
    ([-1, 0, -1, 2], [1, -1, 3, -1], [-1, -1, -1, -1], 0),
    # the root is node 1
    ([1, -1], [-1, 0], [-1, -1], 1),
    # node 2 is listed as a child of both 0 and 1
    ([-1, 0, 1], [1, 2, -1], [2, -1, -1], 0),
    # node 2 continues the run 0..2, but node 1 links to 0 instead
    ([-1, 0, 1], [1, -1, -1], [-1, 0, -1], 0),
    # node 1 is both children of the root, and node 2 neither
    ([-1, 0, 0], [1, -1, -1], [1, -1, -1], 0),
    ([-1, 0], [1, -1], [1, -1], 0),
    # the heads 2 and 3 hang below 0 and 1, whose links name 3 and 2
    ([-1, 0, 0, 1], [1, -1, -1, -1], [3, 2, -1, -1], 0),
])
def test_ranking_rejects_trees_out_of_id_order(parent, left, right, root):
    assert parent[root] < 0  # the root the case names has no parent
    tree = _tree(parent, left, right)
    with pytest.raises(TreeError):
        tree.subtree_sizes()
    with pytest.raises(TreeError):
        tree.inorder_ranks()
    with pytest.raises(TreeError):
        tree.depths()


def test_depths_refuse_a_frozen_arena():
    """A freeze drops subtrees by setting their heads' parent to -1, which
    breaks the id order; depths, like ranks, must be read before it."""
    tree = gen_complete_path(3, 4)
    depth = tree.depths()
    oracle = AdaptiveOracle(tree, 1)
    oracle.on_fork(tree.root)
    assert oracle.froze
    with pytest.raises(TreeError):
        tree.depths()
    # a node still reachable keeps its depth; -1 marks the dropped ones
    after = reference_depths(tree)
    assert -1 in after
    assert all(d in (-1, want) for d, want in zip(after, depth.tolist()))
