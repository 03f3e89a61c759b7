"""Ranking by id runs against the node-by-node inorder walk in helpers."""

from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bifurcation.generators import gen_comb, gen_complete_path, gen_random
from bifurcation.model import InfeasibleInstanceError, TreeError, TreeInstance

from helpers import (grid_trees, make_path, reference_inorder,
                     reference_subtree_spans)


def _assert_matches_walk(tree):
    ranks, order = reference_inorder(tree)
    for got, want in ((tree.inorder_ranks(), ranks),
                      (tree.inorder_sequence(), order)):
        assert got.typecode == "i"
        assert got.tobytes() == want.tobytes()
    lo, hi = reference_subtree_spans(tree)
    assert tree.subtree_spans() == (lo, hi)
    sizes = tree._compute_inorder()
    assert sizes[-1] == 0
    assert sizes[:-1].tolist() == [h - l + 1 for l, h in zip(lo, hi)]


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


def _tree(parent, left, right):
    depth = array("i", [0] * len(parent))
    return TreeInstance(array("i", parent), array("i", left),
                        array("i", right), depth, n=len(parent), t=0)


@pytest.mark.parametrize("parent, left, right, root", [
    # node 1 hangs below node 2: a parent id above its child's
    ([-1, 2, 0], [2, -1, 1], [-1, -1, -1], 0),
    # a second root, node 2, with its own child
    ([-1, 0, -1, 2], [1, -1, 3, -1], [-1, -1, -1, -1], 0),
    # the root is node 1
    ([1, -1], [-1, 0], [-1, -1], 1),
    # node 2 is listed as a child of both 0 and 1
    ([-1, 0, 1], [1, 2, -1], [2, -1, -1], 0),
])
def test_ranking_rejects_trees_out_of_id_order(parent, left, right, root):
    assert parent[root] < 0  # the root the case names has no parent
    tree = _tree(parent, left, right)
    with pytest.raises(TreeError):
        tree._compute_inorder()
    with pytest.raises(TreeError):
        tree.inorder_ranks()
