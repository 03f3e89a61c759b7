"""The path-by-path generators against the per-node references in helpers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bifurcation.generators import (gen_comb, gen_complete_path, gen_random,
                                    place_target)
from bifurcation.model import InfeasibleInstanceError

from helpers import (GRID, grid_trees, reference_gen_comb,
                     reference_gen_complete_path, reference_gen_random,
                     reference_place_target)


def _outcome(gen, *args, **kwargs):
    """The instance's fields, or the class of the error it raised."""
    try:
        tree = gen(*args, **kwargs)
    except InfeasibleInstanceError as exc:
        return type(exc)
    for name in ("parent", "left", "right", "depth"):
        assert getattr(tree, name).typecode == "i"
    return (tree.parent, tree.left, tree.right, tree.depth, tree.n, tree.t,
            tree.family, tree.root)


@pytest.mark.parametrize("gen, ref", [(gen_random, reference_gen_random),
                                      (gen_comb, reference_gen_comb)])
def test_seeded_families_match_reference(gen, ref):
    outcomes = set()
    for seed in range(12):
        for n, t in GRID:
            got = _outcome(gen, n, t, seed=seed)
            assert got == _outcome(ref, n, t, seed=seed), (n, t, seed)
            outcomes.add(got is InfeasibleInstanceError)
    assert outcomes == {True, False}


def test_complete_path_matches_reference():
    for h in range(1, 9):
        for delta in (1, 2, 3, 7):
            got = _outcome(gen_complete_path, h, delta)
            assert got == _outcome(reference_gen_complete_path, h, delta)
    for h, delta in ((0, 1), (1, 0), (21, 1), (20, 8)):
        assert _outcome(gen_complete_path, h, delta) is InfeasibleInstanceError
        assert (_outcome(reference_gen_complete_path, h, delta)
                is InfeasibleInstanceError)


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 80), t=st.integers(0, 120),
       seed=st.integers(0, 2 ** 64 - 1))
def test_seeded_families_match_reference_property(n, t, seed):
    for gen, ref in ((gen_random, reference_gen_random),
                     (gen_comb, reference_gen_comb)):
        assert _outcome(gen, n, t, seed=seed) == _outcome(ref, n, t, seed=seed)


def _target(place, tree, strategy, seed):
    """The placed target, or the class of the error it raised."""
    try:
        return place(tree, strategy, seed)
    except InfeasibleInstanceError as exc:
        return type(exc)


def test_place_target_matches_reference():
    trees = [gen_complete_path(h, delta) for h in (1, 2, 4) for delta in (1, 3)]
    trees += grid_trees(seed=5)
    for i, tree in enumerate(trees):
        strategies = ("random_node", "random_leaf", "adversarial_deep",
                      "fixed:%d" % (tree.size // 2), "fixed:%d" % tree.size)
        for strategy in strategies:
            for seed in (i, 2 ** 64 - 1 - i):
                got = _target(place_target, tree, strategy, seed)
                assert got == _target(reference_place_target, tree, strategy,
                                      seed), (i, strategy, seed)
                assert type(got) in (int, type)
