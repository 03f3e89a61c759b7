"""The path-by-path generators against the per-node references in helpers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bifurcation.generators import gen_comb, gen_complete_path, gen_random
from bifurcation.model import InfeasibleInstanceError

from helpers import (reference_gen_comb, reference_gen_complete_path,
                     reference_gen_random)

# n = 1, t = 0, t > n (forks hosted on branches once the spine runs out),
# comb spacing 1 (t + 1 <= n < 2 * (t + 1)), and infeasible pairs.
GRID = ((1, 0), (1, 1), (1, 4), (2, 0), (2, 1), (2, 3), (3, 2), (4, 4),
        (5, 4), (8, 3), (8, 20), (10, 5), (10, 9), (16, 200), (17, 1),
        (30, 3), (31, 7), (64, 16), (64, 100), (128, 40), (0, 0), (5, -1))


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
