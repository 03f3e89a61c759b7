"""The path-by-path generators against the per-node references in helpers."""

import hashlib
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bifurcation import generators
from bifurcation.generators import (FamilySpec, build_instance, gen_comb,
                                    gen_complete_path, gen_random, mix_seed,
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
    for name in ("parent", "left", "right"):
        assert getattr(tree, name).typecode == "i"
    return (tree.parent, tree.left, tree.right, tree.n, tree.t, tree.root)


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


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("gen, ref, n, t",
                         [(gen_random, reference_gen_random, 2048, 64),
                          (gen_comb, reference_gen_comb, 1024, 16),
                          # t > n: the pool of hosts runs short and grows
                          # from its shallowest host
                          (gen_random, reference_gen_random, 64, 300),
                          (gen_random, reference_gen_random, 200, 900),
                          (gen_random, reference_gen_random, 1024, 5000)])
def test_larger_seeded_instances_match_reference(gen, ref, n, t, seed):
    assert _outcome(gen, n, t, seed=seed) == _outcome(ref, n, t, seed=seed)


# sha256 of parent, left, right and depths() (little-endian int32) and the
# target of each benchmark-scale spec below, as built with one
# rng.random() side draw and one link write per node
BENCHMARK_SCALE_DIGEST = (
    "9fca11d9d7905bb3f3df42ae45a70efc2fa214c5928609d8ee8aa7833457d34f")


def test_benchmark_scale_instances_keep_their_digest():
    specs = [FamilySpec(family, 8192, t, mix_seed(1, i))
             for family, t in (("random", 256), ("comb", 64))
             for i in range(4)]
    specs.append(FamilySpec("complete_path", 4096, 64, mix_seed(1, 0)))
    digest = hashlib.sha256()
    for spec in specs:
        tree = build_instance(spec)
        for a in (tree.parent, tree.left, tree.right, tree.depths()):
            digest.update(np.frombuffer(a, np.intc).astype("<i4").tobytes())
        digest.update(b"%d;" % tree.target)
    assert digest.hexdigest() == BENCHMARK_SCALE_DIGEST


_CHUNK = generators._DRAW_CHUNK


class _RecordingRandom(random.Random):
    """A Random that records the width of every getrandbits call."""

    def getrandbits(self, k):
        self.widths.append(k)
        return super().getrandbits(k)


@pytest.mark.parametrize("k", [0, 1, 2, 3, 31, 32, 33, _CHUNK - 1, _CHUNK,
                               _CHUNK + 1, 3 * _CHUNK + 5])
def test_draw_left_equals_per_draw_comparisons(k):
    rng, ref = _RecordingRandom(k), random.Random(k)
    rng.widths = []
    left = generators._draw_left(rng, k)
    assert left.dtype == bool
    assert left.tolist() == [ref.random() < 0.5 for _ in range(k)]
    assert rng.getstate() == ref.getstate()
    assert rng.random() == ref.random()
    assert sum(rng.widths) == 64 * k
    assert max(rng.widths, default=0) <= 64 * _CHUNK


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
