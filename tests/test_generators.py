import collections
from array import array

import pytest

from bifurcation import generators
from bifurcation.generators import (FamilySpec, build_instance, gen_comb,
                                    gen_complete_path, gen_random,
                                    place_target, validate_instance)
from bifurcation.model import InfeasibleInstanceError, TreeError, TreeInstance

from helpers import (is_leaf, reference_depths, reference_gen_random,
                     slow_inorder)


def test_random_zero_forks_is_a_path():
    tree = gen_random(20, 0, seed=1)
    validate_instance(tree)
    assert tree.size == 21
    assert all(tree.kind(v) != "fork" for v in range(tree.size))


def test_random_deterministic():
    a = gen_random(16, 3, seed=1)
    b = gen_random(16, 3, seed=1)
    assert a.parent == b.parent and a.left == b.left and a.right == b.right
    c = gen_random(16, 3, seed=2)
    assert (a.parent != c.parent or a.left != c.left or a.right != c.right)


def test_random_validator_pass_bulk():
    for i in range(1000):
        n = 4 + (i * 7) % 60
        t = (i * 13) % (2 * n)
        tree = gen_random(n, t, seed=i)
        validate_instance(tree)
        assert tree.t == t


def test_random_dense_forks_beyond_spine():
    # more forks than spine slots forces branch-hosted forks
    tree = gen_random(16, 200, seed=5)
    validate_instance(tree)
    assert tree.t == 200


def test_random_infeasible():
    with pytest.raises(InfeasibleInstanceError):
        gen_random(1, 5, seed=0)
    with pytest.raises(InfeasibleInstanceError):
        gen_random(0, 0, seed=0)


def test_complete_path_smallest():
    tree = gen_complete_path(1, 1)
    validate_instance(tree)
    assert tree.size == 3
    assert tree.t == 1


def test_complete_path_h2_d3():
    tree = gen_complete_path(2, 3)
    validate_instance(tree)
    assert tree.size == 7 + 6 * 2
    assert tree.n == 6
    assert tree.depths().max() == 6


def test_complete_path_h3_d4():
    tree = gen_complete_path(3, 4)
    validate_instance(tree)
    assert tree.t == 7
    leaves = [v for v in range(tree.size) if is_leaf(tree, v)]
    assert len(leaves) == 8
    depth = tree.depths()
    assert all(depth[v] == 12 for v in leaves)


def test_complete_path_size_guard():
    with pytest.raises(InfeasibleInstanceError):
        gen_complete_path(21, 1)


def test_random_and_comb_refuse_instances_past_the_node_cap():
    # each is one node past the 8M cap, refused before the tree is built
    with pytest.raises(InfeasibleInstanceError):
        gen_random(8_000_000, 0, seed=0)
    with pytest.raises(InfeasibleInstanceError):
        gen_comb(5_333_333, 1, seed=0)  # 1 + n + (n - n // 2) nodes
    assert generators.MAX_NODES == 8_000_000


def test_node_cap_stops_a_branch_that_would_cross_it(monkeypatch):
    size = reference_gen_random(300, 12, seed=4).size
    monkeypatch.setattr(generators, "MAX_NODES", size - 1)
    with pytest.raises(InfeasibleInstanceError):
        gen_random(300, 12, seed=4)
    monkeypatch.setattr(generators, "MAX_NODES", size)
    assert gen_random(300, 12, seed=4).size == size


def test_random_refuses_a_fork_count_past_the_cap_before_building(
        monkeypatch):
    # every fork adds a node, so the root, the spine and t nodes already
    # pass the cap; not one path is built
    paths = []
    add_path = generators._Builder.add_path

    def counted(self, *args, **kwargs):
        paths.append(args)
        if len(paths) > 3:
            raise AssertionError("built %d paths" % len(paths))
        return add_path(self, *args, **kwargs)

    monkeypatch.setattr(generators._Builder, "add_path", counted)
    with pytest.raises(InfeasibleInstanceError, match="past the cap"):
        gen_random(1000, generators.MAX_NODES - 1000, seed=0)
    monkeypatch.setattr(generators, "MAX_NODES", 1 + 16 + 4 - 1)
    with pytest.raises(InfeasibleInstanceError, match="past the cap"):
        gen_random(16, 4, seed=0)
    assert paths == []


def test_comb_single_fork_mid_spine():
    tree = gen_comb(10, 1, seed=0)
    validate_instance(tree)
    forks = [v for v in range(tree.size) if tree.kind(v) == "fork"]
    assert len(forks) == 1
    assert tree.depths()[forks[0]] == 5


def test_comb_spacing_and_validator():
    tree = gen_comb(24, 5, seed=3)
    validate_instance(tree)
    depth = tree.depths()
    forks = sorted(depth[v] for v in range(tree.size)
                   if tree.kind(v) == "fork")
    assert forks == [4, 8, 12, 16, 20]


def test_comb_infeasible_spacing():
    with pytest.raises(InfeasibleInstanceError):
        gen_comb(4, 4, seed=0)


def test_place_target_fixed():
    tree = gen_random(12, 2, seed=8)
    first = place_target(tree, "fixed:0")
    assert first == slow_inorder(tree)[0]
    with pytest.raises(InfeasibleInstanceError):
        place_target(tree, "fixed:%d" % tree.size)


def test_place_target_refuses_an_unknown_strategy():
    # place_target's own ValueError, reached without build_instance's check
    with pytest.raises(ValueError, match="unknown target strategy 'bogus'"):
        place_target(gen_random(12, 2, seed=8), "bogus")


def test_place_target_adversarial_deep():
    tree = gen_complete_path(2, 4)
    v = place_target(tree, "adversarial_deep")
    assert is_leaf(tree, v)
    assert tree.depths()[v] == tree.n


def test_place_target_random_leaf_roughly_uniform():
    tree = gen_complete_path(2, 2)
    leaves = [v for v in range(tree.size) if is_leaf(tree, v)]
    counts = collections.Counter(
        place_target(tree, "random_leaf", seed=s) for s in range(10_000))
    assert set(counts) == set(leaves)
    expected = 10_000 / len(leaves)
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    # 3 degrees of freedom; anything wildly skewed trips this
    assert chi2 < 30


def test_build_instance_families():
    for fam, n, t in (("random", 32, 4), ("random", 17, 0), ("comb", 30, 3),
                      ("complete_path", 32, 16)):
        spec = FamilySpec(fam, n, t, seed=2, target_strategy="random_node")
        tree = build_instance(spec)
        validate_instance(tree)
        if fam == "complete_path":
            assert tree.t == 2 ** 4 - 1  # h = sqrt(16)
        else:
            assert tree.t == t


def test_build_instance_refuses_unknown_names_before_building(monkeypatch):
    """An unknown family or target strategy is refused before any generator
    runs, with the message ``check_names`` gives."""
    builds = []
    for name in ("gen_random", "gen_comb", "gen_complete_path"):
        def counted(*args, _gen=getattr(generators, name), _name=name):
            builds.append(_name)
            return _gen(*args)
        monkeypatch.setattr(generators, name, counted)
    for family in generators.FAMILIES:
        with pytest.raises(ValueError,
                           match="unknown target strategy 'bogus'"):
            build_instance(FamilySpec(family, 64, 4, target_strategy="bogus"))
    with pytest.raises(ValueError, match="unknown family 'bogus'"):
        build_instance(FamilySpec("bogus", 64, 4))
    assert builds == []
    build_instance(FamilySpec("comb", 64, 4))
    assert builds == ["gen_comb"]


def test_build_instance_complete_path_requires_square():
    # 0 is a square, but of no height h >= 1
    for t in (12, 0, -4):
        with pytest.raises(InfeasibleInstanceError,
                           match=r"t = h \* h for a height h >= 1, got t = %d$"
                           % t):
            build_instance(FamilySpec("complete_path", 64, t, seed=0))


def test_build_instance_complete_path_refuses_n_below_its_height():
    # n = 3 cannot stretch the 4 levels of h = sqrt(16) to one edge each
    for n in (0, 3):
        with pytest.raises(InfeasibleInstanceError,
                           match=r"height 4 \(t = 16\) needs n >= 4, got %d"
                           % n):
            build_instance(FamilySpec("complete_path", n, 16, seed=0))
    assert build_instance(FamilySpec("complete_path", 4, 16, seed=0)).n == 4
    # t = 4 is height 2 with 2**2 - 1 = 3 forks, not 4
    with pytest.raises(InfeasibleInstanceError,
                       match=r"height 2 \(t = 4\) needs n >= 2, got 1"):
        build_instance(FamilySpec("complete_path", 1, 4, seed=0))


@pytest.mark.parametrize("parent, left, depth, root", [
    ([-1, 2, 0], [2, -1, 1], [0, 2, 1], 0),  # node 1 hangs below node 2
    ([1, -1], [-1, 0], [1, 0], 1),  # the root is node 1
])
def test_validator_rejects_ids_out_of_parent_order(parent, left, depth, root):
    # each tree is a well-formed path except for its id order, so its
    # depths follow from the links but not from the id runs
    size = len(parent)
    tree = TreeInstance(array("i", parent), array("i", left),
                        array("i", [-1] * size),
                        n=size - 1, t=0, target=root)
    assert reference_depths(tree, root) == depth
    with pytest.raises(TreeError):
        tree.depths()
    with pytest.raises(InfeasibleInstanceError, match="parent id"):
        validate_instance(tree)


def _fork_tree(n=1, t=1, target=0):
    """A root fork with two leaf children."""
    return TreeInstance(array("i", [-1, 0, 0]), array("i", [1, -1, -1]),
                        array("i", [2, -1, -1]), n=n, t=t, target=target)


@pytest.mark.parametrize("tree, message", [
    # node 2 has no parent, as a freeze leaves a dropped subtree's head
    (TreeInstance(array("i", [-1, 0, -1]), array("i", [1, -1, -1]),
                  array("i", [-1, -1, -1]), n=1, t=0), "parent id"),
    (_fork_tree(n=0), "leaf 1 at depth 1 exceeds bound 0"),
    (_fork_tree(t=2), "fork count 1 does not match declared 2"),
    (_fork_tree(target=3), "target out of range"),
    (_fork_tree(target=-1), "target out of range"),
    # node 0 links node 1 on both sides
    (TreeInstance(array("i", [-1, 0]), array("i", [1, -1]),
                  array("i", [1, -1]), n=1, t=1),
     "child"),
    # node 1 names node 0 as its parent, but node 0 links no child
    (TreeInstance(array("i", [-1, 0]), array("i", [-1, -1]),
                  array("i", [-1, -1]), n=1, t=0),
     "child arrays disagree"),
])
def test_validator_rejects_malformed_trees(tree, message):
    with pytest.raises(InfeasibleInstanceError, match=message):
        validate_instance(tree)


def test_validator_accepts_the_fork_tree():
    validate_instance(_fork_tree())
