"""Instance suppliers: random trees with an exact fork count, combs, and the
complete-tree-with-stretched-edges family, plus target placement."""

from __future__ import annotations

import math
import random
from array import array
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .model import (LEFT, RIGHT, InfeasibleInstanceError, TreeError,
                    TreeInstance)

FAMILIES = ("random", "comb", "complete_path")

MASK64 = 0xFFFFFFFFFFFFFFFF


def mix_seed(seed: int, salt: int) -> int:
    """Counter-style derivation of independent 64-bit sub-seeds."""
    x = (seed + (salt + 1) * 0x9E3779B97F4A7C15) & MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & MASK64
    x ^= x >> 31
    return x


@dataclass(frozen=True)
class FamilySpec:
    """Parameters for one generated instance."""

    family: str
    n: int
    t: int
    seed: int = 0
    target_strategy: str = "random_node"


MAX_NODES = 8_000_000


def _check_size(total: int) -> int:
    """Refuse an instance past MAX_NODES nodes before allocating it;
    return its node count."""
    if total > MAX_NODES:
        raise InfeasibleInstanceError(
            "instance would have %d nodes, past the cap of %d"
            % (total, MAX_NODES))
    return total


def check_cell(family: str, n: int, t: int):
    """Raise InfeasibleInstanceError, without building anything, for a
    known family's cell (n, t) that no instance fits: complete_path needs
    t = h * h for a height 1 <= h <= 20 and n >= h, the others n >= 1 and
    t >= 0, and comb room on its spine for the forks; no instance may pass
    MAX_NODES nodes, counting at least 1 + n + t for random. Returns the
    node count of a comb or complete_path instance, and None for random,
    whose count depends on the seed. The generators and build_instance
    call it first, and sweep for every cell."""
    if family == "complete_path":
        h = math.isqrt(max(t, 0))
        if h < 1 or h * h != t:
            raise InfeasibleInstanceError(
                "complete_path needs t = h * h for a height h >= 1, got t = %d"
                % t)
        if n < h:
            raise InfeasibleInstanceError(
                "complete_path of height %d (t = %d) needs n >= %d, got %d"
                % (h, t, h, n))
        if h > 20:
            raise InfeasibleInstanceError("2**%d leaves is past desk scale" % h)
        return _check_size(1 + 2 * (n // h) * (2 ** h - 1))
    if n < 1:
        raise InfeasibleInstanceError("need n >= 1")
    if t < 0:
        raise InfeasibleInstanceError("need t >= 0")
    if family == "comb":
        spacing = n // (t + 1)
        if spacing < 1:
            raise InfeasibleInstanceError(
                "no room for %d forks on a spine of length %d" % (t, n))
        # the root, the spine, and below the fork at depth j * spacing a
        # branch of n - j * spacing nodes for j = 1..t
        return _check_size(1 + n + t * n - spacing * t * (t + 1) // 2)
    _check_size(1 + n + t)  # the root, the spine, and a node per fork


_DRAW_CHUNK = 1 << 16


def _draw_left(rng, k):
    """k side flags, True for left, equal to k ``rng.random() < 0.5`` draws
    and leaving ``rng`` in the same state.

    ``random()`` reads two 32-bit Mersenne Twister words and takes its top
    bits from the first, so it is below 0.5 exactly when that first word is
    below 2**31. ``getrandbits(64 * m)`` reads the same 2m words in the same
    order, least significant first, so the flags are the even words compared
    with 2**31. At most _DRAW_CHUNK flags are drawn per call, which bounds
    the word buffer; consecutive calls read on along the same stream.
    """
    left = np.empty(k, bool)
    for lo in range(0, k, _DRAW_CHUNK):
        m = min(_DRAW_CHUNK, k - lo)
        words = np.frombuffer(
            rng.getrandbits(64 * m).to_bytes(8 * m, "little"), "<u4")
        np.less(words[::2], 0x80000000, out=left[lo:lo + m])
    return left


class _Builder:
    """An instance under construction, as a root plus a list of paths, the
    first of them the root's depth-n spine on a side drawn from ``rng``.

    A path is a chain of new nodes with contiguous ids, each the only child
    of the one before; its first node hangs below a host created earlier.
    The builder keeps one side flag per node, so the side of a host's child
    is an O(1) read, and per path its first id, its host and its ``lift``,
    the first node's depth less its id; a node's depth is its id plus the
    lift of its path, found by bisecting the first ids, and the root's lift
    is 0. Random sides come from ``_draw_left`` (the even Mersenne words
    below 2**31, at most _DRAW_CHUNK per call), and ``_link`` writes the
    links in whole-array passes; the instances are byte-identical to those
    of one ``rng.random()`` draw and one link write per node.
    """

    def __init__(self, n, rng):
        self.hosts = array("i")
        self.starts = array("i")
        self.lift = array("i", [0])  # the root's, then one per path
        self.is_left = bytearray(1)  # per node; the root's flag is unused
        self.add_path(0, n, LEFT if rng.random() < 0.5 else RIGHT, rng)

    def depth(self, v):
        return v + self.lift[bisect_right(self.starts, v)]

    def shallowest(self, pool):
        """Index in ``pool`` of its shallowest node, the least id among
        equals, by one numpy pass over the pool."""
        ids = np.frombuffer(pool, np.intc)
        key = ids + np.frombuffer(self.lift, np.intc)[np.searchsorted(
            np.frombuffer(self.starts, np.intc), ids, side="right")]
        key = key.astype(np.int64)
        key <<= 32  # depth first, then id
        key |= ids
        return int(key.argmin())

    def add_path(self, host, length, side, rng):
        """Hang a chain of ``length`` new nodes below ``host`` and return the
        id of its last node. The first node goes on ``side``; every later
        one goes on a side drawn from ``rng``."""
        start = len(self.is_left)
        _check_size(start + length)
        self.lift.append(self.depth(host) + 1 - start)
        self.hosts.append(host)
        self.starts.append(start)
        self.is_left.append(side == LEFT)
        self.is_left += _draw_left(rng, length - 1).tobytes()
        return start + length - 1

    def free_side(self, host):
        """The empty side of a unary host, whose only child is host + 1."""
        return RIGHT if self.is_left[host + 1] else LEFT

    def finish(self, n, t):
        return _link(np.frombuffer(self.is_left, bool),
                     np.frombuffer(self.starts, np.intc),
                     np.frombuffer(self.hosts, np.intc), n, t)


def _link(is_left, starts, hosts, n, t):
    """The instance whose path k starts at ``starts[k]`` below ``hosts[k]``,
    every node v > 0 on the side ``is_left[v]`` of its parent. The links
    are first written as if every node hung below the node before it, as
    inside a path, in branch-free passes over the side flags; then each
    path's first node moves below its host."""
    size = len(is_left)
    parent, left, right = (array("i", [-1]) * size for _ in range(3))
    p, l, r = (np.frombuffer(a, np.intc) for a in (parent, left, right))
    ids = np.arange(1, size, dtype=np.intc)
    # as if node v hung below v - 1: left[v - 1] is v if v goes left
    # and -1 if not, or (v + 1) * is_left[v] - 1, and right[v - 1] is
    # v - 1 - left[v - 1]
    np.multiply(ids + 1, is_left[1:], out=l[:-1])
    l[:-1] -= 1
    np.subtract(ids, l[:-1], out=r[:-1])
    r[:-1] -= 1
    ids -= 1
    p[1:] = ids
    # a path's first node s hangs below its host, not below s - 1
    l[starts - 1] = r[starts - 1] = -1
    on_left = is_left[starts]
    l[hosts[on_left]] = starts[on_left]
    r[hosts[~on_left]] = starts[~on_left]
    p[starts] = hosts
    return TreeInstance(parent, left, right, n=n, t=t)


def gen_random(n: int, t: int, seed: int = 0) -> TreeInstance:
    """Random instance: a depth-n spine plus t fork branches.

    Forks are attached to unary nodes picked at random; each new branch is a
    path whose length is exponential with mean about 2n/sqrt(t), truncated to
    the depth budget, so richer fork counts carry proportionally more
    exploration mass. Exactly t forks, deterministic per seed.
    """
    check_cell("random", n, t)
    rng = random.Random(mix_seed(seed, 17))
    b = _Builder(n, rng)
    # the pool of unary hosts, at first the spine minus its tip (depth
    # <= n - 1); a host leaves by swap-remove, a new path's nodes but its tip
    # join at the end
    hosts = array("i", range(n))
    lam = max(2.0, 2.0 * n / max(1.0, math.sqrt(t)))
    for placed in range(t):
        # a length-1 branch consumes a host without replacing it; grow the
        # pool from the shallowest host when it would otherwise starve, so
        # it holds a host while a fork is left
        need_growth = (t - placed) > len(hosts)
        idx = b.shallowest(hosts) if need_growth else rng.randrange(len(hosts))
        host = hosts[idx]
        room = n - b.depth(host)
        if need_growth:
            if room < 2:
                raise InfeasibleInstanceError(
                    "cannot place %d forks within depth %d" % (t, n))
            length = room
        else:
            length = 1 + min(int(rng.expovariate(1.0 / lam)), room - 1)
        hosts[idx] = hosts[-1]
        hosts.pop()
        last = b.add_path(host, length, b.free_side(host), rng)
        hosts.frombytes(
            np.arange(last - length + 1, last, dtype=np.intc).tobytes())
    return b.finish(n, t)


def gen_complete_path(h: int, delta: int) -> TreeInstance:
    """Complete binary tree of height h with every edge stretched into a path
    of delta edges: depth bound h*delta, 2**h - 1 forks, 2**h leaves.

    Built level by level, in O(h) numpy passes, with the ids of a
    depth-first build that goes right first: a level-k fork's paths start
    at c (left) and c + delta (right), its right subtree at c + 2 * delta
    and its left one at c + 2 * delta * 2**(h - k - 1)."""
    if h < 1 or delta < 1:
        raise InfeasibleInstanceError("need h >= 1 and delta >= 1")
    check_cell("complete_path", h * delta, h * h)
    pairs = 2 ** h - 1  # one per fork
    size = 1 + 2 * delta * pairs
    is_left = np.frombuffer(bytes(1) + (b"\x01" * delta + bytes(delta))
                            * pairs, bool)
    hosts = np.empty(2 * pairs, np.intc)  # path k starts at 1 + k * delta
    forks = np.zeros(1, np.intc)  # the forks of level k
    c = np.ones(1, np.intc)  # and where their pairs start
    for k in range(h):
        path = (c - 1) // delta
        hosts[path] = hosts[path + 1] = forks
        forks = np.concatenate((c + (delta - 1), c + (2 * delta - 1)))
        c += 2 * delta
        c = np.concatenate((c + 2 * delta * (2 ** (h - k - 1) - 1), c))
    return _link(is_left, np.arange(1, size, delta, dtype=np.intc), hosts,
                 h * delta, pairs)


def gen_comb(n: int, t: int, seed: int = 0) -> TreeInstance:
    """Spine of length n with t evenly spaced forks, each sprouting a path
    that reaches depth n."""
    check_cell("comb", n, t)
    spacing = n // (t + 1)
    rng = random.Random(mix_seed(seed, 23))
    b = _Builder(n, rng)
    for j in range(1, t + 1):
        host = j * spacing  # spine node ids equal their depths
        b.add_path(host, n - host, b.free_side(host), rng)
    return b.finish(n, t)


def _fixed_rank(strategy: str):
    """K of a ``fixed:K`` strategy, None for any other; ValueError unless K
    is an integer >= 0 written in decimal digits alone."""
    if not strategy.startswith("fixed:"):
        return None
    k = strategy[len("fixed:"):]
    if not k.isdecimal():
        raise ValueError("target strategy %r needs an integer K >= 0"
                         % (strategy,))
    return int(k)


def place_target(tree: TreeInstance, strategy: str, seed: int = 0) -> int:
    """Pick the search target.

    Strategies: ``random_node``, ``random_leaf``, ``adversarial_deep`` (the
    inorder-last deepest leaf, maximizing exploration before discovery), and
    ``fixed:K`` for the K-th node in inorder.
    """
    k = _fixed_rank(strategy)
    if k is not None:
        if k >= tree.size:
            raise InfeasibleInstanceError("fixed target %d out of range" % k)
        return tree.inorder_sequence()[k]
    rng = random.Random(mix_seed(seed, 31))
    if strategy == "random_node":
        return rng.randrange(tree.size)
    if strategy == "random_leaf":
        leaf = ((np.frombuffer(tree.left, np.intc) < 0)
                & (np.frombuffer(tree.right, np.intc) < 0))
        return int(rng.choice(np.flatnonzero(leaf)))
    if strategy == "adversarial_deep":
        depth = tree.depths()
        deepest = np.flatnonzero(depth == depth.max())  # all of them leaves
        ranks = np.frombuffer(tree.inorder_ranks(), np.intc)
        return int(deepest[ranks[deepest].argmax()])
    raise ValueError("unknown target strategy %r" % (strategy,))


def check_names(family: str, target_strategy: str):
    """Raise ValueError for an unknown family or target strategy, without
    building anything; build_instance calls it first. Returns K of a
    ``fixed:K`` strategy, None for any other."""
    if family not in FAMILIES:
        raise ValueError("unknown family %r" % (family,))
    k = _fixed_rank(target_strategy)
    if k is None and target_strategy not in ("random_node", "random_leaf",
                                             "adversarial_deep"):
        raise ValueError("unknown target strategy %r" % (target_strategy,))
    return k


def build_instance(spec: FamilySpec) -> TreeInstance:
    """Generate the family instance and assign its target."""
    check_names(spec.family, spec.target_strategy)
    check_cell(spec.family, spec.n, spec.t)
    fam = spec.family
    if fam == "random":
        tree = gen_random(spec.n, spec.t, mix_seed(spec.seed, 1))
    elif fam == "comb":
        tree = gen_comb(spec.n, spec.t, mix_seed(spec.seed, 1))
    else:  # complete_path, with t = h * h
        h = math.isqrt(spec.t)
        tree = gen_complete_path(h, spec.n // h)
    tree.target = place_target(tree, spec.target_strategy, mix_seed(spec.seed, 2))
    return tree


def validate_instance(tree: TreeInstance) -> None:
    """Check structural invariants, raising InfeasibleInstanceError on
    failure; the id order and the links are checked by ``depths()``, with
    the checks ranking makes."""
    try:
        depth = tree.depths()
    except TreeError as exc:
        raise InfeasibleInstanceError(
            "expected root 0, every parent id below its child's and child "
            "links that match the parents: %s" % exc) from exc
    left, right = (np.frombuffer(a, np.intc) for a in (tree.left, tree.right))
    bad = np.flatnonzero((left < 0) & (right < 0) & (depth > tree.n))
    if bad.size:
        raise InfeasibleInstanceError("leaf %d at depth %d exceeds bound %d"
                                      % (bad[0], depth[bad[0]], tree.n))
    forks = np.count_nonzero((left >= 0) & (right >= 0))
    if forks != tree.t:
        raise InfeasibleInstanceError(
            "fork count %d does not match declared %d" % (forks, tree.t))
    if not 0 <= tree.target < tree.size:
        raise InfeasibleInstanceError("target out of range")
