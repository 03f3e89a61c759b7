"""Implicit rooted trees with side-labeled edges, a locality-enforcing walker,
and an instrumented comparison oracle.

Nodes are integer ids into parallel arrays. A node with two children is a
fork, a node with one child is unary, a node with none is a leaf. Every child
edge carries a side label (left or right), which induces a total inorder on
the nodes: left subtree first, then the node, then the right subtree.
"""

from __future__ import annotations

from array import array

import numpy as np

FORK = "fork"
UNARY = "unary"
LEAF = "leaf"

LEFT = "left"
RIGHT = "right"

FOUND = "found"
TARGET_SMALLER = "target_smaller"
TARGET_LARGER = "target_larger"

DIR_PARENT = "parent"
DIR_LEFT = "left_child"
DIR_RIGHT = "right_child"
DIR_ONLY = "only_child"


class TreeError(Exception):
    """Base class for contract violations raised by this package."""


class WalkerError(TreeError):
    """The requested neighbor does not exist."""


class NodeIdError(TreeError):
    """A node id outside the instance."""


class InconsistentOracleError(TreeError):
    """Oracle answers eliminated every candidate; the oracle lied."""


class InfeasibleInstanceError(TreeError):
    """Generator parameters admit no valid instance."""


def check_node_id(v: int, size: int) -> None:
    """Reject an id outside [0, size) before it can index from the end."""
    if not 0 <= v < size:
        raise NodeIdError("node id %d is outside the instance" % v)


class TreeInstance:
    """A concrete rooted tree with depth bound ``n`` and exactly ``t`` forks.

    Treated as immutable and shareable once generated; search algorithms may
    only learn its shape through a :class:`Walker`. ``target`` is the node the
    searches must discover. ``parent``, ``left``, ``right`` and ``depth`` are
    ``array("i")`` indexed by node id. The root is node 0, as every generator
    builds it, and ranking needs every other parent id below its child's.
    """

    __slots__ = ("parent", "left", "right", "depth", "n", "t", "target",
                 "_ranks")
    root = 0

    def __init__(self, parent, left, right, depth, n, t, target=0):
        self.parent = parent
        self.left = left
        self.right = right
        self.depth = depth
        self.n = n
        self.t = t
        self.target = target
        self._ranks = None

    @property
    def size(self) -> int:
        return len(self.parent)

    def kind(self, v: int) -> str:
        has_l = self.left[v] >= 0
        has_r = self.right[v] >= 0
        if has_l and has_r:
            return FORK
        if has_l or has_r:
            return UNARY
        return LEAF

    def inorder_ranks(self):
        """Inorder position of every node, indexed by node id."""
        if self._ranks is None:
            self._compute_inorder()
        return self._ranks

    def inorder_sequence(self):
        """Node ids sorted by inorder position, built on each call."""
        ranks = np.frombuffer(self.inorder_ranks(), np.intc)
        return array("i", ranks.argsort().astype(np.intc).tobytes())

    def subtree_spans(self):
        """Inorder interval ``(lo, hi)`` of every node's subtree, as two
        ``array("i")`` indexed by node id. Ranks the tree once more on each
        call and refreshes the rank cache with the same pass."""
        size = self._compute_inorder()
        rank = np.frombuffer(self._ranks, np.intc)
        lo = rank - size[np.frombuffer(self.left, np.intc)]
        hi = rank + size[np.frombuffer(self.right, np.intc)]
        return array("i", lo.tobytes()), array("i", hi.tobytes())

    def _compute_inorder(self):
        """Rank every node in inorder without walking the tree node by node.

        The pass relies on the id order every generator here produces: the
        root is node 0 and ``0 <= parent[v] < v`` for every other node ``v``;
        a tree that breaks it raises :class:`TreeError`. A maximal run of
        ids with ``parent[v] == v - 1`` is then a chain in which ``v + 1`` is
        a child of ``v``, and a run's first node hangs below a host in an
        earlier run. A run's level is the number of runs between it and the
        root's run, found by pointer jumping over hosts. Going up the
        levels, a segmented reverse cumsum over each run gives subtree
        sizes, each node adding the sizes of its children off the run (up
        to two at a run's end); going down, a segmented forward cumsum gives
        each subtree's first inorder slot, and a node's rank is that slot
        plus the size of its left subtree. Python-level work is O(levels),
        each level one set of numpy calls over all of its runs.

        Fills the rank cache and returns the subtree size of every node as a
        numpy array with one more entry, a 0 at index -1, so that indexing it
        with a child array reads 0 for no child.
        """
        size = len(self.parent)
        parent = np.frombuffer(self.parent, np.intc)
        left = np.frombuffer(self.left, np.intc)
        right = np.frombuffer(self.right, np.intc)
        ids = np.arange(size, dtype=np.intc)
        up = parent[1:]
        if (not size or parent[0] >= 0
                or (up < 0).any() or (up >= ids[1:]).any()):
            raise TreeError("ranking needs root 0 and 0 <= parent[v] < v "
                            "for every other node v")
        is_right = right[up] == ids[1:]
        if (not (is_right | (left[up] == ids[1:])).all()
                or np.count_nonzero(left >= 0)
                + np.count_nonzero(right >= 0) != size - 1):
            raise TreeError("the child arrays disagree with the parents")

        # runs, and their levels by pointer jumping over hosts
        cut = np.empty(size, bool)
        cut[0] = True
        np.not_equal(up, ids[:-1], out=cut[1:])
        run_of = np.cumsum(cut, dtype=np.intc)
        run_of -= 1
        starts = np.flatnonzero(cut).astype(np.intc)
        lengths = np.diff(starts, append=np.intc(size))
        host = parent[starts]
        host[0] = 0
        host_run = run_of[host]
        del cut, run_of
        level = np.ones(len(starts), np.intc)
        level[0] = 0
        jump = host_run
        while jump.any():
            level += level[jump]
            jump = jump[jump]

        # runs grouped by level: perm[i] is the node at position i, each run
        # contiguous and each level a contiguous slice
        by_level = np.argsort(level).astype(np.intc)
        bounds = np.searchsorted(level[by_level],
                                 np.arange(level.max() + 2, dtype=np.intc))
        lengths = lengths[by_level]
        pos = np.cumsum(lengths, dtype=np.intc)
        pos -= lengths
        shift = np.empty_like(pos)
        shift[by_level] = pos
        shift -= starts  # a node's position minus its id, per run
        host_pos = host[by_level] + shift[host_run[by_level]]
        perm = np.repeat(starts[by_level] - pos, lengths)
        perm += ids
        del ids, starts, host, host_run, level, jump, shift, by_level
        levels = [(pos[a], pos[b - 1] + lengths[b - 1], a, b)
                  for a, b in zip(bounds[:-1].tolist(), bounds[1:].tolist())]

        # subtree sizes, deepest level first
        sub = np.ones(size, np.intc)
        for a, b, ra, rb in reversed(levels):
            seg = sub[a:b]
            suffix = np.empty(b - a + 1, np.intc)
            suffix[-1] = 0
            np.cumsum(seg[::-1], out=suffix[-2::-1])
            ends = pos[ra:rb] + lengths[ra:rb] - a
            np.subtract(suffix[:-1], np.repeat(suffix[ends], lengths[ra:rb]),
                        out=seg)
            if ra:
                np.add.at(sub, host_pos[ra:rb], seg[pos[ra:rb] - a])
        size_of = np.zeros(size + 1, np.intc)  # size_of[-1] == 0 for no child
        size_of[perm] = sub
        del sub, seg, suffix
        lsize = size_of[left]

        # first inorder slots, root level first: a right child's slot is one
        # past its parent's left subtree and the parent, a left child's is
        # its parent's
        step = lsize[parent]
        step += 1
        step[1:] *= is_right
        step[0] = 0
        first = step[perm]
        del step, is_right
        for a, b, ra, rb in levels:
            seg = first[a:b]
            heads = pos[ra:rb] - a
            base = first[host_pos[ra:rb]] + seg[heads]
            np.cumsum(seg, out=seg)
            base -= seg[heads]
            seg += np.repeat(base, lengths[ra:rb])
        first += lsize[perm]  # the ranks, in perm order
        del lsize

        ranks = array("i", [0]) * size
        np.frombuffer(ranks, np.intc)[perm] = first
        self._ranks = ranks
        return size_of


class Walker:
    """Cursor over a TreeInstance that charges one step per edge traversal.

    The walker starts at the root, which counts as revealed. A node is
    revealed the first time the walker enters it: ``on_reveal(node, kind)``
    hears each node once, in the order they are revealed, and ``kind_of``
    reads the kind of any revealed node. Downward moves report the side
    label of the edge just traversed.

    A *run* is a maximal id range ``a..b`` in which every node but ``b`` is
    unary with only child id + 1; every generated family is made of such
    runs. ``follow`` and ``climb`` walk many edges of one run in a call, at
    one step per edge, revealing exactly what the same single
    moves would; ``run_start`` finds where a run begins, for ``climb`` and
    for the root paths of an explored tree, and moves nothing. The run
    flags behind them, 1 for every node of a run but its last, are built
    once, here, before the root is reported. They stay
    conservative when ``AdaptiveOracle._freeze`` rewrites the child arrays
    of a live walker: a freeze only touches forks, whose flag is 0; a
    demoted fork that keeps child id + 1 keeps its 0 too, so it only ends
    a run early, and ``move`` takes its edge; and the subtrees a freeze
    drops can no longer be reached.
    """

    __slots__ = ("tree", "current", "steps", "revealed", "on_reveal", "_run")

    def __init__(self, tree: TreeInstance, on_reveal=None):
        self.tree = tree
        left = np.frombuffer(tree.left, np.intc)
        right = np.frombuffer(tree.right, np.intc)
        # unary, and the one child id (the other entry is -1) is id + 1
        self._run = bytearray(
            (((left < 0) != (right < 0))
             & (left + right == np.arange(len(left), dtype=np.intc)))
            .tobytes())
        self.current = tree.root
        self.steps = 0
        self.revealed = bytearray(tree.size)
        self.revealed[tree.root] = 1
        self.on_reveal = on_reveal
        if on_reveal is not None:
            on_reveal(tree.root, tree.kind(tree.root))

    def kind_of(self, v: int) -> str:
        """Kind of an already revealed node."""
        check_node_id(v, len(self.revealed))
        if not self.revealed[v]:
            raise WalkerError("node %d has not been revealed" % v)
        return self.tree.kind(v)

    def values(self):
        """Every node's inorder rank, by id: the value the oracle compares.
        A tree that a freeze has cut cannot be ranked; rank it before."""
        return self.tree.inorder_ranks()

    def move(self, direction: str):
        """Step to a neighboring node.

        Returns ``(node id, side or None)``; the side is reported only on
        downward moves.
        """
        cur = self.current
        tree = self.tree
        if direction == DIR_PARENT:
            nxt = tree.parent[cur]
            if nxt < 0:
                raise WalkerError("the root has no parent")
            side = None
        elif direction == DIR_ONLY:
            l = tree.left[cur]
            r = tree.right[cur]
            if l >= 0:
                if r >= 0:
                    raise WalkerError("node %d is a fork; pick a side" % cur)
                nxt = l
                side = LEFT
            elif r >= 0:
                nxt = r
                side = RIGHT
            else:
                raise WalkerError("node %d is a leaf" % cur)
        elif direction == DIR_LEFT:
            nxt = tree.left[cur]
            if nxt < 0 or tree.right[cur] < 0:
                raise WalkerError("left_child requires a fork, not %d" % cur)
            side = LEFT
        elif direction == DIR_RIGHT:
            nxt = tree.right[cur]
            if nxt < 0 or tree.left[cur] < 0:
                raise WalkerError("right_child requires a fork, not %d" % cur)
            side = RIGHT
        else:
            raise WalkerError("unknown direction %r" % (direction,))
        self.current = nxt
        self.steps += 1
        if not self.revealed[nxt]:
            self.revealed[nxt] = 1
            if self.on_reveal is not None:
                self.on_reveal(nxt, tree.kind(nxt))
        return nxt, side

    def follow(self, k: int):
        """Walk down the current node's run for at most k edges.

        Stops after entering the run's last node, so at a fork, a leaf or a
        node whose child is not id + 1. Raises WalkerError before anything
        moves for k < 1 or when the current node is the last of its run.
        Fires ``on_reveal`` for every newly revealed node, in id order.
        Returns ``(node id, left, right)``: the node it ends on and the
        ``left``/``right`` entries of the nodes it left, the side labels k
        single moves would report.
        """
        cur = self.current
        run = self._run
        if k < 1 or not run[cur]:
            raise WalkerError("no run to follow for %r edges below node %d"
                              % (k, cur))
        end = run.find(0, cur + 1, cur + k)
        if end < 0:
            end = cur + k
        self.current = end
        self.steps += end - cur
        revealed = self.revealed
        new = revealed.find(0, cur + 1, end + 1)
        if new >= 0:
            revealed[new:end + 1] = b"\x01" * (end + 1 - new)
            hook = self.on_reveal
            if hook is not None:
                for v in range(new, end):
                    hook(v, UNARY)
                hook(end, self.tree.kind(end))
        return end, self.tree.left[cur:end], self.tree.right[cur:end]

    def run_start(self, v: int, lo: int = 0) -> int:
        """First node of the run that ends at v, cut off at lo <= v: the
        least id a >= lo such that every id from a to v - 1 is unary with
        only child id + 1, so that a..v is a chain of ancestors of v. One
        ``rfind`` over the run flags; nothing moves."""
        j = self._run.rfind(0, lo, v)
        return j + 1 if j >= 0 else lo

    def climb(self, k: int) -> int:
        """Walk up the current node's run for at most k edges.

        Stops at the run's first node, which may be the current node itself.
        Raises WalkerError before anything moves for k < 1 or for k above
        the node's depth. Returns the node it ends on.
        """
        cur = self.current
        if k < 1 or k > self.tree.depth[cur]:
            raise WalkerError("cannot climb %r edges above node %d"
                              % (k, cur))
        top = self.run_start(cur, max(cur - k, 0))
        self.current = top
        self.steps += cur - top
        return top


class InstrumentedOracle:
    """Counts comparison queries against the instance target.

    Any node may be queried, since the target need not be a leaf; a node id
    outside the instance is rejected before the counter moves.
    """

    __slots__ = ("calls", "_ranks", "_target_rank")
    on_reveal = None  # watches no reveals, unlike the adaptive oracle

    def __init__(self, tree: TreeInstance):
        self.calls = 0
        ranks = tree.inorder_ranks()
        self._ranks = ranks
        self._target_rank = ranks[tree.target]

    def query(self, q: int) -> str:
        check_node_id(q, len(self._ranks))
        self.calls += 1
        rq = self._ranks[q]
        rt = self._target_rank
        if rq == rt:
            return FOUND
        return TARGET_SMALLER if rt < rq else TARGET_LARGER

