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


def _root_path_sums(values, up):
    """Add to each entry of ``values`` those of its ancestors, in place, by
    pointer jumping: ``up[k]`` is k's parent, and the root is entry 0, with
    ``up[0] == 0`` and ``values[0] == 0``."""
    jump = up
    while jump.any():
        values += values[jump]
        jump = jump[jump]


class TreeInstance:
    """A concrete rooted tree with depth bound ``n`` and exactly ``t`` forks.

    Treated as immutable and shareable once generated; search algorithms may
    only learn its shape through a :class:`Walker`. ``target`` is the node the
    searches must discover. ``parent``, ``left`` and ``right`` are
    ``array("i")`` indexed by node id; depths follow from them
    (``depths``). The root is node 0, as every generator builds it, and
    ranking and depths need every other parent id below its child's.
    """

    __slots__ = ("parent", "left", "right", "n", "t", "target", "_ranks")
    root = 0

    def __init__(self, parent, left, right, n, t, target=0):
        self.parent = parent
        self.left = left
        self.right = right
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
            self.subtree_sizes()
        return self._ranks

    def inorder_sequence(self):
        """Node ids sorted by inorder position, built on each call by
        placing each id at its rank."""
        ranks = np.frombuffer(self.inorder_ranks(), np.intc)
        seq = array("i", [0]) * len(ranks)
        np.frombuffer(seq, np.intc)[ranks] = np.arange(len(ranks),
                                                       dtype=np.intc)
        return seq

    def depths(self):
        """Depth of every node, by id, as an int32 numpy array derived on
        each call from the id segments (``_segments``): a node's offset in
        its segment plus its segment head's depth, one more than its
        host's, summed from the root by pointer jumping. Raises
        :class:`TreeError`, as ranking does, on a tree out of id order,
        such as one a freeze has cut."""
        starts, lengths, hosts, up_seg, *_ = self._segments()
        head = np.zeros(len(starts), np.intc)  # below the host segment's head
        head[1:] = hosts - starts[up_seg[1:]] + 1
        _root_path_sums(head, up_seg)
        depth = np.arange(len(self.parent), dtype=np.intc)
        depth += np.repeat(head - starts, lengths)
        return depth

    def _segments(self):
        """Check the id order and the links; split the ids into segments.

        Ranking and depths rely on the id order every generator here
        produces: the root is node 0 and ``0 <= parent[v] < v`` for every
        other node ``v``; a tree that breaks it, or whose child links
        disagree with its parents, raises :class:`TreeError`. A *segment*
        is then a maximal id range with ``parent[v] == v - 1``: a slice
        whose every node but the last has child id + 1, and whose head
        hangs below a host in an earlier segment. Unlike a walker's run, a
        segment may pass through a fork.

        Returns ``(starts, lengths, hosts, up_seg, down_l, down_r,
        hung_r)``: segment k holds the ``lengths[k]`` ids from
        ``starts[k]``, segment 0 the root's; segment k > 0 hangs below
        ``hosts[k - 1]``, a node of segment ``up_seg[k]``, on its right
        side if ``hung_r[k - 1]`` and else on its left; and ``down_l[v]``
        (``down_r[v]``) tells whether v + 1 is v's left (right) child.
        """
        size = len(self.parent)
        parent = np.frombuffer(self.parent, np.intc)
        left = np.frombuffer(self.left, np.intc)
        right = np.frombuffer(self.right, np.intc)
        ids = np.arange(size, dtype=np.intc)
        up = parent[1:]
        # unsigned, a negative parent reads as past every id
        if (not size or parent[0] >= 0
                or (up.view(np.uintc) >= ids[1:].view(np.uintc)).any()):
            raise TreeError("id runs need root 0 and 0 <= parent[v] < v "
                            "for every other node v")
        head = up != ids[:-1]  # head[v - 1]: node v starts a segment
        down_l = left[:-1] == ids[1:]  # down_l[v]: v + 1 is v's left child
        down_r = right[:-1] == ids[1:]
        del ids
        starts = np.flatnonzero(head).astype(np.intc)
        starts += 1
        hosts = parent[starts]
        hung_r = right[hosts] == starts
        hung = hung_r | (left[hosts] == starts)
        head |= down_l
        head |= down_r
        if (not head.all() or not hung.all()
                or np.count_nonzero(left >= 0)
                + np.count_nonzero(right >= 0) != size - 1):
            raise TreeError("the child arrays disagree with the parents")
        del head
        starts = np.insert(starts, 0, 0)
        lengths = np.diff(starts, append=np.intc(size))
        up_seg = np.zeros(len(starts), np.intc)
        up_seg[1:] = np.searchsorted(starts, hosts, side="right") - 1
        return starts, lengths, hosts, up_seg, down_l, down_r, hung_r

    def subtree_sizes(self):
        """Subtree size of every node, by id, as a numpy int32 array. Ranks
        the tree again, by numpy passes over the id segments
        (``_segments``, which checks the id order first), and refreshes the
        rank cache.

        Node-sized work is slice compares (``left[:-1]`` and ``right[:-1]``
        against the next ids give the chain edges' sides) and arithmetic
        along the ids; only the segment heads, one per fork, are gathered,
        once, by ``_segments``. Segment totals, the subtree sizes at the
        heads, are summed in one pass from the last segment to the first,
        as a host's segment comes before the segments hung below it.

        Subtree sizes are a reverse cumsum of one plus the totals hung below
        each node, less that sum past the segment's end. A node's first
        inorder slot is its segment's base plus a cumsum of the moves down
        the segment: a right chain edge skips the node and its left
        subtree, a left one nothing. A segment's base is its host's slot,
        or one past the host and its left subtree for a right head, summed
        from the root by pointer jumping. A rank is the slot plus the size
        of the left subtree.

        The prefix sums are int32 and wrap on a large, deep tree, which is
        harmless: every step is an add, subtract or multiply, so each
        result is exact modulo 2**32, and every final size and rank lies in
        ``[0, size)``.
        """
        (starts, lengths, hosts, up_seg, down_l, down_r,
         hung_r) = self._segments()
        size = len(self.parent)
        heads = starts[1:]
        total = lengths.tolist()
        up = up_seg.tolist()
        for k in range(len(total) - 1, 0, -1):
            total[up[k]] += total[k]
        below = np.array(total[1:], np.intc)  # the subtree size at each head

        # subtree sizes
        sub = np.ones(size, np.intc)
        np.add.at(sub, hosts, below)
        np.cumsum(sub[::-1], out=sub[::-1])
        ends = np.append(sub[heads], np.intc(0))
        sub -= np.repeat(ends, lengths)
        lsize = np.empty(size, np.intc)  # left subtree sizes
        np.multiply(sub[1:], down_l, out=lsize[:-1])
        lsize[-1] = 0
        lsize[hosts[~hung_r]] = below[~hung_r]
        del down_l

        # ranks: offsets within segments, then each segment's base
        ranks = array("i", [0]) * size
        rank = np.frombuffer(ranks, np.intc)
        np.add(lsize[:-1], 1, out=rank[1:])
        rank[1:] *= down_r
        np.cumsum(rank, out=rank)
        at_start = rank[starts]
        base = np.zeros(len(starts), np.intc)
        base[1:] = rank[hosts] - at_start[up_seg[1:]]
        base[1:] += hung_r * (lsize[hosts] + 1)
        _root_path_sums(base, up_seg)
        rank += lsize
        del lsize
        base -= at_start
        rank += np.repeat(base, lengths)
        self._ranks = ranks
        return sub


class Walker:
    """Cursor over a TreeInstance that charges one step per edge traversal.

    The walker starts at the root, which counts as revealed, and keeps the
    ``depth`` of ``current`` beside ``steps``. A node is revealed the first
    time the walker enters it: ``on_fork(node)`` hears each fork once, as
    it is revealed, and ``kind_of`` reads the kind of any revealed node.
    ``move`` names the neighbour it enters by its id, as the paper's player
    moves to the parent or a child.

    A *run* is a maximal id range ``a..b`` in which every node but ``b`` is
    unary with only child id + 1; every generated family is made of such
    runs. ``follow`` and ``climb`` walk many edges of one run in a call, at
    one step per edge, revealing exactly what the same single
    moves would; ``run_start`` finds where a run begins, for ``climb`` and
    for the root paths of an explored tree, and moves nothing. The run
    flags behind them, 1 for every node of a run but its last, are built
    once, here, before the root is reported. ``follow`` decides whether
    it may start by the current node's live links, so it walks on from a
    fork that ``AdaptiveOracle._freeze`` demoted onto child id + 1; the
    flags only bound its scan past that node. There they stay conservative
    when a freeze rewrites the child arrays of a live walker: a freeze only
    touches forks, whose flag is 0; a demoted fork keeps its 0, so it only
    ends a run early; and the subtrees a freeze drops can no longer be
    reached.
    """

    __slots__ = ("tree", "current", "depth", "steps", "revealed", "on_fork",
                 "_run")

    def __init__(self, tree: TreeInstance, on_fork=None):
        self.tree = tree
        left = np.frombuffer(tree.left, np.intc)
        right = np.frombuffer(tree.right, np.intc)
        # unary, and the one child id (the other entry is -1) is id + 1
        self._run = bytearray(
            (((left < 0) != (right < 0))
             & (left + right == np.arange(len(left), dtype=np.intc)))
            .tobytes())
        self.current = tree.root
        self.depth = 0
        self.steps = 0
        self.revealed = bytearray(tree.size)
        self.revealed[tree.root] = 1
        self.on_fork = on_fork
        if on_fork is not None and tree.kind(tree.root) == FORK:
            on_fork(tree.root)

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

    def move(self, v: int) -> None:
        """Step to v, the current node's parent or one of its children.

        Any other id raises before anything moves: NodeIdError outside the
        instance, so -1 at the root too, else WalkerError.
        """
        cur = self.current
        tree = self.tree
        check_node_id(v, len(self.revealed))
        if v == tree.parent[cur]:
            self.depth -= 1
        elif tree.parent[v] == cur:
            self.depth += 1
        else:
            raise WalkerError("node %d is no neighbour of node %d" % (v, cur))
        self.current = v
        self.steps += 1
        if not self.revealed[v]:
            self.revealed[v] = 1
            if self.on_fork is not None and tree.kind(v) == FORK:
                self.on_fork(v)

    def follow(self, k: int):
        """Walk down the current node's run for at most k edges.

        Stops after entering the run's last node, so at a fork, a leaf or a
        node whose child is not id + 1. Raises WalkerError before anything
        moves for k < 1 or when the current node's live links do not make
        it unary with only child id + 1. Fires ``on_fork`` once, for
        ``end``, if it newly reveals a fork. Returns ``(node id, count)``:
        the node it ends on and the number of nodes it newly reveals, a
        tail of the chain ending there, 0 when it reveals none.
        """
        cur = self.current
        left = self.tree.left[cur]
        right = self.tree.right[cur]
        # unary, and the one child id (the other link is -1) is id + 1
        if k < 1 or (left < 0) == (right < 0) or left + right != cur:
            raise WalkerError("no run to follow for %r edges below node %d"
                              % (k, cur))
        end = self._run.find(0, cur + 1, cur + k)
        if end < 0:
            end = cur + k
        self.current = end
        self.depth += end - cur
        self.steps += end - cur
        new = self.revealed.find(0, cur + 1, end + 1)
        if new < 0:
            return end, 0
        self.revealed[new:end + 1] = b"\x01" * (end + 1 - new)
        if self.on_fork is not None and self.tree.kind(end) == FORK:
            self.on_fork(end)
        return end, end + 1 - new

    def run_start(self, v: int, lo: int) -> int:
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
        if k < 1 or k > self.depth:
            raise WalkerError("cannot climb %r edges above node %d"
                              % (k, cur))
        top = self.run_start(cur, max(cur - k, 0))
        self.current = top
        self.depth -= cur - top
        self.steps += cur - top
        return top


class InstrumentedOracle:
    """Counts comparison queries against the instance target.

    Any node may be queried, since the target need not be a leaf; a query
    or target outside the instance is rejected before the counter moves.
    """

    __slots__ = ("calls", "_ranks", "_target_rank")
    on_fork = None  # watches no forks, unlike the adaptive oracle

    def __init__(self, tree: TreeInstance):
        check_node_id(tree.target, tree.size)
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

