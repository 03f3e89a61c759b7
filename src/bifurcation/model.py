"""Implicit rooted trees with side-labeled edges, a locality-enforcing walker,
and an instrumented comparison oracle.

Nodes are integer ids into parallel arrays. A node with two children is a
fork, a node with one child is unary, a node with none is a leaf. Every child
edge carries a side label (left or right), which induces a total inorder on
the nodes: left subtree first, then the node, then the right subtree.
"""

from __future__ import annotations

from array import array

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
    searches must discover.
    """

    __slots__ = ("parent", "left", "right", "depth", "root", "n", "t",
                 "target", "family", "_ranks", "_order")

    def __init__(self, parent, left, right, depth, n, t, root=0, target=0,
                 family="custom"):
        self.parent = parent
        self.left = left
        self.right = right
        self.depth = depth
        self.root = root
        self.n = n
        self.t = t
        self.target = target
        self.family = family
        self._ranks = None
        self._order = None

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

    def is_leaf(self, v: int) -> bool:
        return self.left[v] < 0 and self.right[v] < 0

    def child_side(self, v: int):
        """Side of v under its parent, or None for the root."""
        p = self.parent[v]
        if p < 0:
            return None
        return LEFT if self.left[p] == v else RIGHT

    def inorder_ranks(self):
        """Inorder position of every node, indexed by node id."""
        if self._ranks is None:
            self._compute_inorder()
        return self._ranks

    def inorder_sequence(self):
        """Node ids sorted by inorder position."""
        if self._order is None:
            self._compute_inorder()
        return self._order

    def _compute_inorder(self):
        ranks = array("i", bytes(4 * len(self.parent)))
        order = array("i")
        left = self.left
        right = self.right
        stack = []
        cur = self.root
        while stack or cur >= 0:
            while cur >= 0:
                stack.append(cur)
                cur = left[cur]
            cur = stack.pop()
            ranks[cur] = len(order)
            order.append(cur)
            cur = right[cur]
        self._ranks = ranks
        self._order = order


def inorder_compare(tree: TreeInstance, a: int, b: int) -> str:
    """Order of a versus b in the inorder traversal: smaller, equal, larger."""
    ranks = tree.inorder_ranks()
    ra = ranks[a]
    rb = ranks[b]
    if ra == rb:
        return "equal"
    return "smaller" if ra < rb else "larger"


class Walker:
    """Cursor over a TreeInstance that charges one step per edge traversal.

    The walker starts at the root, which counts as revealed. A node's kind is
    disclosed the first time the walker enters it; entering a node that was
    already revealed reports None for the kind. Downward moves also report the
    side label of the edge just traversed.
    """

    __slots__ = ("tree", "current", "steps", "revealed", "on_reveal",
                 "_parent", "_left", "_right")

    def __init__(self, tree: TreeInstance, on_reveal=None):
        self.tree = tree
        self._parent = tree.parent
        self._left = tree.left
        self._right = tree.right
        self.current = tree.root
        self.steps = 0
        self.revealed = bytearray(tree.size)
        self.revealed[tree.root] = 1
        self.on_reveal = on_reveal
        if on_reveal is not None:
            on_reveal(tree.root, tree.kind(tree.root))

    def is_revealed(self, v: int) -> bool:
        check_node_id(v, len(self.revealed))
        return bool(self.revealed[v])

    def kind_of(self, v: int) -> str:
        """Kind of an already revealed node."""
        check_node_id(v, len(self.revealed))
        if not self.revealed[v]:
            raise WalkerError("node %d has not been revealed" % v)
        return self.tree.kind(v)

    def move(self, direction: str):
        """Step to a neighboring node.

        Returns ``(node id, kind or None, side or None)``; the kind is
        reported only on first entry, the side only on downward moves.
        """
        cur = self.current
        if direction == DIR_PARENT:
            nxt = self._parent[cur]
            if nxt < 0:
                raise WalkerError("the root has no parent")
            side = None
        elif direction == DIR_ONLY:
            l = self._left[cur]
            r = self._right[cur]
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
            nxt = self._left[cur]
            if nxt < 0 or self._right[cur] < 0:
                raise WalkerError("left_child requires a fork, not %d" % cur)
            side = LEFT
        elif direction == DIR_RIGHT:
            nxt = self._right[cur]
            if nxt < 0 or self._left[cur] < 0:
                raise WalkerError("right_child requires a fork, not %d" % cur)
            side = RIGHT
        else:
            raise WalkerError("unknown direction %r" % (direction,))
        self.current = nxt
        self.steps += 1
        if self.revealed[nxt]:
            return nxt, None, side
        self.revealed[nxt] = 1
        l = self._left[nxt]
        r = self._right[nxt]
        if l >= 0:
            kind = FORK if r >= 0 else UNARY
        else:
            kind = UNARY if r >= 0 else LEAF
        if self.on_reveal is not None:
            self.on_reveal(nxt, kind)
        return nxt, kind, side


class InstrumentedOracle:
    """Counts comparison queries against the instance target.

    Any node may be queried, since the target need not be a leaf; a node id
    outside the instance is rejected before the counter moves.
    """

    __slots__ = ("tree", "calls", "_ranks", "_target_rank")

    def __init__(self, tree: TreeInstance):
        self.tree = tree
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


def dump_tree(tree: TreeInstance) -> str:
    """Textual dump, one line per node: ``id kind parent side``, root first."""
    root = tree.root
    lines = ["%d %s - -" % (root, tree.kind(root))]
    for v in range(tree.size):
        if v == root:
            continue
        p = tree.parent[v]
        side = "L" if tree.left[p] == v else "R"
        lines.append("%d %s %d %s" % (v, tree.kind(v), p, side))
    return "\n".join(lines)
