"""Search procedures over implicit trees: trimming, halving, staged
bounded-depth exploration, and two baselines, all instrumented.

Each search builds its own Walker at the root, wired to the oracle's reveal
hook; all movement goes through it (one step per edge), and all tree shape
knowledge lives in an ExploredTree mirroring the ids the walker has entered.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

from .model import (DIR_LEFT, DIR_ONLY, DIR_PARENT, DIR_RIGHT, FORK, FOUND,
                    LEAF, LEFT, TARGET_LARGER, TARGET_SMALLER, UNARY,
                    InconsistentOracleError, TreeError, Walker, WalkerError)


def _ceil_sqrt(x: int) -> int:
    r = math.isqrt(x)
    return r if r * r == x else r + 1


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


class ExploredTree:
    """The algorithm's partial copy of the instance.

    Arrays indexed by instance id, one slot per id of a ``size``-node
    instance: ``kind`` is a list holding the kind string of an explored id
    and ``None`` for any other; ``parent``, ``left`` and ``right`` are
    ``array("i")`` of ids, ``-1`` for none; ``stub`` flags stubs. A stub is
    a node proven not to hold the target in its subtree; stubs stay in
    place as markers but their explored subtrees are deleted. ``node_count`` and ``leaf_count`` (non-stub nodes
    with no explored children) exclude stubs and are kept current as the
    tree changes.
    """

    __slots__ = ("root", "kind", "parent", "left", "right", "stub",
                 "node_count", "leaf_count")

    def __init__(self, size: int, root: int, root_kind: str):
        self.root = root
        self.kind = [None] * size
        self.kind[root] = root_kind
        none = array("i", [-1])
        self.parent = none * size
        self.left = none * size
        self.right = none * size
        self.stub = bytearray(size)
        self.node_count = 1
        self.leaf_count = 1

    def add_child(self, parent: int, side: str, child: int, kind: str):
        # the child is a new leaf; a childless parent stops being one
        if self.left[parent] >= 0 or self.right[parent] >= 0:
            self.leaf_count += 1
        self.node_count += 1
        self.kind[child] = kind
        self.parent[child] = parent
        if side == LEFT:
            self.left[parent] = child
        else:
            self.right[parent] = child

    def add_chain(self, first: int, last: int, kind: str, left, right):
        """Add ids first..last below the leaf first - 1, each the only child
        of the id before it; all but the last are unary, and ``left`` and
        ``right`` are the links of first - 1..last - 1."""
        self.kind[first:last] = [UNARY] * (last - first)
        self.kind[last] = kind
        self.parent[first:last + 1] = array("i", range(first - 1, last))
        self.left[first - 1:last] = left
        self.right[first - 1:last] = right
        self.node_count += last + 1 - first  # last takes the leaf's place

    def path_to_root(self, u: int):
        """Ids from u up to the root, inclusive."""
        path = [u]
        parent = self.parent
        p = parent[u]
        while p >= 0:
            path.append(p)
            p = parent[p]
        return path

    def _inorder(self, top: int):
        # Both public rescans call this, never each other, so a profiler
        # that wraps both counts every rescanned id once.
        nodes = []
        left = self.left
        right = self.right
        stub = self.stub
        stack = []
        cur = top
        while True:
            while cur >= 0:
                stack.append(cur)
                cur = left[cur]
            if not stack:
                return nodes
            cur = stack.pop()
            if not stub[cur]:
                nodes.append(cur)
            cur = right[cur]

    def inorder_below(self, top: int):
        """Non-stub ids of top's explored subtree, in inorder."""
        return self._inorder(top)

    def inorder_nodes_and_leaves(self):
        """Non-stub ids in inorder, plus the subset with no explored children."""
        nodes = self._inorder(self.root)
        left = self.left
        right = self.right
        return nodes, [v for v in nodes if left[v] < 0 and right[v] < 0]

    def mark_stub(self, v: int):
        """Stub v and delete its explored subtree; a stub stays as it is."""
        kind = self.kind
        parent = self.parent
        left = self.left
        right = self.right
        stub = self.stub
        nodes = leaves = 0  # non-stub nodes and leaves taken out of view
        stack = [v]
        while stack:
            w = stack.pop()
            l = left[w]
            r = right[w]
            if l >= 0:
                stack.append(l)
                left[w] = -1
            if r >= 0:
                stack.append(r)
                right[w] = -1
            if not stub[w]:
                nodes += 1
                if l < 0 and r < 0:
                    leaves += 1
            if w != v:
                kind[w] = None
                parent[w] = -1
                stub[w] = 0
        stub[v] = 1
        self.node_count -= nodes
        self.leaf_count -= leaves


def trim(explored: ExploredTree, u: int, answer: str):
    """Prune the explored tree after an oracle answer at u.

    When the target is larger than u, every left child hanging off the
    root-to-u path that is not itself on the path becomes a stub; symmetric
    for a smaller target and right children. A queried node that is a true
    leaf is also stubbed, since its whole subtree is just itself and the
    answer excluded it. Returns the newly created stubs.
    """
    if answer == FOUND:
        raise TreeError("trim is undefined for a found answer")
    take = explored.left if answer == TARGET_LARGER else explored.right
    stub = explored.stub
    new_stubs = []
    below = -1  # the path's child of v, the one child of v on the path
    for v in explored.path_to_root(u):
        c = take[v]
        if c >= 0 and c != below and not stub[c]:
            explored.mark_stub(c)
            new_stubs.append(c)
        below = v
    if explored.kind[u] == LEAF and not stub[u]:
        explored.mark_stub(u)
        new_stubs.append(u)
    return new_stubs


def median_node(explored: ExploredTree) -> int:
    """Non-stub node splitting the non-stub inorder as evenly as possible.

    The count difference is at most one whenever achievable; ties break
    toward the inorder-smaller candidate.
    """
    nodes = explored.inorder_below(explored.root)
    if not nodes:
        raise TreeError("empty explored tree")
    return nodes[(len(nodes) - 1) // 2]


def median_leaf(explored: ExploredTree) -> int:
    """Median over non-stub explored leaves, same tie rule as median_node."""
    leaves = explored.inorder_nodes_and_leaves()[1]
    if not leaves:
        raise TreeError("no non-stub leaves to bisect")
    return leaves[(len(leaves) - 1) // 2]


def halve(explored: ExploredTree, oracle, median=median_node):
    """Query the node picked by ``median_node`` or ``median_leaf``; trim.

    Returns (answer, queried node, new stubs). Triggered at a node count of
    alpha*n the survivor count is at most 1 + (alpha/2 + 1)*n: the kept half
    plus the preserved query path.
    """
    u = median(explored)
    answer = oracle.query(u)
    if answer == FOUND:
        return answer, u, []
    return answer, u, trim(explored, u, answer)


def dfs_extend(explored: ExploredTree, walker: Walker, depth_limit: int,
               anchor: int) -> int:
    """Grow anchor's explored subtree to the depth limit by walking DFS.

    The walker must stand at anchor, or TreeError is raised before any step.
    Already explored edges are re-walked (each at most twice), stubs are
    never entered, the walk turns back at the depth limit, and the walker
    ends where it started. Returns the count of newly explored forks.

    No stack is kept. The walk goes down, into the left child first, until
    it reaches the limit or a node with no child it may enter; then it
    climbs, holding the child it came up from (``back``), to the first fork
    it left by its left child and whose right child is no stub, or ends at
    the anchor.

    Every edge costs one step, but a unary chain is walked in one call.
    Going down to an only child, the walk asks ``Walker.follow`` for the
    depth left, cut short of the next stub id; a node whose child is not id
    + 1 makes ``follow`` raise before anything moves, and one
    ``Walker.move`` takes that edge instead. The chain's new nodes are
    written with slices: an explored chain is ancestor-closed, so they
    start at the first unexplored id. Going up, ``Walker.climb`` takes the
    walk to the top of its chain, and one move over the edge above it. So
    the moves, and every counter, are those of one move per edge. New nodes
    take their kind from ``Walker.kind_of``.
    """
    if walker.current != anchor:
        raise TreeError("walker must start at the exploration anchor")
    kinds = explored.kind
    stub = explored.stub
    lefts = explored.left
    rights = explored.right
    parents = explored.parent
    move = walker.move
    follow = walker.follow
    climb = walker.climb
    new_forks = 0
    node = anchor
    anchor_depth = depth = len(explored.path_to_root(anchor)) - 1
    while True:
        direction = None
        k = kinds[node]
        if depth < depth_limit and k != LEAF:
            c = lefts[node]
            if k == FORK:
                if c < 0 or not stub[c]:
                    direction = DIR_LEFT
                else:
                    c = rights[node]
                    if c < 0 or not stub[c]:
                        direction = DIR_RIGHT
            else:
                if c < 0:
                    c = rights[node]
                if c < 0 or not stub[c]:
                    direction = DIR_ONLY
        while direction is None:
            if node != anchor:
                top = climb(depth - anchor_depth)
                depth -= node - top
                node = top
            if node == anchor:
                return new_forks
            move(DIR_PARENT)
            back = node
            node = parents[node]
            depth -= 1
            if lefts[node] == back and kinds[node] == FORK:
                c = rights[node]
                if c < 0 or not stub[c]:
                    direction = DIR_RIGHT
        if direction == DIR_ONLY:
            # the child is no stub, so the cut looks past it
            room = depth_limit - depth
            s = stub.find(1, node + 2, node + room + 1)
            if s >= 0:
                room = s - node - 1
            try:
                end, _, ls, rs = follow(room)
            except WalkerError:  # node ends its run: one move takes the edge
                pass
            else:
                if kinds[end] is None:
                    new = kinds.index(None, node + 1, end + 1)
                    ekind = walker.kind_of(end)
                    explored.add_chain(new, end, ekind, ls[new - 1 - node:],
                                       rs[new - 1 - node:])
                    if ekind == FORK:
                        new_forks += 1
                depth += end - node
                node = end
                continue
        cid, _, cside = move(direction)
        if kinds[cid] is None:
            ckind = walker.kind_of(cid)
            explored.add_child(node, cside, cid, ckind)
            if ckind == FORK:
                new_forks += 1
        node = cid
        depth += 1


# Scales the staged search's node cap against the depth bound.
TRIGGER_FACTOR = 4


def check_psi(psi) -> None:
    """Reject a staged-search call budget below 1."""
    if psi < 1:
        raise TreeError("psi must be at least 1, got %r" % (psi,))


@dataclass(frozen=True)
class SearchParams:
    """The staged search's budgets, all derived from n, t and psi.

    ``psi`` is roughly the oracle-call budget: at least 1, and a psi above
    t is lowered to t. Each round deepens the exploration limit by
    ``depth_step``; after exploring, the tree is decimated until it fits
    ``node_cap`` nodes and ``leaf_budget`` leaves.
    """

    psi: int
    leaf_budget: int
    depth_step: int
    node_cap: int

    @classmethod
    def for_instance(cls, tree, psi=None) -> "SearchParams":
        t = tree.t
        if psi is None:
            psi = _ceil_sqrt(t)
        else:
            check_psi(psi)
        psi = max(1, min(psi, t))
        leaf_budget = max(1, _ceil_div(t, psi))
        depth_step = max(1, _ceil_div(2 * tree.n, psi))
        # A bare root-to-depth path is incompressible, so the node target
        # keeps slack above the depth bound; decimation below that floor
        # cannot help.
        node_cap = max(leaf_budget * depth_step, TRIGGER_FACTOR * tree.n + 2)
        return cls(psi=psi, leaf_budget=leaf_budget, depth_step=depth_step,
                   node_cap=node_cap)


@dataclass(frozen=True)
class RoundStats:
    index: int
    new_forks: int
    oracle_calls: int
    steps: int
    depth_limit: int


@dataclass(frozen=True)
class SearchResult:
    found: int
    steps: int
    oracle_calls: int
    rounds: tuple
    params: SearchParams | None = None


def _bisect(seq, oracle):
    """Bisect inorder ids: returns (found id or None, insertion index)."""
    lo = 0
    hi = len(seq) - 1
    while lo <= hi:
        mid = (lo + hi) // 2
        answer = oracle.query(seq[mid])
        if answer == FOUND:
            return seq[mid], mid
        if answer == TARGET_SMALLER:
            hi = mid - 1
        else:
            lo = mid + 1
    return None, lo


def final_binary_search(explored: ExploredTree, oracle) -> int:
    """Bisect the non-stub inorder sequence with the oracle until found.

    Uses at most ceil(log2(candidates)) + 1 calls.
    """
    found, _ = _bisect(explored.inorder_below(explored.root), oracle)
    if found is None:
        raise InconsistentOracleError("binary search exhausted its candidates")
    return found


def bifurcation_search(tree, oracle, psi=None) -> SearchResult:
    """Staged search interleaving bounded-depth exploration with decimation.

    Round i explores to depth i * depth_step by DFS (skipping stubs), then
    repeatedly halves the explored tree until it fits the node and leaf
    budgets. Rounds stop once the limit covers the whole depth range, and a
    final bisection over the survivors pins down the target. A found answer
    anywhere aborts immediately. ``psi`` defaults to ceil(sqrt(t)); the
    budgets are ``SearchParams.for_instance(tree, psi)``.
    """
    params = SearchParams.for_instance(tree, psi)
    walker = Walker(tree, oracle.on_reveal)
    explored = ExploredTree(tree.size, tree.root, walker.kind_of(tree.root))
    node_cap = params.node_cap
    leaf_cap = params.leaf_budget
    base_calls = oracle.calls
    rounds = []
    i = 0
    while True:
        i += 1
        depth_limit = i * params.depth_step
        steps_before = walker.steps
        calls_before = oracle.calls
        new_forks = dfs_extend(explored, walker, depth_limit, tree.root)
        found = None
        while True:
            if explored.leaf_count > leaf_cap:
                median = median_leaf
            elif explored.node_count > node_cap:
                median = median_node
            else:
                break
            answer, u, new_stubs = halve(explored, oracle, median)
            if answer == FOUND:
                found = u
                break
            # a trim that stubs nothing leaves the tree as it was
            if not new_stubs:
                break
        rounds.append(RoundStats(i, new_forks, oracle.calls - calls_before,
                                 walker.steps - steps_before, depth_limit))
        if found is not None:
            return SearchResult(found, walker.steps, oracle.calls - base_calls,
                                tuple(rounds), params)
        if depth_limit >= tree.n:
            break
    target = final_binary_search(explored, oracle)
    return SearchResult(target, walker.steps, oracle.calls - base_calls,
                        tuple(rounds), params)


def baseline_full(tree, oracle) -> SearchResult:
    """Explore everything first, then bisect once.

    Steps come to exactly twice the edge count.
    """
    walker = Walker(tree, oracle.on_reveal)
    explored = ExploredTree(tree.size, tree.root, walker.kind_of(tree.root))
    base_calls = oracle.calls
    dfs_extend(explored, walker, tree.n, tree.root)
    target = final_binary_search(explored, oracle)
    return SearchResult(target, walker.steps, oracle.calls - base_calls, ())


def baseline_rounds(tree, oracle) -> SearchResult:
    """Depth-capped rounds with a full bisection per round.

    Round i explores the subtree under the current frontier node down to
    absolute depth i * n / ceil(sqrt(t)), bisects the newly explored nodes to
    isolate the inorder gap holding the target, and descends to the frontier
    node guarding that gap for the next round.
    """
    walker = Walker(tree, oracle.on_reveal)
    explored = ExploredTree(tree.size, tree.root, walker.kind_of(tree.root))
    base_calls = oracle.calls
    chunk = max(1, _ceil_div(tree.n, max(1, _ceil_sqrt(tree.t))))
    frontier = tree.root
    rounds = []
    i = 0
    while True:
        i += 1
        depth_limit = min(i * chunk, tree.n)
        steps_before = walker.steps
        calls_before = oracle.calls
        new_forks = dfs_extend(explored, walker, depth_limit, frontier)
        cand = explored.inorder_below(frontier)
        found, gap = _bisect(cand, oracle)
        rounds.append(RoundStats(i, new_forks, oracle.calls - calls_before,
                                 walker.steps - steps_before, depth_limit))
        if found is not None:
            return SearchResult(found, walker.steps, oracle.calls - base_calls,
                                tuple(rounds))
        before = cand[gap - 1] if gap > 0 else None
        after = cand[gap] if gap < len(cand) else None
        nxt = _pick_frontier(explored, before, after)
        _descend(walker, explored, frontier, nxt)
        frontier = nxt
        if i > tree.n + 2:
            raise InconsistentOracleError("round limit exceeded")


def _pick_frontier(explored, before, after):
    """Choose which gap endpoint owns the unexplored region.

    The gap hangs under the deeper endpoint. ``after`` is ``before``'s
    inorder successor, and ``baseline_rounds`` never stubs, so it lies in
    ``before``'s right subtree when ``before`` has a right child, and is
    otherwise an ancestor of ``before``. The candidates always hold the
    frontier, so at least one endpoint exists.
    """
    if before is None:
        return after
    if after is None:
        return before
    return after if explored.right[before] >= 0 else before


def _descend(walker, explored, src, dst):
    """Walk the explored path from src down to its descendant dst."""
    chain = explored.path_to_root(dst)
    del chain[chain.index(src):]
    parent = explored.parent
    kinds = explored.kind
    lefts = explored.left
    for node in reversed(chain):
        p = parent[node]
        if kinds[p] == FORK:
            direction = DIR_LEFT if lefts[p] == node else DIR_RIGHT
        else:
            direction = DIR_ONLY
        walker.move(direction)


ALGORITHMS = {
    "bifurcation": bifurcation_search,
    "full": baseline_full,
    "rounds": baseline_rounds,
}
