"""Search procedures over implicit trees: trimming, halving, staged
bounded-depth exploration, and two baselines, all instrumented.

Each search builds its own Walker at the root, wired to the oracle's fork
hook; all movement goes through it (one step per edge), and all tree shape
knowledge lives in an ExploredTree mirroring the ids the walker has entered.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

import numpy as np

from .model import (DIR_LEFT, DIR_ONLY, DIR_PARENT, DIR_RIGHT, FORK, FOUND,
                    LEAF, LEFT, TARGET_LARGER, TARGET_SMALLER,
                    InconsistentOracleError, TreeError, TreeInstance, Walker,
                    WalkerError, check_node_id)


def _ceil_sqrt(x: int) -> int:
    r = math.isqrt(x)
    return r if r * r == x else r + 1


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _run_ids(first, last):
    """The ids of the runs ``first[i]..last[i]``, one after another, from
    two nonempty int32 arrays: one int32 arange shifted run by run."""
    lengths = last - first
    lengths += 1
    ends = np.cumsum(lengths, dtype=np.intc)
    ids = np.arange(ends[-1], dtype=np.intc)
    ids += np.repeat(first - (ends - lengths), lengths)
    return ids


class ExploredTree:
    """The algorithm's partial copy of the instance the walker explores.

    Arrays indexed by instance id, one slot per id: ``parent``, ``left``
    and ``right`` are ``array("i")`` of ids, ``-1`` for none; ``stub`` flags
    stubs and has one trailing 0 byte, so ``stub[-1]`` reads no stub for a
    missing child. Membership is ``parent``: an id other than the root is
    explored exactly when its ``parent`` is not ``-1``. ``walker`` is the
    one walker that explores the tree; ``dfs_extend``, ``trim`` and
    ``_descend`` move it, and kinds are not copied but read through it
    (``Walker.kind_of``), as it revealed every explored id. A stub is a
    node proven not to hold the target in its subtree; stubs stay in place
    as markers but their explored subtrees are deleted. ``node_count`` and
    ``leaf_count`` (non-stub nodes with no explored children) exclude stubs
    and are kept current as the tree changes.

    A node's value is its inorder rank (``Walker.values``). An int32 slot
    index by value holds exactly the explored ids, stubs included, each at
    its own value; the index is allocated on the first rescan or cut, and
    only then are the values read, so exploring alone ranks nothing. The
    constructor logs the root, and ``add_child`` and ``add_chain`` their
    new ids, as ``(first, last)`` runs; the next rescan or cut writes the
    log into the index. Only ``trim`` deletes ids, through ``_cut``, which
    writes the log in first. A rescan compacts the index, or the value
    slice under ``top``, and drops the stubs. A cut takes the value slice
    on u's cut side, reads and clears the ids there by position, and writes
    ``-1`` into the links of the deleted ids only. Root paths are walked as
    id runs (``path_runs``).
    """

    __slots__ = ("parent", "left", "right", "stub", "node_count",
                 "leaf_count", "walker", "_slots", "_log")
    root = TreeInstance.root

    def __init__(self, walker: Walker):
        size = walker.tree.size
        none = array("i", [-1])
        self.parent = none * size
        self.left = none * size
        self.right = none * size
        self.stub = bytearray(size + 1)
        self.node_count = 1
        self.leaf_count = 1
        self.walker = walker
        self._slots = None
        self._log = array("i", (self.root, self.root))  # runs of new ids

    def add_child(self, parent: int, side: str, child: int):
        # the child is a new leaf; a childless parent stops being one
        if self.left[parent] >= 0 or self.right[parent] >= 0:
            self.leaf_count += 1
        self.node_count += 1
        self.parent[child] = parent
        if side == LEFT:
            self.left[parent] = child
        else:
            self.right[parent] = child
        self._log.extend((child, child))

    def add_chain(self, first: int, last: int, left, right):
        """Add ids first..last below the leaf first - 1, each the only child
        of the id before it; all but the last are unary, and ``left`` and
        ``right`` are the links of first - 1..last - 1."""
        np.frombuffer(self.parent, np.intc)[first:last + 1] = np.arange(
            first - 1, last, dtype=np.intc)
        self.left[first - 1:last] = left
        self.right[first - 1:last] = right
        self.node_count += last + 1 - first  # last takes the leaf's place
        self._log.extend((first, last))

    def path_runs(self, u: int, top=None):
        """The explored path from u up to its ancestor top (the root by
        default) as id runs ``(a, b)``, u's run first: each run is the chain
        a..b (``Walker.run_start``), and each a is a child of the next
        run's b. Raises TreeError for a u the tree does not hold."""
        check_node_id(u, len(self.parent))
        if u != self.root and self.parent[u] < 0:
            raise TreeError("node %d is not explored" % u)
        if top is None:
            top = self.root
        run_start = self.walker.run_start
        parent = self.parent
        runs = []
        v = u
        while v >= top:  # ids fall going up, so the path passes top by
            a = run_start(v, top)
            runs.append((a, v))
            if a == top:
                return runs
            v = parent[a]
        raise TreeError("node %d is not below node %d" % (u, top))

    def _index(self):
        """The values and the slot index, with the log written in."""
        values = np.frombuffer(self.walker.values(), np.intc)
        if self._slots is None:
            self._slots = np.full(len(values), -1, np.intc)
        slots = self._slots
        if self._log:
            runs = np.frombuffer(self._log, np.intc)
            self._log = array("i")
            ids = _run_ids(runs[0::2], runs[1::2])
            slots[values[ids]] = ids
        return values, slots

    def _inorder(self, top: int):
        # Both public rescans call this, never each other, so a profiler
        # that wraps both counts every rescanned id once.
        values, slots = self._index()
        if top != self.root:  # slice between the values of top's lowest
            lo = hi = top     # and highest explored descendants
            while self.left[lo] >= 0:
                lo = self.left[lo]
            while self.right[hi] >= 0:
                hi = self.right[hi]
            slots = slots[values[lo]:values[hi] + 1]
        ids = slots[slots >= 0]
        return ids[~np.frombuffer(self.stub, bool)[ids]]

    def inorder_below(self, top: int):
        """Non-stub ids of top's explored subtree, in inorder (np.intc).
        Raises TreeError for an id the tree does not hold."""
        check_node_id(top, len(self.parent))
        if top != self.root and self.parent[top] < 0:
            raise TreeError("node %d is not explored" % top)
        return self._inorder(top)

    def inorder_nodes_and_leaves(self):
        """Non-stub ids in inorder, plus the subset with no explored children."""
        nodes = self._inorder(self.root)
        left = np.frombuffer(self.left, np.intc)
        right = np.frombuffer(self.right, np.intc)
        return nodes, nodes[(left[nodes] & right[nodes]) < 0]

    def _cut(self, u: int, larger: bool, keep, stubs):
        """Stub ``stubs`` and delete their explored subtrees: every explored
        id valued below u's (``larger``) or above it, but the held ids in
        the int32 array ``keep``."""
        values, slots = self._index()
        kept = values[keep]
        slots[kept] = -1  # out of the cut for the moment
        side = slots[:values[u]] if larger else slots[values[u] + 1:]
        gone = side[side >= 0]
        side.fill(-1)
        slots[kept] = keep
        parent = np.frombuffer(self.parent, np.intc)
        left = np.frombuffer(self.left, np.intc)
        right = np.frombuffer(self.right, np.intc)
        stub = np.frombuffer(self.stub, bool)
        live = gone[~stub[gone]]
        stubs = np.array(stubs, np.intc)
        # stubs from now, non-stub nodes until now; a leaf has no child, so
        # both its links are negative
        self.node_count -= len(live) + len(stubs)
        self.leaf_count -= (np.count_nonzero((left[live] & right[live]) < 0)
                            + np.count_nonzero((left[stubs] & right[stubs])
                                               < 0))
        parent[gone] = left[gone] = right[gone] = -1
        left[stubs] = right[stubs] = -1
        stub[gone] = False
        stub[stubs] = True


def trim(explored: ExploredTree, u: int, answer: str):
    """Prune the explored tree after an oracle answer at u.

    When the target is larger than u, every left child hanging off the
    root-to-u path that is not itself on the path becomes a stub; symmetric
    for a smaller target and right children. A queried node that is a true
    leaf is also stubbed, since its whole subtree is just itself and the
    answer excluded it. Returns the newly created stubs, whose explored
    subtrees go in one deletion: u's cut side bar the path and its children.

    The path is walked as id runs (``ExploredTree.path_runs``). A node of a
    run above its last one has the next id as its only child, or no child
    yet, and both are on the path; so only each run's last node can have a
    new stub, and the kept ids are the runs' aranges plus those nodes'
    children.
    """
    if answer == FOUND:
        raise TreeError("trim is undefined for a found answer")
    take = explored.left if answer == TARGET_LARGER else explored.right
    stub = explored.stub
    runs = explored.path_runs(u)
    kids = [take[b] for _, b in runs]
    # the path's child of a run's last node: u has none, any other has the
    # first node of the run below it
    below = [-1] + [a for a, _ in runs[:-1]]
    new_stubs = [c for c, d in zip(kids, below)
                 if c >= 0 and c != d and not stub[c]]
    if not stub[u] and explored.walker.kind_of(u) == LEAF:
        new_stubs.append(u)
    if new_stubs:
        ends = np.array(runs, np.intc)
        keep = np.concatenate((_run_ids(ends[:, 0], ends[:, 1]),
                               np.array([c for c in kids if c >= 0],
                                        np.intc)))
        explored._cut(u, answer == TARGET_LARGER, keep, new_stubs)
    return new_stubs


def median_node(explored: ExploredTree) -> int:
    """Non-stub node splitting the non-stub inorder as evenly as possible.

    The count difference is at most one whenever achievable; ties break
    toward the inorder-smaller candidate.
    """
    nodes = explored.inorder_below(explored.root)
    if not len(nodes):
        raise TreeError("empty explored tree")
    return int(nodes[(len(nodes) - 1) // 2])


def median_leaf(explored: ExploredTree) -> int:
    """Median over non-stub explored leaves, same tie rule as median_node."""
    leaves = explored.inorder_nodes_and_leaves()[1]
    if not len(leaves):
        raise TreeError("no non-stub leaves to bisect")
    return int(leaves[(len(leaves) - 1) // 2])


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


def dfs_extend(explored: ExploredTree, depth_limit: int) -> int:
    """Grow the explored subtree below the walker to the depth limit by DFS.

    The walk starts where the explored tree's walker stands, its anchor; an
    anchor the tree does not hold, or a stub, raises TreeError before any
    step. Already explored edges are re-walked (each at most twice), stubs
    are never entered, the walk turns back at the depth limit, and the
    walker ends where it started. Returns the count of newly explored
    forks.

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
    the moves, and every counter, are those of one move per edge. Depths
    are ``Walker.depth``; kinds are read through ``Walker.kind_of``, once
    for each node entered, where ``fresh`` marks a newly explored one.
    """
    walker = explored.walker
    anchor = walker.current
    parents = explored.parent
    if anchor != explored.root and parents[anchor] < 0:
        raise TreeError("node %d is not explored" % anchor)
    stub = explored.stub
    if stub[anchor]:
        raise TreeError("node %d is a stub" % anchor)
    lefts = explored.left
    rights = explored.right
    kind_of = walker.kind_of
    move = walker.move
    follow = walker.follow
    climb = walker.climb
    new_forks = 0
    node = anchor
    fresh = False
    anchor_depth = walker.depth
    while True:
        direction = None
        k = kind_of(node)
        if fresh and k == FORK:
            new_forks += 1
        if walker.depth < depth_limit and k != LEAF:
            if k == FORK:
                if not stub[lefts[node]]:
                    direction = DIR_LEFT
                elif not stub[rights[node]]:
                    direction = DIR_RIGHT
            elif not stub[max(lefts[node], rights[node])]:  # one link is -1
                direction = DIR_ONLY
        while direction is None:
            if node != anchor:
                node = climb(walker.depth - anchor_depth)
            if node == anchor:
                return new_forks
            back = node
            node, _ = move(DIR_PARENT)
            if (lefts[node] == back and kind_of(node) == FORK
                    and not stub[rights[node]]):
                direction = DIR_RIGHT
        if direction == DIR_ONLY:
            # the child is no stub, so the cut looks past it
            room = depth_limit - walker.depth
            s = stub.find(1, node + 2, node + room + 1)
            if s >= 0:
                room = s - node - 1
            try:
                end, ls, rs = follow(room)
            except WalkerError:  # node ends its run: one move takes the edge
                pass
            else:
                fresh = parents[end] < 0
                if fresh:
                    new = parents.index(-1, node + 1, end + 1)
                    explored.add_chain(new, end, ls[new - 1 - node:],
                                       rs[new - 1 - node:])
                node = end
                continue
        cid, cside = move(direction)
        fresh = parents[cid] < 0
        if fresh:
            explored.add_child(node, cside, cid)
        node = cid


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
        answer = oracle.query(int(seq[mid]))
        if answer == FOUND:
            return int(seq[mid]), mid
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
    walker = Walker(tree, oracle.on_fork)
    explored = ExploredTree(walker)
    node_cap = params.node_cap
    leaf_cap = params.leaf_budget
    base_calls = oracle.calls
    rounds = []
    found = None
    i = 0
    while True:
        i += 1
        depth_limit = i * params.depth_step
        steps_before = walker.steps
        calls_before = oracle.calls
        new_forks = dfs_extend(explored, depth_limit)
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
        if found is not None or depth_limit >= tree.n:
            break
    if found is None:
        found = final_binary_search(explored, oracle)
    return SearchResult(found, walker.steps, oracle.calls - base_calls,
                        tuple(rounds), params)


def baseline_full(tree, oracle) -> SearchResult:
    """Explore everything first, then bisect once.

    Steps come to exactly twice the edge count.
    """
    walker = Walker(tree, oracle.on_fork)
    explored = ExploredTree(walker)
    base_calls = oracle.calls
    dfs_extend(explored, tree.n)
    target = final_binary_search(explored, oracle)
    return SearchResult(target, walker.steps, oracle.calls - base_calls, ())


def baseline_rounds(tree, oracle) -> SearchResult:
    """Depth-capped rounds with a full bisection per round.

    Round i explores the subtree under the current frontier node down to
    absolute depth i * n / ceil(sqrt(t)), bisects the newly explored nodes to
    isolate the inorder gap holding the target, and descends to the frontier
    node guarding that gap for the next round.
    """
    walker = Walker(tree, oracle.on_fork)
    explored = ExploredTree(walker)
    base_calls = oracle.calls
    chunk = max(1, _ceil_div(tree.n, max(1, _ceil_sqrt(tree.t))))
    rounds = []
    i = 0
    while True:
        i += 1
        depth_limit = min(i * chunk, tree.n)
        steps_before = walker.steps
        calls_before = oracle.calls
        new_forks = dfs_extend(explored, depth_limit)
        cand = explored.inorder_below(walker.current)
        found, gap = _bisect(cand, oracle)
        rounds.append(RoundStats(i, new_forks, oracle.calls - calls_before,
                                 walker.steps - steps_before, depth_limit))
        if found is not None:
            return SearchResult(found, walker.steps, oracle.calls - base_calls,
                                tuple(rounds))
        before = int(cand[gap - 1]) if gap > 0 else None
        after = int(cand[gap]) if gap < len(cand) else None
        _descend(explored, _pick_frontier(explored, before, after))
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


def _descend(explored, dst):
    """Walk the explored tree's walker down the explored path to dst, a
    descendant of the node it stands at: one move into each run
    (``ExploredTree.path_runs``) and one ``Walker.follow`` down it. A dst
    not below the walker raises TreeError before any step."""
    walker = explored.walker
    lefts = explored.left
    for a, b in reversed(explored.path_runs(dst, walker.current)):
        p = walker.current
        if a != p:
            if walker.kind_of(p) == FORK:
                direction = DIR_LEFT if lefts[p] == a else DIR_RIGHT
            else:
                direction = DIR_ONLY
            walker.move(direction)
        if b > a:
            walker.follow(b - a)


ALGORITHMS = {
    "bifurcation": bifurcation_search,
    "full": baseline_full,
    "rounds": baseline_rounds,
}
