"""Search procedures over implicit trees: trimming, halving, staged
bounded-depth exploration, and two baselines, all instrumented.

Each search builds one ExploredTree, which builds its Walker at the root,
wired to the oracle's fork hook; all movement goes through that walker (one
step per edge), and the explored tree holds what it has entered.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

import numpy as np

from .model import (FOUND, LEFT, RIGHT, TARGET_LARGER, TARGET_SMALLER,
                    InconsistentOracleError, TreeError, TreeInstance, Walker,
                    check_node_id)


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

    Two byte arrays indexed by instance id, one slot per id and one
    trailing 0: ``held`` marks the ids the tree holds, root included, and
    ``stub`` flags stubs; so ``held[-1]`` reads not held and ``stub[-1]``
    no stub for a missing child. The tree holds membership only: every
    link it reads, a held id's explored child on a side (``child``, the
    instance's child there if held) or the parent a path climbs to, is the
    instance's link at a held id. Held ids are revealed, and
    ``AdaptiveOracle._freeze`` rewrites only unrevealed forks, so those
    links never change while a search runs. ``walker`` is the tree's own,
    built at the root with ``on_fork``; run starts are read through it
    (``Walker.run_start``), and only ``dfs_extend`` and ``_descend`` move
    it. A stub is a node proven not to hold the target in its subtree;
    stubs stay in place as markers but their explored subtrees are
    deleted. So the walker has revealed the explored ids and the
    subtrees under stubs, which ``dfs_extend`` never enters: there an id
    is new to the walker exactly when it is new to the tree.
    ``node_count`` excludes stubs and is kept current as the tree changes.

    The leaves (non-stub nodes with no explored children) are read off the
    tip list: every id ``add_chain`` made a leaf, appended as it is made. A
    leaf that gains a child, becomes a stub or is deleted stays out for
    good, since ``dfs_extend`` never enters a stub's subtree; so
    ``leaves()`` filters the list in one numpy mask and keeps the result,
    and the list holds the leaves plus the ids added since the last read.

    A node's value is its inorder rank (``Walker.values``). An int32 slot
    index by value holds exactly the explored ids, stubs included, each at
    its own value; the index is allocated on the first rescan or cut, and
    only then are the values read, so exploring alone ranks nothing. The
    constructor logs the root, and ``add_chain`` its new ids, as
    ``(first, last)`` runs; the next rescan or cut writes the log into the
    index. Only ``trim`` deletes ids, through ``_cut``, which writes the
    log in first. A rescan compacts the index, or the value slice under
    ``top``, and drops the stubs. A cut takes the value slice on u's cut
    side, reads and clears the ids there by position, and clears ``held``
    at the deleted ids only. Root paths are walked as id runs
    (``path_runs``).
    """

    __slots__ = ("held", "stub", "node_count", "walker", "_slots", "_log",
                 "_tips")
    root = TreeInstance.root

    def __init__(self, tree: TreeInstance, on_fork=None):
        self.walker = Walker(tree, on_fork)  # before held: a lower peak
        self.held = bytearray(tree.size + 1)
        self.held[self.root] = 1
        self.stub = bytearray(tree.size + 1)
        self.node_count = 1
        self._slots = None
        self._log = array("i", (self.root, self.root))  # runs of new ids
        self._tips = array("i", (self.root,))

    def add_chain(self, first: int, last: int):
        """Add ids first..last, each the only child of the id before it, and
        first a child of a held id: a chain ``Walker.follow`` newly
        revealed, or the one id a move entered."""
        self.held[first:last + 1] = b"\1" * (last + 1 - first)
        self.node_count += last + 1 - first
        self._log.extend((first, last))
        self._tips.append(last)  # a leaf now

    def child(self, v: int, side: str) -> int:
        """The explored child of the held id v on ``side`` (LEFT or RIGHT):
        the instance's child there if the tree holds it, else -1."""
        tree = self.walker.tree
        c = (tree.left if side == LEFT else tree.right)[v]
        return c if self.held[c] else -1

    def leaves(self):
        """The non-stub explored ids with no explored child (np.intc), in
        no set order; the tip list is cut down to them."""
        tips = np.frombuffer(self._tips, np.intc)
        held = np.frombuffer(self.held, bool)
        keep = held[tips] & ~np.frombuffer(self.stub, bool)[tips]
        for links in self.walker.tree.left, self.walker.tree.right:
            kids = np.frombuffer(links, np.intc)[tips]  # ``child``'s rule
            keep &= ~held[kids]
        tips = tips[keep]
        self._tips = array("i", tips.tobytes())
        return tips

    def path_runs(self, u: int, top: int = root):
        """The explored path from u up to its ancestor top (the root by
        default) as id runs ``(a, b)``, u's run first: each run is the chain
        a..b (``Walker.run_start``), and each a is a child of the next
        run's b. Raises TreeError for a u the tree does not hold."""
        self._check_held(u)
        run_start = self.walker.run_start
        parent = self.walker.tree.parent
        runs = []
        v = u
        while v >= top:  # ids fall going up, so the path passes top by
            a = run_start(v, top)
            runs.append((a, v))
            if a == top:
                return runs
            v = parent[a]
        raise TreeError("node %d is not below node %d" % (u, top))

    def _check_held(self, v: int):
        """Refuse an id the tree does not hold, or one past the instance."""
        check_node_id(v, self.walker.tree.size)
        if not self.held[v]:
            raise TreeError("node %d is not explored" % v)

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
            while (c := self.child(lo, LEFT)) >= 0:
                lo = c
            while (c := self.child(hi, RIGHT)) >= 0:
                hi = c
            slots = slots[values[lo]:values[hi] + 1]
        ids = slots[slots >= 0]
        return ids[~np.frombuffer(self.stub, bool)[ids]]

    def inorder_below(self, top: int):
        """Non-stub ids of top's explored subtree, in inorder (np.intc).
        Raises TreeError for an id the tree does not hold."""
        self._check_held(top)
        return self._inorder(top)

    def inorder_nodes_and_leaves(self):
        """Non-stub ids in inorder, plus the subset with no explored
        children, by a rescan. No search calls it: it is the reference the
        tests hold ``leaves()`` to, and a rescan the benchmark's tracer
        counts."""
        nodes = self._inorder(self.root)
        held = np.flatnonzero(np.frombuffer(self.held, bool))
        parents = np.frombuffer(self.walker.tree.parent, np.intc)[held]
        return nodes, nodes[~np.isin(nodes, parents)]  # no held id's parent

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
        stub = np.frombuffer(self.stub, bool)
        live = gone[~stub[gone]]
        stubs = np.array(stubs, np.intc)
        # stubs from now, non-stub nodes until now
        self.node_count -= len(live) + len(stubs)
        # a stub's children are gone too, so it has none left
        np.frombuffer(self.held, bool)[gone] = False
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
    if answer not in (TARGET_LARGER, TARGET_SMALLER):
        raise TreeError("trim needs a direction, got %r" % (answer,))
    side = LEFT if answer == TARGET_LARGER else RIGHT
    stub = explored.stub
    runs = explored.path_runs(u)
    kids = [explored.child(b, side) for _, b in runs]
    # the path's child of a run's last node: u has none, any other has the
    # first node of the run below it
    below = [-1] + [a for a, _ in runs[:-1]]
    new_stubs = [c for c, d in zip(kids, below)
                 if c >= 0 and c != d and not stub[c]]
    tree = explored.walker.tree
    if not stub[u] and tree.left[u] < 0 and tree.right[u] < 0:
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
    """Median over non-stub explored leaves, same tie rule as median_node.

    The leaves come off the tip list, at most t + 1 of them, and are put
    in inorder by their values (``Walker.values``): no rescan.
    """
    leaves = explored.leaves()
    if not len(leaves):
        raise TreeError("no non-stub leaves to bisect")
    values = np.frombuffer(explored.walker.values(), np.intc)
    return int(leaves[np.argsort(values[leaves])[(len(leaves) - 1) // 2]])


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

    No stack is kept. The walk goes down until it reaches the limit or a
    node with no child it may enter: the left child if there is one and it
    is no stub, else the right child if it is no stub. Then it climbs,
    holding the child it came up from (``back``), to the first node it left
    by its left child whose right child is there and no stub, or ends at
    the anchor. Every decision reads the instance's links at the walker's
    node, which is held, so a freeze has settled them: a node is a fork
    when both links are set, and a missing link is -1, for which
    ``stub[-1]`` reads no stub.

    Every edge costs one step, but a unary chain is walked in one call.
    ``Walker.move`` names the id it enters, the child chosen (``child``) or
    the parent. Going down from a unary node to child id + 1, decided
    before any climb, the walk asks ``Walker.follow`` for the depth left,
    cut short of the next stub id; ``follow`` counts the chain's newly
    revealed tail, its unexplored ids. Any other edge down is one move.
    Going up, ``Walker.climb`` takes the walk to the top of its chain, and
    one move over the edge above it. So the moves, and every counter, are
    those of one move per edge. Depths are ``Walker.depth``; ``fresh``
    marks a newly explored node.
    """
    walker = explored.walker
    anchor = walker.current
    explored._check_held(anchor)
    held = explored.held
    stub = explored.stub
    if stub[anchor]:
        raise TreeError("node %d is a stub" % anchor)
    parents = walker.tree.parent  # read at held ids only, where they hold
    lefts = walker.tree.left
    rights = walker.tree.right
    move = walker.move
    follow = walker.follow
    climb = walker.climb
    new_forks = 0
    node = anchor
    fresh = False
    anchor_depth = walker.depth
    while True:
        left = lefts[node]
        right = rights[node]
        if fresh and left >= 0 and right >= 0:
            new_forks += 1
        child = -1  # the child to enter next, -1 for none
        if walker.depth < depth_limit:
            if left >= 0 and not stub[left]:
                child = left
            elif not stub[right]:
                child = right
        run = child == node + 1 and (left < 0 or right < 0)  # before a climb
        while child < 0:
            if node != anchor:
                node = climb(walker.depth - anchor_depth)
            if node == anchor:
                return new_forks
            back = node
            node = parents[node]
            move(node)
            if lefts[node] == back and not stub[rights[node]]:
                child = rights[node]  # -1 at a unary node
        if run:
            # the child is no stub, so the cut looks past it
            room = depth_limit - walker.depth
            s = stub.find(1, node + 2, node + room + 1)
            if s >= 0:
                room = s - node - 1
            end, new = follow(room)
            fresh = new > 0
            if fresh:
                explored.add_chain(end + 1 - new, end)
            node = end
            continue
        move(child)
        fresh = not held[child]
        if fresh:
            explored.add_chain(child, child)
        node = child


# Scales the staged search's node cap against the depth bound.
TRIGGER_FACTOR = 4


def check_psi(psi) -> None:
    """Reject a staged-search call budget below 1; None, which asks for
    the default, passes."""
    if psi is not None and psi < 1:
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
        check_psi(psi)
        if psi is None:
            psi = _ceil_sqrt(t)
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
        elif answer == TARGET_LARGER:
            lo = mid + 1
        else:
            raise InconsistentOracleError("unknown answer %r" % (answer,))
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
    explored = ExploredTree(tree, oracle.on_fork)
    walker = explored.walker
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
            if len(explored.leaves()) > leaf_cap:
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
    explored = ExploredTree(tree, oracle.on_fork)
    walker = explored.walker
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
    explored = ExploredTree(tree, oracle.on_fork)
    walker = explored.walker
    base_calls = oracle.calls
    chunk = _ceil_div(tree.n, max(1, _ceil_sqrt(tree.t)))
    rounds = []
    for i in range(1, tree.n + 4):
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
    return after if explored.child(before, RIGHT) >= 0 else before


def _descend(explored, dst):
    """Walk the explored tree's walker down the explored path to dst, a
    descendant of the node it stands at: one move into each run's head
    (``ExploredTree.path_runs``), named by its id, and one
    ``Walker.follow`` down the run. A dst not below the walker raises
    TreeError before any step."""
    walker = explored.walker
    for a, b in reversed(explored.path_runs(dst, walker.current)):
        if a != walker.current:
            walker.move(a)
        if b > a:
            walker.follow(b - a)


ALGORITHMS = {
    "bifurcation": bifurcation_search,
    "full": baseline_full,
    "rounds": baseline_rounds,
}
