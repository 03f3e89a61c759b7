"""Shared test oracles, implemented independently of the package internals."""

import math
import random
import sys
from array import array

import numpy as np

from bifurcation.generators import gen_comb, gen_random, mix_seed
from bifurcation.lowerbound import (GameRuleError, GameState, GameStep,
                                    Transcript, adversary_answer, query_price)
from bifurcation.model import (FORK, FOUND, LEAF, LEFT, RIGHT, TARGET_LARGER,
                              TARGET_SMALLER, InconsistentOracleError,
                              InfeasibleInstanceError, TreeError,
                              TreeInstance)


# The generator parity grid of (n, t) pairs: n = 1, t = 0, t > n (forks
# hosted on branches once the spine runs out), comb spacing 1
# (t + 1 <= n < 2 * (t + 1)), and infeasible pairs.
GRID = ((1, 0), (1, 1), (1, 4), (2, 0), (2, 1), (2, 3), (3, 2), (4, 4),
        (5, 4), (8, 3), (8, 20), (10, 5), (10, 9), (16, 200), (17, 1),
        (30, 3), (31, 7), (64, 16), (64, 100), (128, 40), (0, 0), (5, -1))


def is_leaf(tree, v):
    return tree.left[v] < 0 and tree.right[v] < 0


def inorder_compare(tree, a, b):
    """Order of a versus b in the inorder traversal: smaller, equal, larger."""
    ranks = tree.inorder_ranks()
    if ranks[a] == ranks[b]:
        return "equal"
    return "smaller" if ranks[a] < ranks[b] else "larger"


def grid_trees(seed):
    """The feasible ``random`` and ``comb`` instances of the parity grid."""
    for gen in (gen_random, gen_comb):
        for n, t in GRID:
            try:
                yield gen(n, t, seed=seed)
            except InfeasibleInstanceError:
                pass


def make_path(sides):
    """A bare path instance; sides[k] in "LR" labels the edge into node k+1."""
    parent = array("i", [-1])
    left = array("i", [-1])
    right = array("i", [-1])
    for k, s in enumerate(sides):
        v = k + 1
        parent.append(k)
        left.append(-1)
        right.append(-1)
        if s == "L":
            left[k] = v
        else:
            right[k] = v
    return TreeInstance(parent, left, right, n=len(sides), t=0)


def slow_inorder(tree):
    """Reference inorder sequence by direct recursion."""
    sys.setrecursionlimit(max(sys.getrecursionlimit(), 4 * tree.size + 100))
    out = []

    def visit(v):
        l = tree.left[v]
        r = tree.right[v]
        if l >= 0:
            visit(l)
        out.append(v)
        if r >= 0:
            visit(r)

    visit(tree.root)
    return out


def reference_inorder(tree):
    """Inorder ranks and sequence by the iterative walk the package used
    before it ranked trees by id runs, as two ``array("i")``."""
    ranks = array("i", bytes(4 * len(tree.parent)))
    order = array("i")
    left = tree.left
    right = tree.right
    stack = []
    cur = tree.root
    while stack or cur >= 0:
        while cur >= 0:
            stack.append(cur)
            cur = left[cur]
        cur = stack.pop()
        ranks[cur] = len(order)
        order.append(cur)
        cur = right[cur]
    return ranks, order


def root_path_edges(label, h):
    """Edges on the root path of a leaf label, as (depth, prefix) pairs."""
    return frozenset((d, label >> (h - d)) for d in range(1, h + 1))


def edge_union(labels, h):
    out = set()
    for q in labels:
        out |= root_path_edges(q, h)
    return out


def target_inside_stub(tree, explored):
    """True when some stub is an ancestor-or-self of the instance target."""
    v = tree.target
    stub = explored.stub
    while v >= 0:
        if stub[v]:
            return True
        v = tree.parent[v]
    return False


def reference_depths(tree, root=0):
    """Depth of every node, by id, counted down the child links from the
    root one node at a time; -1 for a node the root does not reach."""
    depth = [-1] * tree.size
    depth[root] = 0
    stack = [root]
    while stack:
        v = stack.pop()
        for c in (tree.left[v], tree.right[v]):
            if c >= 0:
                depth[c] = depth[v] + 1
                stack.append(c)
    return depth


def nodes_within_depth(tree, limit):
    return sum(1 for d in reference_depths(tree) if d <= limit)


def forks_within_depth(tree, limit):
    depth = reference_depths(tree)
    return sum(1 for v in range(tree.size)
               if depth[v] <= limit
               and tree.left[v] >= 0 and tree.right[v] >= 0)


def preorder_prefix(tree, count):
    """First `count` ids of a left-first preorder walk; downward closed."""
    out = []
    stack = [tree.root]
    while stack and len(out) < count:
        v = stack.pop()
        out.append(v)
        r = tree.right[v]
        l = tree.left[v]
        if r >= 0:
            stack.append(r)
        if l >= 0:
            stack.append(l)
    return out


def brute_minimax(h):
    """Leaf-game value by exhaustive enumeration over every query sequence,
    including wasteful out-of-range and endpoint queries. Prices come from
    explicit root-path edge sets, not from the package's rank arithmetic."""
    size = 1 << h
    edges = [root_path_edges(q, h) for q in range(size)]
    memo = {}

    def solve(queried, x, y):
        if x == y:
            return 0
        key = (queried, x, y)
        if key in memo:
            return memo[key]
        used = set()
        mask = queried
        i = 0
        while mask:
            if mask & 1:
                used |= edges[i]
            mask >>= 1
            i += 1
        best = None
        for q in range(size):
            bit = 1 << q
            if queried & bit:
                continue
            price = len(edges[q] - used)
            if q < x or q > y:
                sub = solve(queried | bit, x, y)
            else:
                a = q - x
                b = y - q
                if a > b:
                    sub = solve(queried | bit, x, q - 1)
                else:
                    sub = solve(queried | bit, q + 1, y)
            total = price + sub
            if best is None or total < best:
                best = total
        memo[key] = best
        return best

    return solve(0, 0, size - 1)


def _rank_vec(a, b):
    v = np.bitwise_xor(a, b)
    return np.frexp(v.astype(np.float64))[1].astype(np.int64)


_BIG = np.int64(1) << 40


def reference_minimax(h):
    """The leaf-game value by the broadcast dynamic program over active
    ranges: one int64 table per range length, the children stacked per
    length and the prices taken from float exponents. Slow but plain."""
    size = 1 << h
    if size == 2:
        return h
    value = {1: np.zeros(size, dtype=np.int64)}
    for length in range(2, size):
        count = size - length + 1
        xs = np.arange(count, dtype=np.int64)
        left_flank = xs - 1
        right_flank = xs + length
        if length == 2:
            offs = np.array([0, 1], dtype=np.int64)
            children = np.zeros((2, count), dtype=np.int64)
        else:
            offs = np.arange(1, length - 1, dtype=np.int64)
            children = np.stack([
                value[d][:count] if d > length - 1 - d
                else value[length - 1 - d][d + 1:d + 1 + count]
                for d in range(1, length - 1)])
        q = offs[:, None] + xs[None, :]
        price = np.minimum(
            np.where(left_flank >= 0,
                     _rank_vec(q, np.maximum(left_flank, 0)[None, :]), _BIG),
            np.where(right_flank < size,
                     _rank_vec(q, np.minimum(right_flank, size - 1)[None, :]),
                     _BIG))
        value[length] = (price + children).min(axis=0)
    best_total = None
    for d in range(1, size - 1):
        a_size = d
        b_size = size - 1 - d
        if a_size > b_size:
            child = int(value[a_size][0])
        else:
            child = int(value[b_size][d + 1])
        total = h + child
        if best_total is None or total < best_total:
            best_total = total
    return best_total


def reference_subtree_spans(tree):
    """Inorder interval [lo, hi] of each subtree, by folding every node into
    its parent, deepest nodes first."""
    ranks = tree.inorder_ranks()
    lo = array("i", ranks)
    hi = array("i", ranks)
    parent = tree.parent
    depth = reference_depths(tree)
    for v in sorted(range(tree.size), key=lambda u: depth[u], reverse=True):
        p = parent[v]
        if p >= 0:
            if lo[v] < lo[p]:
                lo[p] = lo[v]
            if hi[v] > hi[p]:
                hi[p] = hi[v]
    return lo, hi


class ReferenceAdaptiveOracle:
    """Brute-force twin of ``lowerbound.AdaptiveOracle``.

    Candidates are a Python set of inorder ranks, subtrees are found by
    walking the child arrays, and a fork counts as attached when its
    parent chain still reaches the root.
    """

    def __init__(self, tree, fork_budget):
        self.tree = tree
        self.fork_budget = fork_budget
        self.calls = 0
        self.transcript = []
        self.revealed_forks = 0
        self.froze = False
        self.committed = None
        self.ranks = {v: r for r, v in enumerate(slow_inorder(tree))}
        # the walker discloses the package's ranks to the searches, and a
        # tree cut by a freeze can no longer be ranked
        tree.inorder_ranks()
        self.cands = set(range(tree.size))
        self.revealed = set()

    def on_fork(self, node):
        assert not self.froze, "fork %d revealed after the freeze" % node
        self.revealed.add(node)
        self.revealed_forks += 1
        if self.revealed_forks >= self.fork_budget:
            self._freeze()

    def query(self, q):
        self.calls += 1
        r = self.ranks[q]
        if not self.cands:
            raise InconsistentOracleError("no candidates left")
        if self.cands == {r}:
            self.committed = q
            self.transcript.append((q, FOUND))
            return FOUND
        below = {x for x in self.cands if x < r}
        above = {x for x in self.cands if x > r}
        if len(below) > len(above):
            self.cands = below
            answer = TARGET_SMALLER
        else:
            self.cands = above
            answer = TARGET_LARGER
        self.transcript.append((q, answer))
        return answer

    def _subtree_ranks(self, v):
        tree = self.tree
        out = set()
        stack = [v]
        while stack:
            u = stack.pop()
            out.add(self.ranks[u])
            stack.extend(c for c in (tree.left[u], tree.right[u]) if c >= 0)
        return out

    def _attached(self, v):
        tree = self.tree
        while v != tree.root:
            v = tree.parent[v]
            if v < 0:
                return False
        return True

    def _freeze(self):
        self.froze = True
        tree = self.tree
        depth = reference_depths(tree)
        forks = sorted((v for v in range(tree.size)
                        if tree.left[v] >= 0 and tree.right[v] >= 0),
                       key=lambda v: depth[v])
        for f in forks:
            if f in self.revealed or not self._attached(f):
                continue
            lc, rc = tree.left[f], tree.right[f]
            left_ranks = self._subtree_ranks(lc)
            right_ranks = self._subtree_ranks(rc)
            if len(self.cands & left_ranks) >= len(self.cands & right_ranks):
                tree.right[f] = -1
                tree.parent[rc] = -1
                self.cands -= right_ranks
            else:
                tree.left[f] = -1
                tree.parent[lc] = -1
                self.cands -= left_ranks


# Per-node reference generators: one new_node call per node. The package
# builds the same instances path by path and must match them byte for byte.


class _ReferenceBuilder:
    def __init__(self):
        self.parent = array("i")
        self.left = array("i")
        self.right = array("i")
        self.depth = array("i")

    def new_node(self, parent, side):
        v = len(self.parent)
        self.parent.append(-1 if parent is None else parent)
        self.left.append(-1)
        self.right.append(-1)
        if parent is None:
            self.depth.append(0)
        else:
            self.depth.append(self.depth[parent] + 1)
            if side == LEFT:
                self.left[parent] = v
            else:
                self.right[parent] = v
        return v

    def finish(self, n, t):
        return TreeInstance(self.parent, self.left, self.right, n=n, t=t)


def reference_gen_random(n: int, t: int, seed: int = 0) -> TreeInstance:
    """Random instance: a depth-n spine plus t fork branches.

    Forks are attached to unary nodes picked at random; each new branch is a
    path whose length is exponential with mean about 2n/sqrt(t), truncated to
    the depth budget, so richer fork counts carry proportionally more
    exploration mass. Exactly t forks, deterministic per seed.
    """
    if n < 1:
        raise InfeasibleInstanceError("need n >= 1")
    if t < 0:
        raise InfeasibleInstanceError("need t >= 0")
    rng = random.Random(mix_seed(seed, 17))
    b = _ReferenceBuilder()
    b.new_node(None, None)
    cur = 0
    for _ in range(n):
        cur = b.new_node(cur, LEFT if rng.random() < 0.5 else RIGHT)
    hosts = list(range(n))  # spine minus its tip: unary, depth <= n - 1
    lam = max(2.0, 2.0 * n / max(1.0, math.sqrt(t))) if t else 1.0
    placed = 0
    while placed < t:
        if not hosts:
            raise InfeasibleInstanceError(
                "cannot place %d forks within depth %d" % (t, n))
        # a length-1 branch consumes a host without replacing it; grow the
        # pool from the shallowest host when it would otherwise starve
        need_growth = (t - placed) > len(hosts)
        if need_growth:
            idx = min(range(len(hosts)),
                      key=lambda i: (b.depth[hosts[i]], hosts[i]))
            host = hosts[idx]
            room = n - b.depth[host]
            if room < 2:
                raise InfeasibleInstanceError(
                    "cannot place %d forks within depth %d" % (t, n))
            length = room
        else:
            idx = rng.randrange(len(hosts))
            host = hosts[idx]
            room = n - b.depth[host]
            length = 1 + min(int(rng.expovariate(1.0 / lam)), room - 1)
        hosts[idx] = hosts[-1]
        hosts.pop()
        free = RIGHT if b.left[host] >= 0 else LEFT
        cur = host
        for k in range(length):
            side = free if k == 0 else (LEFT if rng.random() < 0.5 else RIGHT)
            cur = b.new_node(cur, side)
            if k < length - 1:
                hosts.append(cur)
        placed += 1
    return b.finish(n, t)


def reference_gen_complete_path(h: int, delta: int) -> TreeInstance:
    """Complete binary tree of height h with every edge stretched into a path
    of delta edges: depth bound h*delta, 2**h - 1 forks, 2**h leaves."""
    if h < 1 or delta < 1:
        raise InfeasibleInstanceError("need h >= 1 and delta >= 1")
    if h > 20:
        raise InfeasibleInstanceError("2**%d leaves is past desk scale" % h)
    total = (2 ** (h + 1) - 1) + (2 ** (h + 1) - 2) * (delta - 1)
    if total > 8_000_000:
        raise InfeasibleInstanceError("instance would have %d nodes" % total)
    b = _ReferenceBuilder()
    root = b.new_node(None, None)
    stack = [(root, 0)]
    while stack:
        node, level = stack.pop()
        if level == h:
            continue
        for side in (LEFT, RIGHT):
            cur = node
            for _ in range(delta):
                cur = b.new_node(cur, side)
            stack.append((cur, level + 1))
    return b.finish(h * delta, 2 ** h - 1)


def reference_gen_comb(n: int, t: int, seed: int = 0) -> TreeInstance:
    """Spine of length n with t evenly spaced forks, each sprouting a path
    that reaches depth n."""
    if n < 1 or t < 0:
        raise InfeasibleInstanceError("need n >= 1 and t >= 0")
    spacing = n // (t + 1) if t else n
    if t and spacing < 1:
        raise InfeasibleInstanceError(
            "no room for %d forks on a spine of length %d" % (t, n))
    rng = random.Random(mix_seed(seed, 23))
    b = _ReferenceBuilder()
    b.new_node(None, None)
    spine = [0]
    cur = 0
    for _ in range(n):
        cur = b.new_node(cur, LEFT if rng.random() < 0.5 else RIGHT)
        spine.append(cur)
    for j in range(t):
        host = spine[(j + 1) * spacing]
        free = RIGHT if b.left[host] >= 0 else LEFT
        cur = host
        for k in range(n - b.depth[host]):
            side = free if k == 0 else (LEFT if rng.random() < 0.5 else RIGHT)
            cur = b.new_node(cur, side)
    return b.finish(n, t)


def reference_place_target(tree, strategy, seed=0):
    """``generators.place_target`` with its per-node loops: the leaf list
    and the inorder-last deepest leaf are found by scanning every node."""
    if strategy.startswith("fixed:"):
        k = int(strategy.split(":", 1)[1])
        order = reference_inorder(tree)[1]
        if not 0 <= k < len(order):
            raise InfeasibleInstanceError("fixed target %d out of range" % k)
        return order[k]
    rng = random.Random(mix_seed(seed, 31))
    if strategy == "random_node":
        return rng.randrange(tree.size)
    if strategy == "random_leaf":
        leaves = [v for v in range(tree.size) if is_leaf(tree, v)]
        return rng.choice(leaves)
    if strategy == "adversarial_deep":
        ranks = reference_inorder(tree)[0]
        depth = reference_depths(tree)
        best = tree.root
        best_key = (-1, -1)
        for v in range(tree.size):
            if is_leaf(tree, v):
                key = (depth[v], ranks[v])
                if key > best_key:
                    best_key = key
                    best = v
        return best
    raise ValueError("unknown target strategy %r" % (strategy,))


def explored_ids(explored):
    """Ids of an ExploredTree's explored nodes, stubs included, in id order:
    the ids ``held`` marks."""
    return [v for v, h in enumerate(explored.held) if h]


def explored_kinds(explored):
    """Kind of every explored id from the instance, ``None`` for any other
    id, as a list indexed by id."""
    tree = explored.walker.tree
    kinds = [None] * tree.size
    for v in explored_ids(explored):
        kinds[v] = tree.kind(v)
    return kinds


def path_to_root(explored, u):
    """Ids from u up to the root of an ExploredTree, inclusive, walked node
    by node through the instance's parent links."""
    path = [u]
    parent = explored.walker.tree.parent
    p = parent[u]
    while p >= 0:
        path.append(p)
        p = parent[p]
    return path


def reference_dfs_extend(explored, depth_limit):
    """The single-move ``dfs_extend`` that walked one edge per
    ``Walker.move`` call, kept to check the run-walking one against. It
    counts depths itself, from ``path_to_root``, not ``Walker.depth``.

    Grow the explored subtree below the walker to the depth limit by
    walking DFS.

    The walk starts where the explored tree's walker stands, its anchor; an
    anchor the tree does not hold raises TreeError before any step. Already
    explored edges are re-walked (each at most twice), stubs are never
    entered, the walk turns back at the depth limit, and the walker ends
    where it started. Returns the count of newly explored forks.

    No stack is kept. The walk goes down, into the left child first, until
    it reaches the limit or a node with no child it may enter; then it
    climbs, holding the child it came up from (``back``), to the first fork
    it left by its left child and whose right child is no stub, or ends at
    the anchor.
    """
    walker = explored.walker
    anchor = walker.current
    if not explored.held[anchor]:
        raise TreeError("node %d is not explored" % anchor)
    stub = explored.stub
    child = explored.child
    parents = walker.tree.parent
    lefts = walker.tree.left
    rights = walker.tree.right
    kind_of = walker.kind_of
    move = walker.move
    new_forks = 0
    node = anchor
    depth = len(path_to_root(explored, anchor)) - 1
    while True:
        cid = -1  # the instance child to enter, -1 for none
        k = kind_of(node)
        if depth < depth_limit and k != LEAF:
            c = child(node, LEFT)
            if k == FORK:
                if c < 0 or not stub[c]:
                    cid = lefts[node]
                else:
                    c = child(node, RIGHT)
                    if c < 0 or not stub[c]:
                        cid = rights[node]
            else:
                if c < 0:
                    c = child(node, RIGHT)
                if c < 0 or not stub[c]:
                    cid = max(lefts[node], rights[node])  # the other is -1
        while cid < 0:
            if node == anchor:
                return new_forks
            back = node
            node = parents[node]
            move(node)
            depth -= 1
            if child(node, LEFT) == back and kind_of(node) == FORK:
                c = child(node, RIGHT)
                if c < 0 or not stub[c]:
                    cid = rights[node]
        move(cid)
        if not explored.held[cid]:
            explored.add_chain(cid, cid)
            if kind_of(cid) == FORK:
                new_forks += 1
        node = cid
        depth += 1


def _allowed_queries(state):
    if state.active_size == 2:
        return [state.x, state.y]
    return list(range(state.x + 1, state.y))


def _validate_move(state, q):
    if q in state.queried:
        raise GameRuleError("repeated query %d" % q)
    if state.active_size > 2:
        if not state.x < q < state.y:
            raise GameRuleError("query %d outside the open active range" % q)
    elif q not in (state.x, state.y):
        raise GameRuleError("query %d outside the active pair" % q)


def reference_play_game(strategy, h, seed=0):
    """The ``play_game`` that listed every allowed query at every step and
    priced greedy candidates against the whole query history, kept to check
    the drawing and flank-pricing one against.

    Run a query strategy against the adversary until the target label is
    isolated.

    Players query strictly inside the active range while it has more than two
    labels, and an endpoint once two remain.
    """
    state = GameState(h)
    rng = random.Random(seed)
    steps = []
    while not state.over():
        if strategy == "balanced_bisect":
            q = (state.x + state.y) // 2
        elif strategy == "greedy_cheapest":
            q = min(_allowed_queries(state),
                    key=lambda c: (query_price(c, state.queried, h), c))
        elif strategy == "random":
            q = rng.choice(_allowed_queries(state))
        else:
            raise GameRuleError("unknown strategy %r" % (strategy,))
        _validate_move(state, q)
        answer, price, discarded = adversary_answer(state, q)
        steps.append(GameStep(len(steps) + 1, q, price, answer,
                              state.x, state.y, discarded))
    return Transcript(h, strategy, tuple(steps), state.total_price)


def reference_explored_inorder(explored, top):
    """The stack walk ``ExploredTree._inorder`` made before explored trees
    were rescanned by value: non-stub ids of top's explored subtree, in
    inorder, as a list."""
    nodes = []
    child = explored.child
    stub = explored.stub
    stack = []
    cur = top
    while True:
        while cur >= 0:
            stack.append(cur)
            cur = child(cur, LEFT)
        if not stack:
            return nodes
        cur = stack.pop()
        if not stub[cur]:
            nodes.append(cur)
        cur = child(cur, RIGHT)


def reference_nodes_and_leaves(explored):
    """Non-stub ids in inorder, plus the subset with no explored children."""
    nodes = reference_explored_inorder(explored, explored.root)
    child = explored.child
    return nodes, [v for v in nodes
                   if child(v, LEFT) < 0 and child(v, RIGHT) < 0]


def assert_counts_match_rescan(explored):
    """The explored tree's node count and ``leaves()`` equal a rescan's,
    and it has at most one leaf more than its explored non-stub forks.
    Every held id but the root has its instance parent held and no stub:
    the rule the explored children are derived by."""
    held = explored_ids(explored)
    tree_parent = explored.walker.tree.parent
    for v in held:
        if v != explored.root:
            p = tree_parent[v]
            assert explored.held[p]
            assert not explored.stub[p]
    nodes, leaves = explored.inorder_nodes_and_leaves()
    tips = explored.leaves()
    assert explored.node_count == len(nodes)
    assert sorted(tips.tolist()) == sorted(leaves.tolist())
    kind = explored.walker.tree.kind
    forks = sum(kind(v) == FORK for v in held if not explored.stub[v])
    assert len(tips) <= forks + 1


def reference_mark_stub(explored, v):
    """The per-node deletion ``ExploredTree.mark_stub`` made before trims
    were one masked pass. Stub v and delete its explored subtree; a stub
    stays as it is. Tests stub nodes directly through it. The tree's slot
    index holds exactly its explored ids, so it is written in first and
    the deleted ids' slots are cleared. Only ``node_count`` is kept by
    hand: the leaves and the children are read off ``held``
    (``ExploredTree.leaves`` and ``ExploredTree.child``), so clearing the
    deleted ids' marks takes them out as children too."""
    values, slots = explored._index()
    held = explored.held
    child = explored.child
    stub = explored.stub
    nodes = 0  # non-stub nodes taken out of view
    stack = [v]
    while stack:
        w = stack.pop()
        stack.extend(c for c in (child(w, LEFT), child(w, RIGHT)) if c >= 0)
        if not stub[w]:
            nodes += 1
        if w != v:
            held[w] = 0
            stub[w] = 0
            slots[values[w]] = -1
    stub[v] = 1
    explored.node_count -= nodes


def reference_trim(explored, u, answer):
    """The ``trim`` that stubbed one path child at a time.

    When the target is larger than u, every left child hanging off the
    root-to-u path that is not itself on the path becomes a stub; symmetric
    for a smaller target and right children. A queried node that is a true
    leaf is also stubbed, since its whole subtree is just itself and the
    answer excluded it. Returns the newly created stubs.
    """
    if answer == FOUND:
        raise TreeError("trim is undefined for a found answer")
    side = LEFT if answer == TARGET_LARGER else RIGHT
    stub = explored.stub
    new_stubs = []
    below = -1  # the path's child of v, the one child of v on the path
    for v in path_to_root(explored, u):
        c = explored.child(v, side)
        if c >= 0 and c != below and not stub[c]:
            reference_mark_stub(explored, c)
            new_stubs.append(c)
        below = v
    if explored.walker.kind_of(u) == LEAF and not stub[u]:
        reference_mark_stub(explored, u)
        new_stubs.append(u)
    return new_stubs
