import math
import random

import pytest

from bifurcation import algorithms, lowerbound
from bifurcation.algorithms import (ALGORITHMS, TRIGGER_FACTOR, ExploredTree,
                                    SearchParams, _descend, _pick_frontier,
                                    baseline_full, baseline_rounds,
                                    bifurcation_search, dfs_extend,
                                    final_binary_search, halve, median_leaf,
                                    median_node, trim)
from bifurcation.generators import (FamilySpec, build_instance, gen_comb,
                                    gen_complete_path, gen_random,
                                    place_target)
from bifurcation.lowerbound import AdaptiveOracle, adaptive_fork_adversary
from bifurcation.model import (DIR_LEFT, DIR_ONLY, DIR_PARENT, DIR_RIGHT,
                               FORK, FOUND, TARGET_LARGER, TARGET_SMALLER,
                               InconsistentOracleError, InstrumentedOracle,
                               NodeIdError, TreeError, Walker)

from helpers import (child_side, explored_ids, forks_within_depth, grid_trees,
                     is_leaf, make_path, nodes_within_depth, path_to_root,
                     preorder_prefix, reference_mark_stub, slow_inorder,
                     target_inside_stub)


def explore_fully(tree, walker=None):
    walker = walker or Walker(tree)
    explored = ExploredTree(walker)
    dfs_extend(explored, tree.n)
    return explored, walker


def explored_from_prefix(tree, count):
    """Explored tree over the first `count` preorder ids, bypassing a walker's
    moves; the ids are marked revealed, so the walker reports their kinds."""
    ids = preorder_prefix(tree, count)
    walker = Walker(tree)
    explored = ExploredTree(walker)
    for v in ids[1:]:
        walker.revealed[v] = 1
        explored.add_child(tree.parent[v], child_side(tree, v), v)
    return explored


# ------------------------------------------------------- maintained counts


def _assert_counts_match_rescan(explored):
    nodes, leaves = explored.inorder_nodes_and_leaves()
    assert explored.node_count == len(nodes)
    assert explored.leaf_count == len(leaves)


def test_maintained_counts_match_rescan():
    rng = random.Random(21)
    for i in range(150):
        tree = gen_random(4 + rng.randrange(60), rng.randrange(12), seed=i)
        tree.target = place_target(tree, "random_node", seed=i)
        # children added in any order, right before left included
        grown = ExploredTree(Walker(tree))
        _assert_counts_match_rescan(grown)
        for _ in range(40):
            kids = [c for v in explored_ids(grown)
                    for c in (tree.left[v], tree.right[v])
                    if c >= 0 and grown.parent[c] < 0]
            if not kids:
                break
            c = rng.choice(kids)
            grown.add_child(tree.parent[c], child_side(tree, c), c)
            _assert_counts_match_rescan(grown)
        # staged exploration, trims and direct stubs
        walker = Walker(tree)
        explored = ExploredTree(walker)
        oracle = InstrumentedOracle(tree)
        step = 1 + rng.randrange(tree.n)
        for limit in range(step, tree.n + step, step):
            dfs_extend(explored, limit)
            _assert_counts_match_rescan(explored)
            u = rng.choice(explored.inorder_below(explored.root))
            answer = oracle.query(u)
            if answer != FOUND:
                trim(explored, u, answer)
                _assert_counts_match_rescan(explored)
            # a direct stub, possibly over stubs, then the same stub again
            v = rng.choice(explored_ids(explored))
            if v == explored.root:
                continue
            reference_mark_stub(explored, v)
            _assert_counts_match_rescan(explored)
            counts = (explored.node_count, explored.leaf_count)
            reference_mark_stub(explored, v)
            assert (explored.node_count, explored.leaf_count) == counts
            _assert_counts_match_rescan(explored)


# ---------------------------------------------------------------- trim


def test_trim_forkless_path_makes_no_stubs():
    tree = make_path("RRRR")
    explored, _ = explore_fully(tree)
    new = trim(explored, 2, TARGET_LARGER)
    # nothing hangs off the path going left, and node 2 is not a leaf
    assert new == []
    assert not any(explored.stub)


def test_trim_single_fork_at_root():
    tree = gen_complete_path(1, 1)
    explored, _ = explore_fully(tree)
    right = tree.right[tree.root]
    left = tree.left[tree.root]
    new = trim(explored, right, TARGET_LARGER)
    assert left in new
    assert explored.stub[left]


def test_trim_removes_stub_children_from_view():
    tree = gen_complete_path(2, 2)
    explored, _ = explore_fully(tree)
    before = explored.node_count
    new = trim(explored, tree.right[tree.root], TARGET_LARGER)
    assert explored.node_count < before
    for s in new:
        assert explored.parent[s] >= 0  # the marker itself stays
        assert explored.left[s] < 0 and explored.right[s] < 0


def test_inorder_below_refuses_ids_the_tree_does_not_hold():
    tree = gen_complete_path(3, 2)
    explored = ExploredTree(Walker(tree))
    dfs_extend(explored, 4)
    stubs = trim(explored, tree.left[tree.root], TARGET_LARGER)
    assert stubs
    held = explored_ids(explored)
    for v in held:  # stubs are members
        assert explored.inorder_below(v).tolist() == [
            w for w in slow_inorder(tree)
            if w in held and not explored.stub[w]
            and v in path_to_root(explored, w)]
    for v in (-1, tree.size, tree.size + 2):
        with pytest.raises(NodeIdError):
            explored.inorder_below(v)
    gone = [v for v in range(tree.size) if v not in held]
    assert gone
    for v in gone:  # never explored, or deleted by the trim
        with pytest.raises(TreeError, match="not explored"):
            explored.inorder_below(v)


def test_trim_found_is_a_contract_violation():
    tree = make_path("L")
    explored, _ = explore_fully(tree)
    with pytest.raises(TreeError):
        trim(explored, 0, FOUND)


def test_trim_never_stubs_the_target_region():
    rng = random.Random(0)
    for i in range(500):
        tree = gen_random(6 + rng.randrange(40), rng.randrange(8), seed=i)
        tree.target = place_target(tree, "random_node", seed=i)
        explored, _ = explore_fully(tree)
        oracle = InstrumentedOracle(tree)
        u = rng.randrange(tree.size)
        answer = oracle.query(u)
        if answer == FOUND:
            continue
        trim(explored, u, answer)
        assert not target_inside_stub(tree, explored)


# ---------------------------------------------------------------- median


def test_median_single_node():
    tree = make_path("")
    explored = ExploredTree(Walker(tree))
    assert median_node(explored) == tree.root


def test_median_all_left_path():
    tree = make_path("LLLLLL")  # 7 nodes, inorder is deepest first
    explored, _ = explore_fully(tree)
    order = slow_inorder(tree)
    u = median_node(explored)
    assert u == order[3]
    smaller = sum(1 for v in order[:order.index(u)])
    assert smaller == 3


def test_median_balance_random():
    rng = random.Random(1)
    for i in range(200):
        tree = gen_random(8 + rng.randrange(30), rng.randrange(10), seed=i)
        explored, _ = explore_fully(tree)
        u = median_node(explored)
        order = slow_inorder(tree)
        pos = order.index(u)
        assert abs(pos - (len(order) - 1 - pos)) <= 1


def test_median_tie_breaks_inorder_smaller():
    tree = make_path("RRRR")  # all-right path: inorder equals id order
    explored, _ = explore_fully(tree)
    order = slow_inorder(tree)
    # stub the inorder-last leaf to force an even candidate count
    reference_mark_stub(explored, order[-1])
    remaining = [v for v in order if not explored.stub[v]]
    assert len(remaining) == 4
    # both middles split 1-vs-2; the inorder-smaller one wins the tie
    assert median_node(explored) == remaining[1]


# ---------------------------------------------------------------- halve


def test_halve_at_trigger_respects_size_bound():
    # trees grown to exactly alpha*n nodes land under 1 + (alpha/2 + 1) * n
    checked = 0
    seed = 0
    while checked < 60:
        seed += 1
        n = 8 + seed % 16
        tree = gen_random(n, n, seed=seed)
        if tree.size < 4 * n:
            continue
        tree.target = place_target(tree, "random_node", seed)
        explored = explored_from_prefix(tree, 4 * n)
        oracle = InstrumentedOracle(tree)
        answer, _, _ = halve(explored, oracle)
        if answer == FOUND:
            continue
        assert explored.node_count <= 1 + 3 * n
        checked += 1


def test_halve_m100_alpha4_n20_bound_61():
    seed = 0
    checked = 0
    while checked < 10:
        seed += 1
        tree = gen_random(20, 24, seed=seed)
        if tree.size < 100:
            continue
        tree.target = place_target(tree, "random_node", seed)
        explored = explored_from_prefix(tree, 100)
        assert explored.node_count == 100
        oracle = InstrumentedOracle(tree)
        answer, _, _ = halve(explored, oracle)
        if answer == FOUND:
            continue
        assert explored.node_count <= 61
        checked += 1


def test_halve_on_bare_path_is_vacuous():
    tree = make_path("RRRRR")
    tree.target = 0
    explored, _ = explore_fully(tree)
    oracle = InstrumentedOracle(tree)
    answer, u, _ = halve(explored, oracle)
    assert answer in (FOUND, TARGET_SMALLER, TARGET_LARGER)
    assert explored.node_count <= 1 + 3 * tree.n


def test_halve_leaf_mode_halves_leaves():
    tree = gen_complete_path(3, 2)
    tree.target = place_target(tree, "adversarial_deep")
    explored, _ = explore_fully(tree)
    oracle = InstrumentedOracle(tree)
    leaves_before = len(explored.inorder_nodes_and_leaves()[1])
    answer, u, _ = halve(explored, oracle, median_leaf)
    assert is_leaf(tree, u)
    if answer != FOUND:
        leaves_after = len(explored.inorder_nodes_and_leaves()[1])
        assert leaves_after <= (leaves_before + 1) // 2 + 1


# ---------------------------------------------------------------- dfs_extend


def test_dfs_extend_full_depth_covers_instance():
    tree = gen_random(20, 5, seed=3)
    walker = Walker(tree)
    explored = ExploredTree(walker)
    dfs_extend(explored, tree.n)
    assert explored.node_count == tree.size
    assert walker.steps == 2 * (tree.size - 1)
    assert walker.current == tree.root


def test_dfs_extend_never_enters_stubs():
    tree = gen_complete_path(2, 3)
    walker = Walker(tree)
    explored = ExploredTree(walker)
    dfs_extend(explored, 3)  # just past the first fork
    root_fork = tree.root
    left = explored.left[root_fork]
    reference_mark_stub(explored, left)
    steps_before = walker.steps
    dfs_extend(explored, tree.n)
    # the stubbed side contributes no nodes and no walking
    for v in explored_ids(explored):
        assert not _under(tree, v, left) or v == left
    assert walker.steps > steps_before


def _under(tree, v, top):
    while v >= 0:
        if v == top:
            return True
        v = tree.parent[v]
    return False


def test_dfs_extend_stage_counts_match_instance():
    tree = gen_complete_path(3, 4)
    walker = Walker(tree)
    explored = ExploredTree(walker)
    prev_nodes = 1
    prev_forks = 1  # the root fork is revealed on arrival
    for i in (1, 2, 3):
        limit = 4 * i
        new_forks = dfs_extend(explored, limit)
        want_nodes = nodes_within_depth(tree, limit)
        want_new_forks = forks_within_depth(tree, limit) - prev_forks
        assert explored.node_count == want_nodes
        assert new_forks == want_new_forks
        prev_forks += new_forks
        # every edge within the limit is walked down and up once per stage
        assert walker.steps == sum(
            2 * (nodes_within_depth(tree, 4 * j) - 1) for j in range(1, i + 1))
        prev_nodes = want_nodes
    assert prev_nodes == tree.size


def _reach(tree, depth, explored, anchor, limit):
    """Non-anchor nodes under anchor at depth <= limit with no stub between
    anchor (exclusive) and themselves (inclusive), read off the instance
    and its ``depths()``."""
    out = []
    stack = [anchor]
    while stack:
        v = stack.pop()
        for c in (tree.left[v], tree.right[v]):
            if c >= 0 and depth[c] <= limit and not explored.stub[c]:
                out.append(c)
                stack.append(c)
    return out


def _stub_shapes(tree, depth, explored, anchor, limit):
    """Which stub layouts the walk from anchor meets above the limit."""
    shapes = set()
    for v in [anchor] + _reach(tree, depth, explored, anchor, limit):
        if depth[v] >= limit:
            continue
        kids = [c for c in (tree.left[v], tree.right[v]) if c >= 0]
        stubbed = [bool(explored.stub[c]) for c in kids]
        if stubbed == [True, False]:
            shapes.add("left stub")
        elif stubbed == [True, True]:
            shapes.add("both stubs")
        elif stubbed == [True]:
            shapes.add("only child stub")
    return shapes


def test_dfs_extend_walks_twice_the_reachable_region():
    rng = random.Random(8)
    trees = list(grid_trees(seed=3)) + [gen_complete_path(3, 2)]
    seen = set()
    for i, tree in enumerate(trees * 4):
        depth = tree.depths()
        walker = Walker(tree)
        if i % 2:
            # reveal a few nodes the explored tree will not know about
            for _ in range(rng.randrange(1, tree.n + 1)):
                if is_leaf(tree, walker.current):
                    break
                walker.move(DIR_ONLY if tree.kind(walker.current) != FORK
                            else rng.choice((DIR_LEFT, DIR_RIGHT)))
            while walker.current != tree.root:
                walker.move(DIR_PARENT)
        explored = ExploredTree(walker)
        step = 1 + rng.randrange(max(1, tree.n // 2))
        limits = [step, 2 * step, step // 2, tree.n, tree.n]
        for limit in limits:
            anchor = rng.choice(explored.inorder_below(tree.root))
            _descend(explored, anchor)
            if anchor != tree.root:
                seen.add("non-root anchor")
            seen |= _stub_shapes(tree, depth, explored, anchor, limit)
            before = set(explored_ids(explored))
            reach = _reach(tree, depth, explored, anchor, limit)
            steps = walker.steps
            new_forks = dfs_extend(explored, limit)
            assert walker.steps - steps == 2 * len(reach)
            assert set(explored_ids(explored)) == before | set(reach)
            assert new_forks == sum(1 for v in reach if v not in before
                                    and tree.kind(v) == FORK)
            assert walker.current == anchor
            _assert_counts_match_rescan(explored)
            while walker.current != tree.root:
                walker.move(DIR_PARENT)
            for _ in range(rng.randrange(3)):
                v = rng.choice(explored_ids(explored))
                if v != tree.root:
                    reference_mark_stub(explored, v)
    assert seen == {"non-root anchor", "left stub", "both stubs",
                    "only child stub"}


# ------------------------------------------------------- final_binary_search


def test_final_search_single_candidate():
    tree = make_path("")
    tree.target = 0
    explored = ExploredTree(Walker(tree))
    oracle = InstrumentedOracle(tree)
    assert final_binary_search(explored, oracle) == 0
    assert oracle.calls == 1


def test_final_search_call_bound_eight_path():
    tree = make_path("RRRRRRR")  # 8 nodes, inorder = id order
    tree.target = slow_inorder(tree)[4]
    explored, _ = explore_fully(tree)
    oracle = InstrumentedOracle(tree)
    assert final_binary_search(explored, oracle) == tree.target
    assert oracle.calls <= 4


def test_final_search_random_bound():
    rng = random.Random(5)
    for i in range(500):
        tree = gen_random(4 + rng.randrange(30), rng.randrange(6), seed=i)
        tree.target = place_target(tree, "random_node", seed=2 * i + 1)
        explored, _ = explore_fully(tree)
        oracle = InstrumentedOracle(tree)
        found = final_binary_search(explored, oracle)
        assert found == tree.target
        assert oracle.calls <= math.ceil(math.log2(tree.size)) + 1


class _AlwaysLarger:
    """An oracle that places the target past every node it is asked about."""

    def query(self, q):
        return TARGET_LARGER


def test_final_search_refuses_an_oracle_that_rules_out_everything():
    # final_binary_search's InconsistentOracleError once no candidate is left
    explored, _ = explore_fully(make_path("RRR"))
    with pytest.raises(InconsistentOracleError,
                       match="binary search exhausted its candidates"):
        final_binary_search(explored, _AlwaysLarger())


# ------------------------------------------------------- bifurcation_search


def test_bifurcation_on_path_uses_log_calls():
    tree = gen_random(128, 0, seed=1)
    tree.target = place_target(tree, "random_node", 9)
    oracle = InstrumentedOracle(tree)
    result = bifurcation_search(tree, oracle, psi=1)
    assert result.found == tree.target
    assert result.oracle_calls <= 2 * math.log2(tree.n)


def test_bifurcation_target_at_root():
    tree = gen_random(40, 6, seed=2)
    tree.target = tree.root
    oracle = InstrumentedOracle(tree)
    result = bifurcation_search(tree, oracle)
    assert result.found == tree.root


def test_bifurcation_round_budgets_hold():
    rng = random.Random(6)
    for i in range(40):
        n = 32 + rng.randrange(200)
        t = 3 + rng.randrange(24)
        tree = gen_random(n, t, seed=i)
        tree.target = place_target(tree, "random_node", seed=i)
        oracle = InstrumentedOracle(tree)
        result = bifurcation_search(tree, oracle)
        assert result.found == tree.target
        params = result.params
        node_cap = params.node_cap
        # drive the round machinery in slow motion and check the budgets
        walker = Walker(tree)
        explored = ExploredTree(walker)
        oracle2 = InstrumentedOracle(tree)
        found_early = False
        for rs in result.rounds:
            dfs_extend(explored, rs.depth_limit)
            for _ in range(200):
                nodes, leaves = explored.inorder_nodes_and_leaves()
                if len(leaves) > params.leaf_budget:
                    median = median_leaf
                elif len(nodes) > node_cap:
                    median = median_node
                else:
                    break
                answer, _, _ = halve(explored, oracle2, median)
                if answer == FOUND:
                    found_early = True
                    break
            if found_early:
                break
            nodes, leaves = explored.inorder_nodes_and_leaves()
            assert len(nodes) <= node_cap
            assert len(leaves) <= params.leaf_budget


def test_bifurcation_extreme_psi_still_terminates():
    tree = gen_random(50, 9, seed=13)
    tree.target = place_target(tree, "adversarial_deep")
    for psi in (1, 2, 9, 50):
        oracle = InstrumentedOracle(tree)
        result = bifurcation_search(tree, oracle, psi=psi)
        assert result.found == tree.target
        assert result.params.psi == min(psi, tree.t)


def test_search_params_reject_psi_below_one():
    tree = gen_random(50, 9, seed=13)
    for psi in (0, -5):
        with pytest.raises(TreeError, match="psi"):
            SearchParams.for_instance(tree, psi=psi)
        with pytest.raises(TreeError, match="psi"):
            bifurcation_search(tree, InstrumentedOracle(tree), psi=psi)
    # the budgets are derived from psi, never handed in
    with pytest.raises(TypeError):
        bifurcation_search(tree, InstrumentedOracle(tree),
                           params=SearchParams.for_instance(tree))


@pytest.mark.parametrize("gen", [gen_random, gen_comb])
def test_search_params_node_cap(gen):
    tree = gen(200, 12, seed=7)
    params = SearchParams.for_instance(tree)
    assert params.node_cap == max(params.leaf_budget * params.depth_step,
                                  TRIGGER_FACTOR * tree.n + 2)


def test_bifurcation_round_stats_accounting():
    tree = gen_random(200, 12, seed=7)
    tree.target = place_target(tree, "adversarial_deep")
    oracle = InstrumentedOracle(tree)
    result = bifurcation_search(tree, oracle)
    assert sum(r.new_forks for r in result.rounds) <= tree.t
    assert sum(r.steps for r in result.rounds) == result.steps
    assert result.rounds[-1].depth_limit >= tree.n
    for i, rs in enumerate(result.rounds, 1):
        assert rs.index == i
        assert rs.depth_limit == i * result.params.depth_step


# ------------------------------------------------------------- baselines


def test_full_path_steps():
    tree = gen_random(7, 0, seed=0)
    tree.target = place_target(tree, "random_node", 1)
    oracle = InstrumentedOracle(tree)
    result = baseline_full(tree, oracle)
    assert result.steps == 14
    assert result.found == tree.target


def test_full_complete_path_step_count():
    tree = gen_complete_path(3, 4)
    tree.target = place_target(tree, "random_node", 4)
    oracle = InstrumentedOracle(tree)
    result = baseline_full(tree, oracle)
    assert result.steps == 2 * (tree.size - 1)
    assert result.oracle_calls <= math.ceil(math.log2(tree.size)) + 1


def test_rounds_single_fork_two_rounds():
    tree = gen_random(32, 1, seed=9)
    tree.target = place_target(tree, "adversarial_deep")
    oracle = InstrumentedOracle(tree)
    result = baseline_rounds(tree, oracle)
    assert result.found == tree.target
    assert len(result.rounds) <= 2


def test_pick_frontier_returns_the_deeper_neighbour():
    # inorder neighbours are ancestor-related; the gap hangs under the deeper
    trees = [gen_random(48, 6, seed=s) for s in range(4)]
    trees += [gen_comb(40, 5, seed=s) for s in range(2)]
    trees += [gen_complete_path(3, 3), gen_complete_path(4, 2)]
    checked = 0
    for tree in trees:
        depth = tree.depths()
        for depth_limit in (tree.n // 3, tree.n):
            walker = Walker(tree)
            explored = ExploredTree(walker)
            dfs_extend(explored, depth_limit)
            for v in explored_ids(explored)[::5]:
                cand = explored.inorder_below(v)
                assert _pick_frontier(explored, None, cand[0]) == cand[0]
                assert _pick_frontier(explored, cand[-1], None) == cand[-1]
                for before, after in zip(cand, cand[1:]):
                    deeper = max(before, after, key=lambda u: depth[u])
                    assert _pick_frontier(explored, before, after) == deeper
                    checked += 1
    assert checked > 1000


def test_all_algorithms_find_random_targets():
    rng = random.Random(11)
    for i in range(120):
        n = 4 + rng.randrange(120)
        t = rng.randrange(16)
        strategy = ("random_node", "random_leaf", "adversarial_deep",
                    "fixed:0")[i % 4]
        tree = gen_random(n, t, seed=i)
        tree.target = place_target(tree, strategy, seed=i)
        for name, fn in ALGORITHMS.items():
            oracle = InstrumentedOracle(tree)
            result = fn(tree, oracle)
            assert result.found == tree.target, (name, n, t, strategy, i)


def test_dfs_extend_rejects_a_misplaced_walker():
    """A walker off the explored tree is refused before any step. On the
    second instance such a walk once grew a subtree detached from the
    root, counted in ``node_count`` yet not held."""
    # the roots of these instances are unary, so the walker steps to node 1
    for tree in (build_instance(FamilySpec("random", 64, 4, 3)),
                 gen_random(64, 4, seed=1)):
        walker = Walker(tree)
        explored = ExploredTree(walker)
        walker.move(DIR_ONLY)
        with pytest.raises(TreeError, match="node 1 is not explored"):
            dfs_extend(explored, tree.n)
        assert (walker.current, walker.steps) == (1, 1)
        assert explored.node_count == 1


def test_dfs_extend_refuses_to_start_at_a_stub():
    """A walk started at a stub once grew the stub's deleted subtree back,
    since a stub's explored links read as children still to walk."""
    tree = gen_complete_path(2, 2)
    explored, walker = explore_fully(tree)
    assert trim(explored, 3, TARGET_LARGER) == [1]
    _descend(explored, 1)
    steps = walker.steps
    assert explored.node_count == 7
    with pytest.raises(TreeError, match="node 1 is a stub"):
        dfs_extend(explored, tree.n)
    assert (walker.current, walker.steps) == (1, steps)
    assert explored.node_count == 7
    assert (explored.left[1], explored.right[1]) == (-1, -1)


def test_walks_to_an_unexplored_id_are_refused():
    """``path_runs`` and ``_descend`` refuse an id the explored tree does
    not hold before any step; the run flags alone once let ``_descend``
    walk the walker down to it."""
    tree = gen_random(64, 4, seed=1)
    walker = Walker(tree)
    explored = ExploredTree(walker)
    assert explored.parent[5] < 0
    with pytest.raises(TreeError, match="node 5 is not explored"):
        explored.path_runs(5)
    with pytest.raises(TreeError, match="node 5 is not explored"):
        _descend(explored, 5)
    for v in (-1, tree.size):
        with pytest.raises(NodeIdError):
            _descend(explored, v)
    assert (walker.current, walker.steps) == (0, 0)
    assert explored.node_count == 1


def test_dfs_extend_reads_each_entered_node_kind_once(monkeypatch):
    """A full-depth walk reads no node's kind twice without a move in
    between: a newly explored node is read once, where the walk enters
    it."""
    reads = []
    original = Walker.kind_of

    def kind_of(self, v):
        reads.append((v, self.steps))
        return original(self, v)

    monkeypatch.setattr(Walker, "kind_of", kind_of)
    for tree in (gen_random(128, 16, seed=4), gen_comb(160, 9, seed=2),
                 gen_complete_path(3, 5)):
        del reads[:]
        explored, walker = explore_fully(tree)
        assert explored.node_count == tree.size
        assert len(reads) == len(set(reads))
        assert {v for v, _ in reads} >= {
            v for v in range(tree.size) if tree.kind(v) == FORK}


def test_descend_refuses_a_dst_not_below_the_walker():
    tree = gen_random(64, 4, seed=1)
    explored, walker = explore_fully(tree)
    # nodes 0..14 are one run; from 14, its ancestors are refused like
    # every other id outside its subtree
    _descend(explored, 14)
    assert (walker.current, walker.depth) == (14, 14)
    below = set(explored.inorder_below(14).tolist())
    refused = 0
    for dst in range(tree.size):
        if dst in below:
            continue
        steps = walker.steps
        with pytest.raises(TreeError, match="not below"):
            _descend(explored, dst)
        assert (walker.current, walker.steps) == (14, steps)
        refused += 1
    assert refused > 14


# ------------------------------------------- kinds read through the walker


class _ReportingOracle(InstrumentedOracle):
    """Records every fork ``on_fork`` reports."""

    def __init__(self, tree):
        super().__init__(tree)
        self.reported = set()

    def on_fork(self, node):
        assert node not in self.reported
        self.reported.add(node)


class _ReportingAdaptiveOracle(AdaptiveOracle):
    def __init__(self, tree, fork_budget):
        super().__init__(tree, fork_budget)
        self.reported = set()

    def on_fork(self, node):
        assert node not in self.reported
        self.reported.add(node)
        super().on_fork(node)


def _keeping(cls, into):
    """A stand-in for cls that also appends every instance it builds."""
    def build(*args):
        obj = cls(*args)
        into.append(obj)
        return obj
    return build


def _kinds_match_reveals(explored, reported):
    """Every explored id was revealed, and the walker reads a fork exactly
    where one was reported when it was entered; returns the number of ids
    checked."""
    ids = explored_ids(explored)
    for v in ids:
        assert (explored.walker.kind_of(v) == FORK) == (v in reported), v
    return len(ids)


def test_explored_kinds_are_the_kinds_revealed(monkeypatch):
    """The explored tree keeps no kinds of its own: it asks the walker,
    which reads the live instance. That is sound only if an explored node
    keeps the kind it was revealed with, freezes included."""
    trees = []
    oracles = []
    monkeypatch.setattr(algorithms, "ExploredTree",
                        _keeping(ExploredTree, trees))
    monkeypatch.setattr(lowerbound, "AdaptiveOracle",
                        _keeping(_ReportingAdaptiveOracle, oracles))
    runs = checked = 0
    for family in ("random", "comb", "complete_path"):
        for n, t in ((64, 4), (200, 16)):
            for seed in range(2):
                tree = build_instance(FamilySpec(family, n, t, seed))
                for fn in ALGORITHMS.values():
                    oracles.append(_ReportingOracle(tree))
                    assert fn(tree, oracles[-1]).found == tree.target
                    runs += 1
    froze = 0
    for n, t in ((64, 25), (128, 36), (256, 49), (512, 64)):
        for player in ALGORITHMS:
            froze += adaptive_fork_adversary(n, t, player).froze
            runs += 1
    assert runs == len(trees) == len(oracles) == 48
    for explored, oracle in zip(trees, oracles):
        checked += _kinds_match_reveals(explored, oracle.reported)
    assert froze >= 1
    assert checked > 30000


def _shape_checked(monkeypatch, name, size, calls):
    """Patch ``Walker.<name>`` to count its calls and check how many values
    each call returns."""
    original = getattr(Walker, name)

    def checked(self, *args):
        out = original(self, *args)
        assert len(out) == size, (name, out)
        calls[name] += 1
        return out

    monkeypatch.setattr(Walker, name, checked)


def _arena():
    """The adversary arena with an oracle that freezes after 4 forks."""
    tree = gen_complete_path(3, 16)
    return tree, AdaptiveOracle(tree, 4)


@pytest.mark.parametrize("make", [
    lambda: (gen_random(128, 16, seed=4), None),
    lambda: (gen_comb(160, 9, seed=2), None),
    lambda: (gen_complete_path(3, 5), None),
    _arena,
], ids=["random", "comb", "complete_path", "frozen_arena"])
def test_kinds_reach_the_searches_through_one_channel(monkeypatch, make):
    """A full-depth ``dfs_extend`` hears each revealed fork once through
    ``on_fork``, and ``Walker.kind_of`` reads a fork at exactly those ids;
    ``move`` returns a node and a side, and ``follow`` a node and the side
    labels, no kind."""
    calls = {"move": 0, "follow": 0}
    _shape_checked(monkeypatch, "move", 2, calls)
    _shape_checked(monkeypatch, "follow", 3, calls)
    tree, oracle = make()
    log = []

    def hear(v):
        log.append(v)
        if oracle is not None:
            oracle.on_fork(v)

    walker = Walker(tree, hear)
    explored = ExploredTree(walker)
    dfs_extend(explored, tree.n)
    assert len(log) == len(set(log))
    ids = [v for v in range(tree.size) if walker.revealed[v]]
    assert ids == explored_ids(explored)
    assert sorted(log) == [v for v in ids if walker.kind_of(v) == FORK]
    assert calls["move"] and calls["follow"]
    if oracle is not None:
        assert oracle.froze


def _run_path(runs):
    """The ids of ``ExploredTree.path_runs``' runs, from the bottom up."""
    return [v for a, b in runs for v in range(b, a - 1, -1)]


def _check_path_runs(explored):
    for v in explored_ids(explored):
        path = path_to_root(explored, v)
        assert _run_path(explored.path_runs(v)) == path
        mid = len(path) // 2
        assert _run_path(explored.path_runs(v, path[mid])) == path[:mid + 1]


@pytest.mark.parametrize("make", [lambda: gen_random(128, 16, seed=4),
                                  lambda: gen_comb(160, 9, seed=2),
                                  lambda: gen_complete_path(3, 5)],
                         ids=["random", "comb", "complete_path"])
def test_path_runs_match_the_node_by_node_path(make):
    """The run-wise root path (one ``Walker.run_start`` per run) gives the
    ids of ``path_to_root`` at every explored id, and stops at an ancestor
    given as top."""
    tree = make()
    explored, _ = explore_fully(tree)
    assert explored.node_count == tree.size
    _check_path_runs(explored)
    leaves = [v for v in range(tree.size) if is_leaf(tree, v)]
    with pytest.raises(TreeError, match="not below"):
        explored.path_runs(leaves[-1], leaves[-2])


def test_path_runs_after_a_freeze():
    """On the adversary arena a freeze demotes forks; one that keeps child
    id + 1 keeps its run flag of 0, so a run ends on it early, and the
    run-wise path still equals the node-by-node one."""
    for budget in (1, 4):
        tree = gen_complete_path(3, 16)
        forks = [f for f in range(tree.size)
                 if tree.left[f] >= 0 and tree.right[f] >= 0]
        oracle = AdaptiveOracle(tree, budget)
        explored, walker = explore_fully(tree, Walker(tree, oracle.on_fork))
        assert oracle.froze
        kept = [f for f in forks if explored.parent[f + 1] == f
                and tree.right[f] < 0 and walker.revealed[f]]
        assert kept  # demoted forks that kept id + 1
        _check_path_runs(explored)
