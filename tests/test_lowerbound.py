import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bifurcation import lowerbound
from bifurcation.generators import gen_comb, gen_complete_path, gen_random
from bifurcation.lowerbound import (_MINIMAX_CAP, AdaptiveOracle,
                                    GameRuleError, GameState, STRATEGIES,
                                    adaptive_fork_adversary, adversary_answer,
                                    lca_rank, minimax_price, play_game,
                                    query_price)
from bifurcation.model import (FOUND, TARGET_LARGER, TARGET_SMALLER,
                              NodeIdError)

from helpers import (brute_minimax, edge_union, reference_minimax,
                     reference_play_game, reference_subtree_spans,
                     root_path_edges)


# ---------------------------------------------------------------- lca_rank


def test_lca_rank_examples():
    assert lca_rank(5, 5, 3) == 0
    assert lca_rank(0, 7, 3) == 3
    assert lca_rank(2, 3, 3) == 1


@settings(max_examples=100, deadline=None)
@given(h=st.integers(1, 8), data=st.data())
def test_lca_rank_matches_edge_sets(h, data):
    size = 1 << h
    p = data.draw(st.integers(0, size - 1))
    q = data.draw(st.integers(0, size - 1))
    shared = len(root_path_edges(p, h) & root_path_edges(q, h))
    assert lca_rank(p, q, h) == h - shared


def test_lca_rank_out_of_range():
    with pytest.raises(GameRuleError):
        lca_rank(8, 0, 3)


# -------------------------------------------------------------- query_price


def test_query_price_first_is_full_height():
    assert query_price(3, set(), 4) == 4


def test_query_price_siblings():
    assert query_price(1, {0}, 3) == 1


def test_query_price_duplicate_rejected():
    with pytest.raises(GameRuleError):
        query_price(1, {1}, 3)


def test_query_price_out_of_range_rejected():
    # query_price's own range check, on a first query
    with pytest.raises(GameRuleError, match="out of range for height 3"):
        query_price(8, set(), 3)


@settings(max_examples=120, deadline=None)
@given(h=st.integers(1, 6), data=st.data())
def test_query_price_is_edge_increment(h, data):
    size = 1 << h
    history = data.draw(st.sets(st.integers(0, size - 1), max_size=size - 1))
    q = data.draw(st.integers(0, size - 1).filter(lambda v: v not in history))
    before = edge_union(history, h)
    after = edge_union(history | {q}, h)
    assert query_price(q, history, h) == len(after) - len(before)


# ---------------------------------------------------------- adversary moves


def test_game_state_needs_a_height():
    # GameState's GameRuleError for h < 1
    with pytest.raises(GameRuleError, match="need h >= 1"):
        GameState(0)


def test_adversary_refuses_a_finished_game():
    # adversary_answer's GameRuleError once one label is left
    state = GameState(1)
    adversary_answer(state, 0)
    with pytest.raises(GameRuleError, match="the game is already over"):
        adversary_answer(state, 1)
    assert state.queried == {0} and state.total_price == 1


def test_adversary_pair_endgame():
    state = GameState(1)
    answer, price, discarded = adversary_answer(state, 0)
    assert answer == TARGET_LARGER
    assert price == 1
    assert (state.x, state.y) == (1, 1)
    assert state.over()


def test_adversary_tie_keeps_upper_half():
    state = GameState(3)
    state.x, state.y = 0, 6
    answer, _, discarded = adversary_answer(state, 3)
    assert answer == TARGET_LARGER
    assert (state.x, state.y) == (4, 6)
    assert discarded == (0, 3)


def test_adversary_out_of_range_query():
    state = GameState(3)
    state.x, state.y = 4, 6
    state.queried = {3, 7}
    answer, price, discarded = adversary_answer(state, 1)
    assert answer == TARGET_LARGER
    assert discarded is None
    assert (state.x, state.y) == (4, 6)
    assert price >= 1
    # above the range: adversary_answer's truthful TARGET_SMALLER
    state = GameState(3)
    state.x, state.y = 0, 4
    assert adversary_answer(state, 6) == (TARGET_SMALLER, 3, None)
    assert (state.x, state.y) == (0, 4)


def test_adversary_discard_bound_and_flanks():
    rng = random.Random(3)
    for trial in range(300):
        h = 1 + rng.randrange(8)
        state = GameState(h)
        while not state.over():
            if state.active_size == 2:
                q = rng.choice((state.x, state.y))
            else:
                q = state.x + 1 + rng.randrange(state.active_size - 2)
            before = state.active_size
            answer, price, discarded = adversary_answer(state, q)
            if discarded is not None:
                lo, hi = discarded
                assert hi - lo + 1 <= state.active_size + 1
            if state.x > 0:
                assert state.x - 1 in state.queried
            if state.y < state.size - 1:
                assert state.y + 1 in state.queried
            assert state.active_size < before
        assert state.total_price >= h  # the opening query alone costs h


# ---------------------------------------------------------------- play_game


def test_play_game_two_leaf_value():
    transcript = play_game("balanced_bisect", 1)
    assert transcript.total_price == 1
    assert len(transcript.steps) == 1


def test_play_game_price_bookkeeping():
    for strategy in STRATEGIES:
        transcript = play_game(strategy, 5, seed=7)
        assert transcript.total_price == sum(s.price for s in transcript.steps)
        assert all(s.price >= 1 for s in transcript.steps[1:])
        assert transcript.steps[0].price == 5


def test_play_game_never_beats_minimax():
    for h in range(1, 9):
        floor = minimax_price(h)
        for strategy in STRATEGIES:
            for seed in range(3):
                transcript = play_game(strategy, h, seed=seed)
                assert transcript.total_price >= floor


def test_play_game_csv_rows():
    transcript = play_game("balanced_bisect", 3)
    rows = list(transcript.csv_rows())
    assert rows[0] == "step,query,price,answer,range_lo,range_hi"
    assert len(rows) == len(transcript.steps) + 1
    assert all(len(r.split(",")) == 6 for r in rows[1:])


def test_play_game_unknown_strategy():
    with pytest.raises(GameRuleError):
        play_game("clairvoyant", 3)


def test_play_game_matches_reference():
    for h in range(1, 9):
        for strategy in STRATEGIES:
            for seed in range(3):
                assert (play_game(strategy, h, seed=seed)
                        == reference_play_game(strategy, h, seed=seed))


def test_play_game_random_lists_no_queries():
    """At h = 30 the game has 2**30 labels, so it could not finish if any
    step listed the allowed ones; drawing one label a step, it takes a few
    dozen steps."""
    transcript = play_game("random", 30, seed=4)
    assert transcript.steps[-1].range_lo == transcript.steps[-1].range_hi


def test_play_game_greedy_height_cap():
    with pytest.raises(GameRuleError):
        play_game("greedy_cheapest", _MINIMAX_CAP + 1)


# ------------------------------------------------------------ minimax_price


def test_minimax_two_leaves():
    assert minimax_price(1) == 1


def test_minimax_matches_exhaustive_enumeration():
    for h in (1, 2, 3):
        assert minimax_price(h) == brute_minimax(h)


def test_minimax_monotone():
    vals = [minimax_price(h) for h in range(1, 9)]
    assert all(a <= b for a, b in zip(vals, vals[1:]))


def test_minimax_height_cap():
    # minimax_price's GameRuleError for h < 1, then the cap
    with pytest.raises(GameRuleError, match="need h >= 1"):
        minimax_price(0)
    with pytest.raises(GameRuleError):
        minimax_price(50)
    with pytest.raises(GameRuleError):
        minimax_price(_MINIMAX_CAP + 1)


def test_minimax_matches_reference_dp():
    for h in range(1, 10):
        assert minimax_price(h) == reference_minimax(h)


def test_diagonal_views_read_the_table_and_stay_inside_it():
    table = np.arange(7 * 9, dtype=np.int8).reshape(7, 9)
    view = lowerbound._diagonal(table, 5, 2, 4, 3)
    assert view.tolist() == [[table[5 - i, 2 + i + j] for j in range(3)]
                             for i in range(4)]
    assert not view.flags.writeable
    with pytest.raises(ValueError):  # row 5 - 6 lies before the table
        lowerbound._diagonal(table, 5, 2, 7, 3)


def test_minimax_pinned_values():
    assert [minimax_price(h) for h in range(1, 12)] == [
        1, 4, 7, 11, 16, 22, 29, 37, 46, 56, 67]


# ----------------------------------------------------------- subtree spans


def _unary_sides(tree):
    sides = set()
    for v in range(tree.size):
        l, r = tree.left[v], tree.right[v]
        if (l >= 0) != (r >= 0):
            sides.add("left" if l >= 0 else "right")
    return sides


def test_subtree_spans_match_reference():
    trees = [gen_complete_path(1, 1), gen_complete_path(3, 5),
             gen_comb(64, 8, seed=2)]
    trees += [gen_random(96, t, seed=s) for t in (0, 7, 30) for s in range(3)]
    assert any(_unary_sides(t) == {"left", "right"} for t in trees[3:])
    for tree in trees:
        assert tree.subtree_spans() == reference_subtree_spans(tree)


# ------------------------------------------------------- adaptive adversary


def test_adaptive_adversary_needs_depth_and_forks():
    # adaptive_fork_adversary's GameRuleError for n < 1 or t < 1
    for n, t in ((0, 4), (4, 0)):
        with pytest.raises(GameRuleError, match="need n >= 1 and t >= 1"):
            adaptive_fork_adversary(n, t)


def test_adaptive_single_fork_costs_at_least_n():
    rep = adaptive_fork_adversary(32, 1, "bifurcation")
    assert rep.cost >= 32
    assert rep.replay_consistent()


def test_adaptive_all_players_consistent():
    for player in ("bifurcation", "rounds", "full"):
        for t in (4, 16):
            rep = adaptive_fork_adversary(64, t, player)
            assert rep.replay_consistent()
            assert rep.cost >= 64 * math.sqrt(t) / 8
            assert rep.target == rep.tree.target


def test_adaptive_freeze_demotes_unrevealed_forks():
    rep = adaptive_fork_adversary(64, 64, "bifurcation")
    assert rep.froze  # 2**8 - 1 forks exist, so the budget of 64 is reachable
    tree = rep.tree
    live_forks = 0
    stack = [tree.root]
    while stack:
        v = stack.pop()
        l, r = tree.left[v], tree.right[v]
        if l >= 0 and r >= 0:
            live_forks += 1
        stack.extend(c for c in (l, r) if c >= 0)
    assert live_forks <= rep.revealed_forks
    assert rep.replay_consistent()


@pytest.mark.parametrize("n", [1024, 4096])
def test_fork_hook_calls_are_the_forks_counted(monkeypatch, n):
    """The adversary hears one ``on_fork`` call per fork it counts, and none
    after its freeze, which would push the count past the budget of 64:
    ``full`` freezes with 191 of the arena's 255 forks never revealed."""
    calls = []

    class Counting(AdaptiveOracle):
        def on_fork(self, node):
            calls.append(node)
            super().on_fork(node)

    monkeypatch.setattr(lowerbound, "AdaptiveOracle", Counting)
    total = 0
    for player in ("bifurcation", "full", "rounds"):
        calls.clear()
        rep = adaptive_fork_adversary(n, 64, player)
        assert len(calls) == len(set(calls)) == rep.revealed_forks <= 64
        assert rep.replay_consistent()
        if player == "full":
            assert rep.froze
            assert 2 ** rep.h - 1 - len(calls) == 191
        total += len(calls)
    assert total == 64 + 64 + 8


def test_replay_inconsistent_reports():
    rep = adaptive_fork_adversary(64, 16, "bifurcation")
    assert rep.replay_consistent()
    q, answer = rep.transcript[0]
    assert answer != FOUND
    flipped = TARGET_SMALLER if answer == TARGET_LARGER else TARGET_LARGER
    rep.transcript = ((q, flipped),) + rep.transcript[1:]
    assert not rep.replay_consistent()
    rep = adaptive_fork_adversary(64, 16, "bifurcation")
    rep.target = None
    assert not rep.replay_consistent()


def test_adaptive_oracle_rejects_out_of_range_ids():
    tree = gen_complete_path(2, 3)
    oracle = AdaptiveOracle(tree, 4)
    for q in (-1, -tree.size, tree.size):
        with pytest.raises(NodeIdError):
            oracle.query(q)
    assert oracle.calls == 0
    assert oracle.transcript == []


def test_adaptive_rejects_bad_player():
    with pytest.raises(GameRuleError):
        adaptive_fork_adversary(16, 4, "psychic")
