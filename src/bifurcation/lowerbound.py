"""Adversarial lower-bound machinery.

Two labs live here: the leaf-isolation pricing game on a complete binary
tree, with its exact minimax value, and an adaptive oracle that answers to
keep the larger candidate set alive while exploration is priced in the
linear-decider cost model (each call costs n steps).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .algorithms import ALGORITHMS, _ceil_div, _ceil_sqrt
from .generators import gen_complete_path
from .model import (FOUND, TARGET_LARGER, TARGET_SMALLER,
                    InconsistentOracleError, TreeError, check_node_id)

STRATEGIES = ("balanced_bisect", "greedy_cheapest", "random")

_MINIMAX_CAP = 12


class GameRuleError(TreeError):
    """A game move violated the query rules."""


def lca_rank(p: int, q: int, h: int) -> int:
    """Height of the lowest common ancestor of two leaf labels in a complete
    binary tree of height h; zero when p == q."""
    top = 1 << h
    if not 0 <= p < top or not 0 <= q < top:
        raise GameRuleError("leaf label out of range for height %d" % h)
    return (p ^ q).bit_length()


def query_price(q: int, history, h: int) -> int:
    """Edges newly traversed to reach leaf q given the queried set: h for the
    first query, afterwards the least lca_rank against any prior query."""
    if q in history:
        raise GameRuleError("duplicate query %d" % q)
    if not 0 <= q < (1 << h):
        raise GameRuleError("leaf label out of range for height %d" % h)
    if not history:
        return h
    return min(lca_rank(q, p, h) for p in history)


class GameState:
    """Active range of the adversarial leaf game on labels 0..2**h - 1."""

    __slots__ = ("h", "size", "x", "y", "queried", "total_price")

    def __init__(self, h: int):
        if h < 1:
            raise GameRuleError("need h >= 1")
        self.h = h
        self.size = 1 << h
        self.x = 0
        self.y = self.size - 1
        self.queried = set()
        self.total_price = 0

    @property
    def active_size(self) -> int:
        return self.y - self.x + 1

    def over(self) -> bool:
        return self.x == self.y


def adversary_answer(state: GameState, q: int):
    """Answer a query so that the larger half of the active range survives.

    Mutates the state and returns (answer, price, discarded range or None).
    Out-of-range queries are answered truthfully and discard nothing. The
    game ends when a single label remains; no confirming query is charged.
    """
    if state.over():
        raise GameRuleError("the game is already over")
    price = query_price(q, state.queried, state.h)
    state.queried.add(q)
    state.total_price += price
    x, y = state.x, state.y
    if q < x:
        return TARGET_LARGER, price, None
    if q > y:
        return TARGET_SMALLER, price, None
    a_size = q - x
    b_size = y - q
    if a_size > b_size:
        state.y = q - 1
        return TARGET_SMALLER, price, (q, y)
    state.x = q + 1
    return TARGET_LARGER, price, (x, q)


@dataclass(frozen=True)
class GameStep:
    index: int
    query: int
    price: int
    answer: str
    range_lo: int
    range_hi: int
    discarded: tuple | None


@dataclass(frozen=True)
class Transcript:
    h: int
    strategy: str
    steps: tuple
    total_price: int

    def csv_rows(self):
        yield "step,query,price,answer,range_lo,range_hi"
        for s in self.steps:
            yield "%d,%d,%d,%s,%d,%d" % (s.index, s.query, s.price, s.answer,
                                         s.range_lo, s.range_hi)


def _allowed(state: GameState):
    """The allowed labels lo..hi: inside the open active range while it has
    more than two labels, either endpoint once two remain."""
    if state.active_size == 2:
        return state.x, state.y
    return state.x + 1, state.y - 1


def play_game(strategy: str, h: int, seed: int = 0) -> Transcript:
    """Run a query strategy against the adversary until the target label is
    isolated.

    Players query strictly inside the active range while it has more than two
    labels, and an endpoint once two remain. ``random`` draws one allowed
    label with ``randrange``. ``greedy_cheapest`` takes the cheapest, smallest
    first, pricing against the queried flanks x - 1 and y + 1 alone, as
    ``minimax_price`` does; its work grows 4x a height, so it shares that cap.
    """
    if strategy == "greedy_cheapest" and h > _MINIMAX_CAP:
        raise GameRuleError("height %d is past desk scale" % h)
    state = GameState(h)
    rng = random.Random(seed)
    steps = []
    while not state.over():
        lo, hi = _allowed(state)
        if strategy == "balanced_bisect":
            q = (state.x + state.y) // 2
        elif strategy == "greedy_cheapest":
            flanks = state.queried & {state.x - 1, state.y + 1}
            q = min(range(lo, hi + 1),
                    key=lambda c: (query_price(c, flanks, h), c))
        elif strategy == "random":
            q = rng.randrange(lo, hi + 1)
        else:
            raise GameRuleError("unknown strategy %r" % (strategy,))
        answer, price, discarded = adversary_answer(state, q)
        steps.append(GameStep(len(steps) + 1, q, price, answer,
                              state.x, state.y, discarded))
    return Transcript(h, strategy, tuple(steps), state.total_price)


def _rank_table(h: int):
    """rank[e, p + 1] = lca_rank(p, p + e) for leaf labels 0 <= p < p + e <
    2**h; every entry whose flank falls outside the labels, column 0 (p = -1)
    included, holds the int8 maximum, which any real rank undercuts."""
    size = 1 << h
    bits = np.zeros(size, dtype=np.int8)
    for k in range(h):
        bits[1 << k:2 << k] = k + 1
    rank = np.full((size, size), np.iinfo(np.int8).max, dtype=np.int8)
    labels = np.arange(size, dtype=np.int16)
    for e in range(1, size):
        p = labels[:size - e]
        rank[e, 1:size - e + 1] = bits[p ^ (p + e)]
    return rank


def _diagonal(table, row, col, rows, cols):
    """Read-only view v[i, j] = table[row - i, col + i + j]; numpy refuses
    a view that reaches outside the table's buffer."""
    down, across = table.strides
    view = np.ndarray((rows, cols), table.dtype, buffer=table,
                      offset=row * down + col * across,
                      strides=(across - down, across))
    view.flags.writeable = False
    return view


def minimax_price(h: int) -> int:
    """Exact least total price any player can force against the adversary.

    Dynamic program over active ranges: a reachable range [x, y] has exactly
    the flanks x - 1 (when x > 0) and y + 1 (when y < 2**h - 1) queried, and
    the nearest flank prices every future query, so (x, y) is a complete
    state. The full starting range is the lone flankless state; its first
    query always costs h.

    ``value[length, x]`` is the value of the range of that length starting
    at x. Querying q = x + d prices at ``rank[d + 1, x]`` against the left
    flank and at ``rank[length - d, x + d + 1]`` against the right one; the
    adversary then keeps [x, q - 1] (``value[d, x]``) when it is the larger
    part and [q + 1, y] (``value[length - 1 - d, x + d + 1]``) otherwise.
    The right-flank prices and the right-part values run along diagonals of
    their tables, read through strided views. Every range shorter than
    2**h has a flank, so the sentinel never reaches a sum, and for h <= 12
    a price plus a value is at most 12 + 79, inside int8.

    Measured on a 2-core shared VM (numpy 2.4, Python 3.11), one call in a
    fresh process: h = 10 in 0.10 s, 11 in 0.85 s, 12 in 6.3 s; peak RSS of
    the process 31, 38 and 65 MB, of which 28 MB is the interpreter with
    numpy and the package imported.
    """
    if h < 1:
        raise GameRuleError("need h >= 1")
    if h > _MINIMAX_CAP:
        raise GameRuleError("height %d is past desk scale" % h)
    size = 1 << h
    if size == 2:
        return h
    rank = _rank_table(h)
    value = np.zeros((size, size), dtype=np.int8)
    value[2, :size - 1] = np.minimum(
        rank[1:3, :size - 1], _diagonal(rank, 2, 1, 2, size - 1)).min(axis=0)
    for length in range(3, size):
        count = size - length + 1
        nr = (length - 1) // 2
        nl = length - 2 - nr
        keep_right = np.minimum(rank[2:nr + 2, :count],
                                _diagonal(rank, length - 1, 2, nr, count))
        keep_right += _diagonal(value, length - 2, 2, nr, count)
        best = keep_right.min(axis=0)
        if nl:
            keep_left = np.minimum(
                rank[nr + 2:length, :count],
                _diagonal(rank, length - 1 - nr, nr + 2, nl, count))
            keep_left += value[nr + 1:length - 1, :count]
            np.minimum(best, keep_left.min(axis=0), out=best)
        value[length, :count] = best
    nr = (size - 1) // 2
    child = min(_diagonal(value, size - 2, 2, nr, 1).min(),
                value[nr + 1:size - 1, 0].min())
    return h + int(child)


class AdaptiveOracle:
    """Answers each query so the larger candidate side stays alive.

    Candidates are one bool mask over inorder ranks. Once ``on_fork`` has
    heard the fork budget, every still-undiscovered fork is demoted to a
    unary node by deleting the child subtree holding fewer surviving
    candidates, which leaves no fork to reveal. The target is committed as
    the last surviving candidate, so every answer given stays consistent.
    """

    def __init__(self, tree, fork_budget):
        self.tree = tree
        self.fork_budget = fork_budget
        self.calls = 0
        self.transcript = []
        self.revealed_forks = 0
        self.froze = False
        self.committed = None
        size = tree.subtree_sizes()
        self._ranks = tree.inorder_ranks()
        left = np.frombuffer(tree.left, np.intc)
        right = np.frombuffer(tree.right, np.intc)
        forks = np.flatnonzero((left >= 0) & (right >= 0))
        r = np.frombuffer(self._ranks, np.intc)[forks]
        self._forks = list(zip(forks.tolist(),
                               (r - size[left[forks]]).tolist(), r.tolist(),
                               (r + size[right[forks]]).tolist()))
        self._cands = np.ones(tree.size, dtype=bool)
        self._revealed = set()

    def on_fork(self, node):
        self._revealed.add(node)
        self.revealed_forks += 1
        if self.revealed_forks >= self.fork_budget:
            self._freeze()

    def query(self, q):
        check_node_id(q, len(self._ranks))
        self.calls += 1
        r = self._ranks[q]
        cands = self._cands
        below = np.count_nonzero(cands[:r])
        above = np.count_nonzero(cands[r + 1:])
        if not below and not above:
            if not cands[r]:
                raise InconsistentOracleError(
                    "the adversary has no candidates left")
            self.committed = q
            self.transcript.append((q, FOUND))
            return FOUND
        if below > above:
            cands[r:] = False
            answer = TARGET_SMALLER
        else:
            cands[:r + 1] = False
            answer = TARGET_LARGER
        self.transcript.append((q, answer))
        return answer

    def _freeze(self):
        """Demote every unrevealed fork still attached to the root, in id
        order, which puts every ancestor first. A fork is detached exactly
        when its rank lies in the span of a subtree dropped before it. Each
        fork f is listed as ``(f, lo, r, hi)``, its rank r and its subtree's
        rank span, so its children's spans are lo..r - 1 and r + 1..hi."""
        self.froze = True
        tree = self.tree
        cands = self._cands
        dropped = np.zeros(tree.size, dtype=bool)
        for f, lo, r, hi in self._forks:
            if f in self._revealed or dropped[r]:
                continue
            if (np.count_nonzero(cands[lo:r])
                    >= np.count_nonzero(cands[r + 1:hi + 1])):
                drop = tree.right[f]
                tree.right[f] = -1
                lo = r + 1
            else:
                drop = tree.left[f]
                tree.left[f] = -1
                hi = r - 1
            tree.parent[drop] = -1
            cands[lo:hi + 1] = False
            dropped[lo:hi + 1] = True


@dataclass
class AdversaryReport:
    """Outcome of one player run against the adaptive oracle."""

    player: str
    n: int
    t: int
    h: int
    step_len: int
    instance_n: int
    steps: int
    oracle_calls: int
    cost: int
    target: int
    revealed_forks: int
    froze: bool
    transcript: tuple
    tree: object

    def replay_consistent(self) -> bool:
        """Every recorded answer must match the committed target exactly."""
        if self.target is None:
            return False
        ranks = self.tree.inorder_ranks()
        rt = ranks[self.target]
        for q, answer in self.transcript:
            if q == self.target:
                expected = FOUND
            else:
                expected = TARGET_SMALLER if rt < ranks[q] else TARGET_LARGER
            if answer != expected:
                return False
        return True


def adaptive_fork_adversary(n: int, t: int,
                            player: str = "bifurcation") -> AdversaryReport:
    """Play a search algorithm against the adaptive oracle.

    The arena is the complete tree of height ceil(sqrt(t)) with every edge
    stretched into a path of ceil(n / h) edges. Cost charges each oracle call
    at n steps, the linear-decider model.
    """
    if n < 1 or t < 1:
        raise GameRuleError("need n >= 1 and t >= 1")
    if player not in ALGORITHMS:
        raise GameRuleError("unknown player %r" % (player,))
    h = _ceil_sqrt(t)
    step_len = _ceil_div(n, h)
    tree = gen_complete_path(h, step_len)
    oracle = AdaptiveOracle(tree, t)
    result = ALGORITHMS[player](tree, oracle)
    if result.found != oracle.committed:
        raise InconsistentOracleError(
            "player finished without isolating the committed target")
    tree.target = oracle.committed
    return AdversaryReport(
        player=player, n=n, t=t, h=h, step_len=step_len, instance_n=tree.n,
        steps=result.steps, oracle_calls=result.oracle_calls,
        cost=result.steps + tree.n * result.oracle_calls,
        target=oracle.committed, revealed_forks=oracle.revealed_forks,
        froze=oracle.froze, transcript=tuple(oracle.transcript), tree=tree)
