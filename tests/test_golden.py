"""Golden model-cost counters.

Exact (found, steps, oracle_calls, rounds) for every algorithm on a fixed set
of small instances, and (steps, oracle_calls, target, transcript) for every
player against the adaptive adversary at n=256, t=16. A round is pinned as
(index, new_forks, oracle_calls, steps, depth_limit). Any change to these
numbers is a change in model cost, not a refactor.
"""

from dataclasses import astuple

from bifurcation.algorithms import ALGORITHMS
from bifurcation.generators import (gen_comb, gen_complete_path, gen_random,
                                    place_target)
from bifurcation.lowerbound import adaptive_fork_adversary
from bifurcation.model import InstrumentedOracle


def _instance(family, params, strategy):
    if family == "complete_path":
        tree = gen_complete_path(*params)
    else:
        gen = gen_random if family == "random" else gen_comb
        tree = gen(*params[:2], seed=params[2])
    tree.target = place_target(tree, strategy, seed=7)
    return tree


def test_search_counters_are_pinned():
    got = {}
    for family, params, strategy, algo in SEARCH_GOLDEN:
        tree = _instance(family, params, strategy)
        r = ALGORITHMS[algo](tree, InstrumentedOracle(tree))
        got[(family, params, strategy, algo)] = (
            r.found, r.steps, r.oracle_calls,
            tuple(astuple(rs) for rs in r.rounds))
    assert got == SEARCH_GOLDEN


def test_adversary_counters_are_pinned():
    got = {}
    for player in ADVERSARY_GOLDEN:
        rep = adaptive_fork_adversary(256, 16, player)
        got[player] = (rep.steps, rep.oracle_calls, rep.target,
                       rep.transcript)
    assert got == ADVERSARY_GOLDEN


SEARCH_GOLDEN = {
    ('random', (24, 3, 1), 'random_node', 'bifurcation'):
        (21, 96, 6, ((1, 3, 1, 96, 24),)),
    ('random', (24, 3, 1), 'random_node', 'full'):
        (21, 96, 5, ()),
    ('random', (24, 3, 1), 'random_node', 'rounds'):
        (21, 84, 8, ((1, 2, 5, 32, 12), (2, 1, 3, 40, 24))),
    ('random', (24, 3, 1), 'random_leaf', 'bifurcation'):
        (35, 96, 5, ((1, 3, 1, 96, 24),)),
    ('random', (24, 3, 1), 'random_leaf', 'full'):
        (35, 96, 6, ()),
    ('random', (24, 3, 1), 'random_leaf', 'rounds'):
        (35, 32, 4, ((1, 2, 4, 32, 12),)),
    ('random', (24, 3, 1), 'adversarial_deep', 'bifurcation'):
        (48, 96, 5, ((1, 3, 1, 96, 24),)),
    ('random', (24, 3, 1), 'adversarial_deep', 'full'):
        (48, 96, 5, ()),
    ('random', (24, 3, 1), 'adversarial_deep', 'rounds'):
        (48, 68, 7, ((1, 2, 4, 32, 12), (2, 0, 3, 24, 24))),
    ('random', (64, 9, 2), 'random_node', 'bifurcation'):
        (87, 532, 9, ((1, 7, 2, 292, 43), (2, 2, 1, 240, 86))),
    ('random', (64, 9, 2), 'random_node', 'full'):
        (87, 426, 6, ()),
    ('random', (64, 9, 2), 'random_node', 'rounds'):
        (87, 244, 11, ((1, 5, 6, 140, 22), (2, 2, 5, 82, 44))),
    ('random', (64, 9, 2), 'random_leaf', 'bifurcation'):
        (144, 532, 3, ((1, 7, 2, 292, 43), (2, 2, 1, 240, 86))),
    ('random', (64, 9, 2), 'random_leaf', 'full'):
        (144, 426, 8, ()),
    ('random', (64, 9, 2), 'random_leaf', 'rounds'):
        (144, 354, 14,
         ((1, 5, 6, 140, 22), (2, 2, 6, 82, 44), (3, 2, 2, 88, 64))),
    ('random', (64, 9, 2), 'adversarial_deep', 'bifurcation'):
        (144, 532, 3, ((1, 7, 2, 292, 43), (2, 2, 1, 240, 86))),
    ('random', (64, 9, 2), 'adversarial_deep', 'full'):
        (144, 426, 8, ()),
    ('random', (64, 9, 2), 'adversarial_deep', 'rounds'):
        (144, 354, 14,
         ((1, 5, 6, 140, 22), (2, 2, 6, 82, 44), (3, 2, 2, 88, 64))),
    ('random', (100, 64, 6), 'random_node', 'bifurcation'):
        (350, 1980, 7,
         ((1, 6, 0, 132, 25), (2, 11, 1, 466, 50), (3, 21, 2, 682, 75),
          (4, 14, 2, 700, 100))),
    ('random', (100, 64, 6), 'random_node', 'full'):
        (350, 1910, 10, ()),
    ('random', (100, 64, 6), 'random_node', 'rounds'):
        (350, 465, 29,
         ((1, 2, 4, 36, 13), (2, 3, 5, 60, 26), (3, 5, 5, 68, 39),
          (4, 5, 5, 54, 52), (5, 5, 5, 76, 65), (6, 6, 5, 106, 78))),
    ('random', (100, 64, 6), 'random_leaf', 'bifurcation'):
        (633, 1726, 11,
         ((1, 6, 0, 132, 25), (2, 11, 1, 466, 50), (3, 21, 2, 682, 75),
          (4, 7, 1, 446, 100))),
    ('random', (100, 64, 6), 'random_leaf', 'full'):
        (633, 1910, 7, ()),
    ('random', (100, 64, 6), 'random_leaf', 'rounds'):
        (633, 456, 34,
         ((1, 2, 4, 36, 13), (2, 3, 5, 60, 26), (3, 5, 5, 68, 39),
          (4, 5, 5, 54, 52), (5, 5, 6, 74, 65), (6, 0, 4, 26, 78),
          (7, 4, 5, 60, 91))),
    ('random', (100, 64, 6), 'adversarial_deep', 'bifurcation'):
        (672, 1190, 10,
         ((1, 6, 0, 132, 25), (2, 11, 2, 466, 50), (3, 1, 0, 242, 75),
          (4, 1, 0, 350, 100))),
    ('random', (100, 64, 6), 'adversarial_deep', 'full'):
        (672, 1910, 10, ()),
    ('random', (100, 64, 6), 'adversarial_deep', 'rounds'):
        (672, 367, 33,
         ((1, 2, 4, 36, 13), (2, 3, 5, 60, 26), (3, 3, 5, 50, 39),
          (4, 0, 4, 26, 52), (5, 1, 4, 34, 65), (6, 0, 4, 26, 78),
          (7, 0, 4, 26, 91), (8, 0, 3, 18, 100))),
    ('comb', (40, 4, 1), 'random_node', 'bifurcation'):
        (43, 240, 7, ((1, 4, 1, 240, 40),)),
    ('comb', (40, 4, 1), 'random_node', 'full'):
        (43, 240, 7, ()),
    ('comb', (40, 4, 1), 'random_node', 'rounds'):
        (43, 72, 5, ((1, 2, 5, 72, 20),)),
    ('comb', (40, 4, 1), 'fixed:0', 'bifurcation'):
        (2, 240, 7, ((1, 4, 1, 240, 40),)),
    ('comb', (40, 4, 1), 'fixed:0', 'full'):
        (2, 240, 6, ()),
    ('comb', (40, 4, 1), 'fixed:0', 'rounds'):
        (2, 72, 5, ((1, 2, 5, 72, 20),)),
    ('comb', (48, 32, 0), 'random_node', 'bifurcation'):
        (701, 1162, 11,
         ((1, 16, 2, 272, 16), (2, 16, 2, 488, 32), (3, 0, 1, 402, 48))),
    ('comb', (48, 32, 0), 'random_node', 'full'):
        (701, 2112, 10, ()),
    ('comb', (48, 32, 0), 'random_node', 'rounds'):
        (701, 312, 26,
         ((1, 8, 6, 72, 8), (2, 8, 6, 88, 16), (3, 8, 6, 88, 24),
          (4, 0, 4, 16, 32), (5, 0, 4, 16, 40))),
    ('comb', (48, 32, 0), 'fixed:0', 'bifurcation'):
        (0, 868, 9,
         ((1, 16, 2, 272, 16), (2, 0, 0, 234, 32), (3, 0, 0, 362, 48))),
    ('comb', (48, 32, 0), 'fixed:0', 'full'):
        (0, 2112, 10, ()),
    ('comb', (48, 32, 0), 'fixed:0', 'rounds'):
        (0, 72, 5, ((1, 8, 5, 72, 8),)),
    ('comb', (128, 100, 1), 'random_node', 'bifurcation'):
        (2805, 4930, 15,
         ((1, 26, 2, 702, 26), (2, 26, 2, 1216, 52), (3, 0, 1, 1084, 78),
          (4, 0, 0, 844, 104), (5, 0, 1, 1084, 130))),
    ('comb', (128, 100, 1), 'random_node', 'full'):
        (2805, 15756, 11, ()),
    ('comb', (128, 100, 1), 'random_node', 'rounds'):
        (2805, 442, 17,
         ((1, 13, 7, 182, 13), (2, 13, 7, 208, 26), (3, 0, 3, 26, 39))),
    ('complete_path', (2, 3), 'random_leaf', 'bifurcation'):
        (15, 36, 4, ((1, 2, 1, 36, 6),)),
    ('complete_path', (2, 3), 'random_leaf', 'full'):
        (15, 36, 4, ()),
    ('complete_path', (2, 3), 'random_leaf', 'rounds'):
        (15, 27, 6, ((1, 2, 3, 12, 3), (2, 0, 3, 12, 6))),
    ('complete_path', (2, 3), 'adversarial_deep', 'bifurcation'):
        (12, 36, 5, ((1, 2, 1, 36, 6),)),
    ('complete_path', (2, 3), 'adversarial_deep', 'full'):
        (12, 36, 5, ()),
    ('complete_path', (2, 3), 'adversarial_deep', 'rounds'):
        (12, 27, 6, ((1, 2, 3, 12, 3), (2, 0, 3, 12, 6))),
    ('complete_path', (3, 4), 'random_leaf', 'bifurcation'):
        (48, 136, 7, ((1, 6, 1, 48, 8), (2, 0, 1, 88, 16))),
    ('complete_path', (3, 4), 'random_leaf', 'full'):
        (48, 112, 4, ()),
    ('complete_path', (3, 4), 'random_leaf', 'rounds'):
        (48, 56, 11, ((1, 2, 3, 16, 4), (2, 2, 4, 16, 8), (3, 0, 4, 16, 12))),
    ('complete_path', (3, 4), 'adversarial_deep', 'bifurcation'):
        (24, 136, 7, ((1, 6, 1, 48, 8), (2, 0, 1, 88, 16))),
    ('complete_path', (3, 4), 'adversarial_deep', 'full'):
        (24, 112, 6, ()),
    ('complete_path', (3, 4), 'adversarial_deep', 'rounds'):
        (24, 56, 12, ((1, 2, 4, 16, 4), (2, 2, 4, 16, 8), (3, 0, 4, 16, 12))),
}


ADVERSARY_GOLDEN = {
    'bifurcation':
        (4608, 12, 512,
         ((1408, 'target_larger'), (896, 'target_larger'),
          (544, 'target_larger'), (336, 'target_larger'),
          (408, 'target_larger'), (468, 'target_larger'),
          (490, 'target_larger'), (501, 'target_larger'),
          (507, 'target_larger'), (510, 'target_larger'),
          (511, 'target_larger'), (512, 'found'))),
    'full':
        (3840, 11, 512,
         ((0, 'target_larger'), (160, 'target_larger'), (304, 'target_larger'),
          (440, 'target_larger'), (452, 'target_larger'),
          (482, 'target_larger'), (497, 'target_larger'),
          (505, 'target_larger'), (509, 'target_larger'),
          (511, 'target_larger'), (512, 'found'))),
    'rounds':
        (1216, 32, 512,
         ((0, 'target_larger'), (96, 'target_larger'), (112, 'target_larger'),
          (120, 'target_larger'), (124, 'target_larger'),
          (126, 'target_larger'), (127, 'target_larger'),
          (128, 'target_larger'), (128, 'target_larger'),
          (224, 'target_larger'), (240, 'target_larger'),
          (248, 'target_larger'), (252, 'target_larger'),
          (254, 'target_larger'), (255, 'target_larger'),
          (256, 'target_larger'), (256, 'target_larger'),
          (352, 'target_larger'), (368, 'target_larger'),
          (376, 'target_larger'), (380, 'target_larger'),
          (382, 'target_larger'), (383, 'target_larger'),
          (384, 'target_larger'), (384, 'target_larger'),
          (480, 'target_larger'), (496, 'target_larger'),
          (504, 'target_larger'), (508, 'target_larger'),
          (510, 'target_larger'), (511, 'target_larger'), (512, 'found'))),
}
