"""Implicit tree search with a comparison oracle.

Staged exploration that interleaves bounded-depth DFS with oracle-guided
decimation, two baselines, ground-truth instance generators, adversarial
lower-bound labs, and an experiment harness.
"""

from .model import (FORK, FOUND, LEAF, LEFT, RIGHT, TARGET_LARGER,
                    TARGET_SMALLER, UNARY, InconsistentOracleError,
                    InfeasibleInstanceError, InstrumentedOracle, NodeIdError,
                    TreeError, TreeInstance, Walker, WalkerError)
from .algorithms import (ALGORITHMS, ExploredTree, RoundStats, SearchParams,
                         SearchResult, baseline_full, baseline_rounds,
                         bifurcation_search, dfs_extend, final_binary_search,
                         halve, median_leaf, median_node, trim)
from .generators import (FAMILIES, FamilySpec, build_instance, gen_comb,
                         gen_complete_path, gen_random, mix_seed,
                         place_target, validate_instance)
from .lowerbound import (AdaptiveOracle, AdversaryReport, GameRuleError,
                         GameState, GameStep, Transcript,
                         adaptive_fork_adversary, adversary_answer, lca_rank,
                         minimax_price, play_game, query_price)
from .harness import (CSV_HEADER, ExperimentRecord, FitReport,
                      InsufficientGridError, fit_scaling, load_records,
                      run_experiment, sweep)

__version__ = "0.1.0"
