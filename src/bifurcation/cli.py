"""Command-line front end: single searches, grid sweeps, the pricing game,
its minimax value, the adaptive adversary, and scaling fits."""

from __future__ import annotations

import argparse
import sys

from .algorithms import ALGORITHMS
from .generators import FamilySpec
from .harness import (CSV_HEADER, check_folder, fit_scaling, load_records,
                      prepare_append, run_experiment, sweep)
from .lowerbound import (STRATEGIES, adaptive_fork_adversary, minimax_price,
                         play_game)
from .model import TreeError


def _split(text):
    return [x for x in text.split(",") if x]


def _int_list(text):
    return [int(x) for x in _split(text)]


def build_parser():
    p = argparse.ArgumentParser(
        prog="bifurcation", allow_abbrev=False,
        description="Implicit tree search experiments with a comparison oracle")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("search", allow_abbrev=False,
                       help="one instrumented run on one instance")
    s.add_argument("--family", default="random")
    s.add_argument("--n", type=int, default=256)
    s.add_argument("--t", type=int, default=16)
    s.add_argument("--psi", type=int, default=None)
    s.add_argument("--algo", default="bifurcation", choices=tuple(ALGORITHMS))
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--target", default="random_node")
    s.add_argument("--out", default=None, help="append the record to a CSV")
    s.set_defaults(run=_cmd_search)

    w = sub.add_parser("sweep", allow_abbrev=False,
                       help="Cartesian grid of runs into a CSV")
    w.add_argument("--family", default="random")
    w.add_argument("--n", type=_int_list, required=True)
    w.add_argument("--t", type=_int_list, required=True)
    w.add_argument("--psi", type=_int_list, default=None)
    w.add_argument("--algo", default="bifurcation")
    w.add_argument("--trials", type=int, default=5)
    w.add_argument("--seed", type=int, default=0)
    w.add_argument("--target", default="random_node")
    w.add_argument("--out", required=True)
    w.set_defaults(run=_cmd_sweep)

    g = sub.add_parser("game", allow_abbrev=False,
                       help="play the leaf-isolation pricing game")
    g.add_argument("--strategy", default="balanced_bisect",
                   choices=STRATEGIES)
    g.add_argument("--h", type=int, default=6)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", default=None)
    g.set_defaults(run=_cmd_game)

    m = sub.add_parser("minimax", allow_abbrev=False,
                       help="exact game value for height h")
    m.add_argument("--h", type=int, required=True)
    m.set_defaults(run=_cmd_minimax)

    a = sub.add_parser("adversary", allow_abbrev=False,
                       help="run a player against the adaptive oracle")
    a.add_argument("--n", type=int, default=256)
    a.add_argument("--t", type=int, default=16)
    a.add_argument("--algo", default="bifurcation", choices=tuple(ALGORITHMS))
    a.set_defaults(run=_cmd_adversary)

    f = sub.add_parser("fit", allow_abbrev=False,
                       help="log-log scaling exponents from a sweep CSV")
    f.add_argument("csv")
    f.set_defaults(run=_cmd_fit)
    return p


def _cmd_search(args):
    spec = FamilySpec(args.family, args.n, args.t, args.seed, args.target)
    if args.out:
        _, header, keep = prepare_append(args.out)
    rec = run_experiment(spec, args.algo, args.psi)
    if args.out:
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.truncate(keep)
            fh.write(header + rec.csv_row() + "\n")
    print(CSV_HEADER)
    print(rec.csv_row())
    return 0


def _cmd_sweep(args):
    psis = [None] if args.psi is None else args.psi
    written = sweep(args.out, _split(args.family), args.n, args.t,
                    _split(args.algo), trials=args.trials, psis=psis,
                    base_seed=args.seed, target_strategy=args.target)
    print("wrote %d records to %s" % (written, args.out))
    return 0


def _cmd_game(args):
    if args.out:
        check_folder(args.out)
    transcript = play_game(args.strategy, args.h, args.seed)
    rows = list(transcript.csv_rows())
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write("\n".join(rows) + "\n")
    for row in rows:
        print(row)
    print("total_price,%d" % transcript.total_price)
    return 0


def _cmd_minimax(args):
    print(minimax_price(args.h))
    return 0


def _cmd_adversary(args):
    rep = adaptive_fork_adversary(args.n, args.t, args.algo)
    print("player,n,t,h,step_len,steps,oracle_calls,cost,revealed_forks,"
          "froze,consistent")
    print("%s,%d,%d,%d,%d,%d,%d,%d,%d,%s,%s"
          % (rep.player, rep.n, rep.t, rep.h, rep.step_len, rep.steps,
             rep.oracle_calls, rep.cost, rep.revealed_forks,
             str(rep.froze).lower(), str(rep.replay_consistent()).lower()))
    return 0


def _cmd_fit(args):
    print(fit_scaling(load_records(args.csv)).format())
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (TreeError, ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
