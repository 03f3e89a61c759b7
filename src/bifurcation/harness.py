"""Experiment records, grid sweeps with resume, and log-log scaling fits."""

from __future__ import annotations

import errno
import itertools
import math
import os
from dataclasses import astuple, dataclass, fields

import numpy as np

from .algorithms import ALGORITHMS, SearchParams, check_psi
from .generators import FamilySpec, build_instance, check_names, mix_seed
from .model import InstrumentedOracle, TreeError


class InsufficientGridError(TreeError):
    """The sweep grid is too thin to fit exponents."""


@dataclass(frozen=True)
class ExperimentRecord:
    family: str
    n: int
    t: int
    psi: int
    algo: str
    seed: int
    steps: int
    oracle_calls: int
    found: bool
    target_inorder_rank: int
    cost_linear_decider: int

    def csv_row(self) -> str:
        return ",".join(str(v).lower() if isinstance(v, bool) else str(v)
                        for v in astuple(self))


# One CSV column per record field, in declaration order; bools are true/false.
CSV_HEADER = ",".join(f.name for f in fields(ExperimentRecord))
_PARSERS = tuple(
    {"int": int, "str": str,
     "bool": {"true": True, "false": False}.__getitem__}[f.type]
    for f in fields(ExperimentRecord))


def run_experiment(spec: FamilySpec, algo: str, psi=None) -> ExperimentRecord:
    """One instrumented run; bit-for-bit deterministic in (spec, algo, psi)."""
    if algo not in ALGORITHMS:
        raise TreeError("unknown algorithm %r" % (algo,))
    return _run_on(build_instance(spec), spec, algo, psi)


def _run_on(tree, spec, algo, psi) -> ExperimentRecord:
    """Run one algorithm on the instance built from spec. Each run gets its
    own oracle and walker, so one instance serves every algorithm."""
    oracle = InstrumentedOracle(tree)
    params = SearchParams.for_instance(tree, psi)
    fn = ALGORITHMS[algo]
    if algo == "bifurcation":
        result = fn(tree, oracle, psi=psi)
    else:
        result = fn(tree, oracle)
    rank = tree.inorder_ranks()[tree.target]
    return ExperimentRecord(
        family=spec.family, n=tree.n, t=tree.t, psi=params.psi, algo=algo,
        seed=spec.seed, steps=result.steps, oracle_calls=result.oracle_calls,
        found=result.found == tree.target, target_inorder_rank=rank,
        cost_linear_decider=result.steps + tree.n * result.oracle_calls)


def load_records(path):
    with open(path, "r", encoding="utf-8") as fh:
        return _parse_records(fh, path)


def _parse_records(lines, path):
    """Records from a record CSV's lines. Any lines must open with the
    header, not a blank line; blank lines after it are skipped."""
    records = []
    lines = iter(lines)
    header = next(lines, None)
    if header is not None and header.strip() != CSV_HEADER:
        raise TreeError("unexpected header in %s" % path)
    for lineno, line in enumerate(lines, 2):
        line = line.strip()
        if not line:
            continue
        try:
            rec = ExperimentRecord(
                *(parse(v) for parse, v in zip(_PARSERS, line.split(","),
                                               strict=True)))
            # only what csv_row writes: no 016, +2 or 1_6, no spaced name
            if rec.csv_row() != line or line != "".join(line.split()):
                raise ValueError(line)
        except (KeyError, ValueError):
            raise TreeError("malformed row at line %d of %s"
                            % (lineno, path)) from None
        records.append(rec)
    return records


def check_folder(path):
    """Raise OSError now, before any work, when path is a new file whose
    folder is missing or not writable; create nothing."""
    if os.path.exists(path):
        return
    folder = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(folder):
        raise FileNotFoundError(errno.ENOENT, "no such folder", folder)
    if not os.access(folder, os.W_OK | os.X_OK):
        raise PermissionError(errno.EACCES, "folder not writable", folder)


def prepare_append(path):
    """Ready a record CSV for appending rows.

    Returns (records already there, text to write before the first new
    row): the header for a new or empty file, else nothing. A first line
    that is not the header, blank or foreign, or a malformed row raises
    TreeError before the file is touched. Then a last line with no
    newline, as a kill part-way through writing a row leaves it, is cut
    off. A new file is not created here, but its folder is checked
    (``check_folder``).
    """
    check_folder(path)
    if os.path.exists(path):
        with open(path, "rb+") as fh:
            data = fh.read()
            keep = data.rfind(b"\n") + 1
            records = _parse_records(
                data[:keep].decode("utf-8").splitlines(), path)
            if keep < len(data):
                fh.truncate(keep)
        if keep:
            return records, ""
    return [], CSV_HEADER + "\n"


def _cell_seed(base_seed: int, family: str, n: int, t: int, psi,
               trial: int) -> int:
    """The seed of one (cell, trial) of a sweep, from its content alone."""
    seed = base_seed
    for part in (int.from_bytes(family.encode(), "little"), n, t,
                 psi is None, psi or 0, trial):
        seed = mix_seed(seed, part)
    return seed


def sweep(out_path, families, ns, ts, algos, trials: int = 5, psis=(None,),
          base_seed: int = 0, target_strategy: str = "random_node") -> int:
    """Run the Cartesian grid, appending one CSV row per record.

    Every record's seed is mixed from (base_seed, family, n, t, psi,
    trial), so a row's (family, algo, seed) names its full cell wherever the
    cell sits in the grid: a resumed sweep skips exactly the completed
    cells, even after the grid is reordered or extended, and a cell named
    twice, by a repeated grid value or algorithm, runs once. Each (cell,
    trial) instance is built once and shared by every algorithm. Each row is
    flushed as it is written; on resume a torn last row is dropped and run
    again, while a malformed row anywhere else raises. An unknown
    algorithm, family or target strategy, a psi below 1 or fewer than one
    trial, or an empty axis, raises before the file is touched, and an
    output folder that is missing or not writable before any instance is
    built; a new file gets its header along with its first row. Returns
    rows written.
    """
    axes = dict(family=families, n=ns, t=ts, algorithm=algos, psi=psis)
    for name, axis in axes.items():
        if not len(axis):
            raise TreeError("the %s axis is empty: no cell to run" % name)
    for algo in algos:
        if algo not in ALGORITHMS:
            raise TreeError("unknown algorithm %r" % (algo,))
    for family in families:
        check_names(family, target_strategy)
    for psi in psis:
        if psi is not None:
            check_psi(psi)
    if trials < 1:
        raise TreeError("need at least one trial, got %r" % (trials,))
    existing, header = prepare_append(out_path)
    done = {(rec.family, rec.algo, rec.seed) for rec in existing}
    fh = None
    written = 0
    try:
        for family, n, t, psi, trial in itertools.product(
                families, ns, ts, psis, range(trials)):
            seed = _cell_seed(base_seed, family, n, t, psi, trial)
            todo = [algo for algo in dict.fromkeys(algos)
                    if (family, algo, seed) not in done]
            if not todo:
                continue
            done.update((family, algo, seed) for algo in todo)
            spec = FamilySpec(family, n, t, seed, target_strategy)
            tree = build_instance(spec)
            for algo in todo:
                rec = _run_on(tree, spec, algo, psi)
                if fh is None:
                    fh = open(out_path, "a", encoding="utf-8")
                    fh.write(header)
                fh.write(rec.csv_row() + "\n")
                fh.flush()
                written += 1
    finally:
        if fh is not None:
            fh.close()
    return written


@dataclass(frozen=True)
class FitReport:
    """Per-algorithm log-log exponents: metric -> (n_exp, t_exp, residual)."""

    exponents: dict

    def format(self) -> str:
        lines = []
        for algo in sorted(self.exponents):
            for metric, (en, et, resid) in sorted(self.exponents[algo].items()):
                lines.append("%s %s: n^%.3f t^%.3f (rms %.4f)"
                             % (algo, metric, en, et, resid))
        return "\n".join(lines)


def fit_scaling(records, metrics=("steps", "oracle_calls")) -> FitReport:
    """Least-squares exponents of n and t on log-transformed per-cell means.

    Needs at least three distinct values of each fitted variable, and one
    psi per algorithm and (n, t) cell, since searches with different psi
    follow different laws; rows with t = 0 cannot be log-transformed and
    are skipped.
    """
    by_algo = {}
    for r in records:
        if r.found and r.t > 0 and r.n > 1:
            by_algo.setdefault(r.algo, []).append(r)
    if not by_algo:
        raise InsufficientGridError("no usable records")
    out = {}
    for algo, rows in by_algo.items():
        ns = {r.n for r in rows}
        ts = {r.t for r in rows}
        if len(ns) < 3 or len(ts) < 3:
            raise InsufficientGridError(
                "need 3 distinct n and t values, have %d and %d for %s"
                % (len(ns), len(ts), algo))
        cells = {}
        for r in rows:
            cells.setdefault((r.n, r.t), []).append(r)
        for (n, t), rs in sorted(cells.items()):
            psis = sorted({r.psi for r in rs})
            if len(psis) > 1:
                raise InsufficientGridError(
                    "%s rows at n=%d, t=%d carry psi %s; fit one psi at a "
                    "time" % (algo, n, t, ", ".join(map(str, psis))))
        per_metric = {}
        for metric in metrics:
            xs = []
            ys = []
            for (n, t), rs in sorted(cells.items()):
                mean = sum(getattr(r, metric) for r in rs) / len(rs)
                if mean <= 0:
                    continue
                xs.append((math.log2(n), math.log2(t), 1.0))
                ys.append(math.log2(mean))
            a = np.array(xs)
            b = np.array(ys)
            coef, *_ = np.linalg.lstsq(a, b, rcond=None)
            resid = float(np.sqrt(np.mean((a @ coef - b) ** 2)))
            per_metric[metric] = (float(coef[0]), float(coef[1]), resid)
        out[algo] = per_metric
    return FitReport(out)
