import dataclasses
import math
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bifurcation import cli, harness
from bifurcation.cli import main
from bifurcation.generators import FamilySpec, build_instance
from bifurcation.lowerbound import play_game
from bifurcation.model import InfeasibleInstanceError, TreeError
from bifurcation.harness import (CSV_HEADER, ExperimentRecord,
                                 InsufficientGridError, _cell_seed,
                                 fit_scaling, load_records, run_experiment,
                                 sweep)


def test_run_experiment_path_full():
    rec = run_experiment(FamilySpec("random", 64, 0, seed=5), "full")
    assert rec.steps == 128
    assert rec.found
    assert rec.cost_linear_decider == rec.steps + 64 * rec.oracle_calls


def test_run_experiment_refuses_an_unknown_algorithm_before_any_build(
        monkeypatch):
    # run_experiment's own TreeError, before build_instance is called
    builds = []
    monkeypatch.setattr(harness, "build_instance", builds.append)
    with pytest.raises(TreeError, match="unknown algorithm 'psychic'"):
        run_experiment(FamilySpec("random", 16, 2), "psychic")
    with pytest.raises(TreeError, match="psi must be at least 1"):
        run_experiment(FamilySpec("random", 16, 2), "bifurcation", psi=0)
    assert builds == []


def test_run_experiment_deterministic():
    spec = FamilySpec("random", 100, 9, seed=77)
    a = run_experiment(spec, "bifurcation")
    b = run_experiment(spec, "bifurcation")
    assert a == b


def test_run_experiment_complete_path_call_budget():
    spec = FamilySpec("complete_path", 64, 16, seed=0)
    rec = run_experiment(spec, "bifurcation", psi=4)
    assert rec.found
    assert rec.oracle_calls <= 8 * (4 + math.log2(64))


def test_sweep_row_count_and_header(tmp_path):
    out = tmp_path / "grid.csv"
    written = sweep(out, ["random"], [16, 32], [1, 3], ["full", "rounds"],
                    trials=3)
    assert written == 2 * 2 * 3 * 2
    lines = out.read_text().strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == written + 1
    recs = load_records(out)
    assert all(r.found for r in recs)


def test_sweep_resume_no_duplicates(tmp_path):
    out = tmp_path / "grid.csv"
    sweep(out, ["random"], [16, 32], [2], ["full"], trials=2)
    lines = out.read_text().strip().splitlines()
    # simulate an interrupted run by dropping the last rows
    out.write_text("\n".join(lines[:-3]) + "\n")
    added = sweep(out, ["random"], [16, 32], [2], ["full"], trials=2)
    assert added == 3
    recs = load_records(out)
    keys = [(r.family, r.algo, r.seed) for r in recs]
    assert len(keys) == len(set(keys)) == 4


def test_sweep_runs_a_repeated_cell_once(tmp_path):
    out = tmp_path / "grid.csv"
    grid = (["random"], [16, 16], [2], ["full", "full"])
    assert sweep(out, *grid, trials=1) == 1
    assert len(load_records(out)) == 1
    assert sweep(out, *grid, trials=1) == 0
    assert len(load_records(out)) == 1


def test_sweep_resume_after_torn_last_row(tmp_path):
    grid = (["random"], [16, 32], [2], ["full", "rounds"])
    whole = tmp_path / "whole.csv"
    sweep(whole, *grid, trials=2)
    expected = whole.read_text()
    cut = tmp_path / "cut.csv"
    sweep(cut, *grid, trials=2)
    text = cut.read_text()
    # a kill part-way through writing the third data row
    row2_end = text.index("\n", text.index("\n", text.index("\n") + 1) + 1)
    cut.write_text(text[:row2_end + 9])
    added = sweep(cut, *grid, trials=2)
    assert added == len(expected.splitlines()) - 3
    assert cut.read_text() == expected


_RESUME_GRID = (["random", "comb"], [16, 32], [2, 5], ["full", "rounds"])


@pytest.fixture(scope="module")
def finished_sweep(tmp_path_factory):
    path = tmp_path_factory.mktemp("whole") / "grid.csv"
    sweep(path, *_RESUME_GRID, trials=2)
    return path.read_bytes()


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_sweep_resume_from_any_byte_offset(finished_sweep, tmp_path_factory,
                                           data):
    # a kill can land anywhere, the header included
    offset = data.draw(st.integers(0, len(finished_sweep)))
    cut = tmp_path_factory.mktemp("cut") / "grid.csv"
    cut.write_bytes(finished_sweep[:offset])
    sweep(cut, *_RESUME_GRID, trials=2)
    assert cut.read_bytes() == finished_sweep


def test_sweep_resume_rejects_malformed_middle_row(tmp_path):
    out = tmp_path / "grid.csv"
    sweep(out, ["random"], [16, 32], [2], ["full"], trials=2)
    lines = out.read_text().splitlines()
    lines[2] = lines[2][:9]
    out.write_text("\n".join(lines) + "\n")
    with pytest.raises(TreeError):
        sweep(out, ["random"], [16, 32], [2], ["full"], trials=2)


@pytest.mark.parametrize("field, value", [("found", "maybe"),
                                          ("steps", "1.5")])
def test_sweep_resume_rejects_a_field_that_does_not_parse(tmp_path, field,
                                                          value):
    # a bool other than true/false, or an int that is no int, is malformed
    out = tmp_path / "grid.csv"
    sweep(out, ["random"], [16, 32], [2], ["full"], trials=2)
    lines = out.read_text().splitlines()
    vals = lines[2].split(",")
    vals[CSV_HEADER.split(",").index(field)] = value
    lines[2] = ",".join(vals)
    out.write_text("\n".join(lines) + "\n")
    before = out.read_bytes()
    with pytest.raises(TreeError, match="malformed row at line 3 of"):
        sweep(out, ["random"], [16, 32], [2], ["full"], trials=2)
    assert out.read_bytes() == before


_ROW = "random,16,2,2,full,0,38,6,true,14,134"


@pytest.mark.parametrize("row", [
    "random,1_6,2,2,full,0,38,6,true,14,134",
    "random,16,+2,2,full,0,38,6,true,14,134",
    "random,16,2,2, full ,0,38,6,true,14,134",
    "random,016,2,2,full,0,38,6,true,14,134",
], ids=["underscore", "sign", "spaces", "leading_zero"])
def test_prepare_append_rejects_a_row_that_csv_row_never_writes(tmp_path,
                                                                row):
    # int() and str take these, but a resumed sweep would then count a
    # hand-edited cell as done
    out = tmp_path / "grid.csv"
    out.write_text("%s\n%s\n" % (CSV_HEADER, _ROW))
    records, header, keep = harness.prepare_append(out)
    assert [r.csv_row() for r in records] == [_ROW] and header == ""
    assert keep == len(out.read_bytes())
    out.write_text("%s\n%s\n%s\n" % (CSV_HEADER, _ROW, row))
    before = out.read_bytes()
    with pytest.raises(TreeError, match="malformed row at line 3 of"):
        harness.prepare_append(out)
    assert out.read_bytes() == before


@pytest.mark.parametrize("argv", [
    ["search", "--family", "bogus"],
    ["search", "--target", "nowhere"],
    ["search", "--psi", "0"],
    ["search", "--family", "complete_path", "--t", "3"],
    ["search", "--n", "16", "--t", "2", "--target", "fixed:999"],
    ["sweep", "--family", "complete_path", "--n", "16", "--t", "3"],
], ids=["family", "target", "psi", "complete_path", "fixed", "sweep"])
def test_a_refused_run_leaves_a_torn_record_file_as_it_was(tmp_path, argv,
                                                           capsys):
    # the torn row is cut only as the first new row is written
    out = tmp_path / "grid.csv"
    whole = "%s\n%s\n" % (CSV_HEADER, _ROW)
    out.write_text(whole + "random,16")
    before = out.read_bytes()
    assert main(argv + ["--out", str(out)]) == 2
    assert out.read_bytes() == before
    capsys.readouterr()
    assert main(["search", "--n", "16", "--t", "2", "--algo", "full",
                 "--out", str(out)]) == 0
    row = capsys.readouterr().out.splitlines()[1]
    assert out.read_text() == whole + row + "\n"


def test_load_records_skips_blank_lines_between_rows(tmp_path):
    # _parse_records skips a blank line after the header
    out = tmp_path / "grid.csv"
    out.write_text("%s\n%s\n\n  \n%s\n\n" % (CSV_HEADER, _ROW, _ROW))
    assert [r.csv_row() for r in load_records(out)] == [_ROW, _ROW]


@pytest.mark.parametrize("text", [
    "\n",
    "\n%s\n" % CSV_HEADER,
    "\n%s\n%s\n" % (CSV_HEADER, _ROW),
], ids=["blank", "blank_then_header", "blank_then_header_and_row"])
def test_a_record_csv_that_opens_with_a_blank_line_is_refused(tmp_path,
                                                              capsys, text):
    # a blank first line is no header: rows appended below it would have
    # none above them, and a header below it is no row
    out = tmp_path / "grid.csv"
    out.write_text(text)
    before = out.read_bytes()
    with pytest.raises(TreeError, match="unexpected header in"):
        load_records(out)
    with pytest.raises(TreeError, match="unexpected header in"):
        sweep(out, ["random"], [16], [2], ["full"], trials=1)
    for argv in (["sweep", "--algo", "full", "--trials", "1"],
                 ["search", "--algo", "full"]):
        assert main(argv + ["--n", "16", "--t", "2", "--out", str(out)]) == 2
        assert "unexpected header in" in capsys.readouterr().err
    assert out.read_bytes() == before
    # an empty file is still a new one
    out.write_text("")
    assert sweep(out, ["random"], [16], [2], ["full"], trials=1) == 1
    assert out.read_text().splitlines()[0] == CSV_HEADER


def _rows(path):
    return sorted(path.read_text().splitlines()[1:])


def test_sweep_resume_after_reordering_the_grid(tmp_path):
    out = tmp_path / "grid.csv"
    sweep(out, ["random"], [64, 128], [4], ["full"], trials=2)
    added = sweep(out, ["random"], [256, 64, 128], [4], ["full"], trials=2)
    assert added == 2
    fresh = tmp_path / "fresh.csv"
    sweep(fresh, ["random"], [256, 64, 128], [4], ["full"], trials=2)
    assert _rows(out) == _rows(fresh)
    assert sorted(r.n for r in load_records(out)) == [64, 64, 128, 128,
                                                      256, 256]


def test_sweep_resume_after_extending_the_grid(tmp_path):
    out = tmp_path / "grid.csv"
    sweep(out, ["random", "comb"], [32, 64], [2], ["full", "rounds"],
          trials=2)
    added = sweep(out, ["random", "comb"], [32, 64], [2, 5],
                  ["full", "rounds"], trials=2)
    assert added == 2 * 2 * 1 * 2 * 2
    fresh = tmp_path / "fresh.csv"
    sweep(fresh, ["random", "comb"], [32, 64], [2, 5], ["full", "rounds"],
          trials=2)
    assert _rows(out) == _rows(fresh)


def test_sweep_rows_equal_run_experiment_records(tmp_path):
    out = tmp_path / "grid.csv"
    grid = (["random", "complete_path"], [64], [4, 16],
            ["bifurcation", "full", "rounds"])
    sweep(out, *grid, trials=2, psis=(None, 3))
    expected = [
        run_experiment(FamilySpec(family, n, t,
                                  _cell_seed(0, family, n, t, psi, trial)),
                       algo, psi).csv_row()
        for family in grid[0] for n in grid[1] for t in grid[2]
        for psi in (None, 3) for trial in range(2) for algo in grid[3]]
    assert out.read_text().splitlines()[1:] == expected


def test_sweep_rejects_unknown_algorithm_before_writing(tmp_path):
    out = tmp_path / "grid.csv"
    with pytest.raises(TreeError):
        sweep(out, ["random"], [16], [2], ["full", "nope"], trials=1)
    assert not out.exists()
    with pytest.raises(ValueError, match="family"):
        sweep(out, ["random", "bogus"], [16], [2], ["full"], trials=1)
    assert not out.exists()
    for target in ("nowhere", "fixed:first"):
        with pytest.raises(ValueError):
            sweep(out, ["random"], [16], [2], ["full"], trials=1,
                  target_strategy=target)
        assert not out.exists()
    # a well-formed target past the instance fails only once it is built
    with pytest.raises(InfeasibleInstanceError):
        sweep(out, ["random"], [64], [4], ["full"], trials=1,
              target_strategy="fixed:999")
    assert not out.exists()


def test_sweep_rejects_bad_psi_or_trials_before_touching_the_file(tmp_path):
    out = tmp_path / "grid.csv"
    for kwargs in ({"psis": (None, 0)}, {"psis": (-5,)}, {"trials": 0}):
        with pytest.raises(TreeError):
            sweep(out, ["random"], [16], [2], ["full"], **kwargs)
        assert not out.exists()
    # a torn last row is left as it was too
    out.write_text(CSV_HEADER + "\nrandom,16")
    with pytest.raises(TreeError):
        sweep(out, ["random"], [16], [2], ["full"], psis=(0,))
    assert out.read_text() == CSV_HEADER + "\nrandom,16"


# sweep() keyword per axis, and the name its error gives the axis
AXES = {"families": "family", "ns": "n", "ts": "t", "algos": "algorithm",
        "psis": "psi"}


@pytest.mark.parametrize("axis", AXES)
def test_sweep_with_an_empty_axis_fails_before_touching_the_file(tmp_path,
                                                                 axis):
    out = tmp_path / "grid.csv"
    grid = dict(families=["random"], ns=[16], ts=[2], algos=["full"],
                psis=(None,))
    grid[axis] = []
    with pytest.raises(TreeError, match="the %s axis is empty" % AXES[axis]):
        sweep(out, grid.pop("families"), grid.pop("ns"), grid.pop("ts"),
              grid.pop("algos"), trials=1, **grid)
    assert not out.exists()


def test_sweep_checks_its_output_before_any_build(tmp_path, monkeypatch):
    builds = []

    def counting_build(spec):
        builds.append(spec)
        return build_instance(spec)

    monkeypatch.setattr(harness, "build_instance", counting_build)
    not_a_folder = tmp_path / "file"
    not_a_folder.write_text("")
    for out in (tmp_path / "missing" / "grid.csv", not_a_folder / "grid.csv"):
        with pytest.raises(OSError):
            sweep(out, ["random"], [16], [2], ["full"], trials=1)
        assert builds == []
    # a writable folder still gets no file until the first row
    out = tmp_path / "grid.csv"
    with pytest.raises(InfeasibleInstanceError):
        sweep(out, ["random"], [64], [4], ["full"], trials=1,
              target_strategy="fixed:999")
    assert len(builds) == 1
    assert not out.exists()
    assert sweep(out, ["random"], [16], [2], ["full"], trials=1) == 1
    assert out.read_text().startswith(CSV_HEADER + "\n")


def test_sweep_refuses_a_negative_fixed_target_before_any_build(
        tmp_path, monkeypatch):
    builds = []

    def counting_build(spec):
        builds.append(spec)
        return build_instance(spec)

    monkeypatch.setattr(harness, "build_instance", counting_build)
    out = tmp_path / "grid.csv"
    for target in ("fixed:-1", "fixed:-999", "fixed:abc", "fixed:"):
        with pytest.raises(ValueError, match="'%s' needs an integer K >= 0"
                           % target):
            sweep(out, ["random"], [64], [4], ["full"], trials=1,
                  target_strategy=target)
    assert builds == []
    assert not out.exists()


@pytest.mark.parametrize("family, first_n, last_n, t, nodes", [
    ("comb", 128, 16, 2, 34), ("complete_path", 64, 8, 4, 25)])
def test_sweep_refuses_a_fixed_target_past_a_later_cell_before_any_row(
        tmp_path, capsys, monkeypatch, family, first_n, last_n, t, nodes):
    # K = 100 fits the first cell's instance but not the last one's
    assert build_instance(FamilySpec(family, last_n, t)).size == nodes
    builds = []
    monkeypatch.setattr(harness, "build_instance", builds.append)
    argv = ["sweep", "--family", family, "--n", "%d,%d" % (first_n, last_n),
            "--t", str(t), "--algo", "full", "--trials", "1",
            "--target", "fixed:100"]
    out = tmp_path / "s.csv"
    assert main(argv + ["--out", str(out)]) == 2
    assert "fixed target 100 out of range" in capsys.readouterr().err
    assert not out.exists()
    out.write_text("%s\n%s\n" % (CSV_HEADER, _ROW))
    before = out.read_bytes()
    assert main(argv + ["--out", str(out)]) == 2
    assert out.read_bytes() == before
    assert builds == []


@pytest.mark.parametrize("grid, message", [
    (["--family", "random,complete_path", "--n", "16", "--t", "2,4"],
     "complete_path needs t = h * h"),
    (["--n", "16,0", "--t", "2"], "need n >= 1"),
    (["--family", "complete_path", "--n", "4096,1024", "--t", "64,256"],
     "past the cap"),
], ids=["complete_path_square", "n", "node_cap"])
def test_cli_sweep_refuses_an_infeasible_cell_before_the_first_row(
        tmp_path, capsys, grid, message):
    """A (family, n, t) cell that no instance fits is refused before the
    file is read, even when feasible cells come first in the grid."""
    out = tmp_path / "s.csv"
    argv = ["sweep", "--algo", "full", "--trials", "1",
            "--out", str(out)] + grid
    assert main(argv) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()
    out.write_text("%s\n%s\n" % (CSV_HEADER, _ROW))
    before = out.read_bytes()
    assert main(argv) == 2
    assert message in capsys.readouterr().err
    assert out.read_bytes() == before


@pytest.mark.parametrize("option", ["--family", "--n", "--t", "--algo",
                                    "--psi"])
def test_cli_sweep_with_an_empty_axis_exits_2(tmp_path, capsys, option):
    out = tmp_path / "s.csv"
    # a repeated option takes its last value, so the empty list wins
    assert main(["sweep", "--n", "16", "--t", "2", "--trials", "1",
                 "--out", str(out), option, ","]) == 2
    captured = capsys.readouterr()
    assert "axis is empty" in captured.err
    assert "wrote" not in captured.out
    assert not out.exists()


def _synthetic(records_fn):
    recs = []
    for n in (256, 1024, 4096):
        for t in (4, 16, 64):
            recs.append(ExperimentRecord(
                family="random", n=n, t=t, psi=1, algo="synthetic", seed=0,
                steps=records_fn(n, t), oracle_calls=10, found=True,
                target_inorder_rank=0, cost_linear_decider=0))
    return recs


def test_fit_recovers_planted_sqrt_law():
    recs = _synthetic(lambda n, t: round(n * math.sqrt(t)))
    rep = fit_scaling(recs, metrics=("steps",))
    en, et, resid = rep.exponents["synthetic"]["steps"]
    assert abs(en - 1.0) < 1e-6
    assert abs(et - 0.5) < 1e-6
    assert resid < 1e-6


def test_fit_recovers_planted_linear_law():
    recs = _synthetic(lambda n, t: n * t)
    rep = fit_scaling(recs, metrics=("steps",))
    en, et, _ = rep.exponents["synthetic"]["steps"]
    assert abs(en - 1.0) < 1e-6
    assert abs(et - 1.0) < 1e-6


def test_fit_takes_any_sequence_of_records():
    recs = _synthetic(lambda n, t: n * t)
    assert fit_scaling(tuple(recs)) == fit_scaling(recs)


def test_fit_of_no_records_is_refused():
    # fit_scaling's InsufficientGridError when no record is usable
    with pytest.raises(InsufficientGridError, match="no usable records"):
        fit_scaling([])


def test_fit_requires_grid_richness():
    recs = [r for r in _synthetic(lambda n, t: n) if r.t == 4]
    with pytest.raises(InsufficientGridError):
        fit_scaling(recs, metrics=("steps",))


def test_fit_refuses_a_cell_that_mixes_psi():
    recs = _synthetic(lambda n, t: n * t)
    mixed = recs + [dataclasses.replace(recs[4], psi=4, steps=7)]
    with pytest.raises(InsufficientGridError,
                       match=r"synthetic rows at n=1024, t=16 carry psi 1, 4"):
        fit_scaling(mixed, metrics=("steps",))
    # one psi per cell, even a different one in each cell, still fits
    each = [dataclasses.replace(r, psi=i + 1) for i, r in enumerate(recs)]
    assert fit_scaling(each, metrics=("steps",)) == fit_scaling(
        recs, metrics=("steps",))


# ------------------------------------------------------------------- CLI


def test_cli_search(capsys):
    assert main(["search", "--family", "random", "--n", "64", "--t", "4",
                 "--algo", "bifurcation", "--seed", "3"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == CSV_HEADER
    assert out[1].split(",")[8] == "true"


def test_cli_search_out_follows_the_sweep_append_rules(tmp_path, capsys):
    out = tmp_path / "s.csv"
    sweep(out, ["random"], [16, 32], [2], ["full"], trials=1)
    whole = out.read_text()
    out.write_text(whole[:-5])  # killed part-way through the last row
    assert main(["search", "--n", "64", "--t", "4", "--algo", "full",
                 "--out", str(out)]) == 0
    row = capsys.readouterr().out.splitlines()[1]
    lines = out.read_text().splitlines()
    assert lines == whole.splitlines()[:-1] + [row]
    assert len(load_records(out)) == 2
    # a CSV with another header is refused before anything is written, its
    # unterminated last line included
    other = tmp_path / "other.csv"
    other.write_text("a,b\n1,2")
    assert main(["search", "--n", "64", "--t", "4", "--algo", "full",
                 "--out", str(other)]) == 2
    assert "unexpected header" in capsys.readouterr().err
    assert other.read_text() == "a,b\n1,2"


def test_cli_search_checks_its_output_before_any_build(tmp_path, capsys,
                                                      monkeypatch):
    builds = []

    def counting_build(spec):
        builds.append(spec)
        return build_instance(spec)

    monkeypatch.setattr(harness, "build_instance", counting_build)
    assert main(["search", "--n", "16", "--t", "2", "--out",
                 str(tmp_path / "missing" / "s.csv")]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert builds == []
    assert main(["search", "--n", "16", "--t", "2", "--out",
                 str(tmp_path / "s.csv")]) == 0
    assert len(builds) == 1


def test_cli_search_complete_path_by_height(capsys):
    assert main(["search", "--family", "complete_path", "--n", "12",
                 "--t", "9", "--algo", "rounds", "--seed", "1"]) == 0
    row = capsys.readouterr().out.strip().splitlines()[1].split(",")
    assert row[0] == "complete_path"
    assert row[1] == "12"  # n = h * (n // h) with h = sqrt(t) = 3
    assert row[2] == "7"   # 2**h - 1 forks


def test_cli_search_rejects_psi_below_one(capsys):
    for psi in ("0", "-5"):
        assert main(["search", "--n", "64", "--t", "4", "--psi", psi]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "psi" in captured.err


def test_cli_search_rejects_complete_path_below_its_height(capsys):
    assert main(["search", "--family", "complete_path", "--n", "0",
                 "--t", "4", "--algo", "full"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "complete_path of height 2" in captured.err


def test_cli_sweep_rejects_bad_names_before_writing(tmp_path, capsys):
    out = tmp_path / "s.csv"
    for extra in (["--family", "bogus"], ["--target", "nowhere"],
                  ["--psi", "0"], ["--psi", "2,-5"], ["--trials", "0"]):
        assert main(["sweep", "--n", "64", "--t", "4", "--trials", "1",
                     "--out", str(out)] + extra) == 2
        assert "error" in capsys.readouterr().err
        assert not out.exists()


def test_cli_sweep_and_fit(tmp_path, capsys):
    out = str(tmp_path / "s.csv")
    assert main(["sweep", "--family", "random", "--n", "64,128,256",
                 "--t", "2,4,8", "--algo", "full", "--trials", "2",
                 "--out", out]) == 0
    assert main(["fit", out]) == 0
    text = capsys.readouterr().out
    assert "full steps" in text


def test_cli_fit_of_a_sweep_over_two_psi_exits_2(tmp_path, capsys):
    out = str(tmp_path / "s.csv")
    assert main(["sweep", "--family", "random", "--n", "64,128,256",
                 "--t", "2,4,8", "--psi", "1,8", "--algo", "bifurcation",
                 "--trials", "1", "--out", out]) == 0
    capsys.readouterr()
    assert main(["fit", out]) == 2
    err = capsys.readouterr().err
    assert "bifurcation rows at n=64, t=2 carry psi 1, 2" in err


def test_cli_game_and_minimax(capsys, tmp_path):
    out = str(tmp_path / "g.csv")
    assert main(["game", "--strategy", "random", "--h", "4", "--seed", "2",
                 "--out", out]) == 0
    body = capsys.readouterr().out
    assert body.startswith("step,query,price,answer,range_lo,range_hi")
    assert "total_price," in body
    assert os.path.getsize(out) > 0
    assert main(["minimax", "--h", "3"]) == 0
    assert capsys.readouterr().out.strip() == "7"


def test_cli_game_checks_its_output_before_playing(tmp_path, capsys,
                                                  monkeypatch):
    games = []

    def counting_play(*args):
        games.append(args)
        return play_game(*args)

    monkeypatch.setattr(cli, "play_game", counting_play)
    assert main(["game", "--h", "3", "--out",
                 str(tmp_path / "missing" / "g.csv")]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert games == []
    out = tmp_path / "g.csv"
    assert main(["game", "--h", "3", "--out", str(out)]) == 0
    assert len(games) == 1
    assert out.read_text().startswith("step,query,price")


@pytest.mark.parametrize("argv", [
    ["game", "--h", "3"],
    ["search", "--n", "16", "--t", "2"],
    ["sweep", "--n", "16", "--t", "2", "--trials", "1"],
], ids=["game", "search", "sweep"])
def test_cli_refuses_an_output_folder_before_any_work(tmp_path, capsys,
                                                      monkeypatch, argv):
    def refuse(*args):
        raise AssertionError("work started: %r" % (args,))

    monkeypatch.setattr(cli, "play_game", refuse)
    monkeypatch.setattr(harness, "build_instance", refuse)
    assert main(argv + ["--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert os.listdir(tmp_path) == []


def test_cli_rejects_abbreviated_options(capsys):
    # --h once abbreviated --help, so a removed option exited 0 unnoticed
    for argv in (["search", "--h", "4", "--delta", "16"],
                 ["search", "--fam", "comb"],
                 ["sweep", "--n", "64", "--t", "4", "--ou", "x.csv"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error:" in captured.err
    # commands that define --h themselves keep it
    assert main(["game", "--h", "3"]) == 0
    assert "total_price," in capsys.readouterr().out
    assert main(["minimax", "--h", "4"]) == 0
    assert capsys.readouterr().out.strip() == "11"


@pytest.mark.parametrize("argv", [
    ["fit", "{missing}/s.csv"],
    ["fit", "{dir}"],
    ["sweep", "--n", "16", "--t", "2", "--trials", "1",
     "--out", "{missing}/s.csv"],
    ["search", "--n", "16", "--t", "2", "--out", "{missing}/s.csv"],
    ["game", "--h", "3", "--out", "{missing}/g.csv"],
], ids=["fit-missing", "fit-directory", "sweep-out", "search-out",
        "game-out"])
def test_cli_file_errors_exit_2(tmp_path, capsys, argv):
    paths = dict(missing=tmp_path / "missing", dir=tmp_path)
    assert main([a.format(**paths) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err
    assert not (tmp_path / "missing").exists()


def test_cli_adversary(capsys):
    assert main(["adversary", "--n", "64", "--t", "4", "--algo", "rounds"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0].startswith("player,n,t,h")
    assert out[1].endswith("true")  # replay consistency
