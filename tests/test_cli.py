from __future__ import annotations

import hashlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import qcalc
from qcalc import cli, metric
from qcalc.calculus import verify_remainder_bound
from qcalc.cli import emit_pairs_csv, main
from qcalc.errors import FormatError
from qcalc.fields import (CovectorField, ScalarField, covector_field_from_dict, dump_field,
                          load_field, scalar_field_from_dict)
from qcalc.geometry import build_carpet, build_gasket, build_polyline, dump_sample, load_sample

from conftest import NEAR_COINCIDENT_DOC


@pytest.fixture()
def workspace(tmp_path):
    """A gasket set plus matching field files on disk."""
    sample = build_gasket(2)
    paths = {
        "set": tmp_path / "set.json",
        "f": tmp_path / "f.json",
        "A": tmp_path / "A.json",
        "out": tmp_path / "out.json",
    }
    dump_sample(sample, str(paths["set"]))
    f = ScalarField.from_function(sample, lambda p: p[0] ** 2)
    A = CovectorField.from_function(sample, lambda p: (2 * p[0], 0.0))
    dump_field(f, str(paths["f"]))
    dump_field(A, str(paths["A"]))
    return sample, {k: str(v) for k, v in paths.items()}


def run(args, out_path):
    code = main(args + ["--out", out_path])
    with open(out_path) as fh:
        return code, json.load(fh)


def test_build_gasket_writes_sample(tmp_path):
    out = tmp_path / "g.json"
    assert main(["build", "gasket", "--level", "2", "--out", str(out)]) == 0
    sample = load_sample(str(out))
    assert sample.vertex_count == 15


def test_build_polyline_and_graph_and_dumbbell(tmp_path):
    out = str(tmp_path / "s.json")
    assert main(["build", "polyline", "--coords", "[[0,0],[1,0],[1,1]]", "--out", out]) == 0
    assert load_sample(out).edge_count == 2
    assert main(["build", "graph", "--slopes", "0.5,-0.5", "--step", "0.25",
                 "--span", "0", "2", "--out", out]) == 0
    assert load_sample(out).vertex_count == 9
    assert main(["build", "dumbbell", "--radius", "1", "--neck", "0.1",
                 "--step", "0.1963495408493621", "--out", out]) == 0
    assert load_sample(out).vertex_count == 65


def test_k_estimate_exhaustive(workspace, tmp_path):
    sample, paths = workspace
    code, doc = run(["k-estimate", paths["set"], "--exhaustive"], paths["out"])
    assert code == 0
    assert doc["method"] == "exhaustive"
    assert math.isclose(doc["k_hat"], metric.estimate_chord_arc(sample).k_hat)


def test_k_estimate_sampled_records_seed(workspace):
    sample, paths = workspace
    code, doc = run(["k-estimate", paths["set"], "--sample", "10", "--seed", "7"],
                    paths["out"])
    assert code == 0
    assert doc["method"] == "sampled" and doc["seed"] == 7


def test_k_estimate_sampled_seed_defaults_to_zero(workspace):
    sample, paths = workspace
    docs = [run(["k-estimate", paths["set"], "--sample", "10", *seed], paths["out"])
            for seed in ([], ["--seed", "0"])]
    assert docs[0] == docs[1] and docs[0][1]["seed"] == 0


@pytest.mark.parametrize("budget", ["0", "-3"])
def test_k_estimate_rejects_nonpositive_sample(workspace, budget, capsys):
    sample, paths = workspace
    assert main(["k-estimate", paths["set"], "--sample", budget]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "positive pair_budget" in captured.err


def test_geodesic_writes_path(workspace, tmp_path):
    sample, paths = workspace
    path_file = str(tmp_path / "path.json")
    code, doc = run(["geodesic", paths["set"], "0", "5", "--path", path_file],
                    paths["out"])
    assert code == 0
    assert doc["path_vertices"][0] == 0 and doc["path_vertices"][-1] == 5
    stored = json.load(open(path_file))
    assert stored["vertices"] == doc["path_vertices"]


def test_ftc_exit_codes(workspace, tmp_path):
    sample, paths = workspace
    code, doc = run(["ftc", paths["set"], paths["f"], paths["A"],
                     "--from", "0", "--to", "5"], paths["out"])
    assert code == 0 and doc["passed"]
    # constant field that is not the differential of x^2: residual large
    bad = str(tmp_path / "bad_A.json")
    dump_field(CovectorField.constant(sample, (1.0, 0.0)), bad)
    code, doc = run(["ftc", paths["set"], paths["f"], bad, "--from", "0", "--to", "5"],
                    paths["out"])
    assert code == 1 and not doc["passed"]
    # explicit vertex chain instead of endpoints
    code, doc = run(["ftc", paths["set"], paths["f"], paths["A"],
                     "--vertices", "0,1,2"], paths["out"])
    assert code == 0 and doc["path_vertices"] == [0, 1, 2]


def test_ftc_requires_path_spec(workspace):
    sample, paths = workspace
    assert main(["ftc", paths["set"], paths["f"], paths["A"]]) == 2


def test_reconstruct_report(workspace):
    sample, paths = workspace
    code, doc = run(["reconstruct", paths["set"], paths["A"], "--base", "0",
                     "--value", "0.0"], paths["out"])
    assert code == 0
    assert doc["warning"] is None
    vals = doc["field"]["values"]
    np.testing.assert_allclose(vals, sample.points_array[:, 0] ** 2, atol=1e-9)


def test_remainder_check_pass_and_csv(workspace, tmp_path):
    sample, paths = workspace
    khat = metric.estimate_chord_arc(sample).k_hat
    csv_path = str(tmp_path / "pairs.csv")
    code = main(["remainder-check", paths["set"], paths["f"], paths["A"],
                 "--k", repr(khat), "--csv", csv_path, "--out", paths["out"]])
    assert code == 0
    lines = open(csv_path).read().splitlines()
    assert lines[0] == "dist,remainder,bound"
    nv = sample.vertex_count
    assert len(lines) - 1 == nv * (nv - 1) // 2
    dists = [float(l.split(",")[0]) for l in lines[1:]]
    assert dists == sorted(dists)


def test_remainder_check_failing_fixture_exits_one(tmp_path):
    seg = build_polyline([(i / 64, 0.0) for i in range(65)])
    set_path = str(tmp_path / "seg.json")
    dump_sample(seg, set_path)
    f = ScalarField.from_function(seg, lambda p: p[0] ** 2)
    A = CovectorField.from_function(seg, lambda p: (2 * p[0] + 0.1, 0.0))
    fp, ap = str(tmp_path / "f.json"), str(tmp_path / "A.json")
    dump_field(f, fp)
    dump_field(A, ap)
    out = str(tmp_path / "rep.json")
    code = main(["remainder-check", set_path, fp, ap, "--k", "1.0", "--out", out])
    assert code == 1
    doc = json.load(open(out))
    assert doc["violation_count"] > 0
    assert doc["violations"]


def test_csv_row_count_matches_pair_count_gasket3(tmp_path):
    sample = build_gasket(3)
    set_path = str(tmp_path / "g3.json")
    dump_sample(sample, set_path)
    f = ScalarField.from_function(sample, lambda p: p[0] * p[1])
    A = CovectorField.from_function(sample, lambda p: (p[1], p[0]))
    fp, ap = str(tmp_path / "f.json"), str(tmp_path / "A.json")
    dump_field(f, fp)
    dump_field(A, ap)
    csv_path = str(tmp_path / "pairs.csv")
    khat = metric.estimate_chord_arc(sample).k_hat
    code = main(["remainder-check", set_path, fp, ap, "--k", repr(khat),
                 "--csv", csv_path, "--out", str(tmp_path / "r.json")])
    assert code == 0
    nv = sample.vertex_count
    assert len(open(csv_path).read().splitlines()) - 1 == nv * (nv - 1) // 2


def test_csv_only_for_remainder_check(workspace, tmp_path):
    sample, paths = workspace
    code = main(["k-estimate", paths["set"], "--csv", str(tmp_path / "x.csv")])
    assert code == 2


def test_holder_fit_cli(tmp_path):
    seg = build_polyline([(i / 512, 0.0) for i in range(513)])
    set_path = str(tmp_path / "seg.json")
    dump_sample(seg, set_path)
    f = ScalarField.from_function(seg, lambda p: p[0] ** 2 / 2)
    A = CovectorField.from_function(seg, lambda p: (p[0], 0.0))
    fp, ap = str(tmp_path / "f.json"), str(tmp_path / "A.json")
    dump_field(f, fp)
    dump_field(A, ap)
    out = str(tmp_path / "fit.json")
    code = main(["holder-fit", set_path, fp, ap, "--k", "1.0", "--out", out])
    assert code == 0
    doc = json.load(open(out))
    assert 0.9 <= doc["remainder"]["alpha_hat"] <= 1.1


def test_whitney_cli_pass_and_fail(tmp_path):
    sample = build_gasket(4)
    set_path = str(tmp_path / "g4.json")
    dump_sample(sample, set_path)
    f = ScalarField.from_function(sample, lambda p: p[0] ** 2 + p[1] ** 2)
    good = CovectorField.from_function(sample, lambda p: (2 * p[0], 2 * p[1]))
    bad = CovectorField(sample, good.covectors + np.array([0.1, 0.0]))
    fp = str(tmp_path / "f.json")
    dump_field(f, fp)
    gp, bp = str(tmp_path / "good.json"), str(tmp_path / "bad.json")
    dump_field(good, gp)
    dump_field(bad, bp)
    out = str(tmp_path / "w.json")
    assert main(["whitney", set_path, fp, gp, "--tol", "whitney=0.3", "--out", out]) == 0
    assert main(["whitney", set_path, fp, bp, "--out", out]) == 1


def test_flatness_cli(workspace):
    sample, paths = workspace
    code, doc = run(["flatness", paths["set"], "--index", "1", "--radius", "0.3"],
                    paths["out"])
    assert code == 0
    assert 0.0 <= doc["flatness_score"] <= 1.0


def test_clifford_cli_round_trip(tmp_path):
    partial = {"dim": 2, "columns": [[1.0, 0.0, 0.0, 0.0]]}
    pp = tmp_path / "partial.json"
    pp.write_text(json.dumps(partial))
    out = str(tmp_path / "full.json")
    assert main(["clifford", "complete", "--dim", "2", "--side", "left",
                 "--partial", str(pp), "--out", out]) == 0
    full = json.load(open(out))
    assert full["columns"][1] == [0.0, 0.0, 0.0, -1.0]
    cols = tmp_path / "cols.json"
    cols.write_text(json.dumps({"dim": full["dim"], "columns": full["columns"]}))
    assert main(["clifford", "check", str(cols), "--out", out]) == 0
    # breaking a coefficient must flip the exit code
    broken = {"dim": 2, "columns": [full["columns"][0], [0.0, 0.0, 0.0, 1.0]]}
    cols.write_text(json.dumps(broken))
    assert main(["clifford", "check", str(cols), "--out", out]) == 1


@pytest.mark.parametrize("doc, field, detail", [
    ([1, 2], "<root>", "JSON object"),
    ({"columns": [[1.0, 0.0, 0.0, 0.0]]}, "dim", "integer"),
    ({"dim": "2", "columns": [[1.0, 0.0, 0.0, 0.0]]}, "dim", "integer"),
    ({"dim": True, "columns": [[1.0, 0.0]]}, "dim", "integer"),
    ({"dim": 40, "columns": []}, "dim", "1..6"),
    ({"dim": 2}, "columns", "list"),
    ({"dim": 2, "columns": [["a", 0.0, 0.0, 0.0]]}, "columns", "column 0"),
    ({"dim": 2, "columns": [[1.0, 0.0, 0.0, 0.0], [float("nan"), 0.0, 0.0, 0.0]]},
     "columns", "column 1"),
    ({"dim": 2, "columns": [[1.0, 0.0, True, 0.0]]}, "columns", "column 0"),
    ({"dim": 2, "columns": [[1.0, 0.0, 0.0]]}, "columns", "column 0"),
    ({"dim": 2, "columns": [1.0]}, "columns", "column 0"),
], ids=["list", "no-dim", "string-dim", "bool-dim", "huge-dim", "no-columns",
        "string-entry", "nan-entry", "bool-entry", "short-column", "scalar-column"])
@pytest.mark.parametrize("action", ["check", "complete"])
def test_clifford_readers_reject_bad_documents(tmp_path, capsys, action, doc, field, detail):
    path = tmp_path / "cols.json"
    path.write_text(json.dumps(doc))
    argv = (["clifford", "check", str(path)] if action == "check" else
            ["clifford", "complete", "--dim", "2", "--partial", str(path)])
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"cols.json: invalid field '{field}'" in captured.err and detail in captured.err


def test_clifford_dimension_cli(tmp_path):
    out = str(tmp_path / "d.json")
    assert main(["clifford", "dimension", "--dim", "4", "--out", out]) == 0
    doc = json.load(open(out))
    assert doc["dimension"] == 48 == doc["closed_form"]


def test_graph_derivative_cli(tmp_path):
    sample = cli.geometry.build_lipschitz_graph([0.5], 0.0625, (0.0, 1.0))
    set_path = str(tmp_path / "graph.json")
    dump_sample(sample, set_path)
    zs = [complex(x, y) for x, y in sample.points_array.tolist()]
    f = ScalarField(sample, np.array([z * z for z in zs]))
    a = ScalarField(sample, np.array([2 * z for z in zs]))
    fp, ap = str(tmp_path / "f.json"), str(tmp_path / "a.json")
    dump_field(f, fp)
    dump_field(a, ap)
    out = str(tmp_path / "gd.json")
    assert main(["graph-derivative", set_path, fp, ap, "--out", out]) == 0
    wrong = ScalarField(sample, np.array([2 * z + 0.5 for z in zs]))
    dump_field(wrong, ap)
    assert main(["graph-derivative", set_path, fp, ap, "--out", out]) == 1


@pytest.mark.parametrize("cquad", ["inf", "nan", "-1"])
def test_graph_derivative_cquad_must_be_finite_and_nonnegative(tmp_path, capsys, cquad):
    # --cquad inf used to pass a failing check, with "threshold": Infinity
    sample = cli.geometry.build_lipschitz_graph([0.5], 0.0625, (0.0, 1.0))
    set_path, fp, ap = (str(tmp_path / name) for name in ("graph.json", "f.json", "a.json"))
    dump_sample(sample, set_path)
    zs = sample.points_array @ np.array([1, 1j])
    dump_field(ScalarField(sample, zs * zs), fp)
    dump_field(ScalarField(sample, 2 * zs + 0.5), ap)
    assert main(["graph-derivative", set_path, fp, ap, "--cquad", cquad]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"qcalc: c_quad must be finite and nonnegative, "
                            f"got {float(cquad)!r}\n")


# ---------------------------------------------------------------------------
# error contract


def test_malformed_json_names_file_and_field(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"version": 9, "ambient_dim": 2, "points": [[0, 0]],
                               "edges": [], "label": ""}))
    assert main(["k-estimate", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "bad.json" in err and "version" in err


@pytest.mark.parametrize("kind", ["set", "field"])
@pytest.mark.parametrize("version", [True, 1.0], ids=["true", "float"])
def test_version_must_be_a_json_integer(workspace, tmp_path, capsys, kind, version):
    _, paths = workspace
    doc = json.loads(Path(paths["set" if kind == "set" else "A"]).read_text())
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**doc, "version": version}))
    args = (["k-estimate", str(bad)] if kind == "set"
            else ["reconstruct", paths["set"], str(bad), "--base", "0"])
    capsys.readouterr()
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "'version'" in captured.err


def test_unparseable_json_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    assert main(["k-estimate", str(bad)]) == 2
    assert "bad.json" in capsys.readouterr().err


def test_unknown_tolerance_rejected(workspace, capsys):
    _, paths = workspace
    assert main(["remainder-check", paths["set"], paths["f"], paths["A"], "--k", "2",
                 "--tol", "bogus=1"]) == 2
    assert capsys.readouterr().err == "qcalc: unknown tolerance 'bogus' (known: remainder)\n"


#: the tolerance name each command reads through ``--tol``
TOLERANCE_OF = {"ftc": "ftc", "reconstruct": "loop", "remainder-check": "remainder",
                "whitney": "whitney", "clifford check": "monogenic", "graph-derivative": "graph"}
#: a complete command line for each ``cli.COMMANDS`` row; its files need not exist
VALID_ARGV = {
    "build gasket": "build gasket --level 2",
    "build carpet": "build carpet --level 1",
    "build polyline": "build polyline --coords [[0,0],[1,0]]",
    "build graph": "build graph --slopes 1 --step 0.5 --span 0 1",
    "build dumbbell": "build dumbbell --radius 1 --neck 0.1 --step 0.5",
    "k-estimate": "k-estimate set.json",
    "geodesic": "geodesic set.json 0 1",
    "ftc": "ftc set.json f.json A.json --from 0 --to 1",
    "reconstruct": "reconstruct set.json A.json --base 0",
    "remainder-check": "remainder-check set.json f.json A.json --k 2",
    "holder-fit": "holder-fit set.json f.json A.json",
    "whitney": "whitney set.json f.json A.json",
    "flatness": "flatness set.json --index 0 --radius 0.5",
    "clifford check": "clifford check cols.json",
    "clifford complete": "clifford complete --dim 2 --partial cols.json",
    "clifford dimension": "clifford dimension --dim 2",
    "graph-derivative": "graph-derivative set.json f.json a.json",
}


def parsed(parser, argv: list, capsys) -> tuple:
    """The options ``parser`` reads from ``argv`` (None on exit), its exit code, stdout, stderr."""
    try:
        result, code = vars(parser.parse_args(argv)), None
    except SystemExit as exc:
        result, code = None, exc.code
    captured = capsys.readouterr()
    return result, code, captured.out, captured.err


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_the_parser_for_a_command_line_reads_it_as_the_full_parser(monkeypatch, capsys, command):
    # a run adds only its own command's arguments; the same line, and the
    # line without its last positional argument, read the same
    monkeypatch.setenv("COLUMNS", "80")
    argv = VALID_ARGV[command].split()
    npos = next(i for i, word in enumerate([*argv, "-"]) if word.startswith("-"))
    short = argv[: npos - 1] + argv[npos:]
    full = parsed(cli.build_parser(), argv, capsys)
    assert full[0] is not None
    assert parsed(cli.build_parser(argv), argv, capsys) == full
    full = parsed(cli.build_parser(), short, capsys)
    assert full[1] == 2 and full[3]
    assert parsed(cli.build_parser(short), short, capsys) == full


@pytest.mark.parametrize("line", ["", "-h", "build", "build -h", "clifford", "clifford check -h",
                                  "definitely-not-a-command", "--bogus build gasket --level 2",
                                  "build --bogus gasket --level 2", "-- k-estimate set.json"])
def test_the_parser_for_help_and_malformed_lines_reads_them_as_the_full_parser(
        monkeypatch, capsys, line):
    monkeypatch.setenv("COLUMNS", "80")
    argv = line.split()
    full = parsed(cli.build_parser(), argv, capsys)
    assert parsed(cli.build_parser(argv), argv, capsys) == full


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_each_command_takes_only_the_options_it_reads(tmp_path, monkeypatch, capsys, command):
    # every command used to accept --seed, --csv and any --tol name, and to ignore them
    monkeypatch.chdir(tmp_path)
    argv = VALID_ARGV[command].split()
    cli.build_parser().parse_args(argv)
    assert main([*command.split(), "--help"]) == 0
    help_text = capsys.readouterr().out
    reads = {"--seed": command == "k-estimate", "--csv": command == "remainder-check",
             "--tol": command in TOLERANCE_OF}
    for flag, value in (("--seed", "1"), ("--csv", "x.csv"), ("--tol", "ftc=1")):
        assert (flag in help_text) == reads[flag], flag
        if not reads[flag]:
            assert main([*argv, flag, value]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.endswith(f"unrecognized arguments: {flag} {value}\n")
    if reads["--tol"]:
        name = TOLERANCE_OF[command]
        other = "loop" if name == "ftc" else "ftc"
        # no input file exists: the tolerance is checked before any is read
        assert main([*argv, "--tol", f"{other}=1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"qcalc: unknown tolerance '{other}' (known: {name})\n"
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1e-9"])
@pytest.mark.parametrize("name", ["remainder", "whitney"])
def test_tolerance_must_be_finite_and_nonnegative(workspace, capsys, name, value):
    # remainder=nan used to turn a failing check into a pass, with "tol": NaN
    _, paths = workspace
    argv = ([name + "-check", "--k", "0.6"] if name == "remainder" else [name])
    argv += [paths["set"], paths["f"], paths["A"], "--tol", f"{name}={value}"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"qcalc: --tol {name}: {value!r} is not a finite "
                            "nonnegative number\n")


def test_zero_tolerance_is_accepted(workspace):
    _, paths = workspace
    code, doc = run(["remainder-check", paths["set"], paths["f"], paths["A"], "--k", "1.0",
                     "--tol", "remainder=0"], paths["out"])
    assert code == 0 and doc["tol"] == 0.0


@pytest.mark.parametrize("argv,message", [
    (["remainder-check", "--k", "nan"], "k must be finite and positive, got nan"),
    (["holder-fit", "--k", "-1"], "k must be finite and positive, got -1.0"),
    (["holder-fit", "--k", "0"], "k must be finite and positive, got 0.0"),
    (["holder-fit", "--k", "nan"], "k must be finite and positive, got nan"),
    (["flatness", "--index", "-1", "--radius", "0.3"], "vertex -1 out of range"),
    (["flatness", "--index", "100000", "--radius", "0.3"], "vertex 100000 out of range"),
], ids=["remainder-k-nan", "holder-k-negative", "holder-k-zero", "holder-k-nan",
        "flatness-index-negative", "flatness-index-huge"])
def test_bad_k_and_vertex_index_exit_two(workspace, capsys, argv, message):
    _, paths = workspace
    files = [paths["set"]] if argv[0] == "flatness" else [paths["set"], paths["f"], paths["A"]]
    assert main(argv[:1] + files + argv[1:]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"qcalc: {message}\n"


@pytest.mark.parametrize("argv,message", [
    (["k-estimate", "SET", "--sample", "5", "--seed", "-1"], "--seed must be nonnegative, got -1"),
    (["k-estimate", "SET", "--exhaustive", "--sample", "5"],
     "--exhaustive and --sample N exclude each other"),
    (["reconstruct", "SET", "A", "--base", "0", "--value", "nan"],
     "base_value must be finite, got nan"),
    (["flatness", "SET", "--index", "0", "--radius", "inf"],
     "radius must be finite and positive, got inf"),
    (["whitney", "SET", "F", "A", "--buckets", "0"], "scale_buckets must be at least 3, got 0"),
    (["whitney", "SET", "F", "A", "--buckets", "-5"], "scale_buckets must be at least 3, got -5"),
    (["whitney", "SET", "F", "A", "--buckets", "1"], "scale_buckets must be at least 3, got 1"),
    (["whitney", "SET", "F", "A", "--buckets", "2"], "scale_buckets must be at least 3, got 2"),
    (["k-estimate", "SET", "--exhaustive", "--seed", "5"], "--seed applies only to --sample N"),
    (["k-estimate", "SET", "--seed", "0"], "--seed applies only to --sample N"),
    (["whitney", "SET", "F", "A", "--slack", "inf"],
     "decay_tol must be finite and nonnegative, got inf"),
    (["whitney", "SET", "F", "A", "--slack", "nan"],
     "decay_tol must be finite and nonnegative, got nan"),
    (["whitney", "SET", "F", "A", "--slack", "-1"],
     "decay_tol must be finite and nonnegative, got -1.0"),
    (["k-estimate", "SET", "--sample", "1000000000000"],
     "pair_budget 1000000000000 exceeds the cap of 16777216 pairs"),
    (["k-estimate", "SET", "--sample", "16777217"],
     "pair_budget 16777217 exceeds the cap of 16777216 pairs"),
], ids=["seed-negative", "exhaustive-and-sample", "value-nan", "radius-inf", "buckets-zero",
        "buckets-negative", "buckets-one", "buckets-two", "seed-exhaustive", "seed-no-sample",
        "slack-inf", "slack-nan", "slack-negative", "sample-huge", "sample-over-cap"])
def test_out_of_range_option_exits_two(workspace, capsys, argv, message):
    # each used to end in a traceback, or to exit 0 with a report that ignored the option
    _, paths = workspace
    files = {"SET": paths["set"], "F": paths["f"], "A": paths["A"]}
    assert main([files.get(a, a) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"qcalc: {message}\n"


def test_missing_file_exits_two(capsys):
    assert main(["k-estimate", "no-such-file.json"]) == 2


def test_usage_error_exits_two():
    assert main(["definitely-not-a-command"]) == 2


@pytest.mark.parametrize("argv,option", [
    (["ftc", "S", "f", "A", "--vertices", "0,x"], "--vertices"),
    (["build", "graph", "--slopes", "1,x", "--step", "0.5", "--span", "0", "1"], "--slopes"),
    (["build", "polyline", "--coords", '[[0,"a"],[1,1]]'], "--coords"),
    (["build", "polyline", "--coords", "5"], "--coords"),
], ids=["vertices", "slopes", "coords-text", "coords-scalar"])
def test_malformed_option_value_exits_two(capsys, argv, option):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert option in captured.err.splitlines()[-1]


def test_comma_lists_skip_blank_entries(tmp_path):
    out = str(tmp_path / "g.json")
    assert main(["build", "graph", "--slopes", "0.5,,-0.5,", "--step", "0.25",
                 "--span", "0", "2", "--out", out]) == 0
    assert load_sample(out).vertex_count == 9


@pytest.mark.parametrize("argv,message", [
    (["polyline", "--coords", "[[0,0],[1e400,1],[2,2]]"], "--coords"),
    (["dumbbell", "--radius", "inf", "--neck", "0.1", "--step", "0.5"], "finite"),
    (["graph", "--slopes", "1e308,1e308", "--step", "0.5", "--span", "0", "4"], "finite"),
    (["graph", "--slopes", "1", "--step", "0.5", "--span", "0", "inf"], "span must be finite"),
], ids=["polyline", "dumbbell", "graph-slopes", "graph-span"])
def test_build_never_writes_a_non_finite_sample(tmp_path, capsys, argv, message):
    out = tmp_path / "s.json"
    assert main(["build", *argv, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err.count("\n") == 1 and message in captured.err


@pytest.mark.parametrize("bad", [float("nan"), True], ids=["nan", "true"])
def test_k_estimate_rejects_bad_coordinate(tmp_path, capsys, bad):
    set_path = tmp_path / "set.json"
    set_path.write_text(json.dumps({
        "version": 1, "ambient_dim": 2, "label": "",
        "points": [[0.0, 0.0], [1.0, bad], [2.0, 0.0]],
        "edges": [[0, 1, 1.0], [1, 2, 1.0]],
    }))
    assert main(["k-estimate", str(set_path), "--sample", "50"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "set.json" in captured.err and "'points'" in captured.err


@pytest.mark.parametrize("command", ["k-estimate", "remainder-check", "holder-fit"])
def test_coincident_points_exit_two(tmp_path, capsys, command):
    # vertices 1 and 3 coincide (0.0 and -0.0 are the same coordinate)
    points = [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [1.0, -0.0], [3.0, 0.0]]
    set_path = tmp_path / "set.json"
    set_path.write_text(json.dumps({
        "version": 1, "ambient_dim": 2, "label": "", "points": points,
        "edges": [[i, i + 1, 1.0] for i in range(4)],
    }))
    field = tmp_path / "f.json"
    field.write_text(json.dumps({"version": 1, "set": "", "values": [0.0] * 5}))
    cov = tmp_path / "A.json"
    cov.write_text(json.dumps({"version": 1, "set": "", "covectors": [[0.0, 0.0]] * 5}))
    args = {"k-estimate": ["--exhaustive"], "remainder-check": [str(field), str(cov), "--k", "2"],
            "holder-fit": [str(field), str(cov)]}[command]
    assert main([command, str(set_path), *args]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "set.json" in captured.err and "'points'" in captured.err
    assert "points 1 and 3 coincide" in captured.err


@pytest.mark.parametrize("argv", [["k-estimate"], ["geodesic", "2", "0"]])
def test_self_loop_exits_two(tmp_path, capsys, argv):
    # a 3-point path with a zero-length loop at vertex 0 used to give exit 0
    # from k-estimate and an endless chain walk from geodesic 2 0
    set_path = tmp_path / "set.json"
    set_path.write_text(json.dumps({
        "version": 1, "ambient_dim": 2, "label": "",
        "points": [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]],
        "edges": [[0, 1, 1.0], [1, 2, 1.0], [0, 0, 0.0]],
    }))
    assert main([argv[0], str(set_path), *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "set.json" in captured.err and "'edges'" in captured.err
    assert "edge 2 is a self-loop at vertex 0" in captured.err


@pytest.mark.parametrize("command", ["k-estimate", "geodesic", "ftc"])
def test_wrong_edge_length_exits_two(tmp_path, capsys, command):
    # a unit gap that stores length 5 used to give k_hat = 5.0 and exit 0
    set_path = tmp_path / "set.json"
    set_path.write_text(json.dumps({
        "version": 1, "ambient_dim": 2, "label": "",
        "points": [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]],
        "edges": [[0, 1, 1.0], [1, 2, 5.0]],
    }))
    field = tmp_path / "f.json"
    field.write_text(json.dumps({"version": 1, "set": "", "values": [0.0] * 3}))
    cov = tmp_path / "A.json"
    cov.write_text(json.dumps({"version": 1, "set": "", "covectors": [[0.0, 0.0]] * 3}))
    args = {"k-estimate": ["--exhaustive"], "geodesic": ["0", "2"],
            "ftc": [str(field), str(cov), "--from", "0", "--to", "2"]}[command]
    assert main([command, str(set_path), *args]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "set.json" in captured.err and "'edges'" in captured.err
    assert "edge 1 stores 5.0 but endpoints are 1.0 apart" in captured.err


def run_qcalc_process(*argv, flags=()):
    """``python [flags] -m qcalc`` in a child process, killed after 60 s so that a
    hang fails."""
    env = {**os.environ, "PYTHONPATH": str(Path(qcalc.__file__).parents[1])}
    return subprocess.run([sys.executable, *flags, "-m", "qcalc", *argv], capture_output=True,
                          text=True, timeout=60, env=env)


def test_far_apart_points_write_one_error_line():
    # the duplicate-point scan's gaps overflow to inf; numpy used to print
    # two RuntimeWarnings before the error line
    proc = run_qcalc_process("build", "polyline", "--coords", "[[0,0],[1e308,0],[-1e308,0]]",
                             flags=("-W", "error::RuntimeWarning"))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "qcalc: points and edge lengths must be finite\n"


@pytest.mark.parametrize("argv", [
    ["graph", "--slopes", "1", "--step", "1", "--span", "0", "200000"],
    ["graph", "--slopes", "1", "--step", "1e-300", "--span", "0", "1e300"],
    ["dumbbell", "--radius", "1", "--neck", "0.1", "--step", "1e-9"],
], ids=["graph-200000", "graph-1e600", "dumbbell"])
def test_builds_over_the_point_cap_exit_two(tmp_path, capsys, argv):
    out = tmp_path / "s.json"
    assert main(["build", *argv, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err.count("\n") == 1 and "exceeds the cap of 32768 points" in captured.err


@pytest.fixture()
def near_path(tmp_path):
    path = tmp_path / "near.json"
    path.write_text(json.dumps(NEAR_COINCIDENT_DOC))
    return str(path)


@pytest.mark.parametrize("source,target,vertices", [(2, 0, [2, 0]), (2, 1, [2, 0, 1]),
                                                     (0, 2, [0, 2]), (0, 1, [0, 1])])
def test_geodesic_on_near_coincident_points_returns(near_path, source, target, vertices):
    # vertices 0 and 1 tie in float distance from 2; each used to be the
    # other's predecessor, and geodesic 2 0 walked that chain for ever
    proc = run_qcalc_process("geodesic", near_path, str(source), str(target))
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["path_vertices"] == vertices
    assert report["path_length"] == report["distance"]


def test_k_estimate_names_pair_whose_chord_rounds_to_zero(near_path):
    # the chord of points 0 and 1 squares to 0; it used to print k_hat Infinity
    proc = run_qcalc_process("k-estimate", near_path)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "qcalc: points 0 and 1 are too close: their chord rounds to 0\n"


@pytest.mark.parametrize("command", ["holder-fit", "whitney"])
def test_pair_scans_on_near_coincident_points_write_one_error_line(near_path, tmp_path, command):
    # the profile divides by the chord of points 0 and 1, which rounds to 0,
    # and takes its log2; numpy used to print RuntimeWarnings before the error
    f, A = tmp_path / "f.json", tmp_path / "A.json"
    f.write_text(json.dumps({"version": 1, "set": "", "values": [0, 1e-300, 1]}))
    A.write_text(json.dumps({"version": 1, "set": "", "covectors": [[1, 0]] * 3}))
    proc = run_qcalc_process(command, near_path, str(f), str(A))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "qcalc: only 0 populated scale buckets, need at least 3\n"


def test_reconstruct_on_near_coincident_points(near_path, tmp_path):
    cov = tmp_path / "A.json"
    cov.write_text(json.dumps({"version": 1, "set": "", "covectors": [[1, 0]] * 3}))
    proc = run_qcalc_process("reconstruct", near_path, str(cov), "--base", "2")
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["field"]["values"] == [-1.0, -1.0, 0.0]  # x - 1
    assert report["warning"] is None


def test_geodesic_and_reconstruct_where_a_vertex_ties_its_only_predecessor(tmp_path):
    # 1.0 + 1e-17 rounds to 1.0, so vertex 2 sits at vertex 1's float
    # distance from vertex 0 and can only be reached through it
    doc = {"version": 1, "ambient_dim": 2, "points": [[1, 0], [0, 0], [1e-17, 0]],
           "edges": [[0, 1, 1.0], [1, 2, 1e-17]]}
    path = tmp_path / "tail.json"
    path.write_text(json.dumps(doc))
    proc = run_qcalc_process("geodesic", str(path), "0", "2")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["path_vertices"] == [0, 1, 2]
    cov = tmp_path / "A.json"
    cov.write_text(json.dumps({"version": 1, "set": "", "covectors": [[1, 0]] * 3}))
    proc = run_qcalc_process("reconstruct", str(path), str(cov), "--base", "0")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["field"]["values"] == [0.0, -1.0, -1.0]  # x - 1


def test_reconstruct_fills_a_vertex_that_ties_its_predecessor_and_has_a_smaller_index(
        tmp_path):
    # vertex 1 ties vertex 2, its predecessor, at float distance 1.0 from
    # vertex 0 and comes first in (distance, index) order, so a fill in that
    # order read vertex 2's value before it was set
    doc = {"version": 1, "ambient_dim": 2, "points": [[1, 0], [1e-17, 0], [0, 0]],
           "edges": [[0, 2, 1.0], [2, 1, 1e-17]]}
    path = tmp_path / "tie.json"
    path.write_text(json.dumps(doc))
    cov = tmp_path / "A.json"
    cov.write_text(json.dumps({"version": 1, "set": "", "covectors": [[1, 0]] * 3}))
    proc = run_qcalc_process("reconstruct", str(path), str(cov), "--base", "0")
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["field"]["values"] == [0.0, -1.0, -1.0]  # x - 1
    assert report["warning"] is None


def test_chord_overflow_and_unbounded_k_on_the_command_line(tmp_path, capsys):
    far = str(tmp_path / "far.json")
    assert main(["build", "polyline", "--coords", "[[0,0],[1e200,0],[1e200,1e200]]",
                 "--out", far]) == 0
    capsys.readouterr()
    # the far polyline's chords overflow: exit 2, not k_hat 1.0
    assert main(["k-estimate", far, "--exhaustive"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "points span" in captured.err
    # with A = 0 the report and the pair rows do not depend on k
    db, fp, ap = (str(tmp_path / name) for name in ("db.json", "f.json", "A.json"))
    assert main(["build", "dumbbell", "--radius", "1", "--neck", "0.3", "--step", "0.2",
                 "--out", db]) == 0
    sample = load_sample(db)
    dump_field(ScalarField.from_function(sample, lambda p: p[0] ** 2), fp)
    dump_field(CovectorField.constant(sample, (0.0, 0.0)), ap)
    seen = []
    for k in ("2", "1e300", "1e308"):
        csv = tmp_path / f"pairs-{k}.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, doc = run(["remainder-check", db, fp, ap, "--k", k, "--csv", str(csv)],
                            str(tmp_path / "rep.json"))
        assert code == 1
        seen.append((doc["violation_count"], doc["violations"], doc["max_ratio"],
                     doc["max_ratio_pair"], csv.read_bytes()))
    assert seen[0][0] == 3724 and seen[1] == seen[0] and seen[2] == seen[0]


def test_holder_fit_rejects_nan_field(tmp_path, capsys):
    seg = build_polyline([(i / 64, 0.0) for i in range(65)])
    set_path = str(tmp_path / "seg.json")
    dump_sample(seg, set_path)
    f = ScalarField.from_function(seg, lambda p: p[0] ** 2)
    A = CovectorField.from_function(seg, lambda p: (2 * p[0], 0.0))
    fp, ap = str(tmp_path / "f.json"), str(tmp_path / "A.json")
    dump_field(f, fp)
    with open(fp) as fh:
        doc = json.load(fh)
    doc["values"][3] = float("nan")
    with open(fp, "w") as fh:
        json.dump(doc, fh)
    dump_field(A, ap)
    capsys.readouterr()
    assert main(["holder-fit", set_path, fp, ap, "--k", "1.0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "f.json" in captured.err and "'values'" in captured.err


@pytest.mark.parametrize("payload,field", [
    ({"values": [0.0, float("inf"), 1.0]}, "values"),
    ({"values": [0.0, [1.0, float("nan")], 1.0]}, "values"),
    ({"values": [0.0, False, 1.0]}, "values"),
    ({"covectors": [[0.0, 0.0], [float("nan"), 0.0], [1.0, 0.0]]}, "covectors"),
    ({"covectors": [[0.0, 0.0], [True, 0.0], [1.0, 0.0]]}, "covectors"),
    ({"covectors": [[0.0, 0.0], [[1.0, -float("inf")], 0.0], [1.0, 0.0]]}, "covectors"),
], ids=["inf-value", "nan-imag", "false-value", "nan-covector", "true-covector",
        "inf-imag-covector"])
def test_field_loader_rejects_non_finite_and_bool(tmp_path, payload, field):
    sample = build_polyline([(0, 0), (1, 0), (2, 0)])
    path = tmp_path / "field.json"
    path.write_text(json.dumps({"version": 1, "set": sample.fingerprint, **payload}))
    with pytest.raises(FormatError) as err:
        load_field(str(path), sample)
    assert err.value.field == field


@pytest.mark.parametrize("reader", [scalar_field_from_dict, covector_field_from_dict])
@pytest.mark.parametrize("header,message", [
    (None, "'<root>': document must be a JSON object"),
    ({}, "'version': unknown version"),
    ({"version": 2}, "'version': unknown version"),
    ({"version": 1, "set": 5}, "'set': must be a string"),
    ({"version": 1, "set": "other"}, "'set': refers to a different sample"),
], ids=["not-an-object", "no-version", "version-2", "set-not-a-string", "other-set"])
def test_field_readers_share_header_errors(reader, header, message):
    sample = build_polyline([(0, 0), (1, 0), (2, 0)], label="seg")
    payload = {"values": [0.0] * 3, "covectors": [[0.0, 0.0]] * 3}
    doc = [payload] if header is None else {**header, **payload}
    with pytest.raises(FormatError) as err:
        reader(doc, sample, source="f.json")
    assert str(err.value) == f"f.json: invalid field {message}"
    reader({"version": 1, "set": "seg", **payload}, sample)  # named by label


@pytest.mark.parametrize("reader", [scalar_field_from_dict, covector_field_from_dict])
def test_field_named_by_label_does_not_hash_the_sample(reader):
    # the header compared the fingerprint first, hashing the whole sample
    sample = build_polyline([(0, 0), (1, 0), (2, 0)], label="seg")
    reader({"version": 1, "set": "seg", "values": [0.0] * 3, "covectors": [[0.0, 0.0]] * 3},
           sample)
    assert "fingerprint" not in vars(sample)


# ---------------------------------------------------------------------------
# emit_pairs_csv unit contract


def test_emit_pairs_csv_empty_report():
    from qcalc.calculus import RemainderBoundReport

    empty = RemainderBoundReport(
        k=1.0, tol=1e-9, pair_count=0, violations=(), max_ratio=0.0,
        max_ratio_pair=(0, 0), passed=True,
        pair_dist=np.array([]), pair_remainder=np.array([]),
        pair_bound=np.array([]), pair_index=np.zeros((0, 2), dtype=int),
    )
    out = io.StringIO()
    emit_pairs_csv(empty, out)
    assert out.getvalue() == "dist,remainder,bound\n"


def test_emit_pairs_csv_three_pair_fixture():
    tri = build_polyline([(0, 0), (1, 0), (1, 1)])
    f = ScalarField.from_function(tri, lambda p: p[0] + p[1])
    A = CovectorField.constant(tri, (1.0, 1.0))
    report = verify_remainder_bound(f, A, tri, k=math.sqrt(2))
    out = io.StringIO()
    emit_pairs_csv(report, out)
    assert len(out.getvalue().splitlines()) == 4  # header + C(3,2) rows


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "qcalc.cli", "clifford", "dimension", "--dim", "2"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["dimension"] == 4


# ---------------------------------------------------------------------------
# determinism


def test_reports_are_byte_identical_across_runs(tmp_path):
    sample = build_gasket(2)
    set_path = str(tmp_path / "set.json")
    dump_sample(sample, set_path)
    f = ScalarField.from_function(sample, lambda p: p[0] ** 2)
    A = CovectorField.from_function(sample, lambda p: (2 * p[0], 0.0))
    fp, ap = str(tmp_path / "f.json"), str(tmp_path / "A.json")
    dump_field(f, fp)
    dump_field(A, ap)
    commands = [
        ["build", "gasket", "--level", "2"],
        ["k-estimate", set_path, "--exhaustive"],
        ["k-estimate", set_path, "--sample", "12", "--seed", "5"],
        ["geodesic", set_path, "0", "7"],
        ["ftc", set_path, fp, ap, "--from", "0", "--to", "5"],
        ["reconstruct", set_path, ap, "--base", "0", "--value", "0.0"],
        ["remainder-check", set_path, fp, ap, "--k", "2.0"],
        ["flatness", set_path, "--index", "1", "--radius", "0.3"],
        ["clifford", "dimension", "--dim", "3"],
    ]
    for cmd in commands:
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        assert main(cmd + ["--out", a]) in (0, 1)
        assert main(cmd + ["--out", b]) in (0, 1)
        assert open(a, "rb").read() == open(b, "rb").read(), cmd
        doc = json.load(open(a))
        assert doc.get("schema_version", doc.get("version")) == 1, cmd


def _gasket_quadratic(tmp_path, level):
    """Gasket ``level`` on disk with f = x^2 + xy - y^2/2 and its exact gradient."""
    sample = build_gasket(level)
    set_path = str(tmp_path / f"g{level}.json")
    dump_sample(sample, set_path)
    f = ScalarField.from_function(sample, lambda p: p[0] ** 2 + p[0] * p[1] - 0.5 * p[1] ** 2)
    A = CovectorField.from_function(sample, lambda p: (2 * p[0] + p[1], p[0] - p[1]))
    fp, ap = str(tmp_path / "f.json"), str(tmp_path / "A.json")
    dump_field(f, fp)
    dump_field(A, ap)
    return set_path, fp, ap


# sha256 of remainder-check stdout and of its --csv file on gasket 4 for
# f = x^2 + xy - y^2/2 with its exact gradient; k = 2.5 passes, k = 0.6 fails.
# No BLAS or LAPACK call reaches these bytes, or the reconstruct bytes below,
# so the pins hold on every OpenBLAS kernel
REMAINDER_DIGESTS = {
    "2.5": (0, "3b3760c4aea810ebcd93a284c2d7b16bdaec5432dbe8dd44e8027e3532ae685c",
            "c8d0c9fc535c7aa5f47f8933ea9c46d772620f401849cf9888c11f8ee72132f1"),
    "0.6": (1, "5895041183991e0c0dba23012594686eea950b9e22a2d43836a7a8a82169de60",
            "9a1bd0707370691903fdc16c88ac3fb81e6838d84ce2f0ca957f61c07aef8351"),
}


@pytest.mark.parametrize("k", sorted(REMAINDER_DIGESTS))
def test_remainder_check_bytes_are_pinned(tmp_path, capsys, k):
    set_path, fp, ap = _gasket_quadratic(tmp_path, 4)
    csv_path = tmp_path / "pairs.csv"
    capsys.readouterr()
    code = main(["remainder-check", set_path, fp, ap, "--k", k, "--csv", str(csv_path)])
    stdout = capsys.readouterr().out.encode()
    expect_code, stdout_digest, csv_digest = REMAINDER_DIGESTS[k]
    assert code == expect_code
    assert hashlib.sha256(stdout).hexdigest() == stdout_digest
    assert hashlib.sha256(csv_path.read_bytes()).hexdigest() == csv_digest
    # the pair buffers are only built for --csv; the report must not notice
    assert main(["remainder-check", set_path, fp, ap, "--k", k]) == expect_code
    assert capsys.readouterr().out.encode() == stdout


# sha256 of the stdout of pair-scan commands on the field above: holder-fit
# and whitney on gasket 5, the exhaustive chord-arc scan on gasket 4
SCAN_DIGESTS = {
    "holder-fit": (5, ["--k", "1.5"], 0,
                   "5c69da06ad9df660d966250127223487c191240379f0354f3cb5253441ef8709"),
    "whitney": (5, [], 0,
                "ab4c91bc71c478c894ec207dd4b8d7b684e3de30572103ffd97f51fd48e21d06"),
    "k-estimate": (4, ["--exhaustive"], 0,
                   "56068ce28f35f88d6990bbed32079e1abb4b2969ffeb062fb7108996abb38247"),
}


@pytest.mark.parametrize("command", sorted(SCAN_DIGESTS))
def test_pair_scan_bytes_are_pinned(tmp_path, capsys, command):
    level, extra, expect_code, digest = SCAN_DIGESTS[command]
    set_path, fp, ap = _gasket_quadratic(tmp_path, level)
    inputs = [set_path] if command == "k-estimate" else [set_path, fp, ap]
    capsys.readouterr()
    code = main([command, *inputs, *extra])
    stdout = capsys.readouterr().out.encode()
    assert code == expect_code
    assert hashlib.sha256(stdout).hexdigest() == digest


# sha256 of geodesic stdout and of its --path file on gasket 4.  Both pairs
# end at a vertex with two tied predecessors, so the tie rule picks the path.
# The distance runs from the smaller index and the path from the source, so
# for 122 -> 3 the report's distance and path_length differ in the last bit.
GEODESIC_DIGESTS = {
    (0, 23): ("275135d53022a582eff025e667bb01768701c54dbbde17ccaadc424a341a7623",
              "cdd800619322c4411f199022a1dfb036bafa7d0119e1e4f0657f14377d49ed25"),
    (122, 3): ("b79c4419520d7d497c91ccfffdf86f6fb860c26b6893f6a9d0aa578aca3907a4",
               "ed34b2b5eeff046642451bf59727fbfb2687557c22b242dc3bf1bed71c3ac8dd"),
}


@pytest.mark.parametrize("pair", sorted(GEODESIC_DIGESTS))
def test_geodesic_bytes_are_pinned(tmp_path, capsys, pair):
    set_path, path_file = str(tmp_path / "g4.json"), tmp_path / "path.json"
    dump_sample(build_gasket(4), set_path)
    capsys.readouterr()
    assert main(["geodesic", set_path, *map(str, pair), "--path", str(path_file)]) == 0
    stdout = capsys.readouterr().out.encode()
    stdout_digest, path_digest = GEODESIC_DIGESTS[pair]
    assert hashlib.sha256(stdout).hexdigest() == stdout_digest
    assert hashlib.sha256(path_file.read_bytes()).hexdigest() == path_digest


def _carpet_rotation(tmp_path):
    """Carpet 2 on disk with the rotation field (-y, x), which is not a gradient."""
    sample = build_carpet(2)
    set_path, ap = str(tmp_path / "c2.json"), str(tmp_path / "A.json")
    dump_sample(sample, set_path)
    dump_field(CovectorField.from_function(sample, lambda p: (-p[1], p[0])), ap)
    return set_path, ap


# sha256 of reconstruct stdout: gasket 4 with the exact gradient above, and
# carpet 2 with the rotation field, whose values hang on the shortest-path
# tree and whose report carries the loop-defect warning
RECONSTRUCT_DIGESTS = {
    "carpet 2": (3, "-1.25",
                 "3b30f79606c4618b8fd4749fc9eaecd0933b806a775da892fc18828d2d3dbd7d"),
    "gasket 4": (7, "0.5",
                 "03bcea094508eb8e346bebfdc8d034f9d2332b090edc29e4a430da9d8d5b8e5c"),
}


@pytest.mark.parametrize("name", sorted(RECONSTRUCT_DIGESTS))
def test_reconstruct_bytes_are_pinned(tmp_path, capsys, name):
    base, value, digest = RECONSTRUCT_DIGESTS[name]
    if name == "gasket 4":
        set_path, _, ap = _gasket_quadratic(tmp_path, 4)
    else:
        set_path, ap = _carpet_rotation(tmp_path)
    capsys.readouterr()
    assert main(["reconstruct", set_path, ap, "--base", str(base), "--value", value]) == 0
    stdout = capsys.readouterr().out.encode()
    assert hashlib.sha256(stdout).hexdigest() == digest


# sha256 of ``--help`` for the top level and every subcommand, and of the
# stderr of usage errors; the top-level, group and unknown-command pins date
# from before the dispatch table replaced the if-chain, the others from when
# each command came to list only the options it reads.  argparse lays help
# out by the terminal width and differently across Python versions, so the
# width is fixed and the pins are for 3.11
HELP_DIGESTS = {
    "": "38e2fbd8a299b2ee79e80f06f17e611cac4acc4fb3c30663ed94928135ce716b",
    "build": "0a9c6aad7bae55d2236cadcafb521ee3a909d5f9c4599564418a477fa3f85776",
    "build gasket": "90903f23a4488c0b127a0df815f49a3d47428343ecdf152e795458c13fc92ae6",
    "build carpet": "b617107f73e1a1901279c247901c01ca594f4544611f509632570e11780a653a",
    "build polyline": "5143991e5ada4ed0eecfd75fbf7f7809179c4427f447d305272508cc9ae4c2c4",
    "build graph": "1b16874e533bc61a775b56f5851c3bd50880d75da32213dd83bfd2fec235c44f",
    "build dumbbell": "fafbd9bc91df8db970e465bb7200b589d5b06a0cb73a7259ef1718e429d93f2c",
    "k-estimate": "41fe949ed146299b1f99cc6bf3ccdecd444a7b715f57015ade6da777f675ab29",
    "geodesic": "182bc8c3149e8151cca312cfa70236d589f6e3aa1720c4da4d8d76fbd0c08de5",
    "ftc": "4c2f543e4ffc02ad321c49efcd1914487a46572c213849349c79db6db52cb090",
    "reconstruct": "3a76d93f7b386ceb1ad273cf64a4019613e55f1f6b02f47fd5b0b5499a566e0e",
    "remainder-check": "00509bf45a1bb254623d68bbf30b2ab203ef20f413898ddd546bedce07076c78",
    "holder-fit": "905d21d60bdfab173d6d963a8cd2440e3fe27b4ae2283b356f64f12a8677847f",
    "whitney": "7eb85cd74632ccd0c6af7738c95287b4cf15896a594bc640d9aa350830ac5be8",
    "flatness": "6acde921202b468cd06767c54dc063d85b3030c7d3ead36d3396943e5c1cb651",
    "clifford": "76f93844ffcf5a401d86896f9015f294d553055bc0b4b6d699dcdff25780fe6e",
    "clifford check": "56176c812087fc68706ae4ad45932e6d1005a77c7aa94b8f15667a8a6bac8ec7",
    "clifford complete": "aaca6d4bb26be7f84667b7cd01f779887a1a30ebd9a047dbc045beb62ee53ab4",
    "clifford dimension": "a37d8453f6945b4b0e4445bd91baf07588b1564d895686d4288796dd86dadb62",
    "graph-derivative": "55477cf69c908b9e8b9634a0d6a95f6b8667afc45a3bac0c2759ef1a0a8afd94",
}
USAGE_ERROR_DIGESTS = {
    "definitely-not-a-command":
        "111ca605b7575bbc0fc09bc7da6e6123fa97333cb6258a2c9dc818c8794b5f25",
    "k-estimate": "15475782ccce4a88381d7654a87176e2042e25e5660aaad31267d8b8b63c6427",
    "build gasket": "a508fa44745295f3a70f52a0becbbaaa35adc58d3980cc378af82b37b91ecfe1",
}
py311_only = pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                                reason="argparse layout pinned with Python 3.11")


@py311_only
@pytest.mark.parametrize("command", sorted(HELP_DIGESTS))
def test_help_bytes_are_pinned(monkeypatch, capsys, command):
    monkeypatch.setenv("COLUMNS", "80")
    assert main([*command.split(), "--help"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert hashlib.sha256(captured.out.encode()).hexdigest() == HELP_DIGESTS[command]


@py311_only
@pytest.mark.parametrize("argv", sorted(USAGE_ERROR_DIGESTS))
def test_usage_error_bytes_are_pinned(monkeypatch, capsys, argv):
    monkeypatch.setenv("COLUMNS", "80")
    assert main(argv.split()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert hashlib.sha256(captured.err.encode()).hexdigest() == USAGE_ERROR_DIGESTS[argv]
