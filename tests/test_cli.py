from __future__ import annotations

import hashlib
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from qcalc import cli, metric
from qcalc.calculus import verify_remainder_bound
from qcalc.cli import emit_pairs_csv, main
from qcalc.fields import CovectorField, ScalarField, dump_field
from qcalc.geometry import build_gasket, build_polyline, dump_sample, load_sample


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
    np.testing.assert_allclose(vals, [p[0] ** 2 for p in sample.points], atol=1e-9)


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


def test_clifford_dimension_cli(tmp_path):
    out = str(tmp_path / "d.json")
    assert main(["clifford", "dimension", "--dim", "4", "--out", out]) == 0
    doc = json.load(open(out))
    assert doc["dimension"] == 48 == doc["closed_form"]


def test_graph_derivative_cli(tmp_path):
    sample = cli.geometry.build_lipschitz_graph([0.5], 0.0625, (0.0, 1.0))
    set_path = str(tmp_path / "graph.json")
    dump_sample(sample, set_path)
    zs = [complex(p[0], p[1]) for p in sample.points]
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


# ---------------------------------------------------------------------------
# error contract


def test_malformed_json_names_file_and_field(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"version": 9, "ambient_dim": 2, "points": [[0, 0]],
                               "edges": [], "label": ""}))
    assert main(["k-estimate", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "bad.json" in err and "version" in err


def test_unparseable_json_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    assert main(["k-estimate", str(bad)]) == 2
    assert "bad.json" in capsys.readouterr().err


def test_unknown_tolerance_rejected(workspace, capsys):
    _, paths = workspace
    assert main(["k-estimate", paths["set"], "--tol", "bogus=1"]) == 2
    assert "bogus" in capsys.readouterr().err


def test_missing_file_exits_two(capsys):
    assert main(["k-estimate", "no-such-file.json"]) == 2


def test_usage_error_exits_two():
    assert main(["definitely-not-a-command"]) == 2


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
    assert emit_pairs_csv(empty) == "dist,remainder,bound\n"


def test_emit_pairs_csv_three_pair_fixture():
    tri = build_polyline([(0, 0), (1, 0), (1, 1)])
    f = ScalarField.from_function(tri, lambda p: p[0] + p[1])
    A = CovectorField.constant(tri, (1.0, 1.0))
    report = verify_remainder_bound(f, A, tri, k=math.sqrt(2))
    text = emit_pairs_csv(report)
    assert len(text.splitlines()) == 4  # header + C(3,2) rows


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


# sha256 of remainder-check stdout and of its --csv file on gasket 4 for
# f = x^2 + xy - y^2/2 with its exact gradient; k = 2.5 passes, k = 0.6 fails
REMAINDER_DIGESTS = {
    "2.5": (0, "3b3760c4aea810ebcd93a284c2d7b16bdaec5432dbe8dd44e8027e3532ae685c",
            "d6ccaffc887474bb383228e83c41c7656d23a59288da2c40d51dcceb164049c1"),
    "0.6": (1, "5895041183991e0c0dba23012594686eea950b9e22a2d43836a7a8a82169de60",
            "09e749ac6b21fa2599e8cda0d681b5bb3c1417159d9d22399cc2162a4b25a2e7"),
}


@pytest.mark.parametrize("k", sorted(REMAINDER_DIGESTS))
def test_remainder_check_bytes_are_pinned(tmp_path, capsys, k):
    sample = build_gasket(4)
    set_path = str(tmp_path / "g4.json")
    dump_sample(sample, set_path)
    f = ScalarField.from_function(sample, lambda p: p[0] ** 2 + p[0] * p[1] - 0.5 * p[1] ** 2)
    A = CovectorField.from_function(sample, lambda p: (2 * p[0] + p[1], p[0] - p[1]))
    fp, ap = str(tmp_path / "f.json"), str(tmp_path / "A.json")
    dump_field(f, fp)
    dump_field(A, ap)
    csv_path = tmp_path / "pairs.csv"
    capsys.readouterr()
    code = main(["remainder-check", set_path, fp, ap, "--k", k, "--csv", str(csv_path)])
    stdout = capsys.readouterr().out.encode()
    expect_code, stdout_digest, csv_digest = REMAINDER_DIGESTS[k]
    assert code == expect_code
    assert hashlib.sha256(stdout).hexdigest() == stdout_digest
    assert hashlib.sha256(csv_path.read_bytes()).hexdigest() == csv_digest
