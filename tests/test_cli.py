from __future__ import annotations

import hashlib
import io
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from qcalc import cli, metric
from qcalc.calculus import verify_remainder_bound
from qcalc.cli import emit_pairs_csv, main
from qcalc.errors import FormatError
from qcalc.fields import CovectorField, ScalarField, dump_field, load_field
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


def test_holder_fit_rejects_nan_field(tmp_path, capsys):
    seg = build_polyline([(i / 64, 0.0) for i in range(65)])
    set_path = str(tmp_path / "seg.json")
    dump_sample(seg, set_path)
    f = ScalarField.from_function(seg, lambda p: p[0] ** 2)
    A = CovectorField.from_function(seg, lambda p: (2 * p[0], 0.0))
    fp, ap = str(tmp_path / "f.json"), str(tmp_path / "A.json")
    doc = f.as_dict()
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
# f = x^2 + xy - y^2/2 with its exact gradient; k = 2.5 passes, k = 0.6 fails
REMAINDER_DIGESTS = {
    "2.5": (0, "3b3760c4aea810ebcd93a284c2d7b16bdaec5432dbe8dd44e8027e3532ae685c",
            "d6ccaffc887474bb383228e83c41c7656d23a59288da2c40d51dcceb164049c1"),
    "0.6": (1, "5895041183991e0c0dba23012594686eea950b9e22a2d43836a7a8a82169de60",
            "09e749ac6b21fa2599e8cda0d681b5bb3c1417159d9d22399cc2162a4b25a2e7"),
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


# sha256 of ``--help`` for the top level and every subcommand, and of the
# stderr of usage errors, captured before the dispatch table replaced the
# if-chain; argparse lays help out by the terminal width and differently
# across Python versions, so the width is fixed and the pins are for 3.11
HELP_DIGESTS = {
    "": "38e2fbd8a299b2ee79e80f06f17e611cac4acc4fb3c30663ed94928135ce716b",
    "build": "0a9c6aad7bae55d2236cadcafb521ee3a909d5f9c4599564418a477fa3f85776",
    "build gasket": "b7e9921e587973b6d3938264a432adbf33918d3fbe61612823b48a571ea718bb",
    "build carpet": "16f85d0fce1b469f111b5c2499760293bd1965c808cdfb0de059cb31641f91e6",
    "build polyline": "5e0ba4cf54bf374b0bd21f06ead70edbe30cfe386bd8bfc92d0751514766ac72",
    "build graph": "17e30cfdd71c85f3175ff4dc41c56fe3a889b7fb70818b62930022ebd899ab00",
    "build dumbbell": "3137987ebdabede5abce93b935c3874533946847607197964e4051806a2e0f2a",
    "k-estimate": "886db0d3a5697dec0780e2e3a4ca89a6678279f64133024fda0f95d557f4f636",
    "geodesic": "12b442f179b5e1301fc82353c604f622b6e9e4f97fea1c5a82076654ee9f66f3",
    "ftc": "2aa276d4743fe3aee86874307426f9296e7b11f38102b0fa857348f04f8dfb0d",
    "reconstruct": "632685b4bd0ff5f54c3f46273123f459a2e3b18f6279119e3b71ea52c81adaf8",
    "remainder-check": "2e6e7f501c6adf459626bcd888febd0737f9dff885c86dfe5ec675dda0caa8e8",
    "holder-fit": "02ef07b1294660d525b5a6be96140ae20567838a84d98cd7e93cfe58a4d650c9",
    "whitney": "d5442ee719da6b0ea6b18ba0caa27af4a00d8478c508f8178b75703151a066f7",
    "flatness": "27ea85e5ddcfb58908cee557f06a51d0d0aea657ee845454de61b2a793c23bcc",
    "clifford": "76f93844ffcf5a401d86896f9015f294d553055bc0b4b6d699dcdff25780fe6e",
    "clifford check": "c09666d8d439a47682d9823adcc33eed37fd6c4ea50eee8a02e6d31ebba39de4",
    "clifford complete": "49fc7ad45366ad2d5a58a4aa2010cb5457ba8fe4c3f6e70087102e790a261422",
    "clifford dimension": "6a46241ce1122708fd284552f91703008e9796cf7db87c9c51a11778a7678d79",
    "graph-derivative": "3d90b458eec9db359abac1b0bf2646e1da484106fd588f4c0feb9fa2d152c63d",
}
USAGE_ERROR_DIGESTS = {
    "definitely-not-a-command":
        "111ca605b7575bbc0fc09bc7da6e6123fa97333cb6258a2c9dc818c8794b5f25",
    "k-estimate": "b80d308f5498552c65e8f6d321a73bf47c7226d73cd0f89befd687fca7ca4ec2",
    "build gasket": "cc4647de821660703033b28a781b232eb9312200eaab309befb915b09d64d401",
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
