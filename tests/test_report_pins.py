"""sha256 pins of report documents that no other pin covers.

Each was captured before the writer it covers last changed: the stdout of
the CLI commands below, ``json.dumps(report.as_dict(), sort_keys=True)`` of
the reports only the library writes, the bytes of ``dump_field``, of
``qcalc build --out`` and of ``dump_sample``, and the documents of the
Clifford values and of the hyperplane completion in a reflected frame.
Inputs are literals or come from the builders, so a change in the writers
under test cannot move them.
"""
from __future__ import annotations

import ast
import hashlib
import json
import re
from pathlib import Path

import numpy as np
import pytest

import qcalc
from qcalc.calculus import affine_rigidity_test, verify_remainder_bound
from qcalc.cli import main
from qcalc.clifford import LinearCliffordMap, Multivector, complete_from_hyperplane
from qcalc.fields import CovectorField, ScalarField, dump_field
from qcalc.geometry import (SetSample, build_carpet, build_gasket, build_lipschitz_graph,
                            build_polyline, dump_sample, load_sample, validate)
from qcalc.metric import verify_local_to_global
from qcalc.whitney import determined_subspace, differential_stability


def _write(path, doc) -> str:
    path.write_text(json.dumps(doc))
    return str(path)


def _quadratic(sample):
    """f = x^2 + xy - y^2/2 and its exact gradient."""
    f = ScalarField.from_function(sample, lambda p: p[0] ** 2 + p[0] * p[1] - 0.5 * p[1] ** 2)
    A = CovectorField.from_function(sample, lambda p: (2 * p[0] + p[1], p[0] - p[1]))
    return f, A


# a left-monogenic map of Cl_2: z -> (0.75 - 0.5i) z under 1 -> 1, i -> -e12
MONOGENIC_COLUMNS = {"dim": 2, "columns": [[0.75, 0.0, 0.0, 0.5], [0.5, 0.0, 0.0, -0.75]]}
PARTIAL_COLUMNS = {"dim": 3, "columns": [[0.5, -1.25, 0.0, 2.0, 0.125, 0.0, -0.75, 1.0],
                                         [1.5, 0.0, 0.25, -1.0, 0.0, 3.0, 0.5, -0.5]]}


def _graph_fields(tmp_path, shift):
    """A Lipschitz graph with f = z^2 and the derivative samples 2z + shift."""
    sample = build_lipschitz_graph([0.5], 0.0625, (0.0, 1.0))
    zs = sample.points_array[:, 0] + 1j * sample.points_array[:, 1]
    set_path = str(tmp_path / "graph.json")
    dump_sample(sample, set_path)
    fp = _write(tmp_path / "f.json", {"version": 1, "set": "",
                                      "values": [[z.real, z.imag] for z in (zs * zs).tolist()]})
    ap = _write(tmp_path / "a.json", {"version": 1, "set": "", "values": [
        [z.real, z.imag] for z in (2 * zs + shift).tolist()]})
    return [set_path, fp, ap]


def _cli_args(name, tmp_path):
    if name.startswith("graph-derivative"):
        return ["graph-derivative", *_graph_fields(tmp_path, 0.5 if "fail" in name else 0.0)]
    if name.startswith("clifford check"):
        cols = _write(tmp_path / "cols.json", MONOGENIC_COLUMNS)
        return ["clifford", "check", cols, "--side", name.split()[-1]]
    if name == "clifford complete":
        partial = _write(tmp_path / "partial.json", PARTIAL_COLUMNS)
        return ["clifford", "complete", "--dim", "3", "--partial", partial]
    if name == "clifford dimension":
        return ["clifford", "dimension", "--dim", "4", "--side", "right"]
    sample = build_gasket(4)
    set_path = str(tmp_path / "g4.json")
    dump_sample(sample, set_path)
    if name.startswith("ftc"):
        f, A = _quadratic(sample)
        fp = _write(tmp_path / "f.json", {"version": 1, "set": "", "values": f.values.tolist()})
        ap = _write(tmp_path / "A.json",
                    {"version": 1, "set": "", "covectors": A.covectors.tolist()})
        if name == "ftc pass":
            return ["ftc", set_path, fp, ap, "--from", "0", "--to", "40"]
        # a 14-edge chain whose residual is one rounding error, above this tolerance
        chain = "0,2,5,12,14,30,33,39,41,83,85,88,90,97,100"
        return ["ftc", set_path, fp, ap, "--vertices", chain, "--tol", "ftc=1e-30"]
    if name == "k-estimate sampled":
        return ["k-estimate", set_path, "--sample", "50", "--seed", "7"]
    return ["flatness", set_path, "--index", "9", "--radius", "0.2"]


# name -> (exit status, sha256 of stdout)
CLI_DIGESTS = {
    "k-estimate sampled": (0, "de5b898cd521bbb3780810710d28d25c74a92025c044b10a0e96e32981ce9425"),
    "ftc pass": (0, "9cc0a0dd592ca16e5b4bd767c871bc6ee843c3e95c518fda10ed69c8620a0e50"),
    "ftc fail": (1, "32f3a7fb76aaa1fe0e8c564b4c02faf5fd3af359e46baed892e8e3cc60953e5c"),
    "flatness": (0, "7737b406b61b855dd446310fef9d9dd1ce8925952304a2746a8a6dc6be819a96"),
    "clifford check left": (0, "38f7d78b6a010e23e4cc20b8ef2cc803bc4e3fb3901064da67dc0b63cbf7c0b2"),
    "clifford check right": (1, "fa87322b2fe3a0b798d1c54f1dffc5c984cb3b4c6495fdfcac64d04414829374"),
    "clifford complete": (0, "169475bfa33af71a8e359e684eae440c108ce7625a0c7df5ff7db21ba3fc5047"),
    "clifford dimension": (0, "42c766b46a65868229ac96fdf920b8b0386833aa170bafd2d8e62cafc26203cf"),
    "graph-derivative pass":
        (0, "06c8a30733aba7c46572d77eefc225a7de6a6e61533d934ef11d5e3148e93744"),
    "graph-derivative fail":
        (1, "f5656060bae65a00d6d585536b37ec2e5557231030e748a0a174a6b6ac8e13da"),
}


@pytest.mark.parametrize("name", sorted(CLI_DIGESTS))
def test_cli_report_bytes_are_pinned(tmp_path, capsys, name):
    args = _cli_args(name, tmp_path)
    capsys.readouterr()
    code = main(args)
    stdout = capsys.readouterr().out.encode()
    expect_code, digest = CLI_DIGESTS[name]
    assert code == expect_code
    assert hashlib.sha256(stdout).hexdigest() == digest


def _broken_sample():
    """Every kind of ``validate`` violation: bad endpoints (out of range and a
    self-loop), a wrong stored length, coincident points and an unreachable
    vertex."""
    points = [(0.0, 0.0), (1.0, 0.0), (1.0, 0.0), (2.0, 0.0), (5.0, 5.0)]
    edges = [(0, 1, 1.0), (1, 2, 0.0), (2, 3, 1.5), (0, 7, 1.0), (3, 3, 0.0)]
    return SetSample(2, points, edges, label="broken")


def _library_report(name):
    if name == "validate":
        return validate(_broken_sample())
    if name.startswith("subspace") or name.startswith("stability"):
        if name.endswith("line"):
            sample = build_polyline([(0.1 * i, 0.05 * i) for i in range(12)])
            x, radius = 5, 0.3
        else:
            sample, x, radius = build_gasket(3), 9, 0.3
        f, _ = _quadratic(sample)
        check = determined_subspace if name.startswith("subspace") else differential_stability
        return check(sample, f, x, radius)
    sample = build_gasket(4)
    f, A = _quadratic(sample)
    if name == "affine rigidity exact":
        g = ScalarField(sample, 0.5 + sample.points_array @ np.array([2.0, -3.0]))
        return affine_rigidity_test(sample, g, CovectorField.constant(sample, [2.0, -3.0]))
    if name == "affine rigidity quadratic":
        return affine_rigidity_test(sample, f, A)
    if name == "local to global":
        report = verify_local_to_global(sample, f, C=0.5, k=2.0)
        assert len(report.local_violations) > 20
        return report
    report = verify_remainder_bound(f, A, sample, k=0.4)
    assert len(report.violations) > 50
    return report


# name -> sha256 of json.dumps(report.as_dict(), sort_keys=True)
LIBRARY_DIGESTS = {
    "validate": "4cad2139388d1e2e4c615f66ed8cf2dea17d6f452d34ce7f0cb8dca9e0730ec9",
    "subspace gasket": "fe8fbd334177b6f600e447c2f33c498247c95df408bc05f318c5488143a8946e",
    "subspace line": "5a5069a201006452815d64134ef36dce2eb80a87d4ea6e4ee2a0ed118d7103cd",
    "stability gasket": "ee1fe46db258f80f6b605028bc982ab9a925b36eec230056cca8d96aeef4e6ce",
    "stability line": "30e3315d62fe0225106e336864ff9e7ee72a8f595bc930f08105a2d89dca1ed4",
    "affine rigidity exact": "6a6b909a21f0a3aad0986e6140897f9eec712b6806bdfd9d71c5a4ac69f1c970",
    "affine rigidity quadratic": "d71816c46c24771202b2c079adf70e31c9b5a402be44cea6e4ecd1aac378f28b",
    "local to global": "e24f008f3660981417d2969ab306954deb92082c0ea463ce5f83e0f8e2f4f54e",
    "remainder": "70bf8a47ff44c4705b13c9aeb2a27f1a374d4f25644c1dfdc2d952a02b5ed900",
}


@pytest.mark.parametrize("name", sorted(LIBRARY_DIGESTS))
def test_library_report_documents_are_pinned(name):
    doc = json.dumps(_library_report(name).as_dict(), sort_keys=True)
    assert hashlib.sha256(doc.encode()).hexdigest() == LIBRARY_DIGESTS[name]


def _value_document(name, tmp_path):
    if name.startswith("multivector") or name == "clifford map":
        rows = PARTIAL_COLUMNS["columns"] + [[1e-300, -0.0, 2.5, 0.0, 1 / 3, 7.0, -2.0, 0.1]]
        cols = tuple(Multivector(3, row) for row in rows)
        obj = cols[2] if name == "multivector" else LinearCliffordMap(3, cols)
        return json.dumps(obj.as_dict(), sort_keys=True).encode()
    sample = build_gasket(2)
    pts = sample.points_array
    if name.startswith("scalar"):
        values = pts[:, 0] ** 2 - pts[:, 1] / 3
        if name.endswith("complex"):
            values = values + 1j * (pts[:, 1] - 0.1)
        field = ScalarField(sample, values, warning="loop defect" if "complex" in name else None)
    else:
        covectors = np.column_stack((np.sin(pts[:, 0]), np.where(pts[:, 1] == 0, -0.0, -1 / 7)))
        if name.endswith("complex"):
            covectors = covectors + 1j * covectors[:, ::-1]
        field = CovectorField(sample, covectors)
    path = tmp_path / "field.json"
    dump_field(field, str(path))
    return path.read_bytes()


# name -> sha256 of the dump_field file, or of the sorted JSON of as_dict()
VALUE_DIGESTS = {
    "scalar field": "2e922b2f6b1a52354572b73895f901fb264856f95b6085e6f523189746918df8",
    "scalar field complex": "c89d50b4d52e42cb034396f19662b3380644de9468cdb21429000679613c84bf",
    "covector field": "01c1e87917a826a4eaacf9e0f32ca4ed898e5bbb2d84852775915b77b7c1f5fd",
    "covector field complex": "09c9c7ec899f91ebcd0ab401fa78bf7ff427171401a60ec85456e5f0c3ca28d8",
    "multivector": "c8f42236b6a057d6ed1041f27f038e893f455ec36e29610bf5aa0c7ea96246b3",
    "clifford map": "2295bbacdb486af572b6f507f6b6e59f9c980d581db8b0f219d6fe6125efc3a2",
}


@pytest.mark.parametrize("name", sorted(VALUE_DIGESTS))
def test_value_documents_are_pinned(tmp_path, name):
    assert hashlib.sha256(_value_document(name, tmp_path)).hexdigest() == VALUE_DIGESTS[name]


# name -> (build arguments, sha256 of the ``qcalc build ... --out`` file),
# captured while ``dump_sample`` still called ``json.dump`` itself
BUILD_DIGESTS = {
    "gasket 5": (["gasket", "--level", "5"],
                 "4775864cbb8241d1ab6ce54c5fe680cbb9dde7882afd13cb394d4ba2fcfe60dd"),
    "carpet 3": (["carpet", "--level", "3"],
                 "62ff256537f63e73b9a26e92c72fc5286368e65777618f29fd62a70ab5f86f44"),
    "polyline": (["polyline", "--closed",
                  "--coords", "[[0,0],[1,0.5],[2.25,-1e-3],[3,1e16],[-0.1,2]]"],
                 "343e50df8a82da1eb9c001172041fcbe4dd009ebcd7de3da6dd79d63ed9efae9"),
    "graph": (["graph", "--slopes", "1,-0.5,2", "--step", "0.03125", "--span", "0", "3"],
              "bc9c3ba7e571542e8f195b8788716237eea670a6f19347e555584d1cd3590504"),
    "dumbbell": (["dumbbell", "--radius", "1", "--neck", "0.2", "--step", "0.19634954084936207"],
                 "29dd49078e112aeb29a2f2472efa63344b1bba1e0cd17e05f5af54beeb8bab29"),
}


@pytest.mark.parametrize("name", sorted(BUILD_DIGESTS))
def test_build_files_are_pinned(tmp_path, name):
    args, digest = BUILD_DIGESTS[name]
    out = tmp_path / "sample.json"
    assert main(["build", *args, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# "<builder> <level>" -> sha256 of the ``dump_sample`` file, for every level up
# to the caps; captured while the builders still subdivided triangles and
# tested cells one at a time in Python
DUMP_DIGESTS = {
    "gasket 0": "6dbe9106ddbd177b005628478cd1b85fc14a0dfe452c32eb47879997248e5b32",
    "gasket 1": "d57f1e3421957d2c03f40dbc3da0a8139a9958f065142ea2a05920e287199c86",
    "gasket 2": "6cece8a98f991f764a540ec9ab832661ec8e47bf5f22f6f797912397bdce0ee6",
    "gasket 3": "4031c2787e4ec2618e8858c854d833649dcf6afa773ba64f48bee3074ae0fce1",
    "gasket 4": "6f8e5d3a9b9217d8cbce079bb19952ac392f8f382700fd5cffc4902ffcdd207a",
    "gasket 5": "4775864cbb8241d1ab6ce54c5fe680cbb9dde7882afd13cb394d4ba2fcfe60dd",
    "gasket 6": "11202ed263741bd7a8ee8ff9a2e07410951843cee42a38f8471b7ef4027799fb",
    "gasket 7": "3700dad5c9442d44464e2a2ecd076efc8ee70344257b99aef5959bc1a6e1a974",
    "gasket 8": "1b43613a21a857f041807d0f766304d9ad889f57f1aaedb04ac13917f273d9b6",
    "carpet 0": "2236c65bc7e0f6b2445aabfef2d5e7fb5de392be5c9a0ca18b722f4bc7b5a24a",
    "carpet 1": "3f7c5c48320b47a76d72d866b9e38d926f16af7f8051d26a6df0f8b39b8b5738",
    "carpet 2": "df3c14e11de9cb03c0c09050bc4ca59d05ae1ba4ec4bbfc780877f3a238ee5af",
    "carpet 3": "62ff256537f63e73b9a26e92c72fc5286368e65777618f29fd62a70ab5f86f44",
    "carpet 4": "7a44bd6b89c866c3c5beeeb5393ead4b6867b95c736dc2142d6858e1d9b69ff8",
    "carpet 5": "2d0d2b172e1a5cb2f80d022d0633ba218e410f7bf7af52042416ff0f78098f37",
}


def _built(name):
    shape, level = name.split()
    return (build_gasket if shape == "gasket" else build_carpet)(int(level))


@pytest.mark.parametrize("name", DUMP_DIGESTS)
def test_dump_sample_is_pinned(tmp_path, name):
    out = tmp_path / "sample.json"
    dump_sample(_built(name), str(out))
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DUMP_DIGESTS[name]


@pytest.mark.parametrize("name", ["gasket 0", "gasket 5", "carpet 0", "carpet 3"])
def test_built_arrays_are_laid_out_as_loaded_ones(tmp_path, name):
    sample = _built(name)
    dump_sample(sample, str(tmp_path / "sample.json"))
    loaded = load_sample(str(tmp_path / "sample.json"))
    for built, read in ((sample.points_array, loaded.points_array),
                        (sample.edge_ends, loaded.edge_ends),
                        (sample.edge_lengths, loaded.edge_lengths)):
        assert (built.dtype, built.shape) == (read.dtype, read.shape)
        assert built.flags.c_contiguous and read.flags.c_contiguous
        assert not built.flags.writeable and not read.flags.writeable


def _completion_frame(dim):
    """A non-identity orthogonal frame: the reflection across the hyperplane
    orthogonal to (1, -2, 3, ...)."""
    v = np.array([(-1.0) ** k * (k + 1) for k in range(dim)])
    return np.eye(dim) - 2.0 * np.outer(v, v) / (v @ v)


# "dim side" -> sha256 of the sorted JSON of the completed map's as_dict()
COMPLETION_DIGESTS = {
    "3 left": "6589cc31ca75a616bf1504cb31c97a4022939eaf1e24c08797e856a259d3b20c",
    "3 right": "4df3a672bdb63099d9d5c8d9efd0000c12069e93aa6f12ff99dc5a89e5057e9d",
    "4 left": "4005a5c412fe246df5a3ed2d17fd88ac0a12cd9a6aeb89a36e0df07e61a424e9",
    "4 right": "00a9e7a3754b01eca74102bca3dc8566d1c2a5485fbaaf5a72675e9e4c373eab",
}


@pytest.mark.parametrize("name", sorted(COMPLETION_DIGESTS))
def test_completion_in_reflected_frame_is_pinned(name):
    dim, side = int(name.split()[0]), name.split()[1]
    rows = (PARTIAL_COLUMNS["columns"] if dim == 3 else
            [[((5 * i + 3 * k) % 13 - 6) / 4 for k in range(16)] for i in range(3)])
    cols = [Multivector(dim, row) for row in rows]
    completed = complete_from_hyperplane(cols, side, frame=_completion_frame(dim))
    doc = json.dumps(completed.as_dict(), sort_keys=True)
    assert hashlib.sha256(doc.encode()).hexdigest() == COMPLETION_DIGESTS[name]


def test_only_geometry_writes_schema_version():
    """Every report document comes from ``geometry.document``: no other module
    names the ``schema_version`` key."""
    found = [path.name for path in sorted(Path(qcalc.__file__).parent.glob("*.py"))
             if path.name != "geometry.py"
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Constant) and node.value == "schema_version"]
    assert found == []


def test_only_geometry_indents_json():
    """Every JSON document is written by ``geometry.write_json``: no other
    module passes ``indent=`` to a call."""
    found = [path.name for path in sorted(Path(qcalc.__file__).parent.glob("*.py"))
             if path.name != "geometry.py"
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.keyword) and node.arg == "indent"]
    assert found == []


def test_only_errors_words_numeric_rules():
    """Every "must be finite / nonnegative / positive ..., got ..." refusal
    goes through ``errors.require``: no other module raises a ``BuildError``
    with such an f-string."""
    rule = re.compile(r"must be (finite|nonnegative|positive)\b.*, got ")
    found = [(path.name, node.lineno)
             for path in sorted(Path(qcalc.__file__).parent.glob("*.py"))
             if path.name != "errors.py"
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
             and getattr(node.exc.func, "id", None) == "BuildError"
             for arg in node.exc.args if isinstance(arg, ast.JoinedStr)
             if rule.search("".join(part.value for part in arg.values
                                    if isinstance(part, ast.Constant)))]
    assert found == []
