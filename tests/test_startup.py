"""What ``import qcalc`` and each subcommand load, and how a CLI process ends.

The package resolves its public names on first use, and each CLI handler
imports its kernel module only after its inputs have loaded, so short
commands and rejected documents skip the modules they do not use.  A
``python -m qcalc`` process runs without the cyclic collector and freezes
what is alive at exit; ``cli.main`` called in-process leaves both alone.
"""
from __future__ import annotations

import gc
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qcalc
from qcalc.cli import main
from qcalc.fields import CovectorField, ScalarField, dump_field
from qcalc.geometry import build_gasket, build_lipschitz_graph, dump_sample

# the names ``qcalc`` exported before it became lazy, by defining submodule
EXPORTED = {
    "calculus": ["affine_rigidity_test", "discrete_gradient", "fit_holder_modulus",
                 "loop_defect", "oscillation", "pair_modulus_profile", "path_integral",
                 "reconstruct", "verify_ftc", "verify_remainder_bound", "whitney_remainder"],
    "clifford": ["ComplexLinearMap", "LinearCliffordMap", "Multivector",
                 "complete_from_hyperplane", "complex_complete", "complex_to_even",
                 "dirac_constraint_matrix", "geometric_product", "is_left_monogenic",
                 "is_right_monogenic", "monogenic_space_dimension",
                 "tangential_derivative_on_graph"],
    "errors": ["QcalcError"],
    "fields": ["CovectorField", "ScalarField"],
    "geometry": ["PolylinePath", "SetSample", "build_carpet", "build_dumbbell", "build_gasket",
                 "build_lipschitz_graph", "build_polyline", "load_sample", "sample_from_dict",
                 "validate"],
    "metric": ["ChordArcReport", "estimate_chord_arc", "geodesic_distance", "shortest_path",
               "verify_local_to_global"],
    "whitney": ["check_whitney_c1", "determined_subspace", "differential_stability",
                "local_flatness"],
}


def test_all_lists_the_exported_names():
    assert sorted(qcalc.__all__) == sorted(n for names in EXPORTED.values() for n in names)
    assert qcalc.__version__ == "0.1.0"


@pytest.mark.parametrize("module", sorted(EXPORTED))
def test_names_resolve_to_the_submodule_objects(module):
    sub = importlib.import_module(f"qcalc.{module}")
    for name in EXPORTED[module]:
        assert getattr(qcalc, name) is getattr(sub, name), name
        assert name in dir(qcalc)
    assert qcalc.__dict__[module] is sub


def test_unknown_name_raises():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        qcalc.no_such_name
    with pytest.raises(ImportError):
        from qcalc import no_such_name  # noqa: F401


def test_star_import_gives_every_name():
    namespace: dict = {}
    exec("from qcalc import *", namespace)
    assert set(qcalc.__all__) <= set(namespace)


# Runs ``python -m qcalc`` in a child process and prints, as the last stdout
# line, the qcalc submodules it loaded and the collector's state after the run.
PROBE = """
import gc, json, runpy, sys
sys.argv[0] = "qcalc"
try:
    runpy.run_module("qcalc", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
loaded = sorted(m.split(".")[1] for m in sys.modules if m.startswith("qcalc."))
print(json.dumps({"code": code, "loaded": loaded, "gc_enabled": gc.isenabled(),
                  "frozen": gc.get_freeze_count()}))
"""


def loaded_by(*argv: str, cwd=None) -> dict:
    env = {**os.environ, "PYTHONPATH": str(Path(qcalc.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", PROBE, *argv], capture_output=True, text=True,
                          cwd=cwd, env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_qcalc_loads_no_submodule():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, qcalc; "
         "print(sorted(m for m in sys.modules if m.startswith(('qcalc', 'numpy'))))"],
        capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "['qcalc']"


#: the qcalc modules every command line loads
BASE = {"cli", "errors", "geometry"}
#: the modules each command loads beyond ``BASE``, and its argv (files in ``inputs``)
LOADS = {
    "build": (set(), "build gasket --level 2 --out out.json"),
    "k-estimate": ({"metric"}, "k-estimate g3.json --sample 5"),
    "geodesic": ({"metric"}, "geodesic g3.json 0 5"),
    "flatness": ({"whitney"}, "flatness g3.json --index 1 --radius 0.3"),
    "clifford check": ({"clifford"}, "clifford check cols.json"),
    "clifford complete": ({"clifford"}, "clifford complete --dim 2 --partial partial.json"),
    "clifford dimension": ({"clifford"}, "clifford dimension --dim 3"),
    "remainder-check": ({"fields", "calculus"}, "remainder-check g3.json f.json A.json --k 2"),
    "holder-fit": ({"fields", "calculus"}, "holder-fit g3.json f.json A.json"),
    "ftc --vertices": ({"fields", "calculus"}, "ftc g3.json f.json A.json --vertices 0,1"),
    "whitney": ({"fields", "calculus", "whitney"}, "whitney g3.json f.json A.json"),
    "reconstruct": ({"fields", "calculus", "metric"}, "reconstruct g3.json A.json --base 0"),
    "ftc --from/--to": ({"fields", "calculus", "metric"},
                        "ftc g3.json f.json A.json --from 0 --to 5"),
    "graph-derivative": ({"fields", "clifford"}, "graph-derivative graph.json fz.json dz.json"),
    # a document rejected on load loads no kernel, and a field reader only fields
    "rejected sample": (set(), "k-estimate bad.json --exhaustive"),
    "rejected field": ({"fields"}, "remainder-check g3.json bad-field.json A.json --k 2"),
}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """The directory of the documents ``LOADS`` names."""
    root = tmp_path_factory.mktemp("inputs")
    sample = build_gasket(3)
    dump_sample(sample, str(root / "g3.json"))
    dump_field(ScalarField.from_function(sample, lambda p: p[0] ** 2), str(root / "f.json"))
    dump_field(CovectorField.from_function(sample, lambda p: (2 * p[0], 0.0)),
               str(root / "A.json"))
    graph = build_lipschitz_graph([0.5], 0.0625, (0.0, 1.0))
    dump_sample(graph, str(root / "graph.json"))
    zs = graph.points_array @ np.array([1, 1j])
    dump_field(ScalarField(graph, zs * zs), str(root / "fz.json"))
    dump_field(ScalarField(graph, 2 * zs), str(root / "dz.json"))
    (root / "cols.json").write_text(json.dumps(
        {"dim": 2, "columns": [[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, -1.0]]}))
    (root / "partial.json").write_text(json.dumps({"dim": 2, "columns": [[1.0, 0.0, 0.0, 0.0]]}))
    (root / "bad.json").write_text('{"version": 1, "points": [[0, 0], [1, 0]')
    (root / "bad-field.json").write_text('{"version": 1, "values": [0, "x"]}')
    return root


@pytest.mark.parametrize("case", sorted(LOADS))
def test_each_command_loads_only_the_modules_it_calls(inputs, case):
    extra, argv = LOADS[case]
    run = loaded_by(*argv.split(), cwd=inputs)
    assert run["code"] == (2 if case.startswith("rejected") else 0)
    assert set(run["loaded"]) == BASE | extra


def test_a_process_runs_without_the_collector_and_exits_frozen(inputs):
    for argv in (LOADS["build"][1], LOADS["rejected sample"][1], "definitely-not-a-command"):
        run = loaded_by(*argv.split(), cwd=inputs)
        assert run["code"] in (0, 2)
        assert run["gc_enabled"] is False and run["frozen"] > 0, argv


def test_main_in_process_leaves_the_collector_alone(inputs, monkeypatch, capsys):
    monkeypatch.chdir(inputs)
    enabled, frozen = gc.isenabled(), gc.get_freeze_count()
    for argv in ("k-estimate g3.json --sample 5", "k-estimate bad.json --exhaustive",
                 "definitely-not-a-command"):
        main(argv.split())
        assert (gc.isenabled(), gc.get_freeze_count()) == (enabled, frozen), argv
    capsys.readouterr()
