"""What ``import qcalc`` and each subcommand load.

The package resolves its public names on first use, and each CLI handler
imports its kernel module only after its inputs have loaded, so short
commands and rejected documents skip the modules they do not use.
"""
from __future__ import annotations

import importlib
import json
import subprocess
import sys

import pytest

import qcalc

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
                 "sample_to_dict", "validate"],
    "metric": ["ChordArcReport", "estimate_chord_arc", "geodesic_distance", "shortest_path",
               "verify_local_to_global"],
    "whitney": ["check_whitney_c1", "determined_subspace", "differential_stability",
                "local_flatness"],
}
KERNELS = {"calculus", "metric", "whitney", "clifford"}


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
# line, the qcalc submodules it loaded.
PROBE = """
import json, runpy, sys
sys.argv[0] = "qcalc"
try:
    runpy.run_module("qcalc", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
loaded = sorted(m.split(".")[1] for m in sys.modules if m.startswith("qcalc."))
print(json.dumps({"code": code, "loaded": loaded}))
"""


def loaded_by(*argv: str) -> dict:
    proc = subprocess.run([sys.executable, "-c", PROBE, *argv], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_qcalc_loads_no_submodule():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, qcalc; "
         "print(sorted(m for m in sys.modules if m.startswith(('qcalc', 'numpy'))))"],
        capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "['qcalc']"


def test_build_loads_no_kernel(tmp_path):
    run = loaded_by("build", "gasket", "--level", "2", "--out", str(tmp_path / "g.json"))
    assert run["code"] == 0
    assert not KERNELS & set(run["loaded"])


def test_clifford_dimension_loads_only_clifford():
    run = loaded_by("clifford", "dimension", "--dim", "3")
    assert run["code"] == 0
    assert KERNELS & set(run["loaded"]) == {"clifford"}


def test_k_estimate_loads_metric_only_after_a_good_document(tmp_path):
    good = tmp_path / "g.json"
    qcalc.geometry.dump_sample(qcalc.build_gasket(2), str(good))
    run = loaded_by("k-estimate", str(good), "--sample", "5")
    assert run["code"] == 0
    assert KERNELS & set(run["loaded"]) == {"metric"}
    bad = tmp_path / "bad.json"
    bad.write_text('{"version": 1, "points": [[0, 0], [1, 0]')
    run = loaded_by("k-estimate", str(bad), "--exhaustive")
    assert run["code"] == 2
    assert not KERNELS & set(run["loaded"])
