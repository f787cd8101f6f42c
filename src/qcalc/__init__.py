"""Computational calculus on quasiconvex (chord-arc) sets.

Discretizes closed sets as geometric graphs, estimates chord-arc constants,
integrates covector fields along intrinsic paths, verifies first-order
remainder bounds, reconstructs functions from differentials, and checks the
uniqueness phenomena for differentials (flatness, complex linearity,
Clifford monogenicity).

The public names below are resolved on first use (PEP 562), so that
``import qcalc`` and the command line load only the submodules they need.
"""
import sys

__version__ = "0.1.0"

_EXPORTS = {
    "calculus": "affine_rigidity_test discrete_gradient fit_holder_modulus loop_defect "
                "oscillation pair_modulus_profile path_integral reconstruct verify_ftc "
                "verify_remainder_bound whitney_remainder",
    "clifford": "ComplexLinearMap LinearCliffordMap Multivector complete_from_hyperplane "
                "complex_complete complex_to_even dirac_constraint_matrix geometric_product "
                "is_left_monogenic is_right_monogenic monogenic_space_dimension "
                "tangential_derivative_on_graph",
    "errors": "QcalcError",
    "fields": "CovectorField ScalarField",
    "geometry": "PolylinePath SetSample build_carpet build_dumbbell build_gasket "
                "build_lipschitz_graph build_polyline load_sample sample_from_dict validate",
    "metric": "ChordArcReport estimate_chord_arc geodesic_distance shortest_path "
              "verify_local_to_global",
    "whitney": "check_whitney_c1 determined_subspace differential_stability local_flatness",
}
#: public name -> the submodule that defines it
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    module = _HOME.get(name, name)
    if module not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    full = f"{__name__}.{module}"
    __import__(full)  # the interpreter's own import path, which -X importtime reports
    submodule = sys.modules[full]
    value = submodule if module == name else getattr(submodule, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME, *_EXPORTS})
