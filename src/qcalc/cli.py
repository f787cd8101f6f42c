"""qcalc command line: build test sets, run the verifications, emit reports.

Exit codes: 0 success / verification passed, 1 verification failed,
2 usage or input error.  Reports are JSON with sorted keys; identical
inputs and seeds produce byte-identical output.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from typing import TextIO

import numpy as np

from . import geometry
from .errors import QcalcError
from .fields import CovectorField, ScalarField, load_field
from .geometry import (_is_finite_number, document, load_sample, path_to_dict, read_json,
                       sample_document)

TOLERANCE_DEFAULTS = {
    "ftc": 1e-9,        # pass threshold for the path-integral identity
    "loop": 1e-9,       # reconstruction loop-defect warning level
    "remainder": 1e-9,  # slack in the remainder bound
    "whitney": 0.05,    # smallest-bucket threshold for the C1 check
    "monogenic": 1e-12, # Dirac defect tolerance
    "graph": 1e-9,      # graph-derivative residual slack
}


class UsageError(QcalcError):
    pass


def _tolerance(opt: dict, name: str) -> float:
    """The tolerance ``name``: the value of ``--tol name=VAL``, else its default.

    A handler calls it before it reads any input file.
    """
    entry = opt["tol"]
    if entry is None:
        return TOLERANCE_DEFAULTS[name]
    given, sep, value = entry.partition("=")
    if not sep:
        raise UsageError(f"--tol expects NAME=VALUE, got {entry!r}")
    if given != name:
        raise UsageError(f"unknown tolerance {given!r} (known: {name})")
    try:
        tol = float(value)
    except ValueError as exc:
        raise UsageError(f"--tol {name}: {value!r} is not a number") from exc
    if not (math.isfinite(tol) and tol >= 0):
        raise UsageError(f"--tol {name}: {value!r} is not a finite nonnegative number")
    return tol


def _field(path: str, sample, kind=ScalarField):
    """The field stored at ``path``, which must be a ``kind`` field."""
    loaded = load_field(path, sample)
    if not isinstance(loaded, kind):
        name, key = ("scalar", "values") if kind is ScalarField else ("covector", "covectors")
        raise UsageError(f"{path}: expected a {name} field ({key!r})")
    return loaded


def _set_f_A(opt: dict):
    """The set sample, scalar field ``f`` and covector field ``A`` named by ``opt``."""
    sample = load_sample(opt["set"])
    return sample, _field(opt["f"], sample), _field(opt["A"], sample, CovectorField)


def _coords(text: str) -> list:
    """The ``--coords`` document, which must be a JSON list of numeric points."""
    try:
        coords = json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"--coords is not valid JSON ({exc})") from exc
    if not (isinstance(coords, list)
            and all(isinstance(p, list) and all(map(_is_finite_number, p)) for p in coords)):
        raise UsageError("--coords must be a JSON list of points, each a list of finite numbers")
    return coords


# Each handler returns the report document; one with ``passed: false`` exits 1.
# It reads its inputs first and imports its kernel module only then, so a
# subcommand loads just what it uses and a rejected document none of it.


def _k_estimate(opt: dict):
    if opt["exhaustive"] and opt["sample"] is not None:
        raise UsageError("--exhaustive and --sample N exclude each other")
    if opt["seed"] is not None and opt["sample"] is None:
        raise UsageError("--seed applies only to --sample N")
    if opt["seed"] is not None and opt["seed"] < 0:
        raise UsageError(f"--seed must be nonnegative, got {opt['seed']}")
    sample = load_sample(opt["set"])
    from . import metric
    if opt["sample"] is None:
        return metric.estimate_chord_arc(sample, "exhaustive").as_dict()
    return metric.estimate_chord_arc(
        sample, "sampled", seed=opt["seed"] or 0, pair_budget=opt["sample"]
    ).as_dict()


def _geodesic(opt: dict):
    sample = load_sample(opt["set"])
    from . import metric
    path = metric.shortest_path(sample, opt["i"], opt["j"])
    doc = document(source=opt["i"], target=opt["j"], path_vertices=path.vertices,
                   distance=metric.geodesic_distance(sample, opt["i"], opt["j"]),
                   path_length=path.length)
    if opt.get("path"):
        geometry.write_json(path_to_dict(path), opt["path"])
    return doc


def _ftc(opt: dict):
    tol = _tolerance(opt, "ftc")
    sample, f, A = _set_f_A(opt)
    from . import calculus, metric
    if opt.get("vertices"):
        path = geometry.PolylinePath.from_vertices(sample, opt["vertices"])
    elif opt.get("src") is not None and opt.get("dst") is not None:
        path = metric.shortest_path(sample, opt["src"], opt["dst"])
    else:
        raise UsageError("ftc needs either --vertices or both --from and --to")
    residual = calculus.verify_ftc(f, A, path)
    return document(path_vertices=path.vertices, residual=residual, tol=tol,
                    passed=residual <= tol)


def _reconstruct(opt: dict):
    defect_tol = _tolerance(opt, "loop")
    sample = load_sample(opt["set"])
    A = _field(opt["A"], sample, CovectorField)
    from . import calculus
    rec = calculus.reconstruct(sample, A, opt["base"], opt["value"], defect_tol=defect_tol)
    return document(basepoint=opt["base"], base_value=opt["value"], field=rec.as_document(),
                    warning=rec.warning)


def _remainder_check(opt: dict):
    tol = _tolerance(opt, "remainder")
    sample, f, A = _set_f_A(opt)
    from . import calculus
    report = calculus.verify_remainder_bound(
        f, A, sample, k=opt["k"], tol=tol, pairs=bool(opt["csv"])
    )
    if opt["csv"]:
        with open(opt["csv"], "w") as fh:
            emit_pairs_csv(report, fh)
    return report.as_dict()


def _holder_fit(opt: dict):
    sample, f, A = _set_f_A(opt)
    from . import calculus
    return calculus.fit_holder_modulus(f, A, sample, k=opt["k"]).as_dict()


def _whitney(opt: dict):
    threshold = _tolerance(opt, "whitney")
    sample, f, A = _set_f_A(opt)
    from . import whitney
    return whitney.check_whitney_c1(
        sample, f, A, scale_buckets=opt["buckets"], threshold=threshold,
        decay_tol=opt["slack"],
    ).as_dict()


def _flatness(opt: dict):
    sample = load_sample(opt["set"])
    from . import whitney
    return whitney.local_flatness(sample, opt["index"], opt["radius"]).as_dict()


def _clifford_check(opt: dict):
    tol = _tolerance(opt, "monogenic")
    doc = read_json(opt["columns"])
    from . import clifford
    L = clifford.map_from_dict(doc, source=opt["columns"])
    check = clifford.is_left_monogenic if opt["side"] == "left" else clifford.is_right_monogenic
    return check(L, tol).as_dict()


def _clifford_complete(opt: dict):
    doc = read_json(opt["partial"])
    from . import clifford
    dim, cols = clifford.columns_from_dict(doc, source=opt["partial"])
    if dim != opt["dim"]:
        raise UsageError(f"--dim {opt['dim']} does not match the file's dim {dim!r}")
    return document(**clifford.complete_from_hyperplane(cols, side=opt["side"]).as_dict())


def _clifford_dimension(opt: dict):
    from . import clifford
    n = opt["dim"]
    return document(n=n, side=opt["side"], closed_form=(n - 1) * 2 ** n,
                    dimension=clifford.monogenic_space_dimension(n, side=opt["side"]))


def _graph_derivative(opt: dict):
    tol = _tolerance(opt, "graph")
    sample = load_sample(opt["set"])
    f, deriv = _field(opt["f"], sample), _field(opt["A"], sample)
    from . import clifford
    return clifford.tangential_derivative_on_graph(
        f, deriv, c_quad=opt["cquad"], tol=tol
    ).as_dict()


def _arg(*flags, **kwargs) -> tuple[tuple, dict]:
    """One ``add_argument`` call of a ``COMMANDS`` row."""
    return flags, kwargs


def _comma_list(kind):
    """An argparse type: comma separated ``kind`` values, blank entries skipped."""
    def parse(text: str) -> list:
        return [kind(s) for s in text.split(",") if s.strip()]
    parse.__name__ = f"comma separated {kind.__name__}"  # argparse names it in errors
    return parse


_TOL = _arg("--tol", metavar="NAME=VAL")
_SET = _arg("set")
_SET_F_A = (_SET, _arg("f"), _arg("A"))
_LEVEL = _arg("--level", type=int, required=True)
_STEP = _arg("--step", type=float, required=True)
_DIM = _arg("--dim", type=int, required=True)
_SIDE = _arg("--side", choices=("left", "right"), default="left")
_COLUMNS_HELP = "JSON file with dim and columns"

#: command group -> (dest of its action, help)
_GROUPS = {
    "build": ("shape", "construct a test set"),
    "clifford": ("cliffcmd", "monogenic linear-map operations"),
}

#: "<command>" or "<group> <action>" -> (help, arguments, handler(options)).
#: ``build_parser`` adds the rows in this order, each with its arguments and then
#: ``--out``; a group's parser comes with its first row, and its actions have no help.
#: A row lists ``--seed``, ``--csv`` or ``--tol`` only if its handler reads it.
COMMANDS = {
    "build gasket": (None, (_LEVEL,), lambda opt: sample_document(
        geometry.build_gasket(opt["level"]))),
    "build carpet": (None, (_LEVEL,), lambda opt: sample_document(
        geometry.build_carpet(opt["level"]))),
    "build polyline": (None, (_arg("--coords", required=True, help="JSON list of points"),
                              _arg("--closed", action="store_true")),
                       lambda opt: sample_document(geometry.build_polyline(
                           _coords(opt["coords"]), closed=opt["closed"]))),
    "build graph": (None, (_arg("--slopes", type=_comma_list(float), required=True,
                                help="comma separated slopes"),
                           _STEP, _arg("--span", type=float, nargs=2, required=True)),
                    lambda opt: sample_document(geometry.build_lipschitz_graph(
                        opt["slopes"], opt["step"], opt["span"]))),
    "build dumbbell": (None, (_arg("--radius", type=float, required=True),
                              _arg("--neck", type=float, required=True), _STEP),
                       lambda opt: sample_document(geometry.build_dumbbell(
                           opt["radius"], opt["neck"], opt["step"]))),
    "k-estimate": ("estimate the chord-arc constant",
                   (_SET, _arg("--exhaustive", action="store_true"),
                    _arg("--sample", type=int, metavar="N"), _arg("--seed", type=int)),
                   _k_estimate),
    "geodesic": ("shortest intrinsic path",
                 (_SET, _arg("i", type=int), _arg("j", type=int),
                  _arg("--path", metavar="PATH", help="write the path JSON here")), _geodesic),
    "ftc": ("path-integral identity residual",
            (*_SET_F_A, _arg("--from", dest="src", type=int), _arg("--to", dest="dst", type=int),
             _arg("--vertices", type=_comma_list(int), help="comma separated vertex chain"), _TOL),
            _ftc),
    "reconstruct": ("integrate a covector field from a basepoint",
                    (_SET, _arg("A"), _arg("--base", type=int, required=True),
                     _arg("--value", type=float, default=0.0), _TOL), _reconstruct),
    "remainder-check": ("first-order remainder bound over all pairs",
                        (*_SET_F_A, _arg("--k", type=float, required=True),
                         _arg("--csv", metavar="PATH"), _TOL), _remainder_check),
    "holder-fit": ("Holder modulus fits",
                   (*_SET_F_A, _arg("--k", type=float, default=1.0)), _holder_fit),
    "whitney": ("Whitney C1 scale-decay check",
                (*_SET_F_A, _arg("--buckets", type=int, default=6),
                 _arg("--slack", type=float, default=0.1, help="relative decay slack"), _TOL),
                _whitney),
    "flatness": ("local flatness spectrum",
                 (_SET, _arg("--index", type=int, required=True),
                  _arg("--radius", type=float, required=True)), _flatness),
    "clifford check": (None, (_arg("columns", help=_COLUMNS_HELP), _SIDE, _TOL), _clifford_check),
    "clifford complete": (None, (_DIM, _SIDE, _arg("--partial", required=True, help=_COLUMNS_HELP)),
                          _clifford_complete),
    "clifford dimension": (None, (_DIM, _SIDE), _clifford_dimension),
    "graph-derivative": ("tangential derivative check on a graph",
                         (*_SET_F_A, _arg("--cquad", type=float, default=1.0), _TOL),
                         _graph_derivative),
}


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="qcalc", description=__doc__)
    parents = {"": top.add_subparsers(dest="command", required=True)}
    for name, (help_text, arguments, _handler) in COMMANDS.items():
        group, _, action = name.rpartition(" ")
        if group not in parents:
            dest, group_help = _GROUPS[group]
            parents[group] = parents[""].add_parser(group, help=group_help).add_subparsers(
                dest=dest, required=True)
        # a help=None keyword would still list the action under its parent
        parser = parents[group].add_parser(action, **({"help": help_text} if help_text else {}))
        for flags, kwargs in arguments:
            parser.add_argument(*flags, **kwargs)
        parser.add_argument("--out", metavar="PATH")
    return top


def dispatch(opt: dict) -> tuple[int, dict]:
    """Run the subcommand of the parsed options ``opt``; returns (exit status, report document)."""
    name = opt["command"]
    if name in _GROUPS:
        name = f"{name} {opt.get(_GROUPS[name][0])}"
    if name not in COMMANDS:
        raise UsageError(f"unknown command {opt['command']!r}")
    doc = COMMANDS[name][2](opt)
    return (0 if doc.get("passed", True) else 1), doc


#: rows formatted and written per chunk by ``emit_pairs_csv``
_CSV_CHUNK_ROWS = 1 << 14


def emit_pairs_csv(report, out: TextIO) -> None:
    """Write the CSV of a ``RemainderBoundReport``, one row per unordered pair.

    Each row shows the direction of the pair with the larger remainder-bound
    slack; rows are sorted by distance, then pair indices, so output is
    stable across runs.  Each column's distinct doubles (told apart by their
    bits, so -0.0 and every NaN keep their own text) are formatted with
    ``repr`` once; rows are then joined and written to ``out`` in chunks of
    ``_CSV_CHUNK_ROWS``, so the whole document is never held in memory.
    A report without pair buffers gives the header alone.
    """
    out.write("dist,remainder,bound\n")
    if report.pair_dist is None:
        return
    order = np.lexsort((report.pair_index[:, 1], report.pair_index[:, 0], report.pair_dist))
    columns = []
    for values in (report.pair_dist, report.pair_remainder, report.pair_bound):
        bits, which = np.unique(values[order].view(np.uint64), return_inverse=True)
        text = np.array([repr(v) for v in bits.view(np.float64).tolist()], dtype=object)
        columns.append((text, which))
    for start in range(0, len(order), _CSV_CHUNK_ROWS):
        cells = (text[which[start : start + _CSV_CHUNK_ROWS]].tolist() for text, which in columns)
        out.write("\n".join(map(",".join, zip(*cells))))
        out.write("\n")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    opt = vars(args)
    try:
        status, doc = dispatch(opt)
    except QcalcError as exc:  # usage and input errors alike
        print(f"qcalc: {exc}", file=sys.stderr)
        return 2
    geometry.write_json(doc, opt["out"])
    return status


if __name__ == "__main__":
    sys.exit(main())
