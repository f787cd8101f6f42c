"""qcalc command line: build test sets, run the verifications, emit reports.

Exit codes: 0 success / verification passed, 1 verification failed,
2 usage or input error.  Reports are JSON with sorted keys; identical
inputs and seeds produce byte-identical output.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from typing import TextIO

import numpy as np

from . import geometry
from .errors import QcalcError
from .fields import CovectorField, ScalarField, load_field
from .geometry import SCHEMA_VERSION, load_sample, path_to_dict, read_json, sample_to_dict

TOLERANCE_DEFAULTS = {
    "ftc": 1e-9,        # pass threshold for the path-integral identity
    "loop": 1e-9,       # reconstruction loop-defect warning level
    "remainder": 1e-9,  # slack in the remainder bound
    "whitney": 0.05,    # smallest-bucket threshold for the C1 check
    "monogenic": 1e-12, # Dirac defect tolerance
    "graph": 1e-9,      # graph-derivative residual slack
}


@dataclass
class RunConfig:
    command: str
    options: dict
    seed: int = 0
    tolerances: dict = field(default_factory=dict)
    out: str | None = None
    csv: str | None = None

    def tol(self, name: str) -> float:
        return self.tolerances.get(name, TOLERANCE_DEFAULTS[name])


class UsageError(QcalcError):
    pass


def _parse_tolerances(entries: list[str] | None) -> dict:
    out = {}
    for entry in entries or []:
        name, sep, value = entry.partition("=")
        if not sep:
            raise UsageError(f"--tol expects NAME=VALUE, got {entry!r}")
        if name not in TOLERANCE_DEFAULTS:
            known = ", ".join(sorted(TOLERANCE_DEFAULTS))
            raise UsageError(f"unknown tolerance {name!r} (known: {known})")
        try:
            out[name] = float(value)
        except ValueError as exc:
            raise UsageError(f"--tol {name}: {value!r} is not a number") from exc
    return out


def _common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--tol", action="append", metavar="NAME=VAL")
    parser.add_argument("--out", metavar="PATH")
    parser.add_argument("--csv", metavar="PATH")


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="qcalc", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    build = sub.add_parser("build", help="construct a test set")
    shapes = build.add_subparsers(dest="shape", required=True)
    p = shapes.add_parser("gasket")
    p.add_argument("--level", type=int, required=True)
    _common(p)
    p = shapes.add_parser("carpet")
    p.add_argument("--level", type=int, required=True)
    _common(p)
    p = shapes.add_parser("polyline")
    p.add_argument("--coords", required=True, help="JSON list of points")
    p.add_argument("--closed", action="store_true")
    _common(p)
    p = shapes.add_parser("graph")
    p.add_argument("--slopes", required=True, help="comma separated slopes")
    p.add_argument("--step", type=float, required=True)
    p.add_argument("--span", type=float, nargs=2, required=True)
    _common(p)
    p = shapes.add_parser("dumbbell")
    p.add_argument("--radius", type=float, required=True)
    p.add_argument("--neck", type=float, required=True)
    p.add_argument("--step", type=float, required=True)
    _common(p)

    p = sub.add_parser("k-estimate", help="estimate the chord-arc constant")
    p.add_argument("set")
    p.add_argument("--exhaustive", action="store_true")
    p.add_argument("--sample", type=int, metavar="N")
    _common(p)

    p = sub.add_parser("geodesic", help="shortest intrinsic path")
    p.add_argument("set")
    p.add_argument("i", type=int)
    p.add_argument("j", type=int)
    p.add_argument("--path", metavar="PATH", help="write the path JSON here")
    _common(p)

    p = sub.add_parser("ftc", help="path-integral identity residual")
    p.add_argument("set")
    p.add_argument("f")
    p.add_argument("A")
    p.add_argument("--from", dest="src", type=int)
    p.add_argument("--to", dest="dst", type=int)
    p.add_argument("--vertices", help="comma separated vertex chain")
    _common(p)

    p = sub.add_parser("reconstruct", help="integrate a covector field from a basepoint")
    p.add_argument("set")
    p.add_argument("A")
    p.add_argument("--base", type=int, required=True)
    p.add_argument("--value", type=float, default=0.0)
    _common(p)

    p = sub.add_parser("remainder-check", help="first-order remainder bound over all pairs")
    p.add_argument("set")
    p.add_argument("f")
    p.add_argument("A")
    p.add_argument("--k", type=float, required=True)
    _common(p)

    p = sub.add_parser("holder-fit", help="Holder modulus fits")
    p.add_argument("set")
    p.add_argument("f")
    p.add_argument("A")
    p.add_argument("--k", type=float, default=1.0)
    _common(p)

    p = sub.add_parser("whitney", help="Whitney C1 scale-decay check")
    p.add_argument("set")
    p.add_argument("f")
    p.add_argument("A")
    p.add_argument("--buckets", type=int, default=6)
    p.add_argument("--slack", type=float, default=0.1, help="relative decay slack")
    _common(p)

    p = sub.add_parser("flatness", help="local flatness spectrum")
    p.add_argument("set")
    p.add_argument("--index", type=int, required=True)
    p.add_argument("--radius", type=float, required=True)
    _common(p)

    cliff = sub.add_parser("clifford", help="monogenic linear-map operations")
    csub = cliff.add_subparsers(dest="cliffcmd", required=True)
    p = csub.add_parser("check")
    p.add_argument("columns", help="JSON file with dim and columns")
    p.add_argument("--side", choices=("left", "right"), default="left")
    _common(p)
    p = csub.add_parser("complete")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--side", choices=("left", "right"), default="left")
    p.add_argument("--partial", required=True, help="JSON file with dim and columns")
    _common(p)
    p = csub.add_parser("dimension")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--side", choices=("left", "right"), default="left")
    _common(p)

    p = sub.add_parser("graph-derivative", help="tangential derivative check on a graph")
    p.add_argument("set")
    p.add_argument("f")
    p.add_argument("A")
    p.add_argument("--cquad", type=float, default=1.0)
    _common(p)

    return top


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


def _verdict(report) -> tuple[int, dict]:
    return (0 if report.passed else 1), report.as_dict()


# Each handler reads its inputs first and imports its kernel module only then,
# so a subcommand loads just what it uses and a rejected document none of it.


def _build(config: RunConfig, opt: dict):
    shape = opt["shape"]
    if shape == "gasket":
        sample = geometry.build_gasket(opt["level"])
    elif shape == "carpet":
        sample = geometry.build_carpet(opt["level"])
    elif shape == "polyline":
        try:
            coords = json.loads(opt["coords"])
        except json.JSONDecodeError as exc:
            raise UsageError(f"--coords is not valid JSON ({exc})") from exc
        sample = geometry.build_polyline(coords, closed=opt["closed"])
    elif shape == "graph":
        slopes = [float(s) for s in opt["slopes"].split(",") if s.strip()]
        sample = geometry.build_lipschitz_graph(slopes, opt["step"], opt["span"])
    else:
        sample = geometry.build_dumbbell(opt["radius"], opt["neck"], opt["step"])
    return 0, sample_to_dict(sample)


def _k_estimate(config: RunConfig, opt: dict):
    sample = load_sample(opt["set"])
    from . import metric
    if opt["sample"] is None:
        return 0, metric.estimate_chord_arc(sample, "exhaustive").as_dict()
    return 0, metric.estimate_chord_arc(
        sample, "sampled", seed=config.seed, pair_budget=opt["sample"]
    ).as_dict()


def _geodesic(config: RunConfig, opt: dict):
    sample = load_sample(opt["set"])
    from . import metric
    path = metric.shortest_path(sample, opt["i"], opt["j"])
    doc = {
        "schema_version": SCHEMA_VERSION,
        "source": opt["i"],
        "target": opt["j"],
        "distance": metric.geodesic_distance(sample, opt["i"], opt["j"]),
        "path_vertices": list(path.vertices),
        "path_length": path.length,
    }
    if opt.get("path"):
        with open(opt["path"], "w") as fh:
            json.dump(path_to_dict(path), fh, sort_keys=True, indent=2)
            fh.write("\n")
    return 0, doc


def _ftc(config: RunConfig, opt: dict):
    sample, f, A = _set_f_A(opt)
    from . import calculus, metric
    if opt.get("vertices"):
        chain = [int(v) for v in opt["vertices"].split(",")]
        path = geometry.PolylinePath.from_vertices(sample, chain)
    elif opt.get("src") is not None and opt.get("dst") is not None:
        path = metric.shortest_path(sample, opt["src"], opt["dst"])
    else:
        raise UsageError("ftc needs either --vertices or both --from and --to")
    residual = calculus.verify_ftc(f, A, path)
    tol = config.tol("ftc")
    doc = {
        "schema_version": SCHEMA_VERSION,
        "path_vertices": list(path.vertices),
        "residual": residual,
        "tol": tol,
        "passed": residual <= tol,
    }
    return (0 if doc["passed"] else 1), doc


def _reconstruct(config: RunConfig, opt: dict):
    sample = load_sample(opt["set"])
    A = _field(opt["A"], sample, CovectorField)
    from . import calculus
    rec = calculus.reconstruct(sample, A, opt["base"], opt["value"], defect_tol=config.tol("loop"))
    return 0, {
        "schema_version": SCHEMA_VERSION,
        "basepoint": opt["base"],
        "base_value": opt["value"],
        "field": rec.as_dict(),
        "warning": rec.warning,
    }


def _remainder_check(config: RunConfig, opt: dict):
    sample, f, A = _set_f_A(opt)
    from . import calculus
    report = calculus.verify_remainder_bound(
        f, A, sample, k=opt["k"], tol=config.tol("remainder"), pairs=bool(config.csv)
    )
    if config.csv:
        with open(config.csv, "w") as fh:
            emit_pairs_csv(report, fh)
    return _verdict(report)


def _holder_fit(config: RunConfig, opt: dict):
    sample, f, A = _set_f_A(opt)
    from . import calculus
    return 0, calculus.fit_holder_modulus(f, A, sample, k=opt["k"]).as_dict()


def _whitney(config: RunConfig, opt: dict):
    sample, f, A = _set_f_A(opt)
    from . import whitney
    return _verdict(whitney.check_whitney_c1(
        sample, f, A, scale_buckets=opt["buckets"], threshold=config.tol("whitney"),
        decay_tol=opt["slack"],
    ))


def _flatness(config: RunConfig, opt: dict):
    sample = load_sample(opt["set"])
    from . import whitney
    return 0, whitney.local_flatness(sample, opt["index"], opt["radius"]).as_dict()


def _clifford_check(config: RunConfig, opt: dict):
    doc = read_json(opt["columns"])
    from . import clifford
    L = clifford.map_from_dict(doc, source=opt["columns"])
    tol = config.tol("monogenic")
    check = clifford.is_left_monogenic if opt["side"] == "left" else clifford.is_right_monogenic
    return _verdict(check(L, tol))


def _clifford_complete(config: RunConfig, opt: dict):
    doc = read_json(opt["partial"])
    dim = opt["dim"]
    if doc.get("dim") != dim:
        raise UsageError(f"--dim {dim} does not match the file's dim {doc.get('dim')!r}")
    from . import clifford
    cols = [clifford.Multivector(dim, np.asarray(c, dtype=float)) for c in doc.get("columns", [])]
    out = clifford.complete_from_hyperplane(cols, side=opt["side"]).as_dict()
    out["schema_version"] = SCHEMA_VERSION
    return 0, out


def _clifford_dimension(config: RunConfig, opt: dict):
    from . import clifford
    n = opt["dim"]
    return 0, {
        "schema_version": SCHEMA_VERSION,
        "n": n,
        "side": opt["side"],
        "dimension": clifford.monogenic_space_dimension(n, side=opt["side"]),
        "closed_form": (n - 1) * 2 ** n,
    }


def _graph_derivative(config: RunConfig, opt: dict):
    sample = load_sample(opt["set"])
    f, deriv = _field(opt["f"], sample), _field(opt["A"], sample)
    from . import clifford
    return _verdict(clifford.tangential_derivative_on_graph(
        f, deriv, c_quad=opt["cquad"], tol=config.tol("graph")
    ))


#: subcommand (``clifford`` with its action) -> handler(config, options)
COMMANDS = {
    "build": _build,
    "k-estimate": _k_estimate,
    "geodesic": _geodesic,
    "ftc": _ftc,
    "reconstruct": _reconstruct,
    "remainder-check": _remainder_check,
    "holder-fit": _holder_fit,
    "whitney": _whitney,
    "flatness": _flatness,
    "clifford check": _clifford_check,
    "clifford complete": _clifford_complete,
    "clifford dimension": _clifford_dimension,
    "graph-derivative": _graph_derivative,
}


def dispatch(config: RunConfig) -> tuple[int, dict | None]:
    """Run one subcommand; returns (exit status, report document)."""
    key = config.command
    if key == "clifford":
        key = f"clifford {config.options.get('cliffcmd')}"
    if key not in COMMANDS:
        raise UsageError(f"unknown command {config.command!r}")
    return COMMANDS[key](config, config.options)


#: rows formatted and written per chunk by ``emit_pairs_csv``
_CSV_CHUNK_ROWS = 1 << 14


def emit_pairs_csv(report, out: TextIO) -> None:
    """Write the CSV of a ``RemainderBoundReport``, one row per unordered pair.

    Each row shows the direction of the pair with the larger remainder-bound
    slack; rows are sorted by distance, then pair indices, so output is
    stable across runs.  Rows are formatted and written to ``out`` in chunks
    of ``_CSV_CHUNK_ROWS``, so the whole document is never held in memory.
    A report without pair buffers gives the header alone.
    """
    out.write("dist,remainder,bound\n")
    if report.pair_dist is None:
        return
    order = np.lexsort((report.pair_index[:, 1], report.pair_index[:, 0], report.pair_dist))
    row = "{!r},{!r},{!r}".format
    for start in range(0, len(order), _CSV_CHUNK_ROWS):
        idx = order[start : start + _CSV_CHUNK_ROWS]
        rows = map(row, report.pair_dist[idx].tolist(), report.pair_remainder[idx].tolist(),
                   report.pair_bound[idx].tolist())
        out.write("\n".join(rows))
        out.write("\n")


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    opt = vars(args).copy()
    return RunConfig(
        command=opt.pop("command"),
        seed=opt.pop("seed", 0),
        tolerances=_parse_tolerances(opt.pop("tol", None)),
        out=opt.pop("out", None),
        csv=opt.pop("csv", None),
        options=opt,
    )


def _write_report(doc: dict, out: str | None) -> None:
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        config = _config_from_args(args)
        if config.csv and config.command != "remainder-check":
            raise UsageError("--csv is only supported for remainder-check")
        status, doc = dispatch(config)
    except QcalcError as exc:  # usage and input errors alike
        print(f"qcalc: {exc}", file=sys.stderr)
        return 2
    if doc is not None:
        _write_report(doc, config.out)
    return status


if __name__ == "__main__":
    sys.exit(main())
