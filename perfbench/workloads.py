"""The three workloads: seeded inputs, operation lists and oracle checks.

A workload is set up in two steps.  ``build_inputs`` makes its geometry
documents with qcalc's builders and ``dump_sample``; this is the timed
set-up, repeated before each measured pass.  Its ``plan`` then reads those
documents back, writes the field and map documents, and computes with
``oracles`` (scipy and numpy, not qcalc) what every operation must return:
a Plan, a fixed list of operations with their expected exit status and
output.  Geometry sizes are fixed per
workload; the seed picks query vertices, sampled-pair seeds, field
coefficients and small-input coordinates.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

import oracles as orc

# ---------------------------------------------------------------------------
# plan types


@dataclass
class Op:
    """One operation: a qcalc CLI run, or an in-process gradient call."""

    name: str
    argv: list                      # CLI arguments after ``python -m qcalc``
    expect: int = 0                 # expected exit status
    # CLI: (stdout, exit, files) -> None | reason; gradient: (result, all results)
    check: Callable | None = None
    writes: list = field(default_factory=list)   # files written besides stdout
    reads: list = field(default_factory=list)    # input files
    counts: dict = field(default_factory=dict)   # computed per-layer counts
    spec: dict | None = None        # in-process gradient operation


@dataclass
class Plan:
    ops: list
    passes: int
    inprocess: dict | None = None   # gradient_ops spec shared by all passes
    remainder_probe: dict | None = None  # remainder-check inputs for tracemalloc


@dataclass
class Shape:
    """One geometry input: a qcalc builder call, and how ``qcalc build`` spells it."""

    build: Callable                 # no-argument call of a qcalc builder
    cli: list | None = None         # the same shape as ``qcalc build`` arguments
    nv: int | None = None           # vertex and edge counts the build must give
    ne: int | None = None


@dataclass
class Workload:
    shapes: Callable    # rng -> {name: Shape}
    plan: Callable      # (rng, work, shapes, {name: path}) -> Plan
    builds_per_pass: int  # timed input builds before each untraced pass


def build_inputs(shapes: dict, work: Path) -> dict:
    """Build every shape with qcalc and write it with ``dump_sample``."""
    from qcalc.geometry import dump_sample

    paths = {}
    for name, shape in shapes.items():
        paths[name] = work / f"{name}.json"
        dump_sample(shape.build(), str(paths[name]))
    return paths


def json_doc(check):
    """Adapt a check on the parsed stdout report to the generic signature."""
    def run(stdout: bytes, code: int, files: dict):
        return check(json.loads(stdout), code, files)
    return run


def _write_json(path: Path, doc) -> Path:
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    return path


def _graph(path: Path) -> orc.Graph:
    return orc.Graph(json.loads(path.read_text()))


def _quadratic(rng, P):
    """Seeded quadratic f and its exact gradient; trapezoid sums are exact."""
    a, b, c, d, e = rng.uniform(-1.0, 1.0, 5)
    x, y = P[:, 0], P[:, 1]
    f = a * x * x + b * x * y + c * y * y + d * x + e * y
    A = np.stack([2 * a * x + b * y + d, b * x + 2 * c * y + e], axis=1)
    return f, A


def _fields(work: Path, name: str, f, A) -> tuple[Path, Path]:
    fp = _write_json(work / f"{name}_f.json",
                     {"version": 1, "set": "", "values": [float(v) for v in f]})
    ap = _write_json(work / f"{name}_A.json",
                     {"version": 1, "set": "", "covectors": A.tolist()})
    return fp, ap


def _pair(rng, nv):
    i, j = rng.choice(nv, size=2, replace=False)
    return int(i), int(j)


def _paths(*paths) -> list:
    return [str(p) for p in paths]


# ---------------------------------------------------------------------------
# pair-scan: nv^2 pair kernels in calculus


def shapes_pair_scan(rng) -> dict:
    from qcalc.geometry import build_gasket

    return {f"g{level}": Shape(partial(build_gasket, level)) for level in (5, 6, 7)}


def plan_pair_scan(rng, work: Path, _shapes: dict, paths: dict) -> Plan:
    shapes = {}
    for name, path in paths.items():
        g = _graph(path)
        f, A = _quadratic(rng, g.points)
        fp, ap = _fields(work, name, f, A)
        shapes[name] = (path, g, f, A, fp, ap)
    ops = []

    expectations = {}

    def remainder(name, k, brute, csv=None):
        path, g, f, A, fp, ap = shapes[name]
        if (name, k) not in expectations:
            expectations[name, k] = orc.remainder_expectation(g.points, f, A, k, 1e-9, brute)
        exp = expectations[name, k]
        expect = 0 if exp["violations_max"] == 0 else 1
        if exp["violations_min"] == 0 and expect:
            raise RuntimeError(f"remainder check on {name} with k={k!r} sits on the tolerance")
        argv = ["remainder-check", str(path), str(fp), str(ap), "--k", repr(k)]
        writes = []
        if csv:
            argv += ["--csv", str(csv)]
            writes = [str(csv)]

        def check(doc, code, files, exp=exp, k=k):
            bad = orc.check_remainder(doc, code, exp, k)
            if not bad and csv:
                bad = orc.check_pairs_csv(files[str(csv)].decode(), exp)
            return bad
        n = g.nv
        label = f"remainder-check {name} k={k:.3f}" + (" csv" if csv else "")
        ops.append(Op(label, argv, expect, json_doc(check), writes=writes,
                      reads=_paths(path, fp, ap),
                      counts={"calculus.remainder_pairs": n * (n - 1),
                              "calculus.remainder_pair_buffer_bytes": 48 * n * (n - 1) // 2}))
        return {"sample": str(path), "f": str(fp), "A": str(ap), "k": k, "nv": n}

    k6 = orc.chord_arc_exhaustive(shapes["g6"][1]) * float(rng.uniform(1.05, 1.3))
    k5 = orc.chord_arc_exhaustive(shapes["g5"][1]) * float(rng.uniform(1.05, 1.3))
    k_low = float(rng.uniform(0.5, 0.9))
    remainder("g6", k6, brute=False)
    probe = remainder("g5", k5, brute=True)
    remainder("g5", k5, brute=True, csv=work / "pairs.csv")
    remainder("g5", k_low, brute=True)

    profiles = {}
    for name in ("g6", "g7"):
        path, g, f, A, fp, ap = shapes[name]
        profiles[name] = profile = orc.modulus_profile(g.points, f, A)
        kh = float(rng.uniform(1.0, 3.0))
        ops.append(Op(f"holder-fit {name}",
                      ["holder-fit", str(path), str(fp), str(ap), "--k", repr(kh)],
                      check=json_doc(lambda doc, code, _, p=profile, kh=kh:
                                     orc.check_holder(doc, p, kh)),
                      reads=_paths(path, fp, ap)))
    # a C1 check on gasket 7 with a seeded bucket count and decay slack (the
    # CLI's defaults are 6 buckets, slack 0.1 and the 0.05 tolerance)
    path, g, f, A, fp, ap = shapes["g7"]
    buckets, slack = int(rng.integers(3, 7)), float(np.round(rng.uniform(0.05, 0.2), 4))
    w_pass = orc.whitney_verdict(profiles["g7"], buckets, slack, 0.05)[1]
    ops.append(Op(f"whitney g7 buckets={buckets} slack={slack}",
                  ["whitney", str(path), str(fp), str(ap), "--buckets", str(buckets),
                   "--slack", repr(slack)],
                  0 if w_pass else 1,
                  json_doc(lambda doc, code, _: orc.check_whitney(
                      doc, code, profiles["g7"], buckets, slack, 0.05)),
                  reads=_paths(path, fp, ap)))
    # 7 operations x 5 passes: the 11th-largest latency is the middle of the
    # ten gasket-7 samples, the median (18th) the middle of the five --csv runs
    return Plan(ops, passes=5, remainder_probe=probe)


# ---------------------------------------------------------------------------
# small-cli: process start, parse, dispatch and write on small inputs


def _walk(rng, g: orc.Graph, steps: int) -> list:
    nbrs = {}
    for i, j in g.edges.tolist():
        nbrs.setdefault(i, []).append(j)
        nbrs.setdefault(j, []).append(i)
    v = int(rng.integers(g.nv))
    chain = [v]
    for _ in range(steps):
        v = int(rng.choice(sorted(nbrs[v])))
        chain.append(v)
    return chain


def shapes_small_cli(rng) -> dict:
    from qcalc.geometry import (build_carpet, build_dumbbell, build_gasket,
                                build_lipschitz_graph, build_polyline)

    # sizes are fixed; the seed picks coordinates, slopes and the neck width
    coords = np.round(rng.uniform(0, 1, size=(8, 2)), 6).tolist()
    slopes = np.round(rng.uniform(-1, 1, size=3), 4).tolist()
    step = 1.0 / 32
    neck = float(np.round(rng.uniform(0.1, 0.4), 4))
    n_circle = 32
    dstep = 2 * math.pi / n_circle
    return {
        "g3": Shape(partial(build_gasket, 3), ["gasket", "--level", "3"], 42, 81),
        "g4": Shape(partial(build_gasket, 4), ["gasket", "--level", "4"], 123, 243),
        "c2": Shape(partial(build_carpet, 2), ["carpet", "--level", "2"], 64),
        "c3": Shape(partial(build_carpet, 3), ["carpet", "--level", "3"], 512),
        "poly": Shape(partial(build_polyline, coords, closed=True),
                      ["polyline", "--coords", json.dumps(coords), "--closed"],
                      len(coords), len(coords)),
        "graph": Shape(partial(build_lipschitz_graph, slopes, step, (0.0, 2.0)),
                       ["graph", "--slopes=" + ",".join(map(repr, slopes)), "--step",
                        repr(step), "--span", "0", "2"]),
        "bell": Shape(partial(build_dumbbell, 1.0, neck, dstep),
                      ["dumbbell", "--radius", "1", "--neck", repr(neck), "--step", repr(dstep)],
                      2 * n_circle + 1, 2 * n_circle + 2),
    }


def plan_small_cli(rng, work: Path, shapes: dict, paths: dict) -> Plan:
    out = work / "out"
    out.mkdir(exist_ok=True)
    ops = []
    inputs = {}
    for name, shape in shapes.items():
        path = paths[name]
        inputs[name] = (path, _graph(path))
        target = out / f"{name}.json"

        def check_build(text, code, files, target=str(target), nv=shape.nv, ne=shape.ne):
            if text:
                return "build with --out wrote to stdout"
            return orc.check_sample_doc(json.loads(files[target]), nv, ne)
        ops.append(Op(f"build {name}", ["build", *shape.cli, "--out", str(target)],
                      check=check_build, writes=[str(target)]))

    for name in ("g4", "c3", "bell"):
        path, g = inputs[name]
        x = int(rng.integers(g.nv))
        radius = float(np.round(rng.uniform(0.3, 0.5), 4))
        ops.append(Op(f"flatness {name}",
                      ["flatness", str(path), "--index", str(x), "--radius", repr(radius)],
                      check=json_doc(lambda doc, code, _, g=g, x=x, r=radius:
                                     orc.check_flatness(doc, g, x, r)),
                      reads=_paths(path)))

    for name in ("g3", "g4", "c3"):
        path, g = inputs[name]
        f, A = _quadratic(rng, g.points)
        fp, ap = _fields(work, name, f, A)
        chain = _walk(rng, g, 8)
        want = orc.trapezoid_residual(g, f, A, chain)

        def check_ftc(doc, code, _, chain=chain, want=want):
            if doc["path_vertices"] != chain:
                return "path differs from the requested chain"
            if not orc.close(doc["residual"], want, rel=0, abs_=1e-12) or not doc["passed"]:
                return f"residual {doc['residual']!r}, oracle {want!r}"
            return None
        ops.append(Op(f"ftc {name} vertices",
                      ["ftc", str(path), str(fp), str(ap),
                       "--vertices", ",".join(map(str, chain))],
                      check=json_doc(check_ftc), reads=_paths(path, fp, ap)))

    for name in ("g4", "c3", "bell", "poly"):
        path, g = inputs[name]
        i, j = _pair(rng, g.nv)
        d = float(g.distances([i])[0, j])
        pfile = out / f"path_{name}.json"

        def check_geo(doc, code, files, g=g, i=i, j=j, d=d, pfile=str(pfile)):
            bad = orc.check_path(g, doc["path_vertices"], i, j, d, doc["path_length"])
            if bad:
                return bad
            pdoc = json.loads(files[pfile])
            if pdoc["vertices"] != doc["path_vertices"]:
                return "--path file differs from the report"
            if not orc.close(pdoc["cumulative_length"][-1], d):
                return "--path file length differs from the geodesic distance"
            return None
        ops.append(Op(f"geodesic {name} path",
                      ["geodesic", str(path), str(i), str(j), "--path", str(pfile)],
                      check=json_doc(check_geo), writes=[str(pfile)], reads=_paths(path),
                      counts={"metric.dijkstra_sources": 2}))

    # chord-arc scans: exhaustive on gasket 4, a seeded pair sample on carpet 3
    path, g = inputs["g4"]
    ratios = orc.pair_ratios(g)
    k_hat = float(np.max(ratios))
    npairs = g.nv * (g.nv - 1) // 2
    ops.append(Op("k-estimate g4 exhaustive", ["k-estimate", str(path), "--exhaustive"],
                  check=json_doc(lambda doc, code, _, k=k_hat, n=npairs, r=ratios:
                                 orc.check_k_estimate(doc, k, n, lambda i, j: r[i, j])),
                  reads=_paths(path),
                  counts={"metric.pairs_scanned": npairs, "metric.dijkstra_sources": g.nv - 1}))
    path, g = inputs["c3"]
    budget, kseed = 200, int(rng.integers(0, 2**31 - 1))
    pairs = orc.sampled_pairs(g.nv, kseed, budget)
    k_s, ratio_of = orc.chord_arc_over(g, pairs)
    ops.append(Op(f"k-estimate c3 sample {budget}",
                  ["k-estimate", str(path), "--sample", str(budget), "--seed", str(kseed)],
                  check=json_doc(lambda doc, code, _, k=k_s, r=ratio_of:
                                 orc.check_k_estimate(doc, k, budget,
                                                      lambda i, j: r.get((i, j), math.nan))),
                  reads=_paths(path),
                  counts={"metric.pairs_scanned": sum(len(v) for v in pairs.values()),
                          "metric.dijkstra_sources": len(pairs)}))

    path, g = inputs["graph"]
    alpha = complex(*rng.uniform(-1, 1, 2))
    beta = complex(*rng.uniform(-1, 1, 2))
    z = g.points[:, 0] + 1j * g.points[:, 1]
    fz, az = alpha * z * z + beta * z, 2 * alpha * z + beta
    res, h = orc.graph_derivative_residual(g.points, fz, az)
    gd_pass = res <= h * h + 1e-9   # the default --cquad 1 threshold
    fp = _write_json(work / "graph_f.json", {"version": 1, "set": "",
                                             "values": [[v.real, v.imag] for v in fz]})
    ap = _write_json(work / "graph_a.json", {"version": 1, "set": "",
                                             "values": [[v.real, v.imag] for v in az]})

    def check_gd(doc, code, _):
        if not orc.close(doc["max_residual"], res, rel=1e-6, abs_=1e-13):
            return f"max_residual {doc['max_residual']!r}, oracle {res!r}"
        if not orc.close(doc["grid_step"], h) or doc["passed"] != gd_pass:
            return "grid step or verdict differs from the oracle"
        return None
    ops.append(Op("graph-derivative", ["graph-derivative", str(path), str(fp), str(ap)],
                  0 if gd_pass else 1, json_doc(check_gd), reads=_paths(path, fp, ap)))

    for n, broken in ((3, False), (6, False), (5, True)):
        side = "left" if rng.integers(2) else "right"
        partial = [rng.uniform(-1, 1, 1 << n) for _ in range(n - 1)]
        cols = partial + [orc.complete_column(n, partial, side)]
        if broken:
            cols[-1] = cols[-1] + np.eye(1 << n)[int(rng.integers(1 << n))] * 0.25
        defect = float(np.linalg.norm(orc.dirac_sum(n, cols, side)))
        cpath = _write_json(work / f"map{len(ops)}.json",
                            {"dim": n, "columns": [c.tolist() for c in cols]})

        def check_map(doc, code, _, defect=defect, side=side):
            if doc["side"] != side or not orc.close(doc["defect"], defect, rel=1e-6,
                                                    abs_=1e-12):
                return f"defect {doc['defect']!r}, oracle {defect!r}"
            return None
        ops.append(Op(f"clifford check n={n} {side}",
                      ["clifford", "check", str(cpath), "--side", side], 1 if broken else 0,
                      json_doc(check_map), reads=_paths(cpath)))

    for n in (4, 6):
        side = "left" if rng.integers(2) else "right"
        partial = [rng.uniform(-1, 1, 1 << n) for _ in range(n - 1)]
        last = orc.complete_column(n, partial, side)
        ppath = _write_json(work / f"partial{len(ops)}.json",
                            {"dim": n, "columns": [c.tolist() for c in partial]})

        def check_complete(doc, code, _, n=n, partial=partial, last=last, side=side):
            cols = [np.asarray(c) for c in doc["columns"]]
            if doc["dim"] != n or len(cols) != n:
                return "wrong shape"
            if not all(np.allclose(c, p, atol=1e-12) for c, p in zip(cols, partial)):
                return "hyperplane columns changed"
            if not np.allclose(cols[-1], last, atol=1e-12):
                return "completed column differs from the oracle"
            return None
        ops.append(Op(f"clifford complete n={n} {side}",
                      ["clifford", "complete", "--dim", str(n), "--side", side,
                       "--partial", str(ppath)],
                      check=json_doc(check_complete), reads=_paths(ppath)))

    for n in (3, 5, 6):
        side = "left" if rng.integers(2) else "right"
        ops.append(Op(f"clifford dimension n={n}",
                      ["clifford", "dimension", "--dim", str(n), "--side", side],
                      check=json_doc(lambda doc, code, _, n=n: None
                                     if doc["dimension"] == doc["closed_form"] == (n - 1) * 2**n
                                     else f"dimension {doc['dimension']}")))

    # documents qcalc must reject with exit status 2 and no report
    g4doc = json.loads(inputs["g4"][0].read_text())
    for name, text, (cmd, *rest) in (
            ("bad-json", '{"version": 1, "points": [[0, 0], [1, 0]',
             ["flatness", "--index", "0", "--radius", "0.5"]),
            ("bad-version", json.dumps({**g4doc, "version": 99}), ["k-estimate", "--exhaustive"]),
            ("bad-edge", json.dumps({**g4doc, "edges": g4doc["edges"] + [[0, 10**6, 1.0]]}),
             ["geodesic", "0", "1"])):
        bpath = work / f"{name}.json"
        bpath.write_text(text)
        ops.append(Op(f"reject {name}", [cmd, str(bpath), *rest], 2,
                      lambda text, code, _: "rejected input produced a report" if text else None,
                      reads=_paths(bpath)))
    return Plan(ops, passes=3)


# ---------------------------------------------------------------------------
# gradient: dense least squares and library-only routes, in-process


def shapes_gradient(rng) -> dict:
    from qcalc.geometry import build_carpet, build_gasket

    return {"g5": Shape(partial(build_gasket, 5)), "c3": Shape(partial(build_carpet, 3)),
            "g6": Shape(partial(build_gasket, 6)), "g7": Shape(partial(build_gasket, 7))}


def plan_gradient(rng, work: Path, _shapes: dict, paths: dict) -> Plan:
    from scipy.sparse import csr_matrix
    from scipy.sparse.linalg import lsqr

    from gradient_ops import field_values

    samples = {name: str(path) for name, path in paths.items()}
    graphs = {name: _graph(path) for name, path in paths.items()}

    def draw_coef() -> list:
        return [float(rng.uniform(0.5, 1.5)), float(rng.uniform(0.5, 1.5)),
                float(rng.uniform(2.0, 4.0)), float(rng.uniform(0, math.pi)),
                float(rng.uniform(-1, 1))]
    coef = {name: draw_coef() for name in paths}
    specs, ops = [], []

    def add(name, spec, check, counts=None, reads=()):
        spec["id"] = len(specs)
        specs.append(spec)
        ops.append(Op(name, [], check=check, spec=spec, counts=counts or {}, reads=list(reads)))
        return spec["id"]

    # the local Lipschitz constant C and the chord-arc constant k come from
    # the oracle; gasket 7 (5.4 million pairs) is the largest scan here.
    # Gasket 6 is scanned with three fields, so that the middle operations
    # of a pass (by latency) are these three and op_p50_s is the median of
    # 3 x passes samples of one kind.  These pure-numpy scans run first in
    # each pass, ahead of the BLAS-threaded fits
    scans = [("g6", "", coef["g6"]), ("g6", " (field 2)", draw_coef()),
             ("g6", " (field 3)", draw_coef()), ("g7", "", coef["g7"])]
    for name, label, field_coef in scans:
        g = graphs[name]
        f = field_values(g.points, field_coef)
        local, l_glob, k = orc.lipschitz_and_chord_arc(g, f, 2.0 * float(np.max(g.lengths)))
        C = local * 1.01

        def check_l2g(res, _, l_glob=l_glob, k=k, C=C):
            if not res["hypothesis_ok"] or not orc.close(res["l_glob"], l_glob):
                return f"l_glob {res['l_glob']!r}, oracle {l_glob!r}"
            if res["bound_ok"] != (res["l_glob"] <= k * C + 1e-9):
                return "bound verdict disagrees with l_glob and k C"
            return None
        add(f"verify_local_to_global {name}{label}",
            {"kind": "local_to_global", "sample": name, "coef": field_coef, "C": C, "k": k},
            check_l2g, {"metric.pairs_scanned": g.nv * (g.nv - 1) // 2})

    # one dense least-squares fit per sample, smallest first (gasket 4's flips
    # between 0.01 s and 0.45 s with the BLAS threads' state, so it is not run)
    dg_ids = {}
    for name in ("g5", "c3", "g6"):
        g = graphs[name]
        f = field_values(g.points, coef[name])
        ne, nv = len(g.edges), g.nv
        u, v = g.edges[:, 0], g.edges[:, 1]
        half = 0.5 * (g.points[v] - g.points[u])
        rows = np.repeat(np.arange(ne), 4)
        cols = np.stack([2 * u, 2 * u + 1, 2 * v, 2 * v + 1], axis=1).ravel()
        vals = np.concatenate([half, half], axis=1).ravel()
        D = csr_matrix((vals, (rows, cols)), shape=(ne, 2 * nv))
        b = f[v] - f[u]
        x_ls = lsqr(D, b, atol=1e-14, btol=1e-14, iter_lim=20 * ne)[0]
        r_opt = float(np.linalg.norm(D @ x_ls - b))

        def check_dg(res, _, D=D, b=b, r_opt=r_opt):
            x = np.asarray(res["covectors"]).ravel()
            r = D @ x - b
            if np.linalg.norm(D.T @ r) > 1e-9 * max(1.0, np.linalg.norm(b)):
                return "covectors are not a least-squares solution"
            if not orc.close(float(np.linalg.norm(r)), r_opt, rel=1e-6, abs_=1e-10):
                return f"residual {np.linalg.norm(r)!r}, least-squares optimum {r_opt!r}"
            return None
        dg_ids[name] = add(
            f"discrete_gradient {name}", {"kind": "discrete_gradient", "sample": name},
            check_dg, {"calculus.discrete_gradient_dense_bytes": 8 * ne * 2 * nv},
            reads=[samples[name]])  # each pass loads the sample once, up front

    # the round trip: reconstruct each sample's field from its discrete
    # gradient.  Gasket 5's edge system is rank-deficient, so its round trip
    # leaves a loop defect that reconstruct must report.  These three quick
    # calls and affine_rigidity_test are the four fastest operations, the
    # four slowest are the three fits and the gasket-7 scan
    for name in ("g5", "c3", "g6"):
        g = graphs[name]
        f = field_values(g.points, coef[name])
        base = int(rng.integers(g.nv))

        def check_rec(res, results, g=g, f=f, base=base, dg_id=dg_ids[name]):
            vals = np.asarray(res["values"])
            A = np.asarray(results[dg_id]["covectors"])
            trap = np.einsum("ij,ij->i", 0.5 * (A[g.edges[:, 0]] + A[g.edges[:, 1]]),
                             g.points[g.edges[:, 1]] - g.points[g.edges[:, 0]])
            worst = float(np.max(np.abs(vals[g.edges[:, 0]] + trap - vals[g.edges[:, 1]])))
            if vals[base] != f[base]:
                return "basepoint value changed"
            warning = res["warning"]
            if worst <= 1e-9:
                return None if warning is None else f"unexpected warning {warning!r}"
            if warning is None:
                return f"loop defect {worst:.3e} not reported"
            reported = float(warning.split("defect ")[1].split()[0])
            return None if orc.close(reported, worst, rel=1e-5) else \
                f"reported loop defect {reported!r}, oracle {worst!r}"
        add(f"reconstruct {name} from discrete gradient",
            {"kind": "reconstruct", "sample": name, "base": base}, check_rec,
            {"metric.dijkstra_sources": 1})

    aff = [float(x) for x in rng.uniform(-1, 1, 3)]

    def check_aff(res, _, aff=aff):
        if not (res["passed"] and res["hypothesis_ok"] and res["max_residual"] <= 1e-9):
            return "affine field not recognised"
        if not np.allclose([res["intercept"], *res["gradient"]], aff, atol=1e-9):
            return "fitted affine coefficients differ from the input"
        return None
    add("affine_rigidity_test g6", {"kind": "affine", "sample": "g6", "affine": aff}, check_aff)

    return Plan(ops, passes=7, inprocess={"samples": samples, "coef": coef, "ops": specs})


# input builds per run: 1 + passes x builds_per_pass, about 2 s of them for
# pair-scan and gradient, 0.6 s for small-cli, whose builds take about 12 ms
WORKLOADS = {
    "pair-scan": Workload(shapes_pair_scan, plan_pair_scan, builds_per_pass=4),
    "small-cli": Workload(shapes_small_cli, plan_small_cli, builds_per_pass=17),
    "gradient": Workload(shapes_gradient, plan_gradient, builds_per_pass=3),
}
