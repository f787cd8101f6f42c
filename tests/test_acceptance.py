"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see every line.  All
expected values were computed with the independent oracles in conftest.py
before being frozen here.
"""
from __future__ import annotations

import json
import math

import numpy as np

from qcalc import clifford, metric, whitney
from qcalc.calculus import (
    affine_rigidity_test,
    discrete_gradient,
    fit_holder_modulus,
    loop_defect,
    reconstruct,
    verify_ftc,
    verify_remainder_bound,
)
from qcalc.cli import main as cli_main
from qcalc.fields import CovectorField, ScalarField, dump_field
from qcalc.geometry import (
    PolylinePath,
    build_carpet,
    build_gasket,
    build_lipschitz_graph,
    build_polyline,
    dump_sample,
)
from qcalc.metric import estimate_chord_arc, verify_local_to_global

from conftest import (
    brute_force_chord_arc,
    circle_points,
    edge_rows,
    geodesic_field,
    measured_local_constant,
    point_rows,
    vertex_at,
)


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    tail = f" | {detail}" if detail else ""
    print(f"[acceptance] criterion {num:2d} ({name}): {status}{tail}")


def segment_grid(h: float, length: float = 1.0):
    n = int(round(length / h))
    return build_polyline([(i * h, 0.0) for i in range(n + 1)])


# ---------------------------------------------------------------------------


def test_criterion_1_chord_arc_estimator(circle256, khat_circle256):
    seg = build_polyline([(i / 10, 0.0) for i in range(11)])
    rep_seg = estimate_chord_arc(seg)
    ok_seg = abs(rep_seg.k_hat - 1.0) <= 1e-12

    ell = build_polyline([(0, 0), (1, 0), (1, 1)])
    rep_ell = estimate_chord_arc(ell)
    ok_ell = abs(rep_ell.k_hat - math.sqrt(2)) <= 1e-9

    ok_circle = abs(khat_circle256.k_hat - math.pi / 2) <= 1e-3

    ok_gasket = True
    for level in range(5):
        g = build_gasket(level)
        rep = estimate_chord_arc(g)
        again = estimate_chord_arc(g)
        k_oracle, w_oracle = brute_force_chord_arc(g)
        ok_gasket &= math.isfinite(rep.k_hat) and rep.k_hat >= 1.0 - 1e-12
        ok_gasket &= rep.witness_pair == again.witness_pair  # deterministic
        ok_gasket &= math.isclose(rep.k_hat, k_oracle, rel_tol=1e-12)

    # oracle cross-checks for the small fixtures too
    for sample, rep in ((seg, rep_seg), (ell, rep_ell), (circle256, khat_circle256)):
        k_oracle, _ = brute_force_chord_arc(sample)
        ok_gasket &= math.isclose(rep.k_hat, k_oracle, rel_tol=1e-12)

    ok = ok_seg and ok_ell and ok_circle and ok_gasket
    report(1, "chord-arc estimator", ok,
           f"segment k={rep_seg.k_hat:.15g}, "
           f"circle |k-pi/2|={abs(khat_circle256.k_hat - math.pi / 2):.2e}")
    assert ok


def test_criterion_2_local_to_global(circle256, gasket3, dumbbell):
    geoms = {"circle256": circle256, "gasket m=3": gasket3, "dumbbell": dumbbell}
    khats = {name: estimate_chord_arc(s).k_hat for name, s in geoms.items()}
    field_fns = [
        lambda p: p[0],
        lambda p: p[1],
        lambda p: p[0] + p[1],
        lambda p: 2 * p[0] - p[1],
        lambda p: p[0] ** 2,
        lambda p: p[0] * p[1],
        lambda p: math.sin(p[0]),
        lambda p: math.cos(p[1]),
        lambda p: p[0] ** 2 + p[1] ** 2,
        lambda p: math.exp(p[0] / 2),
    ]
    cases = passes = 0
    for name, s in geoms.items():
        radius = 2.0 * s.max_edge_length
        fields = [ScalarField.from_function(s, fn) for fn in field_fns]
        fields.append(geodesic_field(s))  # intrinsic distance from vertex 0
        for f in fields:
            C = measured_local_constant(s, f, radius)
            rep = verify_local_to_global(s, f, radius, C, khats[name], tol=1e-9)
            cases += 1
            passes += rep.passed
    ok = passes == cases and cases >= 30
    report(2, "local-to-global Lipschitz", ok, f"{passes}/{cases} field cases")
    assert ok


def test_criterion_3_path_integral_identity(gasket2, square_loop, dumbbell):
    geometries = [
        build_polyline([(0, 0), (1, 0), (1, 1)]),
        square_loop,
        build_polyline(circle_points(64), closed=True),
        gasket2,
        build_carpet(2),
        build_lipschitz_graph([0.5, -0.5], 0.25, (0.0, 2.0)),
        dumbbell,
    ]
    affine_ok = True
    for s in geometries:
        f = ScalarField.from_function(s, lambda p: 3.0 + 2.0 * p[0] - p[1])
        A = CovectorField.constant(s, (2.0, -1.0))
        path = metric.shortest_path(s, 0, s.vertex_count - 1)
        affine_ok &= verify_ftc(f, A, path) <= 1e-12

    residuals = []
    for k in range(3, 9):
        seg = segment_grid(2.0 ** -k)
        f = ScalarField.from_function(seg, lambda p: math.sin(p[0]))
        A = CovectorField.from_function(seg, lambda p: (math.cos(p[0]), 0.0))
        path = PolylinePath.from_vertices(seg, range(seg.vertex_count))
        residuals.append(verify_ftc(f, A, path))
    ratios = [residuals[i] / residuals[i + 1] for i in range(len(residuals) - 1)]
    ratio_ok = len(ratios) >= 4 and all(3.5 <= r <= 4.5 for r in ratios)

    ok = affine_ok and ratio_ok
    report(3, "path-integral identity", ok,
           f"affine exact on {len(geometries)} geometries, "
           f"ratios {[round(r, 3) for r in ratios]}")
    assert ok


FIELD_TRIPLES = [
    ("x^2", lambda p: p[0] ** 2, lambda p: (2 * p[0], 0.0)),
    ("xy", lambda p: p[0] * p[1], lambda p: (p[1], p[0])),
    ("sin x + y^2", lambda p: math.sin(p[0]) + p[1] ** 2,
     lambda p: (math.cos(p[0]), 2 * p[1])),
]


def test_criterion_4_remainder_bound(gasket4, carpet3, khat_gasket4, khat_carpet3):
    results = []
    for sample, khat in ((gasket4, khat_gasket4.k_hat), (carpet3, khat_carpet3.k_hat)):
        for name, fn, gn in FIELD_TRIPLES:
            f = ScalarField.from_function(sample, fn)
            A = CovectorField.from_function(sample, gn)
            rep = verify_remainder_bound(f, A, sample, k=khat, tol=1e-9)
            results.append((sample.label, name, rep.passed, rep.pair_count))
    positive_ok = all(r[2] for r in results)

    # designed negative: a constant 0.1 shift of the covector field.  The
    # shift is invisible to the oscillation, so violations only appear once
    # pair distances drop below about shift/(2 k^2); at gasket m=4 or carpet
    # m=3 granularity the bound still absorbs it, hence a fine segment grid.
    seg = segment_grid(1.0 / 64)
    f = ScalarField.from_function(seg, lambda p: p[0] ** 2)
    shifted = CovectorField.from_function(seg, lambda p: (2 * p[0] + 0.1, 0.0))
    k_seg = estimate_chord_arc(seg).k_hat
    neg = verify_remainder_bound(f, shifted, seg, k=k_seg, tol=1e-9)
    negative_ok = (not neg.passed) and len(neg.violations) > 0

    ok = positive_ok and negative_ok
    report(4, "remainder bound", ok,
           f"{sum(r[2] for r in results)}/{len(results)} positive suites, "
           f"negative violations={len(neg.violations)}")
    assert ok


def test_criterion_5_affine_rigidity(gasket3, square_loop, dumbbell):
    geometries = [
        build_polyline([(0, 0), (1, 0), (1, 1)]),
        square_loop,
        build_polyline(circle_points(64), closed=True),
        gasket3,
        build_carpet(2),
        build_lipschitz_graph([0.5, -0.5], 0.25, (0.0, 2.0)),
        dumbbell,
    ]
    worst = 0.0
    ok = True
    for s in geometries:
        A = CovectorField.constant(s, (0.75, -0.4))
        rec = reconstruct(s, A, 0, 2.5)
        rep = affine_rigidity_test(s, rec, A)
        ok &= rep.passed and rep.max_residual <= 1e-9
        worst = max(worst, rep.max_residual)
    report(5, "affine rigidity", ok,
           f"{len(geometries)} geometries, worst residual {worst:.2e}")
    assert ok


def test_criterion_6_reconstruction_round_trip(square_loop, dumbbell):
    cases = [
        (segment_grid(1.0 / 64), lambda p: math.sin(3 * p[0])),
        (build_polyline(circle_points(128), closed=True),
         lambda p: math.sin(p[0]) + p[1] ** 2),
        (build_carpet(2), lambda p: p[0] * p[1]),
        (build_lipschitz_graph([0.5, -0.5], 0.0625, (0.0, 2.0)),
         lambda p: math.cos(p[0]) * (1 + p[1])),
        (dumbbell, lambda p: p[0] ** 2 - p[1]),
    ]
    worst = 0.0
    ok = True
    for sample, fn in cases:
        f = ScalarField.from_function(sample, fn)
        A = discrete_gradient(sample, f)
        rec = reconstruct(sample, A, 0, float(f.values[0]))
        dev = rec.values - f.values
        spread = float(np.max(np.abs(dev - dev[0])))
        ok &= rec.warning is None and spread <= 1e-9
        worst = max(worst, spread)

    A = CovectorField.from_function(square_loop, lambda p: (-p[1], p[0]))
    defect = loop_defect(A, PolylinePath.from_vertices(square_loop, [0, 1, 2, 3, 0]))
    ok &= abs(defect - 2.0) <= 1e-9

    report(6, "reconstruction round-trip", ok,
           f"{len(cases)} geometries, worst spread {worst:.2e}, "
           f"square defect {defect:.12g}")
    assert ok


def test_criterion_7_holder_exponent_recovery():
    # >= 3 decades of pair scales: octaves 2^-11 .. 2^-1 on the refined grid
    seg = segment_grid(2.0 ** -11)
    f1 = ScalarField.from_function(seg, lambda p: p[0] ** 2 / 2)
    A1 = CovectorField.from_function(seg, lambda p: (p[0], 0.0))
    fit1 = fit_holder_modulus(f1, A1, seg, k=1.0)
    f2 = ScalarField.from_function(seg, lambda p: (2.0 / 3.0) * p[0] ** 1.5)
    A2 = CovectorField.from_function(seg, lambda p: (math.sqrt(p[0]), 0.0))
    fit2 = fit_holder_modulus(f2, A2, seg, k=1.0)

    decades = math.log10(fit1.remainder.scales[-1][0] / fit1.remainder.scales[0][0])
    ok = (
        decades >= 3.0
        and abs(fit1.remainder.alpha_hat - 1.0) <= 0.1
        and abs(fit1.differential.alpha_hat - 1.0) <= 0.1
        and abs(fit2.remainder.alpha_hat - 0.5) <= 0.1
        and abs(fit2.differential.alpha_hat - 0.5) <= 0.1
    )
    report(7, "Holder exponent recovery", ok,
           f"alpha(1.0) -> {fit1.remainder.alpha_hat:.3f}, "
           f"alpha(0.5) -> {fit2.remainder.alpha_hat:.3f}, "
           f"{decades:.1f} decades")
    assert ok


def test_criterion_8_whitney_flatness(gasket3):
    line = build_polyline([(i / 10, 0.0) for i in range(11)])
    f_line = ScalarField.from_function(line, lambda p: p[0])
    flat = whitney.local_flatness(line, 5, 0.35)
    sub = whitney.determined_subspace(line, f_line, 5, 0.35)
    ok = flat.flatness_score <= 1e-12 and sub.dimension == 1

    v = vertex_at(gasket3, (0.375, math.sqrt(3) * 0.125))
    f_g = ScalarField.from_function(gasket3, lambda p: p[0] ** 2 + p[1] ** 2)
    ok &= whitney.determined_subspace(gasket3, f_g, v, 0.25).dimension == 2

    theta, shift = 1.2, np.array([-3.0, 0.5])
    R = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
    from qcalc.geometry import SetSample

    moved = SetSample(
        2, tuple(tuple(R @ np.array(p) + shift) for p in point_rows(gasket3)),
        edge_rows(gasket3), "moved",
    )
    a = whitney.local_flatness(gasket3, v, 0.26).flatness_score
    b = whitney.local_flatness(moved, v, 0.26).flatness_score
    ok &= abs(a - b) <= 1e-9

    report(8, "Whitney flatness", ok,
           f"collinear dim 1, gasket dim 2, motion drift {abs(a - b):.2e}")
    assert ok


def test_criterion_9_clifford_uniqueness():
    from scipy.linalg import null_space

    trials_ok = 0
    trials = 0
    for n in (2, 3, 4):
        basis = null_space(clifford.dirac_constraint_matrix(n, "left"))
        rng = np.random.default_rng(900 + n)
        for _ in range(100):
            trials += 1
            vec = rng.normal(size=n * 2 ** n)
            proj = basis @ (basis.T @ vec)
            cols = tuple(
                clifford.Multivector(n, proj[i * 2 ** n : (i + 1) * 2 ** n])
                for i in range(n)
            )
            completed = clifford.complete_from_hyperplane(cols[: n - 1], "left")
            diff = np.max(np.abs(completed.columns[n - 1].coeffs - cols[n - 1].coeffs))
            trials_ok += diff <= 1e-12

    dims_ok = all(
        clifford.monogenic_space_dimension(n) == (n - 1) * 2 ** n for n in (2, 3, 4, 5)
    )

    rng = np.random.default_rng(17)
    complex_ok = True
    for _ in range(20):
        c = complex(rng.normal(), rng.normal())
        via = clifford.complete_from_hyperplane([clifford.complex_to_even(c)], "left")
        expect = clifford.complex_complete(c).clifford_columns()[1]
        complex_ok &= float(np.max(np.abs(via.columns[1].coeffs - expect.coeffs))) <= 1e-12

    ok = trials_ok == trials == 300 and dims_ok and complex_ok
    report(9, "Clifford uniqueness", ok,
           f"{trials_ok}/{trials} round-trips, dims 2..5 ok={dims_ok}, "
           f"complex match={complex_ok}")
    assert ok


def test_criterion_10_graph_derivative_decay():
    """f(z)=z^2 with a(z)=2z on the slope-1/2 graph: stated O(h^2) ratio check.

    As implemented (centered differences at interior nodes, per the module
    contract) the composed parameter function x -> (x + i x/2)^2 is exactly
    quadratic, so the residual is machine zero at every grid step instead of
    decaying like h^2.  The stated ratio window is therefore unattainable;
    see the companion test for the honest behavior (exactness, plus genuine
    second-order decay for a cubic).  This test keeps the criterion as
    written and is expected to fail.
    """
    residuals = []
    for k in range(5, 10):
        sample = build_lipschitz_graph([0.5], 2.0 ** -k, (0.0, 1.0))
        zs = [complex(x, y) for x, y in sample.points_array.tolist()]
        f = ScalarField(sample, np.array([z * z for z in zs]))
        a = ScalarField(sample, np.array([2 * z for z in zs]))
        rep = clifford.tangential_derivative_on_graph(f, a)
        residuals.append(rep.max_residual)
    ratios = [
        residuals[i] / residuals[i + 1] if residuals[i + 1] else math.inf
        for i in range(len(residuals) - 1)
    ]
    ok = len(ratios) >= 4 and all(3.5 <= r <= 4.5 for r in ratios)
    report(10, "graph-derivative decay (as stated)", ok,
           f"residuals {['%.2e' % r for r in residuals]} are machine zero; "
           "quadratic data is exact under centered differences, "
           "so no h^2 ratio exists (companion test covers the honest behavior)")
    assert ok, (
        "unattainable as stated: measured residuals "
        f"{residuals} (exactly zero; centered differences are exact on "
        "quadratics over a single-slope graph), ratios undefined instead of "
        "lying in [3.5, 4.5]"
    )


def test_criterion_10_companion_exactness_and_cubic_order():
    quad_ok = True
    for k in range(5, 10):
        sample = build_lipschitz_graph([0.5], 2.0 ** -k, (0.0, 1.0))
        zs = [complex(x, y) for x, y in sample.points_array.tolist()]
        f = ScalarField(sample, np.array([z * z for z in zs]))
        a = ScalarField(sample, np.array([2 * z for z in zs]))
        quad_ok &= clifford.tangential_derivative_on_graph(f, a).max_residual <= 1e-12

    residuals = []
    for k in range(5, 10):
        sample = build_lipschitz_graph([0.5], 2.0 ** -k, (0.0, 1.0))
        zs = [complex(x, y) for x, y in sample.points_array.tolist()]
        f = ScalarField(sample, np.array([z ** 3 for z in zs]))
        a = ScalarField(sample, np.array([3 * z * z for z in zs]))
        residuals.append(clifford.tangential_derivative_on_graph(f, a).max_residual)
    ratios = [residuals[i] / residuals[i + 1] for i in range(len(residuals) - 1)]
    cubic_ok = len(ratios) >= 4 and all(3.5 <= r <= 4.5 for r in ratios)

    ok = quad_ok and cubic_ok
    report(10, "graph-derivative companion (honest behavior)", ok,
           f"z^2 exact at all steps, z^3 ratios {[round(r, 3) for r in ratios]}")
    assert ok


def test_criterion_11_cli_determinism(tmp_path):
    g2 = build_gasket(2)
    set_path = str(tmp_path / "set.json")
    dump_sample(g2, set_path)
    f = ScalarField.from_function(g2, lambda p: p[0] ** 2)
    A = CovectorField.from_function(g2, lambda p: (2 * p[0], 0.0))
    fp, ap = str(tmp_path / "f.json"), str(tmp_path / "A.json")
    dump_field(f, fp)
    dump_field(A, ap)

    graph = build_lipschitz_graph([0.5], 0.125, (0.0, 1.0))
    graph_path = str(tmp_path / "graph.json")
    dump_sample(graph, graph_path)
    zs = [complex(x, y) for x, y in graph.points_array.tolist()]
    dump_field(ScalarField(graph, np.array([z * z for z in zs])),
               str(tmp_path / "gf.json"))
    dump_field(ScalarField(graph, np.array([2 * z for z in zs])),
               str(tmp_path / "ga.json"))

    seg = segment_grid(1.0 / 512)
    seg_path = str(tmp_path / "seg.json")
    dump_sample(seg, seg_path)
    dump_field(ScalarField.from_function(seg, lambda p: p[0] ** 2 / 2),
               str(tmp_path / "sf.json"))
    dump_field(CovectorField.from_function(seg, lambda p: (p[0], 0.0)),
               str(tmp_path / "sA.json"))

    partial = tmp_path / "partial.json"
    partial.write_text(json.dumps({"dim": 2, "columns": [[1.0, 0.0, 0.0, 0.0]]}))
    cols = tmp_path / "cols.json"
    cols.write_text(json.dumps(
        {"dim": 2, "columns": [[1.0, 0, 0, 0], [0, 0, 0, -1.0]]}))

    commands = [
        ["build", "gasket", "--level", "2"],
        ["build", "carpet", "--level", "1"],
        ["build", "polyline", "--coords", "[[0,0],[1,0],[1,1]]"],
        ["build", "graph", "--slopes", "0.5,-0.5", "--step", "0.25", "--span", "0", "2"],
        ["build", "dumbbell", "--radius", "1", "--neck", "0.1", "--step", "0.2"],
        ["k-estimate", set_path, "--exhaustive"],
        ["k-estimate", set_path, "--sample", "15", "--seed", "9"],
        ["geodesic", set_path, "0", "7"],
        ["ftc", set_path, fp, ap, "--from", "0", "--to", "5"],
        ["reconstruct", set_path, ap, "--base", "0", "--value", "0.0"],
        ["remainder-check", set_path, fp, ap, "--k", "2.0"],
        ["holder-fit", seg_path, str(tmp_path / "sf.json"), str(tmp_path / "sA.json"),
         "--k", "1.0"],
        ["whitney", seg_path, str(tmp_path / "sf.json"), str(tmp_path / "sA.json"),
         "--tol", "whitney=0.6"],
        ["flatness", set_path, "--index", "1", "--radius", "0.3"],
        ["clifford", "check", str(cols)],
        ["clifford", "complete", "--dim", "2", "--side", "left",
         "--partial", str(partial)],
        ["clifford", "dimension", "--dim", "3"],
        ["graph-derivative", graph_path, str(tmp_path / "gf.json"),
         str(tmp_path / "ga.json")],
    ]
    identical = 0
    for cmd in commands:
        a, b = str(tmp_path / "run_a.json"), str(tmp_path / "run_b.json")
        ca, cb = str(tmp_path / "csv_a.csv"), str(tmp_path / "csv_b.csv")
        extra_a = ["--csv", ca] if cmd[0] == "remainder-check" else []
        extra_b = ["--csv", cb] if cmd[0] == "remainder-check" else []
        s1 = cli_main(cmd + ["--out", a] + extra_a)
        s2 = cli_main(cmd + ["--out", b] + extra_b)
        same = s1 == s2 and open(a, "rb").read() == open(b, "rb").read()
        if cmd[0] == "remainder-check":
            same = same and open(ca, "rb").read() == open(cb, "rb").read()
        identical += same
        assert same, cmd
    report(11, "CLI determinism", identical == len(commands),
           f"{identical}/{len(commands)} subcommands byte-identical")
    assert identical == len(commands)
