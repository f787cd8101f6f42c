from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcalc import metric
from qcalc.calculus import (
    affine_rigidity_test,
    discrete_gradient,
    fit_holder_modulus,
    loop_defect,
    oscillation,
    path_integral,
    reconstruct,
    verify_ftc,
    verify_remainder_bound,
    whitney_remainder,
)
from qcalc.errors import BuildError, FieldMismatchError, PathError, UndersampledError
from qcalc.fields import CovectorField, ScalarField
from qcalc.geometry import PolylinePath, build_gasket, build_polyline

from conftest import circle_points, connected_planar_graphs, vertex_at


def segment_grid(h: float, length: float = 1.0):
    n = int(round(length / h))
    return build_polyline([(i * h, 0.0) for i in range(n + 1)])


# ---------------------------------------------------------------------------
# path_integral


def test_constant_field_telescopes_on_quarter_circle():
    quarter = build_polyline(
        [(math.cos(t), math.sin(t)) for t in np.linspace(0, math.pi / 2, 33)]
    )
    A = CovectorField.constant(quarter, (1.0, 0.0))
    p = PolylinePath.from_vertices(quarter, range(33))
    assert math.isclose(path_integral(A, p), -1.0, abs_tol=1e-12)


def test_area_form_around_unit_square(square_loop):
    A = CovectorField.from_function(square_loop, lambda p: (-p[1], p[0]))
    loop = PolylinePath.from_vertices(square_loop, [0, 1, 2, 3, 0])
    assert math.isclose(path_integral(A, loop), 2.0, abs_tol=1e-12)


def test_gradient_integral_along_gasket_geodesic(gasket3):
    # A = gradient of |p|^2 / 2 is linear, so the trapezoid value is exact;
    # an independent high-subdivision midpoint quadrature must agree
    A = CovectorField.from_function(gasket3, lambda p: (p[0], p[1]))
    corner = vertex_at(gasket3, (0.0, 0.0))
    far = vertex_at(gasket3, (1.0, 0.0))
    p = metric.shortest_path(gasket3, corner, far)
    start, end = gasket3.points[corner], gasket3.points[far]
    expected = (end[0] ** 2 + end[1] ** 2 - start[0] ** 2 - start[1] ** 2) / 2
    got = path_integral(A, p)
    assert math.isclose(got, expected, abs_tol=1e-12)
    refined = path_integral(A, p, rule="midpoint", subdivisions=64)
    assert math.isclose(got, refined, abs_tol=1e-12)


def test_midpoint_rule_matches_trapezoid_for_interpolant(gasket2):
    A = CovectorField.from_function(gasket2, lambda p: (math.sin(p[0]), p[1] ** 2))
    p = metric.shortest_path(gasket2, 0, 10)
    a = path_integral(A, p)
    b = path_integral(A, p, rule="midpoint", subdivisions=7)
    assert math.isclose(a, b, abs_tol=1e-12)


def test_path_integral_rejects_other_samples(gasket2, gasket3):
    A = CovectorField.constant(gasket2, (1.0, 0.0))
    p = metric.shortest_path(gasket3, 0, 4)
    with pytest.raises(FieldMismatchError):
        path_integral(A, p)


def test_path_integral_rejects_bad_rule(gasket2):
    A = CovectorField.constant(gasket2, (1.0, 0.0))
    p = metric.shortest_path(gasket2, 0, 4)
    with pytest.raises(BuildError):
        path_integral(A, p, rule="simpson")
    for subdivisions in (0, 2.5, math.nan, True):
        with pytest.raises(BuildError, match="subdivisions"):
            path_integral(A, p, rule="midpoint", subdivisions=subdivisions)


@settings(deadline=None, max_examples=40)
@given(st.lists(st.integers(0, 14), min_size=2, max_size=12), st.integers(0, 6))
def test_reversal_antisymmetry_exact(walk_seed, field_seed):
    sample = build_gasket(2)
    rng = np.random.default_rng(field_seed)
    A = CovectorField(sample, rng.normal(size=(sample.vertex_count, 2)))
    verts = [walk_seed[0]]
    for step in walk_seed[1:]:
        nbrs = sample.adjacency[verts[-1]]
        verts.append(nbrs[step % len(nbrs)][0])
    p = PolylinePath.from_vertices(sample, verts)
    assert path_integral(A, p.reverse()) == -path_integral(A, p)


@settings(deadline=None, max_examples=60)
@given(connected_planar_graphs(), st.sampled_from(["trapezoid", "midpoint"]),
       st.integers(1, 9), st.booleans(), st.integers(0, 2**32 - 1))
def test_reversing_a_path_negates_its_integral(graph, rule, subdivisions, complex_field, seed):
    sample, _, _ = graph
    nv = sample.vertex_count
    rng = np.random.default_rng(seed)
    cov = rng.normal(size=(nv, 2))
    if complex_field:
        cov = cov + 1j * rng.normal(size=(nv, 2))
    A = CovectorField(sample, cov)
    # a random walk along the edges, revisits and backtracking allowed
    verts = [int(rng.integers(nv))]
    for _ in range(int(rng.integers(1, 3 * nv))):
        nbrs = sample.adjacency[verts[-1]]
        verts.append(nbrs[int(rng.integers(len(nbrs)))][0])
    p = PolylinePath.from_vertices(sample, verts)
    forward = path_integral(A, p, rule, subdivisions)
    assert path_integral(A, p.reverse(), rule, subdivisions) == -forward


def test_concatenation_additivity(gasket2):
    rng = np.random.default_rng(5)
    A = CovectorField(gasket2, rng.normal(size=(gasket2.vertex_count, 2)))
    p1 = metric.shortest_path(gasket2, 0, 7)
    p2 = metric.shortest_path(gasket2, 7, 12)
    joined = PolylinePath.from_vertices(gasket2, p1.vertices + p2.vertices[1:])
    assert math.isclose(
        path_integral(A, joined),
        path_integral(A, p1) + path_integral(A, p2),
        abs_tol=1e-12,
    )


# ---------------------------------------------------------------------------
# verify_ftc


@pytest.mark.parametrize(
    "build",
    [
        lambda: build_polyline([(0, 0), (1, 0), (1, 1)]),
        lambda: build_gasket(2),
        lambda: build_polyline(circle_points(64), closed=True),
    ],
)
def test_ftc_exact_for_affine_pairs(build):
    sample = build()
    f = ScalarField.from_function(sample, lambda p: 3.0 + 2.0 * p[0] - p[1])
    A = CovectorField.constant(sample, (2.0, -1.0))
    p = metric.shortest_path(sample, 0, sample.vertex_count - 1)
    assert verify_ftc(f, A, p) <= 1e-12


def test_ftc_exact_for_quadratic_with_linear_field():
    # A is affine along the segment, so its linear interpolant is exact and
    # trapezoid quadrature reproduces the true integral to rounding
    seg = segment_grid(1.0 / 16)
    f = ScalarField.from_function(seg, lambda p: p[0] ** 2)
    A = CovectorField.from_function(seg, lambda p: (2 * p[0], 0.0))
    p = PolylinePath.from_vertices(seg, range(seg.vertex_count))
    assert verify_ftc(f, A, p) <= 1e-12


def test_ftc_second_order_under_refinement():
    residuals = []
    for k in range(4, 8):
        seg = segment_grid(2.0 ** -k)
        f = ScalarField.from_function(seg, lambda p: math.sin(p[0]))
        A = CovectorField.from_function(seg, lambda p: (math.cos(p[0]), 0.0))
        p = PolylinePath.from_vertices(seg, range(seg.vertex_count))
        residuals.append(verify_ftc(f, A, p))
    ratios = [residuals[i] / residuals[i + 1] for i in range(len(residuals) - 1)]
    assert all(3.5 <= r <= 4.5 for r in ratios), ratios


def test_edge_difference_one_form_telescopes(gasket2):
    # oracle: integrating the exact per-edge differences of f along any chain
    # telescopes to the endpoint difference
    f = ScalarField.from_function(gasket2, lambda p: math.cos(p[0]) * p[1])
    p = metric.shortest_path(gasket2, 0, 13)
    total = math.fsum(
        float(f.values[v] - f.values[u]) for u, v in p.segments()
    )
    endpoint = float(f.values[p.vertices[-1]] - f.values[p.vertices[0]])
    assert abs(total - endpoint) <= 1e-12


# ---------------------------------------------------------------------------
# loop_defect / reconstruct


def test_loop_defect_gradient_field(square_loop):
    A = CovectorField.from_function(square_loop, lambda p: (p[0], p[1]))
    loop = PolylinePath.from_vertices(square_loop, [0, 1, 2, 3, 0])
    assert abs(loop_defect(A, loop)) <= 1e-12


def test_loop_defect_area_form(square_loop):
    A = CovectorField.from_function(square_loop, lambda p: (-p[1], p[0]))
    loop = PolylinePath.from_vertices(square_loop, [0, 1, 2, 3, 0])
    assert math.isclose(loop_defect(A, loop), 2.0, abs_tol=1e-12)


def test_loop_defect_gasket_triangle(gasket2):
    # the first constructed triangle is a genuine 3-cycle in the edge graph
    A = CovectorField.from_function(gasket2, lambda p: (p[0], p[1]))
    tri = PolylinePath.from_vertices(gasket2, [0, 1, 2, 0])
    assert abs(loop_defect(A, tri)) <= 1e-12


def test_loop_defect_requires_closed_path(square_loop):
    A = CovectorField.from_function(square_loop, lambda p: (p[0], p[1]))
    with pytest.raises(PathError):
        loop_defect(A, PolylinePath.from_vertices(square_loop, [0, 1, 2]))


def test_reconstruct_constant_field_gives_coordinate():
    s = build_polyline([(0, 0), (1, 0), (1, 1)])
    A = CovectorField.constant(s, (1.0, 0.0))
    rec = reconstruct(s, A, 0, 0.0)
    assert rec.warning is None
    np.testing.assert_allclose(rec.values, [p[0] for p in s.points], atol=1e-12)


def test_reconstruct_radial_gradient_on_circle(circle256):
    A = CovectorField.from_function(circle256, lambda p: (2 * p[0], 2 * p[1]))
    rec = reconstruct(circle256, A, 0, 1.0)
    assert rec.warning is None
    np.testing.assert_allclose(rec.values, 1.0, atol=1e-9)


def test_reconstruct_warns_on_area_form(square_loop):
    A = CovectorField.from_function(square_loop, lambda p: (-p[1], p[0]))
    rec = reconstruct(square_loop, A, 0, 0.0)
    assert rec.warning is not None and "non-integrable" in rec.warning
    assert "2.0" in rec.warning  # worst defect


@pytest.mark.parametrize("defect_tol", [math.nan, math.inf])
def test_reconstruct_defect_tol_must_be_finite(gasket4, defect_tol):
    # a random field warns at the default; a NaN or infinite defect_tol never warned
    A = CovectorField(gasket4, np.random.default_rng(0).normal(size=(gasket4.vertex_count, 2)))
    assert reconstruct(gasket4, A, 0).warning is not None
    with pytest.raises(BuildError, match=f"defect_tol must be finite, got {defect_tol!r}$"):
        reconstruct(gasket4, A, 0, defect_tol=defect_tol)


def test_reconstruct_matches_shortest_path_integrals(gasket2):
    rng = np.random.default_rng(11)
    A = CovectorField(gasket2, rng.normal(size=(gasket2.vertex_count, 2)))
    rec = reconstruct(gasket2, A, 3, 0.5)
    for v in (0, 7, 14):
        p = metric.shortest_path(gasket2, 3, v)
        assert math.isclose(
            float(rec.values[v]), 0.5 + path_integral(A, p), abs_tol=1e-9
        )


@pytest.mark.parametrize("base_value", [1 + 0j, 0.25 - 3j, -0.0 + 2.5j])
def test_reconstruct_complex_base_on_a_real_field(gasket3, base_value):
    # a complex base on a real field gives the complex field base + integral of A:
    # its real part is the real reconstruction from base_value.real, bit for bit
    rng = np.random.default_rng(30)
    A = CovectorField(gasket3, rng.normal(size=(gasket3.vertex_count, 2)))
    rec = reconstruct(gasket3, A, 5, base_value)
    real = reconstruct(gasket3, A, 5, base_value.real)
    assert rec.is_complex and not real.is_complex
    assert rec.values.real.tobytes() == real.values.tobytes()
    assert np.all(rec.values.imag == base_value.imag)
    assert rec.warning == real.warning


def test_reconstruct_of_a_real_base_is_real(gasket3):
    # an int or numpy base is the float base, bit for bit
    A = CovectorField.from_function(gasket3, lambda p: (2 * p[0] + p[1], p[0] - 3 * p[1]))
    for base, same in ((2, 2.0), (np.float64(-1.25), -1.25), (np.int64(3), 3.0)):
        rec = reconstruct(gasket3, A, 0, base)
        assert rec.values.dtype == np.float64
        assert rec.values.tobytes() == reconstruct(gasket3, A, 0, same).values.tobytes()


# ---------------------------------------------------------------------------
# whitney_remainder / oscillation


def test_remainder_zero_for_exact_affine(gasket2):
    f = ScalarField.from_function(gasket2, lambda p: p[0])
    A = CovectorField.constant(gasket2, (1.0, 0.0))
    for x, y in itertools.combinations(range(gasket2.vertex_count), 2):
        assert whitney_remainder(f, A, x, y) <= 1e-12


def test_remainder_quadratic_on_unit_segment():
    seg = build_polyline([(0, 0), (1, 0)])
    f = ScalarField.from_function(seg, lambda p: p[0] ** 2 / 2)
    A = CovectorField.from_function(seg, lambda p: (p[0], 0.0))
    assert math.isclose(whitney_remainder(f, A, 0, 1), 0.5, abs_tol=1e-12)


def test_remainder_matches_direct_evaluation_on_gasket(gasket3):
    f = ScalarField.from_function(gasket3, lambda p: p[0] * p[1])
    A = CovectorField.from_function(gasket3, lambda p: (p[1], p[0]))
    pts = gasket3.points
    for x, y in [(0, 9), (4, 31), (17, 2), (40, 41)]:
        direct = abs(
            pts[y][0] * pts[y][1]
            - pts[x][0] * pts[x][1]
            - pts[x][1] * (pts[y][0] - pts[x][0])
            - pts[x][0] * (pts[y][1] - pts[x][1])
        )
        assert math.isclose(whitney_remainder(f, A, x, y), direct, abs_tol=1e-14)


def test_oscillation_constant_field(gasket2):
    A = CovectorField.constant(gasket2, (3.0, -1.0))
    assert oscillation(A, 5, 10.0) == 0.0


def test_oscillation_linear_growth():
    seg = segment_grid(1.0 / 16)
    A = CovectorField.from_function(seg, lambda p: (p[0], 0.0))
    assert math.isclose(oscillation(A, 0, 0.5), 0.5, abs_tol=1e-12)


def test_oscillation_matches_scan_oracle():
    seg = segment_grid(1.0 / 32)
    A = CovectorField.from_function(seg, lambda p: (math.cos(p[0]), 0.0))
    pts = seg.points
    for x, radius in [(0, 0.3), (8, 0.5), (20, 1.0)]:
        scan = max(
            abs(math.cos(pts[w][0]) - math.cos(pts[x][0]))
            for w in range(seg.vertex_count)
            if math.dist(pts[w], pts[x]) <= radius
        )
        assert math.isclose(oscillation(A, x, radius), scan, abs_tol=1e-14)


def test_oscillation_rejects_negative_radius(gasket2):
    A = CovectorField.constant(gasket2, (1.0, 0.0))
    with pytest.raises(BuildError):
        oscillation(A, 0, -0.1)


def test_oscillation_rejects_nan_radius(gasket2):
    # a NaN ball holds no point, and numpy's max of nothing used to escape
    A = CovectorField.constant(gasket2, (1.0, 0.0))
    with pytest.raises(BuildError, match="radius must be nonnegative, got nan$"):
        oscillation(A, 0, math.nan)


@pytest.mark.parametrize("x", [-1, 15])
def test_oscillation_rejects_out_of_range_vertex(gasket2, x):
    A = CovectorField.constant(gasket2, (1.0, 0.0))
    with pytest.raises(BuildError, match=f"vertex {x} out of range"):
        oscillation(A, x, 0.5)


@pytest.mark.parametrize("x, y", [(0, -1), (-1, 0), (0, 15)])
def test_whitney_remainder_rejects_out_of_range_vertex(gasket2, x, y):
    f = ScalarField.from_function(gasket2, lambda p: p[0])
    A = CovectorField.constant(gasket2, (1.0, 0.0))
    with pytest.raises(BuildError, match="out of range"):
        whitney_remainder(f, A, x, y)


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_field_values_must_be_finite(gasket2, value):
    # a plain ValueError used to escape the CLI as a traceback
    values = np.zeros(gasket2.vertex_count)
    values[3] = value
    with pytest.raises(BuildError, match="values contains non-finite entries"):
        ScalarField(gasket2, values)
    with pytest.raises(BuildError, match="covectors contains non-finite entries"):
        CovectorField(gasket2, np.column_stack((values, values)))


# ---------------------------------------------------------------------------
# verify_remainder_bound


@pytest.mark.parametrize("k", [math.nan, math.inf, -math.inf, 0.0, -1.0])
@pytest.mark.parametrize("check", [verify_remainder_bound, fit_holder_modulus])
def test_k_must_be_finite_and_positive(gasket3, check, k):
    f = ScalarField.from_function(gasket3, lambda p: p[0] ** 2)
    A = CovectorField.from_function(gasket3, lambda p: (2 * p[0], 0.0))
    with pytest.raises(BuildError, match=f"k must be finite and positive, got {k!r}$"):
        check(f, A, gasket3, k=k)


@pytest.mark.parametrize("tol", [math.nan, math.inf])
def test_remainder_tol_must_be_finite(gasket4, tol):
    # the wrong differential A = 0 of 10x^2 + y: a NaN or infinite tol used to
    # pass it with no violation
    f = ScalarField.from_function(gasket4, lambda p: 10 * p[0] ** 2 + p[1])
    A = CovectorField.constant(gasket4, (0.0, 0.0))
    assert len(verify_remainder_bound(f, A, gasket4, k=2, pairs=False).violations) == 15006
    with pytest.raises(BuildError, match=f"tol must be finite, got {tol!r}$"):
        verify_remainder_bound(f, A, gasket4, k=2, tol=tol)



def test_remainder_bound_trivial_affine(gasket2):
    f = ScalarField.from_function(gasket2, lambda p: 1 + p[0])
    A = CovectorField.constant(gasket2, (1.0, 0.0))
    rep = verify_remainder_bound(f, A, gasket2, k=2.0)
    assert rep.passed and rep.max_ratio == 0.0


def test_remainder_bound_quadratic_ratio_half():
    seg = build_polyline([(0, 0), (1, 0)])
    f = ScalarField.from_function(seg, lambda p: p[0] ** 2 / 2)
    A = CovectorField.from_function(seg, lambda p: (p[0], 0.0))
    rep = verify_remainder_bound(f, A, seg, k=1.0)
    assert rep.passed
    assert math.isclose(rep.max_ratio, 0.5, abs_tol=1e-12)


def test_remainder_bound_gasket_gradient_pairs(gasket3):
    khat = metric.estimate_chord_arc(gasket3).k_hat
    f = ScalarField.from_function(gasket3, lambda p: p[0] ** 2 + p[1] ** 2)
    A = CovectorField.from_function(gasket3, lambda p: (2 * p[0], 2 * p[1]))
    rep = verify_remainder_bound(f, A, gasket3, k=khat)
    assert rep.passed
    assert rep.pair_count == gasket3.vertex_count * (gasket3.vertex_count - 1)


def test_remainder_bound_designed_negative_fine_segment():
    # a constant covector shift is invisible to the oscillation, so at fine
    # scales the shifted remainder overshoots the bound; pair distances must
    # drop below shift/(2 k^2 + shift-slope) for violations to appear, which
    # rules out coarse samples
    seg = segment_grid(1.0 / 64)
    f = ScalarField.from_function(seg, lambda p: p[0] ** 2)
    A = CovectorField.from_function(seg, lambda p: (2 * p[0] + 0.1, 0.0))
    rep = verify_remainder_bound(f, A, seg, k=1.0 + 1e-12)
    assert not rep.passed
    assert len(rep.violations) > 0
    assert rep.max_ratio > 1.0
    assert list(rep.violations) == sorted(rep.violations)


@pytest.mark.parametrize(
    "build",
    [
        lambda: build_polyline(circle_points(64), closed=True),
        lambda: build_gasket(2),
        lambda: __import__("qcalc").build_carpet(2),
        lambda: __import__("qcalc").build_lipschitz_graph([0.5, -0.5], 0.125, (0.0, 2.0)),
        lambda: __import__("qcalc").build_dumbbell(1.0, 0.1, math.pi / 16),
    ],
)
def test_remainder_bound_holds_on_every_geometry(build):
    sample = build()
    khat = metric.estimate_chord_arc(sample).k_hat
    f = ScalarField.from_function(sample, lambda p: math.sin(p[0]) + p[1] ** 2)
    A = CovectorField.from_function(sample, lambda p: (math.cos(p[0]), 2 * p[1]))
    rep = verify_remainder_bound(f, A, sample, k=khat)
    assert rep.passed, (sample.label, rep.violations[:3])


def test_remainder_bound_matches_naive_oracle(gasket2):
    rng = np.random.default_rng(2)
    f = ScalarField(gasket2, rng.normal(size=gasket2.vertex_count))
    A = CovectorField(gasket2, rng.normal(size=(gasket2.vertex_count, 2)))
    k, tol = 2.5, 1e-9
    rep = verify_remainder_bound(f, A, gasket2, k=k, tol=tol)
    pts = gasket2.points
    naive = []
    for x in range(gasket2.vertex_count):
        for y in range(gasket2.vertex_count):
            if x == y:
                continue
            d = math.dist(pts[x], pts[y])
            lhs = whitney_remainder(f, A, x, y)
            rhs = k * d * oscillation(A, x, k * d)
            if lhs > rhs + tol:
                naive.append((x, y))
    assert [v[:2] for v in rep.violations] == sorted(naive)


@settings(deadline=None, max_examples=60)
@given(connected_planar_graphs(), st.floats(0.0, 3.0),
       st.lists(st.floats(-2.0, 2.0), min_size=5, max_size=5))
def test_remainder_bound_holds_for_every_admissible_k(graph, excess, coef):
    # f quadratic and A its exact gradient: A is linear along every edge, so
    # along a path of length L <= k |x - y| the remainder is at most
    # L * max |A(v) - A(x)| over the path's vertices, all within the ball
    sample, _, _ = graph
    a, b, c, d, e = coef
    f = ScalarField.from_function(
        sample, lambda p: a * p[0] ** 2 + b * p[0] * p[1] + c * p[1] ** 2 + d * p[0] + e * p[1])
    A = CovectorField.from_function(
        sample, lambda p: (2 * a * p[0] + b * p[1] + d, b * p[0] + 2 * c * p[1] + e))
    # the ball of radius k |x - y| must reach y itself; k-hat is at least 1
    khat = metric.estimate_chord_arc(sample).k_hat
    rep = verify_remainder_bound(f, A, sample, k=khat * (1.0 + excess), pairs=False)
    assert rep.passed and not rep.violations


def test_remainder_bound_pair_rows_cover_unordered_pairs(gasket2):
    f = ScalarField.from_function(gasket2, lambda p: p[0] * p[1])
    A = CovectorField.from_function(gasket2, lambda p: (p[1], p[0]))
    rep = verify_remainder_bound(f, A, gasket2, k=2.0)
    nv = gasket2.vertex_count
    assert len(rep.pair_dist) == nv * (nv - 1) // 2
    assert np.all(rep.pair_dist > 0)


# ---------------------------------------------------------------------------
# affine rigidity


def test_affine_rigidity_exact_affine(gasket2):
    f = ScalarField.from_function(gasket2, lambda p: 3 + 2 * p[0] - p[1])
    A = CovectorField.constant(gasket2, (2.0, -1.0))
    rep = affine_rigidity_test(gasket2, f, A)
    assert rep.passed and rep.hypothesis_ok
    assert rep.max_residual <= 1e-12
    assert math.isclose(rep.intercept, 3.0, abs_tol=1e-9)
    assert np.allclose(rep.gradient, (2.0, -1.0), atol=1e-9)


def test_affine_rigidity_designed_negative():
    # constant A but f genuinely quadratic: hypothesis holds, fit fails
    seg = segment_grid(1.0 / 8)
    f = ScalarField.from_function(seg, lambda p: p[0] ** 2)
    A = CovectorField.constant(seg, (1.0, 0.0))
    rep = affine_rigidity_test(seg, f, A)
    assert rep.hypothesis_ok
    assert not rep.passed
    assert rep.max_residual > 1e-3


def test_affine_rigidity_nonconstant_covector_reported(gasket2):
    f = ScalarField.from_function(gasket2, lambda p: p[0] ** 2)
    A = CovectorField.from_function(gasket2, lambda p: (2 * p[0], 0.0))
    rep = affine_rigidity_test(gasket2, f, A)
    assert not rep.hypothesis_ok
    assert rep.covector_spread > 0.5
    assert not rep.passed


def test_affine_rigidity_of_reconstructed_constant_field(dumbbell):
    A = CovectorField.constant(dumbbell, (0.7, -0.2))
    rec = reconstruct(dumbbell, A, 0, 5.0)
    rep = affine_rigidity_test(dumbbell, rec, A)
    assert rep.passed
    assert rep.max_residual <= 1e-9


def test_affine_rigidity_single_point_trivial_pass():
    single = build_polyline([(0, 0), (1, 0)])
    sub = single  # smallest legal sample; residual must vanish
    f = ScalarField.from_function(sub, lambda p: 2.0 * p[0] + 1.0)
    A = CovectorField.constant(sub, (2.0, 0.0))
    assert affine_rigidity_test(sub, f, A).passed


# ---------------------------------------------------------------------------
# Holder modulus fits


def test_holder_fit_lipschitz_exponent():
    seg = segment_grid(2.0 ** -9)
    f = ScalarField.from_function(seg, lambda p: p[0] ** 2 / 2)
    A = CovectorField.from_function(seg, lambda p: (p[0], 0.0))
    fit = fit_holder_modulus(f, A, seg, k=1.0)
    assert 0.9 <= fit.remainder.alpha_hat <= 1.1
    assert 0.9 <= fit.differential.alpha_hat <= 1.1
    assert len(fit.remainder.scales) >= 3


def test_holder_fit_half_exponent():
    seg = segment_grid(2.0 ** -11)
    f = ScalarField.from_function(seg, lambda p: (2.0 / 3.0) * p[0] ** 1.5)
    A = CovectorField.from_function(seg, lambda p: (math.sqrt(p[0]), 0.0))
    fit = fit_holder_modulus(f, A, seg, k=1.0)
    assert 0.45 <= fit.remainder.alpha_hat <= 0.55
    assert 0.45 <= fit.differential.alpha_hat <= 0.55


def test_holder_fit_constant_field_flags_exact(gasket3):
    f = ScalarField.from_function(gasket3, lambda p: p[0])
    A = CovectorField.constant(gasket3, (1.0, 0.0))
    fit = fit_holder_modulus(f, A, gasket3, k=2.0)
    assert fit.remainder.exact
    assert fit.remainder.alpha_hat is None


def test_holder_fit_undersampled():
    seg = build_polyline([(0, 0), (1, 0), (2, 0)])
    f = ScalarField.from_function(seg, lambda p: p[0] ** 2)
    A = CovectorField.from_function(seg, lambda p: (2 * p[0], 0.0))
    with pytest.raises(UndersampledError):
        fit_holder_modulus(f, A, seg, k=1.0)


def test_modulus_report_reproduces_bucket_fit():
    seg = segment_grid(2.0 ** -9)
    f = ScalarField.from_function(seg, lambda p: p[0] ** 2 / 2)
    A = CovectorField.from_function(seg, lambda p: (p[0], 0.0))
    rep = fit_holder_modulus(f, A, seg, k=1.0).remainder
    for scale, sup, _ in rep.scales:
        if sup <= 1e-13:
            continue
        predicted = rep.constant_hat * scale ** rep.slope_raw
        assert abs(math.log(sup) - math.log(predicted)) <= rep.fit_residual + 1e-9


# ---------------------------------------------------------------------------
# discrete gradient


@pytest.mark.parametrize(
    "build,fn",
    [
        (lambda: segment_grid(1.0 / 64), lambda p: math.sin(3 * p[0])),
        (lambda: build_polyline(circle_points(128), closed=True),
         lambda p: math.sin(p[0]) + p[1] ** 2),
        (lambda: __import__("qcalc").build_carpet(2), lambda p: p[0] * p[1]),
    ],
)
def test_discrete_gradient_round_trip(build, fn):
    sample = build()
    f = ScalarField.from_function(sample, fn)
    A = discrete_gradient(sample, f)
    rec = reconstruct(sample, A, 0, float(f.values[0]))
    assert rec.warning is None
    dev = rec.values - f.values
    assert np.max(np.abs(dev - dev[0])) <= 1e-9


def test_discrete_gradient_on_gasket_flags_nonintegrability(gasket3):
    # the gasket's edge system is rank-deficient, so no vertex lift is
    # trapezoid-exact for generic f; the defect warning must say so
    f = ScalarField.from_function(gasket3, lambda p: math.sin(p[0]) + p[1] ** 2)
    A = discrete_gradient(gasket3, f)
    rec = reconstruct(gasket3, A, 0, float(f.values[0]))
    assert rec.warning is not None


def test_discrete_gradient_recovers_constant_gradient(gasket2):
    f = ScalarField.from_function(gasket2, lambda p: 2 * p[0] - 3 * p[1])
    A = discrete_gradient(gasket2, f)
    rec = reconstruct(gasket2, A, 0, float(f.values[0]))
    dev = rec.values - f.values
    assert np.max(np.abs(dev - dev[0])) <= 1e-9
