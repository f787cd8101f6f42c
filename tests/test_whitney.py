from __future__ import annotations

import math

import numpy as np
import pytest

from qcalc.calculus import whitney_remainder
from qcalc.errors import BuildError, UndersampledError, UnderdeterminedNeighborhoodError
from qcalc.fields import CovectorField, ScalarField
from qcalc.geometry import SetSample, build_lipschitz_graph, build_polyline
from qcalc.whitney import (
    check_whitney_c1,
    determined_subspace,
    differential_stability,
    local_flatness,
)

from conftest import vertex_at

# a deep interior vertex of gasket m=3, away from the outer corners
GASKET_PROBE = (0.375, math.sqrt(3) * 0.125)


def collinear_cloud():
    return build_polyline([(i / 10, 0.0) for i in range(11)])


def rigid_motion(sample: SetSample, theta: float, shift) -> SetSample:
    R = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
    pts = tuple(tuple(R @ np.array(p) + np.asarray(shift)) for p in sample.points)
    return SetSample(2, pts, sample.edges, label=sample.label + " moved")


# ---------------------------------------------------------------------------
# local_flatness


def test_flatness_collinear_cloud():
    s = collinear_cloud()
    rep = local_flatness(s, 5, 0.35)
    assert rep.flatness_score <= 1e-12
    assert abs(abs(rep.thin_direction[1]) - 1.0) <= 1e-12
    assert list(rep.singular_values) == sorted(rep.singular_values, reverse=True)
    assert all(v >= 0 for v in rep.singular_values)
    assert math.isclose(np.linalg.norm(rep.thin_direction), 1.0, abs_tol=1e-12)


def test_flatness_gasket_interior_vertex(gasket3):
    v = vertex_at(gasket3, GASKET_PROBE)
    rep = local_flatness(gasket3, v, 0.25)
    assert rep.flatness_score >= 0.1
    # spectrum oracle: recompute from the enumerated neighborhood
    pts = gasket3.points_array
    ball = pts[np.linalg.norm(pts - pts[v], axis=1) <= 0.25]
    sv = np.linalg.svd((ball - ball.mean(axis=0)) / 0.25, compute_uv=False)
    assert math.isclose(rep.flatness_score, sv[-1] / sv[0], rel_tol=1e-12)


def test_flatness_line_graph_is_a_hyperplane():
    s = build_lipschitz_graph([0.5], 0.1, (0.0, 1.0))
    rep = local_flatness(s, 5, 0.4)
    assert rep.flatness_score <= 1e-12
    # thin direction orthogonal to the line's direction (1, 0.5)
    assert abs(np.dot(rep.thin_direction, (1.0, 0.5))) <= 1e-9


def test_flatness_underdetermined_ball(gasket3):
    with pytest.raises(UnderdeterminedNeighborhoodError):
        local_flatness(gasket3, 0, 1e-6)


BALL_CALLS = {
    "local_flatness": lambda s, x: local_flatness(s, x, 0.3),
    "determined_subspace": lambda s, x: determined_subspace(
        s, ScalarField.from_function(s, lambda p: p[0]), x, 0.3),
    "differential_stability": lambda s, x: differential_stability(
        s, ScalarField.from_function(s, lambda p: p[0]), x, 0.3),
}


@pytest.mark.parametrize("x", [-1, 42, 100000])
@pytest.mark.parametrize("call", sorted(BALL_CALLS))
def test_ball_center_must_be_a_vertex(gasket3, call, x):
    # -1 used to centre the ball on the last vertex and report "center": -1
    with pytest.raises(BuildError, match=f"vertex {x} out of range$"):
        BALL_CALLS[call](gasket3, x)


# ---------------------------------------------------------------------------
# determined_subspace


def test_subspace_collinear_dimension_one():
    s = collinear_cloud()
    f = ScalarField.from_function(s, lambda p: p[0])
    rep = determined_subspace(s, f, 5, 0.35)
    assert rep.dimension == 1
    assert abs(abs(rep.basis[0][0]) - 1.0) <= 1e-12


def test_subspace_gasket_full_dimension(gasket3):
    v = vertex_at(gasket3, GASKET_PROBE)
    f = ScalarField.from_function(gasket3, lambda p: p[0] ** 2 + p[1] ** 2)
    rep = determined_subspace(gasket3, f, v, 0.25)
    assert rep.dimension == 2


def test_subspace_dimension_definition(gasket3):
    f = ScalarField.from_function(gasket3, lambda p: p[0])
    rep = determined_subspace(gasket3, f, 1, 0.3, slack=1e-6)
    assert rep.dimension == 2 - sum(1 for s in rep.singular_values if s <= rep.slack)


def test_subspace_single_point_ball_errors(gasket3):
    f = ScalarField.from_function(gasket3, lambda p: p[0])
    with pytest.raises(UnderdeterminedNeighborhoodError):
        determined_subspace(gasket3, f, 0, 1e-9)


# ---------------------------------------------------------------------------
# differential_stability


def test_stability_simplex_corners():
    s = build_polyline([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
    f = ScalarField.from_function(s, lambda p: p[0])
    rep = differential_stability(s, f, 0, 1.5)
    assert rep.unique
    assert rep.condition <= 3.0
    assert math.isclose(rep.condition, 1.0, abs_tol=1e-9)


def test_stability_jittered_cloud_ill_conditioned():
    rng = np.random.default_rng(42)
    xs = np.linspace(0, 1, 21)
    jit = 1e-6 * rng.choice([-1.0, 1.0], size=21)
    s = build_polyline(list(zip(xs, jit)))
    f = ScalarField.from_function(s, lambda p: p[0])
    rep = differential_stability(s, f, 10, 0.6)
    assert rep.unique
    assert rep.condition >= 1e5
    # spectrum oracle
    pts = s.points_array
    ball = pts[np.linalg.norm(pts - pts[10], axis=1) <= 0.6]
    sv = np.linalg.svd((ball - pts[10]) / 0.6, compute_uv=False)
    assert math.isclose(rep.condition, sv[0] / sv[-1], rel_tol=1e-9)


def test_stability_collinear_signals_nonunique():
    s = collinear_cloud()
    f = ScalarField.from_function(s, lambda p: p[0])
    rep = differential_stability(s, f, 5, 0.35)
    assert not rep.unique
    assert rep.condition is None


# ---------------------------------------------------------------------------
# check_whitney_c1


def test_c1_affine_all_ratios_vanish(gasket4):
    f = ScalarField.from_function(gasket4, lambda p: 1 + 2 * p[0] - p[1])
    A = CovectorField.constant(gasket4, (2.0, -1.0))
    rep = check_whitney_c1(gasket4, f, A)
    assert rep.passed
    assert all(ratio <= 1e-12 for _, ratio, _ in rep.buckets)


def test_c1_gradient_on_gasket_decays(gasket4):
    f = ScalarField.from_function(gasket4, lambda p: p[0] ** 2 + p[1] ** 2)
    A = CovectorField.from_function(gasket4, lambda p: (2 * p[0], 2 * p[1]))
    rep = check_whitney_c1(gasket4, f, A, threshold=0.3)
    assert rep.passed
    # remainder/(|x-y|) at scale s is bounded by the Hessian norm times s
    for scale, ratio, _ in rep.buckets:
        assert ratio <= 2.0 * scale * (1 + 1e-9)
    assert rep.decay_ok


def test_c1_perturbed_differential_plateaus(gasket4):
    f = ScalarField.from_function(gasket4, lambda p: p[0] ** 2 + p[1] ** 2)
    A = CovectorField.from_function(gasket4, lambda p: (2 * p[0] + 0.1, 2 * p[1]))
    rep = check_whitney_c1(gasket4, f, A, threshold=0.05)
    assert not rep.passed
    # the smallest-scale ratio sits near the 0.1 shift, not near zero
    assert 0.08 <= rep.smallest_scale_ratio <= 0.2


@pytest.mark.parametrize("buckets", [1, 2])
def test_c1_needs_three_buckets(gasket4, buckets):
    # the decay test reads three buckets: 1 and 2 used to report three anyway
    f = ScalarField.from_function(gasket4, lambda p: p[0])
    A = CovectorField.constant(gasket4, (1.0, 0.0))
    with pytest.raises(BuildError, match=f"scale_buckets must be at least 3, got {buckets}"):
        check_whitney_c1(gasket4, f, A, scale_buckets=buckets)


@pytest.mark.parametrize("slack", [math.inf, math.nan, -1.0, -1e-300])
def test_c1_decay_slack_must_be_finite_and_nonnegative(gasket4, slack):
    # an infinite slack used to pass any profile, a NaN one to fail every
    # profile, and a negative one to make decay impossible
    f = ScalarField.from_function(gasket4, lambda p: math.sin(40 * p[0]) / 40)
    A = CovectorField.constant(gasket4, (0.0, 0.0))
    with pytest.raises(BuildError, match=f"decay_tol must be finite and nonnegative, "
                                         f"got {slack!r}"):
        check_whitney_c1(gasket4, f, A, threshold=2.0, decay_tol=slack)
    assert not check_whitney_c1(gasket4, f, A, threshold=2.0, decay_tol=0.1).passed


@pytest.mark.parametrize("threshold", [math.inf, math.nan])
def test_c1_threshold_must_be_finite(gasket4, threshold):
    # an infinite threshold used to pass the wrong differential A = 0 of 10x^2 + y
    f = ScalarField.from_function(gasket4, lambda p: 10 * p[0] ** 2 + p[1])
    A = CovectorField.constant(gasket4, (0.0, 0.0))
    assert not check_whitney_c1(gasket4, f, A).passed
    with pytest.raises(BuildError, match=f"threshold must be finite, got {threshold!r}$"):
        check_whitney_c1(gasket4, f, A, threshold=threshold)


def test_c1_reports_the_buckets_asked_for(gasket4):
    f = ScalarField.from_function(gasket4, lambda p: p[0] ** 2)
    A = CovectorField.from_function(gasket4, lambda p: (2 * p[0], 0.0))
    # gasket 4 populates five buckets
    assert [len(check_whitney_c1(gasket4, f, A, scale_buckets=n).buckets)
            for n in (3, 4, 10)] == [3, 4, 5]


def test_c1_undersampled(gasket2):
    f = ScalarField.from_function(gasket2, lambda p: p[0])
    A = CovectorField.constant(gasket2, (1.0, 0.0))
    with pytest.raises(UndersampledError):
        check_whitney_c1(gasket2, f, A)


# ---------------------------------------------------------------------------
# invariances


def test_rigid_motion_invariance(gasket3):
    v = vertex_at(gasket3, GASKET_PROBE)
    moved = rigid_motion(gasket3, 0.83, (2.0, -1.0))
    # radius chosen off the lattice distances so ball membership is stable
    r1 = local_flatness(gasket3, v, 0.26)
    r2 = local_flatness(moved, v, 0.26)
    assert abs(r1.flatness_score - r2.flatness_score) <= 1e-9
    f1 = ScalarField.from_function(gasket3, lambda p: p[0])
    f2 = ScalarField.from_function(moved, lambda p: p[0])
    s1 = differential_stability(gasket3, f1, v, 0.26)
    s2 = differential_stability(moved, f2, v, 0.26)
    assert abs(s1.condition - s2.condition) <= 1e-9 * max(1.0, s1.condition)


def test_uniform_scaling_invariance(gasket3):
    v = vertex_at(gasket3, GASKET_PROBE)
    scaled = SetSample(
        2,
        tuple(tuple(3.0 * c for c in p) for p in gasket3.points),
        tuple((i, j, 3.0 * l) for i, j, l in gasket3.edges),
        label="scaled",
    )
    r1 = local_flatness(gasket3, v, 0.26)
    r2 = local_flatness(scaled, v, 0.78)
    assert abs(r1.flatness_score - r2.flatness_score) <= 1e-9


def test_hyperplane_thin_direction_and_remainder_insensitivity():
    # sample inside the x-axis: the thin direction is the normal, and adding
    # any multiple of it to A changes no remainder between points of the line
    s = build_lipschitz_graph([0.0], 0.125, (0.0, 1.0))
    rep = local_flatness(s, 4, 0.3)
    assert abs(abs(rep.thin_direction[1]) - 1.0) <= 1e-9
    f = ScalarField.from_function(s, lambda p: math.sin(p[0]))
    A = CovectorField.from_function(s, lambda p: (math.cos(p[0]), 0.0))
    shifted = CovectorField(s, A.covectors + 7.25 * np.array(rep.thin_direction))
    for x, y in [(0, 3), (2, 8), (5, 1)]:
        assert whitney_remainder(f, A, x, y) == whitney_remainder(f, shifted, x, y)
