from __future__ import annotations

import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcalc.errors import BuildError, DisconnectedSampleError, ResourceLimitError
from qcalc.fields import ScalarField
from qcalc.geometry import SetSample, build_gasket, build_polyline, sample_from_dict
from qcalc.metric import (
    estimate_chord_arc,
    geodesic_distance,
    predecessor_array,
    shortest_path,
    verify_local_to_global,
)

from conftest import (
    NEAR_COINCIDENT_DOC,
    brute_force_chord_arc,
    connected_planar_graphs,
    geodesic_field,
    measured_local_constant,
    scipy_distance_matrix,
    vertex_at,
)


# ---------------------------------------------------------------------------
# geodesics


def test_geodesic_single_segment():
    s = build_polyline([(0, 0), (1, 0)])
    assert geodesic_distance(s, 0, 1) == 1.0


def test_geodesic_l_polyline_sums_edges():
    s = build_polyline([(0, 0), (1, 0), (1, 1)])
    assert geodesic_distance(s, 0, 2) == 2.0


def test_geodesic_gasket2_base_corners(gasket2):
    c0 = vertex_at(gasket2, (0.0, 0.0))
    c1 = vertex_at(gasket2, (1.0, 0.0))
    assert math.isclose(geodesic_distance(gasket2, c0, c1), 1.0, abs_tol=1e-12)


def test_geodesic_gasket1_frozen_values():
    # oracle-computed on the enumerated m=1 graph: the apex is one edge
    # (length 1/2) from each side midpoint and two edges from the base midpoint
    s = build_gasket(1)
    apex = vertex_at(s, (0.5, math.sqrt(3) / 2))
    side_mid = vertex_at(s, (0.25, math.sqrt(3) / 4))
    base_mid = vertex_at(s, (0.5, 0.0))
    assert math.isclose(geodesic_distance(s, apex, side_mid), 0.5, abs_tol=1e-12)
    assert math.isclose(geodesic_distance(s, apex, base_mid), 1.0, abs_tol=1e-12)


def test_geodesic_matches_scipy_oracle(gasket3):
    dist = scipy_distance_matrix(gasket3)
    for i, j in [(0, 5), (3, 17), (1, 40), (20, 33)]:
        assert math.isclose(geodesic_distance(gasket3, i, j), dist[i, j], rel_tol=1e-12)


def test_geodesic_symmetry_exact(gasket2):
    for i, j in itertools.combinations(range(gasket2.vertex_count), 2):
        assert geodesic_distance(gasket2, i, j) == geodesic_distance(gasket2, j, i)


def test_geodesic_metric_axioms(gasket2):
    nv = gasket2.vertex_count
    d = np.array([[geodesic_distance(gasket2, i, j) for j in range(nv)] for i in range(nv)])
    assert np.all(np.diag(d) == 0.0)
    assert np.all(d[~np.eye(nv, dtype=bool)] > 0)
    for i, j, k in itertools.combinations(range(nv), 3):
        assert d[i, j] <= d[i, k] + d[k, j] + 1e-12


def test_geodesic_dominates_euclidean(gasket2):
    pts = gasket2.points_array
    for i, j in itertools.combinations(range(gasket2.vertex_count), 2):
        assert geodesic_distance(gasket2, i, j) >= math.dist(pts[i], pts[j]) - 1e-12


def test_geodesic_out_of_range():
    s = build_polyline([(0, 0), (1, 0)])
    with pytest.raises(BuildError):
        geodesic_distance(s, 0, 9)


@pytest.mark.parametrize("call", [
    lambda s: geodesic_distance(s, -1, 0),
    lambda s: shortest_path(s, 0, -2),
    lambda s: predecessor_array(s, 2),
])
def test_vertex_index_checks_name_the_vertex(call):
    s = build_polyline([(0, 0), (1, 0)])
    with pytest.raises(BuildError, match=r"vertex -?\d+ out of range"):
        call(s)


def test_disconnected_sample_raises():
    s = SetSample(2, ((0, 0), (1, 0), (5, 5), (6, 5)), ((0, 1, 1.0), (2, 3, 1.0)))
    with pytest.raises(DisconnectedSampleError):
        geodesic_distance(s, 0, 3)
    with pytest.raises(DisconnectedSampleError):
        estimate_chord_arc(s)


# ---------------------------------------------------------------------------
# shortest paths


def test_shortest_path_single_segment():
    s = build_polyline([(0, 0), (1, 0)])
    p = shortest_path(s, 0, 1)
    assert p.vertices == (0, 1)
    assert p.length == 1.0


def test_shortest_path_square_tie_rule(square_loop):
    # both routes have length 2; the smaller predecessor index wins
    p = shortest_path(square_loop, 0, 2)
    assert p.vertices == (0, 1, 2)
    assert p.length == 2.0


def test_shortest_path_realizes_geodesic(gasket3):
    for i, j in [(0, 11), (2, 39), (7, 25)]:
        p = shortest_path(gasket3, i, j)
        assert p.vertices[0] == i and p.vertices[-1] == j
        assert math.isclose(p.length, geodesic_distance(gasket3, i, j), rel_tol=1e-12)
        assert all(b >= a for a, b in zip(p.cumulative_length, p.cumulative_length[1:]))


def test_shortest_path_identity():
    s = build_polyline([(0, 0), (1, 0)])
    assert shortest_path(s, 1, 1).vertices == (1,)


def test_self_loop_is_never_a_predecessor():
    # a path 0 - 1 - 2 with a zero-length loop at 0, built in code (the
    # loader rejects it); the old tie rule made 0 its own predecessor and the
    # chain walk from 2 to 0 never ended
    s = SetSample(2, ((0, 0), (1, 0), (2, 0)), ((0, 1, 1.0), (1, 2, 1.0), (0, 0, 0.0)))
    dist, pred = predecessor_array(s, 2)
    assert dist.tolist() == [2.0, 1.0, 0.0]
    assert pred.tolist() == [1, 2, -1]
    assert shortest_path(s, 2, 0).vertices == (2, 1, 0)
    assert shortest_path(s, 0, 2).vertices == (0, 1, 2)
    assert predecessor_array(s, 0)[1].tolist() == [-1, 0, 1]


def test_local_to_global_on_near_coincident_points_warns_nothing():
    # the chord of points 0 and 1 rounds to 0, so their ratio is 1e-300 / 0
    s = sample_from_dict(NEAR_COINCIDENT_DOC)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = verify_local_to_global(s, ScalarField(s, [0.0, 1e-300, 1.0]))
    assert report.l_glob == math.inf and report.witness_pair == (0, 1)
    assert report.hypothesis_ok and not report.passed


def test_predecessors_follow_settle_order_on_near_coincident_points():
    # vertices 0 and 1 sit at the same float distance 1.0 from vertex 2; the
    # old tie rule made each the other's predecessor
    s = sample_from_dict(NEAR_COINCIDENT_DOC)
    dist, pred = predecessor_array(s, 2)
    assert dist.tolist() == [1.0, 1.0, 0.0]
    assert pred.tolist() == [2, 0, -1]  # 0 is settled before 1 and ties
    assert shortest_path(s, 2, 0).vertices == (2, 0)
    assert shortest_path(s, 2, 1).vertices == (2, 0, 1)
    assert predecessor_array(s, 0)[1].tolist() == [-1, 0, 0]


@pytest.mark.parametrize(
    "points,edges,source,pred",
    [
        # 1.0 + 1e-17 rounds to 1.0: vertex 2 ties vertex 1 in float distance,
        # and its only neighbor on the way back is vertex 1
        ([[1, 0], [0, 0], [1e-17, 0]], [[0, 1, 1.0], [1, 2, 1e-17]], 0, [-1, 0, 1]),
        # the same, with the far vertex numbered before the near one
        ([[1, 0], [1e-17, 0], [0, 0]], [[0, 2, 1.0], [2, 1, 1e-17]], 0, [-1, 2, 0]),
        ([[0, 0], [1e-300, 0], [1, 0]], [[0, 1, 1e-300], [0, 2, 1.0]], 2, [2, 0, -1]),
    ],
    ids=["tail-1e-17", "tail-1e-17-renumbered", "tail-1e-300"],
)
def test_vertex_tied_only_with_its_predecessor_gets_it(points, edges, source, pred):
    s = sample_from_dict({"version": 1, "ambient_dim": 2, "points": points, "edges": edges})
    dist, got = predecessor_array(s, source)
    assert got.tolist() == pred
    for target in range(3):
        path = shortest_path(s, source, target)
        assert (path.vertices[0], path.vertices[-1]) == (source, target)
        assert path.length == dist[target]


# ---------------------------------------------------------------------------
# chord-arc estimation


def test_chord_arc_straight_segment():
    s = build_polyline([(i / 10, 0.0) for i in range(11)])
    rep = estimate_chord_arc(s)
    assert abs(rep.k_hat - 1.0) <= 1e-12
    assert rep.method == "exhaustive"
    assert rep.pair_count == 55


def test_chord_arc_exact_tie_takes_smallest_witness():
    s = build_polyline([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)])
    rep = estimate_chord_arc(s)
    assert rep.k_hat == 1.0
    assert rep.witness_pair == (0, 1)


def test_chord_arc_is_never_below_one():
    # the stored edge length (math.dist) of this straight pair is one ulp
    # shorter than its row-norm chord; k_hat used to read 0.9999999999999998
    s = build_polyline([(0.0, 0.0), (2.025, 0.339)])
    assert s.edge_lengths[0] / math.sqrt(2.025 ** 2 + 0.339 ** 2) < 1.0
    for rep in (estimate_chord_arc(s), estimate_chord_arc(s, "sampled", pair_budget=3)):
        assert rep.k_hat == 1.0
        assert rep.witness_pair == (0, 1)


def test_chord_arc_l_polyline():
    s = build_polyline([(0, 0), (1, 0), (1, 1)])
    rep = estimate_chord_arc(s)
    assert math.isclose(rep.k_hat, math.sqrt(2), abs_tol=1e-9)
    assert rep.witness_pair == (0, 2)


def test_chord_arc_256gon(khat_circle256):
    assert abs(khat_circle256.k_hat - math.pi / 2) <= 1e-3
    # finite-polygon closed form: k_hat = (n/2) sin(pi/n) at the antipodal pair
    assert math.isclose(khat_circle256.k_hat, 128 * math.sin(math.pi / 256), rel_tol=1e-12)


def test_chord_arc_against_brute_force_oracle(gasket2):
    rep = estimate_chord_arc(gasket2)
    k_oracle, _ = brute_force_chord_arc(gasket2)
    assert math.isclose(rep.k_hat, k_oracle, rel_tol=1e-12)


@settings(deadline=None, max_examples=60)
@given(connected_planar_graphs())
def test_exhaustive_chord_arc_equals_brute_force(case):
    # scipy's Dijkstra gives the same distances bit for bit, and the oracle
    # takes the first pair in (i, j) order with the largest ratio, as the scan does
    sample, _, _ = case
    rep = estimate_chord_arc(sample)
    assert (rep.k_hat, rep.witness_pair) == brute_force_chord_arc(sample)
    nv = sample.vertex_count
    assert rep.pair_count == nv * (nv - 1) // 2


def test_chord_arc_report_invariants(gasket3):
    rep = estimate_chord_arc(gasket3)
    assert rep.k_hat >= 1.0 - 1e-12
    i, j = rep.witness_pair
    ratio = geodesic_distance(gasket3, i, j) / math.dist(gasket3.points[i], gasket3.points[j])
    assert math.isclose(rep.k_hat, ratio, rel_tol=1e-12)


def test_chord_arc_self_consistency(gasket2):
    rep = estimate_chord_arc(gasket2)
    pts = gasket2.points_array
    for i, j in itertools.combinations(range(gasket2.vertex_count), 2):
        geo = geodesic_distance(gasket2, i, j)
        assert geo <= rep.k_hat * math.dist(pts[i], pts[j]) + 1e-12


def test_sampled_mode_lower_bounds_exhaustive(gasket3):
    full = estimate_chord_arc(gasket3)
    sub = estimate_chord_arc(gasket3, "sampled", seed=3, pair_budget=40)
    assert sub.k_hat <= full.k_hat + 1e-15
    assert sub.method == "sampled"
    assert sub.seed == 3
    # deterministic given the seed
    again = estimate_chord_arc(gasket3, "sampled", seed=3, pair_budget=40)
    assert again.k_hat == sub.k_hat and again.witness_pair == sub.witness_pair


def test_chord_arc_of_lipschitz_graphs():
    # a single-slope graph is a straight line; a zigzag of slope 1/2 attains
    # the sqrt(1 + L^2) bound at pairs straddling a peak
    from qcalc.geometry import build_lipschitz_graph

    bound = math.sqrt(1.0 + 0.25)
    line = build_lipschitz_graph([0.5], 0.125, (0.0, 1.0))
    assert estimate_chord_arc(line).k_hat <= bound + 1e-12
    zig = build_lipschitz_graph([0.5, -0.5, 0.5, -0.5], 0.25, (0.0, 4.0))
    rep = estimate_chord_arc(zig)
    assert math.isclose(rep.k_hat, bound, rel_tol=1e-12)
    k_oracle, _ = brute_force_chord_arc(zig)
    assert math.isclose(rep.k_hat, k_oracle, rel_tol=1e-12)


def test_dumbbell_pole_geodesic_and_constant(dumbbell):
    # poles = circle tops; the geodesic runs a quarter arc, the neck, and a
    # quarter arc, so it approaches pi*r + neck as the polygons refine
    n = 64
    top_a = vertex_at(dumbbell, (-1.05 + math.cos(math.pi / 2), math.sin(math.pi / 2)))
    top_b = vertex_at(dumbbell, (1.05 + math.cos(math.pi + 2 * math.pi * 48 / n),
                                 math.sin(math.pi + 2 * math.pi * 48 / n)))
    geo = geodesic_distance(dumbbell, top_a, top_b)
    assert math.isclose(geo, math.pi + 0.1, rel_tol=2e-3)
    rep = estimate_chord_arc(dumbbell)
    assert 1.0 <= rep.k_hat < 4.0
    k_oracle, _ = brute_force_chord_arc(dumbbell)
    assert math.isclose(rep.k_hat, k_oracle, rel_tol=1e-12)


@pytest.mark.parametrize("budget", [10 ** 12, 2 ** 24 + 1])
def test_sampled_mode_refuses_a_budget_over_the_cap(gasket3, budget):
    # 10^12 pairs used to end in numpy's MemoryError, and 10^7 took 343 MB
    with pytest.raises(ResourceLimitError, match=f"pair_budget {budget} exceeds the cap of "
                                                 f"{2 ** 24} pairs"):
        estimate_chord_arc(gasket3, "sampled", seed=0, pair_budget=budget)


def test_sampled_mode_rejects_zero_budget(gasket3):
    with pytest.raises(BuildError):
        estimate_chord_arc(gasket3, "sampled", seed=0, pair_budget=0)
    with pytest.raises(BuildError):
        estimate_chord_arc(gasket3, "unknown-mode")


@settings(deadline=None, max_examples=25)
@given(st.lists(st.integers(min_value=-8, max_value=8), min_size=2, max_size=8, unique=True))
def test_chord_arc_at_least_one_on_random_polylines(xs):
    points = [(float(x), float(i % 3)) for i, x in enumerate(xs)]
    s = build_polyline(points)
    rep = estimate_chord_arc(s)
    assert rep.k_hat >= 1.0 - 1e-12


# ---------------------------------------------------------------------------
# local-to-global


def test_local_to_global_constant_field(gasket2):
    f = ScalarField.from_function(gasket2, lambda p: 4.0)
    rep = verify_local_to_global(gasket2, f, C=1.0, k=2.0)
    assert rep.passed and rep.l_glob == 0.0


def test_local_to_global_projection_on_gasket(gasket3):
    khat = estimate_chord_arc(gasket3).k_hat
    f = ScalarField.from_function(gasket3, lambda p: p[0])
    rep = verify_local_to_global(gasket3, f, C=1.0, k=khat)
    assert rep.hypothesis_ok
    assert rep.l_glob <= 1.0 + 1e-12
    assert rep.passed


def test_local_to_global_arc_length_on_circle(circle256, khat_circle256):
    f = geodesic_field(circle256)
    rep = verify_local_to_global(
        circle256, f, radius=circle256.max_edge_length, C=1.0, k=math.pi / 2, tol=1e-6
    )
    assert rep.hypothesis_ok
    assert rep.passed
    assert rep.l_glob <= math.pi / 2 * 1.0 + 1e-6
    # exhaustive pair oracle: the measured constant really is the sup ratio
    pts = circle256.points_array
    sup = max(
        abs(f.values[i] - f.values[j]) / math.dist(pts[i], pts[j])
        for i, j in itertools.combinations(range(0, 256, 8), 2)
    )
    assert sup <= rep.l_glob + 1e-12


def test_local_to_global_reports_hypothesis_violation(gasket2):
    f = ScalarField.from_function(gasket2, lambda p: 10.0 * p[0])
    rep = verify_local_to_global(gasket2, f, C=1.0, k=2.0)
    assert not rep.hypothesis_ok
    assert rep.local_violations
    assert not rep.passed


@pytest.mark.parametrize("name, value", [
    ("radius", math.nan), ("radius", -1.0),
    ("C", math.inf), ("C", math.nan), ("C", -1.0),
    ("k", 0.0), ("k", math.inf), ("k", math.nan),
    ("tol", math.inf), ("tol", math.nan), ("tol", -1.0),
])
def test_local_to_global_rejects_values_that_make_the_verdict_vacuous(gasket4, name, value):
    # with C = 1 this field breaks the local hypothesis at 617 pairs; radius nan
    # or -1 (k = 100), C inf and tol inf each passed it, and tol nan found none
    f = ScalarField.from_function(gasket4, lambda p: 10.0 * p[0] ** 2 + p[1])
    assert len(verify_local_to_global(gasket4, f, C=1.0).local_violations) == 617
    kwargs = {"C": 1.0, "k": 100.0, name: value}
    with pytest.raises(BuildError, match=f"^{name} must be"):
        verify_local_to_global(gasket4, f, **kwargs)


def test_local_to_global_measured_constant_always_passes(gasket3, dumbbell):
    khats = {}
    for s in (gasket3, dumbbell):
        khats[s.label] = estimate_chord_arc(s).k_hat
    for s in (gasket3, dumbbell):
        radius = 2.0 * s.max_edge_length
        f = ScalarField.from_function(s, lambda p: math.sin(3 * p[0]) * p[1])
        C = measured_local_constant(s, f, radius)
        rep = verify_local_to_global(s, f, radius, C, khats[s.label])
        assert rep.passed, (s.label, rep.l_glob, rep.bound)
