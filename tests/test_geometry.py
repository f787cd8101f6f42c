from __future__ import annotations

import contextlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from qcalc import geometry
from qcalc.errors import BuildError, FormatError, PathError, ResourceLimitError
from qcalc.fields import CovectorField, ScalarField, dump_field
from qcalc.geometry import (
    PolylinePath,
    SetSample,
    build_carpet,
    build_dumbbell,
    build_gasket,
    build_lipschitz_graph,
    build_polyline,
    sample_from_dict,
    sample_to_dict,
    validate,
)
from qcalc.metric import geodesic_distance, shortest_path

from conftest import circle_points


# ---------------------------------------------------------------------------
# polyline


def test_polyline_single_segment():
    s = build_polyline([(0, 0), (1, 0)])
    assert s.vertex_count == 2
    assert s.edges == ((0, 1, 1.0),)


def test_polyline_l_shape():
    s = build_polyline([(0, 0), (1, 0), (1, 1)])
    assert s.vertex_count == 3
    assert s.edge_count == 2
    assert math.isclose(sum(l for _, _, l in s.edges), 2.0, abs_tol=1e-12)


def test_polyline_256gon_perimeter():
    s = build_polyline(circle_points(256), closed=True)
    assert s.edge_count == 256
    # closed form, cross-checked against plain summation of the edges
    closed_form = 256 * 2 * math.sin(math.pi / 256)
    assert math.isclose(math.fsum(l for _, _, l in s.edges), closed_form, rel_tol=1e-12)


def test_polyline_rejects_duplicate_consecutive():
    with pytest.raises(BuildError, match="index 1"):
        build_polyline([(0, 0), (1, 0), (1, 0), (2, 0)])


def test_polyline_rejects_any_duplicate():
    with pytest.raises(BuildError, match="duplicate points at indices 0 and 3$"):
        build_polyline([(0, 0), (1, 0), (0, 0.5), (0, 0)])


@pytest.mark.parametrize("points,message", [
    ([(0, 0), (1, 0), (0, 0), (2, 0), (2, 0)], "duplicate consecutive points at index 3$"),
    ([(), ()], "at least one coordinate"),
], ids=["consecutive-first", "no-coordinates"])
def test_polyline_names_the_duplicate_pair(points, message):
    with pytest.raises(BuildError, match=message):
        build_polyline(points)


def test_polyline_needs_two_points():
    with pytest.raises(BuildError):
        build_polyline([(0, 0)])


def test_polyline_rejects_mixed_dimensions():
    with pytest.raises(BuildError):
        build_polyline([(0, 0), (1, 0, 0)])


def test_closed_polyline_adds_wrap_edge():
    s = build_polyline([(0, 0), (1, 0), (1, 1), (0, 1)], closed=True)
    assert s.edge_count == 4
    assert (3, 0, 1.0) in s.edges


# ---------------------------------------------------------------------------
# gasket


@pytest.mark.parametrize("level,verts,edges", [(0, 3, 3), (1, 6, 9), (2, 15, 27)])
def test_gasket_small_counts(level, verts, edges):
    s = build_gasket(level)
    assert (s.vertex_count, s.edge_count) == (verts, edges)


@pytest.mark.parametrize("level", range(7))
def test_gasket_closed_form_counts(level):
    s = build_gasket(level)
    assert s.vertex_count == 3 * (3 ** level + 1) // 2
    assert s.edge_count == 3 ** (level + 1)


def test_gasket_matches_float_enumeration_oracle():
    # independent construction: recursive float midpoints, dedup by rounding
    def enumerate_gasket(level):
        tris = [((0.0, 0.0), (1.0, 0.0), (0.5, math.sqrt(3) / 2))]
        for _ in range(level):
            nxt = []
            for a, b, c in tris:
                mab = ((a[0] + b[0]) / 2, (a[1] + b[1]) / 2)
                mac = ((a[0] + c[0]) / 2, (a[1] + c[1]) / 2)
                mbc = ((b[0] + c[0]) / 2, (b[1] + c[1]) / 2)
                nxt += [(a, mab, mac), (mab, b, mbc), (mac, mbc, c)]
            tris = nxt
        verts = {tuple(round(c, 9) for c in v) for t in tris for v in t}
        segs = set()
        for a, b, c in tris:
            for u, v in ((a, b), (b, c), (a, c)):
                key = tuple(sorted((tuple(round(x, 9) for x in u), tuple(round(x, 9) for x in v))))
                segs.add(key)
        return len(verts), len(segs)

    for level in range(4):
        s = build_gasket(level)
        verts, segs = enumerate_gasket(level)
        assert (s.vertex_count, s.edge_count) == (verts, segs)


def test_gasket_vertex_set_geometry():
    s = build_gasket(1)
    got = {tuple(round(c, 12) for c in p) for p in s.points}
    r3 = round(math.sqrt(3) / 4, 12)
    assert got == {(0.0, 0.0), (1.0, 0.0), (0.5, round(math.sqrt(3) / 2, 12)),
                   (0.5, 0.0), (0.25, r3), (0.75, r3)}


def test_gasket_level_cap():
    with pytest.raises(ResourceLimitError):
        build_gasket(9)
    with pytest.raises(BuildError):
        build_gasket(-1)


# ---------------------------------------------------------------------------
# carpet


def test_carpet_level0():
    s = build_carpet(0)
    assert s.vertex_count == 1
    assert s.edge_count == 0
    assert s.points[0] == (0.5, 0.5)


def test_carpet_level1_ring():
    s = build_carpet(1)
    assert s.vertex_count == 8
    assert s.edge_count == 8
    # every retained cell has exactly two ring neighbors
    degree = [0] * 8
    for i, j, _ in s.edges:
        degree[i] += 1
        degree[j] += 1
    assert degree == [2] * 8


def test_carpet_level2_counts():
    s = build_carpet(2)
    assert s.vertex_count == 64
    assert s.edge_count == 88  # frozen from an enumeration of 4-adjacencies


def test_carpet_retained_cells_oracle():
    # independent enumeration: a cell survives iff no base-3 digit pair is (1,1)
    s = build_carpet(2)
    retained = []
    for x in range(9):
        for y in range(9):
            digits = [(x // 3 ** k % 3, y // 3 ** k % 3) for k in range(2)]
            if all(d != (1, 1) for d in digits):
                retained.append((x, y))
    assert len(retained) == s.vertex_count
    centers = {((x + 0.5) / 9, (y + 0.5) / 9) for x, y in retained}
    assert {tuple(p) for p in s.points} == centers


def test_carpet_edge_lengths_equal_pitch():
    s = build_carpet(2)
    for _, _, l in s.edges:
        assert math.isclose(l, 1.0 / 9.0, rel_tol=1e-12)


def test_carpet_level_cap():
    with pytest.raises(ResourceLimitError):
        build_carpet(6)


# ---------------------------------------------------------------------------
# lipschitz graph


def test_graph_flat_three_points():
    s = build_lipschitz_graph([0.0], 0.5, (0.0, 1.0))
    assert s.points == ((0.0, 0.0), (0.5, 0.0), (1.0, 0.0))


def test_graph_tent():
    s = build_lipschitz_graph([1.0, -1.0], 1.0, (0.0, 2.0))
    assert s.points == ((0.0, 0.0), (1.0, 1.0), (2.0, 0.0))


def test_graph_label_records_lipschitz_constant():
    s = build_lipschitz_graph([0.5, -0.25], 0.25, (0.0, 1.0))
    assert "L=0.5" in s.label


def test_graph_empty_span():
    with pytest.raises(BuildError, match="span"):
        build_lipschitz_graph([1.0], 0.5, (1.0, 1.0))


def test_graph_bad_inputs():
    with pytest.raises(BuildError):
        build_lipschitz_graph([], 0.5, (0.0, 1.0))
    with pytest.raises(BuildError):
        build_lipschitz_graph([math.inf], 0.5, (0.0, 1.0))
    with pytest.raises(BuildError):
        build_lipschitz_graph([1.0], 0.0, (0.0, 1.0))
    with pytest.raises(BuildError, match="span must be finite"):
        build_lipschitz_graph([1.0], 0.5, (0.0, math.inf))


@pytest.mark.parametrize("points,edges", [
    ([(0.0, 0.0), (math.inf, 0.0)], [(0, 1, 1.0)]),
    ([(0.0, 0.0), (math.nan, 0.0)], [(0, 1, 1.0)]),
    ([(0.0, 0.0), (1.0, 0.0)], [(0, 1, math.inf)]),
], ids=["inf-point", "nan-point", "inf-length"])
def test_sample_constructor_rejects_non_finite_values(points, edges):
    with pytest.raises(BuildError, match="finite"):
        SetSample(2, points, edges)


def test_point_cap_is_checked_before_building():
    assert geometry.POINT_CAP == build_carpet(5).vertex_count == 32768
    assert build_lipschitz_graph([1.0], 1.0, (0.0, 32766.0)).vertex_count == 32767
    assert build_dumbbell(1.0, 0.1, 4 * math.pi / 32766).vertex_count == 32767
    for build in (lambda: build_lipschitz_graph([1.0], 1.0, (0.0, 200000.0)),
                  lambda: build_lipschitz_graph([1.0], 1e-300, (0.0, 1e300)),
                  lambda: build_dumbbell(1.0, 0.1, 1e-9),
                  lambda: build_dumbbell(1.0, 0.1, 5e-324)):
        with pytest.raises(ResourceLimitError, match="cap of 32768 points"):
            build()


# ---------------------------------------------------------------------------
# dumbbell


def test_dumbbell_shape():
    s = build_dumbbell(1.0, 0.01, math.pi / 64)
    n = 128
    assert s.vertex_count == 2 * n + 1
    assert s.edge_count == 2 * n + 2  # two cycles plus the two-segment bridge
    assert validate(s).ok
    # junctions sit at the neck ends, the midpoint at the origin
    assert math.isclose(s.points[0][0], -0.005, abs_tol=1e-12) and s.points[0][1] == 0.0
    assert math.isclose(s.points[n][0], 0.005, abs_tol=1e-12)
    assert s.points[2 * n] == (0.0, 0.0)


def test_dumbbell_parameter_order():
    with pytest.raises(BuildError):
        build_dumbbell(0.5, 0.5, 0.1)
    with pytest.raises(BuildError):
        build_dumbbell(1.0, -0.1, 0.1)


# ---------------------------------------------------------------------------
# the builders' one tail: the arrays of the former tuple route, bit for bit


def _tuple_route(dim, points, pairs, label):
    """The sample as builders made it through ``SetSample.__init__``: point
    tuples, and each edge (i, j) stored with ``math.dist`` of its endpoints."""
    pts = tuple(tuple(float(c) for c in p) for p in points)
    return SetSample(dim, pts, tuple((i, j, math.dist(pts[i], pts[j])) for i, j in pairs), label)


def _assert_same_arrays(built, expected):
    assert (built.ambient_dim, built.label) == (expected.ambient_dim, expected.label)
    for name in ("points_array", "edge_ends", "edge_lengths"):
        got, want = getattr(built, name), getattr(expected, name)
        assert (got.dtype, got.shape, got.flags.c_contiguous) == (want.dtype, want.shape, True)
        assert got.tobytes() == want.tobytes(), name


def _dumbbell_tuple_route(r, w, step):
    """``build_dumbbell``'s points and per-edge loop as they were before the tail."""
    n = int(round(2 * math.pi / step))
    cxa, cxb = -(r + w / 2.0), r + w / 2.0
    points = [(cxa + r * math.cos(2 * math.pi * j / n), r * math.sin(2 * math.pi * j / n))
              for j in range(n)]
    points += [(cxb + r * math.cos(math.pi + 2 * math.pi * j / n),
                r * math.sin(math.pi + 2 * math.pi * j / n)) for j in range(n)]
    points.append((0.0, 0.0))
    pairs = []
    for base in (0, n):
        for j in range(n):
            u, v = base + j, base + (j + 1) % n
            pairs.append((min(u, v), max(u, v)))
    pairs += [(0, 2 * n), (n, 2 * n)]
    return _tuple_route(2, points, pairs, f"dumbbell r={r:g} w={w:g} n={n}")


COORD = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


@settings(deadline=None, max_examples=150)
@given(st.integers(1, 4).flatmap(
    lambda d: st.lists(st.tuples(*[COORD] * d), min_size=2, max_size=30)), st.booleans())
def test_polyline_arrays_equal_the_tuple_route(points, closed):
    try:
        built = build_polyline(points, closed=closed)
    except BuildError:  # near-duplicate points
        assert geometry._near_pairs(np.array(points, dtype=float))
        return
    nv = len(points)
    pairs = [(i, i + 1) for i in range(nv - 1)] + ([(nv - 1, 0)] if closed else [])
    _assert_same_arrays(built, _tuple_route(len(points[0]), points, pairs, built.label))


@settings(deadline=None, max_examples=150)
@given(st.lists(st.floats(-50, 50), min_size=1, max_size=5), st.floats(1e-3, 1.0),
       st.floats(-10, 10), st.floats(1e-2, 20))
def test_graph_arrays_equal_the_tuple_route(slopes, step, a, width):
    built = build_lipschitz_graph(slopes, step, (a, a + width))
    nv = built.vertex_count
    _assert_same_arrays(built, _tuple_route(2, built.points, [(i, i + 1) for i in range(nv - 1)],
                                            built.label))


@settings(deadline=None, max_examples=150)
@given(st.floats(0.1, 10), st.floats(0.01, 0.99), st.floats(0.01, 2.0))
def test_dumbbell_arrays_equal_the_tuple_route(r, neck, step):
    _assert_same_arrays(build_dumbbell(r, neck * r, step), _dumbbell_tuple_route(r, neck * r, step))


# ---------------------------------------------------------------------------
# validation


@pytest.mark.parametrize(
    "builder",
    [
        lambda: build_polyline([(0, 0), (1, 0), (1, 1)]),
        lambda: build_polyline(circle_points(64), closed=True),
        lambda: build_gasket(2),
        lambda: build_carpet(2),
        lambda: build_lipschitz_graph([0.5, -0.5], 0.25, (0.0, 2.0)),
        lambda: build_dumbbell(1.0, 0.1, math.pi / 16),
    ],
)
def test_every_builder_output_validates_clean(builder):
    report = validate(builder())
    assert report.ok, report.violations


def test_validate_flags_wrong_edge_length():
    s = SetSample(2, ((0, 0), (1, 0)), ((0, 1, 2.0),))
    report = validate(s)
    assert not report.ok
    assert [v.kind for v in report.violations] == ["edge_length"]


def test_validate_flags_disconnected():
    s = SetSample(2, ((0, 0), (1, 0), (5, 5), (6, 5)), ((0, 1, 1.0), (2, 3, 1.0)))
    kinds = {v.kind for v in validate(s).violations}
    assert kinds == {"disconnected"}


def test_validate_flags_duplicates_and_bad_index():
    s = SetSample(2, ((0, 0), (0, 0)), ((0, 5, 1.0),))
    kinds = {v.kind for v in validate(s).violations}
    assert "duplicate_points" in kinds
    assert "index" in kinds


def test_validate_lists_every_bad_edge_in_edge_order():
    s = SetSample(2, ((0, 0), (1, 0), (1, 1)),
                  ((0, 1, 2.0), (0, 5, 1.0), (1, 2, 7.0), (2, 2, 0.0), (1, 2, 1.0)))
    report = validate(s)
    assert [(v.kind, v.where) for v in report.violations] == [
        ("edge_length", (0,)), ("index", (1,)), ("edge_length", (2,)), ("index", (3,))]
    assert report.violations[0].message == "edge 0 stores 2.0 but endpoints are 1.0 apart"
    assert report.violations[1].message == "edge 1 has bad endpoints (0,5)"


def test_builders_are_deterministic():
    a = build_gasket(3)
    b = build_gasket(3)
    assert a == b
    assert sample_to_dict(a) == sample_to_dict(b)
    assert build_dumbbell(1.0, 0.1, 0.1) == build_dumbbell(1.0, 0.1, 0.1)


# ---------------------------------------------------------------------------
# paths


def test_path_from_vertices_and_reverse():
    s = build_polyline([(0, 0), (1, 0), (1, 1)])
    p = PolylinePath.from_vertices(s, [0, 1, 2])
    assert p.cumulative_length == (0.0, 1.0, 2.0)
    assert p.reverse().vertices == (2, 1, 0)
    assert p.reverse().length == p.length


def test_path_rejects_nonadjacent_vertices():
    s = build_polyline([(0, 0), (1, 0), (1, 1)])
    with pytest.raises(PathError):
        PolylinePath.from_vertices(s, [0, 2])
    with pytest.raises(PathError):
        PolylinePath.from_vertices(s, [0, 7])
    with pytest.raises(PathError):
        PolylinePath.from_vertices(s, [])


def test_path_closed_flag():
    s = build_polyline([(0, 0), (1, 0), (1, 1), (0, 1)], closed=True)
    assert PolylinePath.from_vertices(s, [0, 1, 2, 3, 0]).is_closed
    assert not PolylinePath.from_vertices(s, [0, 1, 2]).is_closed


# ---------------------------------------------------------------------------
# serialization


def test_sample_json_round_trip(tmp_path):
    s = build_gasket(2)
    path = tmp_path / "g.json"
    geometry.dump_sample(s, str(path))
    loaded = geometry.load_sample(str(path))
    assert loaded == s
    assert loaded.fingerprint == s.fingerprint


def test_reader_rejects_unknown_version():
    doc = sample_to_dict(build_polyline([(0, 0), (1, 0)]))
    doc["version"] = 2
    with pytest.raises(FormatError) as err:
        sample_from_dict(doc)
    assert err.value.field == "version"


@pytest.mark.parametrize(
    "corrupt,field",
    [
        (lambda d: d.pop("version"), "version"),
        (lambda d: d.update(points=[[0.0], [1.0, 0.0]]), "points"),
        (lambda d: d.update(points="nope"), "points"),
        (lambda d: d.update(edges=[[0, 9, 1.0]]), "edges"),
        (lambda d: d.update(edges=[[0, 1]]), "edges"),
        (lambda d: d.update(ambient_dim=0), "ambient_dim"),
        (lambda d: d.update(label=7), "label"),
    ],
)
def test_reader_names_offending_field(corrupt, field):
    doc = sample_to_dict(build_polyline([(0, 0), (1, 0)]))
    corrupt(doc)
    with pytest.raises(FormatError) as err:
        sample_from_dict(doc, source="fixture.json")
    assert err.value.field == field
    assert "fixture.json" in str(err.value)


@pytest.mark.parametrize(
    "key,value,field",
    [
        ("points", [[0.0, float("nan")], [1.0, 0.0]], "points"),
        ("points", [[0.0, 0.0], [float("-inf"), 0.0]], "points"),
        ("points", [[True, 0.0], [1.0, 0.0]], "points"),
        ("points", [[10 ** 400, 0.0], [1.0, 0.0]], "points"),
        ("edges", [[0, 1, float("nan")]], "edges"),
        ("edges", [[0, 1, float("inf")]], "edges"),
        ("edges", [[False, True, 1.0]], "edges"),
        ("ambient_dim", True, "ambient_dim"),
    ],
    ids=["nan-coord", "inf-coord", "true-coord", "huge-int-coord", "nan-length",
         "inf-length", "bool-index", "bool-dim"],
)
def test_reader_rejects_non_finite_and_bool_entries(key, value, field):
    doc = sample_to_dict(build_polyline([(0, 0), (1, 0)]))
    doc[key] = value
    with pytest.raises(FormatError) as err:
        sample_from_dict(doc, source="fixture.json")
    assert err.value.field == field


@pytest.mark.parametrize(
    "points,pair",
    [
        ([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]], (0, 2)),
        ([[0.5, 1.0], [0.0, -0.0], [2.0, 0.0], [0.5, 1.0], [-0.0, 0.0]], (0, 3)),
        ([[1.0, 0.0], [0.0, -0.0], [2.0, 0.0], [-0.0, 0.0], [0.0, 0.0]], (1, 3)),
        ([[3.0], [1.0], [2.0], [1.0]], (1, 3)),
    ],
    ids=["repeat", "two-repeats", "signed-zeros", "one-dim"],
)
def test_reader_rejects_coincident_points(points, pair):
    doc = {"version": 1, "ambient_dim": len(points[0]), "points": points,
           "edges": [[i, i + 1, 1.0] for i in range(len(points) - 1)], "label": ""}
    with pytest.raises(FormatError) as err:
        sample_from_dict(doc, source="fixture.json")
    assert err.value.field == "points"
    assert f"points {pair[0]} and {pair[1]} coincide" in str(err.value)


def test_reader_accepts_points_that_differ_in_one_coordinate():
    doc = {"version": 1, "ambient_dim": 2, "label": "",
           "points": [[0.0, 0.0], [0.0, 5e-324], [5e-324, 0.0]],
           "edges": [[0, 1, 5e-324], [0, 2, 5e-324]]}
    assert sample_from_dict(doc).vertex_count == 3


@pytest.mark.parametrize(
    "points,edges,bad",
    [
        ([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]], [[0, 1, 1.0], [1, 2, 5.0], [0, 2, 7.0]], 1),
        ([[0.0, 0.0], [3.0, 4.0]], [[0, 1, 5.0 * (1 + 2e-12)]], 0),
        ([[0.0, 0.0], [3.0, 4.0]], [[1, 0, 0.0]], 0),
        ([[0.0], [3e200], [5e-324]], [[0, 2, 5e-324], [0, 1, 4e200]], 1),
        ([[0.0, 0.0, 0.0], [1.0, 2.0, 2.0]], [[0, 1, 3.0], [1, 0, 2.0]], 1),
    ],
    ids=["five-on-a-unit-gap", "just-outside-tolerance", "zero-length", "huge-and-subnormal",
         "three-dim"],
)
def test_reader_rejects_wrong_edge_length(points, edges, bad):
    doc = {"version": 1, "ambient_dim": len(points[0]), "points": points, "edges": edges,
           "label": ""}
    with pytest.raises(FormatError) as err:
        sample_from_dict(doc, source="fixture.json")
    assert err.value.field == "edges"
    assert f"edge {bad} stores {float(edges[bad][2])!r}" in str(err.value)


@pytest.mark.parametrize(
    "points,length",
    [
        ([[0.0, 0.0], [3.0, 4.0]], 5.0 * (1 + 5e-13)),
        ([[0.0, 0.0], [3e200, 4e200]], 5e200),
        ([[0.0, 0.0], [3e-200, 4e-200]], 5e-200),
        ([[1e154, 0.0], [-1e154, 0.0]], 2e154),
    ],
    ids=["inside-tolerance", "huge", "tiny", "squares-overflow"],
)
def test_reader_accepts_edge_lengths_within_tolerance(points, length):
    doc = {"version": 1, "ambient_dim": 2, "points": points, "edges": [[0, 1, length]]}
    assert sample_from_dict(doc).edges[0][2] == length


def test_reader_rejects_self_loop():
    # a zero-length edge [i, i, 0.0] passes the length check, so the loader
    # names it; the out-of-range message is unchanged
    doc = {"version": 1, "ambient_dim": 2, "label": "",
           "points": [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]],
           "edges": [[0, 1, 1.0], [1, 2, 1.0], [0, 0, 0.0]]}
    with pytest.raises(FormatError) as err:
        sample_from_dict(doc, source="fixture.json")
    assert err.value.field == "edges"
    assert "edge 2 is a self-loop at vertex 0" in str(err.value)
    doc["edges"][2] = [0, 3, 2.0]
    with pytest.raises(FormatError, match="edge 2 index out of range"):
        sample_from_dict(doc, source="fixture.json")


def test_reader_accepts_every_builder_sample():
    for s in (build_gasket(4), build_polyline(circle_points(64), closed=True), build_carpet(2),
              build_dumbbell(1.0, 0.1, math.pi / 16),
              build_lipschitz_graph([0.5, -2.0], 0.1, (0.0, 1.0))):
        assert sample_from_dict(sample_to_dict(s)) == s


@pytest.mark.parametrize(
    "points,edges,message",
    [
        ([[0, 0], [1, 0], [2, 0]], [[0, 0, 0.0], [0, 9, 1.0]],
         "edge 0 is a self-loop at vertex 0"),
        ([[0, 0], [1, 0], [2, 0]], [[0, 9, 1.0], [1, 1, 0.0]], "edge 0 index out of range"),
        ([[0, 0], [1, 0], [2, 0]], [[0, 1, 1.0], [0, 1], [1, 1, 0.0]],
         "edge 1 is not [i, j, nonnegative finite length]"),
        ([[0, 0], [1, 0], [2, 0]], [[0, 1, 1.0], [1, 1, 0.0], [True, 1, 1.0]],
         "edge 1 is a self-loop at vertex 1"),
        ([[0, 0], [1, 0], [2, 0]], [[0, 1, -1.0], [0, 5, 1.0]],
         "edge 0 is not [i, j, nonnegative finite length]"),
        ([[0, 0], [1, 0], [2, 0]], [[0, 1, 1.0], [2, 10 ** 30, 1.0], [0, 0, 0.0]],
         "edge 1 index out of range"),
        # shape, range and self-loops come before any stored length
        ([[0, 0], [1, 0], [2, 0]], [[0, 1, 5.0], [1, 2, 1.0], [2, 2, 0.0]],
         "edge 2 is a self-loop at vertex 2"),
        ([[0, 0], [1, 0], [2, 0]], [[0, 1, 5.0], [1, 2, 1.0], [0, 2, 3.0]],
         "edge 0 stores 5.0 but endpoints are 1.0 apart"),
    ],
    ids=["loop-then-range", "range-then-loop", "short-then-loop", "loop-then-bool",
         "negative-then-range", "huge-index-then-loop", "length-then-loop", "two-lengths"],
)
def test_reader_names_first_failing_edge(points, edges, message):
    doc = {"version": 1, "ambient_dim": 2, "points": points, "edges": edges, "label": ""}
    with pytest.raises(FormatError) as err:
        sample_from_dict(doc, source="fixture.json")
    assert str(err.value) == f"fixture.json: invalid field 'edges': {message}"


@pytest.mark.parametrize(
    "points,bad",
    [
        ([[0.0, 0.0], [1.0, "x"], [float("nan"), 0.0]], 1),
        ([[0.0, 0.0], [1.0, 0.0], [2.0], [float("inf"), 0.0]], 2),
        ([[0.0, 0.0], [1.0, 0.0], [10 ** 400, 0.0], [False, 0.0]], 2),
        ([[0.0, 0.0], (1.0, 0.0), [1.0, 2.0, 3.0]], 1),
    ],
    ids=["string-then-nan", "short-then-inf", "huge-then-bool", "tuple-then-long"],
)
def test_reader_names_first_failing_point(points, bad):
    doc = {"version": 1, "ambient_dim": 2, "points": points, "edges": [], "label": ""}
    with pytest.raises(FormatError) as err:
        sample_from_dict(doc, source="fixture.json")
    assert str(err.value) == (f"fixture.json: invalid field 'points': "
                              f"point {bad} is not a list of 2 finite numbers")


@pytest.mark.parametrize(
    "make,fingerprint",
    [
        (lambda: build_gasket(4), "f68427be6c8ee96a"),
        (lambda: build_carpet(2), "8ac43e9b09a4a010"),
        (lambda: build_dumbbell(1.0, 0.1, math.pi / 16), "f8602263c40555f8"),
        (lambda: build_polyline([[0, 0, 0], [1, 2, 2], [3, 2, 2]]), "cdf35c6ed3ecb45e"),
        (lambda: sample_from_dict({"version": 1, "ambient_dim": 2, "label": "ints",
                                   "points": [[0, 0], [3, 4], [3, 0]],
                                   "edges": [[1, 0, 5], [2, 1, 4.0], [0, 2, 3]]}),
         "2dbbce91ac8da2a8"),
    ],
    ids=["gasket-4", "carpet-2", "dumbbell", "polyline-3d", "integer-document"],
)
def test_fingerprints_are_pinned(make, fingerprint):
    # field files name their sample by this value in "set"
    sample = make()
    assert sample.fingerprint == fingerprint
    assert sample_from_dict(sample_to_dict(sample)).fingerprint == fingerprint


def test_sample_stores_read_only_arrays():
    for s in (build_gasket(2), sample_from_dict(sample_to_dict(build_gasket(2))),
              SetSample(2, ((0, 0), (3, 4)), ((1, 0, 5),))):
        assert s.points_array.dtype == np.float64 and s.edge_lengths.dtype == np.float64
        assert s.edge_ends.dtype == np.intp and s.edge_ends.flags.c_contiguous
        assert s.edge_ends.shape == (2, s.edge_count)
        assert s.edge_lengths.shape == (s.edge_count,)
        for arr in (s.points_array, s.edge_ends, s.edge_lengths):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0
        # no attribute can be rebound, so the cached views cannot go stale
        for name in ("ambient_dim", "label", "points_array", "edge_ends", "edge_lengths"):
            with pytest.raises(AttributeError):
                setattr(s, name, getattr(s, name))


@pytest.mark.parametrize(
    "points,edges",
    [([(0, 0, 0), (1, 1, 1)], []), ([(0, 0), (1, 1)], [(0, 1)]),
     ([(0, 0), (1, 1)], [(0, 1, 1.0, 2.0)])],
    ids=["3d-points", "short-edge", "long-edge"],
)
def test_sample_rejects_rows_of_the_wrong_width(points, edges):
    with pytest.raises(ValueError):
        SetSample(2, points, edges)


def test_path_over_parallel_edges_takes_the_shortest():
    # a shortest-path run relaxes through the shorter of two parallel edges,
    # and the path length agrees with it whichever is listed first
    for edges in ([(0, 1, 1.0), (1, 0, 1.0000000000000002)],
                  [(0, 1, 1.0000000000000002), (1, 0, 1.0)]):
        s = SetSample(2, [(0, 0), (1, 0)], edges)
        assert PolylinePath.from_vertices(s, [0, 1]).length == 1.0
        assert PolylinePath.from_vertices(s, [1, 0]).length == 1.0
        assert shortest_path(s, 0, 1).length == geodesic_distance(s, 0, 1) == 1.0


def test_sample_keeps_edge_order_and_orientation():
    s = SetSample(2, [[0, 0], [3, 4], [3, 0]], [(1, 0, 5), (2, 1, 4.0), (0, 2, 3)])
    assert s.points == ((0.0, 0.0), (3.0, 4.0), (3.0, 0.0))
    assert s.edges == ((1, 0, 5.0), (2, 1, 4.0), (0, 2, 3.0))
    assert s.edge_ends.tolist() == [[1, 2, 0], [0, 1, 2]]
    assert s.adjacency == (((1, 5.0), (2, 3.0)), ((0, 5.0), (2, 4.0)), ((0, 3.0), (1, 4.0)))
    assert s.max_edge_length == 5.0
    assert s == SetSample(2, s.points, s.edges) and hash(s) == hash(SetSample(2, s.points, s.edges))


def test_load_sample_invalid_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(FormatError) as err:
        geometry.load_sample(str(path))
    assert str(path) in str(err.value)


# ---------------------------------------------------------------------------
# the JSON writer

SPECIAL_NUMBERS = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16, 2 ** 70, -(2 ** 70),
                   0.1, 1 / 3, 1e308, True, False]
NUMBERS = st.one_of(st.integers(-(2 ** 80), 2 ** 80), st.floats(), st.sampled_from(SPECIAL_NUMBERS),
                    st.floats().map(np.float64))
SCALARS = st.one_of(NUMBERS, st.none(), st.text(max_size=6),
                    st.sampled_from(["", "é", "\n\t\"\\", "\u2028", "\U0001d11e", "\x00"]))
# equal-length rows, complex-field rows ([re, im] per coordinate) and ragged rows
ROWS = st.integers(0, 4).flatmap(
    lambda w: st.lists(st.lists(NUMBERS, min_size=w, max_size=w), max_size=6))
COMPLEX_ROWS = st.integers(1, 3).flatmap(lambda w: st.lists(
    st.lists(st.lists(NUMBERS, min_size=2, max_size=2), min_size=w, max_size=w), max_size=4))
RAGGED = st.lists(st.lists(NUMBERS, max_size=4), max_size=5)
DOCUMENTS = st.recursive(
    st.one_of(SCALARS, st.lists(NUMBERS, max_size=8), ROWS, COMPLEX_ROWS, RAGGED),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(st.text(max_size=4), inner, max_size=4),
                            st.lists(inner, max_size=3).map(tuple)),
    max_leaves=24)


def _written(doc) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        geometry.write_json(doc)
    return out.getvalue()


@settings(deadline=None, max_examples=400)
@given(DOCUMENTS)
def test_write_json_writes_the_text_of_json_dumps(doc):
    assert _written(doc) == json.dumps(doc, sort_keys=True, indent=2) + "\n"


# lists and rows of 4-12 numbers drawn from at most three values of a pool whose
# members collide (1 == 1.0 == True, 0.0 == -0.0, 2 ** 53 == 2.0 ** 53) but print
# differently: at most half their numbers are distinct, as on a lattice
COLLIDING = st.lists(st.sampled_from([0.0, -0.0, 1, 1.0, True, 0.5, 2 ** 53, 2.0 ** 53,
                                      math.nan, math.inf]), min_size=1, max_size=3)
REPEATS = COLLIDING.map(st.sampled_from).flatmap(lambda pick: st.one_of(
    st.lists(pick, min_size=4, max_size=12),
    st.integers(2, 3).flatmap(
        lambda w: st.lists(st.lists(pick, min_size=w, max_size=w), min_size=2, max_size=4))))


@settings(deadline=None, max_examples=150)
@given(REPEATS)
def test_write_json_writes_repeated_numbers_as_json_dumps(doc):
    assert _written(doc) == json.dumps(doc, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("doc", [
    {"values": [[1.5, -0.0], [math.nan, 2]], "set": "abc", "warning": None},
    {"points": [[0, 0], [1e16, 5e-324]], "edges": [[0, 1, 1e16]], "label": "é"},
    [[], []], [[1, 2], [3]], [[True, 1], [2, 3]], [[[0.5, 1.0], [2.0, -3.0]]], [(1, 2.5), (3, 4.0)],
    {"nested": {"b": [], "a": {}}}, {1: [1.0, 2.0], 2: "x"}, [math.inf], [2 ** 70, -1, 0.25],
    [1.0, 1, 1.0, 1], [0.0, -0.0, 0.0, -0.0], [[0, 0.5], [1, 0.5], [2, 0.5]],
    [-(2 ** 63), 2 ** 63], [2 ** 64 - 1, 2 ** 63], [2 ** 64, 0], [[-(2 ** 63)], [2 ** 63]],
    [[0.5, 1], [0.5, 1.0], [0.5, True], [0.5, 1]], [math.nan, 0.5, 0.5, 0.5],
])
def test_write_json_writes_files_as_json_dumps(tmp_path, doc):
    path = tmp_path / "doc.json"
    geometry.write_json(doc, str(path))
    assert path.read_text() == json.dumps(doc, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# samples and fields written and hashed from their arrays

# a finite pool of coordinates: signed zeros, the smallest subnormal, huge and
# integral floats, and lattice values that repeat, so that documents of mostly
# repeated and of mostly distinct numbers are both drawn
POOL = [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 2.0 ** 53, -(2.0 ** 53), 2.0 ** 53 + 2,
        1.0, 3.0, 1e16, 0.1, 1 / 3, 123456.789, *(k / 8 for k in range(-8, 9))]
LABELS = st.one_of(st.text(max_size=8), st.sampled_from(
    ['"', '\\"quoted\\"', "\u2028", "a\u2028b", "é", "гаскет", "\U0001d11e"]))


@st.composite
def pool_samples(draw) -> SetSample:
    n = draw(st.integers(1, 3))
    coords = st.sampled_from(POOL)
    points = draw(st.lists(st.lists(coords, min_size=n, max_size=n), min_size=1, max_size=30))
    nv = len(points)
    edges = draw(st.lists(st.tuples(st.integers(0, nv - 1), st.integers(0, nv - 1),
                                    coords.map(abs)), max_size=40))
    return SetSample(n, points, edges, draw(LABELS))


def _listed_sample(s: SetSample) -> dict:
    """A sample's document as the lists built entry by entry, the oracle."""
    return {"version": 1, "ambient_dim": s.ambient_dim, "points": s.points_array.tolist(),
            "edges": [[i, j, length] for i, j, length in s.edges], "label": s.label}


def _indented(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


@settings(deadline=None, max_examples=200)
@given(pool_samples())
def test_samples_are_written_and_hashed_as_their_lists(tmp_path_factory, s):
    import hashlib

    doc = _listed_sample(s)
    assert json.dumps(sample_to_dict(s)) == json.dumps(doc)
    path = tmp_path_factory.mktemp("doc") / "s.json"
    geometry.dump_sample(s, str(path))
    assert path.read_text() == _indented(doc)
    payload = json.dumps(doc, sort_keys=True)
    assert s.fingerprint == hashlib.sha256(payload.encode()).hexdigest()[:16]


@settings(deadline=None, max_examples=150)
@given(pool_samples(), st.data())
def test_fields_are_written_as_their_lists(tmp_path_factory, s, data):
    nv, n = s.vertex_count, s.ambient_dim
    coords = st.sampled_from(POOL)
    values = np.array(data.draw(st.lists(coords, min_size=nv, max_size=nv)))
    rows = np.array(data.draw(st.lists(st.lists(coords, min_size=n, max_size=n),
                                       min_size=nv, max_size=nv)))

    def pairs(z):
        return [[c.real, c.imag] for c in z]

    head = {"version": 1, "set": s.fingerprint}
    cases = [(ScalarField(s, values, warning="\u2028é"),
              {**head, "values": values.tolist(), "warning": "\u2028é"}),
             (ScalarField(s, values[::-1] - 1j * values), {**head, "values": pairs(
                 (values[::-1] - 1j * values).tolist())}),
             (CovectorField(s, rows), {**head, "covectors": rows.tolist()}),
             (CovectorField(s, rows * 1j - 0.0), {**head, "covectors": [
                 pairs(r) for r in (rows * 1j - 0.0).tolist()]})]
    path = tmp_path_factory.mktemp("doc") / "f.json"
    for field, doc in cases:
        assert json.dumps(field.as_dict()) == json.dumps(doc)
        dump_field(field, str(path))
        assert path.read_text() == _indented(doc)


FLOATS = st.one_of(st.sampled_from(POOL + [math.nan, -math.nan, math.inf, -math.inf]),
                   st.floats())
ARRAYS = st.one_of(
    hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=5),
               elements=FLOATS),
    hnp.arrays(np.int64, hnp.array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=5),
               elements=st.one_of(st.integers(-3, 3), st.integers(-(2 ** 63), 2 ** 63 - 1))),
    hnp.arrays(np.complex128, hnp.array_shapes(min_dims=1, max_dims=2, max_side=4),
               elements=st.builds(complex, FLOATS, FLOATS)))
ARRAY_DOCUMENTS = st.recursive(
    ARRAYS, lambda inner: st.one_of(st.lists(inner, max_size=3),
                                    st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=6)


def _array_lists(doc):
    if isinstance(doc, np.ndarray) and doc.dtype.kind == "c":
        return np.stack((doc.real, doc.imag), -1).tolist()
    if isinstance(doc, np.ndarray):
        return doc.tolist()
    if isinstance(doc, dict):
        return {key: _array_lists(v) for key, v in doc.items()}
    return [_array_lists(v) for v in doc]


@settings(deadline=None, max_examples=300)
@given(ARRAY_DOCUMENTS)
def test_write_json_writes_arrays_as_their_lists(doc):
    assert _written(doc) == _indented(_array_lists(doc))
