from __future__ import annotations

import math

import pytest

from qcalc import geometry
from qcalc.errors import BuildError, FormatError, PathError, ResourceLimitError
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
    with pytest.raises(BuildError, match="duplicate"):
        build_polyline([(0, 0), (1, 0), (0, 0.5), (0, 0)])


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


def test_reader_accepts_every_builder_sample():
    for s in (build_gasket(4), build_polyline(circle_points(64), closed=True), build_carpet(2),
              build_dumbbell(1.0, 0.1, math.pi / 16),
              build_lipschitz_graph([0.5, -2.0], 0.1, (0.0, 1.0))):
        assert sample_from_dict(sample_to_dict(s)) == s


def test_load_sample_invalid_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(FormatError) as err:
        geometry.load_sample(str(path))
    assert str(path) in str(err.value)
