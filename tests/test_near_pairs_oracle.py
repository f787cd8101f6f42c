"""The sort-and-sweep duplicate scan against the two scans it replaced.

``duplicate_pairs_reference`` is the per-row loop that ``validate`` and
``build_polyline`` ran, and ``first_coincident_pair_reference`` the lexsort
that the loader ran, both copied verbatim.  ``geometry._near_pairs`` must
return the loop's pair list exactly.  The loader reads the same sweep order
(``geometry._sweep_order``), in which equal points are neighbours: it must
refuse the pair the lexsort found, and load every document in which it found
none.
"""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcalc.errors import FormatError
from qcalc.geometry import (
    DUPLICATE_TOL,
    _near_pairs,
    _sweep_order,
    build_carpet,
    build_dumbbell,
    build_gasket,
    build_lipschitz_graph,
    build_polyline,
    row_norms,
    sample_from_dict,
    validate,
)

from conftest import circle_points

BIGGEST = np.finfo(float).max


def duplicate_pairs_reference(pts: np.ndarray) -> list[tuple[int, int]]:
    """The index pairs (i < j), in order, of points at most ``DUPLICATE_TOL`` apart;
    a gap too large for a double overflows to inf, which is no duplicate."""
    pairs = []
    with np.errstate(over="ignore"):
        for i in range(len(pts) - 1):
            near = np.flatnonzero(row_norms(pts[i + 1 :] - pts[i]) <= DUPLICATE_TOL)
            pairs.extend((i, i + 1 + off) for off in near.tolist())
    return pairs


def first_coincident_pair_reference(pts: np.ndarray) -> tuple[int, int] | None:
    """Smallest index pair (i < j) of exactly equal rows, or None.

    One lexicographic sort puts equal rows next to each other (stable, so in
    index order), so the scan is O(nv log nv).  Rows are compared with
    ``==``, under which -0.0 and 0.0 coincide.
    """
    order = np.lexsort(pts.T)
    same = np.all(pts[order[1:]] == pts[order[:-1]], axis=1)
    if not same.any():
        return None
    return min(zip(order[:-1][same].tolist(), order[1:][same].tolist()))


def load_points(pts: np.ndarray):
    """Load a document of the given points and no edges."""
    doc = {"version": 1, "ambient_dim": pts.shape[1], "label": "",
           "points": pts.tolist(), "edges": []}
    return sample_from_dict(doc, source="points.json")


@st.composite
def point_sets(draw) -> np.ndarray:
    """1-5 dimensional rows of one magnitude from 1e-13 to the largest double,
    with shared coordinates, signed zeros, coordinates at the overflow edge,
    repeated rows and planted rows 1e-16 to 1e-12 from a drawn one, shuffled."""
    dim = draw(st.integers(1, 5))
    scale = draw(st.sampled_from([1e-13, 1e-12, 3e-7, 1.0, 1e3, 1e150, 1e300, BIGGEST]))
    coordinate = st.one_of(
        st.integers(-4, 4).map(lambda m: m * (scale / 4)),
        st.floats(-1, 1).map(lambda v: v * scale),
        st.sampled_from([0.0, -0.0, 1.7e308, -1.7e308, BIGGEST, -BIGGEST]),
    )
    rows = draw(st.lists(st.lists(coordinate, min_size=dim, max_size=dim),
                         min_size=1, max_size=30))
    plants = st.tuples(st.integers(0, len(rows) - 1), st.floats(1e-16, 1e-12),
                       st.lists(st.tuples(st.integers(0, dim - 1), st.sampled_from([1, -1])),
                                max_size=dim))
    for src, gap, moves in draw(st.lists(plants, max_size=6)):
        row = list(rows[src])
        for axis, sign in moves:
            row[axis] += sign * gap
        rows.append(row)
    order = draw(st.permutations(range(len(rows))))
    return np.array([rows[i] for i in order], dtype=float).reshape(len(rows), dim)


@settings(deadline=None, max_examples=400)
@given(point_sets())
def test_near_pairs_equal_the_row_loop_and_the_loader_the_lexsort(pts):
    _, keys, window = _sweep_order(pts)
    assert np.isfinite(keys).all() and math.isfinite(window)
    assert _near_pairs(pts) == duplicate_pairs_reference(pts)
    pair = first_coincident_pair_reference(pts)
    if pair is None:
        assert load_points(pts).vertex_count == len(pts)
    else:
        with pytest.raises(FormatError, match=f"points {pair[0]} and {pair[1]} coincide$"):
            load_points(pts)


BUILT = {
    **{f"gasket{m}": (lambda m=m: build_gasket(m)) for m in range(7)},
    **{f"carpet{m}": (lambda m=m: build_carpet(m)) for m in range(5)},
    "graph": lambda: build_lipschitz_graph([1.0, -0.5, 2.0], 0.01, (0.0, 3.0)),
    "dumbbell": lambda: build_dumbbell(1.0, 0.1, math.pi / 64),
    "circle": lambda: build_polyline(circle_points(512), closed=True),
}


@pytest.mark.parametrize("name", sorted(BUILT))
def test_builder_samples_have_no_near_pairs(name):
    sample = BUILT[name]()
    pts = sample.points_array
    assert _near_pairs(pts) == duplicate_pairs_reference(pts) == []
    assert first_coincident_pair_reference(pts) is None
    assert not validate(sample).violations


@pytest.mark.parametrize("name", ["gasket4", "carpet3", "dumbbell"])
def test_points_planted_next_to_a_builder_sample(name):
    pts = BUILT[name]().points_array
    rng = np.random.default_rng(15)
    src = rng.choice(len(pts), 12, replace=False)
    gaps = rng.uniform(-1e-12, 1e-12, (12, pts.shape[1])) / math.sqrt(pts.shape[1])
    near = np.vstack([pts, pts[src] + gaps, pts[src[:3]]])
    near = near[rng.permutation(len(near))]
    pairs = _near_pairs(near)
    assert len(pairs) >= 15
    assert pairs == duplicate_pairs_reference(near)


def key_direction(dim: int) -> np.ndarray:
    """The sweep's unit vector: the keys of 0.5 e_1 .. 0.5 e_d, which are not scaled."""
    order, keys, _ = _sweep_order(np.eye(dim) / 2)
    unit = np.empty(dim)
    unit[order] = 2 * keys
    return unit


@pytest.mark.parametrize("dim", range(1, 6))
@pytest.mark.parametrize("scale", [1.0, 100.0, 1e3])
def test_pairs_along_the_key_direction_at_the_tolerance(scale, dim):
    # the keys of such a pair differ by its distance, the most the window
    # must hold; near 1e3 the keys' rounding is a tenth of the window
    rng = np.random.default_rng(dim)
    base = rng.uniform(-scale, scale, (40, dim))
    gap = DUPLICATE_TOL * rng.uniform(0.97, 1.0, (40, 1))
    pts = np.vstack([base, base + gap * key_direction(dim)])
    pairs = _near_pairs(pts)
    assert len(pairs) >= 10
    assert pairs == duplicate_pairs_reference(pts)


@pytest.mark.parametrize("dim", range(1, 6))
@pytest.mark.parametrize("where", ["overflow-edge", "tiny"])
def test_every_key_in_one_window(where, dim):
    # at the overflow edge unscaled keys would be inf; rows a few ulps apart
    # (2^971 each) are far apart, and the repeats coincide.  Tiny rows are all
    # within 1e-12 of each other.
    rng = np.random.default_rng(dim)
    if where == "overflow-edge":
        pts = 1.7e308 + rng.integers(-3, 4, (12, dim)) * 2.0 ** 971
        pts = np.vstack([pts, pts[:3]])
    else:
        pts = rng.uniform(-1e-13, 1e-13, (12, dim))
    _, keys, window = _sweep_order(pts)
    assert np.isfinite(keys).all() and math.isfinite(window)
    assert np.ptp(keys) <= window
    assert _near_pairs(pts) == duplicate_pairs_reference(pts)
    if where == "tiny":
        assert len(_near_pairs(pts)) == 12 * 11 // 2


def test_rows_with_non_finite_coordinates_are_near_no_other():
    nan, inf = math.nan, math.inf
    pts = np.array([[0.0, 0.0], [nan, 0.0], [0.0, -0.0], [inf, 1.0], [inf, 1.0],
                    [1e-13, 0.0], [nan, nan]])
    with np.errstate(invalid="ignore"):
        want = duplicate_pairs_reference(pts)
    assert want == [(0, 2), (0, 5), (2, 5)]
    assert _near_pairs(pts) == want


def test_loader_names_the_first_equal_pair_among_tied_keys():
    # rows a few ulps apart at the overflow edge share keys; equal rows are
    # found among them however the ties interleave
    rng = np.random.default_rng(7)
    pts = 1.7e308 + rng.integers(-1, 2, (40, 2)) * 2.0 ** 971
    pts = pts[rng.permutation(len(pts))]
    _, keys, _ = _sweep_order(pts)
    assert (keys[1:] == keys[:-1]).sum() > 20
    pair = first_coincident_pair_reference(pts)
    assert pair is not None
    with pytest.raises(FormatError, match=f"points {pair[0]} and {pair[1]} coincide$"):
        load_points(pts)


def test_loader_does_not_list_the_pairs_of_a_cluster():
    # 5,000 copies of one point are 12.5 million equal pairs, and 5,000
    # distinct points within 1e-12 as many near pairs: the loader lists none
    with pytest.raises(FormatError, match="points 0 and 1 coincide$"):
        load_points(np.full((5000, 2), 0.5))
    steps = np.arange(5000) * 2.0 ** -52
    assert load_points(np.column_stack([1.0 + steps, 1.0 - steps / 2])).vertex_count == 5000
