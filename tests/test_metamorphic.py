"""Metamorphic relations: the path-integral checks respect exact symmetries.

Scaling the points by 2^-3 while scaling A by 2^3, and reflecting x -> -x
while negating A's x component, change every product in the trapezoid rule
only by an exact power of two or sign, and every edge length not at all or
by an exact power of two.  ``path_integral``, ``verify_ftc``, ``loop_defect``
and ``reconstruct`` (values and warning) must then give the same bits.

Swapping the two coordinates of a planar sample, and the two components of
A, keeps every edge length (they are passed unchanged) and so every
shortest-path tree, and turns each dot product a0 b0 + a1 b1 into
a1 b1 + a0 b0: ``calculus._row_dots`` rounds each product once and adds
them as whole columns, and a sum of two floats does not depend on their
order, so the same four functions give the same bits.

``verify_local_to_global`` obeys its own relations.  Points times 2^-3, with
C times 8 and the radius times 2^-3, scale every chord by exactly 2^-3, so
l_glob and every violation ratio scale by exactly 8 and the witness stays.
x -> -x and swapping the two coordinates of a planar sample leave every
chord's bits (two squares added either way round), so the report is the
same.  Relabelling the vertices keeps each pair's ratio, so l_glob keeps
its bits and the violating pairs are the same pairs.

``discrete_gradient`` obeys the covariant relations.  Points and edge
lengths times 2^-3, with f unchanged, scale the edge system by exactly 2^-3
and leave its right-hand side, so every LSQR quantity is the unscaled
run's times a power of two and the covectors come out exactly 2^3 times
larger.  x -> -x negates the system's x column and so A's x component,
and nothing else (an exact zero is not negated: it stays +0).  Relabelling
is left out: the adjoint's ``np.bincount`` then adds each vertex's edge
terms in another order, which need not round the same way.  So is
swapping coordinates: LSQR's norms are BLAS dots over the flat unknowns,
whose rounding follows the order of the entries.

``verify_remainder_bound`` keeps its bits under points times 2^-3 with A
times 2^3 (each term of A(x)(y - x) is the same product, the chords scale
by 2^-3 and the oscillations by 2^3, so every remainder, bound and ratio
keeps its bits) and under x -> -x with A_x negated (the same terms and
chords).  The CSV buffers keep their bits too, but for the chords' exact
2^-3.  Relabelling keeps each ordered pair's remainder and bound, so the
violations are the same pairs and ``max_ratio`` keeps its bits; its pair
is compared only where the maximum is unique.  Swapping the two
coordinates of a planar sample, with A's components swapped, keeps the
report and the CSV buffers bit for bit: every chord and every |A(w) - A(x)|
is the root of two squares, and every A(x)(y - x) a sum of two products,
added either way round.
"""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import connected_planar_graphs, row_dots
from qcalc import geometry, metric
from qcalc.calculus import (discrete_gradient, loop_defect, path_integral, reconstruct,
                            verify_ftc, verify_remainder_bound)
from qcalc.fields import CovectorField, ScalarField
from qcalc.geometry import PolylinePath, SetSample, row_norms

SCALE = 2.0 ** -3


def scaled(sample, A):
    """Points times 2^-3 and A times 2^3."""
    edges = tuple((i, j, w * SCALE) for i, j, w in sample.edges)
    moved = SetSample(sample.ambient_dim, (sample.points_array * SCALE).tolist(), edges)
    return moved, A.covectors / SCALE


def reflected(sample, A):
    """x -> -x, and A's x component negated."""
    flip = np.ones(sample.ambient_dim)
    flip[0] = -1.0
    moved = SetSample(sample.ambient_dim, (sample.points_array * flip).tolist(), sample.edges)
    return moved, A.covectors * flip


def swapped(sample, A):
    """The two coordinates of a planar sample swapped, and A's two components."""
    moved = SetSample(2, sample.points_array[:, ::-1].tolist(), sample.edges)
    return moved, A.covectors[:, ::-1]


TRANSFORMS = {"scaled": scaled, "reflected": reflected, "swapped": swapped}


def closed_walk(sample, rng, steps):
    """A random edge walk from a random vertex, closed by a shortest path back."""
    verts = [int(rng.integers(sample.vertex_count))]
    for _ in range(steps):
        nbrs = sample.adjacency[verts[-1]]
        verts.append(nbrs[int(rng.integers(len(nbrs)))][0])
    back = metric.shortest_path(sample, verts[-1], verts[0]).vertices
    return verts + list(back[1:])


def results(sample, cov, f_values, verts, base):
    """Every number the four functions report for one sample and field."""
    A, f = CovectorField(sample, cov), ScalarField(sample, f_values)
    closed = PolylinePath.from_vertices(sample, verts)
    opened = PolylinePath.from_vertices(sample, verts[: len(verts) // 2 + 1])
    rec = reconstruct(sample, A, base, float(f_values[base]))
    return (
        repr(path_integral(A, opened)),
        repr(path_integral(A, opened, "midpoint", 3)),
        repr(verify_ftc(f, A, opened)),
        repr(loop_defect(A, closed)),
        rec.values.tobytes(),
        rec.warning,
    )


def assert_relations(sample, cov, f_values, verts, base):
    A = CovectorField(sample, cov)
    expected = results(sample, cov, f_values, verts, base)
    for name, transform in TRANSFORMS.items():
        moved, moved_cov = transform(sample, A)
        assert results(moved, moved_cov, f_values, verts, base) == expected, name


SAMPLES = {
    "gasket 5": lambda: geometry.build_gasket(5),
    "carpet 3": lambda: geometry.build_carpet(3),
    "dumbbell": lambda: geometry.build_dumbbell(1.0, 0.1, math.pi / 32),
}


@pytest.mark.parametrize("gradient", [True, False])
@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_builder_samples(name, gradient):
    sample = SAMPLES[name]()
    rng = np.random.default_rng(7)
    pts = sample.points_array
    if gradient:  # f = sin 3x + xy and its gradient; only the gasket warns
        f_values = np.sin(3 * pts[:, 0]) + pts[:, 0] * pts[:, 1]
        cov = np.c_[3 * np.cos(3 * pts[:, 0]) + pts[:, 1], pts[:, 0]]
    else:  # a random field, far from a gradient
        f_values = rng.normal(size=sample.vertex_count)
        cov = rng.normal(size=pts.shape)
    assert_relations(sample, cov, f_values, closed_walk(sample, rng, 30), 0)


@settings(max_examples=50, deadline=None)
@given(graph=connected_planar_graphs(), complex_field=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_random_graphs(graph, complex_field, seed):
    sample, f_values, _ = graph
    rng = np.random.default_rng(seed)
    cov = rng.normal(size=(sample.vertex_count, 2))
    if complex_field:
        cov = cov + 1j * rng.normal(size=cov.shape)
    verts = closed_walk(sample, rng, int(rng.integers(1, 2 * sample.vertex_count)))
    assert_relations(sample, cov, f_values, verts, int(rng.integers(sample.vertex_count)))


# ---------------------------------------------------------------------------
# verify_local_to_global


def moved_sample(sample, pts, edges=None):
    return SetSample(sample.ambient_dim, pts.tolist(), sample.edges if edges is None else edges)


def assert_local_to_global_relations(sample, vals, C):
    f = ScalarField(sample, vals)
    radius = 2.0 * sample.max_edge_length
    rep = metric.verify_local_to_global(sample, f, radius, C, 2.0)
    pts = sample.points_array
    # points * 2^-3, C * 8, radius * 2^-3: ratios * 8, the same pairs
    edges = tuple((i, j, w * SCALE) for i, j, w in sample.edges)
    small = moved_sample(sample, pts * SCALE, edges)
    got = metric.verify_local_to_global(small, ScalarField(small, vals), radius * SCALE,
                                        C / SCALE, 2.0)
    assert got.l_glob == rep.l_glob / SCALE and got.witness_pair == rep.witness_pair
    assert got.local_violations == tuple((i, j, r / SCALE) for i, j, r in rep.local_violations)
    # x -> -x, and the two coordinates swapped: the same report
    for moved_pts in (pts * [-1.0, 1.0], pts[:, ::-1]):
        moved = moved_sample(sample, moved_pts)
        assert metric.verify_local_to_global(moved, ScalarField(moved, vals), radius, C,
                                             2.0) == rep
    # a random relabelling: l_glob's bits and the set of violating pairs
    perm = np.random.default_rng(sample.vertex_count).permutation(sample.vertex_count)
    new_of = np.argsort(perm)
    edges = tuple((int(new_of[i]), int(new_of[j]), w) for i, j, w in sample.edges)
    relabelled = moved_sample(sample, pts[perm], edges)
    got = metric.verify_local_to_global(relabelled, ScalarField(relabelled, vals[perm]),
                                        radius, C, 2.0)
    assert got.l_glob == rep.l_glob
    assert {(min(perm[i], perm[j]), max(perm[i], perm[j]), r)
            for i, j, r in got.local_violations} == set(rep.local_violations)
    i, j = perm[list(got.witness_pair)]
    if rep.l_glob > 0:
        ratio = abs(vals[j] - vals[i]) / row_norms(pts[[j]] - pts[i])[0]
        assert ratio == rep.l_glob
    return rep


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_local_to_global_relations_on_builder_samples(name):
    sample = SAMPLES[name]()
    pts = sample.points_array
    # a smooth field, with C small enough to give violations, and a random one
    smooth = np.sin(3 * pts[:, 0]) + pts[:, 0] * pts[:, 1]
    assert assert_local_to_global_relations(sample, smooth, 1.5).local_violations
    vals = np.random.default_rng(3).normal(size=sample.vertex_count)
    assert assert_local_to_global_relations(sample, vals, 5.0).local_violations


@settings(max_examples=50, deadline=None)
@given(graph=connected_planar_graphs(), C=st.sampled_from([0.0, 1.0, 4.0]))
def test_local_to_global_relations_on_random_graphs(graph, C):
    sample, f_values, _ = graph
    assert_local_to_global_relations(sample, f_values, C)


# ---------------------------------------------------------------------------
# discrete_gradient


def assert_gradient_relations(sample, f_values):
    A = discrete_gradient(sample, ScalarField(sample, f_values))
    for name, transform in (("scaled", scaled), ("reflected", reflected)):
        # the transforms map A covariantly, so they give the expected covectors
        moved, expected = transform(sample, A)
        got = discrete_gradient(moved, ScalarField(moved, f_values)).covectors
        # bit for bit once zeros lose their sign: the adjoint's sums start at
        # +0, so an A_x that is exactly 0 stays +0 under x -> -x
        assert (got + 0.0).tobytes() == (expected + 0.0).tobytes(), name
    return A


GRADIENT_SAMPLES = dict(SAMPLES, helix=lambda: geometry.build_polyline(
    [(math.cos(t / 5), math.sin(t / 5), t / 20) for t in range(80)]))


@pytest.mark.parametrize("name", sorted(GRADIENT_SAMPLES))
def test_discrete_gradient_relations_on_builder_samples(name):
    sample = GRADIENT_SAMPLES[name]()
    x, y = sample.points_array[:, 0], sample.points_array[:, 1]
    # an inconsistent edge system on the gasket, where the fit is least squares
    A = assert_gradient_relations(sample, np.exp(x) * np.cos(3 * y) + x * y)
    assert np.any(A.covectors)


@settings(max_examples=50, deadline=None)
@given(graph=connected_planar_graphs(), complex_field=st.booleans())
def test_discrete_gradient_relations_on_random_graphs(graph, complex_field):
    sample, f_values, _ = graph
    if complex_field:
        f_values = f_values + 1j * f_values[::-1]
    assert_gradient_relations(sample, f_values)


# ---------------------------------------------------------------------------
# verify_remainder_bound


def remainder_ties(sample, vals, cov, k, top):
    """How many ordered pairs have remainder ratio ``top``, by the scan's
    float operations row by row."""
    pts, ties = sample.points_array, 0
    for x in range(sample.vertex_count):
        diff = pts - pts[x]
        d = row_norms(diff)
        order = np.argsort(d)
        prefix = np.maximum.accumulate(row_norms(cov - cov[x])[order])
        pos = np.searchsorted(d[order], k * d, side="right") - 1
        rhs = k * d * prefix[np.maximum(pos, 0)]
        lhs = np.abs(vals - vals[x] - row_dots(diff, cov[x]))
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(rhs > 0, lhs / rhs, np.where(lhs > 0, np.inf, 0.0))
        ratio[x] = 0.0
        ties += int(np.count_nonzero(ratio == top))
    return ties


def remainder(sample, vals, cov, k):
    return verify_remainder_bound(ScalarField(sample, vals), CovectorField(sample, cov), sample,
                                  k=k)


def buffers(rep):
    return [b.tobytes() for b in (rep.pair_remainder, rep.pair_bound, rep.pair_index)]


# carpet 3 holds too, but takes 1.2 s
REMAINDER_SAMPLES = {"gasket 5": SAMPLES["gasket 5"], "carpet 2": lambda: geometry.build_carpet(2)}


@pytest.mark.parametrize("name", sorted(REMAINDER_SAMPLES))
def test_remainder_relations_on_builder_samples(name):
    sample = REMAINDER_SAMPLES[name]()
    pts = sample.points_array
    x, y = pts.T
    # f = sin 3x + xy with its gradient: k = 2.3 is admissible, 0.6 is not
    vals, cov = np.sin(3 * x) + x * y, np.c_[3 * np.cos(3 * x) + y, x]
    A = CovectorField(sample, cov)
    for k in (2.3, 0.6):
        rep = remainder(sample, vals, cov, k)
        assert rep.passed == (k > 1)
        for transform in (scaled, reflected):
            moved, moved_cov = transform(sample, A)
            got = remainder(moved, vals, moved_cov, k)
            # remainders and bounds are >= 0 and finite here, so == is bitwise
            assert got == rep and got.max_ratio.hex() == rep.max_ratio.hex(), transform.__name__
            assert buffers(got) == buffers(rep), transform.__name__
            scale = 1.0 if transform is reflected else SCALE
            assert got.pair_dist.tobytes() == (rep.pair_dist * scale).tobytes()
        # a random relabelling: vertex v of the relabelled sample is perm[v]
        perm = np.random.default_rng(sample.vertex_count).permutation(sample.vertex_count)
        new_of = np.argsort(perm)
        edges = tuple((int(new_of[i]), int(new_of[j]), w) for i, j, w in sample.edges)
        relabelled = moved_sample(sample, pts[perm], edges)
        got = remainder(relabelled, vals[perm], cov[perm], k)
        assert got.max_ratio.hex() == rep.max_ratio.hex()
        assert sorted((int(perm[i]), int(perm[j]), lhs, rhs)
                      for i, j, lhs, rhs in got.violations) == list(rep.violations)
        # the pairs may differ only where the maximum is tied
        if tuple(int(v) for v in perm[list(got.max_ratio_pair)]) != rep.max_ratio_pair:
            assert remainder_ties(sample, vals, cov, k, rep.max_ratio) > 1


def assert_remainder_swap(sample, vals, cov, k):
    """The report and the CSV buffers keep their bits under swapped coordinates."""
    rep = remainder(sample, vals, cov, k)
    moved, moved_cov = swapped(sample, CovectorField(sample, cov))
    got = remainder(moved, vals, moved_cov, k)
    assert got == rep and got.max_ratio.hex() == rep.max_ratio.hex()
    assert buffers(got) == buffers(rep)
    assert got.pair_dist.tobytes() == rep.pair_dist.tobytes()
    return rep


@pytest.mark.parametrize("name", ["gasket 5", "carpet 3"])
def test_remainder_swap_relation_on_builder_samples(name):
    sample = SAMPLES[name]()
    x, y = sample.points_array.T
    vals, cov = np.sin(3 * x) + x * y, np.c_[3 * np.cos(3 * x) + y, x]
    for k in (2.3, 0.6):
        assert assert_remainder_swap(sample, vals, cov, k).passed == (k > 1)


@settings(max_examples=50, deadline=None)
@given(graph=connected_planar_graphs(), complex_field=st.booleans(),
       k=st.sampled_from([2.3, 0.6]), seed=st.integers(0, 2**32 - 1))
def test_remainder_swap_relation_on_random_graphs(graph, complex_field, k, seed):
    sample, f_values, _ = graph
    cov = np.random.default_rng(seed).normal(size=(sample.vertex_count, 2))
    if complex_field:
        f_values, cov = f_values + 1j * f_values[::-1], cov + 1j * cov[::-1]
    assert_remainder_swap(sample, f_values, cov, k)
