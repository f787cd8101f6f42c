"""The matrix-free discrete gradient against a dense least-squares oracle.

``dense_system`` builds the ne x (nv n) trapezoid edge system explicitly, and
``np.linalg.lstsq(rcond=None)`` gives its minimum-norm least-squares
solution.  ``discrete_gradient`` must return the same covectors and satisfy
the normal equations D^T (D x - b) = 0.
"""
from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcalc import calculus
from qcalc.calculus import discrete_gradient, reconstruct
from qcalc.errors import QcalcError
from qcalc.fields import ScalarField
from qcalc.geometry import (
    SetSample,
    build_carpet,
    build_dumbbell,
    build_gasket,
    build_polyline,
)

from conftest import circle_points


def dense_system(sample, values):
    """The edge system as a dense matrix D and right-hand side b."""
    pts = sample.points_array
    nv, n = sample.vertex_count, sample.ambient_dim
    D = np.zeros((sample.edge_count, nv * n))
    b = np.zeros(sample.edge_count, dtype=values.dtype)
    for row, (u, v, _) in enumerate(sample.edges):
        half = 0.5 * (pts[v] - pts[u])
        D[row, u * n : u * n + n] = half
        D[row, v * n : v * n + n] = half
        b[row] = values[v] - values[u]
    return D, b


def dense_oracle(sample, values):
    D, b = dense_system(sample, values)
    x = np.linalg.lstsq(D, b.real, rcond=None)[0]
    if np.iscomplexobj(b):
        x = x + 1j * np.linalg.lstsq(D, b.imag, rcond=None)[0]
    return x.reshape(sample.vertex_count, sample.ambient_dim)


def assert_matches_oracle(sample, f):
    A = discrete_gradient(sample, f)
    assert A.covectors.shape == (sample.vertex_count, sample.ambient_dim)
    np.testing.assert_allclose(A.covectors, dense_oracle(sample, f.values), rtol=0, atol=1e-10)
    D, b = dense_system(sample, f.values)
    x = A.covectors.ravel()
    for part in (np.real, np.imag):
        normal = np.linalg.norm(D.T @ (D @ part(x) - part(b)))
        assert normal <= 1e-12 * max(1.0, float(np.linalg.norm(part(b))))
    return A


SAMPLES = {
    "gasket3": lambda: build_gasket(3),
    "gasket4": lambda: build_gasket(4),
    "carpet2": lambda: build_carpet(2),
    "128-gon": lambda: build_polyline(circle_points(128), closed=True),
    "polyline-1d": lambda: build_polyline([(i / 40 + 0.01 * math.sin(i),) for i in range(41)]),
    "helix-3d": lambda: build_polyline(
        [(math.cos(t / 5), math.sin(t / 5), t / 20) for t in range(80)]),
    "dumbbell": lambda: build_dumbbell(1.0, 0.1, math.pi / 32),
}


def mixed(p):
    # mixes the coordinates, so the gasket systems are inconsistent for it
    return math.exp(p[0]) * math.cos(3 * p[-1]) + p[0] * p[-1]


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_real_field_matches_dense_oracle(name):
    sample = SAMPLES[name]()
    assert_matches_oracle(sample, ScalarField.from_function(sample, mixed))


@pytest.mark.parametrize("name", ["gasket4", "128-gon", "helix-3d"])
def test_random_field_matches_dense_oracle(name):
    sample = SAMPLES[name]()
    rng = np.random.default_rng(17)
    assert_matches_oracle(sample, ScalarField(sample, rng.normal(size=sample.vertex_count)))


@pytest.mark.parametrize("name", ["gasket3", "carpet2", "dumbbell"])
def test_complex_field_matches_dense_oracle(name):
    sample = SAMPLES[name]()
    f = ScalarField.from_function(sample, lambda p: complex(p[0], p[1]) ** 2 + mixed(p))
    A = assert_matches_oracle(sample, f)
    assert A.is_complex


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_constant_field_gives_exactly_zero_covectors(name):
    sample = SAMPLES[name]()
    A = discrete_gradient(sample, ScalarField(sample, np.full(sample.vertex_count, 2.5)))
    assert not np.any(A.covectors)


def test_sample_without_edges_gives_zero_covectors():
    sample = SetSample(2, ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)), ())
    f = ScalarField(sample, np.array([1.0, -2.0, 3.0]))
    A = discrete_gradient(sample, f)
    assert A.covectors.shape == (3, 2) and not np.any(A.covectors)


def test_iteration_cap_raises_instead_of_returning(monkeypatch):
    # gasket 4 needs far more than a single LSQR step
    sample = build_gasket(4)
    f = ScalarField.from_function(sample, mixed)
    monkeypatch.setattr(calculus, "_LSQR_ITERS_PER_UNKNOWN", 1 / (2 * sample.vertex_count))
    with pytest.raises(QcalcError, match=r"nv=123, ne=243; residual reached \d"):
        discrete_gradient(sample, f)


@st.composite
def connected_planar_graphs(draw):
    """Distinct points in the plane on a random spanning tree, plus chords.

    Chords are added unless the drawn ``tree`` flag is set.
    """
    nv = draw(st.integers(2, 14))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    # integer grid coordinates keep every pair of points well apart
    cells = rng.choice(400, size=nv, replace=False)
    pts = [(float(c % 20) / 20, float(c // 20) / 20) for c in cells]
    pairs = {(int(rng.integers(j)), j) for j in range(1, nv)}
    tree = draw(st.booleans())
    if not tree:
        for _ in range(draw(st.integers(0, 2 * nv))):
            i, j = sorted(int(a) for a in rng.choice(nv, size=2, replace=False))
            pairs.add((i, j))
    edges = tuple((i, j, math.dist(pts[i], pts[j])) for i, j in sorted(pairs))
    return SetSample(2, tuple(pts), edges, label="random planar"), rng.normal(size=nv), tree


@settings(deadline=None, max_examples=60)
@given(connected_planar_graphs())
def test_random_planar_graphs_match_dense_oracle(case):
    sample, values, tree = case
    f = ScalarField(sample, values)
    A = assert_matches_oracle(sample, f)
    if tree:
        # a tree has one equation per edge and enough unknowns to meet them
        # all, so integrating the lifted field gives f back
        rec = reconstruct(sample, A, 0, float(values[0]))
        assert rec.warning is None
        np.testing.assert_allclose(rec.values, values, rtol=0, atol=1e-9)


def test_gasket6_call_allocates_no_dense_matrix():
    sample = build_gasket(6)
    f = ScalarField.from_function(sample, mixed)
    tracemalloc.start()
    try:
        discrete_gradient(sample, f)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the dense 2187 x 2190 design matrix alone took 38 MB
    assert peak < 2 * 1024 * 1024
