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

from conftest import circle_points, connected_planar_graphs


def dense_system(sample, values):
    """The edge system as a dense matrix D and right-hand side b."""
    pts = sample.points_array
    nv, n = sample.vertex_count, sample.ambient_dim
    D = np.zeros((sample.edge_count, nv * n))
    b = np.zeros(sample.edge_count, dtype=values.dtype)
    for row, (u, v) in enumerate(sample.edge_ends.T.tolist()):
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


def assert_matches_oracle(sample, f, atol=1e-10, normal_tol=None):
    """Covectors within ``atol`` of lstsq's, and |D^T (D x - b)| within
    ``normal_tol`` (default 1e-12 max(1, |b|)) for the real and imaginary parts."""
    A = discrete_gradient(sample, f)
    assert A.covectors.shape == (sample.vertex_count, sample.ambient_dim)
    np.testing.assert_allclose(A.covectors, dense_oracle(sample, f.values), rtol=0, atol=atol)
    D, b = dense_system(sample, f.values)
    x = A.covectors.ravel()
    for part in (np.real, np.imag):
        normal = np.linalg.norm(D.T @ (D @ part(x) - part(b)))
        limit = 1e-12 * max(1.0, float(np.linalg.norm(part(b))))
        assert normal <= (limit if normal_tol is None else normal_tol)
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


def solver_tolerances(sample, values) -> tuple[float, float]:
    """Tolerances for LSQR against lstsq, from the solvers' backward errors.

    Each solver returns the exact minimum-norm solution of a nearby problem
    (D + E) x = b + g with |E| <= e |D| and |g| <= e |b|, and the two errors
    add, so e is the sum of their backward errors:
    * LSQR stops once |D^T r| <= tol |D|_F |r| or |r| <= tol (|b| + |D|_F |x|),
      with tol = ``calculus._LSQR_TOL``: a backward error of tol |D|_F / |D|;
    * LAPACK's SVD least squares behind ``lstsq`` is backward stable, taken as
      max(ne, nv n) eps, the scale of its own rank cutoff.

    Covectors: with the rank of D unchanged, to first order (Wedin's
    expansion of the pseudo-inverse)

        |dx| <= e (2 k |x| + k |b| / |D| + k^2 |r| / |D|)
             <= 3 e (k |x| + k^2 |r| / |D|),

    with k = cond(D) over the nonzero singular values, r = b - D x and
    |b| <= |D| |x| + |r|.  The constant is 3.

    Normal equations: either stopping test gives
    |D^T r| <= tol |D|_F (|b| + |D|_F |x|); the same bound with
    tol + max(ne, nv n) eps covers rounding in forming D^T (D x - b).
    """
    D, b = dense_system(sample, values)
    x = np.linalg.lstsq(D, b, rcond=None)[0]
    sv = np.linalg.svd(D, compute_uv=False)
    eps = np.finfo(float).eps
    rank = int(np.sum(sv > max(D.shape) * eps * sv[0]))
    k = sv[0] / sv[rank - 1]
    frobenius = np.linalg.norm(D)
    e = calculus._LSQR_TOL * frobenius / sv[0] + max(D.shape) * eps
    r = np.linalg.norm(b - D @ x)
    atol = 3 * e * (k * np.linalg.norm(x) + k * k * r / sv[0])
    normal_tol = ((calculus._LSQR_TOL + max(D.shape) * eps) * frobenius
                  * (np.linalg.norm(b) + frobenius * np.linalg.norm(x)))
    return atol, normal_tol


@settings(deadline=None, max_examples=60)
@given(connected_planar_graphs())
def test_random_planar_graphs_match_dense_oracle(case):
    # random graphs reach cond(D) ~ 3e3 with |x| ~ 2e3, where both solvers
    # are up to 5e-10 from a 60-digit solution, so fixed tolerances cannot
    # hold and both follow the solvers' error bounds instead
    sample, values, tree = case
    f = ScalarField(sample, values)
    atol, normal_tol = solver_tolerances(sample, values)
    A = assert_matches_oracle(sample, f, atol=atol, normal_tol=normal_tol)
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
