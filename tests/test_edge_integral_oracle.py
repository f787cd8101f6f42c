"""The whole-array edge integrals against the loops they replaced.

``path_integral_reference`` and ``reconstruct_reference`` are, verbatim,
the per-segment loop of ``path_integral`` (both rules) and the per-vertex
tree fill and per-edge defect loop of ``reconstruct`` from before
``calculus._edge_integrals``.  Integrals, reconstructed values and
warnings must agree bit for bit, for real and complex fields.

The old tree fill visits vertices in (distance, index) order, which reads a
predecessor's value before it is set when a vertex ties its predecessor's
float distance; every input here is checked to have no such tie.
"""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import circle_points, connected_planar_graphs
from qcalc import geometry
from qcalc.calculus import _fsum, path_integral, reconstruct
from qcalc.errors import BuildError, PathError
from qcalc.fields import CovectorField, ScalarField, require_same_sample
from qcalc.geometry import PolylinePath
from qcalc.metric import predecessor_array


def path_integral_reference(A, path, rule="trapezoid", subdivisions=1):
    sample = require_same_sample(A, path)
    if rule not in ("trapezoid", "midpoint"):
        raise BuildError(f"unknown quadrature rule {rule!r}")
    if subdivisions < 1:
        raise BuildError("subdivisions must be at least 1")
    pts = sample.points_array
    cov = A.covectors
    parts = []
    for u, v in path.segments():
        dp = pts[v] - pts[u]
        if rule == "trapezoid":
            mid = 0.5 * (cov[u] + cov[v])
            parts.append(complex(mid @ dp) if A.is_complex else float(mid @ dp))
        else:
            acc = []
            for q in range(subdivisions):
                # piece subdivisions - 1 - q of the reversed segment gets these
                # two weights swapped, as the same floats: its value is negated
                a_mid = ((subdivisions - q - 0.5) / subdivisions * cov[u]
                         + (q + 0.5) / subdivisions * cov[v])
                val = a_mid @ (dp / subdivisions)
                acc.append(complex(val) if A.is_complex else float(val))
            parts.append(_fsum(acc))
    return _fsum(parts)


def _trapezoid_edge(pts, cov, u, v):
    return 0.5 * (cov[u] + cov[v]) @ (pts[v] - pts[u])


def reconstruct_reference(sample, A, basepoint, base_value=0.0, defect_tol=1e-9):
    require_same_sample(sample, A)
    if not np.isfinite(base_value):
        raise BuildError(f"base_value must be finite, got {base_value!r}")
    dist, pred = predecessor_array(sample, basepoint)
    if not np.all(np.isfinite(dist)):
        raise PathError("sample must be connected for reconstruction")
    pts = sample.points_array
    cov = A.covectors
    values = np.zeros(sample.vertex_count, dtype=cov.dtype)
    values[basepoint] = base_value
    order = np.lexsort((np.arange(sample.vertex_count), dist))
    for v in order:
        if v == basepoint:
            continue
        u = pred[v]
        values[v] = values[u] + _trapezoid_edge(pts, cov, u, v)
    ends_i, ends_j = sample.edge_ends
    off_tree = (pred[ends_j] != ends_i) & (pred[ends_i] != ends_j)
    worst = 0.0
    for i, j in zip(ends_i[off_tree].tolist(), ends_j[off_tree].tolist()):
        defect = abs(values[i] + _trapezoid_edge(pts, cov, i, j) - values[j])
        worst = max(worst, float(defect))
    warning = None
    if worst > defect_tol:
        warning = f"non-integrable: max loop defect {worst:.6e} exceeds {defect_tol:.1e}"
    return ScalarField(sample, values, warning=warning)


SAMPLES = {
    "gasket 4": lambda: geometry.build_gasket(4),
    "carpet 3": lambda: geometry.build_carpet(3),
    "dumbbell": lambda: geometry.build_dumbbell(1.0, 0.1, math.pi / 32),
    "circle": lambda: geometry.build_polyline(circle_points(64), closed=True),
    "lipschitz": lambda: geometry.build_lipschitz_graph([1.0, -0.5, 2.0], 0.05, (0.0, 3.0)),
    "helix": lambda: geometry.build_polyline(
        [(math.cos(t), math.sin(t), 0.05 * t) for t in np.arange(81) * (2 * math.pi / 40)]),
}


def random_field(sample, rng, complex_field):
    cov = rng.normal(size=(sample.vertex_count, sample.ambient_dim))
    if complex_field:
        cov = cov + 1j * rng.normal(size=cov.shape)
    return CovectorField(sample, cov)


def random_walk(sample, rng, steps):
    verts = [int(rng.integers(sample.vertex_count))]
    for _ in range(steps):
        nbrs = sample.adjacency[verts[-1]]
        verts.append(nbrs[int(rng.integers(len(nbrs)))][0])
    return PolylinePath.from_vertices(sample, verts)


def assert_same_integrals(A, path):
    for rule, subdivisions in (("trapezoid", 1), ("midpoint", 1), ("midpoint", 4)):
        new = path_integral(A, path, rule, subdivisions)
        old = path_integral_reference(A, path, rule, subdivisions)
        assert (type(new), repr(new)) == (type(old), repr(old)), (rule, subdivisions)


def assert_same_reconstruction(sample, A, base, value):
    dist, pred = predecessor_array(sample, base)
    others = np.arange(sample.vertex_count) != base
    assert np.all(dist[pred[others]] < dist[others])  # no vertex ties its predecessor
    new = reconstruct(sample, A, base, value)
    old = reconstruct_reference(sample, A, base, value)
    assert new.values.dtype == old.values.dtype
    assert new.values.tobytes() == old.values.tobytes()
    assert new.warning == old.warning


@pytest.mark.parametrize("complex_field", [False, True])
@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_builder_samples_equal_the_loops(name, complex_field):
    sample = SAMPLES[name]()
    rng = np.random.default_rng(sorted(SAMPLES).index(name))
    A = random_field(sample, rng, complex_field)
    for steps in (0, 1, 40):
        assert_same_integrals(A, random_walk(sample, rng, steps))
    for base in (0, sample.vertex_count - 1):
        assert_same_reconstruction(sample, A, base, float(rng.normal()))
    # the gradient of |x|^2, whose loop defects are rounding or trapezoid error
    grad = CovectorField(sample, sample.points_array * 2.0)
    assert_same_reconstruction(sample, grad, 0, 0.0)


@settings(max_examples=60, deadline=None)
@given(graph=connected_planar_graphs(), complex_field=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_random_graphs_equal_the_loops(graph, complex_field, seed):
    sample, _, _ = graph
    rng = np.random.default_rng(seed)
    A = random_field(sample, rng, complex_field)
    assert_same_integrals(A, random_walk(sample, rng, int(rng.integers(0, 3 * sample.vertex_count))))
    base = int(rng.integers(sample.vertex_count))
    assert_same_reconstruction(sample, A, base, float(rng.normal()))
