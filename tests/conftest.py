"""Shared fixtures and independent oracles for the test suite."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import strategies as st

from qcalc import geometry, metric
from qcalc.fields import ScalarField


def circle_points(n: int) -> list[tuple[float, float]]:
    return [(math.cos(2 * math.pi * j / n), math.sin(2 * math.pi * j / n)) for j in range(n)]


@pytest.fixture(scope="session")
def circle256():
    return geometry.build_polyline(circle_points(256), closed=True, label="circle256")


@pytest.fixture(scope="session")
def gasket2():
    return geometry.build_gasket(2)


@pytest.fixture(scope="session")
def gasket3():
    return geometry.build_gasket(3)


@pytest.fixture(scope="session")
def gasket4():
    return geometry.build_gasket(4)


@pytest.fixture(scope="session")
def carpet3():
    return geometry.build_carpet(3)


@pytest.fixture(scope="session")
def dumbbell():
    return geometry.build_dumbbell(1.0, 0.1, math.pi / 32)


@pytest.fixture(scope="session")
def square_loop():
    return geometry.build_polyline([(0, 0), (1, 0), (1, 1), (0, 1)], closed=True)


@pytest.fixture(scope="session")
def khat_circle256(circle256):
    return metric.estimate_chord_arc(circle256)


@pytest.fixture(scope="session")
def khat_gasket4(gasket4):
    return metric.estimate_chord_arc(gasket4)


@pytest.fixture(scope="session")
def khat_carpet3(carpet3):
    return metric.estimate_chord_arc(carpet3)


# ---------------------------------------------------------------------------
# independent oracles


def scipy_distance_matrix(sample) -> np.ndarray:
    """All-pairs geodesic distances via scipy's graph machinery."""
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import dijkstra

    nv = sample.vertex_count
    i, j, w = zip(*sample.edges)
    mat = coo_matrix((w + w, (i + j, j + i)), shape=(nv, nv))
    return dijkstra(mat.tocsr(), directed=False)


def chord(p, q) -> float:
    """Euclidean distance as the square root of the coordinate-order sum of squares.

    This is how numpy's row norms round below 8 coordinates.  ``math.dist``
    rounds differently, and with it the oracle's k_hat differs in the last
    bit on about one random planar graph in ten.
    """
    sq = 0.0
    for a, b in zip(p, q):
        sq += (a - b) * (a - b)
    return math.sqrt(sq)


def brute_force_chord_arc(sample) -> tuple[float, tuple[int, int]]:
    """Max geodesic/Euclidean ratio by a plain pair scan over scipy distances.

    The first pair in (i, j) order with the largest ratio is the witness.
    """
    dist = scipy_distance_matrix(sample)
    best, witness = -math.inf, (-1, -1)
    for i in range(sample.vertex_count - 1):
        for j in range(i + 1, sample.vertex_count):
            ratio = dist[i, j] / chord(sample.points[i], sample.points[j])
            if ratio > best:
                best, witness = ratio, (i, j)
    return best, witness


def measured_local_constant(sample, f: ScalarField, radius: float) -> float:
    """Smallest C for which f is C-Lipschitz over pairs within the radius."""
    pts = sample.points_array
    vals = f.values
    out = 0.0
    for i in range(sample.vertex_count - 1):
        d = np.linalg.norm(pts[i + 1 :] - pts[i], axis=1)
        df = np.abs(vals[i + 1 :] - vals[i])
        mask = d <= radius
        if mask.any():
            out = max(out, float(np.max(df[mask] / d[mask])))
    return out


def vertex_at(sample, coords, tol=1e-9) -> int:
    """Index of the sample vertex at the given coordinates."""
    for i, p in enumerate(sample.points):
        if math.dist(p, coords) <= tol:
            return i
    raise AssertionError(f"no vertex at {coords}")


def geodesic_field(sample, base: int = 0) -> ScalarField:
    """Intrinsic distance from a basepoint as a scalar field."""
    vals = np.array(
        [metric.geodesic_distance(sample, base, v) for v in range(sample.vertex_count)]
    )
    return ScalarField(sample, vals)


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
    sample = geometry.SetSample(2, tuple(pts), edges, label="random planar")
    return sample, rng.normal(size=nv), tree
