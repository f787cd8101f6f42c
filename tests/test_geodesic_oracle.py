"""The geodesic kernel against the heap loop and tie rule it replaced.

``_single_source`` and ``_min_predecessor`` are, verbatim, the heapq
Dijkstra (numpy distance array, no settled set) and the per-vertex scalar
tie rule that ``metric`` used before ``metric._dijkstra`` and the vectorised
rule in ``metric.predecessor_array``.  The references built on them are the
old ``predecessor_array``, ``shortest_path`` and chord-arc scan (full rows,
sampled pairs grouped in a dict of sets).  Every distance row, predecessor
array, path and report must agree exactly.
"""
from __future__ import annotations

import heapq
import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import circle_points, connected_planar_graphs, scipy_distance_matrix
from qcalc import geometry, metric
from qcalc.calculus import reconstruct
from qcalc.errors import DisconnectedSampleError
from qcalc.fields import CovectorField
from qcalc.geometry import PolylinePath, row_norms
from qcalc.metric import (
    _TIE_TOL,
    ChordArcReport,
    _check_vertex,
    estimate_chord_arc,
    predecessor_array,
    shortest_path,
)


def _single_source(sample, source):
    """Dijkstra distances from one vertex (nonnegative edge weights)."""
    _check_vertex(sample, source)
    nv = sample.vertex_count
    dist = np.full(nv, np.inf)
    dist[source] = 0.0
    heap: list[tuple[float, int]] = [(0.0, source)]
    adjacency = sample.adjacency
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for v, w in adjacency[u]:
            nd = d + w
            if nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist


def _min_predecessor(sample, dist, v):
    """Smallest-index neighbor u with dist[u] + w(u,v) == dist[v].

    Adjacency lists are sorted by index, so the first match wins; this is
    the deterministic tie rule for shortest paths.
    """
    dv = dist[v]
    tol = _TIE_TOL * (1.0 + abs(dv))
    for u, w in sample.adjacency[v]:
        if abs(dist[u] + w - dv) <= tol:
            return u
    raise DisconnectedSampleError(f"no predecessor for vertex {v}")


def predecessor_array_reference(sample, source):
    dist = _single_source(sample, source)
    pred = np.full(sample.vertex_count, -1, dtype=int)
    for v in range(sample.vertex_count):
        if v == source or not math.isfinite(dist[v]):
            continue
        pred[v] = _min_predecessor(sample, dist, v)
    return dist, pred


def chain_reference(sample, dist, i, j):
    """The vertex chain of the old ``shortest_path`` from a run at i."""
    chain = [j]
    v = j
    while v != i:
        v = _min_predecessor(sample, dist, v)
        chain.append(v)
    chain.reverse()
    return tuple(chain)


def chord_arc_reference(sample, mode="exhaustive", seed=0, pair_budget=None):
    nv = sample.vertex_count
    if mode == "exhaustive":
        sources, targets_of = range(nv - 1), lambda i: np.arange(i + 1, nv)
    else:
        rng = np.random.default_rng(seed)
        a = rng.integers(0, nv, size=pair_budget)
        b = (a + 1 + rng.integers(0, nv - 1, size=pair_budget)) % nv
        by_source: dict[int, set[int]] = {}
        for i, j in zip(np.minimum(a, b), np.maximum(a, b)):
            by_source.setdefault(int(i), set()).add(int(j))
        sources = sorted(by_source)
        targets_of = lambda i: np.array(sorted(by_source[i]), dtype=int)  # noqa: E731
    pts = sample.points_array
    best, witness, count = -math.inf, (-1, -1), 0
    for i in sources:
        js = targets_of(i)
        dist = _single_source(sample, i)[js]
        ratios = dist / row_norms(pts[js] - pts[i])
        count += len(js)
        loc = int(np.argmax(ratios))
        if ratios[loc] > best:
            best, witness = float(ratios[loc]), (i, int(js[loc]))
    best = max(best, 1.0)  # the report's rule: no path is shorter than its chord
    if mode == "exhaustive":
        return ChordArcReport(best, witness, count, "exhaustive")
    return ChordArcReport(best, witness, int(pair_budget), "sampled", seed=seed)


@lru_cache(maxsize=None)
def named_sample(name):
    kind, _, size = name.partition(" ")
    if kind == "gasket":
        return geometry.build_gasket(int(size))
    if kind == "carpet":
        return geometry.build_carpet(int(size))
    if kind == "dumbbell":
        return geometry.build_dumbbell(1.0, 0.1, math.pi / 32)
    if kind == "circle256":
        return geometry.build_polyline(circle_points(256), closed=True)
    # a 3-D helix: four turns, 40 points per turn
    t = np.arange(161) * (2 * math.pi / 40)
    return geometry.build_polyline(np.c_[np.cos(t), np.sin(t), 0.05 * t].tolist())


SAMPLES = ["gasket 3", "gasket 4", "gasket 5", "carpet 2", "carpet 3", "dumbbell",
           "circle256", "helix"]


@pytest.mark.parametrize("name", SAMPLES)
def test_rows_and_predecessors_equal_reference(name):
    sample = named_sample(name)
    for source in range(sample.vertex_count):
        ref_dist, ref_pred = predecessor_array_reference(sample, source)
        assert metric._dijkstra(sample, source).tobytes() == ref_dist.tobytes()
        dist, pred = predecessor_array(sample, source)
        assert dist.tobytes() == ref_dist.tobytes()
        assert pred.dtype == ref_pred.dtype
        assert np.array_equal(pred, ref_pred), source


@pytest.mark.parametrize("name", SAMPLES)
def test_shortest_paths_equal_reference(name):
    sample = named_sample(name)
    nv = sample.vertex_count
    # every pair of the smallest sample; three sources to every target elsewhere
    sources = range(nv) if nv <= 50 else (0, nv // 2, nv - 1)
    for i in sources:
        dist = _single_source(sample, i)
        for j in range(nv):
            path = shortest_path(sample, i, j)
            expect = PolylinePath.from_vertices(sample, chain_reference(sample, dist, i, j))
            assert path == expect, (i, j)


@pytest.mark.parametrize("name", SAMPLES)
def test_chord_arc_reports_equal_full_row_scan(name):
    sample = named_sample(name)
    assert estimate_chord_arc(sample) == chord_arc_reference(sample)
    nv = sample.vertex_count
    # small budgets and one large enough to draw some pairs twice
    for seed, budget in ((0, 7), (3, nv // 2), (11, 2 * nv)):
        got = estimate_chord_arc(sample, "sampled", seed=seed, pair_budget=budget)
        assert got == chord_arc_reference(sample, "sampled", seed, budget)


@pytest.mark.parametrize("name", ["gasket 4", "carpet 3", "helix"])
def test_early_exit_keeps_target_distances(name):
    sample = named_sample(name)
    nv = sample.vertex_count
    rng = np.random.default_rng(5)
    for source in rng.choice(nv, size=8, replace=False).tolist():
        full = metric._dijkstra(sample, source)
        for size in (1, 2, nv // 3):
            targets = np.sort(rng.choice(nv, size=size, replace=False))
            part = metric._dijkstra(sample, source, targets)
            assert part[targets].tobytes() == full[targets].tobytes()
        # the exhaustive scan's targets j > source
        js = np.arange(source + 1, nv)
        assert metric._dijkstra(sample, source, js)[js].tobytes() == full[js].tobytes()


def test_unreachable_vertices_match_reference():
    # two components; unreachable vertices keep distance inf and predecessor -1
    s = geometry.SetSample(2, ((0, 0), (1, 0), (2, 0), (5, 5), (6, 5), (7, 6)),
                           ((0, 1, 1.0), (1, 2, 1.0), (3, 4, 1.0), (4, 5, math.sqrt(2.0))))
    for source in range(s.vertex_count):
        ref_dist, ref_pred = predecessor_array_reference(s, source)
        dist, pred = predecessor_array(s, source)
        assert dist.tobytes() == ref_dist.tobytes()
        assert np.array_equal(pred, ref_pred)
    assert predecessor_array(s, 4)[1].tolist() == [-1, -1, -1, 4, -1, 4]


def test_near_tie_within_tolerance_matches_reference():
    # 0 - 1 - 3 is longer than 0 - 2 - 3 by 1.5e-12: inside the tolerance
    # 1e-12 (1 + dist[3]) at dist[3] = 1, outside 1e-12 dist[3]
    s = geometry.SetSample(2, ((0, 0), (0.5, 1), (0.5, -1), (1, 0)),
                           ((0, 1, 0.5), (1, 3, 0.5 + 1.5e-12), (0, 2, 0.5), (2, 3, 0.5)))
    ref_dist, ref_pred = predecessor_array_reference(s, 0)
    dist, pred = predecessor_array(s, 0)
    assert dist.tobytes() == ref_dist.tobytes()
    assert pred.tolist() == ref_pred.tolist() == [-1, 0, 0, 1]


def test_reconstruct_on_a_tree_has_no_loop_defect():
    # every edge of a polyline is a tree edge, whichever way the tree runs
    # through it, so even a zero tolerance raises no warning
    rng = np.random.default_rng(4)
    s = geometry.build_polyline(np.cumsum(rng.normal(size=(60, 3)), axis=0).tolist())
    A = CovectorField(s, rng.normal(size=(60, 3)))
    for base in (0, 31, 59):
        assert reconstruct(s, A, base, 1.0, defect_tol=0.0).warning is None


@settings(max_examples=100, deadline=None)
@given(graph=connected_planar_graphs(), data=st.data())
def test_kernel_on_random_planar_graphs(graph, data):
    sample, _, _ = graph
    nv = sample.vertex_count
    oracle = scipy_distance_matrix(sample)
    for i in range(nv):
        ref_dist, ref_pred = predecessor_array_reference(sample, i)
        dist, pred = predecessor_array(sample, i)
        assert dist.tobytes() == ref_dist.tobytes()
        assert np.array_equal(pred, ref_pred)
        # the minimum over walks of the left-to-right sum, as scipy finds it
        assert np.array_equal(dist, oracle[i])
        for j in range(nv):
            assert shortest_path(sample, i, j).vertices == chain_reference(sample, ref_dist, i, j)
        targets = data.draw(st.lists(st.integers(0, nv - 1), unique=True, max_size=nv))
        assert np.array_equal(metric._dijkstra(sample, i, targets)[targets], dist[targets])
    assert estimate_chord_arc(sample) == chord_arc_reference(sample)
    budget = data.draw(st.integers(1, 3 * nv * nv))
    assert (estimate_chord_arc(sample, "sampled", seed=nv, pair_budget=budget)
            == chord_arc_reference(sample, "sampled", nv, budget))
