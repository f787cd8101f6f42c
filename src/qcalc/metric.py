"""Intrinsic metric of a sample: geodesics, chord-arc constant, local-to-global.

The chord-arc constant of a sample is the largest ratio of intrinsic
(shortest edge-path) distance to Euclidean distance over vertex pairs.  Any
k at least that large witnesses the quasiconvexity condition: every pair is
joined inside the set by a path of length at most k times the Euclidean gap.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import BuildError, DisconnectedSampleError
from .fields import ScalarField, require_same_sample
from .geometry import SCHEMA_VERSION, PolylinePath, SetSample

#: relative tolerance for recognizing "dist[u] + w == dist[v]" on float sums
_TIE_TOL = 1e-12


def _check_vertex(sample: SetSample, v: int) -> None:
    """Reject vertex indices outside 0..nv-1 (no wrap-around from the end)."""
    if not 0 <= v < sample.vertex_count:
        raise BuildError(f"vertex {v} out of range")


def _single_source(sample: SetSample, source: int) -> np.ndarray:
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


def _min_predecessor(sample: SetSample, dist: np.ndarray, v: int) -> int:
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


def predecessor_array(sample: SetSample, source: int) -> tuple[np.ndarray, np.ndarray]:
    """Distances plus the smallest-index predecessor of every reachable vertex."""
    dist = _single_source(sample, source)
    pred = np.full(sample.vertex_count, -1, dtype=int)
    for v in range(sample.vertex_count):
        if v == source or not math.isfinite(dist[v]):
            continue
        pred[v] = _min_predecessor(sample, dist, v)
    return dist, pred


def geodesic_distance(sample: SetSample, i: int, j: int) -> float:
    """Length of a shortest edge-path between two vertices.

    Computed from the smaller-index endpoint, so the result is exactly
    symmetric in (i, j).
    """
    for v in (i, j):
        _check_vertex(sample, v)
    if i == j:
        return 0.0
    lo, hi = min(i, j), max(i, j)
    d = _single_source(sample, lo)[hi]
    if not math.isfinite(d):
        raise DisconnectedSampleError(f"vertices {i} and {j} are not connected")
    return float(d)


def shortest_path(sample: SetSample, i: int, j: int) -> PolylinePath:
    """A length-minimizing vertex path from i to j, deterministic under ties."""
    for v in (i, j):
        _check_vertex(sample, v)
    if i == j:
        return PolylinePath.from_vertices(sample, [i])
    dist = _single_source(sample, i)
    if not math.isfinite(dist[j]):
        raise DisconnectedSampleError(f"vertices {i} and {j} are not connected")
    chain = [j]
    v = j
    while v != i:
        v = _min_predecessor(sample, dist, v)
        chain.append(v)
    chain.reverse()
    return PolylinePath.from_vertices(sample, chain)


@dataclass(frozen=True)
class ChordArcReport:
    k_hat: float
    witness_pair: tuple[int, int]
    pair_count: int
    method: str
    seed: int | None = None

    def as_dict(self) -> dict:
        doc = {
            "schema_version": SCHEMA_VERSION,
            "k_hat": self.k_hat,
            "witness_pair": list(self.witness_pair),
            "pair_count": self.pair_count,
            "method": self.method,
        }
        if self.seed is not None:
            doc["seed"] = self.seed
        return doc


def _scan_sources(sample: SetSample, sources: Sequence[int], targets_of) -> tuple[float, tuple[int, int], int]:
    pts = sample.points_array
    best = -math.inf
    witness = (-1, -1)
    count = 0
    for i in sources:
        js = targets_of(i)
        if len(js) == 0:
            continue
        dist = _single_source(sample, i)[js]
        if not np.all(np.isfinite(dist)):
            raise DisconnectedSampleError("sample is not connected")
        eu = np.linalg.norm(pts[js] - pts[i], axis=1)
        ratios = dist / eu
        count += len(js)
        loc = int(np.argmax(ratios))
        if ratios[loc] > best:
            best = float(ratios[loc])
            witness = (i, int(js[loc]))
    return best, witness, count


def estimate_chord_arc(
    sample: SetSample,
    mode: str = "exhaustive",
    seed: int = 0,
    pair_budget: int | None = None,
) -> ChordArcReport:
    """Estimate the chord-arc constant as the max geodesic/Euclidean ratio.

    Exhaustive mode maximizes over all vertex pairs and is the optimal graph
    constant; sampled mode lower-bounds it on ``pair_budget`` seeded random
    pairs.  Ties go to the lexicographically smallest witness pair.
    """
    nv = sample.vertex_count
    if nv < 2:
        raise BuildError("need at least 2 points")
    if mode == "exhaustive":
        best, witness, count = _scan_sources(
            sample, range(nv - 1), lambda i: np.arange(i + 1, nv)
        )
        return ChordArcReport(best, witness, count, "exhaustive")
    if mode == "sampled":
        if not pair_budget or pair_budget <= 0:
            raise BuildError("sampled mode needs a positive pair_budget")
        rng = np.random.default_rng(seed)
        a = rng.integers(0, nv, size=pair_budget)
        b = (a + 1 + rng.integers(0, nv - 1, size=pair_budget)) % nv
        lo = np.minimum(a, b)
        hi = np.maximum(a, b)
        by_source: dict[int, set[int]] = {}
        for i, j in zip(lo, hi):
            by_source.setdefault(int(i), set()).add(int(j))
        best, witness, _ = _scan_sources(
            sample,
            sorted(by_source),
            lambda i: np.array(sorted(by_source[i]), dtype=int),
        )
        return ChordArcReport(best, witness, int(pair_budget), "sampled", seed=seed)
    raise BuildError(f"unknown mode {mode!r}")


@dataclass(frozen=True)
class LocalToGlobalReport:
    radius: float
    local_constant: float
    k: float
    tol: float
    hypothesis_ok: bool
    local_violations: tuple[tuple[int, int, float], ...]
    l_glob: float
    witness_pair: tuple[int, int]
    bound: float
    bound_ok: bool

    @property
    def passed(self) -> bool:
        return self.hypothesis_ok and self.bound_ok

    def as_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "radius": self.radius,
            "local_constant": self.local_constant,
            "k": self.k,
            "tol": self.tol,
            "hypothesis_ok": self.hypothesis_ok,
            "local_violations": [list(v) for v in self.local_violations[:20]],
            "l_glob": self.l_glob,
            "witness_pair": list(self.witness_pair),
            "bound": self.bound,
            "bound_ok": self.bound_ok,
            "passed": self.passed,
        }


def verify_local_to_global(
    sample: SetSample,
    f: ScalarField,
    radius: float | None = None,
    C: float = 1.0,
    k: float = 1.0,
    tol: float = 1e-9,
) -> LocalToGlobalReport:
    """Check that a locally C-Lipschitz field is globally (k C)-Lipschitz.

    "Locally" means over pairs within the given Euclidean radius (default
    twice the longest edge).  The local hypothesis is verified first; the
    report then compares the measured global Lipschitz constant against
    k*C + tol.
    """
    require_same_sample(sample, f)
    if radius is None:
        radius = 2.0 * sample.max_edge_length
    pts = sample.points_array
    vals = f.values
    nv = sample.vertex_count
    violations: list[tuple[int, int, float]] = []
    l_glob = 0.0
    witness = (0, 0)
    for i in range(nv - 1):
        d = np.linalg.norm(pts[i + 1 :] - pts[i], axis=1)
        df = np.abs(vals[i + 1 :] - vals[i])
        local = d <= radius
        bad = local & (df > C * d + tol)
        for off in np.nonzero(bad)[0]:
            j = i + 1 + int(off)
            violations.append((i, j, float(df[off] / d[off])))
        ratios = df / d
        loc = int(np.argmax(ratios))
        if ratios[loc] > l_glob:
            l_glob = float(ratios[loc])
            witness = (i, i + 1 + loc)
    bound = k * C
    return LocalToGlobalReport(
        radius=float(radius),
        local_constant=float(C),
        k=float(k),
        tol=float(tol),
        hypothesis_ok=not violations,
        local_violations=tuple(violations),
        l_glob=l_glob,
        witness_pair=witness,
        bound=float(bound),
        bound_ok=l_glob <= bound + tol,
    )
