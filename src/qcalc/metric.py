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

from .errors import BuildError, DisconnectedSampleError, ResourceLimitError
from .fields import ScalarField, require_same_sample
from .geometry import POINT_CAP, PolylinePath, SetSample, pair_blocks, report_dict, row_norms

#: most pairs sampled mode draws (2^24)
_PAIR_BUDGET_CAP = POINT_CAP ** 2 // 64

#: relative tolerance for recognizing "dist[u] + w == dist[v]" on float sums
_TIE_TOL = 1e-12


def _check_vertex(sample: SetSample, v: int) -> None:
    """Reject vertex indices outside 0..nv-1 (no wrap-around from the end)."""
    if not 0 <= v < sample.vertex_count:
        raise BuildError(f"vertex {v} out of range")


def _check_k(k: float) -> None:
    """Reject a chord-arc constant k that is not finite and positive."""
    if not (math.isfinite(k) and k > 0):
        raise BuildError(f"k must be finite and positive, got {k!r}")


def _settle(sample: SetSample, source: int, targets: Sequence[int] = ()) -> tuple[list, list]:
    """Dijkstra from one vertex, settling each vertex once: distances, and the
    rank (1, 2, ...) in which each vertex was settled, 0 for never.

    With ``targets`` (distinct vertices) the run stops once all of them are
    settled, and only their distances are final; without, it is a full run.
    """
    _check_vertex(sample, source)
    nv = sample.vertex_count
    dist, rank, count = [math.inf] * nv, [0] * nv, 0
    wanted, left = np.isin(np.arange(nv), targets).tolist(), len(targets)
    dist[source] = 0.0
    heap: list[tuple[float, int]] = [(0.0, source)]
    adjacency = sample.adjacency
    while heap:
        d, u = heapq.heappop(heap)
        if rank[u]:
            continue
        count += 1
        rank[u] = count
        if wanted[u]:
            left -= 1
            if not left:
                break
        for v, w in adjacency[u]:
            nd = d + w
            if nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist, rank


def _dijkstra(sample: SetSample, source: int, targets: Sequence[int] = ()) -> np.ndarray:
    """The distances of ``_settle`` as an array."""
    return np.array(_settle(sample, source, targets)[0])


def predecessor_array(sample: SetSample, source: int) -> tuple[np.ndarray, np.ndarray]:
    """Distances plus the smallest-index predecessor of every reachable vertex.

    Tie rule: the predecessor of v is the smallest u over the edges {u, v},
    read both ways, with |dist[u] + w - dist[v]| <= _TIE_TOL (1 + dist[v])
    and u settled before v.  The vertex whose relaxation set dist[v] always
    qualifies, so every reachable vertex has a predecessor, and chains
    strictly decrease in settle order and end at the source, even where
    near-coincident points tie in float distance.  Self-loops never qualify.
    The source and unreachable vertices get -1.
    """
    dist, rank = map(np.array, _settle(sample, source))
    (i, j), w = sample.edge_ends, np.tile(sample.edge_lengths, 2)
    tail, head = np.r_[i, j], np.r_[j, i]
    with np.errstate(invalid="ignore"):  # inf - inf between unreachable vertices
        tied = np.abs(dist[tail] + w - dist[head]) <= _TIE_TOL * (1.0 + np.abs(dist[head]))
    tied &= rank[tail] < rank[head]
    nv = sample.vertex_count
    pred = np.full(nv, nv)
    np.minimum.at(pred, head[tied], tail[tied])
    pred[pred == nv] = -1
    return dist, pred


def geodesic_distance(sample: SetSample, i: int, j: int) -> float:
    """Length of a shortest edge-path between two vertices.

    Computed from the smaller-index endpoint, so the result is exactly
    symmetric in (i, j); the run stops once the other endpoint is settled.
    """
    for v in (i, j):
        _check_vertex(sample, v)
    if i == j:
        return 0.0
    hi = max(i, j)
    d = _dijkstra(sample, min(i, j), (hi,))[hi]
    if not math.isfinite(d):
        raise DisconnectedSampleError(f"vertices {i} and {j} are not connected")
    return float(d)


def shortest_path(sample: SetSample, i: int, j: int) -> PolylinePath:
    """A length-minimizing vertex path from i to j, deterministic under ties."""
    for v in (i, j):
        _check_vertex(sample, v)
    if i == j:
        return PolylinePath.from_vertices(sample, [i])
    dist, pred = predecessor_array(sample, i)
    if not math.isfinite(dist[j]):
        raise DisconnectedSampleError(f"vertices {i} and {j} are not connected")
    chain = [j]
    while chain[-1] != i:
        chain.append(int(pred[chain[-1]]))
    return PolylinePath.from_vertices(sample, chain[::-1])


@dataclass(frozen=True)
class ChordArcReport:
    k_hat: float
    witness_pair: tuple[int, int]
    pair_count: int
    method: str
    seed: int | None = None

    def as_dict(self) -> dict:
        return report_dict(self, drop=("seed",) if self.seed is None else ())


def _scan_sources(sample: SetSample, rows) -> tuple[float, tuple[int, int], int]:
    """Largest geodesic/Euclidean ratio over rows (i, sorted targets js)."""
    pts = sample.points_array
    best, witness, count = -math.inf, (-1, -1), 0
    for i, js in rows:
        dist = _dijkstra(sample, i, js)[js]
        if not np.all(np.isfinite(dist)):
            raise DisconnectedSampleError("sample is not connected")
        chord = row_norms(pts[js] - pts[i])
        if not chord.all():
            raise BuildError(f"points {i} and {js[np.argmin(chord)]} are too close: "
                             "their chord rounds to 0")
        ratios = dist / chord
        count += len(js)
        loc = int(np.argmax(ratios))
        if ratios[loc] > best:
            best = float(ratios[loc])
            witness = (i, int(js[loc]))
    # a path is never shorter than its chord: a ratio below 1 is rounding
    return max(best, 1.0), witness, count


def estimate_chord_arc(
    sample: SetSample,
    mode: str = "exhaustive",
    seed: int = 0,
    pair_budget: int | None = None,
) -> ChordArcReport:
    """Estimate the chord-arc constant as the max geodesic/Euclidean ratio.

    Exhaustive mode maximizes over all vertex pairs and is the optimal graph
    constant; sampled mode lower-bounds it on ``pair_budget`` seeded random
    pairs, at most 2^24, a larger budget being refused before any is drawn.
    Ties go to the lexicographically smallest witness pair.
    """
    nv = sample.vertex_count
    if nv < 2:
        raise BuildError("need at least 2 points")
    if mode == "exhaustive":
        rows = ((i, np.arange(i + 1, nv)) for i in range(nv - 1))
        best, witness, count = _scan_sources(sample, rows)
        return ChordArcReport(best, witness, count, "exhaustive")
    if mode == "sampled":
        if not pair_budget or pair_budget <= 0:
            raise BuildError("sampled mode needs a positive pair_budget")
        if pair_budget > _PAIR_BUDGET_CAP:  # the draws take about 32 bytes per pair
            raise ResourceLimitError(f"pair_budget {pair_budget} exceeds the cap of "
                                     f"{_PAIR_BUDGET_CAP} pairs")
        rng = np.random.default_rng(seed)
        a = rng.integers(0, nv, size=pair_budget)
        b = (a + 1 + rng.integers(0, nv - 1, size=pair_budget)) % nv
        # distinct pairs i < j in (i, j) order, one row of targets per source
        keys = np.unique(np.minimum(a, b) * nv + np.maximum(a, b))
        sources, starts = np.unique(keys // nv, return_index=True)
        rows = zip(sources.tolist(), np.split(keys % nv, starts[1:]))
        best, witness, _ = _scan_sources(sample, rows)
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
        return report_dict(self, local_violations=self.local_violations[:20], passed=self.passed)


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

    The pairs are scanned in the folded blocks of ``geometry.pair_blocks``;
    the report is the one of a scan in row-major order.  Violations are
    sorted by (i, j).  The witness is the first pair in row-major order with
    the largest ratio |f(x_j) - f(x_i)| / |x_j - x_i|, and (0, 0) when every
    ratio is 0; a row holding a 0/0 ratio (coincident points) offers no
    witness.  A NaN or negative radius, a C or tol that is not finite and
    nonnegative, or a k that is not finite and positive raises a ``BuildError``.
    """
    require_same_sample(sample, f)
    if radius is None:
        radius = 2.0 * sample.max_edge_length
    if not radius >= 0:
        raise BuildError(f"radius must be nonnegative, got {radius!r}")
    for name, value in (("C", C), ("tol", tol)):
        if not (math.isfinite(value) and value >= 0):
            raise BuildError(f"{name} must be finite and nonnegative, got {value!r}")
    _check_k(k)
    pts_t = np.ascontiguousarray(sample.points_array.T)
    vals = f.values
    cap, blocks = pair_blocks(sample.vertex_count)
    # one contiguous row per coordinate of x_j - x_i
    diff = np.empty((len(pts_t), cap))
    dval = np.empty(cap, dtype=vals.dtype)
    found = []
    l_glob = 0.0
    witness = (0, 0)
    for size, segs in blocks:
        for i, start, length in segs:
            stop = start + length
            np.subtract(pts_t[:, i + 1 :], pts_t[:, i, None], out=diff[:, start:stop])
            np.subtract(vals[i + 1 :], vals[i], out=dval[start:stop])
        d = row_norms(diff[:, :size].T)
        df = np.abs(dval[:size])
        with np.errstate(divide="ignore", invalid="ignore"):  # a chord that rounds to 0
            ratios = df / d
        rows, starts, _ = np.array(segs).T
        near = np.flatnonzero(d <= radius)
        bad = near[df[near] > C * d[near] + tol]
        if bad.size:
            seg = np.searchsorted(starts, bad, side="right") - 1
            found.append((rows[seg], rows[seg] + 1 + bad - starts[seg], ratios[bad]))
        # a row holding a NaN ratio has a NaN maximum and offers no witness;
        # ties go to the smallest row, then to its first j
        row_max = np.maximum.reduceat(ratios, starts)
        top = np.fmax.reduce(row_max)
        if not top >= l_glob:
            continue
        tied = np.flatnonzero(row_max == top)
        i, start, length = segs[tied[np.argmin(rows[tied])]]
        pair = (i, i + 1 + int(np.argmax(ratios[start : start + length])))
        if top > l_glob or pair < witness:
            l_glob, witness = float(top), pair
    violations: tuple = ()
    if found:
        vi, vj, vr = (np.concatenate(parts) for parts in zip(*found))
        order = np.lexsort((vj, vi))
        violations = tuple(zip(vi[order].tolist(), vj[order].tolist(), vr[order].tolist()))
    bound = k * C
    return LocalToGlobalReport(
        radius=float(radius),
        local_constant=float(C),
        k=float(k),
        tol=float(tol),
        hypothesis_ok=not violations,
        local_violations=violations,
        l_glob=l_glob,
        witness_pair=witness,
        bound=float(bound),
        bound_ok=l_glob <= bound + tol,
    )
