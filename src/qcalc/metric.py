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
from .geometry import (PAIR_BLOCK, POINT_CAP, PolylinePath, SetSample, _leaf_box, report_dict,
                       row_norms)

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


def _lipschitz_scan(sample: SetSample, vals: np.ndarray, radius: float, C: float,
                    tol: float) -> tuple[tuple, float, tuple[int, int]]:
    """(violations, l_glob, witness) of ``verify_local_to_global``, by pairs
    of kd leaves.

    Leaves.  ``SetSample.kd_leaves`` cuts the vertices into 2^depth leaves
    of at most 16 vertices, but into no more than 256 (at ``POINT_CAP`` a
    leaf holds 128), and holds what depends on the points alone: the slot
    table, the slot coordinates and the gaps D below.  Each leaf pair
    (a, b), a <= b, is evaluated as (slot, slot, leaf pair) arrays, about
    ``PAIR_BLOCK`` pairs at a time, with the float operations of the row
    loop: the chord is ``row_norms`` of x_j - x_i and the ratio
    |f_j - f_i| / chord.  fl(u - v) = -fl(v - u), so the orientation of a
    pair does not change a bit.  A short leaf repeats its last vertex and a
    leaf paired with itself holds each pair twice; such repeats have the
    same bits, and a vertex paired with itself is dropped.

    The bound.  For a leaf pair, g_c = max(lo_b - hi_a, lo_a - hi_b, 0) is
    the float gap of the two bounding boxes in coordinate c, D =
    ``row_norms(g)``, S = max(fl(max_b f - min_a f), fl(max_a f - min_b f)),
    and bound = fl(S / D).  Rounding to nearest is monotone (u >= v gives
    fl(u) >= fl(v)).  So for i in a and j in b, |fl(x_jc - x_ic)| >= g_c;
    the squares, their sums in ``row_norms``' fixed order and the square
    root keep the inequality, so the float chord is at least D; and
    |fl(f_j - f_i)| <= S.  Division is monotone as well, so every float
    ratio of the pair is at most the bound, with no margin, subnormal and
    overflowing values included.  For a complex f, S is the hypot of the
    real and imaginary spans, widened by 2^-20 relative and 2^-1070
    absolute: that covers any |z| (numpy's, and the hypot of the spans)
    within 2^-22 relative plus 2^-1072 absolute of the exact value.

    Phase 1 scans in full the leaf pairs with D <= radius that may hold a
    local violation, S > fl(C D), those with a bound that is not finite, and
    those with D below the normal range (where a chord may round to 0: the
    bound covers these too, but this way no zero chord rests on it).  Every
    pair within radius lies in a leaf pair with D <= radius, and one with
    S <= fl(C D) holds no violation: its chords d are at least D, and C and
    tol are finite and >= 0, so by monotone rounding, with no margin,
    |fl(f_j - f_i)| <= S <= fl(C D) <= fl(C d) <= fl(fl(C d) + tol).  So
    phase 1 finds every local violation.
    A NaN ratio needs a chord of 0 or |f_j - f_i| = inf, so D = 0 or S = inf
    and a bound that is not finite: phase 1 finds every NaN.  A row holding
    one offers no witness; when there is one, phase 1 is swept again with
    those rows' ratios set to 0.  Phase 2 scans the other leaf pairs by
    falling bound while the bound reaches the largest ratio found so far.
    A skipped leaf pair has a bound, and so every ratio, below a ratio
    already measured: it can neither hold l_glob nor tie it, and the witness
    is that of the full scan.  Working memory is one batch and three
    (leaf, leaf) arrays of at most 256^2 entries (S, the bound and the
    phase-1 mask), whatever nv and radius; the leaves and D live on the
    sample, built by its first scan.
    """
    nv, n = sample.points_array.shape
    if nv < 2:
        return (), 0.0, (0, 0)
    order, bounds, slots, xs, _, _, gap, upper = sample.kd_leaves
    s, leaves = slots.shape

    def span(v):  # [a, b]: >= every |fl(v_j - v_i)|, i in leaf a, j in leaf b
        lo, hi = _leaf_box(v, order, bounds)
        return np.maximum(hi - lo[:, None], hi[:, None] - lo)

    # leaf pair (a, b) is entry a * leaves + b of the (leaves, leaves) arrays
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        if np.iscomplexobj(vals):
            df_span = np.hypot(span(vals.real), span(vals.imag)) * (1 + 2.0**-20) + 2.0**-1070
        else:
            df_span = span(vals)
        bound = df_span / gap
        near = (((gap <= radius) & ~(df_span <= C * gap)) | ~np.isfinite(bound)
                | (gap < np.finfo(float).tiny))
    bound = bound.ravel()
    fs = vals[slots]
    per = max(1, PAIR_BLOCK // (s * s))

    def ratios(batch, skip=None):
        """Ratios and chords of the leaf pairs ``batch``, as (slot, slot,
        leaf pair) arrays raveled; a vertex paired with itself, and with
        ``skip`` a pair whose row is in ``skip``, gets ratio 0."""
        a, b = np.divmod(batch, leaves)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # inf and NaN ratios
            diff = np.take(xs, b, 2)[:, None] - np.take(xs, a, 2)[:, :, None]
            d = row_norms(diff.reshape(n, -1).T)
            df = np.abs(np.take(fs, b, 1)[None] - np.take(fs, a, 1)[:, None]).ravel()
            r = df / d
        if skip is not None or (a == b).any():
            i, j = (x.ravel() for x in np.broadcast_arrays(
                np.take(slots, a, 1)[:, None], np.take(slots, b, 1)[None]))
            r[i == j] = 0.0
            if skip is not None:
                r[np.isin(np.minimum(i, j), skip)] = 0.0
        return r, d, df, a, b

    def pairs(flat, a, b):
        ta, tb, p = np.unravel_index(flat, (s, s, len(a)))
        i, j = slots[ta, a[p]], slots[tb, b[p]]
        return np.minimum(i, j), np.maximum(i, j)

    best, witness = 0.0, (0, 0)

    def offer(r, top, a, b):
        nonlocal best, witness
        if not (top > 0 and top >= best):
            return
        i, j = pairs(np.flatnonzero(r == top), a, b)
        m = int(np.argmin(i * nv + j))
        pair = (int(i[m]), int(j[m]))
        if top > best or pair < witness:
            best, witness = float(top), pair

    # phase 1: every leaf pair that may hold a local violation or a NaN ratio;
    # the leaf pairs of a leaf with itself first, so that only the first
    # batches pay for dropping a vertex paired with itself
    first = np.flatnonzero(near & upper)
    first = first[np.argsort(first % (leaves + 1) != 0, kind="stable")]
    found, nan_rows = [], []
    for start in range(0, len(first), per):
        r, d, df, a, b = ratios(first[start : start + per])
        near_pairs = np.flatnonzero(d <= radius)
        bad = near_pairs[df[near_pairs] > C * d[near_pairs] + tol]
        if bad.size:
            i, j = pairs(bad, a, b)
            found.append((i * nv + j, r[bad]))
        top = r.max()
        if np.isnan(top):
            nan_rows.append(pairs(np.flatnonzero(np.isnan(r)), a, b)[0])
        elif not nan_rows:
            offer(r, top, a, b)
    skip = None
    if nan_rows:  # a row holding a NaN ratio offers no witness: sweep again without it
        skip = np.unique(np.concatenate(nan_rows))
        best, witness = 0.0, (0, 0)
        for start in range(0, len(first), per):
            r, _, _, a, b = ratios(first[start : start + per], skip)
            offer(r, r.max(), a, b)
    # phase 2: the other leaf pairs by falling bound, while the bound reaches
    # the largest ratio found
    rest = np.flatnonzero(~near & upper)
    rest = rest[(bound[rest] >= best) & (bound[rest] > 0)]
    rest = rest[np.argsort(-bound[rest])]
    for start in range(0, len(rest), per):
        batch = rest[start : start + per]
        batch = batch[bound[batch] >= best]
        if not batch.size:
            break
        r, _, _, a, b = ratios(batch, skip)
        offer(r, r.max(), a, b)
    violations: tuple = ()
    if found:
        keys, ratio = (np.concatenate(parts) for parts in zip(*found))
        keys, at = np.unique(keys, return_index=True)  # a short leaf repeats pairs
        violations = tuple(zip((keys // nv).tolist(), (keys % nv).tolist(), ratio[at].tolist()))
    return violations, best, witness


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

    The pairs are scanned by pairs of kd leaves, and a leaf pair whose
    proved bound lies below a ratio already measured is skipped (see
    ``_lipschitz_scan``); the report is the one of a full scan in row-major
    order.  The first call on a sample builds the leaves and keeps them on
    it (``SetSample.kd_leaves``).  Violations are sorted by (i, j).  The
    witness is the first pair in row-major order with the largest ratio
    |f(x_j) - f(x_i)| / |x_j - x_i|, and (0, 0) when every
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
    violations, l_glob, witness = _lipschitz_scan(sample, f.values, radius, C, tol)
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
