"""Independent reference computations used to check qcalc's outputs.

Nothing here imports qcalc.  Geodesics come from scipy.sparse.csgraph,
pair scans are numpy brute force over dense pair matrices, and the
Clifford product is recomputed from blade bitmasks.  Every check returns
None when the output is right and a one-line reason when it is not.
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, dijkstra

REL = 1e-9      # relative agreement for floats computed in a different order
ABS = 1e-12     # absolute agreement for quantities of order one


def close(a, b, rel=REL, abs_=ABS) -> bool:
    if isinstance(a, float) and isinstance(b, float) and math.isinf(a) and math.isinf(b):
        return a == b
    return math.isclose(float(a), float(b), rel_tol=rel, abs_tol=abs_)


class Graph:
    """Points and edges read from a sample document, with a CSR adjacency."""

    def __init__(self, doc: dict):
        self.points = np.asarray(doc["points"], dtype=float)
        edges = doc["edges"]
        self.edges = np.asarray([e[:2] for e in edges], dtype=int).reshape(-1, 2)
        self.lengths = np.asarray([e[2] for e in edges], dtype=float)
        self.nv = len(self.points)
        self.edge_set = {(min(i, j), max(i, j)) for i, j in self.edges.tolist()}
        i, j = self.edges[:, 0], self.edges[:, 1]
        self.csr = csr_matrix(
            (np.concatenate([self.lengths, self.lengths]),
             (np.concatenate([i, j]), np.concatenate([j, i]))),
            shape=(self.nv, self.nv),
        )

    def distances(self, sources) -> np.ndarray:
        return dijkstra(self.csr, directed=False, indices=np.asarray(sources, dtype=int))

    def pair_distances(self) -> np.ndarray:
        diff = self.points[None, :, :] - self.points[:, None, :]
        return np.linalg.norm(diff, axis=2)


def check_sample_doc(doc: dict, nv: int | None = None, ne: int | None = None) -> str | None:
    """Structure of a built sample: counts, stored lengths, connectivity."""
    if doc.get("version") != 1:
        return f"version {doc.get('version')!r}"
    g = Graph(doc)
    if nv is not None and g.nv != nv:
        return f"{g.nv} vertices, expected {nv}"
    if ne is not None and len(g.edges) != ne:
        return f"{len(g.edges)} edges, expected {ne}"
    eu = np.linalg.norm(g.points[g.edges[:, 1]] - g.points[g.edges[:, 0]], axis=1)
    if not np.allclose(g.lengths, eu, rtol=1e-12, atol=0):
        return "stored edge lengths differ from endpoint distances"
    if connected_components(g.csr, directed=False)[0] != 1:
        return "sample is not connected"
    return None


# ---------------------------------------------------------------------------
# chord-arc constant and geodesics


def pair_ratios(g: Graph) -> np.ndarray:
    """Geodesic/Euclidean ratio of every vertex pair (diagonal 0)."""
    dist = g.distances(np.arange(g.nv))
    eu = g.pair_distances()
    np.fill_diagonal(eu, 1.0)
    return dist / eu


def chord_arc_exhaustive(g: Graph) -> float:
    """Largest geodesic/Euclidean ratio over all vertex pairs."""
    return float(np.max(pair_ratios(g)))


def sampled_pairs(nv: int, seed: int, budget: int) -> dict[int, np.ndarray]:
    """The seeded pair sample that ``k-estimate --sample`` documents."""
    rng = np.random.default_rng(seed)
    a = rng.integers(0, nv, size=budget)
    b = (a + 1 + rng.integers(0, nv - 1, size=budget)) % nv
    pairs = sorted(set(zip(np.minimum(a, b).tolist(), np.maximum(a, b).tolist())))
    out: dict[int, list[int]] = {}
    for i, j in pairs:
        out.setdefault(i, []).append(j)
    return {i: np.array(js) for i, js in out.items()}


def chord_arc_over(g: Graph, pairs: dict[int, np.ndarray]) -> tuple[float, dict]:
    """Max ratio over the given pairs, plus the ratio of every pair."""
    sources = sorted(pairs)
    dist = g.distances(sources)
    ratio_of = {}
    best = -math.inf
    for row, i in enumerate(sources):
        js = pairs[i]
        r = dist[row, js] / np.linalg.norm(g.points[js] - g.points[i], axis=1)
        best = max(best, float(np.max(r)))
        ratio_of.update({(i, int(j)): float(x) for j, x in zip(js, r)})
    return best, ratio_of


def check_k_estimate(doc: dict, k_hat: float, pair_count: int, witness_ratio) -> str | None:
    if not close(doc["k_hat"], k_hat, rel=1e-12):
        return f"k_hat {doc['k_hat']!r}, oracle {k_hat!r}"
    if doc["pair_count"] != pair_count:
        return f"pair_count {doc['pair_count']}, expected {pair_count}"
    i, j = doc["witness_pair"]
    if not close(witness_ratio(i, j), k_hat, rel=1e-12):
        return f"witness pair {i},{j} does not attain k_hat"
    return None


def lipschitz_and_chord_arc(g: Graph, f: np.ndarray, radius: float,
                            block: int = 256) -> tuple[float, float, float]:
    """Largest |f(x) - f(y)| / |x - y| over pairs within ``radius`` and over
    all pairs, and the chord-arc constant; row blocks keep memory small."""
    local = glob = k = 0.0
    for lo in range(0, g.nv, block):
        xs = np.arange(lo, min(lo + block, g.nv))
        d = np.linalg.norm(g.points[None, :, :] - g.points[xs, None, :], axis=2)
        upper = xs[:, None] < np.arange(g.nv)[None, :]
        ratio = np.abs(f[None, :] - f[xs, None])[upper] / d[upper]
        local = max(local, float(np.max(ratio[d[upper] <= radius], initial=0.0)))
        glob = max(glob, float(np.max(ratio, initial=0.0)))
        k = max(k, float(np.max(g.distances(xs)[upper] / d[upper], initial=0.0)))
    return local, glob, k


def check_path(g: Graph, verts: list, i: int, j: int, dist: float,
               length: float | None = None) -> str | None:
    if not verts or verts[0] != i or verts[-1] != j:
        return f"path does not run from {i} to {j}"
    if any((min(u, v), max(u, v)) not in g.edge_set for u, v in zip(verts, verts[1:])):
        return "path uses a non-edge"
    walked = math.fsum(float(np.linalg.norm(g.points[v] - g.points[u]))
                       for u, v in zip(verts, verts[1:]))
    if not close(walked, dist):
        return f"path length {walked!r} is not the geodesic distance {dist!r}"
    if length is not None and not close(length, dist):
        return f"reported length {length!r}, oracle {dist!r}"
    return None


def trapezoid_residual(g: Graph, f: np.ndarray, A: np.ndarray, verts: list) -> float:
    """|f(end) - f(start) - sum of trapezoid integrals of A along the chain|."""
    v = np.asarray(verts)
    dp = g.points[v[1:]] - g.points[v[:-1]]
    mids = 0.5 * (A[v[1:]] + A[v[:-1]])
    return abs(f[v[-1]] - f[v[0]] - math.fsum(np.einsum("ij,ij->i", mids, dp)))


# ---------------------------------------------------------------------------
# remainder bound


def _lhs(P, f, A, xs):
    # |f(y) - f(x) - A(x)(y - x)| for rows x in xs, all y
    return np.abs(f[None, :] - f[xs, None]
                  - np.einsum("xyk,xk->xy", P[None, :, :] - P[xs, None, :], A[xs]))


def remainder_matrices(P, f, A, k, brute=False):
    """Per ordered pair (x, y): remainder lhs and bound rhs = k d osc.

    osc is the sup of |A(w) - A(x)| over |w - x| <= k |x - y|.  With
    ``brute`` it is taken directly over all w (cubic cost), else from a
    per-row sort and running maximum.
    """
    n = len(P)
    d = np.linalg.norm(P[None, :, :] - P[:, None, :], axis=2)
    da = np.linalg.norm(A[None, :, :] - A[:, None, :], axis=2)
    lhs = _lhs(P, f, A, np.arange(n))
    osc = np.empty((n, n))
    for x in range(n):
        if brute:
            inside = d[x][None, :] <= k * d[x][:, None]
            osc[x] = np.max(np.where(inside, da[x][None, :], 0.0), axis=1)
        else:
            order = np.argsort(d[x], kind="stable")
            run = np.maximum.accumulate(da[x][order])
            pos = np.searchsorted(d[x][order], k * d[x], side="right") - 1
            osc[x] = run[pos]
    return d, lhs, k * d * osc


def remainder_expectation(P, f, A, k, tol, brute=False) -> dict:
    d, lhs, rhs = remainder_matrices(P, f, A, k, brute)
    off = ~np.eye(len(P), dtype=bool)
    slack = lhs - rhs - tol
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(rhs > 0, lhs / rhs, np.where(lhs > 0, np.inf, 0.0))
    ratio[~off] = 0.0
    # one row per unordered pair: the direction with the larger lhs - rhs
    iu = np.triu_indices(len(P), 1)
    fwd = (lhs - rhs)[iu]
    bwd = (lhs - rhs).T[iu]
    take_bwd = bwd > fwd
    return {
        "lhs": lhs, "rhs": rhs, "ratio": ratio,
        "violations_min": int(np.sum((slack > 2 * ABS) & off)),
        "violations_max": int(np.sum((slack > -2 * ABS) & off)),
        "max_ratio": float(np.max(ratio)),
        "csv_rows": len(iu[0]),
        "csv_dist_sorted": np.sort(d[iu]),
        "csv_max_slack": float(np.max(np.maximum(fwd, bwd))),
        "csv_rem_sum": float(np.sum(np.where(take_bwd, lhs.T[iu], lhs[iu]))),
    }


def check_remainder(doc: dict, exit_code: int, exp: dict, k: float) -> str | None:
    n_viol = doc["violation_count"]
    if not exp["violations_min"] <= n_viol <= exp["violations_max"]:
        return (f"violation_count {n_viol}, oracle "
                f"{exp['violations_min']}..{exp['violations_max']}")
    if doc["passed"] != (n_viol == 0) or exit_code != (0 if n_viol == 0 else 1):
        return "passed flag or exit status disagrees with the violation count"
    mr = doc["max_ratio"]
    if not close(mr, exp["max_ratio"]):
        return f"max_ratio {mr!r}, oracle {exp['max_ratio']!r}"
    x, y = doc["max_ratio_pair"]
    if not close(exp["ratio"][x, y], mr):
        return f"max_ratio_pair {x},{y} does not attain max_ratio"
    for x, y, l, r in doc["violations"]:
        if not (close(exp["lhs"][x, y], l) and close(exp["rhs"][x, y], r)):
            return f"violation ({x},{y}) reports lhs/rhs {l!r}/{r!r}"
    if doc["k"] != k:
        return f"k {doc['k']!r}, asked {k!r}"
    return None


def check_pairs_csv(text: str, exp: dict) -> str | None:
    lines = text.splitlines()
    if lines[0] != "dist,remainder,bound" or len(lines) - 1 != exp["csv_rows"]:
        return f"csv has {len(lines) - 1} rows, expected {exp['csv_rows']}"
    rows = np.array([[float(c) for c in ln.split(",")] for ln in lines[1:]])
    if np.any(np.diff(rows[:, 0]) < 0):
        return "csv rows are not sorted by distance"
    if not np.allclose(rows[:, 0], exp["csv_dist_sorted"], rtol=1e-12, atol=0):
        return "csv distances differ from the pair distances"
    if not close(float(np.max(rows[:, 1] - rows[:, 2])), exp["csv_max_slack"]):
        return "csv worst slack differs from the oracle"
    if not close(float(np.sum(rows[:, 1])), exp["csv_rem_sum"], rel=1e-9, abs_=1e-9):
        return "csv remainder column sum differs from the oracle"
    return None


# ---------------------------------------------------------------------------
# dyadic pair-modulus profile (holder-fit, whitney)


def modulus_profile(P, f, A, min_pairs=8, block=256) -> list[tuple[float, float, float, int]]:
    """(scale, sup remainder/|x-y|, sup |A(x)-A(y)|, count) per populated octave."""
    n = len(P)
    offset, nb = 80, 161
    sup_r = np.zeros(nb)
    sup_a = np.zeros(nb)
    cnt = np.zeros(nb, dtype=np.int64)
    for lo in range(0, n, block):
        xs = np.arange(lo, min(lo + block, n))
        diff = P[None, :, :] - P[xs, None, :]
        d = np.linalg.norm(diff, axis=2)
        fwd = np.abs(f[None, :] - f[xs, None] - np.einsum("xyk,xk->xy", diff, A[xs]))
        bwd = np.abs(f[xs, None] - f[None, :] + np.einsum("xyk,yk->xy", diff, A))
        da = np.linalg.norm(A[None, :, :] - A[xs, None, :], axis=2)
        upper = xs[:, None] < np.arange(n)[None, :]
        d, r, da = d[upper], np.maximum(fwd, bwd)[upper] / d[upper], da[upper]
        octv = np.clip(np.floor(np.log2(d)).astype(int) + offset, 0, nb - 1)
        for m in range(octv.min(), octv.max() + 1):
            inside = octv == m
            if inside.any():
                sup_r[m] = max(sup_r[m], r[inside].max())
                sup_a[m] = max(sup_a[m], da[inside].max())
        cnt += np.bincount(octv, minlength=nb)
    return [(2.0 ** (m - offset), float(sup_r[m]), float(sup_a[m]), int(cnt[m]))
            for m in range(nb) if cnt[m] >= min_pairs]


def _power_fit(scales, sups):
    """Least-squares line through (log scale, log sup), written out by hand."""
    keep = sups > 1e-13
    x, y = np.log(scales[keep]), np.log(sups[keep])
    xm, ym = x.mean(), y.mean()
    slope = float(np.sum((x - xm) * (y - ym)) / np.sum((x - xm) ** 2))
    icpt = ym - slope * xm
    return slope, math.exp(icpt), float(np.max(np.abs(y - (slope * x + icpt))))


def check_holder(doc: dict, profile, k: float) -> str | None:
    scales = np.array([p[0] for p in profile])
    for key, col, scale_by in (("remainder", 1, 1.0 / k), ("differential", 2, 1.0)):
        rep = doc[key]
        sups = np.array([p[col] for p in profile]) * scale_by
        got = rep["scales"]
        if [c for _, _, c in got] != [p[3] for p in profile]:
            return f"{key}: bucket counts differ from the oracle"
        if not np.allclose([s for _, s, _ in got], sups, rtol=REL, atol=ABS):
            return f"{key}: bucket sups differ from the oracle"
        slope, const, resid = _power_fit(scales, sups)
        if not (close(rep["slope_raw"], slope, rel=1e-7)
                and close(rep["constant_hat"], const, rel=1e-7)
                and close(rep["fit_residual"], resid, rel=1e-6, abs_=1e-9)):
            return f"{key}: power fit differs from the oracle"
    return None


def whitney_verdict(profile, buckets: int, slack: float, threshold: float):
    """The buckets the C1 check looks at, and whether it passes."""
    chosen = profile[: max(3, min(buckets, len(profile)))]
    ratios = [c[1] for c in chosen[:3]]
    decay = all(ratios[i] <= ratios[i + 1] * (1 + slack) + 1e-12 for i in range(2))
    return chosen, decay and chosen[0][1] <= threshold


def check_whitney(doc: dict, exit_code: int, profile, buckets: int, slack: float,
                  threshold: float) -> str | None:
    chosen, passed = whitney_verdict(profile, buckets, slack, threshold)
    got = doc["buckets"]
    if len(got) != len(chosen):
        return f"{len(got)} buckets, oracle {len(chosen)}"
    for (s, r, c), (os_, or_, _, oc) in zip(got, chosen):
        if s != os_ or c != oc or not close(r, or_):
            return f"bucket at scale {s!r} differs from the oracle"
    if doc["passed"] != passed or exit_code != (0 if passed else 1):
        return f"passed {doc['passed']}, oracle {passed}"
    return None


# ---------------------------------------------------------------------------
# local checks on small samples


def check_flatness(doc: dict, g: Graph, x: int, radius: float) -> str | None:
    idx = np.nonzero(np.linalg.norm(g.points - g.points[x], axis=1) <= radius)[0]
    q = (g.points[idx] - g.points[idx].mean(axis=0)) / radius
    s = np.linalg.svd(q, compute_uv=False)
    if not np.allclose(doc["singular_values"], s, rtol=1e-9, atol=1e-12):
        return "singular values differ from the oracle"
    if not close(doc["flatness_score"], s[-1] / s[0], rel=1e-9, abs_=1e-12):
        return "flatness score differs from the oracle"
    return None


def graph_derivative_residual(P, f: np.ndarray, a: np.ndarray) -> tuple[float, float]:
    """Worst centered tangential residual and the grid step, for complex f, a."""
    x = P[:, 0]
    z = x + 1j * P[:, 1]
    dx = x[2:] - x[:-2]
    res = np.abs((f[2:] - f[:-2]) / dx - a[1:-1] * (z[2:] - z[:-2]) / dx)
    return float(np.max(res)), float(np.max(np.diff(x)))


# ---------------------------------------------------------------------------
# Clifford algebra Cl_n with e_i^2 = -1, blades as bitmasks


@lru_cache(maxsize=None)
def glex_masks(n: int) -> tuple[int, ...]:
    def bits(m):
        return [i for i in range(n) if m >> i & 1]
    return tuple(sorted(range(1 << n), key=lambda m: (bin(m).count("1"), bits(m))))


def blade_product(a: int, b: int) -> tuple[int, int]:
    """(sign, mask) of e_A e_B: one sign per transposition and per e_i^2."""
    swaps = sum(bin(a >> (j + 1)).count("1") for j in range(b.bit_length()) if b >> j & 1)
    sign = -1 if (swaps + bin(a & b).count("1")) % 2 else 1
    return sign, a ^ b


@lru_cache(maxsize=None)
def _product_table(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Sign and glex index of e_A e_B for every pair of blades (A, B)."""
    masks = glex_masks(n)
    index = {m: i for i, m in enumerate(masks)}
    size = len(masks)
    sign = np.empty((size, size))
    where = np.empty((size, size), dtype=int)
    for i, ma in enumerate(masks):
        for j, mb in enumerate(masks):
            sign[i, j], m = blade_product(ma, mb)
            where[i, j] = index[m]
    return sign, where


def cl_product(n: int, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Geometric product of two coefficient vectors in glex blade order."""
    sign, where = _product_table(n)
    out = np.zeros(1 << n)
    np.add.at(out, where, sign * np.outer(x, y))
    return out


def cl_vector(n: int, i: int) -> np.ndarray:
    """Coefficients of the generator e_i (1-based)."""
    e = np.zeros(1 << n)
    e[glex_masks(n).index(1 << (i - 1))] = 1.0
    return e


def dirac_sum(n: int, cols: list, side: str) -> np.ndarray:
    acc = np.zeros(1 << n)
    for i, c in enumerate(cols, start=1):
        e = cl_vector(n, i)
        acc += cl_product(n, e, c) if side == "left" else cl_product(n, c, e)
    return acc


def complete_column(n: int, partial: list, side: str) -> np.ndarray:
    """The last column that makes the map monogenic: e_n^{-1} = -e_n."""
    acc = dirac_sum(n, partial, side)
    en = cl_vector(n, n)
    return cl_product(n, en, acc) if side == "left" else cl_product(n, acc, en)
