"""Path integration of covector fields and first-order remainder checks.

Core identities handled here, in discrete form on a sample:

* fundamental theorem along paths: f(end) - f(start) equals the integral of
  the covector field along the path whenever the field matches the
  directional derivatives of f;
* first-order remainder bound: |f(y) - f(x) - A(x)(y-x)| is at most
  k |x-y| times the oscillation of A on the ball of radius k |x-y| around x,
  where k is an admissible chord-arc constant;
* reconstruction of f from A by integrating along shortest paths, with a
  loop-defect warning when A is not a discrete gradient;
* affine rigidity (constant A forces f affine) and Holder-modulus fits.

Covector samples are linearly interpolated along edges, which makes the
trapezoid rule exact for the interpolant; quadrature error enters only
through the sampling of the field itself.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import BuildError, PathError, UndersampledError
from .fields import CovectorField, ScalarField, require_same_sample
from .geometry import SCHEMA_VERSION, PolylinePath, SetSample
from .metric import _check_vertex, predecessor_array

#: bucket sups below this are treated as exactly zero in modulus fits
_EXACT_TOL = 1e-13


def _fsum(parts: Sequence) -> float | complex:
    """Correctly rounded sum; order independent, complex aware."""
    if any(isinstance(p, complex) for p in parts):
        return complex(
            math.fsum(p.real if isinstance(p, complex) else p for p in parts),
            math.fsum(p.imag if isinstance(p, complex) else 0.0 for p in parts),
        )
    return math.fsum(parts)


def path_integral(
    A: CovectorField,
    path: PolylinePath,
    rule: str = "trapezoid",
    subdivisions: int = 1,
) -> float | complex:
    """Integrate a covector field along a polyline path.

    Per straight segment [u, v] the field is linearly interpolated between
    its endpoint samples and applied to the displacement v - u.  The
    trapezoid rule integrates the interpolant exactly; the midpoint rule
    with ``subdivisions`` pieces is provided as an alternative quadrature.
    Reversing the path negates the result exactly.
    """
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
                t = (q + 0.5) / subdivisions
                a_mid = (1.0 - t) * cov[u] + t * cov[v]
                val = a_mid @ (dp / subdivisions)
                acc.append(complex(val) if A.is_complex else float(val))
            parts.append(_fsum(acc))
    return _fsum(parts)


def verify_ftc(f: ScalarField, A: CovectorField, path: PolylinePath) -> float:
    """Residual |f(end) - f(start) - integral of A along the path|."""
    require_same_sample(f, A, path)
    start, end = path.vertices[0], path.vertices[-1]
    return float(abs(f.values[end] - f.values[start] - path_integral(A, path)))


def loop_defect(A: CovectorField, cycle: PolylinePath) -> float | complex:
    """Integral of A around a closed path; zero for discrete gradients."""
    if not cycle.is_closed:
        raise PathError("loop_defect needs a closed path (equal first and last vertex)")
    return path_integral(A, cycle)


def _trapezoid_edge(pts: np.ndarray, cov: np.ndarray, u: int, v: int):
    return 0.5 * (cov[u] + cov[v]) @ (pts[v] - pts[u])


def reconstruct(
    sample: SetSample,
    A: CovectorField,
    basepoint: int,
    base_value: float = 0.0,
    defect_tol: float = 1e-9,
) -> ScalarField:
    """Integrate A from a basepoint along shortest paths to every vertex.

    Deterministic given the shortest-path tie rule.  If the worst loop
    defect over the fundamental cycles of the shortest-path tree exceeds
    ``defect_tol``, the returned field carries a non-integrability warning.
    """
    require_same_sample(sample, A)
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
    tree = {(min(v, int(pred[v])), max(v, int(pred[v])))
            for v in range(sample.vertex_count) if v != basepoint}
    worst = 0.0
    for i, j, _ in sample.edges:
        if (min(i, j), max(i, j)) in tree:
            continue
        defect = abs(values[i] + _trapezoid_edge(pts, cov, i, j) - values[j])
        worst = max(worst, float(defect))
    warning = None
    if worst > defect_tol:
        warning = f"non-integrable: max loop defect {worst:.6e} exceeds {defect_tol:.1e}"
    return ScalarField(sample, values, warning=warning)


def whitney_remainder(f: ScalarField, A: CovectorField, x: int, y: int) -> float:
    """First-order Taylor remainder |f(y) - f(x) - A(x)(y - x)|."""
    sample = require_same_sample(f, A)
    for v in (x, y):
        _check_vertex(sample, v)
    pts = sample.points_array
    return float(abs(f.values[y] - f.values[x] - A.covectors[x] @ (pts[y] - pts[x])))


def oscillation(A: CovectorField, x: int, radius: float) -> float:
    """Sup of |A(w) - A(x)| over sample points w in the closed ball around x."""
    if radius < 0:
        raise BuildError("radius must be nonnegative")
    _check_vertex(A.sample, x)
    pts = A.sample.points_array
    d = np.linalg.norm(pts - pts[x], axis=1)
    mask = d <= radius
    return float(np.max(np.linalg.norm(A.covectors[mask] - A.covectors[x], axis=1)))


@dataclass(frozen=True)
class RemainderBoundReport:
    k: float
    tol: float
    pair_count: int
    violations: tuple[tuple[int, int, float, float], ...]
    max_ratio: float
    max_ratio_pair: tuple[int, int]
    passed: bool
    # per unordered pair, the direction with the larger lhs - rhs slack
    pair_dist: np.ndarray = field(repr=False, compare=False, default=None)
    pair_remainder: np.ndarray = field(repr=False, compare=False, default=None)
    pair_bound: np.ndarray = field(repr=False, compare=False, default=None)
    pair_index: np.ndarray = field(repr=False, compare=False, default=None)

    def as_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "k": self.k,
            "tol": self.tol,
            "pair_count": self.pair_count,
            "violation_count": len(self.violations),
            "violations": [[i, j, lhs, rhs] for i, j, lhs, rhs in self.violations[:50]],
            "max_ratio": self.max_ratio,
            "max_ratio_pair": list(self.max_ratio_pair),
            "passed": self.passed,
        }


def verify_remainder_bound(
    f: ScalarField,
    A: CovectorField,
    sample: SetSample | None = None,
    k: float = 1.0,
    tol: float = 1e-9,
) -> RemainderBoundReport:
    """Check the remainder bound for every ordered vertex pair.

    For each pair (x, y) the remainder |f(y) - f(x) - A(x)(y-x)| must stay
    below k |x-y| times the oscillation of A over the closed ball of radius
    k |x-y| around x, plus ``tol``.  The caller must pass an admissible k
    (at least the chord-arc constant of the sample).

    Each source row x is evaluated as whole arrays over y, with these
    deterministic tie rules:

    * ``max_ratio`` only moves on a strictly larger ratio, so the first
      pair in row-major (x, y) order wins a tie; a zero bound gives ratio
      inf for a nonzero remainder and 0 otherwise, and a NaN ratio never
      wins;
    * per unordered pair {i < j} the buffers keep the direction with the
      strictly larger slack lhs - rhs, so (i, j) wins a slack tie;
    * violations are listed in sorted (x, y) order.
    """
    if sample is None:
        sample = f.sample
    require_same_sample(sample, f, A)
    pts = sample.points_array
    vals = f.values
    cov = A.covectors
    nv = sample.vertex_count
    violations: list[tuple[int, int, float, float]] = []
    max_ratio = 0.0
    max_pair = (0, 0)
    # per unordered pair, keep the direction with the larger slack
    n_unordered = nv * (nv - 1) // 2
    up_d = np.zeros(n_unordered)
    up_rem = np.zeros(n_unordered)
    up_bound = np.zeros(n_unordered)
    up_idx = np.zeros((n_unordered, 2), dtype=int)
    up_slack = np.full(n_unordered, -np.inf)
    # the unordered pair {i < j} sits at row_base[i] + j in row-major
    # upper-triangle order
    ar = np.arange(nv)
    row_base = ar * nv - ar * (ar + 1) // 2 - ar - 1

    for x in range(nv):
        d = np.linalg.norm(pts - pts[x], axis=1)
        osc_all = np.linalg.norm(cov - cov[x], axis=1)
        order = np.argsort(d, kind="stable")
        prefix = np.maximum.accumulate(osc_all[order])
        d_sorted = d[order]
        radius = k * d
        pos = np.searchsorted(d_sorted, radius, side="right") - 1
        osc = prefix[np.maximum(pos, 0)]
        lhs = np.abs(vals - vals[x] - (pts - pts[x]) @ cov[x])
        rhs = k * d * osc

        bad = np.nonzero(lhs > rhs + tol)[0]
        bad = bad[bad != x]
        violations.extend(zip([x] * len(bad), bad.tolist(),
                              lhs[bad].tolist(), rhs[bad].tolist()))

        # the diagonal y = x has lhs = rhs = 0 and so ratio 0
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(rhs > 0, lhs / rhs, np.where(lhs > 0, np.inf, 0.0))
        ratio[np.isnan(ratio)] = 0.0
        best = int(np.argmax(ratio))
        if ratio[best] > max_ratio:
            max_ratio = float(ratio[best])
            max_pair = (x, best)

        # the y > x entries are the pair's first visit, the y < x entries
        # the second; either replaces the stored direction only on a
        # strictly larger slack
        slack = lhs - rhs
        for keys, ys in ((row_base[x] + ar[x + 1 :], ar[x + 1 :]),
                         (row_base[:x] + x, ar[:x])):
            take = slack[ys] > up_slack[keys]
            keys, ys = keys[take], ys[take]
            up_slack[keys] = slack[ys]
            up_d[keys] = d[ys]
            up_rem[keys] = lhs[ys]
            up_bound[keys] = rhs[ys]
            up_idx[keys, 0] = x
            up_idx[keys, 1] = ys
    violations.sort()
    return RemainderBoundReport(
        k=float(k),
        tol=float(tol),
        pair_count=nv * (nv - 1),
        violations=tuple(violations),
        max_ratio=max_ratio,
        max_ratio_pair=max_pair,
        passed=not violations,
        pair_dist=up_d,
        pair_remainder=up_rem,
        pair_bound=up_bound,
        pair_index=up_idx,
    )


@dataclass(frozen=True)
class AffineRigidityReport:
    hypothesis_ok: bool
    covector_spread: float
    intercept: float
    gradient: tuple[float, ...]
    max_residual: float
    passed: bool

    def as_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "hypothesis_ok": self.hypothesis_ok,
            "covector_spread": self.covector_spread,
            "intercept": self.intercept,
            "gradient": list(self.gradient),
            "max_residual": self.max_residual,
            "passed": self.passed,
        }


def affine_rigidity_test(
    sample: SetSample,
    f: ScalarField,
    A: CovectorField,
    tol: float = 1e-9,
    tol_out: float = 1e-9,
) -> AffineRigidityReport:
    """Check that a constant covector field forces f to be affine.

    The hypothesis (A constant over the sample to within ``tol``) is
    measured as the largest deviation from the mean covector.  The field f
    is then least-squares fitted by b + <c, x>; the test passes when the
    hypothesis holds and the sup-norm fit residual is at most ``tol_out``.
    """
    require_same_sample(sample, f, A)
    spread = float(np.max(np.linalg.norm(A.covectors - A.covectors.mean(axis=0), axis=1)))
    hypothesis_ok = spread <= tol
    pts = sample.points_array
    design = np.hstack([np.ones((sample.vertex_count, 1)), pts])
    beta, *_ = np.linalg.lstsq(design, f.values, rcond=None)
    residual = float(np.max(np.abs(f.values - design @ beta)))
    return AffineRigidityReport(
        hypothesis_ok=hypothesis_ok,
        covector_spread=spread,
        intercept=float(np.real(beta[0])),
        gradient=tuple(float(np.real(b)) for b in beta[1:]),
        max_residual=residual,
        passed=hypothesis_ok and residual <= tol_out,
    )


# ---------------------------------------------------------------------------
# dyadic-scale moduli


@dataclass(frozen=True)
class BucketStat:
    octave: int
    scale: float
    remainder_ratio_sup: float
    covector_osc_sup: float
    count: int

    def as_dict(self) -> dict:
        return {
            "octave": self.octave,
            "scale": self.scale,
            "remainder_ratio_sup": self.remainder_ratio_sup,
            "covector_osc_sup": self.covector_osc_sup,
            "count": self.count,
        }


def pair_modulus_profile(
    f: ScalarField, A: CovectorField, min_pairs: int = 8
) -> tuple[BucketStat, ...]:
    """Dyadic-distance profile of remainder ratios and covector oscillation.

    Pairs are bucketed by the octave floor(log2 |x-y|).  Each bucket records
    the sup over its pairs of remainder/|x-y| (worse of the two directions)
    and of |A(x) - A(y)|.  Buckets with fewer than ``min_pairs`` pairs are
    dropped.
    """
    sample = require_same_sample(f, A)
    pts = sample.points_array
    vals = f.values
    cov = A.covectors
    nv = sample.vertex_count
    offset = 80
    nbuckets = 161
    sup_ratio = np.zeros(nbuckets)
    sup_da = np.zeros(nbuckets)
    counts = np.zeros(nbuckets, dtype=int)
    for i in range(nv - 1):
        diff = pts[i + 1 :] - pts[i]
        d = np.linalg.norm(diff, axis=1)
        rem_fwd = np.abs(vals[i + 1 :] - vals[i] - diff @ cov[i])
        rem_bwd = np.abs(vals[i] - vals[i + 1 :] + np.einsum("ij,ij->i", diff, cov[i + 1 :]))
        ratio = np.maximum(rem_fwd, rem_bwd) / d
        da = np.linalg.norm(cov[i + 1 :] - cov[i], axis=1)
        octv = np.clip(np.floor(np.log2(d)).astype(int) + offset, 0, nbuckets - 1)
        np.maximum.at(sup_ratio, octv, ratio)
        np.maximum.at(sup_da, octv, da)
        np.add.at(counts, octv, 1)
    stats = [
        BucketStat(m - offset, 2.0 ** (m - offset), float(sup_ratio[m]),
                   float(sup_da[m]), int(counts[m]))
        for m in range(nbuckets)
        if counts[m] >= min_pairs
    ]
    return tuple(stats)


@dataclass(frozen=True)
class ModulusReport:
    """Log-log power fit C * scale^alpha to per-octave sup data.

    ``alpha_hat`` is the fitted exponent capped into (0, 1.01]; the uncapped
    slope is kept in ``slope_raw``.  When every sup is at machine zero the
    data is flagged ``exact`` and no fit is attempted.
    """

    quantity: str
    exact: bool
    alpha_hat: float | None
    constant_hat: float | None
    slope_raw: float | None
    fit_residual: float | None
    scales: tuple[tuple[float, float, int], ...]

    def as_dict(self) -> dict:
        return {
            "quantity": self.quantity,
            "exact": self.exact,
            "alpha_hat": self.alpha_hat,
            "constant_hat": self.constant_hat,
            "slope_raw": self.slope_raw,
            "fit_residual": self.fit_residual,
            "scales": [list(s) for s in self.scales],
        }


@dataclass(frozen=True)
class HolderFit:
    remainder: ModulusReport
    differential: ModulusReport

    def as_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "remainder": self.remainder.as_dict(),
            "differential": self.differential.as_dict(),
        }


def _fit_modulus(quantity: str, scales: np.ndarray, sups: np.ndarray,
                 counts: np.ndarray) -> ModulusReport:
    triples = tuple(
        (float(s), float(v), int(c)) for s, v, c in zip(scales, sups, counts)
    )
    if np.max(sups) <= _EXACT_TOL:
        return ModulusReport(quantity, True, None, None, None, None, triples)
    keep = sups > _EXACT_TOL
    xs = np.log(scales[keep])
    ys = np.log(sups[keep])
    slope, intercept = np.polyfit(xs, ys, 1)
    resid = float(np.max(np.abs(ys - (slope * xs + intercept))))
    alpha = float(min(max(slope, 1e-9), 1.01))
    return ModulusReport(
        quantity, False, alpha, float(np.exp(intercept)), float(slope), resid, triples
    )


def fit_holder_modulus(
    f: ScalarField,
    A: CovectorField,
    sample: SetSample | None = None,
    k: float = 1.0,
    min_pairs: int = 8,
) -> HolderFit:
    """Fit Holder exponents of the remainder modulus and of A itself.

    Remainder data is sup over pairs at each dyadic scale of
    remainder/(k |x-y|); the covector data is sup |A(x)-A(y)|.  At least
    three populated octaves are required.
    """
    if sample is None:
        sample = f.sample
    require_same_sample(sample, f, A)
    profile = pair_modulus_profile(f, A, min_pairs=min_pairs)
    if len(profile) < 3:
        raise UndersampledError(
            f"only {len(profile)} populated scale buckets, need at least 3"
        )
    scales = np.array([b.scale for b in profile])
    counts = np.array([b.count for b in profile])
    rem = np.array([b.remainder_ratio_sup for b in profile]) / k
    da = np.array([b.covector_osc_sup for b in profile])
    return HolderFit(
        remainder=_fit_modulus("remainder", scales, rem, counts),
        differential=_fit_modulus("differential", scales, da, counts),
    )


def discrete_gradient(sample: SetSample, f: ScalarField) -> CovectorField:
    """Lift per-edge differences of f to vertex covectors by least squares.

    Solves the global system asking the trapezoid edge integral of the
    lifted field to reproduce f's difference across every edge.  On samples
    with more vertex unknowns than edges the system is consistent and the
    reconstruction round-trip is exact up to rounding.
    """
    require_same_sample(sample, f)
    pts = sample.points_array
    nv, n = sample.vertex_count, sample.ambient_dim
    ne = sample.edge_count
    design = np.zeros((ne, nv * n))
    rhs = np.empty(ne, dtype=f.values.dtype)
    for row, (u, v, _) in enumerate(sample.edges):
        half = 0.5 * (pts[v] - pts[u])
        design[row, u * n : u * n + n] = half
        design[row, v * n : v * n + n] = half
        rhs[row] = f.values[v] - f.values[u]
    if np.iscomplexobj(rhs):
        sol_re, *_ = np.linalg.lstsq(design, rhs.real, rcond=None)
        sol_im, *_ = np.linalg.lstsq(design, rhs.imag, rcond=None)
        sol = sol_re + 1j * sol_im
    else:
        sol, *_ = np.linalg.lstsq(design, rhs, rcond=None)
    return CovectorField(sample, sol.reshape(nv, n))
