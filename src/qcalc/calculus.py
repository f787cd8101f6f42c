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
import numbers
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import BuildError, PathError, QcalcError, UndersampledError, require
from .fields import CovectorField, ScalarField
from .geometry import (PolylinePath, SetSample, _check_vertex, pair_blocks, report_dict,
                       require_same_sample, row_map, row_norms)


def __getattr__(name: str):
    # ``predecessor_array`` stays a name of this module, where perfbench's
    # tracer wraps it, though ``reconstruct`` imports it on use
    if name == "predecessor_array":
        from .metric import predecessor_array
        return predecessor_array
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


#: bucket sups below this are treated as exactly zero in modulus fits
_EXACT_TOL = 1e-13
#: ``affine_rigidity_test``'s bound on the covector spread and on the fit residual
_AFFINE_TOL = 1e-9
#: LSQR stopping tolerances of ``discrete_gradient`` (atol = btol)
_LSQR_TOL = 1e-14
#: LSQR iteration cap of ``discrete_gradient`` per vertex unknown
_LSQR_ITERS_PER_UNKNOWN = 4
#: vertex count from which ``verify_remainder_bound(pairs=False)`` and
#: ``pair_modulus_profile`` split their rows over ``geometry.worker_count()``
#: processes; gasket 5 (nv 366) with 36,571 violations ran slower split
SPLIT_MIN_ROWS = 1000


def _fsum(parts: Sequence) -> float | complex:
    """Correctly rounded sum; order independent, complex aware."""
    if any(isinstance(p, complex) for p in parts):
        return complex(math.fsum(p.real for p in parts), math.fsum(p.imag for p in parts))
    return math.fsum(parts)


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products of the rows of ``a`` with the rows of a 2-D ``b``,
    or with a 1-D ``b`` for every row, the one kernel for every A(x) . v.

    The products are added left to right as whole columns,
    ((a0 b0 + a1 b1) + a2 b2) + ..., each rounded once, so a result does not
    depend on the CPU's BLAS kernel; the final ``+ 0.0`` turns a -0.0 into
    0.0.  For n = 2 the sum of two products does not depend on their order,
    so swapping the coordinates keeps every result's bits.
    """
    acc = a[:, 0] * b[..., 0]
    for c in range(1, a.shape[1]):
        acc += a[:, c] * b[..., c]
    acc += 0.0
    return acc


def _edge_integrals(A: CovectorField, tails: np.ndarray, heads: np.ndarray) -> np.ndarray:
    """Trapezoid rule 0.5 (A(u) + A(v)) . (v - u) over each edge u = tails[e], v = heads[e]."""
    pts, cov = A.sample.points_array, A.covectors
    return _row_dots(0.5 * (cov[tails] + cov[heads]), pts[heads] - pts[tails])


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
    with ``subdivisions`` pieces (an integer of at least 1) is provided as
    an alternative quadrature.  Under either rule, reversing the path
    negates the result exactly.
    """
    sample = require_same_sample(A, path)
    if rule not in ("trapezoid", "midpoint"):
        raise BuildError(f"unknown quadrature rule {rule!r}")
    # True is an int to Python, and 2.5 or NaN would reach range() below
    whole = isinstance(subdivisions, numbers.Integral) and not isinstance(subdivisions, bool)
    if not whole or subdivisions < 1:
        raise BuildError(f"subdivisions must be an integer of at least 1, got {subdivisions!r}")
    verts = np.array(path.vertices)
    tails, heads = verts[:-1], verts[1:]
    if rule == "trapezoid":
        return _fsum(_edge_integrals(A, tails, heads).tolist())
    pts, cov, s = sample.points_array, A.covectors, subdivisions
    dp = (pts[heads] - pts[tails]) / s
    # piece s - 1 - q of the reversed segment gets these two weights swapped,
    # as the same floats: its value is negated
    pieces = [_row_dots((s - q - 0.5) / s * cov[tails] + (q + 0.5) / s * cov[heads], dp)
              for q in range(s)]
    return _fsum([_fsum(row) for row in np.stack(pieces, axis=1).tolist()])


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
    ``defect_tol``, the returned field carries a non-integrability warning;
    a ``defect_tol`` that is not finite raises a ``BuildError``.  The field
    is complex if ``A`` or ``base_value`` is.
    """
    require_same_sample(sample, A)
    require("defect_tol", defect_tol, "finite")
    require("base_value", base_value, "finite")
    from .metric import predecessor_array  # here, so that the pair scans skip metric
    dist, pred = predecessor_array(sample, basepoint)
    if not np.all(np.isfinite(dist)):
        raise PathError("sample must be connected for reconstruction")
    nv = sample.vertex_count
    # the step along tree edge pred[v] -> v; the basepoint's -1 gives an unused one
    steps, parent = _edge_integrals(A, pred, np.arange(nv)).tolist(), pred.tolist()
    dtype = np.result_type(A.covectors, base_value)  # complex if either is
    vals = [None] * nv
    vals[basepoint] = np.array(base_value, dtype=dtype).item()
    # a vertex can tie its predecessor's float distance, so fill in chain order:
    # walk up to a vertex that has a value, then fill the chain back down
    for v in range(nv):
        chain = []
        while vals[v] is None:
            chain.append(v)
            v = parent[v]
        for w in reversed(chain):
            vals[w] = vals[parent[w]] + steps[w]
    values = np.array(vals, dtype=dtype)
    i, j = sample.edge_ends
    off_tree = (pred[j] != i) & (pred[i] != j)
    i, j = i[off_tree], j[off_tree]
    defects = np.abs(values[i] + _edge_integrals(A, i, j) - values[j])
    worst = float(np.fmax.reduce(defects, initial=0.0))  # a NaN defect is skipped
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
    step = _row_dots(A.covectors[[x]], pts[y] - pts[x])[0]
    return float(abs(f.values[y] - f.values[x] - step))


def oscillation(A: CovectorField, x: int, radius: float) -> float:
    """Sup of |A(w) - A(x)| over sample points w in the closed ball around x."""
    require("radius", radius, "nonnegative")  # a NaN ball would hold no point, not even x
    _check_vertex(A.sample, x)
    pts = A.sample.points_array
    d = row_norms(pts - pts[x])
    mask = d <= radius
    return float(np.max(row_norms(A.covectors[mask] - A.covectors[x])))


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
        return report_dict(self, violations=self.violations[:50],
                           violation_count=len(self.violations))


def verify_remainder_bound(
    f: ScalarField,
    A: CovectorField,
    sample: SetSample | None = None,
    k: float = 1.0,
    tol: float = 1e-9,
    pairs: bool = True,
) -> RemainderBoundReport:
    """Check the remainder bound for every ordered vertex pair.

    For each pair (x, y) the remainder |f(y) - f(x) - A(x)(y-x)| must stay
    below k |x-y| times the oscillation of A over the closed ball of radius
    k |x-y| around x, plus ``tol``.  The caller must pass an admissible k
    (at least the chord-arc constant of the sample); a k that is not finite
    and positive, or a ``tol`` that is not finite, raises a ``BuildError``.

    Each source row x is evaluated as whole arrays over y, with these
    deterministic tie rules:

    * ``max_ratio`` only moves on a strictly larger ratio, so the first
      pair in row-major (x, y) order wins a tie; a zero bound gives ratio
      inf for a nonzero remainder and 0 otherwise, and a NaN ratio never
      wins;
    * per unordered pair {i < j} the buffers keep the direction with the
      strictly larger slack lhs - rhs, so (i, j) wins a slack tie;
    * violations are listed in sorted (x, y) order: the rows come back in
      order of x, and ``np.nonzero`` lists each row's y in ascending order.

    With ``pairs=True`` the report carries the per-unordered-pair buffers
    ``pair_dist``, ``pair_remainder``, ``pair_bound`` and ``pair_index``
    (about 48 bytes per unordered pair), which ``qcalc remainder-check
    --csv`` writes out.  With ``pairs=False`` they are neither allocated nor
    filled and are ``None``; every other field of the report is the same.
    Such a scan forks: from ``SPLIT_MIN_ROWS`` vertices on it splits
    its source rows over processes by ``geometry.row_map``, whose docstring
    says when that is unsafe.  The buffers are filled in place, so a scan
    with them runs in this process.
    """
    require("k", k, "finite and positive")
    require("tol", tol, "finite")  # a negative tol stays legal
    if sample is None:
        sample = f.sample
    require_same_sample(sample, f, A)
    pts = sample.points_array
    vals = f.values
    cov = A.covectors
    nv = sample.vertex_count
    up_d = up_rem = up_bound = up_idx = None
    if pairs:
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

    def scan_rows(xs):
        for x in xs:
            diff = pts - pts[x]
            d = row_norms(diff)
            osc_all = row_norms(cov - cov[x])
            # osc(y) is the prefix max of osc_all in order of distance, read at
            # the last point of the ball d <= k d(y): the order among equal
            # distances cannot change it, and the ball radii are looked up in
            # ascending order, which searchsorted walks faster
            order = np.argsort(d)
            prefix = np.maximum.accumulate(osc_all[order])
            d_sorted = d[order]
            radius = k * d
            pos = np.searchsorted(d_sorted, k * d_sorted, side="right") - 1
            osc = np.empty_like(prefix)
            osc[order] = prefix[np.maximum(pos, 0)]
            lhs = np.abs(vals - vals[x] - _row_dots(diff, cov[x]))
            rhs = radius * osc

            bad = np.nonzero(lhs > rhs + tol)[0]
            bad = bad[bad != x]
            # the diagonal y = x has lhs = rhs = 0 and so ratio 0
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = np.where(rhs > 0, lhs / rhs, np.where(lhs > 0, np.inf, 0.0))
            ratio[np.isnan(ratio)] = 0.0
            best = int(np.argmax(ratio))
            if pairs:
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
            yield bad, lhs[bad], rhs[bad], float(ratio[best]), best

    rows = row_map(scan_rows, range(nv), split=not pairs and nv >= SPLIT_MIN_ROWS)
    violations: list[tuple[int, int, float, float]] = []
    max_ratio = 0.0
    max_pair = (0, 0)
    for x, (bad, lhs_bad, rhs_bad, top, best) in enumerate(rows):
        violations.extend(zip([x] * len(bad), bad.tolist(), lhs_bad.tolist(), rhs_bad.tolist()))
        if top > max_ratio:
            max_ratio, max_pair = top, (x, best)
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
        return report_dict(self)


def affine_rigidity_test(
    sample: SetSample,
    f: ScalarField,
    A: CovectorField,
) -> AffineRigidityReport:
    """Check that a constant covector field forces f to be affine.

    The hypothesis (A constant over the sample to within ``_AFFINE_TOL``)
    is measured as the largest deviation from the mean covector.  The field
    f is then least-squares fitted by b + <c, x>; the test passes when the
    hypothesis holds and the sup-norm fit residual is at most ``_AFFINE_TOL``.
    """
    require_same_sample(sample, f, A)
    spread = float(np.max(row_norms(A.covectors - A.covectors.mean(axis=0))))
    hypothesis_ok = spread <= _AFFINE_TOL
    pts = sample.points_array
    design = np.hstack([np.ones((sample.vertex_count, 1)), pts])
    beta, *_ = np.linalg.lstsq(design, f.values, rcond=None)
    residual = float(np.max(np.abs(f.values - _row_dots(design, beta))))
    return AffineRigidityReport(
        hypothesis_ok=hypothesis_ok,
        covector_spread=spread,
        intercept=float(np.real(beta[0])),
        gradient=tuple(float(np.real(b)) for b in beta[1:]),
        max_residual=residual,
        passed=hypothesis_ok and residual <= _AFFINE_TOL,
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


def pair_modulus_profile(
    f: ScalarField, A: CovectorField, min_pairs: int = 8, *, covectors: bool = True
) -> tuple[BucketStat, ...]:
    """Dyadic-distance profile of remainder ratios and covector oscillation.

    Pairs are bucketed by the octave floor(log2 |x-y|).  Each bucket records
    the sup over its pairs of remainder/|x-y| (worse of the two directions)
    and of |A(x) - A(y)|.  Buckets with fewer than ``min_pairs`` pairs are
    dropped.  With ``covectors=False`` the second sup is not computed and
    is NaN in every bucket.

    From ``SPLIT_MIN_ROWS`` vertices on, the pair blocks are split over
    forked processes by ``geometry.row_map``, whose docstring says when
    that is unsafe; a bucket's sups are the largest of
    its blocks' sups (a NaN ratio makes it NaN, as it would in one scan),
    and its count their sum.
    """
    sample = require_same_sample(f, A)
    pts = sample.points_array
    vals = f.values
    cov = A.covectors
    offset = 80
    nbuckets = 161
    n = pts.shape[1]
    pts_t, cov_t = np.ascontiguousarray(pts.T), np.ascontiguousarray(cov.T)
    cap, blocks = pair_blocks(sample.vertex_count)
    # one contiguous row per coordinate of y - x, A(y) - A(x), A(x) and A(y)
    diff = np.empty((n, cap))
    dcov = np.empty((n, cap), dtype=cov.dtype)
    cov_i = np.empty_like(dcov)
    cov_j = np.empty_like(dcov)
    dval = np.empty(cap, dtype=vals.dtype)

    def scan_blocks(bs):
        for size, segs in bs:
            for i, start, length in segs:
                stop = start + length
                np.subtract(pts_t[:, i + 1 :], pts_t[:, i, None], out=diff[:, start:stop])
                if covectors:
                    np.subtract(cov_t[:, i + 1 :], cov_t[:, i, None], out=dcov[:, start:stop])
                cov_i[:, start:stop] = cov_t[:, i, None]
                cov_j[:, start:stop] = cov_t[:, i + 1 :]
                np.subtract(vals[i + 1 :], vals[i], out=dval[start:stop])
            rows = diff[:, :size].T
            d = row_norms(rows)
            dv = dval[:size]
            rem_fwd = np.abs(dv - _row_dots(rows, cov_i[:, :size].T))
            # f(x) - f(y) is -(f(y) - f(x)) exactly, so this is |f(x) - f(y) + A(y)(y - x)|
            rem_bwd = np.abs(_row_dots(rows, cov_j[:, :size].T) - dv)
            # a chord that rounds to 0 gives an infinite or NaN ratio, and its
            # log2(0) = -inf, clipped as floats, lands in bucket 0
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = np.maximum(rem_fwd, rem_bwd) / d
                octave = np.clip(np.floor(np.log2(d)) + offset, 0, nbuckets - 1)
            octv = octave.astype(int)
            sup_ratio, sup_da = np.zeros(nbuckets), np.full(nbuckets, 0.0 if covectors else np.nan)
            with np.errstate(invalid="ignore"):  # a NaN ratio makes its bucket's sup NaN
                np.maximum.at(sup_ratio, octv, ratio)
            if covectors:
                np.maximum.at(sup_da, octv, row_norms(dcov[:, :size].T))
            yield sup_ratio, sup_da, np.bincount(octv, minlength=nbuckets)

    parts = row_map(scan_blocks, blocks, split=sample.vertex_count >= SPLIT_MIN_ROWS)
    sup_ratio, sup_da = np.zeros(nbuckets), np.full(nbuckets, 0.0 if covectors else np.nan)
    counts = np.zeros(nbuckets, dtype=int)
    for block_ratio, block_da, block_counts in parts:
        np.maximum(sup_ratio, block_ratio, out=sup_ratio)
        np.maximum(sup_da, block_da, out=sup_da)
        counts += block_counts
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


@dataclass(frozen=True)
class HolderFit:
    remainder: ModulusReport
    differential: ModulusReport

    def as_dict(self) -> dict:
        return report_dict(self)


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
) -> HolderFit:
    """Fit Holder exponents of the remainder modulus and of A itself.

    Remainder data is sup over pairs at each dyadic scale of
    remainder/(k |x-y|); the covector data is sup |A(x)-A(y)|.  At least
    three octaves of 8 or more pairs are required, and k must be finite and
    positive.  The profile forks worker processes on large samples (see
    ``pair_modulus_profile``).
    """
    require("k", k, "finite and positive")
    if sample is None:
        sample = f.sample
    require_same_sample(sample, f, A)
    profile = pair_modulus_profile(f, A)
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

    Each edge (u, v) gives one equation: the trapezoid integral
    0.5 (A(u) + A(v)) . (v - u) of the lifted field A must equal
    f(v) - f(u).  The system need not be consistent (the gasket edge system
    at level 5 has 732 unknowns, 729 rows and rank 649), so the result is
    its minimum-norm least-squares solution, the one ``np.linalg.lstsq``
    returns.  It is found matrix-free by LSQR (Paige & Saunders 1982)
    started from zero, with atol = btol = 1e-14, on the flat vector of the
    nv n unknowns (entry u n + c is A(u)_c).  Only the rows, columns and
    values of the 2 ne n nonzeros of the ne x (nv n) design matrix are
    stored, never the matrix.  The forward product gathers both endpoints'
    entries, adds and scales them by the half edge vectors, and sums each
    edge's n products by strided column adds; the adjoint scales each
    entry by its row's residual and sums by column in one ``np.bincount``.
    A complex f is solved as two real systems.  If LSQR has not converged
    after 4 nv n iterations, a QcalcError is raised rather than returning
    an unconverged field.
    """
    require_same_sample(sample, f)
    pts = sample.points_array
    nv, n = sample.vertex_count, sample.ambient_dim
    u, v = sample.edge_ends
    # entry e n + c of each flat array belongs to edge e and coordinate c
    half = (0.5 * (pts[v] - pts[u])).ravel()
    cu, cv = ((w[:, None] * n + np.arange(n)).ravel() for w in (u, v))
    cols, vals = np.concatenate((cu, cv)), np.concatenate((half, half))
    rows = np.tile(np.repeat(np.arange(len(u)), n), 2)
    # one buffer for the adjoint's weights: a new 2 ne n array per product
    # (210 kB on gasket 7) made the gasket-7 solve 25-45% slower in-process
    weights = np.empty(len(cols))

    def forward(x: np.ndarray) -> np.ndarray:
        terms = (half * (x.take(cu) + x.take(cv))).reshape(-1, n)
        out = terms[:, 0]
        for c in range(1, n):
            out = out + terms[:, c]
        return out

    def adjoint(r: np.ndarray) -> np.ndarray:
        return np.bincount(cols, np.multiply(vals, r.take(rows, out=weights), out=weights),
                           nv * n)

    rhs = f.values[v] - f.values[u]
    iter_cap = max(1, int(_LSQR_ITERS_PER_UNKNOWN * nv * n))

    def solve(b: np.ndarray) -> np.ndarray:
        x, converged, rnorm = _lsqr(forward, adjoint, b, nv * n, iter_cap)
        if not converged:
            raise QcalcError(
                f"discrete_gradient: LSQR did not converge in {iter_cap} iterations "
                f"on a sample with nv={nv}, ne={len(b)}; residual reached {rnorm:.3e}"
            )
        return x

    if np.iscomplexobj(rhs):
        sol = solve(rhs.real) + 1j * solve(rhs.imag)
    else:
        sol = solve(rhs)
    return CovectorField(sample, sol.reshape(nv, n))


def _norm(a: np.ndarray) -> float:
    """Euclidean norm of a vector, as the square root of its (BLAS) dot product."""
    return math.sqrt(a @ a)


def _lsqr(forward, adjoint, b: np.ndarray, size: int, iter_cap: int):
    """Minimum-norm least-squares solve of forward(x) = b by LSQR from x = 0.

    ``forward`` maps a flat vector of ``size`` unknowns to a vector shaped
    like b and ``adjoint`` is its transpose; each returns a new array.
    Stops on LSQR's two standard tests with
    atol = btol = ``_LSQR_TOL``: a consistent system when
    |r| <= btol |b| + atol |D| |x|, a least-squares solution when
    |D^T r| <= atol |D| |r|, where |D| is LSQR's running Frobenius-norm
    estimate and |r|, |D^T r| are its recurrence estimates.  Norms are the
    square root of a dot product, and u, v and w are updated in place.
    Returns (x, converged, estimated |r|).
    """
    x = np.zeros(size)
    bnorm = _norm(b)
    if bnorm == 0.0:
        return x, True, 0.0
    ub = b / bnorm
    vb = adjoint(ub)
    alpha = _norm(vb)
    if alpha == 0.0:
        return x, True, bnorm
    vb /= alpha
    w = vb.copy()
    phibar, rhobar = bnorm, alpha
    anorm2 = 0.0
    for _ in range(iter_cap):
        ub *= -alpha
        ub += forward(vb)
        beta = _norm(ub)
        anorm2 += alpha * alpha + beta * beta
        if beta > 0.0:
            ub /= beta
            vb *= -beta
            vb += adjoint(ub)
            alpha = _norm(vb)
            if alpha > 0.0:
                vb /= alpha
        # plane rotation eliminating beta from the bidiagonal
        rho = math.hypot(rhobar, beta)
        cs, sn = rhobar / rho, beta / rho
        theta = sn * alpha
        rhobar = -cs * alpha
        phi = cs * phibar
        phibar = sn * phibar
        x += (phi / rho) * w
        w *= -(theta / rho)
        w += vb
        # phibar estimates |r| and alpha |sn phi| estimates |D^T r|
        anorm = math.sqrt(anorm2)
        if (phibar <= _LSQR_TOL * (bnorm + anorm * _norm(x))
                or alpha * abs(sn * phi) <= _LSQR_TOL * anorm * phibar):
            return x, True, phibar
    return x, False, phibar
