"""The row-vectorised remainder scan against the per-pair reference loop.

``scalar_remainder_reference`` visits every ordered pair (x, y) one at a time
and applies the tie rules of ``verify_remainder_bound`` literally; its
A(x)(y - x) is ``conftest.row_dots``, the left-to-right sum the scan's row
dot makes on every CPU.  The whole report must agree with it exactly:
violations with their lhs/rhs values, ``max_ratio`` and its pair, and the
four unordered-pair buffers.
"""
from __future__ import annotations

import math

import numpy as np
import pytest

from qcalc import metric
from qcalc.calculus import verify_remainder_bound
from qcalc.fields import CovectorField, ScalarField
from qcalc.geometry import build_gasket, build_lipschitz_graph, build_polyline

from conftest import circle_points, row_dots


def scalar_remainder_reference(f, A, sample, k, tol):
    """Per-pair loop: violations, max ratio and pair, unordered-pair buffers."""
    pts = sample.points_array
    vals = f.values
    cov = A.covectors
    nv = sample.vertex_count
    violations = []
    max_ratio = 0.0
    max_pair = (0, 0)
    n_unordered = nv * (nv - 1) // 2
    up_d = np.zeros(n_unordered)
    up_rem = np.zeros(n_unordered)
    up_bound = np.zeros(n_unordered)
    up_idx = np.zeros((n_unordered, 2), dtype=int)
    up_slack = np.full(n_unordered, -np.inf)

    def flat(i, j):
        return i * nv - i * (i + 1) // 2 + (j - i - 1)

    for x in range(nv):
        d = np.linalg.norm(pts - pts[x], axis=1)
        osc_all = np.linalg.norm(cov - cov[x], axis=1)
        order = np.argsort(d, kind="stable")
        prefix = np.maximum.accumulate(osc_all[order])
        d_sorted = d[order]
        pos = np.searchsorted(d_sorted, k * d, side="right") - 1
        osc = prefix[np.maximum(pos, 0)]
        lhs = np.abs(vals - vals[x] - row_dots(pts - pts[x], cov[x]))
        rhs = k * d * osc
        for y in range(nv):
            if y == x:
                continue
            l, r = float(lhs[y]), float(rhs[y])
            if l > r + tol:
                violations.append((x, y, l, r))
            if r > 0:
                ratio = l / r
            else:
                ratio = math.inf if l > 0 else 0.0
            if ratio > max_ratio:
                max_ratio = ratio
                max_pair = (x, y)
            key = flat(min(x, y), max(x, y))
            slack = l - r
            if slack > up_slack[key]:
                up_slack[key] = slack
                up_d[key] = d[y]
                up_rem[key] = l
                up_bound[key] = r
                up_idx[key] = (x, y)
    violations.sort()
    return {
        "violations": tuple(violations),
        "max_ratio": max_ratio,
        "max_ratio_pair": max_pair,
        "pair_dist": up_d,
        "pair_remainder": up_rem,
        "pair_bound": up_bound,
        "pair_index": up_idx,
    }


def assert_matches_reference(f, A, sample, k, tol=1e-9):
    rep = verify_remainder_bound(f, A, sample, k=k, tol=tol)
    ref = scalar_remainder_reference(f, A, sample, k, tol)
    nv = sample.vertex_count
    assert rep.pair_count == nv * (nv - 1)
    assert rep.violations == ref["violations"]
    assert rep.passed == (not ref["violations"])
    assert rep.max_ratio == ref["max_ratio"]
    assert rep.max_ratio_pair == ref["max_ratio_pair"]
    for name in ("pair_dist", "pair_remainder", "pair_bound", "pair_index"):
        assert np.array_equal(getattr(rep, name), ref[name]), name
    return rep


SAMPLES = {
    "gasket3": lambda: build_gasket(3),
    "64-gon": lambda: build_polyline(circle_points(64), closed=True),
    "lipschitz": lambda: build_lipschitz_graph([0.5, -1.0, 0.25], 0.125, (0.0, 3.0)),
}


@pytest.mark.parametrize("name", sorted(SAMPLES))
@pytest.mark.parametrize("seed", [0, 1])
def test_random_real_fields_match_reference(name, seed):
    sample = SAMPLES[name]()
    rng = np.random.default_rng(seed)
    nv = sample.vertex_count
    f = ScalarField(sample, rng.normal(size=nv))
    A = CovectorField(sample, rng.normal(size=(nv, 2)))
    khat = metric.estimate_chord_arc(sample).k_hat
    for k in (khat, 0.7, 3.0):
        assert_matches_reference(f, A, sample, k)


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_complex_field_matches_reference(name):
    sample = SAMPLES[name]()
    rng = np.random.default_rng(11)
    nv = sample.vertex_count
    f = ScalarField(sample, rng.normal(size=nv) + 1j * rng.normal(size=nv))
    A = CovectorField(sample, rng.normal(size=(nv, 2)) + 1j * rng.normal(size=(nv, 2)))
    khat = metric.estimate_chord_arc(sample).k_hat
    for k in (khat, 0.7):
        assert_matches_reference(f, A, sample, k)


def test_smooth_field_passes_and_matches_reference():
    sample = SAMPLES["gasket3"]()
    f = ScalarField.from_function(sample, lambda p: math.sin(p[0]) + p[1] ** 2)
    A = CovectorField.from_function(sample, lambda p: (math.cos(p[0]), 2 * p[1]))
    khat = metric.estimate_chord_arc(sample).k_hat
    assert assert_matches_reference(f, A, sample, khat).passed


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_constant_field_zero_bound_matches_reference(name):
    # oscillation of a constant field is 0, so rhs = 0 on every pair and the
    # ratio takes the inf (nonzero remainder) and 0 (zero remainder) branches
    sample = SAMPLES[name]()
    rng = np.random.default_rng(5)
    f = ScalarField(sample, rng.normal(size=sample.vertex_count))
    A = CovectorField.constant(sample, (0.5, -2.0))
    rep = assert_matches_reference(f, A, sample, 1.5)
    assert rep.max_ratio == math.inf
    assert not np.any(rep.pair_bound)
    affine = ScalarField.from_function(sample, lambda p: 0.0)
    zero = CovectorField.constant(sample, (0.0, 0.0))
    rep = assert_matches_reference(affine, zero, sample, 1.5)
    assert rep.max_ratio == 0.0 and rep.max_ratio_pair == (0, 0)


def test_symmetric_slacks_keep_the_forward_direction():
    # on a segment the second covector component never enters A(x)(y - x),
    # so the remainder is symmetric in (x, y); a 0/1 second component has
    # oscillation 1 over the whole segment, which every ball of radius
    # k |x - y| >= 1 covers, so the bound k |x - y| is symmetric too
    sample = build_polyline([(i / 8, 0.0) for i in range(9)])
    rng = np.random.default_rng(3)
    f = ScalarField(sample, rng.normal(size=9))
    A = CovectorField(sample, np.column_stack([np.full(9, 0.75), np.arange(9) % 2]))
    rep = assert_matches_reference(f, A, sample, 8.0)
    assert np.all(rep.pair_index[:, 0] < rep.pair_index[:, 1])
    assert rep.violations and not rep.passed


def test_overflow_and_negative_tol_match_reference():
    # values near the float maximum overflow lhs and rhs to inf; inf / inf is
    # a NaN ratio, which never wins max_ratio in the per-pair loop either
    sample = SAMPLES["gasket3"]()
    rng = np.random.default_rng(7)
    nv = sample.vertex_count
    f = ScalarField(sample, rng.uniform(-1.0, 1.0, size=nv) * 1e308)
    A = CovectorField(sample, rng.uniform(-1.0, 1.0, size=(nv, 2)) * 1e308)
    with np.errstate(over="ignore", invalid="ignore"):
        assert_matches_reference(f, A, sample, 2.0)
    # a negative tol must still leave the diagonal y = x out of the violations
    f = ScalarField(sample, rng.normal(size=nv))
    A = CovectorField(sample, rng.normal(size=(nv, 2)))
    rep = assert_matches_reference(f, A, sample, 2.0, tol=-1e-300)
    assert rep.violations and all(x != y for x, y, _, _ in rep.violations)


def test_nan_ratio_does_not_hide_a_later_pair_in_its_row():
    # row 0 has ratio inf / inf = NaN at y = 1 before ratio inf at y = 2
    # (A(0) = A(2) and only vertex 2 lies in the ball of radius |x - y|)
    sample = build_polyline([(0.0, 0.0), (1.0, 0.0), (0.1, 0.0)])
    f = ScalarField(sample, np.array([1e308, -1e308, 0.0]))
    A = CovectorField(sample, np.array([[1e308, 0.0], [-1e308, 0.0], [1e308, 0.0]]))
    with np.errstate(over="ignore", invalid="ignore"):
        rep = assert_matches_reference(f, A, sample, 1.0)
    assert rep.max_ratio == math.inf and rep.max_ratio_pair == (0, 2)
