"""The nv^2 pair scans against the per-row loops they replaced.

``profile_reference`` and ``local_to_global_reference`` are the row loops
``pair_modulus_profile`` and ``verify_local_to_global`` ran before they moved
to the shared row kernel (``geometry.row_norms``, ``calculus._row_dots`` and
``np.bincount``): ``np.linalg.norm(..., axis=1)``, ``np.einsum`` and
``np.add.at``.  Their results must agree exactly, bit for bit.
"""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcalc import metric
from qcalc.calculus import (
    BucketStat,
    _row_dots,
    pair_modulus_profile,
    verify_remainder_bound,
)
from qcalc.fields import CovectorField, ScalarField
from qcalc.geometry import build_carpet, build_gasket, build_polyline, row_norms
from qcalc.metric import LocalToGlobalReport, verify_local_to_global


def profile_reference(f, A, min_pairs=8):
    sample = f.sample
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
    return tuple(
        BucketStat(m - offset, 2.0 ** (m - offset), float(sup_ratio[m]),
                   float(sup_da[m]), int(counts[m]))
        for m in range(nbuckets)
        if counts[m] >= min_pairs
    )


def local_to_global_reference(sample, f, radius, C, k, tol):
    pts = sample.points_array
    vals = f.values
    nv = sample.vertex_count
    violations = []
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
        radius=float(radius), local_constant=float(C), k=float(k), tol=float(tol),
        hypothesis_ok=not violations, local_violations=tuple(violations),
        l_glob=l_glob, witness_pair=witness, bound=float(bound),
        bound_ok=l_glob <= bound + tol,
    )


SAMPLES = {
    "gasket3": lambda: build_gasket(3),
    "carpet2": lambda: build_carpet(2),
    "polyline-1d": lambda: build_polyline([(i / 40 + 0.01 * math.sin(i),) for i in range(41)]),
    "helix-3d": lambda: build_polyline(
        [(math.cos(t / 5), math.sin(t / 5), t / 20) for t in range(80)]),
}


def random_fields(sample, seed, complex_values):
    rng = np.random.default_rng(seed)
    nv, n = sample.vertex_count, sample.ambient_dim
    vals = rng.normal(size=nv)
    cov = rng.normal(size=(nv, n))
    if complex_values:
        vals = vals + 1j * rng.normal(size=nv)
        cov = cov + 1j * rng.normal(size=(nv, n))
    return ScalarField(sample, vals), CovectorField(sample, cov)


def smooth_fields(sample):
    # f = sum of sin(c) over the coordinates c, with its exact gradient
    f = ScalarField.from_function(sample, lambda p: sum(math.sin(c) for c in p))
    A = CovectorField.from_function(sample, lambda p: tuple(math.cos(c) for c in p))
    return f, A


@pytest.mark.parametrize("name", sorted(SAMPLES))
@pytest.mark.parametrize("kind", ["smooth", "real", "complex"])
def test_profile_matches_reference(name, kind):
    sample = SAMPLES[name]()
    if kind == "smooth":
        f, A = smooth_fields(sample)
    else:
        f, A = random_fields(sample, 4, kind == "complex")
    for min_pairs in (1, 8):
        assert pair_modulus_profile(f, A, min_pairs) == profile_reference(f, A, min_pairs)


@pytest.mark.parametrize("name", sorted(SAMPLES))
@pytest.mark.parametrize("kind", ["smooth", "real", "complex"])
def test_local_to_global_matches_reference(name, kind):
    sample = SAMPLES[name]()
    if kind == "smooth":
        f, _ = smooth_fields(sample)
    else:
        f, _ = random_fields(sample, 9, kind == "complex")
    radius = 2.0 * sample.max_edge_length
    khat = metric.estimate_chord_arc(sample).k_hat
    # C = 1 holds locally for the smooth field; the random fields break it
    for C in (1.0, 0.25):
        rep = verify_local_to_global(sample, f, radius, C, khat, tol=1e-9)
        assert rep == local_to_global_reference(sample, f, radius, C, khat, 1e-9)
    if kind != "smooth":
        assert rep.local_violations and not rep.hypothesis_ok


@st.composite
def row_blocks(draw):
    """(m, n) blocks of reals or complex numbers with exponents in +-150."""
    m = draw(st.integers(0, 40))
    n = draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def part():
        x = rng.normal(size=(m, n)) * np.exp2(rng.integers(-150, 151, size=(m, n)))
        x[rng.random(size=(m, n)) < 0.1] = 0.0
        x[rng.random(size=(m, n)) < 0.05] = -0.0
        return x

    if draw(st.booleans()):
        return part() + 1j * part()
    return part()


@settings(deadline=None, max_examples=200)
@given(row_blocks())
def test_row_norms_equal_linalg_norm_bit_for_bit(block):
    got = row_norms(block)
    want = np.linalg.norm(block, axis=1)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@settings(deadline=None, max_examples=200)
@given(row_blocks(), st.integers(0, 2**32 - 1))
def test_row_dots_equal_einsum_bit_for_bit(block, seed):
    # the profile multiplies real coordinate differences by covectors
    rng = np.random.default_rng(seed)
    diff = rng.normal(size=block.shape) * np.exp2(rng.integers(-150, 151, size=block.shape))
    got = _row_dots(diff, block)
    want = np.einsum("ij,ij->i", diff, block)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_kernels_keep_numpy_summation_order():
    # squares added as (s0 + s1) + s2 give ...514 here, s0 + (s1 + s2) and
    # (s0 + s2) + s1 give ...515; numpy's norm adds in index order
    row = np.array([[5.508, 3.111, 1.081]])
    assert row_norms(row)[0] == np.linalg.norm(row, axis=1)[0] == 6.417549843982514
    # einsum adds three products as (p0 + p2) + p1, so 1 here, not 0
    three = np.array([[1e20, 1.0, -1e20]] * 4)
    dots = _row_dots(three, np.ones((4, 3)))
    assert dots.tobytes() == np.einsum("ij,ij->i", three, np.ones((4, 3))).tobytes()


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_remainder_without_pairs_equals_report_with_pairs(name):
    sample = SAMPLES[name]()
    n = sample.ambient_dim
    khat = metric.estimate_chord_arc(sample).k_hat
    cases = [random_fields(sample, 2, False), random_fields(sample, 3, True),
             smooth_fields(sample),
             (random_fields(sample, 5, False)[0], CovectorField.constant(sample, (0.5,) * n))]
    for f, A in cases:
        for k in (khat, 0.7):
            full = verify_remainder_bound(f, A, sample, k=k)
            bare = verify_remainder_bound(f, A, sample, k=k, pairs=False)
            # dataclass equality compares every field but the pair buffers
            assert bare == full
            assert bare.as_dict() == full.as_dict()
            assert bare.pair_dist is bare.pair_remainder is bare.pair_bound is None
            assert bare.pair_index is None
            assert len(full.pair_dist) == sample.vertex_count * (sample.vertex_count - 1) // 2
