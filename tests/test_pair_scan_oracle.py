"""The nv^2 pair scans against the per-row loops they replaced.

``profile_reference`` and ``local_to_global_reference`` are the row loops
``pair_modulus_profile`` and ``verify_local_to_global`` ran before they moved
to the shared row kernel (``geometry.row_norms``, ``calculus._row_dots`` and
``np.bincount``) and then to the folded pair blocks of
``geometry.pair_blocks``: ``np.linalg.norm(..., axis=1)`` and ``np.add.at``,
one upper-triangle row at a time, with both dot products of the profile
summed left to right by ``conftest.row_dots``.  ``verify_local_to_global``
has since moved on to pairs of kd leaves, skipping those whose proved bound
lies below a measured ratio.  Their results must agree exactly, bit for bit.
"""
from __future__ import annotations

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcalc import geometry, metric
from qcalc.calculus import (
    BucketStat,
    _row_dots,
    pair_modulus_profile,
    verify_remainder_bound,
)
from qcalc.fields import CovectorField, ScalarField
from qcalc.geometry import (
    PAIR_BLOCK,
    SetSample,
    build_carpet,
    build_gasket,
    build_polyline,
    pair_blocks,
    row_norms,
    sample_from_dict,
)
from qcalc.metric import LocalToGlobalReport, verify_local_to_global

from conftest import NEAR_COINCIDENT_DOC, row_dots


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
        rem_fwd = np.abs(vals[i + 1 :] - vals[i] - row_dots(diff, cov[i]))
        rem_bwd = np.abs(vals[i] - vals[i + 1 :] + row_dots(diff, cov[i + 1 :]))
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
@given(row_blocks(), st.integers(0, 2**32 - 1), st.booleans(), st.booleans())
def test_row_dots_equal_the_left_to_right_sum_bit_for_bit(block, seed, one_row, swap):
    # real coordinate differences against covectors, a 2-D b or one row for
    # every row, and either side complex
    rng = np.random.default_rng(seed)
    diff = rng.normal(size=block.shape) * np.exp2(rng.integers(-150, 151, size=block.shape))
    a, b = (block, diff) if swap else (diff, block)
    if one_row:
        b = b[0] if len(b) else rng.normal(size=b.shape[1])
    got = _row_dots(a, b)
    want = row_dots(a, b)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", range(1, 10))
def test_row_dots_of_negative_zero_rows_are_positive_zero(n):
    # -0.0 products, and -0.0 + -0.0 sums, give 0.0, in both parts of a complex row
    neg = np.full((3, n), -0.0)
    for a, b in ((neg, np.ones((3, n))), (np.ones((3, n)), -np.ones(n) * 0.0),
                 (np.full((3, n), complex(-0.0, -0.0)), np.ones((3, n)))):
        got = _row_dots(a, b)
        assert got.tobytes() == row_dots(a, b).tobytes() == np.zeros(3, got.dtype).tobytes()


def test_kernels_keep_numpy_summation_order():
    # squares added as (s0 + s1) + s2 give ...514 here, s0 + (s1 + s2) and
    # (s0 + s2) + s1 give ...515; numpy's norm adds in index order
    row = np.array([[5.508, 3.111, 1.081]])
    assert row_norms(row)[0] == np.linalg.norm(row, axis=1)[0] == 6.417549843982514
    # products added left to right: (p0 + p1) + p2 is 0 here, (p0 + p2) + p1
    # would be 1
    three = np.array([[1e20, 1.0, -1e20]] * 4)
    assert _row_dots(three, np.ones((4, 3))).tobytes() == np.zeros(4).tobytes()
    assert _row_dots(three, np.ones(3)).tobytes() == np.zeros(4).tobytes()


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


# ---------------------------------------------------------------------------
# folded pair blocks


@pytest.mark.parametrize("nv", [0, 1, 2, 3, 4, 5, 8, 9, 180, 181, 182, 183, 366, 1095,
                                PAIR_BLOCK - 1, PAIR_BLOCK, PAIR_BLOCK + 1])
def test_pair_blocks_hold_each_pair_once(nv):
    cap, blocks = pair_blocks(nv)
    rows = []
    for size, segs in blocks:
        assert size <= cap
        pos = 0
        folded = {}
        for i, start, length in segs:
            assert start == pos and length == nv - 1 - i
            pos += length
            folded.setdefault(min(i, nv - 2 - i), []).append(i)
        assert pos == size
        # a folded row is rows i and nv - 2 - i, nv pairs (the middle row alone)
        for t, members in folded.items():
            assert members == ([t] if t == nv - 2 - t else [t, nv - 2 - t])
        rows += [i for i, _, _ in segs]
    assert sorted(rows) == list(range(nv - 1))
    assert cap <= max(PAIR_BLOCK, nv)
    if nv > 2:
        assert len(blocks) == -(-(nv // 2) // max(1, PAIR_BLOCK // nv))


def curve(nv, n, seed=0):
    """nv distinct points on a random-walk curve in R^n."""
    steps = np.random.default_rng(seed).normal(size=(nv, n))
    return build_polyline([tuple(p) for p in np.cumsum(steps, axis=0) / nv])


FOLD_SAMPLES = {
    # several blocks of whole folded rows
    "gasket5": lambda: build_gasket(5),
    "carpet3": lambda: build_carpet(3),
    # one block exactly (181 // 2 folded rows of 181 pairs fit), then one
    # more block holding the middle row alone, then two full-ish blocks
    "nv181": lambda: curve(181, 2),
    "nv182": lambda: curve(182, 2),
    "nv183": lambda: curve(183, 2),
    "nv2": lambda: curve(2, 2),
    "nv3": lambda: curve(3, 2),
    "nv4": lambda: curve(4, 2),
    "n1": lambda: curve(301, 1),
    "n3": lambda: curve(300, 3),
    "n9": lambda: curve(250, 9),
}


@pytest.mark.parametrize("name", sorted(FOLD_SAMPLES))
@pytest.mark.parametrize("kind", ["smooth", "real", "complex"])
def test_folded_scans_match_row_references(name, kind):
    sample = FOLD_SAMPLES[name]()
    if kind == "smooth":
        f, A = smooth_fields(sample)
    else:
        f, A = random_fields(sample, 12, kind == "complex")
    assert pair_modulus_profile(f, A, 1) == profile_reference(f, A, 1)
    radius = 2.0 * sample.max_edge_length
    for C in (1.0, 0.25):
        rep = verify_local_to_global(sample, f, radius, C, 2.0, tol=1e-9)
        assert rep == local_to_global_reference(sample, f, radius, C, 2.0, 1e-9)


@pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 9, 12])
def test_row_norms_of_transposed_coordinate_rows_bit_for_bit(n):
    # the folded scans keep one row per coordinate and pass its transpose;
    # the per-row scans took norms of C-ordered (m, n) rows
    rng = np.random.default_rng(n)
    cols = rng.normal(size=(n, 300)) * np.exp2(rng.integers(-150, 151, size=(n, 300)))
    for block in (cols, cols + 1j * rng.normal(size=(n, 300))):
        want = np.linalg.norm(np.ascontiguousarray(block[:, :250].T), axis=1)
        assert row_norms(block[:, :250].T).tobytes() == want.tobytes()


@pytest.mark.parametrize("name", ["carpet3", "gasket5", "nv183"])
def test_local_to_global_witness_ties(name):
    sample = FOLD_SAMPLES[name]()
    # every ratio 0: the witness stays (0, 0)
    const = ScalarField(sample, np.full(sample.vertex_count, 0.75))
    rep = verify_local_to_global(sample, const, None, 1.0, 2.0)
    assert rep.l_glob == 0.0 and rep.witness_pair == (0, 0)
    assert rep == local_to_global_reference(sample, const, 2.0 * sample.max_edge_length,
                                            1.0, 2.0, 1e-9)
    # f = x: every pair on a horizontal line has ratio exactly 1, the
    # maximum, in many rows of many blocks; the first in row-major order wins
    f = ScalarField.from_function(sample, lambda p: p[0])
    rep = verify_local_to_global(sample, f, None, 1.0, 2.0)
    ref = local_to_global_reference(sample, f, 2.0 * sample.max_edge_length, 1.0, 2.0, 1e-9)
    assert rep == ref


def test_local_to_global_tie_found_in_a_later_block():
    # 400 points on a line 1/512 apart, f = 0 but for f = 1 at points 201 and
    # 391: pairs (200, 201), (201, 202), (390, 391) and (391, 392) share the
    # largest ratio 512 exactly.  Rows 390 and 391 fold into the first block,
    # rows 200 and 201 into a later one, where row 201's segment comes
    # first; the witness is still the first pair in row-major order.
    nv = 400
    pts = tuple((i / 512, 0.0) for i in range(nv))
    sample = SetSample(2, pts, tuple((i, i + 1, 1 / 512) for i in range(nv - 1)))
    cap, blocks = pair_blocks(nv)
    block_of = {i: b for b, (_, segs) in enumerate(blocks) for i, _, _ in segs}
    assert block_of[390] == block_of[391] == 0 < block_of[200] == block_of[201]
    vals = np.zeros(nv)
    vals[[201, 391]] = 1.0
    f = ScalarField(sample, vals)
    rep = verify_local_to_global(sample, f, None, 1.0, 2.0)
    assert rep == local_to_global_reference(sample, f, 2.0 / 512, 1.0, 2.0, 1e-9)
    assert rep.l_glob == 512.0 and rep.witness_pair == (200, 201)


def test_coincident_point_row_offers_no_witness():
    # points 3 and 40 coincide (a sample built in code; loading would reject
    # it) and carry the same value, so row 3 holds a 0/0 ratio.  Point 4 is
    # close to point 3, so (3, 4) has the largest ratio; the NaN hides it,
    # and its mirror (4, 40), in the same block, is the witness.
    pts = [(i / 50, math.sin(i / 5) / 10) for i in range(60)]
    pts[4] = (pts[3][0] + 0.001, pts[3][1])
    pts[40] = pts[3]
    sample = SetSample(2, tuple(pts), tuple((i, i + 1, math.dist(pts[i], pts[i + 1]))
                                            for i in range(59)))
    vals = np.array([math.cos(i / 7) for i in range(60)])
    vals[3] = vals[40] = vals[4] + 0.5
    f = ScalarField(sample, vals)
    A = CovectorField(sample, np.random.default_rng(1).normal(size=(60, 2)))
    radius = 2.0 * sample.max_edge_length
    with np.errstate(divide="ignore", invalid="ignore"):
        rep = verify_local_to_global(sample, f, radius, 1.0, 2.0)
        ref = local_to_global_reference(sample, f, radius, 1.0, 2.0, 1e-9)
        profile = pair_modulus_profile(f, A, 1)
        # NaN sups make tuple equality fail, so compare the reprs
        assert repr(profile) == repr(profile_reference(f, A, 1))
    assert rep == ref
    assert rep.witness_pair == (4, 40)


def test_coincident_pair_lands_in_bucket_zero():
    # points 2 and 9 coincide (built in code) and carry different values and
    # covectors: their ratio is x/0 = inf, and log2(0) = -inf must reach
    # bucket 0 without an invalid float-to-integer cast
    pts = [(i / 10, (i % 3) / 7) for i in range(12)]
    pts[9] = pts[2]
    sample = SetSample(2, tuple(pts), tuple((i, i + 1, math.dist(pts[i], pts[i + 1]))
                                            for i in range(11)))
    f = ScalarField(sample, np.arange(12.0) ** 2)
    A = CovectorField(sample, np.random.default_rng(2).normal(size=(12, 2)))
    with np.errstate(divide="ignore", invalid="raise"):
        profile = pair_modulus_profile(f, A, 1)
    da = float(row_norms(A.covectors[[9]] - A.covectors[2])[0])
    assert profile[0] == BucketStat(-80, 2.0 ** -80, math.inf, da, 1)
    assert all(b.octave > -10 for b in profile[1:])
    assert sum(b.count for b in profile) == 12 * 11 // 2


def test_profile_on_near_coincident_points_warns_nothing():
    # the chord of points 0 and 1 rounds to 0: their ratio is 0 / 0 and the
    # log2 of their distance -inf, which lands in bucket 0
    s = sample_from_dict(NEAR_COINCIDENT_DOC)
    f = ScalarField(s, [0.0, 1e-300, 1.0])
    A = CovectorField(s, [[1.0, 0.0]] * 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        profile = pair_modulus_profile(f, A, 1)
    assert [(b.octave, b.count) for b in profile] == [(-80, 1), (0, 2)]
    assert math.isnan(profile[0].remainder_ratio_sup)


# ---------------------------------------------------------------------------
# kd leaf pairs: skipped leaf pairs never change the report


def chain_sample(points):
    """A sample built in code (so coincident points are allowed) on the given
    points, joined by a chain of edges."""
    pts = [tuple(map(float, p)) for p in points]
    return SetSample(len(pts[0]), tuple(pts),
                     tuple((i, i + 1, math.dist(pts[i], pts[i + 1])) for i in range(len(pts) - 1)))


def assert_report_equals_reference(sample, f, radius, C, k=2.0, tol=1e-9):
    with np.errstate(all="ignore"):  # the row loop's own inf and NaN ratios
        ref = local_to_global_reference(
            sample, f, 2.0 * sample.max_edge_length if radius is None else radius, C, k, tol)
    rep = verify_local_to_global(sample, f, radius, C, k, tol)
    assert rep == ref
    return rep


def assert_warm_equals_cold(sample, fresh, vals, radius, C):
    """The report on ``sample``, whose kd leaves an earlier scan built, equals
    bit for bit (by repr) the one on ``fresh()``, an equal sample scanned
    cold, and the row loop's.  A sample of one vertex has no pairs and
    builds no leaves."""
    assert ("kd_leaves" in vars(sample)) == (sample.vertex_count > 1)
    cold_sample = fresh()
    assert cold_sample == sample and "kd_leaves" not in vars(cold_sample)
    warm = assert_report_equals_reference(sample, ScalarField(sample, vals), radius, C)
    cold = verify_local_to_global(cold_sample, ScalarField(cold_sample, vals), radius, C, 2.0)
    assert repr(warm) == repr(cold)


@st.composite
def l2g_cases(draw, radii=(None, 0.0, "diameter", "random")):
    """(points, values, radius, C) across leaf-size boundaries, scales and
    field kinds: affine plus noise, f = x on a lattice (exact ties), values
    near +-1e308 (|f_j - f_i| = inf), complex values, coincident points.
    The radius is drawn from ``radii``."""
    nv = draw(st.integers(1, 70))
    n = draw(st.sampled_from([1, 2, 3, 9]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        pts = rng.integers(0, 6, size=(nv, n)).astype(float)  # lattice: repeats and ties
    else:
        pts = rng.normal(size=(nv, n))
    for _ in range(draw(st.integers(0, 3)) if nv > 1 else 0):
        i, j = rng.integers(0, nv, size=2)
        pts[i] = pts[j]
    pts *= 2.0 ** draw(st.sampled_from([-400, 0, 400]))
    kind = draw(st.sampled_from(["affine", "x", "huge", "complex", "random"]))
    if kind == "affine":
        vals = pts @ rng.normal(size=n) + 0.5 + 1e-9 * rng.normal(size=nv) * np.abs(pts).max()
    elif kind == "x":
        vals = pts[:, 0].copy()
    elif kind == "huge":
        vals = rng.choice([-1.0, 1.0], size=nv) * 1e308 * rng.uniform(0.9, 1.0, size=nv)
    elif kind == "complex":
        vals = rng.normal(size=nv) + 1j * rng.normal(size=nv)
    else:
        vals = rng.normal(size=nv)
    radius = draw(st.sampled_from(radii))
    if radius == "diameter":  # the sum of the extents is at least the diameter
        radius = float(np.ptp(pts, axis=0).sum())
    elif radius == "random":
        radius = float(rng.uniform(0, 2) * np.ptp(pts, axis=0).max())
    C = draw(st.sampled_from([0.0, 0.5, 1.0, 1e9]))
    return pts, vals, radius, C


@settings(deadline=None, max_examples=300)
@given(l2g_cases())
def test_leaf_pair_scan_equals_the_row_loop(case):
    pts, vals, radius, C = case
    sample = chain_sample(pts)
    assert_report_equals_reference(sample, ScalarField(sample, vals), radius, C)


@settings(deadline=None, max_examples=150)
@given(l2g_cases(radii=("diameter",)))
def test_every_pair_local_equals_the_row_loop(case):
    # with every pair within radius, phase 1 keeps only the leaf pairs whose
    # bound allows a violation; the others must still give every ratio
    pts, vals, radius, C = case
    sample = chain_sample(pts)
    assert_report_equals_reference(sample, ScalarField(sample, vals), radius, C)


@pytest.mark.parametrize("C", [0.5, 4.0, 1e9])
@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_radius_of_the_diameter_on_builder_samples(name, C):
    sample = SAMPLES[name]()
    pts = sample.points_array
    radius = float(np.ptp(pts, axis=0).sum())
    for vals in (np.sin(3 * pts[:, 0]) + pts[:, 0] * pts[:, -1],
                 np.random.default_rng(5).normal(size=sample.vertex_count)):
        assert_report_equals_reference(sample, ScalarField(sample, vals), radius, C)


def test_large_radius_and_C_evaluate_few_pairs(monkeypatch):
    # radius 10 on gasket 6 makes every pair local, and C = 1e9 leaves no
    # leaf pair able to violate: phase 1 keeps only the leaf pairs whose
    # bound is not finite, and phase 2 prunes the rest
    sample = build_gasket(6)
    x, y = sample.points_array.T
    f = ScalarField(sample, 1.2 * np.exp(0.8 * x) * np.cos(3 * y + 1) + 0.4 * x * y)
    rows = []

    def counting(a):
        rows.append(len(a))
        return row_norms(a)
    sample.kd_leaves  # the leaf boxes' gaps, built ahead, so that every counted row is a pair
    monkeypatch.setattr(metric, "row_norms", counting)
    rep = verify_local_to_global(sample, f, 10.0, 1e9, 2.0)
    monkeypatch.undo()
    assert rep == local_to_global_reference(sample, f, 10.0, 1e9, 2.0, 1e-9)
    evaluated = sum(rows)
    nv = sample.vertex_count
    assert rep.hypothesis_ok and 0 < evaluated < 0.2 * nv * (nv - 1) / 2


@pytest.mark.parametrize("nv", [1, 2, 15, 16, 17, 31, 32, 33, 63, 64, 65, 70])
@pytest.mark.parametrize("n", [1, 3, 9])
def test_leaf_pair_scan_at_leaf_size_boundaries(nv, n):
    rng = np.random.default_rng(nv * 10 + n)
    pts = rng.normal(size=(nv, n))
    sample = chain_sample(pts)
    for vals in (pts @ rng.normal(size=n) + 1e-6 * rng.normal(size=nv),  # affine plus noise
                 pts[:, 0].copy(),
                 rng.normal(size=nv) + 1j * rng.normal(size=nv)):
        f = ScalarField(sample, vals)
        for radius in (None, 0.0, 100.0):
            assert_report_equals_reference(sample, f, radius, 0.5)


def test_ties_of_f_equal_x_across_leaves():
    # a 20 x 20 lattice with f = x: every horizontal pair has ratio exactly 1,
    # the maximum, in many leaf pairs; the least (i, j) wins
    pts = [(i % 20 / 8, i // 20 / 8) for i in range(400)][::-1]
    sample = chain_sample(pts)
    f = ScalarField(sample, [p[0] for p in pts])
    rep = assert_report_equals_reference(sample, f, None, 1.0)
    assert rep.l_glob == 1.0 and rep.witness_pair == (0, 1)


def test_coincident_points_in_distant_leaves():
    # 200 points on a curve; points 7 and 180 coincide with the same value,
    # so row 7 holds a NaN ratio and offers no witness, and points 50 and 150
    # coincide with different values, so (50, 150) has ratio inf
    t = np.linspace(0, 3, 200)
    pts = np.stack([np.cos(t), np.sin(2 * t)], axis=1)
    pts[180] = pts[7]
    pts[150] = pts[50]
    sample = chain_sample(pts)
    vals = np.sin(5 * t)
    vals[180] = vals[7]
    vals[150] = vals[50] + 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        rep = assert_report_equals_reference(sample, ScalarField(sample, vals), None, 1.0)
    assert rep.l_glob == math.inf and rep.witness_pair == (50, 150)
    # without the inf pair, the NaN row 7 still hides its own largest ratio
    vals[150] = vals[50]
    with np.errstate(divide="ignore", invalid="ignore"):
        rep = assert_report_equals_reference(sample, ScalarField(sample, vals), None, 1.0)
    assert 7 not in rep.witness_pair and 50 not in rep.witness_pair


def test_leaf_pair_scan_memory_does_not_grow_with_radius():
    # gasket 7 with every pair local and no violation: the scan holds one
    # batch and the leaf-pair arrays, not the 5.4 million pairs
    sample = build_gasket(7)
    f = ScalarField(sample, np.sin(3 * sample.points_array[:, 0]) + sample.points_array[:, 1])
    tracemalloc.start()
    try:
        rep = verify_local_to_global(sample, f, 10.0, 1e9, 2.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.hypothesis_ok and rep.l_glob > 0
    assert peak < 8 * 2**20


# ---------------------------------------------------------------------------
# the kd leaves are built once per sample and kept on it


def test_three_scans_build_the_split_once(monkeypatch):
    sample = build_gasket(5)
    split, calls = geometry._kd_split, []

    def counting(pts):
        calls.append(len(pts))
        return split(pts)
    monkeypatch.setattr(geometry, "_kd_split", counting)
    x, y = sample.points_array.T
    diameter = float(np.ptp(sample.points_array, axis=0).sum())
    # other fields, C and radii, one of them at least the diameter
    for vals, radius, C in ((np.sin(3 * x) + x * y, None, 1.0), (x - 2 * y, 0.05, 0.5),
                            (np.exp(x) * np.cos(2 * y), diameter, 1e9)):
        assert_report_equals_reference(sample, ScalarField(sample, vals), radius, C)
    assert calls == [sample.vertex_count]


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_warm_reports_equal_cold_ones_on_builder_samples(name):
    sample = SAMPLES[name]()
    pts = sample.points_array
    smooth, noise = smooth_fields(sample)[0].values, random_fields(sample, 6, True)[0].values
    verify_local_to_global(sample, ScalarField(sample, noise), None, 1.0, 2.0)
    diameter = float(np.ptp(pts, axis=0).sum())
    for vals, radius, C in ((smooth, None, 1.0), (smooth, diameter, 0.25), (noise, None, 0.25),
                            (noise, diameter, 1e9)):
        assert_warm_equals_cold(sample, SAMPLES[name], vals, radius, C)


@settings(deadline=None, max_examples=150)
@given(l2g_cases())
def test_warm_reports_equal_cold_ones(case):
    # complex f, coincident points, |f_j - f_i| = inf and 1-70 vertices; the
    # first scan, with another field, C and radius, builds the leaves
    pts, vals, radius, C = case
    sample = chain_sample(pts)
    with np.errstate(all="ignore"):
        verify_local_to_global(sample, ScalarField(sample, vals[::-1]), None, 1.0, 2.0)
        assert_warm_equals_cold(sample, lambda: chain_sample(pts), vals, radius, C)


def test_kd_leaves_are_read_only_and_per_sample():
    doc = geometry.sample_to_dict(build_gasket(4))
    a, b = sample_from_dict(doc), sample_from_dict(doc)
    assert a == b and a.kd_leaves is a.kd_leaves and a.kd_leaves is not b.kd_leaves
    for name, x, y in zip(a.kd_leaves._fields, a.kd_leaves, b.kd_leaves):
        assert not x.flags.writeable, name
        with pytest.raises(ValueError):
            x.flat[0] = x.flat[-1]
        assert not np.shares_memory(x, y), name
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name
