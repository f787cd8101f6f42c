"""Scans split over processes by ``geometry.row_map`` against serial runs.

The worker count is forced by replacing ``geometry.worker_count``, and the
scans' size thresholds are lowered to 0 where a small sample must split.
Every report must equal the one-worker report exactly, every error must be
the serial one, and no forked child may outlive the call.
"""
from __future__ import annotations

import hashlib
import io
import math
import os

import numpy as np
import pytest

from qcalc import calculus, geometry
from qcalc.calculus import (
    RemainderBoundReport,
    pair_modulus_profile,
    verify_remainder_bound,
)
from qcalc.cli import emit_pairs_csv, main
from qcalc.errors import QcalcError
from qcalc.fields import CovectorField, ScalarField
from qcalc.geometry import SetSample, build_carpet, build_gasket, build_polyline, row_map
from qcalc.metric import estimate_chord_arc

from test_cli import REMAINDER_DIGESTS, SCAN_DIGESTS, _gasket_quadratic


@pytest.fixture
def forks(monkeypatch):
    """The pids of every child forked during the test; each must be reaped by then."""
    pids = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    yield pids
    for pid in pids:
        with pytest.raises(ChildProcessError):  # no such child: it was reaped
            os.waitpid(pid, os.WNOHANG)


@pytest.fixture
def no_threshold(monkeypatch):
    """Every scan splits, whatever the sample's size."""
    monkeypatch.setattr(calculus, "SPLIT_MIN_ROWS", 0)


def use_workers(monkeypatch, count):
    monkeypatch.setattr(geometry, "worker_count", lambda: count)


def one_and_two(monkeypatch, call):
    """call() with one worker, then with two."""
    out = []
    for count in (1, 2):
        use_workers(monkeypatch, count)
        out.append(call())
    return out


def quadratic_fields(sample):
    f = ScalarField.from_function(sample, lambda p: p[0] ** 2 + p[0] * p[1] - 0.5 * p[1] ** 2)
    A = CovectorField.from_function(sample, lambda p: (2 * p[0] + p[1], p[0] - p[1]))
    return f, A


def random_fields(sample, seed, complex_values=False):
    rng = np.random.default_rng(seed)
    vals = rng.normal(size=sample.vertex_count)
    cov = rng.normal(size=(sample.vertex_count, sample.ambient_dim))
    if complex_values:
        vals = vals + 1j * rng.normal(size=vals.shape)
        cov = cov + 1j * rng.normal(size=cov.shape)
    return ScalarField(sample, vals), CovectorField(sample, cov)


# ---------------------------------------------------------------------------
# row_map itself


@pytest.mark.parametrize("count", [1, 2, 3, 8])
@pytest.mark.parametrize("nrows", [0, 1, 2, 7, 50])
def test_row_map_returns_the_serial_results_in_row_order(monkeypatch, forks, count, nrows):
    use_workers(monkeypatch, count)
    rows = [(i, 0.5 * i) for i in range(nrows)]
    assert row_map(lambda share: (r[1] ** 2 for r in share), rows) == [r[1] ** 2 for r in rows]
    assert len(forks) == max(0, min(count, nrows) - 1)


def test_row_map_without_split_forks_nothing(monkeypatch, forks):
    use_workers(monkeypatch, 2)
    assert row_map(lambda share: map(str, share), range(100), split=False) == [
        str(i) for i in range(100)]
    assert not forks


def test_rows_are_dealt_out_interleaved(monkeypatch, forks):
    use_workers(monkeypatch, 3)
    parent = os.getpid()
    ran_here = row_map(lambda share: (os.getpid() == parent for _ in share), range(9))
    assert ran_here == [True, False, False] * 3
    assert len(forks) == 2


@pytest.mark.parametrize("failing, first", [({3, 6}, 3), ({2, 5}, 2), ({5, 7}, 5)])
def test_lowest_failing_row_is_raised(monkeypatch, forks, failing, first):
    # with two workers the child runs the odd rows and this process the even ones
    def scan(share):
        for row in share:
            if row in failing:
                raise ValueError(f"row {row} failed")
            yield row

    use_workers(monkeypatch, 2)
    with pytest.raises(ValueError, match=f"^row {first} failed$"):
        row_map(scan, range(10))
    assert len(forks) == 1


def test_worker_count_is_capped():
    count = geometry.worker_count()
    assert 1 <= count <= geometry.MAX_WORKERS
    if hasattr(os, "sched_getaffinity"):
        assert count == min(len(os.sched_getaffinity(0)), geometry.MAX_WORKERS)


def test_no_fork_means_one_worker(monkeypatch):
    monkeypatch.delattr(os, "fork")
    assert geometry.worker_count() == 1
    assert row_map(lambda share: map(str, share), range(5)) == ["0", "1", "2", "3", "4"]


def test_interrupt_in_this_process_kills_and_reaps_the_children(monkeypatch, forks):
    parent = os.getpid()

    def scan(share):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        yield from share

    use_workers(monkeypatch, 3)
    with pytest.raises(KeyboardInterrupt):
        row_map(scan, range(6))
    assert len(forks) == 2


def test_child_that_cannot_send_its_result_is_an_error(monkeypatch, forks):
    parent = os.getpid()
    use_workers(monkeypatch, 2)
    # a lambda does not pickle, so the child exits without writing anything
    with pytest.raises(QcalcError, match="worker process 1 of 2 exited with status 1"):
        row_map(lambda share: (r if os.getpid() == parent else (lambda: r) for r in share),
                range(4))
    assert len(forks) == 1


# ---------------------------------------------------------------------------
# the kernels, one worker against two


@pytest.mark.parametrize("mode, budget", [("exhaustive", None), ("sampled", 400)])
def test_chord_arc_scans_stay_serial(monkeypatch, forks, no_threshold, mode, budget):
    sample = build_gasket(5)
    one, two = one_and_two(monkeypatch, lambda: estimate_chord_arc(
        sample, mode, seed=3, pair_budget=budget))
    assert one == two
    assert not forks


REMAINDER_CASES = {
    "gasket3 quadratic k=2.5": (lambda: build_gasket(3), quadratic_fields, 2.5),
    "gasket3 quadratic k=0.6": (lambda: build_gasket(3), quadratic_fields, 0.6),
    "carpet2 random k=1.5": (lambda: build_carpet(2), lambda s: random_fields(s, 7), 1.5),
    "carpet2 complex k=1.5": (lambda: build_carpet(2),
                              lambda s: random_fields(s, 8, complex_values=True), 1.5),
}


@pytest.mark.parametrize("name", sorted(REMAINDER_CASES))
def test_split_remainder_scan_equals_serial(monkeypatch, forks, no_threshold, name):
    build, make_fields, k = REMAINDER_CASES[name]
    sample = build()
    f, A = make_fields(sample)
    one, two = one_and_two(monkeypatch, lambda: verify_remainder_bound(f, A, sample, k=k,
                                                                       pairs=False))
    assert one == two
    assert one.violations or name.endswith("2.5")
    assert len(forks) == 1


def test_remainder_scan_with_pair_buffers_stays_serial(monkeypatch, forks, no_threshold):
    sample = build_gasket(3)
    f, A = quadratic_fields(sample)
    one, two = one_and_two(monkeypatch, lambda: verify_remainder_bound(f, A, sample, k=0.6))
    assert one == two
    for name in ("pair_dist", "pair_remainder", "pair_bound", "pair_index"):
        assert np.array_equal(getattr(one, name), getattr(two, name))
    assert not forks


def test_remainder_scan_above_its_threshold(monkeypatch, forks):
    sample = build_gasket(6)
    assert sample.vertex_count >= calculus.SPLIT_MIN_ROWS
    f, A = quadratic_fields(sample)
    one, two = one_and_two(monkeypatch, lambda: verify_remainder_bound(f, A, sample, k=2.5,
                                                                       pairs=False))
    assert one == two
    assert len(forks) == 1


def _remainder_ratio(sample, f, A, k, x, y):
    """The ratio the scan forms for the ordered pair (x, y), by brute force."""
    pts, cov = sample.points_array, A.covectors
    radius = k * float(np.linalg.norm(pts[y] - pts[x]))
    ball = np.linalg.norm(pts - pts[x], axis=1) <= radius
    osc = float(np.max(np.linalg.norm(cov[ball] - cov[x], axis=1)))
    lhs = abs(f.values[y] - f.values[x] - cov[x] @ (pts[y] - pts[x]))
    return lhs / (radius * osc)


def test_remainder_tie_won_in_the_other_workers_rows(monkeypatch, forks, no_threshold):
    # (1, 2) and (2, 1) have the same largest ratio; row 1 is the child's
    sample = build_polyline([(0, 0), (1, 0), (1, 1), (0, 1), (2, 0), (2, 1)])
    f = ScalarField(sample, np.array([1.0, -1.0, 2.0, 2.0, -2.0, -2.0]))
    A = CovectorField(sample, np.array([[-2.0, -2.0], [0.0, -1.0], [0.0, -1.0],
                                        [2.0, 1.0], [1.0, -2.0], [-2.0, 2.0]]))
    one, two = one_and_two(monkeypatch, lambda: verify_remainder_bound(f, A, sample, k=1.5,
                                                                       pairs=False))
    assert one == two
    assert two.max_ratio_pair == (1, 2)
    assert _remainder_ratio(sample, f, A, 1.5, 2, 1) == two.max_ratio
    assert len(forks) == 1


def test_remainder_max_ratio_stays_at_origin_when_every_ratio_is_zero(monkeypatch, forks,
                                                                      no_threshold):
    sample = build_gasket(2)
    f = ScalarField(sample, np.zeros(sample.vertex_count))
    A = CovectorField(sample, np.zeros((sample.vertex_count, 2)))
    one, two = one_and_two(monkeypatch, lambda: verify_remainder_bound(f, A, sample, k=1.0,
                                                                       pairs=False))
    assert one == two
    assert (two.max_ratio, two.max_ratio_pair) == (0.0, (0, 0))


PROFILE_CASES = {
    "gasket3 quadratic": (lambda: build_gasket(3), quadratic_fields),
    "carpet2 random": (lambda: build_carpet(2), lambda s: random_fields(s, 4)),
    "carpet2 complex": (lambda: build_carpet(2), lambda s: random_fields(s, 5, True)),
    "helix": (lambda: build_polyline([(math.cos(t / 5), math.sin(t / 5), t / 20)
                                      for t in range(300)]),
              lambda s: random_fields(s, 6)),
}


@pytest.mark.parametrize("covectors", [True, False])
@pytest.mark.parametrize("name", sorted(PROFILE_CASES))
def test_split_profile_equals_serial(monkeypatch, forks, no_threshold, name, covectors):
    build, make_fields = PROFILE_CASES[name]
    sample = build()
    f, A = make_fields(sample)
    # one folded row per block, so that even a small sample has many blocks
    monkeypatch.setattr(geometry, "PAIR_BLOCK", 1)
    one, two = one_and_two(monkeypatch, lambda: pair_modulus_profile(
        f, A, min_pairs=1, covectors=covectors))
    # == on the bucket tuples would fail on NaN; their reprs are equal strings
    assert repr(one) == repr(two)
    assert len(forks) == 1


def test_profile_above_its_threshold(monkeypatch, forks):
    sample = build_gasket(6)
    assert sample.vertex_count >= calculus.SPLIT_MIN_ROWS
    f, A = quadratic_fields(sample)
    one, two = one_and_two(monkeypatch, lambda: pair_modulus_profile(f, A))
    assert one == two
    assert len(forks) == 1


def test_profile_nan_bucket_survives_the_merge(monkeypatch, forks, no_threshold):
    # points 0 and 1 coincide in float distance: their 0/0 ratio is NaN, and
    # the bucket holding it stays NaN however the blocks are split
    pts = [(0.0, 0.0), (0.0, 0.0)] + [(math.cos(t / 9), math.sin(t / 7)) for t in range(300)]
    sample = SetSample(2, pts, [(i, i + 1, math.dist(pts[i], pts[i + 1]))
                                for i in range(len(pts) - 1)])
    f = ScalarField(sample, np.ones(len(pts)))
    A = CovectorField(sample, np.zeros((len(pts), 2)))
    one, two = one_and_two(monkeypatch, lambda: pair_modulus_profile(f, A, min_pairs=1))
    assert repr(one) == repr(two)
    assert math.isnan(one[0].remainder_ratio_sup)
    assert len(forks) == 1


def test_profile_without_covectors_keeps_every_other_column():
    for build, make_fields in PROFILE_CASES.values():
        sample = build()
        f, A = make_fields(sample)
        full = pair_modulus_profile(f, A, min_pairs=1)
        bare = pair_modulus_profile(f, A, min_pairs=1, covectors=False)
        assert [(b.octave, b.scale, b.remainder_ratio_sup, b.count) for b in full] == [
            (b.octave, b.scale, b.remainder_ratio_sup, b.count) for b in bare]
        assert all(math.isnan(b.covector_osc_sup) for b in bare)


# ---------------------------------------------------------------------------
# command line: the pinned bytes with every scan split


@pytest.mark.parametrize("command", sorted(SCAN_DIGESTS))
def test_pinned_scan_bytes_with_two_workers(tmp_path, capsys, monkeypatch, forks,
                                           no_threshold, command):
    use_workers(monkeypatch, 2)
    level, extra, expect_code, digest = SCAN_DIGESTS[command]
    set_path, fp, ap = _gasket_quadratic(tmp_path, level)
    inputs = [set_path] if command == "k-estimate" else [set_path, fp, ap]
    capsys.readouterr()
    assert main([command, *inputs, *extra]) == expect_code
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest
    assert len(forks) == (0 if command == "k-estimate" else 1)


@pytest.mark.parametrize("k", sorted(REMAINDER_DIGESTS))
def test_pinned_remainder_bytes_with_two_workers(tmp_path, capsys, monkeypatch, forks,
                                                no_threshold, k):
    use_workers(monkeypatch, 2)
    set_path, fp, ap = _gasket_quadratic(tmp_path, 4)
    expect_code, stdout_digest, _ = REMAINDER_DIGESTS[k]
    capsys.readouterr()
    assert main(["remainder-check", set_path, fp, ap, "--k", k]) == expect_code
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == stdout_digest
    assert len(forks) == 1


# ---------------------------------------------------------------------------
# the CSV writer


def test_csv_formats_signed_zeros_and_nans_like_repr():
    nan_bits = np.array([0x7FF8000000000000, 0xFFF8000000000001], dtype=np.uint64)
    dist = np.array([0.0, -0.0, 1.5, 1.5, 2.0, 2.0])
    rem = np.r_[-0.0, 0.0, nan_bits.view(np.float64), 1e-300, 1e300]
    bound = np.array([math.inf, -math.inf, 0.1 + 0.2, 0.3, 0.3, -0.0])
    index = np.array([[0, 1], [0, 2], [1, 2], [0, 3], [1, 3], [2, 3]])
    report = RemainderBoundReport(k=1.0, tol=0.0, pair_count=12, violations=(), max_ratio=0.0,
                                  max_ratio_pair=(0, 0), passed=True, pair_dist=dist,
                                  pair_remainder=rem, pair_bound=bound, pair_index=index)
    out = io.StringIO()
    emit_pairs_csv(report, out)
    # the rows as formatted one by one, before distinct values were shared
    order = np.lexsort((index[:, 1], index[:, 0], dist))
    rows = zip(dist[order].tolist(), rem[order].tolist(), bound[order].tolist())
    assert out.getvalue() == "dist,remainder,bound\n" + "".join(
        f"{a!r},{b!r},{c!r}\n" for a, b, c in rows)
    assert "\n-0.0,0.0,-inf\n" in out.getvalue() and ",nan," in out.getvalue()
