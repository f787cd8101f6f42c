"""Geometric graph samples of quasiconvex test sets.

A sample is a finite point set in R^n together with straight edges known to
lie in the underlying set; all intrinsic-metric statements are interpreted on
this weighted graph.  Builders cover the standard test geometries: polyline
curves, Sierpinski gasket and carpet pre-fractals, piecewise-linear Lipschitz
graphs, and a two-bubble dumbbell joined by a thin neck.

Coordinates are double precision.  Stored edge lengths must agree with the
Euclidean distance of their endpoints to 1e-12 relative error; builders store
the computed distance so this holds exactly.
"""
from __future__ import annotations

import bisect
import json
import math
import os
import pickle
from collections import deque
from dataclasses import dataclass, fields, is_dataclass
from functools import cached_property
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import (BuildError, FieldMismatchError, FormatError, PathError, QcalcError,
                     ResourceLimitError)

SCHEMA_VERSION = 1

#: relative tolerance for stored-vs-Euclidean edge lengths
REL_TOL = 1e-12
#: two points closer than this are considered duplicates
DUPLICATE_TOL = 1e-12

GASKET_LEVEL_CAP = 8
CARPET_LEVEL_CAP = 5
#: most points of a Lipschitz graph or dumbbell: the largest carpet's (level 5)
POINT_CAP = 8 ** CARPET_LEVEL_CAP

_SQRT3 = math.sqrt(3.0)


def document(**entries) -> dict:
    """A report document: ``schema_version``, then ``entries``.

    Every report qcalc prints or returns is written here.  Nested report
    dataclasses become objects without ``schema_version``, and tuples
    become lists.
    """
    return {"schema_version": SCHEMA_VERSION, **_plain(entries)}


def report_dict(report, drop: Sequence[str] = (), **extra) -> dict:
    """The ``document`` of a report dataclass.

    Every field shown in the report's repr except those named in ``drop``;
    ``extra`` replaces field values or adds keys.  The extras are applied
    before the conversion, so a report's long tuples are cut before they
    are copied.
    """
    doc = {f.name: getattr(report, f.name) for f in fields(report)
           if f.repr and f.name not in drop}
    return document(**{**doc, **extra})


def _plain(value):
    if is_dataclass(value):
        value = {f.name: getattr(value, f.name) for f in fields(value) if f.repr}
    if isinstance(value, dict):
        return {key: _plain(v) for key, v in value.items()}
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    return value


def row_norms(diff: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row, bit for bit ``np.linalg.norm(diff, axis=1)``
    on ``diff`` laid out in C order.

    The squares (``(z.conj() * z).real`` for complex rows, as ``norm`` forms
    them) are added over the columns in index order, which is the order of
    numpy's own reduction below 8 columns; from 8 columns on numpy sums a
    C-ordered row pairwise, so its ``np.add.reduce`` is used there on a
    C-ordered copy.  Column sums avoid the per-row overhead of a reduction
    over a short axis, and run over contiguous memory when ``diff`` is the
    transpose of one row per coordinate.
    """
    sq = (diff.conj() * diff).real if np.iscomplexobj(diff) else diff * diff
    if sq.shape[1] >= 8:
        return np.sqrt(np.add.reduce(np.ascontiguousarray(sq), axis=1))
    acc = sq[:, 0] + sq[:, 1] if sq.shape[1] > 1 else sq[:, 0].copy()
    for c in range(2, sq.shape[1]):
        acc += sq[:, c]
    return np.sqrt(acc, out=acc)


#: pairs per block of ``pair_blocks``; blocks hold whole folded rows of nv pairs
PAIR_BLOCK = 1 << 14


def pair_blocks(nv: int) -> tuple[int, list[tuple[int, list[tuple[int, int, int]]]]]:
    """The vertex pairs i < j as blocks of flat segments, and the largest block.

    Upper-triangle row i holds the nv - 1 - i pairs (i, i + 1 .. nv - 1).
    Row i is folded together with row nv - 2 - i, which holds i + 1 pairs,
    so a folded row holds exactly nv pairs (the middle row of an even nv
    stands alone with nv / 2).  Whole folded rows are grouped into blocks of
    about ``PAIR_BLOCK`` pairs.  A block is (size, segments): segment
    (i, start, length) puts row i's pairs, in order of j, at
    ``buffer[start : start + length]``.  Buffers of the returned capacity
    are thus filled with contiguous slices, with no index gathers and no
    masked entries; every pair lies in exactly one segment.
    """
    per_block = max(1, PAIR_BLOCK // nv) if nv else 1
    blocks = []
    for first in range(0, nv // 2, per_block):
        segs, size = [], 0
        for i in range(first, min(first + per_block, nv // 2)):
            segs.append((i, size, nv - 1 - i))
            size += nv - 1 - i
            if nv - 2 - i != i:
                segs.append((nv - 2 - i, size, i + 1))
                size += i + 1
        blocks.append((size, segs))
    return (blocks[0][0] if blocks else 0), blocks


#: most vertices of a kd leaf of ``SetSample.kd_leaves`` up to 2^12 vertices
_LEAF = 16

#: most kd levels of ``SetSample.kd_leaves``: 256 leaves, so that one leaf
#: pair holds at most ``PAIR_BLOCK`` pairs up to ``POINT_CAP`` vertices
_KD_DEPTH_CAP = 8


def _kd_split(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A vertex order of a kd split of ``pts``, and the bounds of its leaves.

    Each level halves every group of consecutive vertices at its middle
    position along the group's widest coordinate.  The depth is the least
    that leaves at most ``_LEAF`` vertices in a leaf, but at most
    ``_KD_DEPTH_CAP``.  Leaf t holds ``order[bounds[t] : bounds[t + 1]]``;
    leaf sizes differ by at most 1.
    """
    nv = len(pts)
    depth = min(_KD_DEPTH_CAP, ((nv - 1) // _LEAF).bit_length())
    coords = np.ascontiguousarray(pts.T)
    order = np.arange(nv)
    for level in range(depth):
        bounds = (np.arange((1 << level) + 1) * nv) >> level
        p = np.take(coords, order, 1)
        width = np.maximum.reduceat(p, bounds[:-1], 1) - np.minimum.reduceat(p, bounds[:-1], 1)
        group = np.repeat(np.arange(1 << level, dtype=np.int16), np.diff(bounds))
        key = np.take_along_axis(p, np.argmax(width, axis=0)[group][None], 0)[0]
        # sorted by the key within each group: a stable (radix) sort of the
        # small group numbers after a sort by the key
        by_key = np.argsort(key)
        order = order[by_key[np.argsort(group[by_key], kind="stable")]]
    return order, (np.arange((1 << depth) + 1) * nv) >> depth


def _leaf_box(v: np.ndarray, order: np.ndarray, bounds: np.ndarray) -> tuple:
    """The least and largest v (vertices first) over each leaf, leaves on the last axis."""
    v = v[order].T
    return np.minimum.reduceat(v, bounds[:-1], -1), np.maximum.reduceat(v, bounds[:-1], -1)


class KdLeaves(NamedTuple):
    """The leaves of ``SetSample.kd_leaves``, as read-only arrays."""

    order: np.ndarray  # (nv,) the vertices in leaf order
    bounds: np.ndarray  # (leaves + 1,) leaf t is order[bounds[t] : bounds[t + 1]]
    slots: np.ndarray  # (s, leaves) slot t of leaf l; a short leaf repeats its last vertex
    xs: np.ndarray  # (n, s, leaves) C-contiguous coordinates of the slots
    gap: np.ndarray  # (leaves, leaves) D: the float gap of the two leaves' boxes
    upper: np.ndarray  # (leaves, leaves) bool, a <= b


#: most processes a scan is split over
MAX_WORKERS = 8


def worker_count() -> int:
    """Processes a split scan runs in: the CPUs this process may use, at most
    ``MAX_WORKERS``, and 1 where ``os.fork`` does not exist.  ``taskset -c 0
    qcalc ...`` therefore runs every scan serially."""
    if not hasattr(os, "fork"):
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return min(cpus, MAX_WORKERS)


def row_map(scan: Callable[[Sequence], Iterable], rows: Sequence, split: bool = True) -> list:
    """``list(scan(rows))``, with the rows split over ``worker_count()``
    processes when ``split`` is true.

    ``scan`` yields one result per row, in order, for any subsequence of
    ``rows``; as a generator it keeps its buffers and temporaries from row
    to row, as a plain loop does.  Worker w scans rows w, w + workers,
    w + 2 workers, ...: this process runs worker 0, and workers
    1 .. workers - 1 are forked children that send their results back
    pickled through a pipe.  The results, and so whatever the caller
    reduces them to, are those of the serial loop.  A worker stops at its
    first row that raises, and the exception of the lowest such row is
    raised here, as the serial loop would raise it.  Every child has been
    reaped when this returns or raises.

    A child is forked from the calling process as it stands, with every
    thread but the caller's gone.  numpy's OpenBLAS keeps a pool of threads
    in every process that imports it; its fork handler leaves the child's
    BLAS usable.  A caller whose own threads may hold a lock the scan needs
    (a logging handler's, say) while it forks should run the scans
    serially, by restricting its affinity mask to one CPU
    (``os.sched_setaffinity``).  Python 3.12 and later warn at each fork
    of a process that has threads.
    """
    workers = min(worker_count(), len(rows)) if split else 1
    if workers <= 1:
        return list(scan(rows))
    children, sent = [], []  # (pid, read end) per child; (status, bytes) per child
    try:
        for w in range(1, workers):
            read_end, write_end = os.pipe()
            pid = os.fork()
            if not pid:
                os.close(read_end)
                _child_share(scan, rows, w, workers, write_end)
            os.close(write_end)
            children.append((pid, read_end))
        shares = [_run_share(scan, rows, 0, workers)]
    except BaseException:
        import signal

        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, read_end in children:
            with os.fdopen(read_end, "rb") as pipe:
                data = pipe.read()
            sent.append((os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]), data))
    for w, (status, data) in enumerate(sent, 1):
        if status or not data:
            raise QcalcError(f"worker process {w} of {workers} exited with status {status} "
                             "and no result")
        shares.append(pickle.loads(data))
    failures = [failure for _, failure in shares if failure]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    results = [None] * len(rows)
    for w, (done, _) in enumerate(shares):
        results[w::workers] = done
    return results


def _run_share(scan: Callable, rows: Sequence, first: int, step: int) -> tuple[list, tuple | None]:
    """``scan`` over rows first, first + step, ... up to the first that raises:
    the results, and then (row index, exception), or None if none raised."""
    done = []
    try:
        for result in scan(rows[first::step]):
            done.append(result)
    except Exception as exc:
        return done, (first + len(done) * step, exc)
    return done, None


def _child_share(scan: Callable, rows: Sequence, first: int, step: int, write_end: int):
    """Run one share in a forked child, write it to ``write_end`` and leave by
    ``os._exit``: the child never returns into its caller's stack, and an
    interrupt is sent back like a row's exception."""
    status = 1
    try:
        try:
            share = _run_share(scan, rows, first, step)
        except BaseException as exc:
            share = [], (first, exc)
        data = pickle.dumps(share, pickle.HIGHEST_PROTOCOL)
        with os.fdopen(write_end, "wb") as pipe:
            pipe.write(data)
        status = 0
    finally:
        os._exit(status)


@dataclass(frozen=True, init=False, eq=False)
class SetSample:
    """A discretized closed subset of R^n as a weighted geometric graph.

    Stored once, as read-only arrays, with edges in input order and
    orientation; every other view is derived from them on first use.
    """

    ambient_dim: int
    points_array: np.ndarray  # (nv, n) float64
    edge_ends: np.ndarray  # C-contiguous (2, ne) intp: first and second endpoints
    edge_lengths: np.ndarray  # (ne,) float64
    label: str = ""

    def __init__(self, ambient_dim: int, points: Sequence[Sequence[float]],
                 edges: Sequence[tuple[int, int, float]], label: str = ""):
        n = int(ambient_dim)
        self._own(n, np.array(points, dtype=float).reshape(len(points), n), *_edge_table(edges),
                  label)

    def _own(self, ambient_dim, points, ends, lengths, label) -> "SetSample":
        """Take already converted arrays as this (frozen) sample's storage; a
        point or edge length that is not finite raises a BuildError."""
        if not (np.isfinite(points).all() and np.isfinite(lengths).all()):
            raise BuildError("points and edge lengths must be finite")
        for arr in (points, ends, lengths):
            arr.setflags(write=False)
        vars(self).update(ambient_dim=ambient_dim, points_array=points, edge_ends=ends,
                          edge_lengths=lengths, label=label)
        return self

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.ambient_dim, self.label) == (other.ambient_dim, other.label)
                and np.array_equal(self.points_array, other.points_array)
                and np.array_equal(self.edge_ends, other.edge_ends)
                and np.array_equal(self.edge_lengths, other.edge_lengths))

    def __hash__(self):
        return hash((self.ambient_dim, self.label, self.points_array.shape, self.edge_count))

    @property
    def vertex_count(self) -> int:
        return len(self.points_array)

    @property
    def edge_count(self) -> int:
        return len(self.edge_lengths)

    @cached_property
    def adjacency(self) -> tuple[tuple[tuple[int, float], ...], ...]:
        """Per-vertex neighbor list, sorted by neighbor index, then length."""
        (i, j), w = self.edge_ends, np.tile(self.edge_lengths, 2)
        tail, head = np.r_[i, j], np.r_[j, i]
        order = np.lexsort((w, head, tail))
        pairs = list(zip(head[order].tolist(), w[order].tolist()))
        stops = np.cumsum(np.bincount(tail, minlength=self.vertex_count)).tolist()
        return tuple(tuple(pairs[a:b]) for a, b in zip([0] + stops, stops))

    @cached_property
    def kd_leaves(self) -> KdLeaves:
        """The leaves of a kd split of the points (``_kd_split``), with what
        ``metric.verify_local_to_global`` reads of them: the slot table, the
        slot coordinates, the gap D of each leaf pair's bounding boxes
        (per-coordinate gaps through ``row_norms``) and the mask a <= b.

        Built on first use and kept, so that scans of other fields on this
        sample reuse it.  At ``POINT_CAP`` points in the plane (256 leaves of
        128) it holds 1.6 MB.
        """
        pts = self.points_array
        n = pts.shape[1]
        order, bounds = _kd_split(pts)
        sizes = np.diff(bounds)
        leaves, s = len(sizes), int(sizes.max())
        slots = order[np.minimum(np.arange(s)[:, None], sizes - 1) + bounds[:-1]]
        # leaf pair (a, b) is entry a * leaves + b of the (leaves, leaves) arrays
        lo, hi = _leaf_box(pts, order, bounds)
        gaps = np.maximum(np.maximum(lo[:, None] - hi[..., None], lo[..., None] - hi[:, None]), 0.0)
        gap = row_norms(gaps.reshape(n, -1).T).reshape(leaves, leaves)
        upper = np.arange(leaves)[:, None] <= np.arange(leaves)
        record = KdLeaves(order, bounds, slots, np.ascontiguousarray(pts.T[:, slots]), gap, upper)
        for arr in record:
            arr.setflags(write=False)
        return record

    @cached_property
    def chord_span(self) -> float:
        """``row_norms`` of the points' extent: by monotone rounding no chord is longer."""
        with np.errstate(over="ignore"):  # column by column: a reduction over axis 0 is slow
            return float(row_norms(np.array([[np.ptp(c) for c in self.points_array.T]]))[0])

    @cached_property
    def max_edge_length(self) -> float:
        return float(self.edge_lengths.max()) if self.edge_count else 0.0

    @cached_property
    def fingerprint(self) -> str:
        """Content hash used to check that fields belong to this sample."""
        import hashlib  # here, so that commands which never hash a sample skip it

        payload = _json_text(sample_document(self), None)  # json.dumps(..., sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class PolylinePath:
    """Rectifiable path through a sample as an ordered vertex chain."""

    sample: SetSample
    vertices: tuple[int, ...]
    cumulative_length: tuple[float, ...]

    @classmethod
    def from_vertices(cls, sample: SetSample, vertices: Sequence[int]) -> "PolylinePath":
        verts = tuple(int(v) for v in vertices)
        if not verts:
            raise PathError("a path needs at least one vertex")
        for v in verts:
            if not 0 <= v < sample.vertex_count:
                raise PathError(f"vertex {v} out of range")
        cum = [0.0]
        for u, v in zip(verts, verts[1:]):
            # adjacency is sorted by (neighbor, length): of parallel edges the
            # shortest is found, the one a shortest-path run relaxes through
            nbrs = sample.adjacency[u]
            k = bisect.bisect_left(nbrs, (v,))
            if k == len(nbrs) or nbrs[k][0] != v:
                raise PathError(f"consecutive vertices {u},{v} are not an edge")
            cum.append(cum[-1] + nbrs[k][1])
        return cls(sample, verts, tuple(cum))

    @property
    def length(self) -> float:
        return self.cumulative_length[-1]

    @property
    def is_closed(self) -> bool:
        return len(self.vertices) > 1 and self.vertices[0] == self.vertices[-1]

    def segments(self) -> Iterator[tuple[int, int]]:
        return zip(self.vertices, self.vertices[1:])

    def reverse(self) -> "PolylinePath":
        return PolylinePath.from_vertices(self.sample, self.vertices[::-1])


def _check_vertex(sample: SetSample, v: int) -> None:
    """Reject vertex indices outside 0..nv-1 (no wrap-around from the end)."""
    if not 0 <= v < sample.vertex_count:
        raise BuildError(f"vertex {v} out of range")


def require_chords(sample: SetSample) -> None:
    """Refuse a sample whose chords may overflow in ``row_norms``; each kernel
    that measures chords calls this first."""
    if sample.chord_span == math.inf:
        pts = sample.points_array
        raise BuildError(f"the points span {pts.min(axis=0).tolist()} to "
                         f"{pts.max(axis=0).tolist()}: their chords overflow")


def require_same_sample(*objs) -> SetSample:
    """Return the shared sample of samples, fields and paths, or raise if they disagree."""
    samples = [o.sample if not isinstance(o, SetSample) else o for o in objs]
    first = samples[0]
    for other in samples[1:]:
        if other is first:
            continue
        if other.fingerprint != first.fingerprint:
            raise FieldMismatchError(
                f"objects refer to different samples "
                f"({first.label!r} vs {other.label!r})"
            )
    return first


# ---------------------------------------------------------------------------
# validation


@dataclass(frozen=True)
class Violation:
    kind: str
    where: tuple[int, ...]
    message: str


@dataclass(frozen=True)
class ValidationReport:
    label: str
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def as_dict(self) -> dict:
        return report_dict(self, ok=self.ok)


def validate(sample: SetSample) -> ValidationReport:
    """Check every sample invariant; an empty report means the sample is valid.

    Checks, in order: edge indices in range and not self-loops, and stored
    edge lengths against Euclidean distances (relative tolerance ``REL_TOL``,
    as the loader checks them), listed together in edge order; then
    duplicate points and connectivity of the edge graph.
    """
    nv, ends, lengths = sample.vertex_count, sample.edge_ends, sample.edge_lengths
    broken = ((ends < 0) | (ends >= nv)).any(axis=0) | (ends[0] == ends[1])
    usable = np.flatnonzero(~broken)
    per_edge = {idx: Violation("index", (idx,), f"edge {idx} has bad endpoints ({i},{j})")
                for idx, i, j in zip(np.flatnonzero(broken).tolist(), *ends[:, broken].tolist())}
    bad, dist = _bad_edge_lengths(sample.points_array, ends[:, usable], lengths[usable])
    for idx, d in zip(usable[bad].tolist(), dist[bad].tolist()):
        per_edge[idx] = Violation("edge_length", (idx,), f"edge {idx} stores "
                                  f"{float(lengths[idx])!r} but endpoints are {d!r} apart")
    out = [per_edge[idx] for idx in sorted(per_edge)]
    for i, j in _near_pairs(sample.points_array):
        out.append(Violation("duplicate_points", (i, j), f"points {i} and {j} coincide"))
    if nv:
        nbrs: list[list[int]] = [[] for _ in range(nv)]
        for i, j in zip(*ends[:, usable].tolist()):
            nbrs[i].append(j)
            nbrs[j].append(i)
        seen = [False] * nv
        queue = deque([0])
        seen[0] = True
        while queue:
            u = queue.popleft()
            for v in nbrs[u]:
                if not seen[v]:
                    seen[v] = True
                    queue.append(v)
        missing = tuple(i for i, s in enumerate(seen) if not s)
        if missing:
            out.append(
                Violation(
                    "disconnected",
                    missing[:10],
                    f"{len(missing)} vertices unreachable from vertex 0",
                )
            )
    return ValidationReport(sample.label, tuple(out))


def _sweep_order(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """The order of finite ``rows`` by sweep key, the sorted keys, and a window
    that the keys of two rows ``row_norms`` puts at most ``DUPLICATE_TOL``
    apart differ by no more than.

    The rows are scaled by a power of two, so that every coordinate is below
    1 in magnitude, and dotted with a fixed unit vector u with no zero entry:
    the keys are finite whatever the rows' magnitude.  Two rows within the
    tolerance have exact keys within 2^-shift · DUPLICATE_TOL of each other;
    the window adds twice the rounding of a computed key (below
    d^1.5 · 2^-52 for keys of magnitude below sqrt(d)) and a few subnormal
    steps for scaled coordinates and products that underflow, with margin.

    Rows that are equal under ``==`` (-0.0 equals 0.0) have equal keys.  Runs
    of equal keys are ordered by the coordinates and then the index, so
    such rows sit next to each other in index order.
    """
    dim = rows.shape[1]
    shift = max(math.frexp(float(np.max(np.abs(rows))))[1], 0)
    scaled = np.ldexp(rows, -shift)
    unit = np.sqrt(np.arange(dim) + math.pi)
    unit /= np.linalg.norm(unit)
    keys = scaled[:, 0] * unit[0]
    for c in range(1, dim):
        keys += scaled[:, c] * unit[c]
    order = np.argsort(keys)
    keys = keys[order]
    tie = np.flatnonzero(keys[1:] == keys[:-1])
    if tie.size:
        run = np.union1d(tie, tie + 1)
        tied = order[run]
        order[run] = tied[np.lexsort((tied, *rows[tied].T, keys[run]))]
    window = ((math.ldexp(DUPLICATE_TOL, -shift) + dim * math.sqrt(dim) * 2.0 ** -50)
              * (1 + 2.0 ** -20) + dim * 2.0 ** -1070)
    return order, keys, window


def _near_pairs(pts: np.ndarray) -> list[tuple[int, int]]:
    """The index pairs (i < j), in order, of rows with
    ``row_norms(pts[j] - pts[i]) <= DUPLICATE_TOL``; a gap too large for a
    double overflows to inf, which is no duplicate, and a row with a
    non-finite coordinate is near no other.

    Sort and sweep (Preparata & Shamos, *Computational Geometry*, 1985): the
    finite rows are sorted by ``_sweep_order``, and pass k tests each sorted
    position t against t + k, for the positions whose keys were within the
    window at pass k - 1.  Each pass holds O(nv), and on a sample without
    near pairs the first pass finds no candidate.
    """
    rows, index = pts, np.arange(len(pts))
    if not np.isfinite(pts).all():
        index = np.flatnonzero(np.isfinite(pts).all(axis=1))
        rows = pts[index]
    n = len(index)
    if n < 2:
        return []
    order, keys, window = _sweep_order(rows)
    live, found, step = np.arange(n - 1), [], 1
    while live.size:
        live = live[live < n - step]
        live = live[keys[live + step] - keys[live] <= window]
        a, b = index[order[live]], index[order[live + step]]
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        with np.errstate(over="ignore"):
            near = row_norms(pts[hi] - pts[lo]) <= DUPLICATE_TOL
        found.append((lo[near], hi[near]))
        step += 1
    lo, hi = map(np.concatenate, zip(*found))
    by_pair = np.lexsort((hi, lo))
    return list(zip(lo[by_pair].tolist(), hi[by_pair].tolist()))


# ---------------------------------------------------------------------------
# builders


def _built_sample(points: np.ndarray, lo: np.ndarray, hi: np.ndarray, label: str) -> SetSample:
    """The sample of C-ordered (nv, n) float ``points`` and index arrays of edges
    (lo, hi), each edge's length the ``math.dist`` of its endpoints; a point or
    length that is not finite raises a BuildError.  Every builder ends here."""
    rows = points.tolist()
    lengths = np.fromiter(map(math.dist, map(rows.__getitem__, lo.tolist()),
                              map(rows.__getitem__, hi.tolist())), float, len(lo))
    return SetSample.__new__(SetSample)._own(points.shape[1], points,
                                             np.array((lo, hi), dtype=np.intp), lengths, label)


def build_polyline(
    points: Sequence[Sequence[float]], closed: bool = False, label: str | None = None
) -> SetSample:
    """Chain the given points into a polyline sample.

    With ``closed=True`` an extra edge joins the last point back to the
    first; do not repeat the first point in that case.
    """
    pts = [tuple(float(c) for c in p) for p in points]
    if len(pts) < 2:
        raise BuildError("a polyline needs at least 2 points")
    dims = {len(p) for p in pts}
    if len(dims) != 1:
        raise BuildError("points have mixed dimensions")
    if 0 in dims:
        raise BuildError("points need at least one coordinate")
    arr = np.array(pts)
    pairs = _near_pairs(arr)
    consecutive = [i for i, j in pairs if j == i + 1]
    if consecutive:
        raise BuildError(f"duplicate consecutive points at index {consecutive[0]}")
    if pairs:
        raise BuildError("duplicate points at indices {} and {}".format(*pairs[0]))
    lo = np.arange(len(pts) if closed else len(pts) - 1)
    hi = (lo + 1) % len(pts)  # the closing edge runs from the last point back to point 0
    return _built_sample(arr, lo, hi,
                         label or f"polyline n={len(pts)}{' closed' if closed else ''}")


def build_gasket(level: int) -> SetSample:
    """Edge network of all level-``level`` triangles of the unit gasket.

    Vertex count is 3(3^m+1)/2 and edge count 3^(m+1).  Construction runs on
    an integer triangular lattice, so shared corners dedupe exactly.  Each
    level splits every triangle, in order, into the ones at its corner a and
    at the midpoints of ab and ac; vertices are numbered in order of first
    appearance among the corners a, b, c of the final triangles, and each
    triangle adds the edges ab, bc and ac.
    """
    level = int(level)
    if level < 0:
        raise BuildError("level must be nonnegative")
    if level > GASKET_LEVEL_CAP:
        raise ResourceLimitError(f"gasket level {level} exceeds cap {GASKET_LEVEL_CAP}")
    side = 2 ** level
    corners = np.zeros((1, 2), dtype=np.int64)  # lattice corner a of each triangle
    for k in range(level - 1, -1, -1):
        corners = (corners[:, None] + np.array([(0, 0), (2 ** k, 0), (0, 2 ** k)])).reshape(-1, 2)
    latt = (corners[:, None] + np.array([(0, 0), (1, 0), (0, 1)])).reshape(-1, 2)
    # one integer key per lattice point; ``first`` is where each key first appears
    _, first, inverse = np.unique(latt @ np.array([side + 1, 1]), return_index=True,
                                  return_inverse=True)
    order = np.argsort(first)
    vertex = np.empty_like(order)
    vertex[order] = np.arange(len(order))
    abc = vertex[inverse].reshape(-1, 3)
    p, q = latt[first[order]].T
    scale = 0.5 ** level
    points = np.column_stack(((p + 0.5 * q) * scale, q * (_SQRT3 / 2.0) * scale))
    u, v = abc[:, [0, 1, 0]].ravel(), abc[:, [1, 2, 2]].ravel()
    return _built_sample(points, np.minimum(u, v), np.maximum(u, v), f"gasket m={level}")


def build_carpet(level: int) -> SetSample:
    """Cell-center adjacency sample of the unit Sierpinski carpet.

    One point per retained cell (8^m cells at level m), in order of x and
    then y; edges join edge-touching cells, each cell's right neighbour
    before its upper one, so every edge has length equal to the cell pitch.
    """
    level = int(level)
    if level < 0:
        raise BuildError("level must be nonnegative")
    if level > CARPET_LEVEL_CAP:
        raise ResourceLimitError(f"carpet level {level} exceeds cap {CARPET_LEVEL_CAP}")
    size = 3 ** level
    digits, retained = np.arange(size), np.ones((size, size), dtype=bool)
    for _ in range(level):  # a cell is removed if x and y have a 1 at one base-3 place
        middle = digits % 3 == 1
        retained &= ~(middle[:, None] & middle[None, :])
        digits //= 3
    xs, ys = np.nonzero(retained)
    index = np.full((size + 1, size + 1), -1)  # -1: no cell, also past the far edges
    index[xs, ys] = np.arange(len(xs))
    nbrs = np.column_stack((index[xs + 1, ys], index[xs, ys + 1])).ravel()
    kept = nbrs >= 0
    points = np.column_stack(((xs + 0.5) / size, (ys + 0.5) / size))
    return _built_sample(points, np.arange(len(xs)).repeat(2)[kept], nbrs[kept],
                         f"carpet m={level}")


def build_lipschitz_graph(
    slopes: Sequence[float], grid_step: float, span: Sequence[float]
) -> SetSample:
    """Sample the graph of a piecewise-linear function over a uniform grid.

    ``span`` is split into ``len(slopes)`` equal pieces; the function starts
    at 0 and follows each slope in turn.  The label records the Lipschitz
    constant (the largest absolute slope).
    """
    if len(span) != 2:
        raise BuildError("span must be a pair (a, b)")
    a, b = float(span[0]), float(span[1])
    if not (math.isfinite(a) and math.isfinite(b)):
        raise BuildError("span must be finite")
    if not b > a:
        raise BuildError("empty span")
    slope_list = [float(s) for s in slopes]
    if not slope_list:
        raise BuildError("need at least one slope")
    if not all(math.isfinite(s) for s in slope_list):
        raise BuildError("slopes must be finite")
    grid_step = float(grid_step)
    if not grid_step > 0:
        raise BuildError("grid_step must be positive")
    if (b - a) / grid_step + 2 > POINT_CAP:  # floor(span / step) + 1 grid points, and b
        raise ResourceLimitError(f"graph over [{a:g}, {b:g}] with step {grid_step:g} "
                                 f"exceeds the cap of {POINT_CAP} points")
    piece = (b - a) / len(slope_list)
    knots = [0.0]
    for s in slope_list:
        knots.append(knots[-1] + s * piece)

    def phi(x: float) -> float:
        k = min(int((x - a) / piece), len(slope_list) - 1)
        k = max(k, 0)
        return knots[k] + slope_list[k] * (x - (a + k * piece))

    count = int(math.floor((b - a) / grid_step + 1e-9))
    xs = [a + i * grid_step for i in range(count + 1)]
    if b - xs[-1] > 1e-12 * max(1.0, abs(b)):
        xs.append(b)
    lo = np.arange(len(xs) - 1)
    lip = max(abs(s) for s in slope_list)
    return _built_sample(np.array([(x, phi(x)) for x in xs]), lo, lo + 1,
                         f"lipschitz_graph L={lip:g} step={grid_step:g}")


def build_dumbbell(bubble_radius: float, neck_width: float, step: float) -> SetSample:
    """Two polygonal circles joined by a short two-segment neck.

    ``step`` is the angular step of the polygonal circles.  The junction of
    each circle is a polygon vertex; the neck passes through the origin, so
    its total length equals ``neck_width``.
    """
    r, w = float(bubble_radius), float(neck_width)
    if not 0 < w < r:
        raise BuildError("need 0 < neck_width < bubble_radius")
    if not step > 0:
        raise BuildError("step must be positive")
    if 4 * math.pi / step + 2 > POINT_CAP:  # 2 n + 1 points, n = round(2 pi / step)
        raise ResourceLimitError(f"dumbbell with step {step:g} exceeds the cap of "
                                 f"{POINT_CAP} points")
    n = int(round(2 * math.pi / step))
    if n < 3:
        raise BuildError("step too coarse for a polygonal circle")
    # circle a around (-(r + w/2), 0) from angle 0, circle b around (r + w/2, 0)
    # from angle pi, then the neck's midpoint at the origin
    points = [(cx + r * math.cos(t), r * math.sin(t))
              for cx, t0 in ((-(r + w / 2.0), 0.0), (r + w / 2.0, math.pi))
              for t in (t0 + 2 * math.pi * j / n for j in range(n))]
    points.append((0.0, 0.0))
    # each circle's ring, its closing edge as (first, last), then the neck
    u = np.arange(2 * n)
    v = np.where(u % n == n - 1, u - (n - 1), u + 1)
    lo, hi = np.r_[np.minimum(u, v), 0, n], np.r_[np.maximum(u, v), 2 * n, 2 * n]
    return _built_sample(np.array(points), lo, hi, f"dumbbell r={r:g} w={w:g} n={n}")


# ---------------------------------------------------------------------------
# serialization


def sample_document(sample: SetSample) -> dict:
    """The JSON document of ``sample``, which ``write_json`` writes and
    ``fingerprint`` hashes; its edges are a structured array of (i, j, length)."""
    edges = np.empty(sample.edge_count, [("i", np.intp), ("j", np.intp), ("length", float)])
    edges["i"], edges["j"], edges["length"] = *sample.edge_ends, sample.edge_lengths
    return {"version": SCHEMA_VERSION, "ambient_dim": sample.ambient_dim,
            "points": sample.points_array, "edges": edges, "label": sample.label}


def _expect(cond: bool, source: str, field: str, message: str) -> None:
    if not cond:
        raise FormatError(source, field, message)


def _is_index(x) -> bool:
    """A JSON integer; ``true``/``false`` are not indices."""
    return isinstance(x, int) and not isinstance(x, bool)


def _is_finite_number(x) -> bool:
    """A JSON number that is a finite double; booleans are not numbers."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:  # an integer too large for a double
        return False


def _number_rows(rows: list, width: int, source: str, field: str, noun: str) -> np.ndarray:
    """``rows``, each a list of ``width`` finite numbers, as one float array;
    the first bad row raises a FormatError naming it as ``<noun> <index>``."""
    for idx, row in enumerate(rows):
        if not (isinstance(row, list) and len(row) == width
                and all(map(_is_finite_number, row))):
            raise FormatError(source, field, f"{noun} {idx} is not a list of {width} finite numbers")
    return np.array(rows, dtype=float).reshape(len(rows), width)


def _edge_table(edges) -> tuple[np.ndarray, np.ndarray]:
    """Endpoints, as a C-contiguous (2, ne) index array, and lengths of (i, j, length) rows."""
    table = np.array(edges, dtype=float).reshape(len(edges), 3)
    return table[:, :2].T.astype(np.intp, order="C"), table[:, 2].copy()


def _check_edges(edges: list, nv: int, source: str) -> None:
    """The first [i, j, length] entry that is malformed, out of range or a
    self-loop raises a FormatError naming it and the first check it fails."""
    for idx, e in enumerate(edges):
        if not (isinstance(e, list) and len(e) == 3 and _is_index(e[0]) and _is_index(e[1])
                and _is_finite_number(e[2]) and e[2] >= 0):
            fault = "is not [i, j, nonnegative finite length]"
        elif not (0 <= e[0] < nv and 0 <= e[1] < nv):
            fault = "index out of range"
        elif e[0] == e[1]:
            fault = f"is a self-loop at vertex {e[0]}"
        else:
            continue
        raise FormatError(source, "edges", f"edge {idx} {fault}")


def _bad_edge_lengths(points: np.ndarray, ends: np.ndarray,
                      lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Indices (in edge order) of stored lengths more than ``REL_TOL`` relative
    from their endpoint distance, and the distances.  ``np.hypot`` scales as it
    goes, so subnormal and huge gaps, whose squares ``row_norms`` would flush
    to 0 or inf, are measured correctly."""
    dist = np.hypot.reduce(np.abs(points[ends[1]] - points[ends[0]]), axis=1)
    bad = np.abs(lengths - dist) > REL_TOL * np.maximum(dist, np.abs(lengths))
    return np.flatnonzero(bad), dist


def sample_from_dict(doc: dict, source: str = "<dict>") -> SetSample:
    """The sample a JSON document describes; a bad document raises a FormatError
    naming the field and, for points and edges, the first failing entry."""
    _expect(isinstance(doc, dict), source, "<root>", "document must be a JSON object")
    _expect("version" in doc, source, "version", "missing")
    _expect(_is_index(doc["version"]) and doc["version"] == SCHEMA_VERSION, source, "version",
            f"unknown version {doc['version']!r}, expected {SCHEMA_VERSION}")
    _expect(_is_index(doc.get("ambient_dim")) and doc["ambient_dim"] >= 1,
            source, "ambient_dim", "must be a positive integer")
    n = doc["ambient_dim"]
    pts = doc.get("points")
    _expect(isinstance(pts, list) and pts, source, "points", "must be a nonempty list")
    points = _number_rows(pts, n, source, "points", "point")
    # equal points (-0.0 equals 0.0) are neighbours with equal keys in the sweep
    # order, in index order; points that differ in any coordinate load
    order, keys, _ = _sweep_order(points)
    tie = np.flatnonzero(keys[1:] == keys[:-1])
    same = tie[np.all(points[order[tie]] == points[order[tie + 1]], axis=1)]
    if same.size:
        i, j = min(zip(order[same].tolist(), order[same + 1].tolist()))
        raise FormatError(source, "points", f"points {i} and {j} coincide")
    edges = doc.get("edges")
    _expect(isinstance(edges, list), source, "edges", "must be a list")
    _check_edges(edges, len(pts), source)
    ends, lengths = _edge_table(edges)
    bad, dist = _bad_edge_lengths(points, ends, lengths)
    if bad.size:
        idx = int(bad[0])
        raise FormatError(source, "edges", f"edge {idx} stores {float(lengths[idx])!r} "
                                           f"but endpoints are {float(dist[idx])!r} apart")
    label = doc.get("label", "")
    _expect(isinstance(label, str), source, "label", "must be a string")
    return SetSample.__new__(SetSample)._own(n, points, ends, lengths, label)


def dump_sample(sample: SetSample, path: str) -> None:
    write_json(sample_document(sample), path)


def write_json(doc, path: str | None = None) -> None:
    """Write ``json.dumps(doc, sort_keys=True, indent=2)`` and a newline to the
    file ``path``, or to stdout if ``path`` is empty; an array in ``doc`` is
    written as its nested lists.  Every document qcalc writes goes through here."""
    text = _json_text(doc, "\n") + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        print(text, end="")


def _json_text(value, nl: str | None) -> str:
    """``json.dumps(value, sort_keys=True, indent=2)`` for a value whose own
    line starts after ``nl`` (a newline and that line's indent), or
    ``json.dumps(value, sort_keys=True)`` if ``nl`` is None.

    Arrays, and lists of ints or of floats, take ``_array_text``; objects with
    plain string keys and other nonempty lists are written item by item, and
    everything else by ``json`` itself, re-indented."""
    inner = None if nl is None else nl + "  "
    if isinstance(value, np.ndarray):
        return _array_text(value, nl)
    if type(value) is dict and value and set(map(type, value)) == {str}:
        return _bracketed("{}", [json.dumps(key) + ": " + _json_text(v, inner)
                                 for key, v in sorted(value.items())], nl)
    if type(value) is list and value:
        if (kinds := set(map(type, value))) == {int} or kinds == {float}:
            numbers = np.array(value)  # ints beyond 64 bits give an object or float array
            if numbers.dtype.kind in ("f" if float in kinds else "iu"):
                return _array_text(numbers, nl)
        return _bracketed("[]", [_json_text(v, inner) for v in value], nl)
    if isinstance(value, (list, tuple, dict)):
        text = json.dumps(value, sort_keys=True, indent=None if nl is None else 2)
        return text if nl is None else text.replace("\n", nl)
    return json.dumps(value)  # a scalar, for which indent and sort_keys change nothing


def _bracketed(brackets: str, items: list, nl: str | None) -> str:
    """``items`` between ``brackets``, laid out as ``json`` does after ``nl``."""
    if nl is None:
        return brackets[0] + ", ".join(items) + brackets[1]
    inner = nl + "  "
    return brackets[0] + inner + ("," + inner).join(items) + nl + brackets[1]


def _template(shape: tuple, nl: str | None) -> str:
    """The ``%s`` template of the nested lists of an array of this shape."""
    if not shape:
        return "%s"
    inner = None if nl is None else nl + "  "
    return _bracketed("[]", [_template(shape[1:], inner)] * shape[0], nl) if shape[0] else "[]"


def _array_text(arr: np.ndarray, nl: str | None) -> str:
    """``_json_text`` of the nested lists of an int, float, complex or
    structured array.  A complex entry is written as [re, im] and a
    structured one as the list of its fields: their columns are interleaved
    along a trailing axis.  The entries fill one ``%s`` template."""
    columns, shape = [arr], arr.shape
    if arr.dtype.names or arr.dtype.kind == "c":
        columns = [arr[n] for n in arr.dtype.names] if arr.dtype.names else [arr.real, arr.imag]
        shape += (len(columns),)
    entries = [None] * math.prod(shape)
    for k, column in enumerate(columns):
        entries[k::len(columns)] = _entries(column)
    return _template(shape, nl) % tuple(entries)


#: json's text of the float reprs that are not JSON numbers
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _entries(values: np.ndarray) -> list:
    """The entries of an int or float array in C order, as the Python ints or
    floats whose strs ``json`` writes, or as those texts: when at most half
    the entries are distinct, as on a lattice, or one is not finite, each
    distinct bit pattern (-0.0 is not 0.0) is formatted once."""
    if values.dtype.kind in "iu":
        return values.ravel().tolist()
    flat = np.ravel(values.astype(np.float64, copy=False))
    bits = flat.view(np.uint64)
    ordered = np.sort(bits)
    step = ordered[1:] != ordered[:-1]
    if 2 + 2 * np.count_nonzero(step) > len(bits) and np.isfinite(flat).all():
        return flat.tolist()  # a float's str is its repr
    distinct = np.append(ordered[:1], ordered[1:][step])
    texts = map(float.__repr__, distinct.view(np.float64).tolist())
    memo = np.array([_NON_FINITE.get(t, t) for t in texts], dtype=object)
    return memo[np.searchsorted(distinct, bits)].tolist()


def read_json(path: str):
    """The JSON document at ``path``; a missing or unparsable file is a FormatError."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise FormatError(path, "<file>", "no such file") from exc
    except json.JSONDecodeError as exc:
        raise FormatError(path, "<json>", f"not valid JSON ({exc})") from exc


def load_sample(path: str) -> SetSample:
    return sample_from_dict(read_json(path), source=path)


def path_to_dict(path: PolylinePath) -> dict:
    return {
        "version": SCHEMA_VERSION,
        "set": path.sample.fingerprint,
        "vertices": list(path.vertices),
        "cumulative_length": list(path.cumulative_length),
    }
