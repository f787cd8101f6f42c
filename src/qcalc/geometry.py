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

import itertools
import json
import math
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

from .errors import BuildError, FormatError, PathError, ResourceLimitError

SCHEMA_VERSION = 1

#: relative tolerance for stored-vs-Euclidean edge lengths
REL_TOL = 1e-12
#: two points closer than this are considered duplicates
DUPLICATE_TOL = 1e-12

GASKET_LEVEL_CAP = 8
CARPET_LEVEL_CAP = 5

_SQRT3 = math.sqrt(3.0)


def row_norms(diff: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row, bit for bit ``np.linalg.norm(diff, axis=1)``.

    The squares (``(z.conj() * z).real`` for complex rows, as ``norm`` forms
    them) are added over the columns in index order, which is the order of
    numpy's own reduction below 8 columns; from 8 columns on numpy sums
    pairwise, so its ``np.add.reduce`` is used there.  Column sums avoid
    the per-row overhead of a reduction over a short axis.
    """
    sq = (diff.conj() * diff).real if np.iscomplexobj(diff) else diff * diff
    if sq.shape[1] >= 8:
        return np.sqrt(np.add.reduce(sq, axis=1))
    acc = sq[:, 0].copy()
    for c in range(1, sq.shape[1]):
        acc += sq[:, c]
    return np.sqrt(acc, out=acc)


@dataclass(frozen=True)
class SetSample:
    """A discretized closed subset of R^n as a weighted geometric graph."""

    ambient_dim: int
    points: tuple[tuple[float, ...], ...]
    edges: tuple[tuple[int, int, float], ...]
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "ambient_dim", int(self.ambient_dim))
        object.__setattr__(
            self, "points", tuple(tuple(float(c) for c in p) for p in self.points)
        )
        object.__setattr__(
            self, "edges", tuple((int(i), int(j), float(l)) for i, j, l in self.edges)
        )

    @property
    def vertex_count(self) -> int:
        return len(self.points)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @cached_property
    def points_array(self) -> np.ndarray:
        arr = np.asarray(self.points, dtype=float).reshape(len(self.points), self.ambient_dim)
        arr.setflags(write=False)
        return arr

    @cached_property
    def adjacency(self) -> tuple[tuple[tuple[int, float], ...], ...]:
        """Per-vertex neighbor list, sorted by neighbor index."""
        nbrs: list[list[tuple[int, float]]] = [[] for _ in self.points]
        for i, j, length in self.edges:
            nbrs[i].append((j, length))
            nbrs[j].append((i, length))
        return tuple(tuple(sorted(n)) for n in nbrs)

    @cached_property
    def edge_length_by_pair(self) -> dict[tuple[int, int], float]:
        return {(min(i, j), max(i, j)): l for i, j, l in self.edges}

    @cached_property
    def max_edge_length(self) -> float:
        return max((l for _, _, l in self.edges), default=0.0)

    @cached_property
    def fingerprint(self) -> str:
        """Content hash used to check that fields belong to this sample."""
        import hashlib  # here, so that commands which never hash a sample skip it

        payload = json.dumps(sample_to_dict(self), sort_keys=True)
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
        lengths = sample.edge_length_by_pair
        cum = [0.0]
        for u, v in zip(verts, verts[1:]):
            key = (min(u, v), max(u, v))
            if key not in lengths:
                raise PathError(f"consecutive vertices {u},{v} are not an edge")
            cum.append(cum[-1] + lengths[key])
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


# ---------------------------------------------------------------------------
# validation


@dataclass(frozen=True)
class Violation:
    kind: str
    where: tuple[int, ...]
    message: str

    def as_dict(self) -> dict:
        return {"kind": self.kind, "where": list(self.where), "message": self.message}


@dataclass(frozen=True)
class ValidationReport:
    label: str
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def as_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "label": self.label,
            "ok": self.ok,
            "violations": [v.as_dict() for v in self.violations],
        }


def validate(sample: SetSample, rel_tol: float = REL_TOL) -> ValidationReport:
    """Check every sample invariant; an empty report means the sample is valid.

    Checks, in order: edge indices in range and not self-loops, stored edge
    lengths against Euclidean distances (relative tolerance), duplicate
    points, and connectivity of the edge graph.
    """
    out: list[Violation] = []
    nv = sample.vertex_count
    usable: list[tuple[int, int]] = []
    for idx, (i, j, length) in enumerate(sample.edges):
        if not (0 <= i < nv and 0 <= j < nv) or i == j:
            out.append(Violation("index", (idx,), f"edge {idx} has bad endpoints ({i},{j})"))
            continue
        usable.append((i, j))
        d = math.dist(sample.points[i], sample.points[j])
        if abs(length - d) > rel_tol * max(d, abs(length)):
            out.append(
                Violation(
                    "edge_length",
                    (idx,),
                    f"edge {idx} stores {length!r} but endpoints are {d!r} apart",
                )
            )
    pts = sample.points_array
    for i in range(nv - 1):
        d = row_norms(pts[i + 1 :] - pts[i])
        for off in np.nonzero(d <= DUPLICATE_TOL)[0]:
            j = i + 1 + int(off)
            out.append(Violation("duplicate_points", (i, j), f"points {i} and {j} coincide"))
    if nv:
        nbrs: list[list[int]] = [[] for _ in range(nv)]
        for i, j in usable:
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


# ---------------------------------------------------------------------------
# builders


def _chain_edges(points: Sequence[tuple[float, ...]]) -> list[tuple[int, int, float]]:
    return [
        (i, i + 1, math.dist(points[i], points[i + 1])) for i in range(len(points) - 1)
    ]


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
    for i in range(len(pts) - 1):
        if math.dist(pts[i], pts[i + 1]) <= DUPLICATE_TOL:
            raise BuildError(f"duplicate consecutive points at index {i}")
    for i in range(len(pts) - 1):
        for j in range(i + 1, len(pts)):
            if math.dist(pts[i], pts[j]) <= DUPLICATE_TOL:
                raise BuildError(f"duplicate points at indices {i} and {j}")
    edges = _chain_edges(pts)
    if closed:
        edges.append((len(pts) - 1, 0, math.dist(pts[-1], pts[0])))
    return SetSample(
        ambient_dim=dims.pop(),
        points=tuple(pts),
        edges=tuple(edges),
        label=label or f"polyline n={len(pts)}{' closed' if closed else ''}",
    )


def build_gasket(level: int, level_cap: int = GASKET_LEVEL_CAP) -> SetSample:
    """Edge network of all level-``level`` triangles of the unit gasket.

    Vertex count is 3(3^m+1)/2 and edge count 3^(m+1).  Construction runs on
    an integer triangular lattice, so shared corners dedupe exactly.
    """
    level = int(level)
    if level < 0:
        raise BuildError("level must be nonnegative")
    if level > level_cap:
        raise ResourceLimitError(f"gasket level {level} exceeds cap {level_cap}")
    side = 2 ** level
    tris = [((0, 0), (side, 0), (0, side))]
    for _ in range(level):
        nxt = []
        for a, b, c in tris:
            mab = ((a[0] + b[0]) // 2, (a[1] + b[1]) // 2)
            mac = ((a[0] + c[0]) // 2, (a[1] + c[1]) // 2)
            mbc = ((b[0] + c[0]) // 2, (b[1] + c[1]) // 2)
            nxt.extend([(a, mab, mac), (mab, b, mbc), (mac, mbc, c)])
        tris = nxt
    scale = 0.5 ** level
    index: dict[tuple[int, int], int] = {}
    points: list[tuple[float, float]] = []

    def vertex(latt: tuple[int, int]) -> int:
        if latt not in index:
            index[latt] = len(points)
            p, q = latt
            points.append(((p + 0.5 * q) * scale, q * (_SQRT3 / 2.0) * scale))
        return index[latt]

    edges: list[tuple[int, int, float]] = []
    for a, b, c in tris:
        ia, ib, ic = vertex(a), vertex(b), vertex(c)
        for u, v in ((ia, ib), (ib, ic), (ia, ic)):
            lo, hi = min(u, v), max(u, v)
            edges.append((lo, hi, math.dist(points[lo], points[hi])))
    return SetSample(2, tuple(points), tuple(edges), label=f"gasket m={level}")


def build_carpet(level: int, level_cap: int = CARPET_LEVEL_CAP) -> SetSample:
    """Cell-center adjacency sample of the unit Sierpinski carpet.

    One point per retained cell (8^m cells at level m); edges join
    edge-touching cells, so every edge has length equal to the cell pitch.
    """
    level = int(level)
    if level < 0:
        raise BuildError("level must be nonnegative")
    if level > level_cap:
        raise ResourceLimitError(f"carpet level {level} exceeds cap {level_cap}")
    size = 3 ** level

    def retained(x: int, y: int) -> bool:
        while x or y:
            if x % 3 == 1 and y % 3 == 1:
                return False
            x //= 3
            y //= 3
        return True

    cells = [(x, y) for x in range(size) for y in range(size) if retained(x, y)]
    points = [((x + 0.5) / size, (y + 0.5) / size) for x, y in cells]
    index = {cell: i for i, cell in enumerate(cells)}
    edges: list[tuple[int, int, float]] = []
    for (x, y), i in index.items():
        for nb in ((x + 1, y), (x, y + 1)):
            j = index.get(nb)
            if j is not None:
                edges.append((i, j, math.dist(points[i], points[j])))
    return SetSample(2, tuple(points), tuple(edges), label=f"carpet m={level}")


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
    points = [(x, phi(x)) for x in xs]
    lip = max(abs(s) for s in slope_list)
    return SetSample(
        2,
        tuple(points),
        tuple(_chain_edges(points)),
        label=f"lipschitz_graph L={lip:g} step={grid_step:g}",
    )


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
    n = int(round(2 * math.pi / step))
    if n < 3:
        raise BuildError("step too coarse for a polygonal circle")
    cxa = -(r + w / 2.0)
    cxb = r + w / 2.0
    points: list[tuple[float, float]] = []
    for j in range(n):
        t = 2 * math.pi * j / n
        points.append((cxa + r * math.cos(t), r * math.sin(t)))
    for j in range(n):
        t = math.pi + 2 * math.pi * j / n
        points.append((cxb + r * math.cos(t), r * math.sin(t)))
    points.append((0.0, 0.0))
    mid = 2 * n
    edges: list[tuple[int, int, float]] = []
    for base in (0, n):
        for j in range(n):
            u = base + j
            v = base + (j + 1) % n
            lo, hi = min(u, v), max(u, v)
            edges.append((lo, hi, math.dist(points[lo], points[hi])))
    edges.append((0, mid, math.dist(points[0], points[mid])))
    edges.append((n, mid, math.dist(points[n], points[mid])))
    return SetSample(2, tuple(points), tuple(edges), label=f"dumbbell r={r:g} w={w:g} n={n}")


# ---------------------------------------------------------------------------
# serialization


def sample_to_dict(sample: SetSample) -> dict:
    return {
        "version": SCHEMA_VERSION,
        "ambient_dim": sample.ambient_dim,
        "points": [list(p) for p in sample.points],
        "edges": [[i, j, l] for i, j, l in sample.edges],
        "label": sample.label,
    }


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


def _first_coincident_pair(pts: np.ndarray) -> tuple[int, int] | None:
    """Smallest index pair (i < j) of exactly equal rows, or None.

    One lexicographic sort puts equal rows next to each other (stable, so in
    index order), so the scan is O(nv log nv).  Rows are compared with
    ``==``, under which -0.0 and 0.0 coincide.
    """
    order = np.lexsort(pts.T)
    same = np.all(pts[order[1:]] == pts[order[:-1]], axis=1)
    if not same.any():
        return None
    return min(zip(order[:-1][same].tolist(), order[1:][same].tolist()))


def _check_edge_lengths(edges: list, points: np.ndarray, source: str) -> None:
    """Stored lengths against endpoint distances by ``validate``'s rule, in O(ne).

    ``edges`` are [i, j, length] lists whose indices are already checked.
    ``np.hypot`` scales as it goes, so subnormal and huge gaps, whose squares
    ``row_norms`` would flush to 0 or inf, are measured correctly.
    """
    flat = np.fromiter(itertools.chain.from_iterable(edges), float, 3 * len(edges))
    flat = flat.reshape(-1, 3)
    ends = flat[:, :2].astype(np.intp)
    dist = np.hypot.reduce(np.abs(points[ends[:, 1]] - points[ends[:, 0]]), axis=1)
    length = flat[:, 2]
    bad = np.flatnonzero(np.abs(length - dist) > REL_TOL * np.maximum(dist, length))
    if bad.size:
        idx = int(bad[0])
        raise FormatError(source, "edges", f"edge {idx} stores {float(length[idx])!r} "
                                           f"but endpoints are {float(dist[idx])!r} apart")


def sample_from_dict(doc: dict, source: str = "<dict>") -> SetSample:
    _expect(isinstance(doc, dict), source, "<root>", "document must be a JSON object")
    _expect("version" in doc, source, "version", "missing")
    _expect(doc["version"] == SCHEMA_VERSION, source, "version",
            f"unknown version {doc['version']!r}, expected {SCHEMA_VERSION}")
    _expect(_is_index(doc.get("ambient_dim")) and doc["ambient_dim"] >= 1,
            source, "ambient_dim", "must be a positive integer")
    n = doc["ambient_dim"]
    pts = doc.get("points")
    _expect(isinstance(pts, list) and pts, source, "points", "must be a nonempty list")
    for idx, p in enumerate(pts):
        _expect(
            isinstance(p, list) and len(p) == n and all(_is_finite_number(c) for c in p),
            source, "points", f"point {idx} is not a list of {n} finite numbers",
        )
    points = np.array(pts, dtype=float)
    dup = _first_coincident_pair(points)
    if dup is not None:
        raise FormatError(source, "points", f"points {dup[0]} and {dup[1]} coincide")
    edges = doc.get("edges")
    _expect(isinstance(edges, list), source, "edges", "must be a list")
    for idx, e in enumerate(edges):
        _expect(
            isinstance(e, list) and len(e) == 3 and _is_index(e[0]) and _is_index(e[1])
            and _is_finite_number(e[2]) and e[2] >= 0,
            source, "edges", f"edge {idx} is not [i, j, nonnegative finite length]",
        )
        _expect(0 <= e[0] < len(pts) and 0 <= e[1] < len(pts), source, "edges",
                f"edge {idx} index out of range")
    _check_edge_lengths(edges, points, source)
    label = doc.get("label", "")
    _expect(isinstance(label, str), source, "label", "must be a string")
    return SetSample(n, tuple(tuple(p) for p in pts),
                     tuple((e[0], e[1], float(e[2])) for e in edges), label)


def dump_sample(sample: SetSample, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(sample_to_dict(sample), fh, sort_keys=True, indent=2)
        fh.write("\n")


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
