"""Clifford algebra Cl_n arithmetic and monogenic linear maps.

Conventions: generators e_1..e_n satisfy e_i^2 = -1 and anticommute
(negative-definite signature, the usual choice in Clifford analysis).
Multivector coefficients are stored in graded-lexicographic blade order,
e.g. for n=3: 1, e1, e2, e3, e12, e13, e23, e123; that ordering is part of
the serialization contract.  Internally blades are bitmasks and the product
runs off a per-dimension sign table (the product blade mask is the XOR of
the factor masks).

A real-linear map L(x) = sum_i x_i c_i with multivector columns c_i is left
monogenic when sum_i e_i c_i = 0 and right monogenic when sum_i c_i e_i = 0.
Since e_n is invertible, either condition lets the column over the normal
direction be recovered from the columns over a hyperplane, which is the
uniqueness phenomenon exercised here.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import AlgebraError, BuildError
from .fields import ScalarField, require_same_sample
from .geometry import (SetSample, _expect, _is_finite_number, _is_index, _number_rows,
                       report_dict)

DIM_CAP = 6


def _mask_bits(mask: int) -> tuple[int, ...]:
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


@lru_cache(maxsize=None)
def _tables(dim: int):
    """(glex mask order, mask -> glex index, sign table in mask space).

    (blade a) * (blade b) flips sign popcount(a & b) + sum over bits j of b of
    popcount(a >> (j + 1)) times: each e_j of b passes the generators of a
    above it and squares to -1 where a holds it.
    """
    size = 1 << dim
    order = sorted(range(size), key=lambda m: (m.bit_count(), _mask_bits(m)))
    order_arr = np.array(order, dtype=int)
    masks = np.arange(size)
    inv = np.empty(size, dtype=int)
    inv[order_arr] = masks
    popcount = sum((masks >> j) & 1 for j in range(dim))  # np.bitwise_count needs numpy 2
    a, b = masks[:, None], masks[None, :]
    flips = popcount[a & b] + sum(((b >> j) & 1) * popcount[a >> (j + 1)] for j in range(dim))
    return order_arr, inv, (1 - 2 * (flips & 1)).astype(np.int8)


def _check_dim(dim: int) -> int:
    dim = int(dim)
    if not 1 <= dim <= DIM_CAP:
        raise AlgebraError(f"dimension {dim} outside supported range 1..{DIM_CAP}")
    return dim


def blade_order(dim: int) -> tuple[tuple[int, ...], ...]:
    """Blades in coefficient order, as tuples of 1-based generator indices."""
    order, _, _ = _tables(_check_dim(dim))
    return tuple(tuple(i + 1 for i in _mask_bits(int(m))) for m in order)


@dataclass(frozen=True, eq=False)
class Multivector:
    dim: int
    coeffs: np.ndarray

    def __post_init__(self):
        dim = _check_dim(self.dim)
        arr = np.asarray(self.coeffs, dtype=float)
        if arr.shape != (1 << dim,):
            raise AlgebraError(
                f"expected {1 << dim} coefficients for dim {dim}, got shape {arr.shape}"
            )
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "coeffs", arr)

    @classmethod
    def zero(cls, dim: int) -> "Multivector":
        return cls(dim, np.zeros(1 << _check_dim(dim)))

    @classmethod
    def scalar(cls, dim: int, value: float) -> "Multivector":
        c = np.zeros(1 << _check_dim(dim))
        c[0] = value
        return cls(dim, c)

    @classmethod
    def basis_vector(cls, dim: int, i: int) -> "Multivector":
        return cls.blade(dim, (i,))

    @classmethod
    def blade(cls, dim: int, indices: Sequence[int]) -> "Multivector":
        """Basis blade e_{i1} ... e_{ik} for strictly increasing 1-based indices."""
        dim = _check_dim(dim)
        idx = tuple(int(i) for i in indices)
        if any(not 1 <= i <= dim for i in idx) or list(idx) != sorted(set(idx)):
            raise AlgebraError(f"blade indices {idx} must be strictly increasing in 1..{dim}")
        mask = 0
        for i in idx:
            mask |= 1 << (i - 1)
        _, inv, _ = _tables(dim)
        c = np.zeros(1 << dim)
        c[inv[mask]] = 1.0
        return cls(dim, c)

    def coefficient(self, indices: Sequence[int]) -> float:
        mask = 0
        for i in indices:
            mask |= 1 << (int(i) - 1)
        _, inv, _ = _tables(self.dim)
        return float(self.coeffs[inv[mask]])

    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))

    def __add__(self, other: "Multivector") -> "Multivector":
        if self.dim != other.dim:
            raise AlgebraError("dimension mismatch")
        return Multivector(self.dim, self.coeffs + other.coeffs)

    def __sub__(self, other: "Multivector") -> "Multivector":
        if self.dim != other.dim:
            raise AlgebraError("dimension mismatch")
        return Multivector(self.dim, self.coeffs - other.coeffs)

    def __neg__(self) -> "Multivector":
        return Multivector(self.dim, -self.coeffs)

    def __rmul__(self, scalar: float) -> "Multivector":
        if isinstance(scalar, Multivector):
            return NotImplemented
        return Multivector(self.dim, float(scalar) * self.coeffs)

    def __mul__(self, other):
        if isinstance(other, Multivector):
            return geometric_product(self, other)
        return Multivector(self.dim, self.coeffs * float(other))

    def as_dict(self) -> dict:
        return {"dim": self.dim, "coeffs": self.coeffs.tolist()}


def _dim_from_dict(doc, source: str) -> int:
    """The ``dim`` of a Clifford document, which must be a JSON object whose
    ``dim`` is an integer in 1..DIM_CAP; else a ``FormatError`` names
    ``<root>`` or ``dim``."""
    _expect(isinstance(doc, dict), source, "<root>", "document must be a JSON object")
    dim = doc.get("dim")
    _expect(_is_index(dim) and 1 <= dim <= DIM_CAP, source, "dim",
            f"must be an integer in 1..{DIM_CAP}")
    return dim


def multivector_from_dict(doc, source: str = "<dict>") -> Multivector:
    """The multivector of a ``{"dim": n, "coeffs": [...]}`` document.

    ``dim`` is checked as in ``columns_from_dict``, and ``coeffs`` must be a
    list of 2**dim finite numbers (JSON booleans are not numbers); anything
    else raises a ``FormatError`` naming the field.
    """
    dim = _dim_from_dict(doc, source)
    coeffs = doc.get("coeffs")
    _expect(isinstance(coeffs, list) and len(coeffs) == 1 << dim
            and all(map(_is_finite_number, coeffs)), source, "coeffs",
            f"must be a list of {1 << dim} finite numbers")
    return Multivector(dim, np.array(coeffs, dtype=float))


def geometric_product(a: Multivector, b: Multivector) -> Multivector:
    """Geometric product under e_i^2 = -1 with anticommuting generators."""
    if a.dim != b.dim:
        raise AlgebraError(f"dimension mismatch ({a.dim} vs {b.dim})")
    order, inv, sign = _tables(a.dim)
    size = 1 << a.dim
    am = np.empty(size)
    bm = np.empty(size)
    am[order] = a.coeffs
    bm[order] = b.coeffs
    out = np.zeros(size)
    masks = np.arange(size)
    for m in np.nonzero(am)[0]:
        out[m ^ masks] += am[m] * sign[m, :] * bm
    return Multivector(a.dim, out[order])


@dataclass(frozen=True, eq=False)
class LinearCliffordMap:
    """Real-linear map R^n -> Cl_n given by its columns L(e_i) = c_i."""

    dim: int
    columns: tuple[Multivector, ...]

    def __post_init__(self):
        dim = _check_dim(self.dim)
        cols = tuple(self.columns)
        if len(cols) != dim or any(c.dim != dim for c in cols):
            raise AlgebraError(f"need exactly {dim} columns of dimension {dim}")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "columns", cols)

    def apply(self, x: Sequence[float]) -> Multivector:
        if len(x) != self.dim:
            raise AlgebraError(f"argument must have {self.dim} components")
        out = Multivector.zero(self.dim)
        for xi, col in zip(x, self.columns):
            out = out + float(xi) * col
        return out

    def as_dict(self) -> dict:
        return {"dim": self.dim, "columns": np.stack([c.coeffs for c in self.columns]).tolist()}


def columns_from_dict(doc, source: str = "<dict>") -> tuple[int, list[Multivector]]:
    """``dim`` and the multivector columns of a ``{"dim": n, "columns": [...]}`` document.

    ``dim`` must be an integer in 1..DIM_CAP and ``columns`` a list of lists
    of 2**dim finite numbers (JSON booleans are not numbers).  Anything else
    raises a ``FormatError`` naming ``<root>``, ``dim`` or ``columns`` and,
    for a bad column, its index.
    """
    dim = _dim_from_dict(doc, source)
    cols = doc.get("columns")
    _expect(isinstance(cols, list), source, "columns", "must be a list")
    return dim, [Multivector(dim, row)
                 for row in _number_rows(cols, 1 << dim, source, "columns", "column")]


def map_from_dict(doc: dict, source: str = "<dict>") -> LinearCliffordMap:
    return LinearCliffordMap(*columns_from_dict(doc, source))


@dataclass(frozen=True)
class MonogenicReport:
    side: str
    defect: float
    tol: float
    passed: bool

    def as_dict(self) -> dict:
        return report_dict(self)


def _basis(dim: int) -> tuple[Multivector, ...]:
    return tuple(Multivector.basis_vector(dim, i) for i in range(1, dim + 1))


def _dirac_sum(directions: Sequence[Multivector], columns: Sequence[Multivector],
               side: str) -> Multivector:
    """sum_i d_i c_i (left) or sum_i c_i d_i (right), over the pairs of directions and columns."""
    total = Multivector.zero(columns[0].dim)
    for d_i, col in zip(directions, columns):
        total = total + (d_i * col if side == "left" else col * d_i)
    return total


def _check_tol(name: str, value: float) -> None:
    """Reject a tolerance that is not finite and nonnegative."""
    if not (np.isfinite(value) and value >= 0):
        raise BuildError(f"{name} must be finite and nonnegative, got {value!r}")


def is_left_monogenic(L: LinearCliffordMap, tol: float = 1e-12) -> MonogenicReport:
    """Defect norm of the left Dirac condition sum_i e_i c_i = 0; a tol that is
    not finite and nonnegative raises a ``BuildError``."""
    _check_tol("tol", tol)
    defect = _dirac_sum(_basis(L.dim), L.columns, "left").norm()
    return MonogenicReport("left", defect, tol, defect <= tol)


def is_right_monogenic(L: LinearCliffordMap, tol: float = 1e-12) -> MonogenicReport:
    """Defect norm of the right Dirac condition sum_i c_i e_i = 0; a tol that is
    not finite and nonnegative raises a ``BuildError``."""
    _check_tol("tol", tol)
    defect = _dirac_sum(_basis(L.dim), L.columns, "right").norm()
    return MonogenicReport("right", defect, tol, defect <= tol)


def complete_from_hyperplane(
    partial: Sequence[Multivector],
    side: str = "left",
    frame: np.ndarray | None = None,
) -> LinearCliffordMap:
    """Recover the missing column of a monogenic map from a hyperplane.

    ``partial`` gives the columns over the first n-1 directions of ``frame``
    (an orthogonal matrix whose last column is the hyperplane normal;
    identity by default, i.e. the hyperplane x_n = 0).  The completion is
    the unique column making the map monogenic on the requested side: with
    unit normal nu, nu^2 = -1 gives nu^{-1} = -nu, so for the left case
    c_nu = nu * sum_{i<n} nu_i c_i.  Columns are returned in the standard
    basis.
    """
    if side not in ("left", "right"):
        raise AlgebraError(f"side must be 'left' or 'right', got {side!r}")
    if not partial:
        raise AlgebraError("need at least one partial column")
    dim = partial[0].dim
    if dim < 2:
        raise AlgebraError("hyperplane completion needs dimension at least 2")
    if len(partial) != dim - 1 or any(c.dim != dim for c in partial):
        raise AlgebraError(f"expected {dim - 1} columns of dimension {dim}")
    if frame is None:
        frame = np.eye(dim)
    frame = np.asarray(frame, dtype=float)
    if frame.shape != (dim, dim) or not np.allclose(frame.T @ frame, np.eye(dim), atol=1e-9):
        raise AlgebraError("frame must be an orthogonal matrix of shape (dim, dim)")
    embed = LinearCliffordMap(dim, _basis(dim))  # x -> sum_i x_i e_i
    directions = [embed.apply(frame[:, i]) for i in range(dim)]
    acc = _dirac_sum(directions[:-1], partial, side)
    nu = directions[-1]
    # nu^{-1} = -nu; c_nu = -nu^{-1} acc (left) resp. -acc nu^{-1} (right)
    c_nu = nu * acc if side == "left" else acc * nu
    in_frame = LinearCliffordMap(dim, (*partial, c_nu))
    return LinearCliffordMap(dim, tuple(in_frame.apply(frame[j]) for j in range(dim)))


def dirac_constraint_matrix(dim: int, side: str = "left") -> np.ndarray:
    """Matrix of (c_1..c_n) -> sum_i e_i c_i (or c_i e_i), in glex coordinates.

    Shape (2^n, n 2^n); the kernel is the space of monogenic linear maps.
    Column (i, g) holds the coefficients of the geometric product e_i * blade g
    (left) or blade g * e_i (right).
    """
    dim = _check_dim(dim)
    if dim < 2:
        raise AlgebraError("constraint matrix needs dimension at least 2")
    if side not in ("left", "right"):
        raise AlgebraError(f"side must be 'left' or 'right', got {side!r}")
    blades = [Multivector(dim, unit) for unit in np.eye(1 << dim)]
    return np.column_stack([(e_i * blade if side == "left" else blade * e_i).coeffs
                            for e_i in _basis(dim) for blade in blades])


def monogenic_space_dimension(n: int, side: str = "left") -> int:
    """Real dimension of the space of monogenic linear maps, by rank.

    The Dirac constraint removes exactly one column's worth of freedom, so
    the result equals (n-1) 2^n.
    """
    if not 2 <= n <= DIM_CAP:
        raise AlgebraError(f"n must be in 2..{DIM_CAP}, got {n}")
    K = dirac_constraint_matrix(n, side)
    rank = int(np.linalg.matrix_rank(K))
    return n * (1 << n) - rank


# ---------------------------------------------------------------------------
# complex specialization (n = 2)


def complex_to_even(z: complex) -> Multivector:
    """Embed C into the even part of Cl_2 by 1 -> 1, i -> e2 e1 = -e12."""
    out = Multivector.zero(2)
    c = out.coeffs.copy()
    c.setflags(write=True)
    c[0] = z.real
    c[3] = -z.imag
    return Multivector(2, c)


@dataclass(frozen=True)
class ComplexLinearMap:
    """The complex-linear map on R^2 = C sending z to on_one * z: the unique
    complex-linear extension of x -> on_one x from the real axis to C.

    Under the documented embedding (i -> e2 e1) this agrees with the left
    Clifford completion from the hyperplane x_2 = 0.
    """

    on_one: complex

    def __post_init__(self):
        object.__setattr__(self, "on_one", complex(self.on_one))

    @property
    def on_i(self) -> complex:
        return 1j * self.on_one

    def apply(self, z: complex) -> complex:
        return self.on_one * z

    def as_real_matrix(self) -> np.ndarray:
        a, b = self.on_one.real, self.on_one.imag
        return np.array([[a, -b], [b, a]])

    def clifford_columns(self) -> tuple[Multivector, Multivector]:
        return complex_to_even(self.on_one), complex_to_even(self.on_i)


complex_complete = ComplexLinearMap


# ---------------------------------------------------------------------------
# tangential derivative on Lipschitz graphs


@dataclass(frozen=True)
class GraphDerivativeReport:
    node_count: int
    grid_step: float
    residuals: tuple[float, ...]
    max_residual: float
    threshold: float
    passed: bool

    def as_dict(self) -> dict:
        return report_dict(self, drop=("residuals",),
                           phi_prime_convention="centered secant slope at interior nodes")


def _require_graph_chain(sample: SetSample) -> None:
    if sample.ambient_dim != 2:
        raise BuildError("graph samples live in the plane")
    expected = {(i, i + 1) for i in range(sample.vertex_count - 1)}
    got = {(min(i, j), max(i, j)) for i, j, _ in sample.edges}
    if got != expected:
        raise BuildError("sample is not a chained graph built over a grid")
    xs = [p[0] for p in sample.points]
    if any(b <= a for a, b in zip(xs, xs[1:])):
        raise BuildError("graph sample must have strictly increasing x coordinates")


def tangential_derivative_on_graph(
    f: ScalarField,
    deriv: ScalarField,
    c_quad: float = 1.0,
    tol: float = 1e-9,
) -> GraphDerivativeReport:
    """Check complex derivative samples against the tangential difference quotient.

    On the graph of phi, parameterized by x, a holomorphic-type derivative
    a(z) must satisfy d/dx f(x + i phi(x)) = a(z) (1 + i phi'(x)); this is
    the perturbation of d/dx carried by the graph.  Both sides are evaluated
    at interior grid nodes with centered differences (phi' is the centered
    secant slope, which equals the edge slope on linear pieces).  Complex
    linearity of the differential is built into the representation: the
    value a acts on a planar direction (dx, dy) as a (dx + i dy).

    Passes when the worst residual is at most c_quad * h^2 + tol for the
    grid step h.  A c_quad or tol that is not finite and nonnegative raises
    a ``BuildError``.
    """
    _check_tol("c_quad", c_quad)
    _check_tol("tol", tol)
    sample = require_same_sample(f, deriv)
    _require_graph_chain(sample)
    pts = sample.points_array
    xs = pts[:, 0]
    zs = xs + 1j * pts[:, 1]
    fv = f.values.astype(np.complex128)
    av = deriv.values.astype(np.complex128)
    h = float(np.max(np.diff(xs)))
    residuals = []
    for j in range(1, sample.vertex_count - 1):
        dx = xs[j + 1] - xs[j - 1]
        lhs = (fv[j + 1] - fv[j - 1]) / dx
        rhs = av[j] * (zs[j + 1] - zs[j - 1]) / dx
        residuals.append(float(abs(lhs - rhs)))
    max_res = max(residuals) if residuals else 0.0
    threshold = c_quad * h * h + tol
    return GraphDerivativeReport(
        node_count=sample.vertex_count,
        grid_step=h,
        residuals=tuple(residuals),
        max_residual=max_res,
        threshold=float(threshold),
        passed=max_res <= threshold,
    )
