"""Scalar and covector fields sampled on the vertices of a SetSample.

Covectors act through the standard inner product, so a covector field is
stored as one R^n (or C^n) vector per vertex.  Complex-valued scalar fields
carry the planar holomorphic test data.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import BuildError, FieldMismatchError, FormatError
from .geometry import (SCHEMA_VERSION, SetSample, _expect, _is_finite_number, _is_index, as_lists,
                       read_json, write_json)


def _coerce(values, shape, what: str) -> np.ndarray:
    arr = np.asarray(values)
    if np.iscomplexobj(arr):
        arr = arr.astype(np.complex128)
    else:
        arr = arr.astype(np.float64)
    if arr.shape != shape:
        raise BuildError(f"{what} has shape {arr.shape}, expected {shape}")
    if not np.all(np.isfinite(arr)):
        raise BuildError(f"{what} contains non-finite entries")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class ScalarField:
    """Sampled function on a set, one value per vertex."""

    sample: SetSample
    values: np.ndarray
    warning: str | None = None

    def __post_init__(self):
        object.__setattr__(
            self, "values", _coerce(self.values, (self.sample.vertex_count,), "values")
        )

    @classmethod
    def from_function(cls, sample: SetSample, fn: Callable) -> "ScalarField":
        return cls(sample, np.array([fn(p) for p in sample.points]))

    @property
    def is_complex(self) -> bool:
        return np.iscomplexobj(self.values)

    def as_document(self) -> dict:
        """The field's JSON document, its values an array (``write_json``
        writes a complex value as [re, im])."""
        doc = {"version": SCHEMA_VERSION, "set": self.sample.fingerprint, "values": self.values}
        if self.warning is not None:
            doc["warning"] = self.warning
        return doc

    def as_dict(self) -> dict:
        return as_lists(self.as_document())


@dataclass(frozen=True, eq=False)
class CovectorField:
    """Sampled field of linear functionals, one representing vector per vertex."""

    sample: SetSample
    covectors: np.ndarray

    def __post_init__(self):
        shape = (self.sample.vertex_count, self.sample.ambient_dim)
        object.__setattr__(self, "covectors", _coerce(self.covectors, shape, "covectors"))

    @classmethod
    def from_function(cls, sample: SetSample, fn: Callable) -> "CovectorField":
        return cls(sample, np.array([fn(p) for p in sample.points]))

    @classmethod
    def constant(cls, sample: SetSample, vector: Sequence[float]) -> "CovectorField":
        row = np.asarray(vector)
        return cls(sample, np.tile(row, (sample.vertex_count, 1)))

    @property
    def is_complex(self) -> bool:
        return np.iscomplexobj(self.covectors)

    def as_document(self) -> dict:
        return {"version": SCHEMA_VERSION, "set": self.sample.fingerprint,
                "covectors": self.covectors}

    def as_dict(self) -> dict:
        return as_lists(self.as_document())


def require_same_sample(*objs) -> SetSample:
    """Return the shared sample, or raise if the objects disagree."""
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


def _check_header(doc, sample: SetSample, source: str) -> None:
    """A field document is a JSON object of this schema version whose ``set``,
    if given, names ``sample`` by fingerprint or label."""
    _expect(isinstance(doc, dict), source, "<root>", "document must be a JSON object")
    version = doc.get("version")
    _expect(_is_index(version) and version == SCHEMA_VERSION, source, "version", "unknown version")
    ref = doc.get("set", "")
    _expect(isinstance(ref, str), source, "set", "must be a string")
    if ref and ref != sample.label and ref != sample.fingerprint:  # the label costs no hash
        raise FormatError(source, "set", "refers to a different sample")


def _parse_value(v, source: str, field: str):
    if _is_finite_number(v):
        return float(v)
    if isinstance(v, list) and len(v) == 2 and all(_is_finite_number(c) for c in v):
        return complex(v[0], v[1])
    raise FormatError(source, field,
                      f"entry {v!r} is neither a finite number nor [re, im] of finite numbers")


def scalar_field_from_dict(doc: dict, sample: SetSample, source: str = "<dict>") -> ScalarField:
    _check_header(doc, sample, source)
    vals = doc.get("values")
    _expect(isinstance(vals, list), source, "values", "must be a list")
    _expect(len(vals) == sample.vertex_count, source, "values",
            f"has {len(vals) if isinstance(vals, list) else '?'} entries, "
            f"expected {sample.vertex_count}")
    parsed = [_parse_value(v, source, "values") for v in vals]
    return ScalarField(sample, np.array(parsed))


def covector_field_from_dict(doc: dict, sample: SetSample, source: str = "<dict>") -> CovectorField:
    _check_header(doc, sample, source)
    rows = doc.get("covectors")
    _expect(isinstance(rows, list) and len(rows) == sample.vertex_count, source, "covectors",
            f"must be a list of {sample.vertex_count} vectors")
    parsed = []
    for idx, row in enumerate(rows):
        if not (isinstance(row, list) and len(row) == sample.ambient_dim):
            raise FormatError(source, "covectors",
                              f"row {idx} is not a vector of length {sample.ambient_dim}")
        parsed.append([_parse_value(c, source, "covectors") for c in row])
    return CovectorField(sample, np.array(parsed))


def load_field(path: str, sample: SetSample):
    """Load a scalar or covector field JSON document, keyed by its payload."""
    doc = read_json(path)
    if isinstance(doc, dict) and "covectors" in doc:
        return covector_field_from_dict(doc, sample, source=path)
    if isinstance(doc, dict) and "values" in doc:
        return scalar_field_from_dict(doc, sample, source=path)
    raise FormatError(path, "<root>", "expected a 'values' or 'covectors' document")


def dump_field(field, path: str) -> None:
    write_json(field.as_document(), path)
