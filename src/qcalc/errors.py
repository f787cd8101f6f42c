"""Exception types shared across the package, and the rule check on numeric arguments."""
from __future__ import annotations

import cmath


class QcalcError(Exception):
    """Base class for all qcalc errors."""


class BuildError(QcalcError, ValueError):
    """Invalid parameters passed to a builder or an operation."""


#: the rules of ``require``; "finite" alone takes a complex value
_RULES = {
    "finite": cmath.isfinite,
    "nonnegative": lambda v: v >= 0,  # inf passes, NaN does not
    "finite and nonnegative": lambda v: cmath.isfinite(v) and v >= 0,
    "finite and positive": lambda v: cmath.isfinite(v) and v > 0,
}


def require(name: str, value, rule: str) -> None:
    """Raise a ``BuildError`` naming ``name`` unless ``value`` satisfies
    ``rule``, one of the keys of ``_RULES``."""
    if not _RULES[rule](value):
        raise BuildError(f"{name} must be {rule}, got {value!r}")


class ResourceLimitError(QcalcError):
    """A size or refinement-level cap would be exceeded."""


class FormatError(QcalcError):
    """A serialized document failed structural validation."""

    def __init__(self, source: str, field: str, message: str):
        super().__init__(f"{source}: invalid field '{field}': {message}")
        self.source = source
        self.field = field


class DisconnectedSampleError(QcalcError):
    """Two vertices are not joined by any edge path."""


class PathError(QcalcError):
    """A vertex chain does not form a valid path for the operation."""


class FieldMismatchError(QcalcError):
    """Fields or paths refer to different samples."""


class UndersampledError(QcalcError):
    """Not enough populated scale buckets for a modulus fit."""


class UnderdeterminedNeighborhoodError(QcalcError):
    """Too few neighbors in the requested ball."""


class AlgebraError(QcalcError, ValueError):
    """Dimension mismatch or unsupported dimension in Clifford arithmetic."""
