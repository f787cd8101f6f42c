"""First-order differentiability diagnostics on finite samples.

A candidate differential field is Whitney-compatible with f when the
first-order remainder over pairs is small relative to |x-y| uniformly at
small scales.  Whether the differential at a point is pinned down by the
function depends on the local shape of the sample: inside a hyperplane the
normal component is free, and nearly-flat neighborhoods make it unstable.
All local analyses here reduce to singular spectra of (radius-normalized)
neighbor matrices.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calculus import pair_modulus_profile
from .errors import BuildError, UndersampledError, UnderdeterminedNeighborhoodError
from .fields import CovectorField, ScalarField, require_same_sample
from .geometry import SetSample, report_dict, row_norms
from .metric import _check_vertex


def _ball_indices(sample: SetSample, x: int, radius: float) -> np.ndarray:
    _check_vertex(sample, x)
    if not (np.isfinite(radius) and radius > 0):
        raise UnderdeterminedNeighborhoodError(
            f"radius must be finite and positive, got {radius!r}")
    pts = sample.points_array
    d = row_norms(pts - pts[x])
    idx = np.nonzero(d <= radius)[0]
    if len(idx) < sample.ambient_dim + 1:
        raise UnderdeterminedNeighborhoodError(
            f"ball around vertex {x} holds {len(idx)} points, "
            f"need at least {sample.ambient_dim + 1}"
        )
    return idx


def _fix_sign(vec: np.ndarray) -> np.ndarray:
    lead = np.argmax(np.abs(vec))
    return -vec if vec[lead] < 0 else vec


@dataclass(frozen=True)
class FlatnessReport:
    center: int
    radius: float
    singular_values: tuple[float, ...]
    thin_direction: tuple[float, ...]
    flatness_score: float

    def as_dict(self) -> dict:
        return report_dict(self, score_convention="smallest/largest singular value of the "
                           "mean-centered, radius-normalized neighbor matrix")


def local_flatness(sample: SetSample, x: int, radius: float) -> FlatnessReport:
    """Singular spectrum of the neighborhood of x at the given radius.

    A score near zero means the ball is approximately contained in a
    hyperplane; ``thin_direction`` is the corresponding normal candidate.
    """
    idx = _ball_indices(sample, x, radius)
    pts = sample.points_array[idx]
    q = (pts - pts.mean(axis=0)) / radius
    _, s, vt = np.linalg.svd(q, full_matrices=False)
    thin = _fix_sign(vt[-1])
    return FlatnessReport(
        center=int(x),
        radius=float(radius),
        singular_values=tuple(float(v) for v in s),
        thin_direction=tuple(float(c) for c in thin),
        flatness_score=float(s[-1] / s[0]),
    )


@dataclass(frozen=True)
class SubspaceReport:
    center: int
    radius: float
    slack: float
    dimension: int
    basis: tuple[tuple[float, ...], ...]
    singular_values: tuple[float, ...]

    def as_dict(self) -> dict:
        return report_dict(self)


def determined_subspace(
    sample: SetSample, f: ScalarField, x: int, radius: float, slack: float = 1e-6
) -> SubspaceReport:
    """Directions in which the differential at x is pinned by the data.

    The difference-quotient design matrix (w - x over the ball, divided by
    the radius) determines the differential along its singular directions
    with singular value above ``slack``; the orthogonal complement is free.
    """
    require_same_sample(sample, f)
    idx = _ball_indices(sample, x, radius)
    rows = (sample.points_array[idx] - sample.points_array[x]) / radius
    _, s, vt = np.linalg.svd(rows, full_matrices=True)
    s = np.concatenate([s, np.zeros(sample.ambient_dim - len(s))])
    dim = int(np.sum(s > slack))
    basis = tuple(tuple(float(c) for c in _fix_sign(vt[i])) for i in range(dim))
    return SubspaceReport(
        center=int(x),
        radius=float(radius),
        slack=float(slack),
        dimension=dim,
        basis=basis,
        singular_values=tuple(float(v) for v in s),
    )


@dataclass(frozen=True)
class StabilityReport:
    center: int
    radius: float
    unique: bool
    condition: float | None
    singular_values: tuple[float, ...]

    def as_dict(self) -> dict:
        return report_dict(self)


def differential_stability(
    sample: SetSample, f: ScalarField, x: int, radius: float, slack: float = 1e-12
) -> StabilityReport:
    """Condition number of the local least-squares system for the differential.

    When the neighborhood does not determine all of R^n (smallest singular
    value at or below ``slack``) the differential is not unique and no
    condition number is reported.
    """
    require_same_sample(sample, f)
    idx = _ball_indices(sample, x, radius)
    rows = (sample.points_array[idx] - sample.points_array[x]) / radius
    s = np.linalg.svd(rows, compute_uv=False)
    s = np.concatenate([s, np.zeros(sample.ambient_dim - len(s))])
    unique = bool(s[-1] > slack)
    return StabilityReport(
        center=int(x),
        radius=float(radius),
        unique=unique,
        condition=float(s[0] / s[-1]) if unique else None,
        singular_values=tuple(float(v) for v in s),
    )


@dataclass(frozen=True)
class WhitneyC1Report:
    threshold: float
    decay_tol: float
    buckets: tuple[tuple[float, float, int], ...]
    smallest_scale_ratio: float
    decay_ok: bool
    small_scale_ok: bool

    @property
    def passed(self) -> bool:
        return self.decay_ok and self.small_scale_ok

    def as_dict(self) -> dict:
        return report_dict(self, passed=self.passed)


def check_whitney_c1(
    sample: SetSample,
    f: ScalarField,
    A: CovectorField,
    scale_buckets: int = 6,
    threshold: float = 0.05,
    decay_tol: float = 0.1,
) -> WhitneyC1Report:
    """Test sup-remainder/|x-y| decay over the smallest dyadic scales.

    Passes when the smallest-scale bucket ratio is at most ``threshold`` and
    the ratios are nonincreasing (within ``decay_tol`` relative slack, finite
    and nonnegative) across the three smallest buckets.  A genuine
    differential decays to 0; a systematically perturbed one plateaus.  The
    report lists the ``scale_buckets`` (at least 3) smallest buckets of 8 or
    more pairs.  The profile forks worker processes on large samples (see
    ``calculus.pair_modulus_profile``).  A ``threshold`` that is not finite
    raises a ``BuildError``.
    """
    require_same_sample(sample, f, A)
    if scale_buckets < 3:  # the decay test reads the three smallest buckets
        raise BuildError(f"scale_buckets must be at least 3, got {scale_buckets}")
    if not np.isfinite(threshold):
        raise BuildError(f"threshold must be finite, got {threshold!r}")
    if not (np.isfinite(decay_tol) and decay_tol >= 0):
        raise BuildError(f"decay_tol must be finite and nonnegative, got {decay_tol!r}")
    profile = pair_modulus_profile(f, A, covectors=False)
    if len(profile) < 3:
        raise UndersampledError(
            f"only {len(profile)} populated scale buckets, need at least 3"
        )
    chosen = profile[:scale_buckets]
    buckets = tuple(
        (b.scale, b.remainder_ratio_sup, b.count) for b in chosen
    )
    ratios = [b.remainder_ratio_sup for b in chosen[:3]]
    # absolute floor so machine-zero ratios count as decayed
    decay_ok = all(
        ratios[i] <= ratios[i + 1] * (1.0 + decay_tol) + 1e-12
        for i in range(len(ratios) - 1)
    )
    smallest = float(chosen[0].remainder_ratio_sup)
    return WhitneyC1Report(
        threshold=float(threshold),
        decay_tol=float(decay_tol),
        buckets=buckets,
        smallest_scale_ratio=smallest,
        decay_ok=decay_ok,
        small_scale_ok=smallest <= threshold,
    )
