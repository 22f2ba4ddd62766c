"""Min-max feature normalization into the open sigmoid range.

Deep models reconstruct through a final sigmoid, so training features must
live strictly inside (0, 1). Features are mapped affinely per dimension
into [epsilon, 1 - epsilon]; probe-time values outside the training range
clamp to that interval. The stats computed at training time travel with
the trained model and are reused verbatim for probes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_EPSILON = 1e-6


@dataclass(frozen=True, eq=False)
class NormalizationStats:
    """Per-dimension minima/maxima and the clamping epsilon.

    When per_dimension is False, lo and hi hold one global value broadcast
    over all dimensions.
    """

    lo: np.ndarray
    hi: np.ndarray
    epsilon: float = DEFAULT_EPSILON
    per_dimension: bool = True

    def __post_init__(self):
        if not 0.0 < self.epsilon < 0.5:
            raise ValueError(f"epsilon must be in (0, 0.5), got {self.epsilon}")
        if self.lo.shape != self.hi.shape or self.lo.ndim != 1:
            raise ValueError("stats lo/hi must be matching 1-d arrays")
        if not (np.isfinite(self.lo).all() and np.isfinite(self.hi).all()):
            raise ValueError("stats lo/hi must be finite")
        if np.any(self.hi < self.lo):
            raise ValueError("stats require hi >= lo in every dimension")

    @property
    def dim(self) -> int:
        return self.lo.shape[0]


def compute_stats(
    X: np.ndarray,
    epsilon: float = DEFAULT_EPSILON,
    per_dimension: bool = True,
) -> NormalizationStats:
    """Extract min-max stats from a (d, s) feature matrix."""
    X = _checked(X)
    if per_dimension:
        lo, hi = X.min(axis=1), X.max(axis=1)
    else:
        d = X.shape[0]
        lo = np.full(d, X.min())
        hi = np.full(d, X.max())
    return NormalizationStats(lo=lo, hi=hi, epsilon=epsilon, per_dimension=per_dimension)


def apply_stats(X: np.ndarray, stats: NormalizationStats) -> np.ndarray:
    """Map features into [epsilon, 1 - epsilon] using fixed stats.

    Accepts a (d, s) matrix or a single (d,) vector. Out-of-range values
    clamp to the interval ends; a constant dimension (hi == lo) maps to 0.5.
    The mapping runs in place in the result, with one temporary.
    """
    X = np.asarray(X, dtype=float)
    vec = X.ndim == 1
    if vec:
        X = X[:, None]
    if X.shape[0] != stats.dim:
        raise ValueError(
            f"feature dimension {X.shape[0]} does not match stats dimension {stats.dim}"
        )
    span = stats.hi - stats.lo
    flat = span <= 0
    safe = np.where(flat, 1.0, span)
    out = np.subtract(X, stats.lo[:, None])
    out /= safe[:, None]
    out[flat, :] = 0.5
    np.clip(out, 0.0, 1.0, out=out)
    eps = stats.epsilon
    # The convex combination (1 - u) eps + u (1 - eps) hits the interval
    # ends exactly at u = 0 and 1. Its terms are rounded as written, and
    # their sum does not depend on their order.
    low = np.subtract(1.0, out)
    low *= eps
    out *= 1.0 - eps
    out += low
    np.clip(out, eps, 1.0 - eps, out=out)
    return out[:, 0] if vec else out


def normalize_features(
    X: np.ndarray,
    stats: NormalizationStats | None = None,
    epsilon: float = DEFAULT_EPSILON,
    per_dimension: bool = True,
) -> tuple[np.ndarray, NormalizationStats]:
    """Normalize a feature matrix, computing stats from it when none given.

    Returns the mapped matrix and the stats used, so callers can persist
    them for probe time.
    """
    X = _checked(X)
    if stats is None:
        stats = compute_stats(X, epsilon=epsilon, per_dimension=per_dimension)
    return apply_stats(X, stats), stats


def _checked(X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] < 1 or X.shape[1] < 1:
        raise ValueError(f"expected a (d, s) feature matrix, got shape {X.shape}")
    if not np.isfinite(X).all():
        raise ValueError("feature matrix contains non-finite entries")
    return X
