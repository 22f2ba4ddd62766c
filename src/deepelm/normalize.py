"""Min-max feature normalization into the open sigmoid range.

Deep models reconstruct through a final sigmoid, so training features must
live strictly inside (0, 1). Each feature dimension is mapped affinely,
from its own training minimum and maximum, into [epsilon, 1 - epsilon]
with epsilon = DEFAULT_EPSILON; probe-time values outside the training
range clamp to that interval. The stats computed at training time, their
epsilon included, travel with the trained model and are reused verbatim
for probes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_EPSILON = 1e-6


@dataclass(frozen=True, eq=False)
class NormalizationStats:
    """Per-dimension minima/maxima and the clamping epsilon."""

    lo: np.ndarray
    hi: np.ndarray
    epsilon: float = DEFAULT_EPSILON

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


def compute_stats(X: np.ndarray) -> NormalizationStats:
    """Extract per-dimension min-max stats from a (d, s) feature matrix."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] < 1 or X.shape[1] < 1:
        raise ValueError(f"expected a (d, s) feature matrix, got shape {X.shape}")
    if not np.isfinite(X).all():
        raise ValueError("feature matrix contains non-finite entries")
    return NormalizationStats(lo=X.min(axis=1), hi=X.max(axis=1))


def apply_stats(X: np.ndarray, stats: NormalizationStats) -> np.ndarray:
    """Map the (d, s) feature matrix X into [epsilon, 1 - epsilon] using
    fixed stats; a single sample is a one-column matrix.

    Out-of-range values clamp to the interval ends; a constant dimension
    (hi == lo) maps to 0.5. The mapping runs in place in the result, with
    one temporary.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError(f"expected a (d, s) feature matrix, got shape {X.shape}")
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
    return out


def normalize_features(X: np.ndarray) -> tuple[np.ndarray, NormalizationStats]:
    """Normalize a feature matrix with stats computed from it.

    Returns the mapped matrix and the stats, so callers can persist them
    for probe time.
    """
    stats = compute_stats(X)
    return apply_stats(X, stats), stats

