"""Single-hidden-layer extreme learning machine primitives.

An ELM fixes a random hidden-layer mapping and learns only the output
weights, in closed form. This module provides the activation (the
sigmoid, the only one the models use), the random orthonormal feature
mapping, the ridge-regression solver (its primal closed form when there
are at least as many samples as hidden units, its dual form otherwise),
and the orthogonal Procrustes solver used when input and layer widths
coincide.

All numerics run on NumPy: dense linear algebra on its LAPACK, and the
sigmoid on its ufuncs. SciPy is not imported at run time: it ships its own
OpenBLAS with its own thread pool, and two multi-threaded pools woken in
turn compete for the same cores.

Conventions: feature matrices are (d, s) with one sample per column.
Solver design matrices are (samples, features) with one sample per row, so
the fitted weights satisfy ``psi(x_j) @ B ~= t_j`` row-wise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import NumericError


def activate(u, out=None):
    """The sigmoid 1 / (1 + exp(-u)) elementwise, of a scalar or array.

    The result goes into out when given, which may be u itself: the
    forward passes activate each product in place. Without out it goes
    into one fresh buffer, and u is left untouched. Either way the bits
    are the same. exp(-u) overflows to inf for u below about -709.8, and
    the reciprocal then saturates to exactly 0; the overflow is expected
    and not warned about. A scalar gives a scalar.
    """
    x = np.asarray(u, dtype=float)
    out = np.negative(x, out=np.empty_like(x) if out is None else out)
    with np.errstate(over="ignore"):
        np.exp(out, out=out)
    out += 1.0
    np.reciprocal(out, out=out)
    return out if out.ndim else out[()]


@dataclass(frozen=True, eq=False)
class HiddenLayerParams:
    """Fixed feature mapping of one hidden layer.

    W has shape (n_h, d) with the weight vector of hidden unit i as row i;
    b has shape (n_h,). When n_h <= d the rows of W are orthonormal; when
    n_h > d only the first d rows are orthonormal and the remainder are
    unit norm.
    """

    W: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        if self.W.ndim != 2 or self.b.shape != (self.W.shape[0],):
            raise ValueError(
                f"inconsistent mapping shapes W={self.W.shape}, b={self.b.shape}"
            )

    @property
    def input_dim(self) -> int:
        return self.W.shape[1]


# Seeds go to NumPy's SeedSequence, which takes no negative value, and a
# saved bundle stores the training seed as an int64.
MAX_SEED = 2**63 - 1


def check_seed(seed, error: type[Exception] = ValueError) -> int:
    """seed as an int, or raise error unless it is an integer in [0, MAX_SEED].

    Python and NumPy integers are accepted, bool is not.
    """
    if isinstance(seed, (int, np.integer)) and not isinstance(seed, bool):
        if 0 <= seed <= MAX_SEED:
            return int(seed)
    raise error(f"seed must be an integer in [0, {MAX_SEED}], got {seed!r}")


def random_orthonormal_mapping(d: int, n_h: int, seed) -> HiddenLayerParams:
    """Draw the hidden mapping for input dimension d with n_h units.

    Entries are sampled iid uniform on [-1, 1]; weight rows are then
    orthonormalized by QR so the mapping projects onto a random subspace.
    Biases stay as sampled. The weights and bias of unit i are drawn
    together, so for a fixed seed a smaller mapping agrees with the prefix
    of a larger one (exactly for the raw draws, to rounding after
    orthonormalization). Deterministic for a fixed (d, n_h, seed).
    """
    if d < 1 or n_h < 1:
        raise ValueError(f"d and n_h must be >= 1, got d={d}, n_h={n_h}")
    rng = np.random.default_rng(seed)
    draw = rng.uniform(-1.0, 1.0, size=(n_h, d + 1))
    raw, b = draw[:, :d], np.ascontiguousarray(draw[:, d])
    k = min(n_h, d)
    Q, _ = np.linalg.qr(raw[:k].T)
    W = np.empty((n_h, d))
    W[:k] = Q.T
    if n_h > d:
        # No room for more orthonormal rows; keep the extras at unit norm.
        extra = raw[d:]
        W[d:] = extra / np.linalg.norm(extra, axis=1, keepdims=True)
    return HiddenLayerParams(W=W, b=b)


def hidden_response(params: HiddenLayerParams, X: np.ndarray) -> np.ndarray:
    """Hidden-layer response H with H[i, j] = g(w_i . x_j + b_i).

    X is (d, s); the result is (n_h, s), the one buffer the product W X is
    written to: the bias and the activation are applied in place.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] != params.input_dim:
        raise ValueError(
            f"feature matrix of shape {X.shape} incompatible with mapping "
            f"expecting input dimension {params.input_dim}"
        )
    H = params.W @ X
    H += params.b[:, None]
    return activate(H, out=H)


# Scratch memory, in bytes, that a finiteness check or logit's blocked pass
# over a sample-sized array allocates at a time (64 KiB); logit goes over it
# only where one slice along its outermost axis is larger.
SCRATCH_BYTES = 1 << 16

# From this many bytes on, a float64 array is checked finite through its
# sum, which allocates nothing, in place of the boolean mask, an eighth of
# its bytes, that isfinite allocates. Memory sets the bound, so that no mask
# is larger than SCRATCH_BYTES. Speed alone would put it near 1 MiB: below
# that the mask is faster, by 4-12 us on 960,000 bytes.
_SUM_CHECK_BYTES = 8 * SCRATCH_BYTES


def all_finite(A: np.ndarray) -> bool:
    """Whether every entry of A is finite.

    A finite sum proves it; only a sum that overflowed, or met a NaN or an
    inf, needs the entrywise check.
    """
    if A.nbytes >= _SUM_CHECK_BYTES:
        with np.errstate(over="ignore", invalid="ignore"):
            if np.isfinite(A.sum()):
                return True
    return bool(np.isfinite(A).all())


def solve_ridge(H: np.ndarray, T: np.ndarray, C: float) -> np.ndarray:
    """Ridge output weights B for the (N, n) design H and targets T.

    With N >= n the primal form solves (HtH + I/C) B = HtT. Otherwise the
    dual form solves (HHt + I/C) A = T and returns B = Ht A, in the row
    space of H (the minimum-norm family). The Gram matrix is solved by LU,
    never inverted. At very large C the ridge term 1/C cannot lift a
    rank-deficient Gram matrix off singularity, and the solve fails or
    overflows; minimum-norm least squares, the C -> infinity limit of the
    ridge (Huang et al. 2012), then stands in for it.
    """
    H = np.asarray(H, dtype=float)
    T = np.asarray(T, dtype=float)
    if H.ndim != 2 or T.ndim != 2:
        raise ValueError(f"expected 2-d H and T, got {H.shape} and {T.shape}")
    if H.shape[0] != T.shape[0]:
        raise ValueError(
            f"H has {H.shape[0]} sample rows but T has {T.shape[0]}"
        )
    if not (np.isscalar(C) and np.isfinite(C) and C > 0):
        raise ValueError(f"tradeoff C must be a positive finite scalar, got {C!r}")
    if not (all_finite(H) and all_finite(T)):
        raise ValueError("ridge solve rejects non-finite inputs")
    primal = H.shape[0] >= H.shape[1]
    gram = H.T @ H if primal else H @ H.T
    gram.flat[:: gram.shape[0] + 1] += 1.0 / C
    try:
        B = np.linalg.solve(gram, H.T @ T) if primal else H.T @ np.linalg.solve(gram, T)
    except np.linalg.LinAlgError:
        B = None
    if B is None or not all_finite(B):
        B = np.linalg.lstsq(H, T, rcond=None)[0]
        if not all_finite(B):
            raise NumericError("ridge solve produced non-finite output weights")
    return B


class ProcrustesResult(NamedTuple):
    """Orthogonal output weights plus a rank diagnostic.

    degenerate is True when the smallest singular value of HtT falls below
    1e-12, in which case the optimum is well-defined but not unique.
    """

    B: np.ndarray
    degenerate: bool


def solve_orthogonal_procrustes(H: np.ndarray, T: np.ndarray) -> ProcrustesResult:
    """Orthogonal B minimizing ||H B - T||_F.

    Computed from the SVD of M = HtT as B = U Vt; requires H and T to have
    the same column count so B is square.
    """
    H = np.asarray(H, dtype=float)
    T = np.asarray(T, dtype=float)
    if H.ndim != 2 or T.ndim != 2 or H.shape[0] != T.shape[0]:
        raise ValueError(f"incompatible sample rows: H {H.shape}, T {T.shape}")
    if H.shape[1] != T.shape[1]:
        raise ValueError(
            f"orthogonal solve needs equal column counts, got {H.shape[1]} and {T.shape[1]}"
        )
    if not (all_finite(H) and all_finite(T)):
        raise ValueError("orthogonal solve rejects non-finite inputs")
    U, s, Vt = np.linalg.svd(H.T @ T)
    smin = float(s[-1]) if s.size else 0.0
    return ProcrustesResult(B=U @ Vt, degenerate=smin < 1e-12)
