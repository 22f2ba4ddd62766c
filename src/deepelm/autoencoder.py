"""Deep ELM auto-encoders: layer-wise training and reconstruction.

A deep model is an ordered stack of h+1 weight matrices whose dimensions
close back on the input space. Each of the h hidden layers is trained as
an ELM auto-encoder on the current representation (targets equal inputs)
and the learned output weights become that layer's forward weights. When a
layer's width equals its input dimension the data stays in the same space,
so the output weights come from the orthogonal Procrustes solution instead
of ridge regression. The final matrix decodes the last hidden
representation back to input space; it is fitted against logit-transformed
inputs so that the sigmoid applied after it reproduces the data.

Reconstruction applies the activation after every layer, including the
last, so outputs always land in (0, 1)^d. Training data must therefore be
normalized into [0, 1] first (see deepelm.normalize).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .elm import (
    SIGMOID,
    HiddenLayerParams,
    activate,
    hidden_response,
    random_orthonormal_mapping,
    solve_orthogonal_procrustes,
    solve_ridge,
)
from .normalize import DEFAULT_EPSILON, NormalizationStats


# Elements of 1 - p that logit forms at a time (64 KB).
_LOGIT_BLOCK = 1 << 13


def logit(p, out=None):
    """log(p / (1 - p)) elementwise, the inverse of the sigmoid on (0, 1).

    The result goes into out when given, which may be p itself: training
    turns the decode targets of a whole gallery into logits in place,
    while its peak memory is being set. Without out it goes into one fresh
    array, and p is not modified. 1 - p is formed for a block of slices
    along p's outermost axis in memory at a time, so the only temporary
    holds about _LOGIT_BLOCK elements; elementwise arithmetic gives the
    same bits in any blocking.
    """
    p = np.asarray(p, dtype=float)
    if out is None:
        out = np.empty_like(p)
    p1, out1 = np.atleast_1d(p, out)
    if p1.flags.f_contiguous and not p1.flags.c_contiguous:
        # block along the axis that is outermost in memory, so that each
        # block is one contiguous run
        p1, out1 = p1.T, out1.T
    step = max(1, _LOGIT_BLOCK // (math.prod(p1.shape[1:]) or 1))
    one_minus = np.empty_like(p1[:step])
    for i in range(0, len(p1), step):
        src = p1[i : i + step]
        np.subtract(1.0, src, out=one_minus[: len(src)])
        np.divide(src, one_minus[: len(src)], out=out1[i : i + step])
    return np.log(out, out=out)


# From this many bytes on, a weight array is checked finite through its sum,
# which allocates nothing, in place of the boolean mask, an eighth of its
# bytes, that isfinite allocates. Below it the mask is faster; from about
# 1 MiB on the two take the same time.
_SUM_CHECK_BYTES = 1 << 20


def _all_finite(W: np.ndarray) -> bool:
    """Whether every entry of W is finite.

    A finite sum proves it; only a sum that overflowed, or met a NaN or an
    inf, needs the entrywise check.
    """
    if W.nbytes >= _SUM_CHECK_BYTES:
        with np.errstate(over="ignore", invalid="ignore"):
            if np.isfinite(W.sum()):
                return True
    return bool(np.isfinite(W).all())


@dataclass(frozen=True)
class LayerSpec:
    """Width, ridge tradeoff and seed for one auto-encoder layer."""

    width: int
    C: float
    seed: int = 0

    def __post_init__(self):
        if self.width < 1:
            raise ValueError(f"layer width must be >= 1, got {self.width}")
        if not (np.isfinite(self.C) and self.C > 0):
            raise ValueError(f"layer C must be positive and finite, got {self.C}")


@dataclass(eq=False)
class DELMModel:
    """Trained deep ELM auto-encoder, or a stack of them.

    weights[i] maps dims[i]-dimensional column vectors to dims[i+1], and
    dims[0] == dims[-1] == the feature dimension. feature_stats records the
    normalization applied to the training data so probes can be mapped into
    the same range; it may be None for data trained in [0, 1] directly.

    A stack of k models with one architecture and activation holds every
    layer as one (k, dims[i+1], dims[i]) array; slice j of every layer is
    model j. Reconstruction then runs all k models at once and returns one
    result per model along a leading axis.
    """

    weights: list[np.ndarray]
    dims: tuple[int, ...]
    activation: str = SIGMOID
    feature_stats: NormalizationStats | None = None

    def __post_init__(self):
        self.dims = tuple(int(v) for v in self.dims)
        # canonical C layout keeps reconstruction bitwise stable across a
        # save/load round trip (BLAS rounding depends on memory order)
        self.weights = [np.ascontiguousarray(W, dtype=float) for W in self.weights]
        if len(self.weights) != len(self.dims) - 1 or not self.weights:
            raise ValueError(
                f"{len(self.weights)} weight matrices inconsistent with dims {self.dims}"
            )
        if self.dims[0] != self.dims[-1]:
            raise ValueError(f"model must close on its input space, dims {self.dims}")
        if self.activation != SIGMOID:
            raise ValueError(f"unsupported activation {self.activation!r}")
        stack = self.weights[0].shape[:-2]
        for i, W in enumerate(self.weights):
            expect = (*stack, self.dims[i + 1], self.dims[i])
            if W.shape != expect:
                raise ValueError(f"weights[{i}] has shape {W.shape}, expected {expect}")
            if not _all_finite(W):
                raise ValueError(f"weights[{i}] contains non-finite entries")

    @property
    def input_dim(self) -> int:
        return self.dims[0]

    @property
    def hidden_depth(self) -> int:
        return len(self.weights) - 1


def train_ae_layer(
    X_in: np.ndarray, spec: LayerSpec, init: HiddenLayerParams | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Train one auto-encoder layer on the (d_in, s) representation X_in.

    The pre-solve feature mapping is random orthonormal, or `init` when
    given (fixed weights, no bias). The output weights that project the
    mapped responses back onto X_in are solved in closed form and reused,
    in column-operator form, as the layer's forward weights W of shape
    (spec.width, d_in). Returns (W, g(W @ X_in)).
    """
    X_in = np.asarray(X_in, dtype=float)
    if X_in.ndim != 2:
        raise ValueError(f"expected (d, s) input, got shape {X_in.shape}")
    d_in = X_in.shape[0]
    if init is None:
        mapping = random_orthonormal_mapping(d_in, spec.width, spec.seed)
    else:
        if init.W.shape != (spec.width, d_in):
            raise ValueError(
                f"init mapping shape {init.W.shape} does not match layer ({spec.width}, {d_in})"
            )
        mapping = init
    H = hidden_response(mapping, X_in)
    if spec.width == d_in:
        # Same-dimension layer: the data stays in one space, so impose
        # orthogonality on the solved weights.
        W = solve_orthogonal_procrustes(H.T, X_in.T).B
    else:
        W = solve_ridge(H.T, X_in.T, spec.C)
    # Drop the hidden response before the forward product takes its place,
    # so the layer never holds two (width, s) buffers.
    del H
    out = W @ X_in
    return W, activate(mapping.activation, out, out=out)


def train_delm(
    X: np.ndarray,
    specs: list[LayerSpec],
    final_C: float,
    init: DELMModel | None = None,
    feature_stats: NormalizationStats | None = None,
) -> DELMModel:
    """Train a deep auto-encoder with one layer per spec plus a decode layer.

    X is (d, s) with entries in [0, 1]. Layers are trained sequentially,
    each on the forward representation of the previous one. When `init` is
    given, its layer weights replace the random mappings (with zero bias)
    and every layer's output weights are re-solved on X; architecture and
    feature stats are inherited from it. The final weight matrix is a ridge
    fit of logit-clamped X from the last hidden representation, so the
    closing sigmoid reproduces the inputs. specs may be empty, giving the
    degenerate single-matrix model.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.size == 0:
        raise ValueError(f"expected a non-empty (d, s) matrix, got shape {X.shape}")
    if not np.isfinite(X).all():
        raise ValueError("training features contain non-finite entries")
    if X.min() < 0.0 or X.max() > 1.0:
        raise ValueError(
            "training features must lie in [0, 1]; normalize them first "
            "(see deepelm.normalize.normalize_features)"
        )
    if not (np.isfinite(final_C) and final_C > 0):
        raise ValueError(f"final_C must be positive and finite, got {final_C}")
    d = X.shape[0]
    widths = [spec.width for spec in specs]
    if init is not None:
        if init.dims != tuple([d, *widths, d]):
            raise ValueError(
                f"init model dims {init.dims} do not match requested {[d, *widths, d]}"
            )
        if feature_stats is None:
            feature_stats = init.feature_stats

    weights: list[np.ndarray] = []
    H = X
    for i, spec in enumerate(specs):
        layer_init = None
        if init is not None:
            layer_init = HiddenLayerParams(
                W=init.weights[i],
                b=np.zeros(spec.width),
                activation=init.activation,
            )
        W, H = train_ae_layer(H, spec, init=layer_init)
        weights.append(W)

    # Decode layer: fit the logit of the inputs from the last representation
    # so that the outer sigmoid lands back on X. The logit is taken in the
    # clip's own buffer.
    eps = feature_stats.epsilon if feature_stats is not None else DEFAULT_EPSILON
    targets = np.clip(X, eps, 1.0 - eps)
    logit(targets, out=targets)
    B_final = solve_ridge(H.T, targets.T, final_C)
    weights.append(B_final.T)

    return DELMModel(
        weights=weights,
        dims=tuple([d, *widths, d]),
        activation=SIGMOID,
        feature_stats=feature_stats,
    )


def reconstruct(model: DELMModel, x: np.ndarray) -> np.ndarray:
    """Pass x through every layer: g(W_last ... g(W_1 x)).

    Accepts a (d,) vector or a (d, s) matrix; the output matches the input
    shape with every entry in (0, 1). A stack of k models prepends an axis
    of length k. Each layer of a stack is one batched matmul, and each
    model's result is bit for bit the one it gives reconstructing alone.
    The layers write their products, and activate them in place, into two
    buffers taken in turn, each allocated once per call.
    """
    H = np.asarray(x, dtype=float)
    vec = H.ndim == 1
    if vec:
        H = H[:, None]
    if H.ndim != 2 or H.shape[0] != model.input_dim:
        raise ValueError(
            f"input of shape {np.shape(x)} incompatible with model dimension {model.input_dim}"
        )
    s = H.shape[1]
    # a layer of width w outputs per_unit * w elements; buffer j serves the
    # layers i with i % 2 == j
    per_unit = math.prod(model.weights[0].shape[:-2]) * s
    widths = model.dims[1:]
    buffers = [np.empty(per_unit * max(widths[j::2])) for j in range(min(2, len(widths)))]
    for i, W in enumerate(model.weights):
        shape = (*W.shape[:-1], s)
        out = buffers[i % 2][: math.prod(shape)].reshape(shape)
        H = activate(model.activation, np.matmul(W, H, out=out), out=out)
    return H[..., 0] if vec else H


def reconstruction_error(model: DELMModel, x: np.ndarray):
    """Squared Euclidean distance between x and its reconstruction.

    Returns a scalar for a (d,) vector or a (s,) array for a (d, s) matrix;
    a stack of k models prepends an axis of length k.
    """
    x = np.asarray(x, dtype=float)
    vec = x.ndim == 1
    X = x[:, None] if vec else x
    diff = reconstruct(model, X)
    np.subtract(X, diff, out=diff)
    err = np.einsum("...ij,...ij->...j", diff, diff)
    if not vec:
        return err
    return float(err[0]) if err.ndim == 1 else err[..., 0]
