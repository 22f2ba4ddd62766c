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

The global model and every class model run one layer loop. A global
layer's fixed feature mapping is random orthonormal; a class layer's is
the global model's trained layer, with no bias.

Every layer's activation is the sigmoid, ``deepelm.elm.activate``.
Reconstruction applies it after every layer, including the last, so
outputs always land in (0, 1)^d. Training data must therefore be
normalized into [0, 1] first (see deepelm.normalize).

Data are (d, s) matrices with one sample per column, so a single sample
is a one-column matrix. Training also takes a list of column blocks that
stands for their concatenation; a matrix is one block.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from functools import partial

import numpy as np

from .elm import (
    SCRATCH_BYTES,
    activate,
    all_finite,
    hidden_response,
    random_orthonormal_mapping,
    solve_orthogonal_procrustes,
    solve_ridge,
)
from .normalize import EPSILON, NormalizationStats


# Elements of 1 - p that logit forms at a time: SCRATCH_BYTES of float64.
_LOGIT_BLOCK = SCRATCH_BYTES // 8


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

    weights[i] maps dims[i]-dimensional columns to dims[i+1], and
    dims[0] == dims[-1] == the feature dimension. feature_stats records the
    normalization applied to the training data so probes can be mapped into
    the same range; it may be None for data trained in [0, 1] directly.

    A stack of k models with one architecture holds every layer as one
    (k, dims[i+1], dims[i]) array; slice j of every layer is model j.
    Reconstruction then runs all k models at once and returns one result
    per model along a leading axis.
    """

    weights: list[np.ndarray]
    dims: tuple[int, ...]
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
        stats = self.feature_stats
        if stats is not None and stats.dim != self.dims[0]:
            raise ValueError(f"feature stats of dimension {stats.dim}, model of {self.dims[0]}")
        stack = self.weights[0].shape[:-2]
        for i, W in enumerate(self.weights):
            expect = (*stack, self.dims[i + 1], self.dims[i])
            if W.shape != expect:
                raise ValueError(f"weights[{i}] has shape {W.shape}, expected {expect}")
            if not all_finite(W):
                raise ValueError(f"weights[{i}] contains non-finite entries")

    @property
    def input_dim(self) -> int:
        return self.dims[0]

    @property
    def hidden_depth(self) -> int:
        return len(self.weights) - 1


def check_training_data(X) -> np.ndarray:
    """X as a float (d, s) matrix, once it is found non-empty, finite and
    in [0, 1]; ValueError otherwise."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.size == 0:
        raise ValueError(f"expected a non-empty (d, s) matrix, got shape {X.shape}")
    if not all_finite(X):
        raise ValueError("training features contain non-finite entries")
    if X.min() < 0.0 or X.max() > 1.0:
        raise ValueError(
            "training features must lie in [0, 1]; normalize them first "
            "(see deepelm.normalize.normalize_features)"
        )
    return X


def _training_input(X) -> tuple[list[np.ndarray], np.ndarray]:
    """(blocks, matrix) for a training pass on X, a (d, s) matrix or a list
    of (d, s_i) column blocks; a matrix is one block.

    A single block is the matrix, used as it is. Several are concatenated,
    as datasets.concat_features does, into a fresh matrix that the pass may
    drop once its first layer's output exists. The blocks stay the source
    that the decode targets are built from.
    """
    blocks = X if isinstance(X, list) else [X]
    if len(blocks) == 1:
        return blocks, np.asarray(blocks[0], dtype=float)
    return blocks, np.hstack(blocks, dtype=float)


def _solve_layer(H: np.ndarray, X_in: np.ndarray, C: float) -> np.ndarray:
    """Output weights projecting the responses H back onto X_in. A layer
    as wide as its input keeps the data in one space: they are orthogonal."""
    if H.shape[0] == X_in.shape[0]:
        return solve_orthogonal_procrustes(H.T, X_in.T).B
    return solve_ridge(H.T, X_in.T, C)


def _solve_decode(blocks, H, final_C: float) -> np.ndarray:
    """Decode weights fitting logit-clamped X, the concatenation of blocks,
    from H, so that the outer sigmoid lands back on X. The blocks are
    concatenated into the targets buffer; the clip and the logit are taken
    in that buffer."""
    targets = np.hstack(blocks, dtype=float)
    np.clip(targets, EPSILON, 1.0 - EPSILON, out=targets)
    logit(targets, out=targets)
    return solve_ridge(H.T, targets.T, final_C).T


def _fit_layers(blocks, H, responses, layer_C) -> Iterator[np.ndarray]:
    """Yield each layer's forward weights W as soon as they are solved,
    then the decode weights; the next layer's input is g(W @ H).

    responses gives, per hidden layer, a function from the layer's input
    to the response of its fixed feature mapping. layer_C holds one
    tradeoff per hidden layer, then the decode's. H is the concatenation
    of blocks; with no reference left elsewhere, it is dropped once the
    first layer's output exists. The loop drops each W once its forward
    product exists, so a caller that copies a layer out and drops its own
    reference holds no layer through the next solve.
    """
    for response, C in zip(responses, layer_C):
        R = response(H)
        W = _solve_layer(R, H, C)
        # Drop the response before the forward product takes its place, so
        # the layer never holds two (width, s) buffers.
        del R
        yield W
        out = W @ H
        del W
        H = activate(out, out=out)
    yield _solve_decode(blocks, H, layer_C[-1])


def _random_response(spec: LayerSpec, X: np.ndarray) -> np.ndarray:
    """Response to X of a fresh random orthonormal mapping drawn for spec."""
    return hidden_response(random_orthonormal_mapping(X.shape[0], spec.width, spec.seed), X)


def _fixed_response(G: np.ndarray, X: np.ndarray) -> np.ndarray:
    """g(G @ X): the response of a trained layer G, with no bias."""
    R = G @ X
    return activate(R, out=R)


def train_delm(
    X: np.ndarray | list[np.ndarray],
    specs: list[LayerSpec],
    final_C: float,
    feature_stats: NormalizationStats | None = None,
) -> DELMModel:
    """Train a deep auto-encoder with one layer per spec plus a decode layer.

    X is a (d, s) matrix with entries in [0, 1], or a list of (d, s_i)
    column blocks that stand for their concatenation. Layers are trained
    sequentially, each on the forward representation of the previous one,
    with a random orthonormal feature mapping drawn from its spec's seed.
    The final weight matrix is a ridge fit of logit-clamped X from the last
    hidden representation, so the closing sigmoid reproduces the inputs.
    specs may be empty, giving the degenerate single-matrix model.

    A matrix is one block. A single block is trained on as it is; several
    are concatenated into a matrix that is dropped once the first layer's
    output exists. The decode targets concatenate the blocks again, so a
    pass holds at most two sample-sized matrices of its own at a time: a
    layer's input and its output, or the last representation and the
    targets. Both forms give the same bits.
    """
    blocks, H = _training_input(X)
    check_training_data(H)
    if not (np.isfinite(final_C) and final_C > 0):
        raise ValueError(f"final_C must be positive and finite, got {final_C}")
    d = H.shape[0]
    responses = (partial(_random_response, spec) for spec in specs)
    layers = _fit_layers(blocks, H, responses, [*(spec.C for spec in specs), final_C])
    del H  # so that the loop drops a concatenation after the first layer
    dims = (d, *(spec.width for spec in specs), d)
    return DELMModel(weights=list(layers), dims=dims, feature_stats=feature_stats)


def refit_delm(
    model: DELMModel, X: np.ndarray | list[np.ndarray], layer_C: Sequence[float]
) -> Iterator[np.ndarray]:
    """Re-solve every layer's output weights of model on the data X.

    This trains a class model from the global one. Layer i keeps
    model.weights[i], with no bias, as its fixed feature mapping, and is
    solved as train_delm solves it, with tradeoff layer_C[i]; layer_C has
    one entry per layer. X takes either form train_delm takes, holds the
    model's input dimension, and is not checked here: callers check it
    (see check_training_data). Yields the new weights one layer at a time,
    each as soon as it is solved, so a caller can store it before the next
    layer is solved.
    """
    responses = (partial(_fixed_response, G) for G in model.weights[:-1])
    return _fit_layers(*_training_input(X), responses, layer_C)


def reconstruct(model: DELMModel, X: np.ndarray) -> np.ndarray:
    """Pass the (d, s) matrix X through every layer: g(W_last ... g(W_1 X)).

    A sample is a one-column matrix. The output has X's shape, with every
    entry in (0, 1); a stack of k models prepends an axis of length k.
    Each layer of a stack is one batched matmul, and each model's result is
    bit for bit the one it gives reconstructing alone. The layers write
    their products, and activate them in place, into two buffers taken in
    turn, each allocated once per call.
    """
    H = np.asarray(X, dtype=float)
    if H.ndim != 2 or H.shape[0] != model.input_dim:
        raise ValueError(
            f"input of shape {H.shape} incompatible with model dimension {model.input_dim}"
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
        H = activate(np.matmul(W, H, out=out), out=out)
    return H


def reconstruction_error(model: DELMModel, X: np.ndarray) -> np.ndarray:
    """Squared Euclidean distance between each column of the (d, s) matrix
    X and its reconstruction, as an (s,) array; a stack of k models
    prepends an axis of length k."""
    X = np.asarray(X, dtype=float)
    diff = reconstruct(model, X)
    np.subtract(X, diff, out=diff)
    return np.einsum("...ij,...ij->...j", diff, diff)
