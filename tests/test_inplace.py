"""The forward passes allocate each activation once and keep their bits.

The oracles below are the allocate-per-pass formulas the library used
before its passes ran in place: every product, bias add and activation in
a fresh array. The in-place library must give the same bits on every
input layout, and training must stay within a fixed memory budget.
"""

import tracemalloc

import numpy as np
import pytest

from conftest import make_blob_gallery, small_config
from deepelm import (
    ClassModels,
    DELMModel,
    ImageSet,
    classify_set,
    normalize_gallery,
    reconstruct,
    reconstruction_error,
    train_all,
)
from deepelm.autoencoder import logit
from deepelm.datasets import concat_features
from deepelm.elm import activate, hidden_response, random_orthonormal_mapping
from deepelm.normalize import EPSILON


def sigmoid_ref(u):
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-u))


def logit_ref(p):
    return np.log(p / (1.0 - p))


def hidden_response_ref(params, X):
    return sigmoid_ref(params.W @ X + params.b[:, None])


def reconstruct_ref(model, X):
    H = X
    for W in model.weights:
        H = sigmoid_ref(W @ H)
    return H


def reconstruction_error_ref(model, X):
    diff = X - reconstruct_ref(model, X)
    return np.einsum("...ij,...ij->...j", diff, diff)


def apply_stats_ref(X, stats):
    span = stats.hi - stats.lo
    flat = span <= 0
    safe = np.where(flat, 1.0, span)
    unit = (X - stats.lo[:, None]) / safe[:, None]
    unit[flat, :] = 0.5
    np.clip(unit, 0.0, 1.0, out=unit)
    out = (1.0 - unit) * EPSILON + unit * (1.0 - EPSILON)
    np.clip(out, EPSILON, 1.0 - EPSILON, out=out)
    return out


def same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def laid_out(X, order):
    return np.asfortranarray(X) if order == "F" else np.ascontiguousarray(X)


@pytest.fixture(scope="module")
def trained():
    """Raw gallery and models whose layers are narrower, then wider, than d."""
    gallery = make_blob_gallery(classes=3, sets_per_class=2, samples_per_set=9, dim=10, seed=3)
    norm, stats = normalize_gallery(gallery)
    return gallery, train_all(norm, small_config(seed=3, widths=(16, 5)), feature_stats=stats)


def models_of(trained):
    _, models = trained
    single_layer = DELMModel(weights=[models.class_stack.weights[0][1][:10, :]], dims=(10, 10))
    return {
        "stack": models.class_stack,
        "single": models.global_model,
        "single_layer": single_layer,
    }


def probe_matrix(trained, order):
    gallery, _ = trained
    X = np.random.default_rng(11).uniform(-0.2, 1.2, size=(10, 7))
    return laid_out(np.hstack([gallery.sets[0].features[:, :4], X]), order)


@pytest.mark.parametrize("order", ["C", "F"])
def test_hidden_response_matches_oracle(order):
    params = random_orthonormal_mapping(6, 9, seed=2)
    X = laid_out(np.random.default_rng(1).uniform(size=(6, 13)), order)
    before = X.copy()
    same_bits(hidden_response(params, X), hidden_response_ref(params, X))
    assert np.array_equal(X, before)


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("shape", ["vector", "matrix"])
@pytest.mark.parametrize("which", ["stack", "single", "single_layer"])
def test_reconstruct_and_error_match_oracle(trained, which, shape, order):
    model = models_of(trained)[which]
    X = probe_matrix(trained, order)
    # a lone sample is a column vector, a one-column matrix
    x = X[:, 2:3] if shape == "vector" else X
    before = np.array(x)
    same_bits(reconstruct(model, x), reconstruct_ref(model, x))
    same_bits(reconstruction_error(model, x), reconstruction_error_ref(model, x))
    assert np.array_equal(x, before)


@pytest.mark.parametrize("order", ["C", "F"])
def test_classify_matches_oracle(trained, order):
    _, models = trained
    X = probe_matrix(trained, order)
    before = X.copy()
    want = reconstruction_error_ref(models.class_stack, apply_stats_ref(X, models.feature_stats))
    pred = classify_set(ImageSet(X, None, "probe"), models)
    same_bits(pred.per_sample_errors, np.ascontiguousarray(want.T))
    # a lone sample takes a matrix-vector product, with bits of its own
    lone = classify_set(ImageSet(X[:, 5:6], None, "lone"), models)
    one = apply_stats_ref(X[:, 5:6], models.feature_stats)
    same_bits(lone.per_sample_errors[0], reconstruction_error_ref(models.class_stack, one)[:, 0])
    assert np.array_equal(X, before)


# (3, 40000) rows exceed logit's block; (300, 500) spans several blocks
@pytest.mark.parametrize("shape", [(7,), (12, 9), (300, 500), (3, 40000), (2, 3, 4)])
@pytest.mark.parametrize("order", ["C", "F"])
class TestOutArgument:
    def test_activate(self, shape, order):
        u = laid_out(np.random.default_rng(4).normal(scale=30.0, size=shape), order)
        before = u.copy()
        fresh = activate(u)
        assert np.array_equal(u, before)
        same_bits(fresh, sigmoid_ref(u))
        other = np.empty_like(u)
        assert activate(u, out=other) is other
        same_bits(other, fresh)
        assert activate(u, out=u) is u
        same_bits(u, fresh)

    def test_logit(self, shape, order):
        p = laid_out(np.random.default_rng(5).uniform(1e-6, 1.0 - 1e-6, size=shape), order)
        before = p.copy()
        fresh = logit(p)
        assert np.array_equal(p, before)
        same_bits(fresh, logit_ref(p))
        other = np.empty_like(p)
        assert logit(p, out=other) is other
        same_bits(other, fresh)
        assert logit(p, out=p) is p
        same_bits(p, fresh)


def test_class_models_reject_a_stack_of_other_dims(trained):
    _, models = trained
    narrower = DELMModel(
        weights=[np.zeros((3, 4, 10)), np.zeros((3, 5, 4)), np.zeros((3, 10, 5))],
        dims=(10, 4, 5, 10),
    )
    with pytest.raises(ValueError, match=r"class models with dims \(10, 4, 5, 10\) differ"):
        ClassModels(models.global_model, models.class_labels, narrower, models.config)


def test_training_peak_memory_stays_within_budget():
    """Training holds at most two gallery-sized matrices besides the class
    stack: one layer's input and its output, or the last representation and
    the decode targets.

    Measured on this gallery: 1.63x the gallery bytes beyond the stack; an
    implementation that kept a gallery-sized matrix too many (2.63x while
    the concatenated gallery stayed alive through training, 4.53x before the
    forward passes ran in place) fails.
    """
    gallery = make_blob_gallery(classes=4, sets_per_class=3, samples_per_set=100, dim=64, seed=0)
    norm, stats = normalize_gallery(gallery)
    config = small_config(widths=(64, 64))
    models = train_all(norm, config, feature_stats=stats)  # warm, off the trace
    gallery_bytes = concat_features(norm.sets).nbytes
    stack_bytes = sum(W.nbytes for W in models.class_stack.weights)
    del models
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        train_all(norm, config, feature_stats=stats)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - base <= 2 * gallery_bytes + stack_bytes
