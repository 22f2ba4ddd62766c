"""Image-set classification with per-class deep reconstruction models.

Training learns one global auto-encoder over the whole gallery, then one
model per class that keeps the global weights as its fixed feature
mappings and re-solves every layer's output weights on that class's
samples alone; train_all writes each class's weights straight into the
class stack. ClassModels holds the global model and that stack, as
training and a loaded bundle both give them. classify_set labels a probe
set: each sample goes to the class whose model reconstructs it with the
smallest squared error, and the set takes the majority vote of its
samples' labels. A single sample is classified as a one-column set.

Tie rules (both deterministic): a per-sample error tie goes to the label
that sorts first; a vote tie goes to the tied label with the smallest
summed reconstruction error over its voting samples, then to sort order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autoencoder import (
    DELMModel,
    LayerSpec,
    check_training_data,
    reconstruction_error,
    refit_delm,
    train_delm,
)
from .datasets import Gallery, ImageSet, canonical_sets
from .elm import check_seed
from .errors import ConfigError, DataError
from .normalize import NormalizationStats, apply_stats


@dataclass(frozen=True)
class TrainConfig:
    """Architecture and solver settings shared by every model of a run.

    layer_C has one entry per hidden layer plus one for the final decode
    layer; entries for same-width (Procrustes) layers are ignored.
    """

    hidden_layers: int = 2
    layer_widths: tuple[int, ...] = (20, 20)
    layer_C: tuple[float, ...] = (1e6, 1e6, 1e18)
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "layer_widths", tuple(self.layer_widths))
        object.__setattr__(self, "layer_C", tuple(self.layer_C))
        object.__setattr__(self, "seed", check_seed(self.seed, ConfigError))
        if self.hidden_layers < 1:
            raise ConfigError(f"hidden_layers must be >= 1, got {self.hidden_layers}")
        if len(self.layer_widths) != self.hidden_layers:
            raise ConfigError(
                f"expected {self.hidden_layers} layer widths, got {len(self.layer_widths)}"
            )
        if len(self.layer_C) != self.hidden_layers + 1:
            raise ConfigError(
                f"expected {self.hidden_layers + 1} C values (one per hidden layer "
                f"plus the final layer), got {len(self.layer_C)}"
            )
        if any(w < 1 for w in self.layer_widths):
            raise ConfigError(f"layer widths must be >= 1, got {self.layer_widths}")
        if any(not (np.isfinite(C) and C > 0) for C in self.layer_C):
            raise ConfigError(f"C values must be positive and finite, got {self.layer_C}")

    def layer_specs(self) -> list[LayerSpec]:
        return [
            LayerSpec(width=w, C=self.layer_C[i], seed=self.seed + i)
            for i, w in enumerate(self.layer_widths)
        ]

    @property
    def final_C(self) -> float:
        return self.layer_C[-1]


@dataclass(eq=False)
class ClassModels:
    """Global model plus the per-class reconstruction models, stacked.

    class_stack holds every class model in one DELMModel: layer i is a
    (c, dims[i+1], dims[i]) array whose slice k belongs to class_labels[k],
    and the labels are in sorted order. Probes of every class are mapped
    with the global model's feature stats; the stack holds no copy of them.
    """

    global_model: DELMModel
    class_labels: tuple[str, ...]
    class_stack: DELMModel
    config: TrainConfig

    def __post_init__(self):
        labels = self.class_labels = tuple(self.class_labels)
        if not labels or any(a >= b for a, b in zip(labels, labels[1:])):
            raise ValueError(f"class labels must be non-empty, unique and sorted, got {labels}")
        stack = self.class_stack
        if stack.weights[0].shape[:-2] != (len(labels),):
            raise ValueError(
                f"class stack of shape {stack.weights[0].shape} does not hold "
                f"one model for each of {len(labels)} labels"
            )
        if stack.dims != self.global_model.dims:
            raise ValueError(
                f"class models with dims {stack.dims} differ from the global "
                f"model's {self.global_model.dims}"
            )
        if stack.dims[1:-1] != self.config.layer_widths:
            raise ValueError(
                f"models with dims {stack.dims} do not match the configured "
                f"widths {self.config.layer_widths}"
            )

    @property
    def feature_dim(self) -> int:
        return self.global_model.input_dim

    @property
    def feature_stats(self) -> NormalizationStats | None:
        return self.global_model.feature_stats


@dataclass(eq=False)
class SetPrediction:
    """Outcome of classifying one probe set.

    per_sample_errors is (s_t, c) with one column per class label in sorted
    order; per_sample_labels[i] is the argmin of row i and set_label is the
    vote winner.
    """

    set_label: str
    per_sample_labels: tuple[str, ...]
    per_sample_errors: np.ndarray
    vote_counts: dict[str, int]


def train_global(
    gallery: Gallery,
    config: TrainConfig,
    feature_stats: NormalizationStats | None = None,
) -> DELMModel:
    """Train the unsupervised global model on all gallery columns.

    The sets' feature arrays are passed to train_delm as column blocks in
    canonical (set_id, sample index) order, so set iteration order cannot
    perturb the result. The gallery must already be normalized into
    [0, 1]; pass the stats used so they travel with the model.
    """
    return train_delm(
        [s.features for s in canonical_sets(gallery.sets)],
        config.layer_specs(),
        final_C=config.final_C,
        feature_stats=feature_stats,
    )


def train_class_specific(
    global_model: DELMModel, class_set: ImageSet, config: TrainConfig
) -> DELMModel:
    """Refit every layer's output weights on one class, keeping the global
    layer weights as the fixed feature mappings (see refit_delm). The
    class model carries the global model's feature stats."""
    d = class_set.feature_dim
    if global_model.dims != (d, *config.layer_widths, d):
        raise ValueError(f"global model dims {global_model.dims} do not fit the data and config")
    X = check_training_data(class_set.features)
    return DELMModel(
        weights=list(refit_delm(global_model, X, config.layer_C)),
        dims=global_model.dims,
        feature_stats=global_model.feature_stats,
    )


def check_class_count(labels) -> None:
    """Raise DataError unless labels name at least the 2 classes that
    classification needs."""
    if len(labels) < 2:
        raise DataError(
            f"classification needs at least 2 classes, gallery has {len(labels)}"
        )


def train_all(
    gallery: Gallery,
    config: TrainConfig,
    feature_stats: NormalizationStats | None = None,
) -> ClassModels:
    """Train the global model, then one independent model per class.

    The class stack is allocated once. Each class, in label order, is
    refitted from the global model on its sets' feature arrays, passed as
    column blocks in canonical order, and each layer's weights are copied
    into the class's stack slice as soon as they are solved, then dropped,
    so no solved layer is held through the next solve. The global model's
    training checks every gallery column, so the refits check nothing
    again. Each pass holds at most two sample-sized matrices (see
    train_delm).
    """
    labels = gallery.classes
    check_class_count(labels)
    global_model = train_global(gallery, config, feature_stats=feature_stats)
    members: dict[str, list[np.ndarray]] = {}
    for s in canonical_sets(gallery.sets):
        members.setdefault(s.label, []).append(s.features)
    stacks = [np.empty((len(labels), *W.shape)) for W in global_model.weights]
    for k, label in enumerate(labels):
        # A plain loop: zip and enumerate keep their last item in the result
        # tuple they reuse, which would hold a layer through the next solve.
        depth = 0
        for W in refit_delm(global_model, members[label], config.layer_C):
            if depth < len(stacks):
                stacks[depth][k] = W
            del W
            depth += 1
        if depth != len(stacks):
            raise ValueError(
                f"refit of class {label!r} gave {depth} layers, the stack holds {len(stacks)}"
            )
    class_stack = DELMModel(weights=stacks, dims=global_model.dims)
    return ClassModels(global_model, labels, class_stack, config)


def classify_set(probe: ImageSet, models: ClassModels) -> SetPrediction:
    """Label a probe set by majority vote over its per-sample labels."""
    X = probe.features
    if X.shape[0] != models.feature_dim:
        raise ValueError(
            f"probe set '{probe.set_id}' has dimension {X.shape[0]}, "
            f"models expect {models.feature_dim}"
        )
    labels = models.class_labels
    stats = models.feature_stats
    Xn = X if stats is None else apply_stats(X, stats)
    errors = np.ascontiguousarray(reconstruction_error(models.class_stack, Xn).T)
    winner_idx = errors.argmin(axis=1)
    per_sample_labels = tuple(labels[i] for i in winner_idx.tolist())
    counts = np.bincount(winner_idx, minlength=len(labels))
    tied = np.flatnonzero(counts == counts.max()).tolist()
    if len(tied) > 1:
        # Break vote ties by the evidence: smallest total error over the
        # samples that voted for the label, then sort order.
        tied.sort(key=lambda j: (errors[winner_idx == j, j].sum(), j))
    return SetPrediction(
        set_label=labels[tied[0]],
        per_sample_labels=per_sample_labels,
        per_sample_errors=errors,
        vote_counts=dict(zip(labels, counts.tolist())),
    )
