import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logit

from conftest import make_blob_gallery, small_config
from deepelm import (
    ClassModels,
    ConfigError,
    DELMModel,
    DataError,
    Gallery,
    HiddenLayerParams,
    ImageSet,
    SynthParams,
    TrainConfig,
    activate,
    classify_set,
    hidden_response,
    normalize_gallery,
    reconstruction_error,
    solve_orthogonal_procrustes,
    solve_ridge,
    subsample_sets,
    synth_generate,
    train_all,
    train_class_specific,
    train_delm,
    train_global,
)
from deepelm.autoencoder import logit as ae_logit
from deepelm.datasets import concat_features
from deepelm.normalize import EPSILON, apply_stats


def constant_output_model(d: int, value: float, width: int = 3) -> DELMModel:
    """A model that reconstructs every input as value * ones(d)."""
    # zero first layer pins the hidden response at 0.5; the decode row sums
    # to logit(value), so the closing sigmoid emits the constant
    decode = np.full((d, width), logit(value) / (0.5 * width))
    return DELMModel(weights=[np.zeros((width, d)), decode], dims=(d, width, d))


def constant_models(d: int, values: dict[str, float]) -> ClassModels:
    """One constant-output model per label, stacked in sorted label order."""
    labels = tuple(sorted(values))
    models = [constant_output_model(d, values[lab]) for lab in labels]
    layers = [np.stack(layer) for layer in zip(*(m.weights for m in models))]
    stack = DELMModel(layers, models[0].dims)
    return ClassModels(models[0], labels, stack, small_config(widths=(3,)))


def derive_label(errors: np.ndarray, labels) -> str:
    """Independent re-derivation of the documented vote rules."""
    winners = [int(np.argmin(row)) for row in errors]
    counts = {j: winners.count(j) for j in range(len(labels))}
    top = max(counts.values())
    tied = [j for j in range(len(labels)) if counts[j] == top]
    best = min(
        tied,
        key=lambda j: (sum(errors[i][j] for i, w in enumerate(winners) if w == j), j),
    )
    return labels[best]


class TestTrainGlobal:
    def test_single_set_equals_train_delm(self):
        gallery = make_blob_gallery(classes=1, sets_per_class=1, samples_per_set=20,
                                    dim=10, seed=1)
        norm, _ = normalize_gallery(gallery)
        cfg = small_config(seed=1, widths=(4, 4))
        direct = train_delm(norm.sets[0].features, cfg.layer_specs(), cfg.final_C)
        model = train_global(norm, cfg)
        for Wa, Wb in zip(model.weights, direct.weights):
            assert np.array_equal(Wa, Wb)

    def test_set_order_does_not_matter(self):
        gallery = make_blob_gallery(classes=3, sets_per_class=2, samples_per_set=8,
                                    dim=10, seed=2)
        norm, _ = normalize_gallery(gallery)
        cfg = small_config(seed=2, widths=(4, 4))
        a = train_global(norm, cfg)
        shuffled = Gallery(list(reversed(norm.sets)))
        b = train_global(shuffled, cfg)
        for Wa, Wb in zip(a.weights, b.weights):
            assert np.array_equal(Wa, Wb)

    def test_architecture(self):
        gallery = make_blob_gallery(classes=3, sets_per_class=1, samples_per_set=20,
                                    dim=100, seed=3)
        norm, _ = normalize_gallery(gallery)
        model = train_global(norm, TrainConfig(seed=3))
        assert model.dims == (100, 20, 20, 100)


def test_train_all_trains_each_class_on_its_sets_in_label_order(monkeypatch):
    import deepelm.autoencoder as ae

    gallery = make_blob_gallery(classes=4, sets_per_class=3, samples_per_set=5,
                                dim=8, seed=21)
    norm, stats = normalize_gallery(gallery)
    # interleave the classes and reverse each one's sets
    shuffled = Gallery(sorted(norm.sets, key=lambda s: (s.set_id[-2:], s.label))[::-1])
    cfg = small_config(seed=21, widths=(4, 4))
    solves = []

    def spy(kind, real):
        # T of a hidden layer's solve is the transpose of that layer's input
        return lambda H, T, *a: solves.append((kind, T.T.copy(order="K"))) or real(H, T, *a)

    monkeypatch.setattr(ae, "solve_ridge", spy("r", ae.solve_ridge))
    monkeypatch.setattr(
        ae, "solve_orthogonal_procrustes", spy("p", ae.solve_orthogonal_procrustes)
    )
    models = train_all(shuffled, cfg, feature_stats=stats)
    labels = sorted(gallery.classes)
    assert [kind for kind, _ in solves] == ["r", "p", "r"] * (len(labels) + 1)
    # after the global model's three solves, each class's three in label
    # order, the first of them on the class's sets in canonical order
    for k, lab in enumerate(labels, start=1):
        data = solves[3 * k][1]
        want = concat_features([s for s in norm.sets if s.label == lab])
        assert data.tobytes() == want.tobytes(), lab
        assert data.flags.f_contiguous == want.flags.f_contiguous
    monkeypatch.undo()
    again = train_all(norm, cfg, feature_stats=stats)
    for Wa, Wb in zip(models.class_stack.weights, again.class_stack.weights):
        assert Wa.tobytes() == Wb.tobytes()


def refit_oracle(global_model: DELMModel, X: np.ndarray, config: TrainConfig) -> list:
    """A class model's weights from public primitives: each global layer
    wrapped as a zero-bias hidden mapping, then the layer's own solve, and
    the decode fitted on the clipped logit of X."""
    weights, H = [], X
    for G, C in zip(global_model.weights[:-1], config.layer_C):
        psi = hidden_response(HiddenLayerParams(W=G, b=np.zeros(len(G))), H)
        if len(G) == len(H):
            W = solve_orthogonal_procrustes(psi.T, H.T).B
        else:
            W = solve_ridge(psi.T, H.T, C)
        weights.append(W)
        H = activate(W @ H)
    targets = ae_logit(np.clip(X, EPSILON, 1.0 - EPSILON))
    weights.append(solve_ridge(H.T, targets.T, config.final_C).T)
    return weights


@pytest.mark.parametrize("widths", [(8, 8), (20, 8)], ids=["ridge-procrustes", "procrustes-ridge"])
@pytest.mark.parametrize("gallery_kind", ["c-order", "f-order", "interleaved", "one-sample"])
def test_class_stack_equals_the_refit_oracle(gallery_kind, widths):
    # at this size the refit's products give other bits on a C-ordered copy
    # of the F-ordered class data, so memory layout is part of what is pinned
    gallery = make_blob_gallery(classes=3, sets_per_class=3, samples_per_set=12,
                                dim=20, seed=41)
    norm, stats = normalize_gallery(gallery)
    sets = [ImageSet(np.ascontiguousarray(s.features), s.label, s.set_id) for s in norm.sets]
    if gallery_kind == "f-order":
        sets = subsample_sets(norm, [], 10, seed=3)[0].sets
        assert all(s.features.flags.f_contiguous for s in sets)
        assert not any(s.features.flags.c_contiguous for s in sets)
    elif gallery_kind == "interleaved":
        sets = sorted(sets, key=lambda s: (s.set_id[-2:], s.label))[::-1]
    elif gallery_kind == "one-sample":
        first = sets[0]
        sets = [s for s in sets if s.label != first.label]
        sets.append(ImageSet(first.features[:, :1], first.label, first.set_id))
    cfg = small_config(seed=41, widths=widths)
    models = train_all(Gallery(sets), cfg, feature_stats=stats)
    for k, label in enumerate(models.class_labels):
        X = concat_features([s for s in sets if s.label == label])
        want = refit_oracle(models.global_model, X, cfg)
        for W, stack in zip(want, models.class_stack.weights, strict=True):
            assert W.tobytes() == stack[k].tobytes(), (label, W.shape)


class TestTrainClassSpecific:
    def test_refit_on_same_data_not_worse(self):
        gallery = make_blob_gallery(classes=2, sets_per_class=2, samples_per_set=10,
                                    dim=10, seed=5)
        norm, _ = normalize_gallery(gallery)
        cfg = small_config(seed=5, widths=(4, 4))
        global_model = train_global(norm, cfg)
        X = concat_features(norm.sets)
        merged = ImageSet(X, "all", "all")
        refit = train_class_specific(global_model, merged, cfg)
        assert (
            reconstruction_error(refit, X).mean()
            <= reconstruction_error(global_model, X).mean() + 1e-9
        )

    def test_single_sample_class(self):
        gallery = make_blob_gallery(classes=2, sets_per_class=1, samples_per_set=10,
                                    dim=8, seed=6)
        norm, _ = normalize_gallery(gallery)
        cfg = small_config(seed=6, widths=(3, 3))
        global_model = train_global(norm, cfg)
        x = norm.sets[0].features[:, :1]
        refit = train_class_specific(global_model, ImageSet(x, "a", "a"), cfg)
        assert reconstruction_error(refit, x) <= reconstruction_error(global_model, x) + 1e-9

    def test_inherits_architecture(self):
        gallery = make_blob_gallery(classes=2, sets_per_class=1, samples_per_set=8,
                                    dim=9, seed=7)
        norm, _ = normalize_gallery(gallery)
        cfg = small_config(seed=7, widths=(4, 4))
        global_model = train_global(norm, cfg)
        refit = train_class_specific(global_model, norm.sets[0], cfg)
        assert refit.dims == global_model.dims

    @pytest.fixture(scope="class")
    def refit_case(self):
        gallery = make_blob_gallery(classes=2, sets_per_class=2, samples_per_set=10,
                                    dim=9, seed=10)
        norm, _ = normalize_gallery(gallery)
        cfg = small_config(seed=3, widths=(5, 5))
        return norm, cfg, train_global(norm, cfg)

    def test_draws_no_random_mapping(self, refit_case, monkeypatch):
        import deepelm.autoencoder as ae

        norm, cfg, global_model = refit_case
        calls = []
        for name in ("random_orthonormal_mapping", "hidden_response"):
            monkeypatch.setattr(ae, name, lambda *a, name=name: calls.append(name))
        train_class_specific(global_model, norm.sets[0], cfg)
        assert calls == []

    def test_rejects_data_of_another_dimension(self, refit_case):
        norm, cfg, global_model = refit_case
        narrow = ImageSet(norm.sets[0].features[:6], "a", "a")
        with pytest.raises(ValueError, match="do not fit"):
            train_class_specific(global_model, narrow, cfg)

    def test_feeds_the_global_weights_as_mappings(self, refit_case, monkeypatch):
        import deepelm.autoencoder as ae

        norm, cfg, global_model = refit_case
        Y = norm.sets[1].features[:, :7]
        seen = []

        def spy(real):
            return lambda H, T, *a: seen.append((H.T.copy(), T.T.copy())) or real(H, T, *a)

        monkeypatch.setattr(ae, "solve_ridge", spy(ae.solve_ridge))
        monkeypatch.setattr(
            ae, "solve_orthogonal_procrustes", spy(ae.solve_orthogonal_procrustes)
        )
        refit = train_class_specific(global_model, ImageSet(Y, "a", "a"), cfg)

        assert len(seen) == 3
        for i, (psi, X_in) in enumerate(seen[:2]):
            # the pre-solve response is the global layer, with no bias,
            # applied to the representation the refit model itself produces
            # at that depth
            expect_in = Y
            for W in refit.weights[:i]:
                expect_in = 1.0 / (1.0 + np.exp(-(W @ expect_in)))
            assert np.abs(X_in - expect_in).max() <= 1e-12
            expect_psi = 1.0 / (1.0 + np.exp(-(global_model.weights[i] @ expect_in)))
            assert np.abs(psi - expect_psi).max() <= 1e-12

    def test_rejects_a_global_model_of_other_widths(self, refit_case):
        norm, _, global_model = refit_case
        with pytest.raises(ValueError, match="do not fit"):
            train_class_specific(global_model, norm.sets[0], small_config(seed=3, widths=(4, 4)))


class TestTrainAll:
    def test_one_model_per_class(self):
        gallery = make_blob_gallery(classes=5, sets_per_class=1, samples_per_set=6,
                                    dim=10, seed=8)
        norm, _ = normalize_gallery(gallery)
        models = train_all(norm, small_config(seed=8, widths=(4, 4)))
        assert all(W.shape[0] == 5 for W in models.class_stack.weights)
        assert models.class_labels == tuple(sorted(gallery.classes))

    def test_class_order_independent_and_deterministic(self):
        gallery = make_blob_gallery(classes=3, sets_per_class=2, samples_per_set=6,
                                    dim=8, seed=9)
        norm, stats = normalize_gallery(gallery)
        cfg = small_config(seed=9, widths=(3, 3))
        a = train_all(norm, cfg, feature_stats=stats)
        b = train_all(Gallery(list(reversed(norm.sets))), cfg, feature_stats=stats)
        for Wa, Wb in zip(a.class_stack.weights, b.class_stack.weights, strict=True):
            assert np.array_equal(Wa, Wb)

    @pytest.mark.parametrize("seed", [0, 2])
    def test_rank_deficient_decode_trains(self, seed):
        # 60 samples per class through widths (200, 50) leave the decode
        # Gram matrix singular at C_final = 1e18; the ridge falls back to
        # minimum-norm least squares instead of raising NumericError.
        gallery = synth_generate(SynthParams(classes=5, sets_per_class=3,
                                             samples_per_set=20, feature_dim=50,
                                             seed=seed))
        norm, stats = normalize_gallery(gallery)
        models = train_all(norm, TrainConfig(layer_widths=(200, 50)), feature_stats=stats)
        for model in (models.global_model, models.class_stack):
            assert all(np.isfinite(W).all() for W in model.weights)
        pred = classify_set(norm.sets[0], models)
        assert np.isfinite(pred.per_sample_errors).all()
        assert pred.set_label in models.class_labels

    def test_rejects_single_class(self):
        gallery = make_blob_gallery(classes=1, sets_per_class=2, samples_per_set=6,
                                    dim=8, seed=10)
        norm, _ = normalize_gallery(gallery)
        with pytest.raises(DataError, match="at least 2 classes"):
            train_all(norm, small_config(widths=(3, 3)))


class TestClassifySample:
    """A single sample is classified as a one-column set."""

    @staticmethod
    def classify_one(x, models):
        pred = classify_set(ImageSet(np.asarray(x)[:, None], None, "x"), models)
        return pred.set_label, pred.per_sample_errors[0]

    def test_zero_error_model_wins(self):
        d = 6
        models = constant_models(d, {"a": 0.2, "b": 0.7, "c": 0.4})
        x = np.full(d, 0.7)
        label, errors = self.classify_one(x, models)
        assert label == "b"
        assert errors[1] == pytest.approx(0.0, abs=1e-20)
        assert errors[0] > 0 and errors[2] > 0

    def test_tie_breaks_to_first_sorted_label(self):
        d = 5
        shared = constant_output_model(d, 0.5)
        stack = DELMModel([np.stack([W, W]) for W in shared.weights], shared.dims)
        models = ClassModels(shared, ("alpha", "beta"), stack, small_config(widths=(3,)))
        label, errors = self.classify_one(np.full(d, 0.3), models)
        assert label == "alpha"
        assert errors[0] == errors[1]

    def test_separated_clusters_with_margin(self, trained_blob):
        gallery, models = trained_blob
        for s in gallery.sets:
            for j in range(s.n_samples):
                label, errors = self.classify_one(s.features[:, j], models)
                assert label == s.label
                own = models.class_labels.index(s.label)
                others = np.delete(errors, own)
                assert errors[own] < others.min()

    def test_dim_mismatch_rejected(self, trained_blob):
        _, models = trained_blob
        with pytest.raises(ValueError, match="has dimension .*, models expect"):
            self.classify_one(np.zeros(models.feature_dim + 1), models)


class TestClassifySet:
    def test_strict_majority(self):
        d = 6
        models = constant_models(d, {"one": 0.3, "two": 0.7})
        X = np.column_stack([np.full(d, 0.3), np.full(d, 0.31), np.full(d, 0.7)])
        pred = classify_set(ImageSet(X, None, "p"), models)
        assert pred.per_sample_labels == ("one", "one", "two")
        assert pred.set_label == "one"
        assert pred.vote_counts == {"one": 2, "two": 1}

    def test_vote_tie_broken_by_total_error(self):
        d = 6
        models = constant_models(d, {"one": 0.3, "two": 0.7})
        # one vote each; the "one" voter is much closer to its model
        X = np.column_stack([np.full(d, 0.31), np.full(d, 0.75)])
        pred = classify_set(ImageSet(X, None, "p"), models)
        assert sorted(pred.vote_counts.values()) == [1, 1]
        assert pred.set_label == "one"

    def test_single_sample_set(self):
        d = 4
        models = constant_models(d, {"one": 0.3, "two": 0.7})
        pred = classify_set(ImageSet(np.full((d, 1), 0.69), None, "p"), models)
        assert pred.set_label == "two"
        assert pred.per_sample_labels == ("two",)

    def test_label_rederivable_from_stored_errors(self, trained_blob):
        gallery, models = trained_blob
        rng = np.random.default_rng(0)
        for s in gallery.sets:
            noisy = ImageSet(
                s.features + 0.5 * rng.normal(size=s.features.shape), None, s.set_id
            )
            pred = classify_set(noisy, models)
            assert pred.set_label == derive_label(
                pred.per_sample_errors, models.class_labels
            )
            for i, lab in enumerate(pred.per_sample_labels):
                assert lab == models.class_labels[int(np.argmin(pred.per_sample_errors[i]))]

    def test_probe_permutation_invariance(self, trained_blob):
        gallery, models = trained_blob
        rng = np.random.default_rng(1)
        s = gallery.sets[0]
        pred = classify_set(s, models)
        for _ in range(5):
            perm = rng.permutation(s.n_samples)
            shuffled = ImageSet(s.features[:, perm], s.label, s.set_id)
            assert classify_set(shuffled, models).set_label == pred.set_label

    def test_empty_probe_rejected(self, trained_blob):
        _, models = trained_blob
        with pytest.raises(DataError, match="s>=1"):
            classify_set(ImageSet(np.zeros((models.feature_dim, 0)), None, "p"), models)


class TestStackedInference:
    """The stacked class models give what a loop over per-class models gives."""

    @pytest.fixture(scope="class")
    def five_classes(self):
        # widths (6, 6) on d = 12: a ridge layer, then an equal-width
        # Procrustes layer, then the ridge decode
        gallery = make_blob_gallery(classes=5, sets_per_class=2, samples_per_set=8,
                                    dim=12, sigma=0.05, seed=21)
        norm, stats = normalize_gallery(gallery)
        cfg = small_config(seed=21, widths=(6, 6))
        return gallery, norm, cfg, train_all(norm, cfg, feature_stats=stats)

    def test_stack_holds_each_class_specific_model(self, five_classes):
        _, norm, cfg, models = five_classes
        assert [W.shape for W in models.class_stack.weights] == [(5, 6, 12), (5, 6, 6), (5, 12, 6)]
        for k, lab in enumerate(models.class_labels):
            members = [s for s in norm.sets if s.label == lab]
            merged = ImageSet(concat_features(members), lab, lab)
            alone = train_class_specific(models.global_model, merged, cfg)
            for W, stack in zip(alone.weights, models.class_stack.weights, strict=True):
                assert W.tobytes() == stack[k].tobytes()

    def test_batched_errors_equal_per_class_loop(self, five_classes):
        gallery, _, _, models = five_classes
        stack = models.class_stack
        per_class = [
            DELMModel(weights=[W[k] for W in stack.weights], dims=stack.dims)
            for k in range(len(models.class_labels))
        ]
        rng = np.random.default_rng(3)
        for s in gallery.sets:
            noisy = ImageSet(s.features + 0.1 * rng.normal(size=s.features.shape), None, "p")
            pred = classify_set(noisy, models)
            Xn = apply_stats(noisy.features, models.feature_stats)
            loop = np.column_stack([reconstruction_error(m, Xn) for m in per_class])
            assert pred.per_sample_errors.shape == loop.shape
            assert pred.per_sample_errors.tobytes() == loop.tobytes()

    def test_stats_held_once(self, five_classes):
        _, _, _, models = five_classes
        assert models.class_stack.feature_stats is None
        assert models.feature_stats is models.global_model.feature_stats

    def test_labels_must_be_sorted(self):
        models = constant_models(4, {"a": 0.2, "b": 0.7})
        with pytest.raises(ValueError, match="sorted"):
            ClassModels(models.global_model, ("b", "a"), models.class_stack, models.config)


class TestVoteRuleProperties:
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_scaling_all_errors_preserves_labels(self, data):
        s = data.draw(st.integers(min_value=1, max_value=12))
        c = data.draw(st.integers(min_value=2, max_value=5))
        scale = data.draw(st.floats(min_value=1e-3, max_value=1e3))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
        errors = rng.random(size=(s, c))
        labels = tuple(f"c{j}" for j in range(c))
        assert derive_label(errors, labels) == derive_label(errors * scale, labels)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_strict_majority_always_wins(self, data):
        c = data.draw(st.integers(min_value=2, max_value=5))
        k = data.draw(st.integers(min_value=0, max_value=c - 1))
        s = data.draw(st.integers(min_value=3, max_value=15))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
        errors = rng.random(size=(s, c)) + 1.0
        majority = s // 2 + 1
        for i in range(majority):
            errors[i, k] = 0.0
        labels = tuple(f"c{j}" for j in range(c))
        assert derive_label(errors, labels) == labels[k]


class TestEndToEndDeterminism:
    def test_identical_predictions_across_runs(self):
        gallery = make_blob_gallery(classes=3, sets_per_class=2, samples_per_set=8,
                                    dim=10, seed=11)
        preds = []
        for _ in range(2):
            norm, stats = normalize_gallery(gallery)
            models = train_all(norm, small_config(seed=11, widths=(4, 4)),
                               feature_stats=stats)
            preds.append([classify_set(s, models) for s in gallery.sets])
        for a, b in zip(*preds):
            assert a.set_label == b.set_label
            assert np.array_equal(a.per_sample_errors, b.per_sample_errors)


class TestTrainConfigValidation:
    def test_h_must_be_positive(self):
        with pytest.raises(ConfigError, match=">= 1"):
            TrainConfig(hidden_layers=0, layer_widths=(), layer_C=(1e6,))

    def test_lengths_checked(self):
        with pytest.raises(ConfigError, match="widths"):
            TrainConfig(hidden_layers=2, layer_widths=(5,), layer_C=(1e6, 1e6, 1e18))
        with pytest.raises(ConfigError, match="C values"):
            TrainConfig(hidden_layers=2, layer_widths=(5, 5), layer_C=(1e6, 1e18))

    def test_positive_C_required(self):
        with pytest.raises(ConfigError, match="positive"):
            TrainConfig(hidden_layers=1, layer_widths=(5,), layer_C=(0.0, 1e18))
