import warnings

import numpy as np
import pytest
from scipy.special import logit

import deepelm.autoencoder as ae
from deepelm import (
    SIGMOID,
    DELMModel,
    HiddenLayerParams,
    LayerSpec,
    activate,
    hidden_response,
    random_orthonormal_mapping,
    reconstruct,
    reconstruction_error,
    train_ae_layer,
    train_delm,
)


def unit_box_data(rng, d, s, spread=0.2):
    """Random data comfortably inside (0, 1)."""
    return 0.5 + spread * (rng.random(size=(d, s)) - 0.5)


def specs_for(widths, seed=0, C=1e6):
    return [LayerSpec(width=w, C=C, seed=seed + i) for i, w in enumerate(widths)]


class TestTrainAeLayer:
    def test_square_layer_uses_orthogonal_solution(self):
        rng = np.random.default_rng(1)
        X = unit_box_data(rng, 4, 30)
        W, H = train_ae_layer(X, LayerSpec(width=4, C=1e6, seed=3))
        assert np.abs(W.T @ W - np.eye(4)).max() <= 1e-10
        assert H.shape == (4, 30)

    def test_ridge_branch_shape(self):
        rng = np.random.default_rng(2)
        X = unit_box_data(rng, 10, 50)
        W, H = train_ae_layer(X, LayerSpec(width=3, C=1e6, seed=3))
        assert W.shape == (3, 10)
        assert H.shape == (3, 50)

    def test_low_rank_data_reconstructs_better_than_full_rank(self):
        rng = np.random.default_rng(7)
        U, _ = np.linalg.qr(rng.normal(size=(5, 2)))
        X_low = 0.5 + 0.08 * (U @ rng.normal(size=(2, 40)))
        X_full = 0.5 + 0.08 * rng.normal(size=(5, 40))
        spec = LayerSpec(width=2, C=1e6, seed=11)

        def residual(X):
            W, _ = train_ae_layer(X, spec)
            psi = hidden_response(random_orthonormal_mapping(5, 2, spec.seed), X)
            return np.linalg.norm(X - W.T @ psi)

        assert residual(X_low) < residual(X_full)

    def test_init_replaces_random_mapping(self, monkeypatch):
        rng = np.random.default_rng(9)
        X = unit_box_data(rng, 6, 25)
        fixed = HiddenLayerParams(W=random_orthonormal_mapping(6, 4, 99).W, b=np.zeros(4))
        calls = []
        real = ae.hidden_response

        def spy(params, Xv):
            calls.append(params)
            return real(params, Xv)

        monkeypatch.setattr(ae, "hidden_response", spy)
        train_ae_layer(X, LayerSpec(width=4, C=1e6, seed=1), init=fixed)
        assert len(calls) == 1 and calls[0] is fixed

    def test_init_shape_mismatch_rejected(self):
        X = np.full((6, 5), 0.5)
        bad = HiddenLayerParams(W=np.zeros((3, 5)), b=np.zeros(3))
        with pytest.raises(ValueError, match="init mapping shape"):
            train_ae_layer(X, LayerSpec(width=3, C=1e6, seed=1), init=bad)


class TestTrainDelm:
    def test_standard_two_layer_dims(self):
        rng = np.random.default_rng(3)
        X = unit_box_data(rng, 400, 60)
        model = train_delm(X, specs_for([20, 20]), final_C=1e18)
        assert len(model.weights) == 3
        assert model.dims == (400, 20, 20, 400)

    def test_bitwise_deterministic(self):
        rng = np.random.default_rng(4)
        X = unit_box_data(rng, 15, 40)
        a = train_delm(X, specs_for([6, 6], seed=2), final_C=1e12)
        b = train_delm(X, specs_for([6, 6], seed=2), final_C=1e12)
        for Wa, Wb in zip(a.weights, b.weights):
            assert Wa.tobytes() == Wb.tobytes()

    def test_beats_mean_image_baseline(self):
        from conftest import make_blob_gallery
        from deepelm.datasets import concat_features, normalize_gallery

        gallery = make_blob_gallery(classes=3, sets_per_class=2, samples_per_set=15,
                                    dim=20, sigma=0.05, seed=21)
        norm, _ = normalize_gallery(gallery)
        X = concat_features(norm.sets)
        model = train_delm(X, specs_for([10, 10], seed=21), final_C=1e18)
        model_err = reconstruction_error(model, X).mean()
        mean_image = X.mean(axis=1, keepdims=True)
        baseline = np.sum((X - mean_image) ** 2, axis=0).mean()
        assert model_err <= baseline

    def test_rejects_unnormalized_input(self):
        X = np.random.default_rng(5).normal(size=(6, 20)) * 10
        with pytest.raises(ValueError, match="normalize"):
            train_delm(X, specs_for([3]), final_C=1e6)

    @pytest.mark.parametrize("widths", [[5], [5, 5], [4, 6, 4]])
    def test_layer_count_contract(self, widths):
        rng = np.random.default_rng(6)
        X = unit_box_data(rng, 8, 30)
        model = train_delm(X, specs_for(widths), final_C=1e12)
        assert len(model.weights) == len(widths) + 1
        assert model.hidden_depth == len(widths)

    def test_orthogonal_solver_used_exactly_on_equal_dims(self, monkeypatch):
        events = []
        real_proc = ae.solve_orthogonal_procrustes
        real_ridge = ae.solve_ridge
        monkeypatch.setattr(
            ae, "solve_orthogonal_procrustes",
            lambda *a, **k: events.append("proc") or real_proc(*a, **k),
        )
        monkeypatch.setattr(
            ae, "solve_ridge", lambda *a, **k: events.append("ridge") or real_ridge(*a, **k)
        )
        rng = np.random.default_rng(8)
        X = unit_box_data(rng, 12, 40)
        # 12 -> 6 (ridge), 6 -> 6 (procrustes), decode (ridge)
        events.clear()
        train_delm(X, specs_for([6, 6]), final_C=1e12)
        assert events == ["ridge", "proc", "ridge"]
        # unequal widths everywhere: no procrustes at all
        events.clear()
        train_delm(X, specs_for([6, 5]), final_C=1e12)
        assert events == ["ridge", "ridge", "ridge"]

    def test_init_substitution_feeds_init_weights_as_mappings(self, monkeypatch):
        rng = np.random.default_rng(10)
        X = unit_box_data(rng, 9, 35)
        base = train_delm(X, specs_for([5, 5], seed=3), final_C=1e12)
        Y = unit_box_data(rng, 9, 12)

        seen = []
        real = ae.hidden_response

        def spy(params, Xv):
            seen.append((params, Xv.copy()))
            return real(params, Xv)

        monkeypatch.setattr(ae, "hidden_response", spy)
        refit = train_delm(Y, specs_for([5, 5], seed=3), final_C=1e12, init=base)

        assert len(seen) == 2
        for i, (params, X_in) in enumerate(seen):
            assert np.array_equal(params.W, base.weights[i])
            assert np.all(params.b == 0.0)
            # the pre-solve response equals the init weights applied to the
            # representation the refit model itself produces at that depth
            expect_in = Y
            for W in refit.weights[:i]:
                expect_in = 1.0 / (1.0 + np.exp(-(W @ expect_in)))
            assert np.abs(X_in - expect_in).max() <= 1e-12

    def test_init_dims_mismatch_rejected(self):
        rng = np.random.default_rng(11)
        X = unit_box_data(rng, 9, 20)
        base = train_delm(X, specs_for([5, 5]), final_C=1e12)
        with pytest.raises(ValueError, match="init model dims"):
            train_delm(X, specs_for([4, 4]), final_C=1e12, init=base)

    def test_overfit_sanity_small_set(self):
        rng = np.random.default_rng(12)
        d, n_h, s = 30, 16, 10
        X = unit_box_data(rng, d, s, spread=0.6)
        model = train_delm(X, specs_for([n_h, n_h], C=1e10), final_C=1e18)
        per_dim = reconstruction_error(model, X).mean() / d
        assert per_dim <= 1e-2


class TestReconstruct:
    def test_zero_weights_give_half(self):
        model = DELMModel(
            weights=[np.zeros((4, 6)), np.zeros((6, 4))], dims=(6, 4, 6)
        )
        x = np.random.default_rng(0).random(6)
        assert np.all(reconstruct(model, x) == 0.5)

    def test_single_matrix_logit_fit_reproduces_vector(self):
        # degenerate depth-0 model: one decode matrix fitted on x itself
        x = np.array([0.2, 0.4, 0.5, 0.6, 0.8])
        model = train_delm(x[:, None], [], final_C=1e18)
        assert model.dims == (5, 5)
        assert np.abs(reconstruct(model, x) - x).max() <= 1e-3

    def test_batch_matches_per_column(self):
        rng = np.random.default_rng(13)
        X = unit_box_data(rng, 7, 20)
        model = train_delm(X, specs_for([4]), final_C=1e12)
        batch = reconstruct(model, X)
        for j in range(20):
            col = reconstruct(model, X[:, j])
            assert np.abs(batch[:, j] - col).max() <= 1e-12

    def test_output_stays_in_open_unit_interval(self):
        rng = np.random.default_rng(14)
        X = unit_box_data(rng, 7, 25)
        model = train_delm(X, specs_for([4, 4]), final_C=1e12)
        out = reconstruct(model, rng.random(size=(7, 11)))
        assert out.shape == (7, 11)
        assert out.min() > 0.0 and out.max() < 1.0

    def test_dim_mismatch_rejected(self):
        model = DELMModel(weights=[np.zeros((3, 5)), np.zeros((5, 3))], dims=(5, 3, 5))
        with pytest.raises(ValueError, match="incompatible"):
            reconstruct(model, np.zeros(4))


class TestReconstructionError:
    def test_zero_for_exact_match(self):
        model = DELMModel(weights=[np.zeros((3, 4)), np.zeros((4, 3))], dims=(4, 3, 4))
        x = np.full(4, 0.5)
        assert reconstruction_error(model, x) == 0.0

    def test_stack_gives_each_models_errors_bit_for_bit(self):
        rng = np.random.default_rng(17)
        X = unit_box_data(rng, 6, 9)
        models = [train_delm(X[:, k::2], specs_for([4, 4], seed=k), final_C=1e10) for k in (0, 1)]
        stack = DELMModel(
            weights=[np.stack(layer) for layer in zip(*(m.weights for m in models))],
            dims=models[0].dims,
        )
        errs = reconstruction_error(stack, X)
        assert errs.shape == (2, 9)
        assert reconstruct(stack, X).shape == (2, 6, 9)
        for k, model in enumerate(models):
            assert errs[k].tobytes() == reconstruction_error(model, X).tobytes()
        vec = reconstruction_error(stack, X[:, 3])
        column = reconstruction_error(stack, X[:, 3:4])
        assert vec.shape == (2,) and vec.tobytes() == column[:, 0].tobytes()
        assert reconstruct(stack, X[:, 3]).shape == (2, 6)

    def test_matches_explicit_loop(self):
        rng = np.random.default_rng(15)
        X = unit_box_data(rng, 6, 8)
        model = train_delm(X, specs_for([3]), final_C=1e10)
        errs = reconstruction_error(model, X)
        for j in range(8):
            xhat = reconstruct(model, X[:, j])
            expect = sum((X[i, j] - xhat[i]) ** 2 for i in range(6))
            assert errs[j] == pytest.approx(expect, rel=1e-10)

    def test_nonnegative(self):
        rng = np.random.default_rng(16)
        X = unit_box_data(rng, 5, 12)
        model = train_delm(X, specs_for([3]), final_C=1e8)
        assert np.all(reconstruction_error(model, X) >= 0.0)


class TestLogit:
    def test_agrees_with_scipy(self):
        # SciPy switches to log1p(2p - 1) - log1p(1 - 2p) near p = 0.5, where
        # log(p / (1 - p)) keeps only an absolute accuracy of a few ulp of 1
        p = np.random.default_rng(5).uniform(1e-6, 1.0 - 1e-6, size=100_000)
        ours, ref = ae.logit(p), logit(p)
        bound = 4 * np.finfo(float).eps * np.maximum(1.0, np.abs(ref))
        assert np.all(np.abs(ours - ref) <= bound)

    def test_inverts_the_sigmoid(self):
        u = np.linspace(-12.0, 12.0, 49)
        assert np.allclose(ae.logit(activate(SIGMOID, u)), u, rtol=0, atol=1e-10)


class TestModelValidation:
    def test_unknown_activation_rejected(self):
        with pytest.raises(ValueError, match="activation"):
            DELMModel(weights=[np.zeros((5, 5))], dims=(5, 5), activation="relu")

    def test_stack_shares_one_leading_axis(self):
        stack = DELMModel(weights=[np.zeros((2, 3, 5)), np.zeros((2, 5, 3))], dims=(5, 3, 5))
        assert stack.input_dim == 5
        with pytest.raises(ValueError, match="shape"):
            DELMModel(weights=[np.zeros((2, 3, 5)), np.zeros((3, 5, 3))], dims=(5, 3, 5))

    def test_must_close_on_input_space(self):
        with pytest.raises(ValueError, match="close"):
            DELMModel(weights=[np.zeros((3, 5)), np.zeros((4, 3))], dims=(5, 3, 4))

    def test_weight_shapes_checked(self):
        with pytest.raises(ValueError, match="shape"):
            DELMModel(weights=[np.zeros((3, 5)), np.zeros((5, 4))], dims=(5, 3, 5))

    @pytest.mark.parametrize("n", [5, 256], ids=["small", "above_sum_check"])
    @pytest.mark.parametrize("bad", [[np.nan], [np.inf], [-np.inf], [np.inf, -np.inf],
                                     [np.nan, 1e308, 1e308]])
    def test_non_finite_entries_rejected_without_warnings(self, bad, n):
        W = np.zeros((2, n, n))
        W.flat[: len(bad)] = bad
        assert (W.nbytes >= ae._SUM_CHECK_BYTES) == (n == 256)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"weights\[1\] contains non-finite"):
                DELMModel(weights=[np.zeros((2, n, n)), W], dims=(n, n, n))

    @pytest.mark.parametrize("n", [5, 256], ids=["small", "above_sum_check"])
    def test_finite_entries_whose_sum_overflows_accepted(self, n):
        W = np.full((2, n, n), 1e308)
        W[0, 0, 0] = -1e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            DELMModel(weights=[W, W], dims=(n, n, n))

    def test_layer_spec_validation(self):
        with pytest.raises(ValueError):
            LayerSpec(width=0, C=1.0)
        with pytest.raises(ValueError):
            LayerSpec(width=3, C=-1.0)
