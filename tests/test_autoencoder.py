import warnings

import numpy as np
import pytest
from scipy.special import logit

import deepelm.autoencoder as ae
import deepelm.elm as elm
from deepelm import (
    DELMModel,
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

    def test_overfit_sanity_small_set(self):
        rng = np.random.default_rng(12)
        d, n_h, s = 30, 16, 10
        X = unit_box_data(rng, d, s, spread=0.6)
        model = train_delm(X, specs_for([n_h, n_h], C=1e10), final_C=1e18)
        per_dim = reconstruction_error(model, X).mean() / d
        assert per_dim <= 1e-2


def column_blocks(order, sizes, seed=30, d=12):
    """Blocks of unit-box data with the given column counts, laid out C or F."""
    rng = np.random.default_rng(seed)
    lay = np.asfortranarray if order == "F" else np.ascontiguousarray
    return [lay(unit_box_data(rng, d, n)) for n in sizes]


def weakref_inputs(monkeypatch):
    """Spy on ae._solve_layer: per call, a weak reference to the layer's input,
    and whether the first call's input was still alive at this call."""
    import weakref

    calls = []
    real = ae._solve_layer

    def spy(H, X_in, C):
        calls.append((weakref.ref(X_in), calls[0][0]() is not None if calls else True))
        return real(H, X_in, C)

    monkeypatch.setattr(ae, "_solve_layer", spy)
    return calls


# 12 -> 12 is a Procrustes layer, 12 -> 7 a ridge one; 1 and 3 blocks
@pytest.mark.parametrize("sizes", [(9,), (5, 9, 4)], ids=["one-block", "three-blocks"])
@pytest.mark.parametrize("order", ["C", "F"])
class TestColumnBlocks:
    """A list of column blocks trains as their np.hstack does, bit for bit.
    A pass over several blocks drops their concatenation after its first
    layer; a single block, or a matrix, is used as it is."""

    def test_train_delm_equals_the_concatenation(self, order, sizes):
        blocks = column_blocks(order, sizes)
        specs = specs_for([12, 7], seed=4)
        want = train_delm(np.hstack(blocks), specs, final_C=1e12)
        got = train_delm(blocks, specs, final_C=1e12)
        assert got.dims == want.dims
        for Wg, Ww in zip(got.weights, want.weights, strict=True):
            assert Wg.tobytes() == Ww.tobytes()

    def test_refit_delm_equals_the_concatenation(self, order, sizes):
        blocks = column_blocks(order, sizes)
        model = train_delm(column_blocks(order, (20,), seed=31), specs_for([12, 7]), 1e12)
        layer_C = (1e6, 1e6, 1e10)
        want = list(ae.refit_delm(model, np.hstack(blocks), layer_C))
        got = list(ae.refit_delm(model, blocks, layer_C))
        for Wg, Ww in zip(got, want, strict=True):
            assert Wg.tobytes() == Ww.tobytes()

    def test_blocks_drop_their_concatenation_after_the_first_layer(
        self, order, sizes, monkeypatch
    ):
        blocks = column_blocks(order, sizes)
        # a single block is never copied: it is the caller's, and stays alive
        one = len(blocks) == 1
        calls = weakref_inputs(monkeypatch)
        model = train_delm(blocks, specs_for([12, 7]), final_C=1e12)
        assert (calls[0][0]() is blocks[0]) == one
        assert [alive for _, alive in calls] == [True, one]
        calls.clear()
        list(ae.refit_delm(model, blocks, (1e6, 1e6, 1e10)))
        assert (calls[0][0]() is blocks[0]) == one
        assert [alive for _, alive in calls] == [True, one]
        # a matrix is one block
        X = np.hstack(blocks)
        calls.clear()
        train_delm(X, specs_for([12, 7]), final_C=1e12)
        assert calls[0][0]() is X
        assert [alive for _, alive in calls] == [True, True]


def test_refit_delm_yields_each_layer_as_soon_as_it_is_solved(monkeypatch):
    solves = []
    for name in ("solve_ridge", "solve_orthogonal_procrustes"):
        real = getattr(ae, name)
        monkeypatch.setattr(
            ae, name, lambda *a, _real=real, **k: solves.append(a[0].shape) or _real(*a, **k)
        )
    blocks = column_blocks("C", (5, 9))
    model = train_delm(blocks, specs_for([12, 7]), final_C=1e12)
    solves.clear()
    layers = ae.refit_delm(model, blocks, (1e6, 1e6, 1e10))
    for n, W in enumerate(layers, start=1):
        assert len(solves) == n
        assert W.shape == model.weights[n - 1].shape
    assert len(solves) == 3


class TestReconstruct:
    def test_zero_weights_give_half(self):
        model = DELMModel(
            weights=[np.zeros((4, 6)), np.zeros((6, 4))], dims=(6, 4, 6)
        )
        X = np.random.default_rng(0).random((6, 3))
        assert np.all(reconstruct(model, X) == 0.5)

    def test_single_matrix_logit_fit_reproduces_vector(self):
        # degenerate depth-0 model: one decode matrix fitted on x itself
        x = np.array([[0.2], [0.4], [0.5], [0.6], [0.8]])
        model = train_delm(x, [], final_C=1e18)
        assert model.dims == (5, 5)
        assert np.abs(reconstruct(model, x) - x).max() <= 1e-3

    def test_batch_matches_per_column(self):
        rng = np.random.default_rng(13)
        X = unit_box_data(rng, 7, 20)
        model = train_delm(X, specs_for([4]), final_C=1e12)
        batch = reconstruct(model, X)
        for j in range(20):
            col = reconstruct(model, X[:, j : j + 1])
            assert np.abs(batch[:, j] - col[:, 0]).max() <= 1e-12

    def test_output_stays_in_open_unit_interval(self):
        rng = np.random.default_rng(14)
        X = unit_box_data(rng, 7, 25)
        model = train_delm(X, specs_for([4, 4]), final_C=1e12)
        out = reconstruct(model, rng.random(size=(7, 11)))
        assert out.shape == (7, 11)
        assert out.min() > 0.0 and out.max() < 1.0

    def test_dim_mismatch_rejected(self):
        model = DELMModel(weights=[np.zeros((3, 5)), np.zeros((5, 3))], dims=(5, 3, 5))
        # a (d,) vector is not a sample: a sample is a (d, 1) column
        for x in (np.zeros((4, 2)), np.zeros(5), np.zeros((2, 5, 1))):
            with pytest.raises(ValueError, match="incompatible"):
                reconstruct(model, x)
            with pytest.raises(ValueError, match="incompatible"):
                reconstruction_error(model, x)


class TestReconstructionError:
    def test_zero_for_exact_match(self):
        model = DELMModel(weights=[np.zeros((3, 4)), np.zeros((4, 3))], dims=(4, 3, 4))
        x = np.full((4, 1), 0.5)
        assert reconstruction_error(model, x).tolist() == [0.0]

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
        assert reconstruction_error(stack, X[:, 3:4]).shape == (2, 1)
        assert reconstruct(stack, X[:, 3:4]).shape == (2, 6, 1)

    def test_matches_explicit_loop(self):
        rng = np.random.default_rng(15)
        X = unit_box_data(rng, 6, 8)
        model = train_delm(X, specs_for([3]), final_C=1e10)
        errs = reconstruction_error(model, X)
        for j in range(8):
            xhat = reconstruct(model, X[:, j : j + 1])[:, 0]
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
        assert np.allclose(ae.logit(activate(u)), u, rtol=0, atol=1e-10)


class TestModelValidation:
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
        assert (W.nbytes >= elm._SUM_CHECK_BYTES) == (n == 256)
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
