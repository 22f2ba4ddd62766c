import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import deepelm.elm as elm
from deepelm import (
    HiddenLayerParams,
    NumericError,
    activate,
    hidden_response,
    random_orthonormal_mapping,
    solve_orthogonal_procrustes,
    solve_ridge,
)


def ridge_objective(H, T, B, C):
    return 0.5 * np.sum(B * B) + 0.5 * C * np.sum((T - H @ B) ** 2)


def normal_equation_oracle(H, T, C):
    """Ridge weights as the least-squares fit of [H; I/sqrt(C)] B ~= [T; 0].

    Its normal equations are (HtH + I/C) B = HtT, but it never forms or
    solves the Gram system, so it is independent of the library path.
    """
    n, q = H.shape[1], T.shape[1]
    A = np.vstack([H, np.eye(n) / math.sqrt(C)])
    rhs = np.vstack([T, np.zeros((n, q))])
    return np.linalg.lstsq(A, rhs, rcond=None)[0]


class TestActivation:
    def test_sigmoid_midpoint(self):
        assert activate(0.0) == 0.5

    def test_sigmoid_saturation(self):
        assert abs(activate(50.0) - 1.0) <= 1e-15
        assert abs(activate(-50.0)) <= 1e-15

    def test_sigmoid_ln3(self):
        # 1 / (1 + exp(-ln 3)) = 3/4
        assert activate(math.log(3.0)) == pytest.approx(0.75, abs=1e-15)

    def test_sigmoid_monotone_into_unit_interval(self):
        u = np.linspace(-30, 30, 301)
        g = activate(u)
        assert np.all(np.diff(g) > 0)
        assert g.min() > 0.0 and g.max() < 1.0

    def test_elementwise_on_matrices(self):
        u = np.array([[0.0, math.log(3.0)], [-50.0, 50.0]])
        g = activate(u)
        assert g.shape == u.shape
        assert g[0, 0] == 0.5

    @pytest.mark.parametrize("sigma", [1.0, 5.0, 30.0, 400.0])
    def test_sigmoid_within_4_ulp_of_expit(self, sigma):
        from scipy.special import expit

        u = np.random.default_rng(int(sigma)).normal(0.0, sigma, size=100_000)
        np.testing.assert_array_max_ulp(activate(u), expit(u), maxulp=4)

    def test_sigmoid_exact_at_saturation_without_warning(self):
        u = np.array([-800.0, 0.0, 800.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g = activate(u)
        assert g.tolist() == [0.0, 0.5, 1.0]

    def test_sigmoid_scalar_in_scalar_out(self):
        g = activate(0.25)
        assert np.ndim(g) == 0 and isinstance(g, float)
        assert isinstance(activate(np.float64(2.0)), float)

    def test_sigmoid_leaves_argument_unchanged(self):
        u = np.linspace(-5.0, 5.0, 11)
        before = u.copy()
        g = activate(u)
        assert g is not u and np.array_equal(u, before)


class TestRandomOrthonormalMapping:
    def test_wide_input_rows_orthonormal(self):
        params = random_orthonormal_mapping(5, 3, seed=7)
        gram = params.W @ params.W.T
        assert np.abs(gram - np.eye(3)).max() <= 1e-10

    def test_square_is_orthogonal(self):
        params = random_orthonormal_mapping(3, 3, seed=0)
        assert abs(abs(np.linalg.det(params.W)) - 1.0) <= 1e-10

    def test_deterministic_bitwise(self):
        a = random_orthonormal_mapping(9, 4, seed=123)
        b = random_orthonormal_mapping(9, 4, seed=123)
        assert a.W.tobytes() == b.W.tobytes()
        assert a.b.tobytes() == b.b.tobytes()

    def test_overcomplete_layout(self):
        params = random_orthonormal_mapping(4, 10, seed=2)
        gram = params.W[:4] @ params.W[:4].T
        assert np.abs(gram - np.eye(4)).max() <= 1e-10
        norms = np.linalg.norm(params.W[4:], axis=1)
        assert np.abs(norms - 1.0).max() <= 1e-12

    def test_bias_range(self):
        params = random_orthonormal_mapping(6, 40, seed=9)
        assert params.b.shape == (40,)
        assert params.b.min() >= -1.0 and params.b.max() <= 1.0

    def test_unit_draws_nest_by_prefix(self):
        # unit i's raw weights and bias are drawn together, so the bias
        # prefix is exact and the orthonormalized rows agree to rounding
        small = random_orthonormal_mapping(20, 10, seed=5)
        large = random_orthonormal_mapping(20, 100, seed=5)
        assert np.array_equal(large.b[:10], small.b)
        assert np.abs(large.W[:10] - small.W).max() <= 1e-12

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            random_orthonormal_mapping(0, 3, seed=1)
        with pytest.raises(ValueError):
            random_orthonormal_mapping(3, 0, seed=1)


class TestHiddenResponse:
    def test_zero_mapping_gives_half(self):
        params = HiddenLayerParams(W=np.zeros((4, 3)), b=np.zeros(4))
        H = hidden_response(params, np.random.default_rng(0).normal(size=(3, 6)))
        assert np.all(H == 0.5)

    def test_single_unit_single_sample(self):
        params = HiddenLayerParams(W=np.array([[1.0, 0.0]]), b=np.zeros(1))
        H = hidden_response(params, np.zeros((2, 1)))
        assert H.shape == (1, 1) and H[0, 0] == 0.5

    def test_matches_elementwise_loop(self):
        rng = np.random.default_rng(3)
        params = random_orthonormal_mapping(4, 6, seed=3)
        X = rng.normal(size=(4, 10))
        H = hidden_response(params, X)
        for i in range(6):
            for j in range(10):
                expect = 1.0 / (1.0 + math.exp(-(params.W[i] @ X[:, j] + params.b[i])))
                assert H[i, j] == pytest.approx(expect, rel=1e-12)

    def test_shape_mismatch_rejected(self):
        params = random_orthonormal_mapping(4, 6, seed=3)
        with pytest.raises(ValueError, match="incompatible"):
            hidden_response(params, np.zeros((5, 2)))


def diag_indices_ridge(H, T, C):
    """The ridge solvers as written with np.diag_indices_from for 1/C."""
    if H.shape[0] >= H.shape[1]:
        gram = H.T @ H
        gram[np.diag_indices_from(gram)] += 1.0 / C
        return np.linalg.solve(gram, H.T @ T)
    gram = H @ H.T
    gram[np.diag_indices_from(gram)] += 1.0 / C
    return H.T @ np.linalg.solve(gram, T)


class TestRidgeSolvers:
    def test_identity_system(self):
        n = 6  # N = n: the primal form
        B = solve_ridge(np.eye(n), np.eye(n), 1e12)
        assert np.abs(B - np.eye(n)).max() <= 1e-10

    def test_overdetermined_matches_oracle(self):
        rng = np.random.default_rng(11)
        H = rng.normal(size=(20, 5))
        T = rng.normal(size=(20, 2))
        B = solve_ridge(H, T, 10.0)  # N > n: the primal form
        Bo = normal_equation_oracle(H, T, 10.0)
        assert np.linalg.norm(B - Bo) <= 1e-9 * np.linalg.norm(Bo)

    @pytest.mark.parametrize("shape", [(30, 8), (8, 8), (5, 12), (1, 3)])
    @pytest.mark.parametrize("C", [1e-3, 1.0, 1e6, 1e18])
    def test_diagonal_update_keeps_the_bits(self, shape, C):
        rng = np.random.default_rng(shape[0] * 100 + shape[1])
        H = rng.random(shape)
        T = rng.random((shape[0], 3))
        B = solve_ridge(H, T, C)
        assert B.tobytes() == diag_indices_ridge(H, T, C).tobytes()

    def test_vanishing_C_shrinks_solution(self):
        rng = np.random.default_rng(5)
        H = rng.normal(size=(15, 4))
        T = rng.normal(size=(15, 2))
        tiny = solve_ridge(H, T, 1e-12)
        unit = solve_ridge(H, T, 1.0)
        assert np.linalg.norm(tiny) <= 1e-6 * np.linalg.norm(unit)

    def test_minimum_norm_interpolant(self):
        B = solve_ridge(np.array([[1.0, 0.0, 0.0]]), np.array([[1.0]]), 1e12)
        assert np.abs(B - np.array([[1.0], [0.0], [0.0]])).max() <= 1e-6

    def test_underdetermined_stationarity(self):
        rng = np.random.default_rng(17)
        H = rng.normal(size=(4, 10))
        T = rng.normal(size=(4, 3))
        C = 100.0
        B = solve_ridge(H, T, C)  # N < n: the dual form
        resid = np.linalg.norm(B - C * (H.T @ (T - H @ B)))
        assert resid <= 1e-8 * (1.0 + np.linalg.norm(B))

    def test_underdetermined_orthogonal_to_null_space(self):
        rng = np.random.default_rng(19)
        H = rng.normal(size=(4, 10))
        T = rng.normal(size=(4, 2))
        B = solve_ridge(H, T, 100.0)
        import scipy.linalg

        null = scipy.linalg.null_space(H)
        assert np.abs(null.T @ B).max() <= 1e-10

    def test_square_path_equivalence(self):
        # The dual form agrees with the primal form on a design that picks
        # the dual: (HtH + I/C)^-1 HtT = Ht (HHt + I/C)^-1 T.
        rng = np.random.default_rng(29)
        # well-conditioned wide design: a shifted random orthonormal mix
        Q, _ = np.linalg.qr(rng.normal(size=(9, 6)))
        H = Q.T + 0.1 * rng.normal(size=(6, 9))
        assert np.linalg.cond(H) < 1e6
        T = rng.normal(size=(6, 3))
        primal = np.linalg.solve(H.T @ H + np.eye(9) / 10.0, H.T @ T)
        dual = solve_ridge(H, T, 10.0)
        rel = np.linalg.norm(dual - primal) / np.linalg.norm(primal)
        assert rel <= 1e-8

    def test_perturbing_solution_never_improves_objective(self):
        rng = np.random.default_rng(31)
        for C in (1e-2, 1.0, 1e4):
            H = rng.normal(size=(12, 5))
            T = rng.normal(size=(12, 2))
            B = solve_ridge(H, T, C)
            base = ridge_objective(H, T, B, C)
            for _ in range(20):
                delta = rng.normal(size=B.shape)
                delta *= 1e-3 / np.linalg.norm(delta)
                assert ridge_objective(H, T, B + delta, C) >= base

    def test_rejects_bad_inputs(self):
        H = np.ones((3, 2))
        T = np.ones((3, 1))
        with pytest.raises(ValueError, match="positive"):
            solve_ridge(H, T, 0.0)
        with pytest.raises(ValueError, match="positive"):
            solve_ridge(H, T, -2.0)
        bad = H.copy()
        bad[0, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            solve_ridge(bad, T, 1.0)
        with pytest.raises(ValueError, match="sample"):
            solve_ridge(H, np.ones((4, 1)), 1.0)


class TestRidgeMinimumNormFallback:
    """At C -> infinity the ridge is minimum-norm least squares. A singular
    Gram matrix falls back to that limit instead of failing."""

    def test_overdetermined_singular_gram(self):
        rng = np.random.default_rng(37)
        col = rng.normal(size=(12, 1))
        H = np.hstack([col, col, rng.normal(size=(12, 2))])
        T = rng.normal(size=(12, 3))
        B = solve_ridge(H, T, 1e18)  # N > n: the primal form
        assert np.isfinite(B).all()
        assert np.allclose(B, np.linalg.pinv(H) @ T, rtol=1e-8, atol=1e-10)

    def test_underdetermined_singular_gram(self):
        rng = np.random.default_rng(41)
        row = rng.normal(size=(1, 9))
        H = np.vstack([row, row, rng.normal(size=(2, 9))])
        T = rng.normal(size=(4, 2))
        B = solve_ridge(H, T, 1e18)  # N < n: the dual form
        assert np.isfinite(B).all()
        assert np.allclose(B, np.linalg.pinv(H) @ T, rtol=1e-8, atol=1e-10)

    def test_non_finite_fallback_raises_numeric_error(self, monkeypatch):
        def failing_lstsq(a, b, rcond=None):
            return np.full((a.shape[1], b.shape[1]), np.inf), None, 0, None

        monkeypatch.setattr(np.linalg, "lstsq", failing_lstsq)
        H = np.ones((4, 2))
        with pytest.raises(NumericError, match="non-finite"):
            solve_ridge(H, np.ones((4, 1)), 1e18)
        with pytest.raises(NumericError, match="non-finite"):
            solve_ridge(H.T, np.ones((2, 1)), 1e18)


NO_SCIPY_SCRIPT = """
import sys, tempfile
from pathlib import Path
from deepelm import (SynthParams, TrainConfig, classify_set, load_models, normalize_gallery,
                     save_models, synth_generate, train_all)

gallery = synth_generate(SynthParams(classes=3, sets_per_class=2, samples_per_set=10,
                                     feature_dim=12, seed=0))
norm, stats = normalize_gallery(gallery)
models = train_all(norm, TrainConfig(layer_widths=(12, 6)), feature_stats=stats)
classify_set(norm.sets[0], models)
with tempfile.TemporaryDirectory() as tmp:
    save_models(Path(tmp) / "m.dlmc", models)
    classify_set(norm.sets[0], load_models(Path(tmp) / "m.dlmc"))
loaded = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
assert not loaded, f"SciPy was imported: {loaded}"
"""


def test_training_and_classification_never_import_scipy():
    """SciPy is a test-only dependency. Its OpenBLAS would also start a
    second BLAS thread pool, and two pools contend for the same cores."""
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_SCRIPT],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


class TestOrthogonalProcrustes:
    def test_identity(self):
        res = solve_orthogonal_procrustes(np.eye(3), np.eye(3))
        assert np.abs(res.B - np.eye(3)).max() <= 1e-12
        assert not res.degenerate

    def test_recovers_rotation(self):
        theta = math.radians(30.0)
        rot = np.array(
            [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
        )
        res = solve_orthogonal_procrustes(np.eye(2), rot)
        assert np.abs(res.B - rot).max() <= 1e-12

    def test_beats_random_orthogonal_matrices(self):
        rng = np.random.default_rng(37)
        H = rng.normal(size=(8, 4))
        T = rng.normal(size=(8, 4))
        B = solve_orthogonal_procrustes(H, T).B
        best = np.linalg.norm(H @ B - T)
        for _ in range(300):
            Q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
            assert best <= np.linalg.norm(H @ Q - T) + 1e-12

    def test_always_orthogonal(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            H = rng.normal(size=(7, 3))
            T = rng.normal(size=(7, 3))
            B = solve_orthogonal_procrustes(H, T).B
            assert np.abs(B.T @ B - np.eye(3)).max() <= 1e-10

    def test_degenerate_flagged(self):
        # rank-1 cross matrix: optimum exists but is not unique
        H = np.outer(np.ones(4), [1.0, 0.0, 0.0])
        T = np.outer(np.ones(4), [0.0, 1.0, 0.0])
        res = solve_orthogonal_procrustes(H, T)
        assert res.degenerate
        assert np.abs(res.B.T @ res.B - np.eye(3)).max() <= 1e-10

    def test_rejects_mismatched_columns(self):
        with pytest.raises(ValueError, match="equal column counts"):
            solve_orthogonal_procrustes(np.ones((4, 3)), np.ones((4, 2)))


# From elm._SUM_CHECK_BYTES (512 KiB) on, an operand is checked finite
# through its sum before its entries. Rows of 256 float64 are 2 KiB: 8 rows
# fall below the bound, 384 rows (768 KiB) and 512 rows (1 MiB) above it.
@pytest.mark.parametrize(
    "rows", [8, 384, 512], ids=["small", "sum_check_below_1mib", "above_sum_check"]
)
@pytest.mark.parametrize("operand", [0, 1], ids=["H", "T"])
@pytest.mark.parametrize("bad", [[np.nan], [np.inf], [-np.inf], [np.inf, -np.inf]])
def test_solvers_reject_non_finite_inputs_without_warnings(rows, operand, bad):
    ops = [np.full((rows, 256), 0.5), np.full((rows, 256), 0.25)]
    ops[operand].flat[-len(bad):] = bad
    assert (ops[operand].nbytes >= elm._SUM_CHECK_BYTES) == (rows > 8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="ridge solve rejects non-finite"):
            solve_ridge(*ops, 1.0)
        with pytest.raises(ValueError, match="orthogonal solve rejects non-finite"):
            solve_orthogonal_procrustes(*ops)


def fit_elm(X, T, n_h, C, seed):
    """The two-stage ELM fit: a random hidden mapping, then ridge output
    weights over its response. X is (d, s) and T is (q, s)."""
    params = random_orthonormal_mapping(X.shape[0], n_h, seed)
    return params, solve_ridge(hidden_response(params, X).T, T.T, C)


def elm_outputs(params, B, X):
    """ELM predictions, one row per sample: row j = psi(x_j) @ B."""
    return hidden_response(params, X).T @ B


class TestTrainElm:
    """Ridge output weights over a random hidden response."""

    def test_beats_constant_predictor_on_reconstruction(self):
        from conftest import make_blob_gallery
        from deepelm.datasets import concat_features

        X = concat_features(make_blob_gallery(classes=3, sets_per_class=1,
                                              samples_per_set=30, dim=10, seed=13).sets)
        params, B = fit_elm(X, X, n_h=50, C=1e4, seed=13)
        pred = elm_outputs(params, B, X)
        mse = np.mean((pred - X.T) ** 2)
        baseline = np.mean((X.T - X.T.mean(axis=0)) ** 2)
        assert mse < baseline

    def test_single_sample_interpolates(self):
        x = np.array([[0.3], [0.8], [0.1]])
        t = np.array([[1.5], [-0.5]])
        params, B = fit_elm(x, t, n_h=4, C=1e10, seed=1)
        pred = elm_outputs(params, B, x)
        assert np.abs(pred - t.T).max() <= 1e-4

    def test_deterministic(self):
        rng = np.random.default_rng(43)
        X = rng.normal(size=(6, 20))
        T = rng.normal(size=(2, 20))
        p1, B1 = fit_elm(X, T, 8, 100.0, seed=5)
        p2, B2 = fit_elm(X, T, 8, 100.0, seed=5)
        assert p1.W.tobytes() == p2.W.tobytes()
        assert B1.tobytes() == B2.tobytes()

    def test_monotone_capacity_on_fixed_task(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(20, 150))
        mses = {}
        for n_h in (10, 100):
            params, B = fit_elm(X, X, n_h, 1e4, seed=5)
            mses[n_h] = float(np.mean((elm_outputs(params, B, X) - X.T) ** 2))
        assert mses[100] <= mses[10]


class TestElmPredict:
    """The hidden response of fixed weights, times output weights."""

    def test_single_node_hand_computed(self):
        w, b, beta = np.array([[0.4, -0.2]]), np.array([0.3]), np.array([[2.0]])
        params = HiddenLayerParams(W=w, b=b)
        x = np.array([[1.0], [2.0]])
        out = elm_outputs(params, beta, x)
        expect = 2.0 / (1.0 + math.exp(-(0.4 * 1.0 - 0.2 * 2.0 + 0.3)))
        assert out[0, 0] == pytest.approx(expect, rel=1e-14)

    def test_batch_equals_per_sample(self):
        rng = np.random.default_rng(47)
        params = random_orthonormal_mapping(5, 7, seed=2)
        B = rng.normal(size=(7, 3))
        X = rng.normal(size=(5, 9))
        batch = elm_outputs(params, B, X)
        singles = np.vstack([elm_outputs(params, B, X[:, [j]]) for j in range(9)])
        # batched and per-column BLAS paths may round differently
        assert np.abs(batch - singles).max() <= 1e-12
