"""Acceptance suite: one test per release criterion, at fixed tolerances.

Each test prints a single PASS line (visible with pytest -s or -rA) and
enforces its runtime budget. Expected values come from independent oracles
computed inside this module, never from the code paths under test.
"""

import time

import numpy as np
import pytest
from mpmath import mp

import deepelm.autoencoder as ae
from deepelm import (
    ProtocolSpec,
    SynthParams,
    classify_set,
    inject_noise,
    load_models,
    normalize_gallery,
    reconstruction_error,
    run_kfold,
    save_models,
    solve_orthogonal_procrustes,
    solve_ridge,
    subsample_sets,
    synth_generate,
    train_all,
    train_global,
)
from deepelm.classifier import TrainConfig
from deepelm.datasets import concat_features

PAPER_DEFAULTS = dict(hidden_layers=2, layer_widths=(20, 20), layer_C=(1e6, 1e6, 1e18))

BLOB_SUITE = [
    SynthParams(classes=5, sets_per_class=4, samples_per_set=20, feature_dim=50,
                manifold="blob", noise_sigma=0.05, seed=seed)
    for seed in range(10)
]
SINUSOID_SUITE = [
    SynthParams(classes=5, sets_per_class=4, samples_per_set=20, feature_dim=50,
                manifold="sinusoid", noise_sigma=0.02, seed=seed)
    for seed in range(10)
]


def _pass(name: str, started: float, budget: float) -> None:
    elapsed = time.perf_counter() - started
    assert elapsed < budget, f"{name}: {elapsed:.2f}s exceeded {budget:.0f}s budget"
    print(f"PASS {name} ({elapsed:.2f}s, budget {budget:.0f}s)")


def mp_normal_equation_oracle(H: np.ndarray, T: np.ndarray, C: float) -> np.ndarray:
    """Dense primal normal-equation solve in 40-digit arithmetic.

    Solves (HtH + I/C) B = HtT directly. Independent of the library's
    primal/dual dispatch and of its LAPACK backend, and precise enough to
    stay trustworthy even where float64 normal equations degrade (the
    underdetermined large-C regime).
    """
    mp.dps = 40
    n, q = H.shape[1], T.shape[1]
    Hm, Tm = mp.matrix(H.tolist()), mp.matrix(T.tolist())
    A = Hm.T * Hm
    for i in range(n):
        A[i, i] += mp.mpf(1) / mp.mpf(C)
    rhs = Hm.T * Tm
    cols = []
    for j in range(q):
        x = mp.lu_solve(A, mp.matrix([rhs[i, j] for i in range(n)]))
        cols.append([float(x[i]) for i in range(n)])
    return np.array(cols).T


def test_solver_oracle_equivalence():
    """Ridge solver satisfies the optimality system and matches the oracle.

    The first-order condition of the regularized objective is
    B = C * Ht (T - H B); it is checked in the C-scaled form
    ||B/C - Ht(T - HB)|| <= 1e-8 (1 + ||B||), the only form a float64
    solution can be tested in once C reaches 1e18 (the unscaled residual
    multiplies B's own rounding by C). For moderate C the raw form is
    asserted as well.
    """
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    regimes = ("over", "under", "square")
    c_grid = (1e-2, 1.0, 1e4, 1e18)
    for i in range(200):
        regime = regimes[i % 3]
        C = c_grid[(i // 3) % 4]
        n_h = int(rng.integers(4, 13))
        q = int(rng.integers(1, 4))
        if regime == "over":
            N = n_h + int(rng.integers(1, 9))
        elif regime == "under":
            N = int(rng.integers(1, n_h))
        else:
            N = n_h
        H = rng.normal(size=(N, n_h))
        T = rng.normal(size=(N, q))
        B = solve_ridge(H, T, C)

        norm_B = np.linalg.norm(B)
        scaled = np.linalg.norm(B / C - H.T @ (T - H @ B))
        assert scaled <= 1e-8 * (1.0 + norm_B), (regime, C, i)
        if C <= 1e4:
            raw = np.linalg.norm(B - C * (H.T @ (T - H @ B)))
            assert raw <= 1e-8 * (1.0 + norm_B), (regime, C, i)

        B_oracle = mp_normal_equation_oracle(H, T, C)
        rel = np.linalg.norm(B - B_oracle) / max(np.linalg.norm(B_oracle), 1e-300)
        assert rel <= 1e-8, (regime, C, i, rel)
    _pass("solver-oracle equivalence (200 instances)", started, 10.0)


def test_procrustes_optimality():
    started = time.perf_counter()
    rng = np.random.default_rng(7)
    for trial in range(50):
        N = int(rng.integers(4, 12))
        n = int(rng.integers(2, 7))
        H = rng.normal(size=(N, n))
        T = rng.normal(size=(N, n))
        B = solve_orthogonal_procrustes(H, T).B
        assert np.abs(B.T @ B - np.eye(n)).max() <= 1e-10, trial
        best = np.linalg.norm(H @ B - T)
        gauss = rng.normal(size=(1000, n, n))
        for k in range(1000):
            Q, _ = np.linalg.qr(gauss[k])
            assert best <= np.linalg.norm(H @ Q - T) + 1e-12, (trial, k)
    _pass("procrustes optimality (50 x 1000)", started, 30.0)


def test_autoencoder_dominance():
    """Trained global model beats the mean-image reconstruction baseline."""
    started = time.perf_counter()
    config = TrainConfig(seed=0, **PAPER_DEFAULTS)
    for params in BLOB_SUITE + SINUSOID_SUITE:
        t0 = time.perf_counter()
        gallery = synth_generate(params)
        norm, stats = normalize_gallery(gallery)
        model = train_global(norm, config, feature_stats=stats)
        X = concat_features(norm.sets)
        model_err = reconstruction_error(model, X).mean()
        mean_image = X.mean(axis=1, keepdims=True)
        baseline = np.sum((X - mean_image) ** 2, axis=0).mean()
        assert model_err <= baseline, (params.manifold, params.seed)
        assert time.perf_counter() - t0 < 5.0, "single gallery exceeded 5s"
    _pass("autoencoder dominance (20 galleries)", started, 100.0)


def test_end_to_end_synthetic_accuracy():
    started = time.perf_counter()
    results = {}
    for name, suite, floor in (
        ("blob", BLOB_SUITE, 95.0),
        ("sinusoid", SINUSOID_SUITE, 90.0),
    ):
        means = []
        for params in suite:
            gallery = synth_generate(params)
            config = TrainConfig(seed=params.seed, **PAPER_DEFAULTS)
            spec = ProtocolSpec(folds=2, gallery_sets_per_class=2, seed=params.seed)
            report = run_kfold(gallery, spec, config)
            means.append(report.mean_accuracy)
        results[name] = float(np.mean(means))
        assert results[name] >= floor, (name, results[name], means)
    _pass(
        "end-to-end synthetic accuracy "
        f"(blob {results['blob']:.1f}%, sinusoid {results['sinusoid']:.1f}%)",
        started,
        60.0,
    )


def test_noise_protocol_invariants():
    started = time.perf_counter()
    for c in (2, 5, 10):
        gallery = synth_generate(
            SynthParams(classes=c, sets_per_class=2, samples_per_set=6,
                        feature_dim=8, manifold="blob", noise_sigma=0.03, seed=c)
        )
        probes = [s for s in gallery.sets[:c]]

        clean_g, clean_p = inject_noise(gallery, probes, "nc", seed=0)
        assert clean_g is gallery and clean_p is probes

        for mode, grow_gallery, grow_probes in (
            ("ng", True, False), ("np", False, True), ("ngp", True, True)
        ):
            g2, p2 = inject_noise(gallery, probes, mode, seed=c)
            for before, after in zip(gallery.sets, g2.sets):
                expect = before.n_samples + (c - 1 if grow_gallery else 0)
                assert after.n_samples == expect, (mode, c)
                assert np.array_equal(
                    after.features[:, : before.n_samples], before.features
                )
            for before, after in zip(probes, p2):
                expect = before.n_samples + (c - 1 if grow_probes else 0)
                assert after.n_samples == expect, (mode, c)

    # majority voting survives corruption when clean samples classify right
    c = 3
    gallery = synth_generate(
        SynthParams(classes=c, sets_per_class=2, samples_per_set=5, feature_dim=12,
                    manifold="blob", noise_sigma=0.01, seed=99)
    )
    norm, stats = normalize_gallery(gallery)
    config = TrainConfig(hidden_layers=2, layer_widths=(5, 5),
                         layer_C=(1e6, 1e6, 1e18), seed=99)
    models = train_all(norm, config, feature_stats=stats)
    for s in gallery.sets:
        pred = classify_set(s, models)
        assert all(lab == s.label for lab in pred.per_sample_labels)
        assert s.n_samples >= 2 * (c - 1) + 1
    corrupted, _ = inject_noise(gallery, [], "ng", seed=100)
    for s in corrupted.sets:
        assert classify_set(s, models).set_label == s.label
    _pass("noise-protocol invariants (c in {2,5,10} + vote robustness)", started, 5.0)


def test_subsampling_contract():
    started = time.perf_counter()
    gallery = synth_generate(
        SynthParams(classes=3, sets_per_class=2, samples_per_set=7,
                    feature_dim=6, manifold="blob", noise_sigma=0.05, seed=5)
    )
    probes = [s for s in gallery.sets[:3]]
    for cap in (1, 3, None):
        g2, p2 = subsample_sets(gallery, probes, cap, seed=11)
        for before, after in zip(list(gallery.sets) + probes, list(g2.sets) + p2):
            if cap is None or before.n_samples <= cap:
                assert after is before  # all samples used, order untouched
            else:
                assert after.n_samples == cap
                # kept columns are an order-preserving subset of the originals
                j = 0
                for k in range(after.n_samples):
                    while j < before.n_samples and not np.array_equal(
                        before.features[:, j], after.features[:, k]
                    ):
                        j += 1
                    assert j < before.n_samples, "column not found in order"
                    j += 1
    _pass("subsampling contract (cap in {1, 3, inf})", started, 5.0)


def test_determinism_and_persistence(tmp_path):
    started = time.perf_counter()
    params = SynthParams(classes=4, sets_per_class=3, samples_per_set=10,
                         feature_dim=25, manifold="blob", noise_sigma=0.05, seed=17)
    config = TrainConfig(hidden_layers=2, layer_widths=(10, 10),
                         layer_C=(1e6, 1e6, 1e18), seed=17)

    def pipeline():
        gallery = synth_generate(params)
        norm, stats = normalize_gallery(gallery)
        models = train_all(norm, config, feature_stats=stats)
        return gallery, models, [classify_set(s, models) for s in gallery.sets]

    _, models_a, preds_a = pipeline()
    _, models_b, preds_b = pipeline()
    for a, b in zip(preds_a, preds_b):
        assert a.set_label == b.set_label
        assert a.per_sample_errors.tobytes() == b.per_sample_errors.tobytes()

    path = tmp_path / "bundle.delm"
    save_models(path, models_a)
    loaded = load_models(path)
    assert loaded.class_labels == models_a.class_labels
    assert loaded.config == models_a.config
    for Wa, Wb in zip(models_a.class_stack.weights, loaded.class_stack.weights, strict=True):
        assert Wa.shape == Wb.shape
        assert Wa.tobytes() == Wb.tobytes()
    for Wa, Wb in zip(models_a.global_model.weights, loaded.global_model.weights):
        assert Wa.tobytes() == Wb.tobytes()
    stats_a, stats_b = models_a.feature_stats, loaded.feature_stats
    assert stats_a.lo.tobytes() == stats_b.lo.tobytes()
    assert stats_a.hi.tobytes() == stats_b.hi.tobytes()

    resaved = tmp_path / "bundle2.delm"
    save_models(resaved, loaded)
    assert path.read_bytes() == resaved.read_bytes()

    preds_c = [classify_set(s, loaded) for s in synth_generate(params).sets]
    for a, c in zip(preds_a, preds_c):
        assert a.set_label == c.set_label
        assert a.per_sample_errors.tobytes() == c.per_sample_errors.tobytes()
    _pass("determinism & persistence", started, 30.0)


def test_efficiency_structure(monkeypatch):
    """Training is a fixed number of closed-form solves, and fast.

    One solve (ridge or orthogonal) per layer per model: with h hidden
    layers that is h+1 solves per model over c+1 models, and nothing
    iterative in between.
    """
    started = time.perf_counter()
    events = []
    real_ridge = ae.solve_ridge
    real_proc = ae.solve_orthogonal_procrustes
    monkeypatch.setattr(
        ae, "solve_ridge", lambda *a, **k: events.append("r") or real_ridge(*a, **k)
    )
    monkeypatch.setattr(
        ae,
        "solve_orthogonal_procrustes",
        lambda *a, **k: events.append("p") or real_proc(*a, **k),
    )

    params = BLOB_SUITE[0]
    gallery = synth_generate(params)
    norm, stats = normalize_gallery(gallery)
    config = TrainConfig(seed=0, **PAPER_DEFAULTS)
    t0 = time.perf_counter()
    train_all(norm, config, feature_stats=stats)
    train_seconds = time.perf_counter() - t0

    c = params.classes
    h = config.hidden_layers
    assert len(events) == (h + 1) * (c + 1), events
    # widths (20, 20) on d=50: ridge, then the equal-width orthogonal
    # solve, then the ridge decode, for every model
    assert events == ["r", "p", "r"] * (c + 1)
    assert train_seconds < 2.0, f"training took {train_seconds:.2f}s"
    _pass(
        f"efficiency: {len(events)} closed-form solves, train {train_seconds:.3f}s",
        started,
        10.0,
    )
