import os
import struct
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deepelm import (
    DataError,
    Gallery,
    ImageSet,
    SynthParams,
    apply_stats,
    compute_stats,
    load_gallery,
    load_image_sets,
    normalize_features,
    normalize_gallery,
    save_gallery,
    synth_generate,
)
from deepelm.datasets import (
    GAUSSIAN_BLOB,
    MANIFOLDS,
    SINUSOIDAL_MANIFOLD,
    _CURVE_SPAN,
    _CURVE_WOBBLE,
    _orthonormal_pair,
    _separated_directions,
    load_feature_matrix,
    parse_manifest,
    save_feature_matrix,
)
from deepelm.normalize import EPSILON


class TestNormalization:
    def test_midpoint_maps_to_half(self):
        X = np.array([[0.0, 5.0, 10.0]])
        out, _ = normalize_features(X)
        assert out[0, 1] == pytest.approx(0.5, abs=1e-15)

    def test_codomain_is_closed_eps_interval(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(6, 40)) * 13 - 4
        out, _ = normalize_features(X)
        assert out.min() >= EPSILON and out.max() <= 1 - EPSILON
        # per-dimension extremes are attained exactly
        assert np.allclose(out.min(axis=1), EPSILON)
        assert np.allclose(out.max(axis=1), 1 - EPSILON)

    def test_renormalizing_with_own_stats_is_identity(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(5, 30)) * 3
        first, _ = normalize_features(X)
        second, _ = normalize_features(first)
        assert np.abs(second - first).max() <= 1e-12

    def test_probe_values_clamp_to_training_range(self):
        X = np.array([[0.0, 10.0]])
        _, stats = normalize_features(X)
        probe = apply_stats(np.array([[20.0, -5.0]]), stats)
        assert probe[0, 0] == pytest.approx(1 - EPSILON)
        assert probe[0, 1] == pytest.approx(EPSILON)

    def test_constant_dimension_maps_to_half(self):
        X = np.vstack([np.full(4, 3.3), np.arange(4.0)])
        out, stats = normalize_features(X)
        assert np.all(out[0] == 0.5)
        probe = apply_stats(np.array([[9.9], [2.0]]), stats)
        assert probe[0, 0] == 0.5

    def test_vector_apply_matches_matrix(self):
        # a sample is a one-column matrix, mapped as its column of a matrix
        rng = np.random.default_rng(2)
        X = rng.normal(size=(4, 10))
        _, stats = normalize_features(X)
        P = rng.normal(size=(4, 6))
        whole = apply_stats(P, stats)
        for j in range(6):
            assert np.array_equal(apply_stats(P[:, j : j + 1], stats)[:, 0], whole[:, j])

    def test_stats_dimension_checked(self):
        _, stats = normalize_features(np.zeros((3, 2)))
        with pytest.raises(ValueError, match="dimension"):
            apply_stats(np.zeros((4, 2)), stats)
        # a (3,) vector would broadcast into a (3, 3) result
        for X in (np.zeros(3), np.zeros((3, 2, 1))):
            with pytest.raises(ValueError, match=r"expected a \(d, s\) feature matrix"):
                apply_stats(X, stats)

    def test_rejects_nonfinite(self):
        X = np.ones((2, 2))
        X[0, 0] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            normalize_features(X)

    @given(st.integers(0, 2**31), st.integers(1, 8), st.integers(1, 30))
    @settings(max_examples=40, deadline=None)
    def test_codomain_property(self, seed, d, s):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(d, s)) * rng.uniform(0.1, 50)
        out, _ = normalize_features(X)
        assert out.min() >= EPSILON - 1e-15
        assert out.max() <= 1 - EPSILON + 1e-15


class TestSynthGenerate:
    def test_counting(self):
        g = synth_generate(
            SynthParams(classes=2, sets_per_class=1, samples_per_set=10,
                        feature_dim=3, manifold="blob", noise_sigma=0.1, seed=1)
        )
        assert len(g.sets) == 2
        assert g.total_samples == 20
        assert g.feature_dim == 3

    def test_zero_noise_blob_collapses_sets(self):
        g = synth_generate(
            SynthParams(classes=2, sets_per_class=1, samples_per_set=5,
                        feature_dim=4, manifold="blob", noise_sigma=0.0, seed=2)
        )
        for s in g.sets:
            assert np.all(s.features == s.features[:, [0]])

    def test_deterministic(self):
        params = SynthParams(classes=3, sets_per_class=2, samples_per_set=6,
                             feature_dim=5, manifold="sinusoid", noise_sigma=0.05, seed=3)
        a, b = synth_generate(params), synth_generate(params)
        for sa, sb in zip(a.sets, b.sets):
            assert sa.set_id == sb.set_id and sa.label == sb.label
            assert np.array_equal(sa.features, sb.features)

    @pytest.mark.parametrize("c", [2, 5, 10])
    @pytest.mark.parametrize("d", [3, 50])
    def test_blob_class_means_separated(self, c, d):
        # estimated class means must sit further apart than six noise sigmas
        sigma = 0.1
        g = synth_generate(
            SynthParams(classes=c, sets_per_class=1, samples_per_set=800,
                        feature_dim=d, manifold="blob", noise_sigma=sigma, seed=5)
        )
        means = np.column_stack([s.features.mean(axis=1) for s in g.sets])
        for i in range(c):
            for j in range(i + 1, c):
                assert np.linalg.norm(means[:, i] - means[:, j]) > 6 * sigma

    def test_sinusoid_spreads_within_class(self):
        g = synth_generate(
            SynthParams(classes=2, sets_per_class=1, samples_per_set=50,
                        feature_dim=6, manifold="sinusoid", noise_sigma=0.0, seed=6)
        )
        for s in g.sets:
            spread = np.linalg.norm(s.features - s.features.mean(axis=1, keepdims=True))
            assert spread > 0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            SynthParams(classes=0, sets_per_class=1, samples_per_set=1, feature_dim=2)
        with pytest.raises(ValueError):
            SynthParams(classes=1, sets_per_class=1, samples_per_set=1,
                        feature_dim=2, noise_sigma=-0.1)
        with pytest.raises(ValueError):
            SynthParams(classes=1, sets_per_class=1, samples_per_set=1,
                        feature_dim=2, manifold="torus")

    def test_sinusoid_needs_two_dimensions(self):
        with pytest.raises(ValueError, match="feature_dim >= 2"):
            SynthParams(classes=1, sets_per_class=1, samples_per_set=1,
                        feature_dim=1, manifold="sinusoid")
        one = SynthParams(classes=2, sets_per_class=1, samples_per_set=3, feature_dim=1)
        assert synth_generate(one).feature_dim == 1


class TestFeatureFiles:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(5, 9))
        path = tmp_path / "x.dlmf"
        save_feature_matrix(path, X)
        back = load_feature_matrix(path)
        assert back.tobytes() == X.tobytes()

    def test_truncated_rejected(self, tmp_path):
        path = tmp_path / "x.dlmf"
        save_feature_matrix(path, np.ones((4, 4)))
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(DataError, match="checksum|truncated"):
            load_feature_matrix(path)

    def test_corrupted_payload_rejected(self, tmp_path):
        path = tmp_path / "x.dlmf"
        save_feature_matrix(path, np.ones((4, 4)))
        raw = bytearray(path.read_bytes())
        raw[20] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(DataError, match="checksum"):
            load_feature_matrix(path)

    def test_future_version_rejected(self, tmp_path):
        import struct
        import zlib

        path = tmp_path / "x.dlmf"
        header = struct.pack("<4sIII", b"DLMF", 99, 1, 1) + np.zeros(1).tobytes()
        path.write_bytes(header + struct.pack("<I", zlib.crc32(header)))
        with pytest.raises(DataError, match="unsupported feature format version 99"):
            load_feature_matrix(path)

    def test_wrong_magic_rejected(self, tmp_path):
        import struct
        import zlib

        path = tmp_path / "x.dlmf"
        header = struct.pack("<4sIII", b"NOPE", 1, 1, 1) + np.zeros(1).tobytes()
        path.write_bytes(header + struct.pack("<I", zlib.crc32(header)))
        with pytest.raises(DataError, match="magic"):
            load_feature_matrix(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="not found"):
            load_feature_matrix(tmp_path / "absent.dlmf")

    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    def test_bytes_match_struct_oracle(self, tmp_path, layout):
        X = np.random.default_rng(11).normal(size=(6, 14))
        X = {"C": X, "F": np.asfortranarray(X), "strided": X[:, ::2]}[layout]
        path = tmp_path / "x.dlmf"
        save_feature_matrix(path, X)
        payload = struct.pack("<4sIII", b"DLMF", 1, *X.shape)
        payload += X.astype("<f8").tobytes(order="F")
        assert path.read_bytes() == payload + struct.pack("<I", zlib.crc32(payload))

    def test_loaded_matrix_is_aligned_writable_float64(self, tmp_path):
        X = np.random.default_rng(12).normal(size=(5, 3))
        path = tmp_path / "x.dlmf"
        save_feature_matrix(path, X)
        back = load_feature_matrix(path)
        assert back.dtype == np.float64
        assert back.flags.aligned and back.flags.writeable and back.flags.f_contiguous
        assert np.array_equal(back, X)


class TestManifests:
    def _write_gallery(self, tmp_path, classes=2, sets_per_class=2):
        g = synth_generate(
            SynthParams(classes=classes, sets_per_class=sets_per_class,
                        samples_per_set=3, feature_dim=4, seed=8)
        )
        return g, save_gallery(g.sets, tmp_path)

    def test_round_trip(self, tmp_path):
        g, manifest = self._write_gallery(tmp_path)
        back = load_gallery(manifest)
        assert len(back.sets) == len(g.sets)
        originals = {s.set_id: s for s in g.sets}
        for s in back.sets:
            orig = originals[s.set_id]
            assert s.label == orig.label
            assert s.features.tobytes() == orig.features.tobytes()

    def test_counts(self, tmp_path):
        _, manifest = self._write_gallery(tmp_path, classes=2, sets_per_class=1)
        gallery = load_gallery(manifest)
        assert gallery.total_samples == 6

    def test_dimension_mismatch_names_file(self, tmp_path):
        _, manifest = self._write_gallery(tmp_path)
        save_feature_matrix(tmp_path / "rogue.dlmf", np.ones((5, 2)))
        lines = manifest.read_text().splitlines()
        lines.append("rogue\tclass00\trogue.dlmf")
        manifest.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match="rogue.dlmf"):
            load_gallery(manifest)

    def test_missing_feature_file_named(self, tmp_path):
        _, manifest = self._write_gallery(tmp_path)
        lines = manifest.read_text().splitlines()
        lines.append("ghost\tclass00\tghost.dlmf")
        manifest.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match="ghost.dlmf"):
            load_gallery(manifest)

    def test_duplicate_set_id_rejected(self, tmp_path):
        _, manifest = self._write_gallery(tmp_path)
        lines = manifest.read_text().splitlines()
        lines.append(lines[1])
        manifest.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match="duplicate set_id"):
            parse_manifest(manifest)

    def test_empty_manifest_rejected(self, tmp_path):
        path = tmp_path / "manifest.txt"
        path.write_text("#delm-manifest v1 d=4\n")
        with pytest.raises(DataError, match="empty gallery"):
            parse_manifest(path)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(DataError, match="not found"):
            parse_manifest(tmp_path / "none.txt")

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "manifest.txt"
        path.write_text("not a manifest\n")
        with pytest.raises(DataError, match="header"):
            parse_manifest(path)

    def test_unlabeled_probes_allowed_but_not_in_gallery(self, tmp_path):
        g, manifest = self._write_gallery(tmp_path)
        lines = manifest.read_text().splitlines()
        for i, line in enumerate(lines[1:], start=1):
            set_id, _, rel = line.split("\t")
            lines[i] = f"{set_id}\t-\t{rel}"
        manifest.write_text("\n".join(lines) + "\n")
        sets = load_image_sets(manifest)
        assert any(s.label is None for s in sets)
        with pytest.raises(DataError, match="unlabeled"):
            load_gallery(manifest)


UTF8_LABEL_SCRIPT = """
import sys
import numpy as np
from deepelm import ImageSet, load_gallery, save_gallery
manifest = save_gallery([ImageSet(np.ones((2, 3)), "caf\\u00e9", "s1")], sys.argv[1])
assert [s.label for s in load_gallery(manifest).sets] == ["caf\\u00e9"]
"""


def test_non_ascii_label_round_trips_under_posix_locale(tmp_path):
    """Manifests are UTF-8 even where the locale's encoding is ASCII."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src), "LC_ALL": "POSIX",
           "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}
    proc = subprocess.run(
        [sys.executable, "-c", UTF8_LABEL_SCRIPT, str(tmp_path / "gallery")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


UMASK_SCRIPT = """
import os, stat, sys
from deepelm.fileio import write_atomic
os.umask(int(sys.argv[1], 8))
write_atomic(sys.argv[2], "x")
print(oct(stat.S_IMODE(os.stat(sys.argv[2]).st_mode)))
"""


@pytest.mark.parametrize("umask, mode", [("022", "0o644"), ("077", "0o600")])
def test_written_files_take_the_umask_mode(tmp_path, umask, mode):
    """write_atomic gives new files the mode open() would, 0o666 less the umask."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-c", UMASK_SCRIPT, umask, str(tmp_path / "out.txt")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == mode
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


@pytest.mark.parametrize("label", ["-", "a\tb", "a\rb", "a\nb", "ab\n", "a\u2028b"])
def test_save_gallery_rejects_unwritable_labels_before_writing(tmp_path, label):
    sets = [ImageSet(np.ones((2, 3)), "fine", "a"), ImageSet(np.ones((2, 3)), label, "b")]
    out = tmp_path / "gallery"
    with pytest.raises(DataError, match="label"):
        save_gallery(sets, out)
    assert not out.exists()


class TestGalleryValidation:
    def test_empty_gallery_rejected(self):
        with pytest.raises(DataError, match="empty gallery"):
            Gallery([])

    def test_dimension_consistency(self):
        a = ImageSet(np.ones((3, 2)), "x", "a")
        b = ImageSet(np.ones((4, 2)), "y", "b")
        with pytest.raises(DataError, match="dimension"):
            Gallery([a, b])

    def test_duplicate_ids_rejected(self):
        a = ImageSet(np.ones((3, 2)), "x", "a")
        b = ImageSet(np.ones((3, 2)), "y", "a")
        with pytest.raises(DataError, match="duplicate"):
            Gallery([a, b])


class TestNormalizeGallery:
    def test_shared_stats_cover_all_sets(self):
        g = synth_generate(
            SynthParams(classes=2, sets_per_class=2, samples_per_set=5,
                        feature_dim=4, seed=9)
        )
        norm, stats = normalize_gallery(g)
        X = np.hstack([s.features for s in norm.sets])
        assert X.min() >= EPSILON and X.max() <= 1 - EPSILON
        # reapplying the same stats to the raw sets reproduces the output
        for raw, cooked in zip(g.sets, norm.sets):
            assert np.array_equal(apply_stats(raw.features, stats), cooked.features)


def synth_generate_oracle(params):
    """synth_generate as written with one rng.normal(0.0, sigma, size) per set."""
    rng = np.random.default_rng(params.seed)
    c, d = params.classes, params.feature_dim
    sigma = params.noise_sigma
    if params.manifold == GAUSSIAN_BLOB:
        min_sep = 8.0 * sigma
    else:
        min_sep = 2.0 * (_CURVE_SPAN + _CURVE_WOBBLE) + 8.0 * sigma
    centers = _separated_directions(rng, c, d, min_sep)
    curves = []
    if params.manifold == SINUSOIDAL_MANIFOLD:
        for _ in range(c):
            basis = _orthonormal_pair(rng, d)
            freq = rng.uniform(0.75, 1.5)
            phase = rng.uniform(0.0, 2.0 * np.pi)
            curves.append((basis, freq, phase))
    sets = []
    for j in range(c):
        label = f"class{j:02d}"
        for k in range(params.sets_per_class):
            if params.manifold == GAUSSIAN_BLOB:
                X = centers[j][:, None] + rng.normal(
                    0.0, sigma, size=(d, params.samples_per_set)
                )
            else:
                (u, v), freq, phase = curves[j]
                t = rng.uniform(-1.0, 1.0, size=params.samples_per_set)
                X = (
                    centers[j][:, None]
                    + _CURVE_SPAN * np.outer(u, t)
                    + _CURVE_WOBBLE * np.outer(v, np.sin(2.0 * np.pi * freq * t + phase))
                    + rng.normal(0.0, sigma, size=(d, params.samples_per_set))
                )
            sets.append((label, f"{label}_set{k:02d}", X))
    return sets


@pytest.mark.parametrize("manifold", MANIFOLDS)
@pytest.mark.parametrize("sigma", [0.0, 0.05])
def test_synth_generate_matches_per_set_normal_draws(manifold, sigma):
    for seed in range(10):
        params = SynthParams(classes=4, sets_per_class=3, samples_per_set=7,
                             feature_dim=9, manifold=manifold, noise_sigma=sigma,
                             seed=seed)
        want = synth_generate_oracle(params)
        got = synth_generate(params)
        assert [(s.label, s.set_id) for s in got.sets] == [w[:2] for w in want]
        for s, (_, _, X) in zip(got.sets, want):
            assert s.features.tobytes() == X.tobytes()
