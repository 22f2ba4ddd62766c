import struct
import zlib
from pathlib import Path

import numpy as np
import pytest

from conftest import make_blob_gallery, small_config
from deepelm import (
    SIGMOID,
    DELMModel,
    DataError,
    SynthParams,
    classify_set,
    load_image_sets,
    load_model,
    load_models,
    normalize_gallery,
    save_gallery,
    save_model,
    save_models,
    synth_generate,
    train_all,
    train_delm,
)
from deepelm.autoencoder import LayerSpec
from deepelm.cli import main
from deepelm.fileio import Reader, pack_text, seal, unseal
from deepelm.normalize import NormalizationStats
from deepelm.persistence import _pack_array, _pack_config, _read_config, pack_model

DATA = Path(__file__).resolve().parent / "data"
# Written by the format-1 bundle writer (commit dd5caa4) from
# SynthParams(classes=2, sets_per_class=2, samples_per_set=6, feature_dim=5,
# seed=3), normalized, and TrainConfig(layer_widths=(3, 3), seed=3); the
# .npz holds that writer's in-memory weights and stats, keyed
# "<label>/<layer>", "global/<layer>" and "stats/lo", "stats/hi".
V1_FIXTURE = DATA / "bundle_v1_c2_d5.dlmc"
V1_WEIGHTS = DATA / "bundle_v1_c2_d5_weights.npz"
V1_GALLERY = SynthParams(classes=2, sets_per_class=2, samples_per_set=6, feature_dim=5, seed=3)


def models_equal(a, b):
    assert a.dims == b.dims
    assert a.activation == b.activation
    for Wa, Wb in zip(a.weights, b.weights, strict=True):
        assert Wa.shape == Wb.shape
        assert Wa.tobytes() == Wb.tobytes()
    if a.feature_stats is None:
        assert b.feature_stats is None
    else:
        assert b.feature_stats is not None
        assert a.feature_stats.lo.tobytes() == b.feature_stats.lo.tobytes()
        assert a.feature_stats.hi.tobytes() == b.feature_stats.hi.tobytes()
        assert a.feature_stats.epsilon == b.feature_stats.epsilon
        assert a.feature_stats.per_dimension == b.feature_stats.per_dimension


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    gallery = make_blob_gallery(classes=3, sets_per_class=2, samples_per_set=6,
                                dim=9, seed=31)
    norm, stats = normalize_gallery(gallery)
    models = train_all(norm, small_config(seed=31, widths=(4, 4)), feature_stats=stats)
    path = tmp_path_factory.mktemp("models") / "bundle.delm"
    save_models(path, models)
    return models, path


@pytest.fixture(scope="module")
def probe_manifest(tmp_path_factory):
    """Probe manifests matching the bundle (d=9) and the v1 fixture (d=5)."""
    root = tmp_path_factory.mktemp("probes")
    blobs = make_blob_gallery(classes=3, sets_per_class=2, samples_per_set=6, dim=9, seed=31)
    return {
        9: save_gallery(blobs.sets[:2], root / "d9"),
        5: save_gallery(synth_generate(V1_GALLERY).sets[:2], root / "d5"),
    }


def class_model(models, k: int) -> DELMModel:
    """Class k's model alone, as the format-1 bundle stored it."""
    return DELMModel(
        weights=[W[k] for W in models.class_stack.weights],
        dims=models.class_stack.dims,
        feature_stats=models.feature_stats,
    )


def retag(blob: bytes, activation: str) -> bytes:
    """A DLMM blob with its activation tag replaced, resealed."""
    payload = unseal(blob, "blob").replace(pack_text(SIGMOID), pack_text(activation), 1)
    return seal(payload)


def bundle_bytes(version: int, config: bytes, labels, global_blob: bytes, body: bytes) -> bytes:
    out = struct.pack("<4sI", b"DLMC", version) + config + struct.pack("<I", len(labels))
    out += b"".join(pack_text(lab) for lab in labels)
    return seal(out + struct.pack("<Q", len(global_blob)) + global_blob + body)


def v1_bundle(models, class_blobs=None) -> bytes:
    """models in the format-1 layout: one length-prefixed DLMM blob per class."""
    if class_blobs is None:
        class_blobs = [pack_model(class_model(models, k)) for k in range(len(models.class_labels))]
    body = b"".join(struct.pack("<Q", len(blob)) + blob for blob in class_blobs)
    return bundle_bytes(
        1, _pack_config(models.config), models.class_labels, pack_model(models.global_model), body
    )


def classify_exit(model_path, manifest, tmp_path, capsys) -> int:
    code = main(["classify", "--model", str(model_path), "--probes", str(manifest),
                 "--out", str(tmp_path / "report.tsv")])
    capsys.readouterr()
    return code


class TestModelContainer:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        X = 0.5 + 0.3 * (rng.random(size=(7, 20)) - 0.5)
        model = train_delm(X, [LayerSpec(4, 1e6, seed=1)], final_C=1e12)
        path = tmp_path / "m.delm"
        save_model(path, model)
        models_equal(model, load_model(path))

    def test_round_trip_with_stats(self, tmp_path):
        from deepelm import compute_stats, apply_stats

        rng = np.random.default_rng(2)
        raw = rng.normal(size=(5, 15)) * 4
        stats = compute_stats(raw)
        X = apply_stats(raw, stats)
        model = train_delm(X, [LayerSpec(3, 1e6, seed=2)], final_C=1e12,
                           feature_stats=stats)
        path = tmp_path / "m.delm"
        save_model(path, model)
        models_equal(model, load_model(path))

    def test_resave_is_byte_identical(self, tmp_path):
        rng = np.random.default_rng(3)
        X = 0.5 + 0.2 * (rng.random(size=(6, 12)) - 0.5)
        model = train_delm(X, [LayerSpec(3, 1e6, seed=3)], final_C=1e10)
        a, b = tmp_path / "a.delm", tmp_path / "b.delm"
        save_model(a, model)
        save_model(b, load_model(a))
        assert a.read_bytes() == b.read_bytes()

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="not found"):
            load_model(tmp_path / "nope.delm")


class TestBundleContainer:
    def test_round_trip(self, bundle):
        models, path = bundle
        back = load_models(path)
        assert back.class_labels == models.class_labels
        assert back.config == models.config
        models_equal(models.global_model, back.global_model)
        models_equal(models.class_stack, back.class_stack)

    def test_truncation_detected(self, bundle, tmp_path):
        _, path = bundle
        clipped = tmp_path / "clipped.delm"
        raw = path.read_bytes()
        clipped.write_bytes(raw[: len(raw) - 37])
        with pytest.raises(DataError, match="checksum|truncated"):
            load_models(clipped)

    def test_bitflip_detected(self, bundle, tmp_path):
        _, path = bundle
        bad = tmp_path / "bad.delm"
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0x1
        bad.write_bytes(bytes(raw))
        with pytest.raises(DataError, match="checksum"):
            load_models(bad)

    def test_future_version_rejected(self, bundle, tmp_path):
        import struct

        from deepelm.fileio import seal, unseal

        _, path = bundle
        payload = bytearray(unseal(path.read_bytes(), str(path)))
        payload[4:8] = struct.pack("<I", 42)
        bad = tmp_path / "future.delm"
        bad.write_bytes(seal(bytes(payload)))
        with pytest.raises(DataError, match="unsupported bundle format version 42"):
            load_models(bad)

    def test_wrong_magic_rejected(self, bundle, tmp_path):
        from deepelm.fileio import seal, unseal

        _, path = bundle
        payload = bytearray(unseal(path.read_bytes(), str(path)))
        payload[0:4] = b"WHAT"
        bad = tmp_path / "magic.delm"
        bad.write_bytes(seal(bytes(payload)))
        with pytest.raises(DataError, match="magic"):
            load_models(bad)


class TestFormatVersion1:
    def test_fixture_loads_to_the_writers_tensors(self):
        models = load_models(V1_FIXTURE)
        ref = np.load(V1_WEIGHTS)
        assert models.class_labels == ("class00", "class01")
        for i, stack in enumerate(models.class_stack.weights):
            expect = np.stack([ref[f"{lab}/{i}"] for lab in models.class_labels])
            assert stack.shape == expect.shape == (2, *expect.shape[1:])
            assert stack.dtype == np.float64 and stack.flags.c_contiguous
            assert stack.tobytes() == expect.tobytes()
        for i, W in enumerate(models.global_model.weights):
            assert W.tobytes() == ref[f"global/{i}"].tobytes()
        assert models.feature_stats.lo.tobytes() == ref["stats/lo"].tobytes()
        assert models.feature_stats.hi.tobytes() == ref["stats/hi"].tobytes()
        assert models.class_stack.feature_stats is None

    def test_fixture_classifies_its_gallery(self):
        models = load_models(V1_FIXTURE)
        for s in synth_generate(V1_GALLERY).sets:
            assert classify_set(s, models).set_label == s.label

    def test_resave_writes_version_2_with_same_tensors(self, tmp_path):
        models = load_models(V1_FIXTURE)
        path = tmp_path / "v2.dlmc"
        save_models(path, models)
        assert struct.unpack("<I", path.read_bytes()[4:8]) == (2,)
        back = load_models(path)
        models_equal(models.global_model, back.global_model)
        models_equal(models.class_stack, back.class_stack)

    def test_written_layout_loads_to_same_stacks(self, bundle, tmp_path):
        models, _ = bundle
        path = tmp_path / "v1.dlmc"
        path.write_bytes(v1_bundle(models))
        back = load_models(path)
        models_equal(models.class_stack, back.class_stack)
        models_equal(models.global_model, back.global_model)

    def test_per_class_stats_must_match_global(self, bundle, tmp_path):
        models, _ = bundle
        stats = models.feature_stats
        shifted = NormalizationStats(lo=stats.lo - 1.0, hi=stats.hi, epsilon=stats.epsilon)
        blobs = [pack_model(class_model(models, k)) for k in range(3)]
        odd = class_model(models, 1)
        blobs[1] = pack_model(DELMModel(weights=odd.weights, dims=odd.dims, feature_stats=shifted))
        path = tmp_path / "stats.dlmc"
        path.write_bytes(v1_bundle(models, blobs))
        with pytest.raises(DataError, match="feature stats"):
            load_models(path)


class TestMalformedContents:
    """Fields that decode but are invalid raise DataError at load, and the
    CLI reports them as input errors (exit 2)."""

    def check(self, path, manifest, tmp_path, capsys, match):
        with pytest.raises(DataError, match=match):
            load_models(path)
        assert classify_exit(path, manifest, tmp_path, capsys) == 2

    def test_label_not_utf8(self, bundle, probe_manifest, tmp_path, capsys):
        models, path = bundle
        payload = bytearray(unseal(path.read_bytes(), "bundle"))
        at = payload.index(pack_text(models.class_labels[0]))
        payload[at + 2] = 0xFF
        bad = tmp_path / "label.dlmc"
        bad.write_bytes(seal(bytes(payload)))
        self.check(bad, probe_manifest[9], tmp_path, capsys, "UTF-8")

    def test_zero_hidden_layers(self, bundle, probe_manifest, tmp_path, capsys):
        models, path = bundle
        payload = unseal(path.read_bytes(), "bundle")
        config = _pack_config(models.config)
        zero = struct.pack("<Iq", 0, models.config.seed) + pack_text(SIGMOID)
        zero += struct.pack("<Id", 1, 1e18)
        bad = tmp_path / "h0.dlmc"
        bad.write_bytes(seal(payload.replace(config, zero, 1)))
        self.check(bad, probe_manifest[9], tmp_path, capsys, "hidden_layers")

    def test_unknown_global_activation(self, bundle, probe_manifest, tmp_path, capsys):
        models, _ = bundle
        body = b"".join(_pack_array(W) for W in models.class_stack.weights)
        bad = tmp_path / "relu.dlmc"
        bad.write_bytes(bundle_bytes(
            2, _pack_config(models.config), models.class_labels,
            retag(pack_model(models.global_model), "relu"), body,
        ))
        self.check(bad, probe_manifest[9], tmp_path, capsys, "relu")

    def test_unknown_class_activation_in_version_1(self, bundle, probe_manifest, tmp_path, capsys):
        models, _ = bundle
        blobs = [pack_model(class_model(models, k)) for k in range(3)]
        blobs[2] = retag(blobs[2], "relu")
        bad = tmp_path / "relu1.dlmc"
        bad.write_bytes(v1_bundle(models, blobs))
        self.check(bad, probe_manifest[9], tmp_path, capsys, "relu")

    def test_unsorted_labels(self, bundle, probe_manifest, tmp_path, capsys):
        models, path = bundle
        payload = unseal(path.read_bytes(), "bundle")
        first, last = (pack_text(models.class_labels[i]) for i in (0, -1))
        swapped = payload.replace(first, b"\0" * len(first), 1).replace(last, first, 1)
        bad = tmp_path / "order.dlmc"
        bad.write_bytes(seal(swapped.replace(b"\0" * len(first), last, 1)))
        self.check(bad, probe_manifest[9], tmp_path, capsys, "sorted")


def blob_spans(payload: bytes) -> list[tuple[int, int]]:
    """(start, end) of every length-prefixed DLMM blob in a bundle payload."""
    r = Reader(payload, "bundle")
    _, version = r.unpack("<4sI")
    _read_config(r)
    labels = [r.text() for _ in range(r.u32())]
    spans = []
    for _ in range(1 + (len(labels) if version == 1 else 0)):
        n = r.u64()
        spans.append((r.pos, r.pos + n))
        r.take(n)
    return spans


@pytest.mark.parametrize("fmt", ["v2", "v1"])
def test_seeded_byte_flips_fail_only_with_data_error(fmt, bundle, probe_manifest, tmp_path, capsys):
    """Flip one byte of a resealed bundle: the bundle CRC and every model
    CRC are recomputed, so only the decoder stands between the flip and the
    classifier. Each load must either raise DataError, with the CLI exiting
    2, or give models that classify, with the CLI exiting 0. Every byte of
    the header region is flipped once, then random bytes across the file.
    """
    if fmt == "v2":
        raw, manifest = bundle[1].read_bytes(), probe_manifest[9]
    else:
        raw, manifest = V1_FIXTURE.read_bytes(), probe_manifest[5]
    payload = unseal(raw, fmt)
    spans = blob_spans(payload)
    rng = np.random.default_rng(20 if fmt == "v2" else 10)
    header = spans[0][0] + 64
    positions = [*range(header), *rng.integers(header, len(payload), 150).tolist()]
    probe = load_image_sets(manifest)[0]
    path = tmp_path / "fuzzed.dlmc"
    rejected = 0
    for pos in positions:
        buf = bytearray(payload)
        buf[pos] ^= int(rng.integers(1, 256))
        for start, end in spans:
            buf[end - 4:end] = struct.pack("<I", zlib.crc32(buf[start:end - 4]))
        path.write_bytes(seal(bytes(buf)))
        try:
            models = load_models(path)
        except DataError:
            rejected += 1
            assert classify_exit(path, manifest, tmp_path, capsys) == 2, pos
            continue
        with np.errstate(all="ignore"):
            classify_set(probe, models)
            assert classify_exit(path, manifest, tmp_path, capsys) == 0, pos
    print(f"{fmt}: {rejected} of {len(positions)} flips rejected")
    assert rejected >= header // 2, (rejected, len(positions))
