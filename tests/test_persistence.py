import errno
import io
import os
import re
import struct
import sys
import threading
import tracemalloc
import zlib
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from conftest import make_blob_gallery, small_config
from deepelm import (
    ClassModels,
    DELMModel,
    DataError,
    ImageSet,
    TrainConfig,
    classify_set,
    load_image_sets,
    load_model,
    load_models,
    normalize_gallery,
    save_gallery,
    save_model,
    save_models,
    train_all,
    train_delm,
)
from deepelm.autoencoder import LayerSpec
from deepelm.datasets import load_feature_matrix, save_feature_matrix
from deepelm.cli import main
from deepelm import fileio
from deepelm.fileio import CRCWorker, Reader, f64_view, pack_text, seal, write_atomic
from deepelm.normalize import NormalizationStats
from deepelm.persistence import _array_parts, _pack_config, _read_config, pack_model

DATA = Path(__file__).resolve().parent / "data"
# A bundle of format version 1, which held one DLMM blob per class, written
# by the format-1 bundle writer (commit dd5caa4). Only version 2 is read, so
# it stays as an input that must be refused.
V1_FIXTURE = DATA / "bundle_v1_c2_d5.dlmc"


def models_equal(a, b):
    assert a.dims == b.dims
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
def large(tmp_path_factory):
    """A bundle (3.9 MB) above both thresholds at which the CRC moves to a thread."""
    gallery = make_blob_gallery(classes=4, sets_per_class=2, samples_per_set=20,
                                dim=200, seed=8)
    norm, stats = normalize_gallery(gallery)
    models = train_all(norm, small_config(seed=8, widths=(200, 200)), feature_stats=stats)
    path = tmp_path_factory.mktemp("large") / "large.dlmc"
    save_models(path, models)
    assert path.stat().st_size >= max(2 << 20, fileio._OPEN_THREADED)
    return models, path


@pytest.fixture(scope="module")
def probe_manifest(tmp_path_factory):
    """Probe manifests matching the bundle (d=9) and the large bundle (d=200)."""
    root = tmp_path_factory.mktemp("probes")
    blobs = make_blob_gallery(classes=3, sets_per_class=2, samples_per_set=6, dim=9, seed=31)
    wide = make_blob_gallery(classes=4, sets_per_class=2, samples_per_set=20, dim=200, seed=8)
    return {
        9: save_gallery(blobs.sets[:2], root / "d9"),
        200: save_gallery(wide.sets[:2], root / "d200"),
    }


def class_model(models, k: int) -> DELMModel:
    """Class k's model alone, with the global model's feature stats."""
    return DELMModel(
        weights=[W[k] for W in models.class_stack.weights],
        dims=models.class_stack.dims,
        feature_stats=models.feature_stats,
    )


def sealed(payload) -> bytes:
    """payload with its CRC32 appended, as one bytes object."""
    return b"".join(seal([payload]))


def unsealed(raw: bytes) -> bytes:
    """The payload of a sealed container, after checking its CRC32."""
    assert struct.unpack("<I", raw[-4:])[0] == zlib.crc32(raw[:-4])
    return raw[:-4]


def model_blob(model: DELMModel) -> bytes:
    """The DLMM container of model, as one bytes object."""
    return b"".join(pack_model(model))


def retag(blob: bytes, activation: str) -> bytes:
    """A DLMM blob with its activation tag replaced, resealed."""
    payload = unsealed(blob).replace(pack_text("sigmoid"), pack_text(activation), 1)
    return sealed(payload)


def bundle_bytes(version: int, config: bytes, labels, global_blob: bytes, body: bytes) -> bytes:
    out = struct.pack("<4sI", b"DLMC", version) + config + struct.pack("<I", len(labels))
    out += b"".join(pack_text(lab) for lab in labels)
    return sealed(out + struct.pack("<Q", len(global_blob)) + global_blob + body)


def with_global(models, global_blob: bytes) -> bytes:
    """The version-2 bundle of models with global_blob as its global model."""
    body = b"".join(part for W in models.class_stack.weights for part in _array_parts(W))
    return bundle_bytes(2, _pack_config(models.config), models.class_labels, global_blob, body)


def stats_flags_at(model: DELMModel) -> int:
    """Offset of the stats presence byte in the DLMM payload of model."""
    return 8 + len(pack_text("sigmoid")) + 4 + 4 * len(model.dims)


def with_stats_flags(model: DELMModel, present: int, per_dimension: int) -> bytes:
    """The DLMM blob of model, which has stats, with its two stats flag
    bytes set as given, resealed."""
    payload = bytearray(unsealed(model_blob(model)))
    at = stats_flags_at(model)
    assert payload[at:at + 2] == b"\x01\x01"
    payload[at:at + 2] = bytes([present, per_dimension])
    return sealed(bytes(payload))


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

    @pytest.mark.parametrize("pos", [0, 5, 20])
    def test_header_bitflip_reported_as_checksum_mismatch(self, bundle, tmp_path, pos):
        """Decoding stops early at a corrupt magic, version or config, but
        the file's CRC is checked before the decoding error is reported."""
        _, path = bundle
        raw = bytearray(path.read_bytes())
        raw[pos] ^= 0x40
        bad = tmp_path / "header.delm"
        bad.write_bytes(bytes(raw))
        with pytest.raises(DataError, match="checksum mismatch"):
            load_models(bad)

    def test_version_1_rejected(self, probe_manifest, tmp_path, capsys):
        with pytest.raises(DataError, match="unsupported bundle format version 1$"):
            load_models(V1_FIXTURE)
        assert classify_exit(V1_FIXTURE, probe_manifest[9], tmp_path, capsys) == 2

    def test_future_version_rejected(self, bundle, tmp_path):
        _, path = bundle
        payload = bytearray(unsealed(path.read_bytes()))
        payload[4:8] = struct.pack("<I", 42)
        bad = tmp_path / "future.delm"
        bad.write_bytes(sealed(bytes(payload)))
        with pytest.raises(DataError, match="unsupported bundle format version 42"):
            load_models(bad)

    def test_wrong_magic_rejected(self, bundle, tmp_path):
        _, path = bundle
        payload = bytearray(unsealed(path.read_bytes()))
        payload[0:4] = b"WHAT"
        bad = tmp_path / "magic.delm"
        bad.write_bytes(sealed(bytes(payload)))
        with pytest.raises(DataError, match="magic"):
            load_models(bad)


def oracle_text(s: str) -> bytes:
    raw = s.encode("utf-8")
    return struct.pack("<H", len(raw)) + raw


def oracle_array(W: np.ndarray) -> bytes:
    return struct.pack(f"<{W.ndim}I", *W.shape) + W.astype("<f8").tobytes()


def oracle_sealed(payload: bytes) -> bytes:
    return payload + struct.pack("<I", zlib.crc32(payload))


def oracle_model(model: DELMModel) -> bytes:
    """The DLMM bytes of model, from the format description alone."""
    n = len(model.dims)
    out = struct.pack("<4sI", b"DLMM", 1) + oracle_text("sigmoid")
    out += struct.pack(f"<I{n}I", n, *model.dims)
    stats = model.feature_stats
    if stats is None:
        out += b"\0"
    else:
        out += struct.pack("<BBdI", 1, 1, stats.epsilon, stats.dim)
        out += stats.lo.astype("<f8").tobytes() + stats.hi.astype("<f8").tobytes()
    out += struct.pack("<I", len(model.weights))
    out += b"".join(oracle_array(W) for W in model.weights)
    return oracle_sealed(out)


def oracle_bundle(models) -> bytes:
    """The DLMC version 2 bytes of models, from the format description alone."""
    cfg = models.config
    n = len(cfg.layer_C)
    out = struct.pack("<4sI", b"DLMC", 2)
    out += struct.pack("<Iq", cfg.hidden_layers, cfg.seed) + oracle_text("sigmoid")
    out += struct.pack(f"<{cfg.hidden_layers}I", *cfg.layer_widths)
    out += struct.pack(f"<I{n}d", n, *cfg.layer_C)
    out += struct.pack("<I", len(models.class_labels))
    out += b"".join(oracle_text(lab) for lab in models.class_labels)
    blob = oracle_model(models.global_model)
    out += struct.pack("<Q", len(blob)) + blob
    out += b"".join(oracle_array(W) for W in models.class_stack.weights)
    return oracle_sealed(out)


def loaded_arrays(models) -> list[np.ndarray]:
    stats = models.feature_stats
    return [*models.global_model.weights, *models.class_stack.weights, stats.lo, stats.hi]


class TestCopyFreeIO:
    """Writers stream the arrays' own bytes; loaders copy each array once."""

    def test_model_bytes_match_struct_oracle(self, bundle, tmp_path):
        models, _ = bundle
        for k, model in enumerate([models.global_model, class_model(models, 0)]):
            path = tmp_path / f"m{k}.delm"
            save_model(path, model)
            assert path.read_bytes() == oracle_model(model)

    def test_model_without_stats_and_fortran_weights_match_oracle(self, bundle, tmp_path):
        models, _ = bundle
        model = DELMModel(
            weights=[np.asfortranarray(W) for W in models.global_model.weights],
            dims=models.global_model.dims,
        )
        path = tmp_path / "f.delm"
        save_model(path, model)
        assert path.read_bytes() == oracle_model(model)

    def test_bundle_bytes_match_struct_oracle(self, bundle):
        models, path = bundle
        assert path.read_bytes() == oracle_bundle(models)

    @pytest.mark.parametrize("source", ["v2"])
    def test_loaded_arrays_are_fresh_aligned_writable(self, bundle, source):
        models = load_models(bundle[1])
        for a in loaded_arrays(models):
            assert a.dtype == np.float64
            assert a.flags.aligned and a.flags.writeable and a.flags.c_contiguous
            assert a.flags.owndata

    @pytest.fixture(scope="class")
    def wide(self, tmp_path_factory):
        """A bundle whose stacks (346 KB) dwarf the fixed costs of an I/O call."""
        gallery = make_blob_gallery(classes=4, sets_per_class=2, samples_per_set=20,
                                    dim=60, seed=5)
        norm, stats = normalize_gallery(gallery)
        models = train_all(norm, small_config(seed=5, widths=(60, 60)), feature_stats=stats)
        path = tmp_path_factory.mktemp("wide") / "wide.dlmc"
        save_models(path, models)
        return models, path

    @staticmethod
    def traced_peak(fn, *args):
        tracemalloc.start()
        try:
            out = fn(*args)
            return tracemalloc.get_traced_memory()[1], out
        finally:
            tracemalloc.stop()

    def test_save_allocates_less_than_the_stacks(self, wide, large):
        # large checksums on a worker thread, wide inline
        for models, path in (wide, large):
            stack_bytes = sum(W.nbytes for W in models.class_stack.weights)
            peak, _ = self.traced_peak(save_models, path, models)
            assert peak < stack_bytes, (peak, stack_bytes)

    def test_load_allocates_little_more_than_the_arrays(self, wide, large):
        for models, path in (wide, large):
            peak, back = self.traced_peak(load_models, path)
            # the arrays plus small read-ahead windows, never a file-sized buffer
            assert peak < path.stat().st_size + 192 * 1024, (peak, path.stat().st_size)
            models_equal(models.class_stack, back.class_stack)


class TestMalformedContents:
    """Fields that decode but are invalid raise DataError at load, and the
    CLI reports them as input errors (exit 2)."""

    def check(self, path, manifest, tmp_path, capsys, match):
        with pytest.raises(DataError, match=match):
            load_models(path)
        assert classify_exit(path, manifest, tmp_path, capsys) == 2

    def test_label_not_utf8(self, bundle, probe_manifest, tmp_path, capsys):
        models, path = bundle
        payload = bytearray(unsealed(path.read_bytes()))
        at = payload.index(pack_text(models.class_labels[0]))
        payload[at + 2] = 0xFF
        bad = tmp_path / "label.dlmc"
        bad.write_bytes(sealed(bytes(payload)))
        self.check(bad, probe_manifest[9], tmp_path, capsys, "UTF-8")

    def test_zero_hidden_layers(self, bundle, probe_manifest, tmp_path, capsys):
        models, path = bundle
        payload = unsealed(path.read_bytes())
        config = _pack_config(models.config)
        zero = struct.pack("<Iq", 0, models.config.seed) + pack_text("sigmoid")
        zero += struct.pack("<Id", 1, 1e18)
        bad = tmp_path / "h0.dlmc"
        bad.write_bytes(sealed(payload.replace(config, zero, 1)))
        self.check(bad, probe_manifest[9], tmp_path, capsys, "hidden_layers")

    def test_unknown_global_activation(self, bundle, probe_manifest, tmp_path, capsys):
        models, _ = bundle
        bad = tmp_path / "relu.dlmc"
        bad.write_bytes(with_global(models, retag(model_blob(models.global_model), "relu")))
        self.check(bad, probe_manifest[9], tmp_path, capsys, "relu")

    def test_unknown_config_activation(self, bundle, probe_manifest, tmp_path, capsys):
        models, path = bundle
        config = _pack_config(models.config)
        relu = config.replace(pack_text("sigmoid"), pack_text("relu"), 1)
        bad = tmp_path / "config_relu.dlmc"
        bad.write_bytes(sealed(unsealed(path.read_bytes()).replace(config, relu, 1)))
        self.check(bad, probe_manifest[9], tmp_path, capsys, "relu")

    def test_checksum_reported_before_the_tag(self, bundle, tmp_path):
        models, _ = bundle
        blob = bytearray(retag(model_blob(models.global_model), "relu"))
        blob[-5] ^= 0x01  # the last payload byte, in the decode weights
        bad = tmp_path / "relu.dlmm"
        bad.write_bytes(bytes(blob))
        with pytest.raises(DataError, match="checksum mismatch"):
            load_model(bad)
        # nested in a bundle whose own CRC holds, only the model's CRC sees it
        bad.write_bytes(with_global(models, bytes(blob)))
        with pytest.raises(DataError, match=r"\[global\]: checksum mismatch"):
            load_models(bad)

    @pytest.mark.parametrize(
        "flags, match",
        [
            ((2, 1), "stats presence flag 2, expected 0 or 1"),
            ((1, 2), "stats per-dimension flag 2, expected 1"),
            ((1, 0), "stats per-dimension flag 0, expected 1"),
        ],
        ids=["presence", "per-dimension", "per-dimension-0"],
    )
    def test_bad_stats_flag(self, flags, match, bundle, probe_manifest, tmp_path, capsys):
        models, _ = bundle
        blob = with_stats_flags(models.global_model, *flags)
        bad = tmp_path / "flags.dlmm"
        bad.write_bytes(blob)
        with pytest.raises(DataError, match=match):
            load_model(bad)
        bad = tmp_path / "flags.dlmc"
        bad.write_bytes(with_global(models, blob))
        self.check(bad, probe_manifest[9], tmp_path, capsys, match)

    def test_checksum_reported_before_a_bad_stats_flag(self, bundle, tmp_path):
        models, _ = bundle
        blob = bytearray(with_stats_flags(models.global_model, 7, 7))
        blob[-5] ^= 0x01  # the last payload byte, in the decode weights
        bad = tmp_path / "flags.dlmm"
        bad.write_bytes(bytes(blob))
        with pytest.raises(DataError, match="checksum mismatch"):
            load_model(bad)
        bad.write_bytes(with_global(models, bytes(blob)))
        with pytest.raises(DataError, match=r"\[global\]: checksum mismatch"):
            load_models(bad)

    def test_negative_seed(self, bundle, probe_manifest, tmp_path, capsys):
        models, path = bundle
        config = _pack_config(models.config)
        negative = struct.pack("<Iq", models.config.hidden_layers, -1) + config[12:]
        bad = tmp_path / "seed.dlmc"
        bad.write_bytes(sealed(unsealed(path.read_bytes()).replace(config, negative, 1)))
        self.check(bad, probe_manifest[9], tmp_path, capsys, "seed")

    def test_unsorted_labels(self, bundle, probe_manifest, tmp_path, capsys):
        models, path = bundle
        payload = unsealed(path.read_bytes())
        first, last = (pack_text(models.class_labels[i]) for i in (0, -1))
        swapped = payload.replace(first, b"\0" * len(first), 1).replace(last, first, 1)
        bad = tmp_path / "order.dlmc"
        bad.write_bytes(sealed(swapped.replace(b"\0" * len(first), last, 1)))
        self.check(bad, probe_manifest[9], tmp_path, capsys, "sorted")


def blob_spans(payload: bytes) -> list[tuple[int, int]]:
    """[(start, end)] of the global model's DLMM blob in a bundle payload."""
    r = Reader(io.BytesIO(payload), len(payload) + 4, "bundle")
    r.unpack("<4sI", "magic and version")
    _read_config(r)
    for k in range(r.count("label count", 2)):
        r.text(f"label {k}")
    n = r.count("global model length", 1, "<Q")
    return [(r.pos, r.pos + n)]


@pytest.mark.parametrize("fmt", ["v2"])
def test_seeded_byte_flips_fail_only_with_data_error(fmt, bundle, probe_manifest, tmp_path, capsys):
    """Flip one byte of a resealed bundle: the bundle CRC and every model
    CRC are recomputed, so only the decoder stands between the flip and the
    classifier. Each load must either raise DataError, with the CLI exiting
    2, or give models that classify, with the CLI exiting 0. Every byte of
    the header region is flipped once, then random bytes across the file.
    """
    manifest = probe_manifest[9]
    payload = unsealed(bundle[1].read_bytes())
    spans = blob_spans(payload)
    rng = np.random.default_rng(20)
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
        path.write_bytes(sealed(bytes(buf)))
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


# Every header byte takes each of these values, and its own with bit 0 or
# bit 7 flipped.
HEADER_BYTE_VALUES = (0, 1, 2, 0x7F, 0xFF)


def byte_mutants(b: int) -> list[int]:
    return sorted({*HEADER_BYTE_VALUES, b ^ 0x01, b ^ 0x80} - {b})


def stats_block(stats: NormalizationStats) -> bytes:
    head = struct.pack("<BBdI", 1, 1, stats.epsilon, stats.dim)
    return head + stats.lo.astype("<f8").tobytes() + stats.hi.astype("<f8").tobytes()


def with_stats_cut(model: DELMModel, d: int) -> bytes:
    """The DLMM blob of model, which has stats, with the stats cut to their
    first d dimensions, resealed: no single-byte change gets there."""
    stats = model.feature_stats
    cut = NormalizationStats(lo=stats.lo[:d], hi=stats.hi[:d], epsilon=stats.epsilon)
    payload = unsealed(model_blob(model))
    assert payload.count(stats_block(stats)) == 1
    return sealed(payload.replace(stats_block(stats), stats_block(cut)))


def as_classifier(model: DELMModel) -> ClassModels:
    """Two classes that both use model, so that classify_set can run it."""
    widths = model.dims[1:-1]
    config = TrainConfig(
        hidden_layers=len(widths), layer_widths=widths, layer_C=(1.0,) * (len(widths) + 1)
    )
    stack = DELMModel([np.stack([W, W]) for W in model.weights], model.dims)
    return ClassModels(model, ("a", "b"), stack, config)


# The message of a short read that named no field.
UNNAMED_TRUNCATION = re.compile(r"truncated file \(needed \d+ more bytes at offset \d+\)")


class TestLoadContract:
    """The load contract, generated over the header bytes of each container:
    changed to any of the values byte_mutants gives, with the file's CRC and
    the nested model's recomputed, a file either raises DataError or loads
    into something that classify_set runs on a probe of its dimension.
    Array payload bytes are skipped: any value is legal there. The stats
    per-dimension byte of a model with stats must be 1: every other value
    raises DataError naming it."""

    @pytest.fixture(scope="class")
    def small(self, tmp_path_factory):
        gallery = make_blob_gallery(classes=3, sets_per_class=2, samples_per_set=4,
                                    dim=5, seed=17)
        norm, stats = normalize_gallery(gallery)
        models = train_all(norm, small_config(seed=17, widths=(4, 5)), feature_stats=stats)
        root = tmp_path_factory.mktemp("contract")
        return norm, models, root, save_gallery(norm.sets[:1], root / "probes")

    def containers(self, small):
        """kind -> (file bytes, the arrays whose bytes it holds, loader)."""
        norm, models, root, _ = small
        g = models.global_model
        stats = g.feature_stats
        bare = DELMModel(weights=g.weights, dims=g.dims)
        X = norm.sets[0].features[:, :3]
        save_feature_matrix(root / "x.dlmf", X)
        save_models(root / "models.dlmc", models)
        return {
            "DLMF": ((root / "x.dlmf").read_bytes(), [X.T], load_feature_matrix),
            "DLMM": (model_blob(g), [*g.weights, stats.lo, stats.hi], load_model),
            "DLMM-no-stats": (model_blob(bare), bare.weights, load_model),
            "DLMC": (
                (root / "models.dlmc").read_bytes(),
                [*g.weights, stats.lo, stats.hi, *models.class_stack.weights],
                load_models,
            ),
        }

    @pytest.mark.parametrize("kind", ["DLMF", "DLMM", "DLMM-no-stats", "DLMC"])
    def test_every_header_byte_mutant(self, kind, small, tmp_path):
        models = small[1]
        raw, arrays, load = self.containers(small)[kind]
        payload = unsealed(raw)
        spans = blob_spans(payload) if kind == "DLMC" else []
        skip = {p for _, end in spans for p in range(end - 4, end)}
        per_dimension_at = None
        if kind in ("DLMM", "DLMC"):
            blob_at = spans[0][0] if spans else 0
            per_dimension_at = blob_at + stats_flags_at(models.global_model) + 1
            assert payload[per_dimension_at] == 1
        for a in arrays:
            data = np.ascontiguousarray(a, dtype="<f8").tobytes()
            assert payload.count(data) == 1
            at = payload.find(data)
            skip.update(range(at, at + len(data)))
        probe = np.random.default_rng(0).random((models.feature_dim, 4))
        path = tmp_path / "mutant"
        loaded = rejected = 0
        unnamed = []
        for pos in sorted(set(range(len(payload))) - skip):
            for value in byte_mutants(payload[pos]):
                buf = bytearray(payload)
                buf[pos] = value
                for start, end in spans:
                    buf[end - 4:end] = struct.pack("<I", zlib.crc32(buf[start:end - 4]))
                path.write_bytes(sealed(bytes(buf)))
                try:
                    got = load(path)
                    if kind == "DLMF":
                        probe_set, classifier = ImageSet(got, None, "p"), models
                    else:
                        classifier = got if kind == "DLMC" else as_classifier(got)
                        probe_set = ImageSet(probe[: classifier.feature_dim], None, "p")
                    with np.errstate(all="ignore"):
                        classify_set(probe_set, classifier)
                except DataError as exc:
                    rejected += 1
                    if pos == per_dimension_at:
                        assert f"stats per-dimension flag {value}, expected 1" in str(exc)
                    # a count or length that runs past the payload is named
                    if UNNAMED_TRUNCATION.search(str(exc)):
                        unnamed.append((pos, value, str(exc)))
                    continue
                except Exception as exc:
                    pytest.fail(f"{kind} byte {pos} set to {value}: {exc!r}")
                assert pos != per_dimension_at, f"{kind} per-dimension flag {value} loaded"
                loaded += 1
        print(f"{kind}: {rejected} rejected, {loaded} loaded, {len(unnamed)} unnamed")
        assert rejected > 0
        assert not unnamed, unnamed[:5]

    def test_counts_and_lengths_name_their_field(self, small, tmp_path, capsys):
        _, models, root, probes = small
        raw = self.containers(small)["DLMF"][0]
        payload = bytearray(unsealed(raw))
        payload[12:16] = struct.pack("<I", 0xFFFFFFFF)  # s; d=5, s=3 hold 120 bytes
        (tmp_path / "x.dlmf").write_bytes(sealed(bytes(payload)))
        with pytest.raises(DataError, match=r"feature matrix of d=5, s=4294967295 needs "
                                            r"171798691800 bytes at offset 16, 120 left"):
            load_feature_matrix(tmp_path / "x.dlmf")
        payload = bytearray(unsealed((root / "models.dlmc").read_bytes()))
        at = 8 + len(_pack_config(models.config))
        assert payload[at:at + 4] == struct.pack("<I", 3)
        payload[at:at + 4] = struct.pack("<I", 0xFFFFFFFF)
        (tmp_path / "labels.dlmc").write_bytes(sealed(bytes(payload)))
        self.check_cli(tmp_path / "labels.dlmc", probes, capsys,
                       f"label count 4294967295 needs 8589934590 bytes at offset {at + 4}")

    def test_checksum_reported_before_a_bad_count(self, small, tmp_path):
        _, models, _, _ = small
        g = models.global_model
        blob = bytearray(model_blob(g))
        count = struct.pack("<I", len(g.weights)) + struct.pack("<2I", *g.weights[0].shape)
        at = blob.find(count)
        assert at > 0 and blob.count(count) == 1
        blob[at:at + 4] = struct.pack("<I", 0xFFFFFFFF)  # the model's CRC left as it was
        (tmp_path / "count.dlmm").write_bytes(bytes(blob))
        with pytest.raises(DataError, match="checksum mismatch"):
            load_model(tmp_path / "count.dlmm")
        (tmp_path / "count.dlmc").write_bytes(with_global(models, bytes(blob)))
        with pytest.raises(DataError, match=r"\[global\]: checksum mismatch"):
            load_models(tmp_path / "count.dlmc")

    def test_stats_of_another_dimension(self, small, capsys):
        _, models, root, probes = small
        g = models.global_model
        cut = NormalizationStats(lo=g.feature_stats.lo[:3], hi=g.feature_stats.hi[:3])
        with pytest.raises(ValueError, match="feature stats of dimension 3, model of 5"):
            DELMModel(weights=g.weights, dims=g.dims, feature_stats=cut)
        blob = with_stats_cut(g, 3)
        (root / "cut.dlmm").write_bytes(blob)
        with pytest.raises(DataError, match="feature stats of dimension 3"):
            load_model(root / "cut.dlmm")
        (root / "cut.dlmc").write_bytes(with_global(models, blob))
        self.check_cli(root / "cut.dlmc", probes, capsys, "feature stats of dimension 3")

    def test_presence_flag_of_a_model_without_stats(self, small, capsys):
        _, models, root, probes = small
        g = models.global_model
        bare = DELMModel(weights=g.weights, dims=g.dims)
        payload = bytearray(unsealed(model_blob(bare)))
        at = stats_flags_at(bare)
        assert payload[at] == 0
        payload[at] = 2
        blob = sealed(bytes(payload))
        (root / "flag.dlmm").write_bytes(blob)
        with pytest.raises(DataError, match="stats presence flag 2, expected 0 or 1"):
            load_model(root / "flag.dlmm")
        (root / "flag.dlmc").write_bytes(with_global(models, blob))
        self.check_cli(root / "flag.dlmc", probes, capsys, "stats presence flag 2")

    def check_cli(self, path, probes, capsys, match):
        """classify on path exits 2 with one line that names the cause."""
        code = main(["classify", "--model", str(path), "--probes", str(probes),
                     "--out", str(path.with_suffix(".tsv"))])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and match in err, err


def large_model(seed: int = 0, d: int = 400) -> DELMModel:
    """A single model of (d, d, d) layers, above both CRC thread thresholds."""
    rng = np.random.default_rng(seed)
    stats = NormalizationStats(lo=-rng.random(d), hi=1.0 + rng.random(d))
    weights = [rng.standard_normal((d, d)) for _ in range(3)]
    return DELMModel(weights=weights, dims=(d, d, d, d), feature_stats=stats)


def part_list(size: int) -> list:
    """Synthetic payload parts of size bytes in all: a header, a zero-length
    part, the bytes of an F-ordered array and a tail."""
    rng = np.random.default_rng(size)
    head, tail = b"HEAD", b"T" * (size % 8 + 8)
    cols = (size - len(head) - len(tail)) // 8 // 16
    rest = size - len(head) - len(tail) - 8 * 16 * cols
    a = np.asfortranarray(rng.standard_normal((16, cols)))
    parts = [head, b"", f64_view(a), tail + b"R" * rest]
    assert sum(len(p) for p in parts) == size
    return parts


class TestCRCWorker:
    """Large containers are checksummed on a worker thread as they are
    written and read; the bytes and the loaded arrays stay the same."""

    @pytest.mark.parametrize("delta", [-1, 0, 1])
    def test_synthetic_parts_around_the_threshold(self, tmp_path, delta):
        size = fileio._SEAL_THREADED + delta
        parts = part_list(size)
        expect = oracle_sealed(b"".join(bytes(p) for p in parts))
        sealed_parts = seal(parts)
        assert isinstance(sealed_parts[-1], CRCWorker) == (delta >= 0)
        path = tmp_path / "synthetic.bin"
        write_atomic(path, sealed_parts)
        assert path.read_bytes() == expect

    @pytest.mark.parametrize("delta", [-1, 0, 1])
    def test_nested_container_around_the_threshold(self, tmp_path, delta):
        """An inner worker's trailer is chained by the enclosing container's."""
        inner = seal(part_list(fileio._SEAL_THREADED + delta))
        head = struct.pack("<Q", sum(len(p) for p in inner))
        outer = seal([b"OUTER", head, *inner, b"after"])
        assert isinstance(outer[-1], CRCWorker)
        path = tmp_path / "nested.bin"
        write_atomic(path, outer)
        inner_bytes = oracle_sealed(b"".join(bytes(p) for p in inner[:-1]))
        assert path.read_bytes() == oracle_sealed(b"OUTER" + head + inner_bytes + b"after")

    def test_worker_error_raised_by_value(self):
        """A part the worker cannot checksum raises where the CRC is read,
        so no wrong trailer is ever written."""
        worker = CRCWorker()
        worker.put(b"x" * 10_000)
        worker.put("not a buffer")
        with pytest.raises(TypeError):
            worker.trailer()
        assert not worker._thread.is_alive()

    def test_concurrent_saves_and_loads_with_fast_thread_switching(self, large, tmp_path):
        """Three callers, each with its own worker, on two cores, switching
        threads every microsecond: every file and every load stays exact."""
        models, _ = large
        expect = oracle_bundle(models)

        def cycles(k):
            for i in range(3):
                path = tmp_path / f"c{k}-{i}.dlmc"
                save_models(path, models)
                assert path.read_bytes() == expect
                models_equal(models.class_stack, load_models(path).class_stack)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(3) as pool:
                for future in [pool.submit(cycles, k) for k in range(3)]:
                    future.result(timeout=120)
        finally:
            sys.setswitchinterval(interval)

    def test_large_bundle_bytes_match_oracle_and_round_trip(self, large):
        models, path = large
        assert path.read_bytes() == oracle_bundle(models)
        back = load_models(path)
        assert back.class_labels == models.class_labels
        assert back.config == models.config
        models_equal(models.global_model, back.global_model)
        models_equal(models.class_stack, back.class_stack)

    def test_bundle_with_a_large_global_model(self, tmp_path):
        """The global model's own container is above the seal threshold."""
        glob = large_model(seed=1, d=400)
        assert sum(W.nbytes for W in glob.weights) >= fileio._SEAL_THREADED
        stack = DELMModel(
            weights=[np.stack([W, -W]) for W in large_model(seed=2, d=400).weights],
            dims=glob.dims,
        )
        config = small_config(seed=1, widths=(400, 400))
        big = ClassModels(glob, ("a", "b"), stack, config)
        path = tmp_path / "nested.dlmc"
        save_models(path, big)
        assert path.read_bytes() == oracle_bundle(big)
        back = load_models(path)
        models_equal(glob, back.global_model)
        models_equal(stack, back.class_stack)

    def test_large_model_file_matches_oracle_and_round_trips(self, tmp_path):
        model = large_model()
        path = tmp_path / "m.delm"
        save_model(path, model)
        assert path.stat().st_size >= fileio._OPEN_THREADED
        assert path.read_bytes() == oracle_model(model)
        models_equal(model, load_model(path))

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_large_feature_file_matches_oracle_and_round_trips(self, tmp_path, order):
        X = np.asarray(np.random.default_rng(3).random((200, 2000)), order=order)
        path = tmp_path / "x.dlmf"
        save_feature_matrix(path, X)
        header = struct.pack("<4sIII", b"DLMF", 1, *X.shape)
        assert path.stat().st_size >= fileio._OPEN_THREADED
        assert path.read_bytes() == oracle_sealed(header + X.T.astype("<f8").tobytes())
        back = load_feature_matrix(path)
        assert back.shape == X.shape and back.tobytes() == X.tobytes()

    @pytest.mark.parametrize("region", ["first", "middle", "last", "trailer"])
    def test_bit_flips_are_checksum_mismatches(
        self, large, probe_manifest, tmp_path, capsys, region
    ):
        _, path = large
        raw = path.read_bytes()
        mib = 1 << 20
        lo, hi = {
            "first": (0, mib),
            "middle": (len(raw) // 2 - mib // 2, len(raw) // 2 + mib // 2),
            "last": (len(raw) - 4 - mib, len(raw) - 4),
            "trailer": (len(raw) - 4, len(raw)),
        }[region]
        rng = np.random.default_rng(sum(map(ord, region)))
        for pos in rng.integers(lo, hi, 3).tolist():
            buf = bytearray(raw)
            buf[pos] ^= 1 << int(rng.integers(8))
            bad = tmp_path / f"flip-{pos}.dlmc"
            bad.write_bytes(bytes(buf))
            with pytest.raises(DataError, match="checksum mismatch"):
                load_models(bad)
            assert classify_exit(bad, probe_manifest[200], tmp_path, capsys) == 2, pos

    def test_truncations_are_data_errors(self, large, tmp_path):
        _, path = large
        raw = path.read_bytes()
        for keep in (0, 3, 100, 70_000, 1 << 20, len(raw) // 2, len(raw) - 5, len(raw) - 1):
            bad = tmp_path / f"cut-{keep}.dlmc"
            bad.write_bytes(raw[:keep])
            with pytest.raises(DataError, match="checksum|truncated|bad magic"):
                load_models(bad)


class FailingFile:
    """A binary file whose writes after the first raise ENOSPC."""

    def __init__(self, fh):
        self.fh = fh
        self.writes = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.writes += 1
        if self.writes > 1:
            raise OSError(errno.ENOSPC, "No space left on device")
        return self.fh.write(data)


class TestNoThreadLeftBehind:
    """Every CRC worker is joined before the call that started it returns."""

    @pytest.fixture
    def started(self, monkeypatch):
        """The threads started through threading.Thread, in order."""
        threads = []
        real = threading.Thread

        def counting(*args, **kwargs):
            t = real(*args, **kwargs)
            threads.append(t)
            return t

        monkeypatch.setattr(threading, "Thread", counting)
        return threads

    @staticmethod
    def check_joined(before, started):
        assert started, "no worker thread was started"
        assert not any(t.is_alive() for t in started)
        assert threading.enumerate() == before

    def test_save(self, large, tmp_path, started):
        models, _ = large
        before = threading.enumerate()
        save_models(tmp_path / "s.dlmc", models)
        self.check_joined(before, started)

    def test_load(self, large, started):
        before = threading.enumerate()
        load_models(large[1])
        self.check_joined(before, started)

    def test_load_of_a_corrupt_file(self, large, tmp_path, started):
        raw = bytearray(large[1].read_bytes())
        raw[20] ^= 0x40
        bad = tmp_path / "bad.dlmc"
        bad.write_bytes(bytes(raw))
        before = threading.enumerate()
        with pytest.raises(DataError, match="checksum mismatch"):
            load_models(bad)
        self.check_joined(before, started)

    def test_save_whose_write_fails(self, large, tmp_path, monkeypatch, started):
        models, _ = large
        dest = tmp_path / "dest.dlmc"
        dest.write_bytes(b"old contents")
        real = os.fdopen
        monkeypatch.setattr(os, "fdopen", lambda fd, mode: FailingFile(real(fd, mode)))
        before = threading.enumerate()
        with pytest.raises(OSError) as info:
            save_models(dest, models)
        assert info.value.errno == errno.ENOSPC
        self.check_joined(before, started)
        assert dest.read_bytes() == b"old contents"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["dest.dlmc"]

    def test_no_thread_below_the_thresholds(self, bundle, tmp_path, started):
        models, path = bundle
        save_models(tmp_path / "small.dlmc", models)
        load_models(path)
        save_model(tmp_path / "small.delm", models.global_model)
        load_model(tmp_path / "small.delm")
        save_feature_matrix(tmp_path / "small.dlmf", np.ones((3, 4)))
        load_feature_matrix(tmp_path / "small.dlmf")
        write_atomic(tmp_path / "parts.bin", seal(part_list(fileio._SEAL_THREADED - 1)))
        assert started == []
