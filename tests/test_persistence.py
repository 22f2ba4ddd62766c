import errno
import io
import os
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
    SIGMOID,
    ClassModels,
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
from deepelm.datasets import load_feature_matrix, save_feature_matrix
from deepelm.cli import main
from deepelm import fileio
from deepelm.fileio import CRCWorker, Reader, f64_view, pack_text, seal, write_atomic
from deepelm.normalize import NormalizationStats
from deepelm.persistence import _array_parts, _pack_config, _read_config, pack_model

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
    """Probe manifests matching the bundle (d=9), the v1 fixture (d=5) and
    the large bundle (d=200)."""
    root = tmp_path_factory.mktemp("probes")
    blobs = make_blob_gallery(classes=3, sets_per_class=2, samples_per_set=6, dim=9, seed=31)
    wide = make_blob_gallery(classes=4, sets_per_class=2, samples_per_set=20, dim=200, seed=8)
    return {
        9: save_gallery(blobs.sets[:2], root / "d9"),
        5: save_gallery(synth_generate(V1_GALLERY).sets[:2], root / "d5"),
        200: save_gallery(wide.sets[:2], root / "d200"),
    }


def class_model(models, k: int) -> DELMModel:
    """Class k's model alone, as the format-1 bundle stored it."""
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
    payload = unsealed(blob).replace(pack_text(SIGMOID), pack_text(activation), 1)
    return sealed(payload)


def bundle_bytes(version: int, config: bytes, labels, global_blob: bytes, body: bytes) -> bytes:
    out = struct.pack("<4sI", b"DLMC", version) + config + struct.pack("<I", len(labels))
    out += b"".join(pack_text(lab) for lab in labels)
    return sealed(out + struct.pack("<Q", len(global_blob)) + global_blob + body)


def v1_bundle(models, class_blobs=None) -> bytes:
    """models in the format-1 layout: one length-prefixed DLMM blob per class."""
    if class_blobs is None:
        class_blobs = [model_blob(class_model(models, k)) for k in range(len(models.class_labels))]
    body = b"".join(struct.pack("<Q", len(blob)) + blob for blob in class_blobs)
    return bundle_bytes(
        1, _pack_config(models.config), models.class_labels, model_blob(models.global_model), body
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
    out = struct.pack("<4sI", b"DLMM", 1) + oracle_text(model.activation)
    out += struct.pack(f"<I{n}I", n, *model.dims)
    stats = model.feature_stats
    if stats is None:
        out += b"\0"
    else:
        out += struct.pack("<BBdI", 1, int(stats.per_dimension), stats.epsilon, stats.dim)
        out += stats.lo.astype("<f8").tobytes() + stats.hi.astype("<f8").tobytes()
    out += struct.pack("<I", len(model.weights))
    out += b"".join(oracle_array(W) for W in model.weights)
    return oracle_sealed(out)


def oracle_bundle(models) -> bytes:
    """The DLMC version 2 bytes of models, from the format description alone."""
    cfg = models.config
    n = len(cfg.layer_C)
    out = struct.pack("<4sI", b"DLMC", 2)
    out += struct.pack("<Iq", cfg.hidden_layers, cfg.seed) + oracle_text(cfg.activation)
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

    @pytest.mark.parametrize("source", ["v2", "v1"])
    def test_loaded_arrays_are_fresh_aligned_writable(self, bundle, source):
        models = load_models(bundle[1] if source == "v2" else V1_FIXTURE)
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
        blobs = [model_blob(class_model(models, k)) for k in range(3)]
        odd = class_model(models, 1)
        blobs[1] = model_blob(DELMModel(weights=odd.weights, dims=odd.dims, feature_stats=shifted))
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
        zero = struct.pack("<Iq", 0, models.config.seed) + pack_text(SIGMOID)
        zero += struct.pack("<Id", 1, 1e18)
        bad = tmp_path / "h0.dlmc"
        bad.write_bytes(sealed(payload.replace(config, zero, 1)))
        self.check(bad, probe_manifest[9], tmp_path, capsys, "hidden_layers")

    def test_unknown_global_activation(self, bundle, probe_manifest, tmp_path, capsys):
        models, _ = bundle
        body = b"".join(part for W in models.class_stack.weights for part in _array_parts(W))
        bad = tmp_path / "relu.dlmc"
        bad.write_bytes(bundle_bytes(
            2, _pack_config(models.config), models.class_labels,
            retag(model_blob(models.global_model), "relu"), body,
        ))
        self.check(bad, probe_manifest[9], tmp_path, capsys, "relu")

    def test_unknown_class_activation_in_version_1(self, bundle, probe_manifest, tmp_path, capsys):
        models, _ = bundle
        blobs = [model_blob(class_model(models, k)) for k in range(3)]
        blobs[2] = retag(blobs[2], "relu")
        bad = tmp_path / "relu1.dlmc"
        bad.write_bytes(v1_bundle(models, blobs))
        self.check(bad, probe_manifest[9], tmp_path, capsys, "relu")

    def test_unsorted_labels(self, bundle, probe_manifest, tmp_path, capsys):
        models, path = bundle
        payload = unsealed(path.read_bytes())
        first, last = (pack_text(models.class_labels[i]) for i in (0, -1))
        swapped = payload.replace(first, b"\0" * len(first), 1).replace(last, first, 1)
        bad = tmp_path / "order.dlmc"
        bad.write_bytes(sealed(swapped.replace(b"\0" * len(first), last, 1)))
        self.check(bad, probe_manifest[9], tmp_path, capsys, "sorted")


def blob_spans(payload: bytes) -> list[tuple[int, int]]:
    """(start, end) of every length-prefixed DLMM blob in a bundle payload."""
    r = Reader(io.BytesIO(payload), len(payload) + 4, "bundle")
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
    payload = unsealed(raw)
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
