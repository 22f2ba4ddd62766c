"""Versioned binary containers for trained models.

Single-model container ("DLMM", version 1): format version, activation
tag, dims list, optional normalization stats, then each weight matrix as
row-major float64 with an explicit (rows, cols) header. The tag, here and
in a bundle's config, is always ``sigmoid``, the one activation the models
use; a file with any other tag does not load. The stats block opens with
a presence byte, 0 or 1, and, when it is 1, a per-dimension byte, which
must be 1, then epsilon, d and the d-length lo and hi, whose length must
be the model's input dimension.

Bundle container ("DLMC", version 2): the training config, the ordered
class labels and the global model as a DLMM blob, which carries the
feature stats, then each layer of the per-class models as one row-major
float64 (c, rows, cols) array with its shape header. Only version 2 is
read.

Everything is little-endian with a trailing CRC32; round-trips are
bit-exact. A file that does not decode to a valid model raises DataError.

Both containers are sealed as ``fileio`` describes: a save writes the
weight arrays straight from their own memory, with the CRC chained over
them, and a load reads each array straight from the file into its own
fresh array, checking the CRCs as it goes. So a save allocates no more
than the small header parts, and a load little more than the arrays it
returns. A container of 1 MiB or more is saved while a worker thread
chains its CRC, and a file of 2.5 MiB or more is loaded the same way; the
bytes on disk, the loaded arrays and the order of diagnoses (a corrupt
file is a checksum mismatch, whichever field the corruption reached) are
the same as inline. Every save and load joins its workers before it
returns or raises.
"""

from __future__ import annotations

import struct
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .autoencoder import DELMModel
from .classifier import ClassModels, TrainConfig
from .errors import ConfigError, DataError
from .fileio import (
    Buffer,
    Reader,
    f64_view,
    open_sealed,
    pack_text,
    seal,
    unseal,
    write_atomic,
)
from .normalize import NormalizationStats

MODEL_MAGIC = b"DLMM"
BUNDLE_MAGIC = b"DLMC"
MODEL_FORMAT_VERSION = 1
BUNDLE_FORMAT_VERSION = 2
ACTIVATION_TAG = "sigmoid"


@contextmanager
def _decoding(source: str):
    """Turn the construction errors of decoded fields into DataError."""
    try:
        yield
    except (ValueError, ConfigError) as exc:
        raise DataError(f"{source}: malformed contents: {exc}") from None


def _check_activation(tag: str) -> None:
    if tag != ACTIVATION_TAG:
        raise ValueError(f"unsupported activation {tag!r}")


def _array_parts(W: np.ndarray) -> list[Buffer]:
    return [struct.pack(f"<{W.ndim}I", *W.shape), f64_view(W)]


def _read_array(r: Reader, field: str, ndim: int = 2) -> np.ndarray:
    shape = r.unpack(f"<{ndim}I", f"{field} shape")
    return r.f64_array(shape, f"{field} of shape {shape}")


def _stats_parts(stats: NormalizationStats | None) -> list[Buffer]:
    if stats is None:
        return [struct.pack("<B", 0)]
    head = struct.pack("<BBdI", 1, 1, stats.epsilon, stats.dim)
    return [head, f64_view(stats.lo), f64_view(stats.hi)]


def _read_stats(r: Reader) -> NormalizationStats | None:
    """The stats a stats block holds, or None.

    A bad flag byte raises DataError once the rest of r's container passed
    its CRC (see Reader.fail).
    """
    present = r.u8("stats presence flag")
    if present not in (0, 1):
        r.fail(f"stats presence flag {present}, expected 0 or 1")
    if not present:
        return None
    per_dimension = r.u8("stats per-dimension flag")
    if per_dimension != 1:
        r.fail(f"stats per-dimension flag {per_dimension}, expected 1")
    eps = r.f64("stats epsilon")
    d = r.count("stats d", 16)  # lo and hi
    lo = r.f64_array((d,), "stats lo")
    hi = r.f64_array((d,), "stats hi")
    return NormalizationStats(lo=lo, hi=hi, epsilon=eps)


def pack_model(model: DELMModel) -> list[Buffer]:
    """The sealed DLMM container of model, as buffers to write in turn.

    The weight parts alias the model's arrays; nothing is copied.
    """
    head = struct.pack("<4sI", MODEL_MAGIC, MODEL_FORMAT_VERSION)
    head += pack_text(ACTIVATION_TAG)
    head += struct.pack("<I", len(model.dims))
    head += struct.pack(f"<{len(model.dims)}I", *model.dims)
    parts = [head, *_stats_parts(model.feature_stats)]
    parts.append(struct.pack("<I", len(model.weights)))
    for W in model.weights:
        parts += _array_parts(W)
    return seal(parts)


def unpack_model(r: Reader) -> DELMModel:
    """Read one DLMM container from r, and check its CRC32."""
    magic, version = r.unpack("<4sI", "model magic and version")
    if magic != MODEL_MAGIC:
        raise DataError(f"{r.source}: not a model file (bad magic {magic!r})")
    if version != MODEL_FORMAT_VERSION:
        raise DataError(f"{r.source}: unsupported model format version {version}")
    with _decoding(r.source):
        tag = r.text("activation tag")
        ndims = r.count("dims count", 4)
        dims = r.unpack(f"<{ndims}I", "dims")
        stats = _read_stats(r)
        nweights = r.count("weight count", 8)  # each opens with its shape
        weights = [_read_array(r, f"weights[{i}]") for i in range(nweights)]
        unseal(r)
        _check_activation(tag)
        return DELMModel(weights=weights, dims=dims, feature_stats=stats)


def save_model(path: str | Path, model: DELMModel) -> None:
    write_atomic(path, pack_model(model))


def load_model(path: str | Path) -> DELMModel:
    path = Path(path)
    if not path.is_file():
        raise DataError(f"model file not found: {path}")
    with open_sealed(path) as r:
        return unpack_model(r)


def _pack_config(config: TrainConfig) -> bytes:
    out = struct.pack("<Iq", config.hidden_layers, config.seed)
    out += pack_text(ACTIVATION_TAG)
    out += struct.pack(f"<{config.hidden_layers}I", *config.layer_widths)
    out += struct.pack("<I", len(config.layer_C))
    out += struct.pack(f"<{len(config.layer_C)}d", *config.layer_C)
    return out


def _read_config(r: Reader) -> TrainConfig:
    h = r.count("hidden layer count", 4)  # one width each
    seed = r.i64("seed")
    tag = r.text("activation tag")
    widths = r.unpack(f"<{h}I", "layer widths")
    ncs = r.count("C count", 8)
    cs = r.unpack(f"<{ncs}d", "layer C values")
    config = TrainConfig(hidden_layers=h, layer_widths=widths, layer_C=cs, seed=seed)
    _check_activation(tag)
    return config


def save_models(path: str | Path, models: ClassModels) -> None:
    """Persist a whole classifier bundle atomically, at format version 2."""
    head = struct.pack("<4sI", BUNDLE_MAGIC, BUNDLE_FORMAT_VERSION)
    head += _pack_config(models.config)
    labels = models.class_labels
    head += struct.pack("<I", len(labels))
    head += b"".join(pack_text(lab) for lab in labels)
    blob = pack_model(models.global_model)
    head += struct.pack("<Q", sum(len(part) for part in blob))
    parts = [head, *blob]
    for W in models.class_stack.weights:
        parts += _array_parts(W)
    write_atomic(path, seal(parts))


def load_models(path: str | Path) -> ClassModels:
    """Read a classifier bundle, which must be of format version 2."""
    path = Path(path)
    if not path.is_file():
        raise DataError(f"model file not found: {path}")
    source = str(path)
    with open_sealed(path) as r:
        magic, version = r.unpack("<4sI", "bundle magic and version")
        if magic != BUNDLE_MAGIC:
            raise DataError(f"{source}: not a classifier bundle (bad magic {magic!r})")
        if version != BUNDLE_FORMAT_VERSION:
            raise DataError(f"{source}: unsupported bundle format version {version}")
        with _decoding(source):
            config = _read_config(r)
            nlabels = r.count("label count", 2)  # each opens with its length
            labels = [r.text(f"label {k}") for k in range(nlabels)]
            size = r.count("global model length", 1, "<Q")
            global_model = unpack_model(r.sealed(size, f"{source}[global]"))
            stacks = [
                _read_array(r, f"class stack layer {i}", 3)
                for i in range(len(global_model.weights))
            ]
            unseal(r)
            class_stack = DELMModel(weights=stacks, dims=global_model.dims)
            return ClassModels(global_model, labels, class_stack, config)
