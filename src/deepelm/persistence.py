"""Versioned binary containers for trained models.

Single-model container ("DLMM", version 1): format version, activation
tag, dims list, optional normalization stats, then each weight matrix as
row-major float64 with an explicit (rows, cols) header.

Bundle container ("DLMC"): the training config, the ordered class labels
and the global model as a DLMM blob, which carries the feature stats.
Version 2 then holds each layer of the per-class models as one row-major
float64 (c, rows, cols) array with its shape header. Version 1, which is
still read, held one DLMM blob per class instead.

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
BUNDLE_FORMAT_VERSIONS = (1, 2)


@contextmanager
def _decoding(source: str):
    """Turn the construction errors of decoded fields into DataError."""
    try:
        yield
    except (ValueError, ConfigError) as exc:
        raise DataError(f"{source}: malformed contents: {exc}") from None


def _array_parts(W: np.ndarray) -> list[Buffer]:
    return [struct.pack(f"<{W.ndim}I", *W.shape), f64_view(W)]


def _read_array(r: Reader, ndim: int = 2) -> np.ndarray:
    return r.f64_array(r.unpack(f"<{ndim}I"))


def _stats_parts(stats: NormalizationStats | None) -> list[Buffer]:
    if stats is None:
        return [struct.pack("<B", 0)]
    head = struct.pack(
        "<BBdI",
        1,
        1 if stats.per_dimension else 0,
        stats.epsilon,
        stats.dim,
    )
    return [head, f64_view(stats.lo), f64_view(stats.hi)]


def _read_stats(r: Reader) -> NormalizationStats | None:
    if r.u8() == 0:
        return None
    per_dim = r.u8() == 1
    eps = r.f64()
    d = r.u32()
    lo = r.f64_array((d,))
    hi = r.f64_array((d,))
    return NormalizationStats(lo=lo, hi=hi, epsilon=eps, per_dimension=per_dim)


def pack_model(model: DELMModel) -> list[Buffer]:
    """The sealed DLMM container of model, as buffers to write in turn.

    The weight parts alias the model's arrays; nothing is copied.
    """
    head = struct.pack("<4sI", MODEL_MAGIC, MODEL_FORMAT_VERSION)
    head += pack_text(model.activation)
    head += struct.pack("<I", len(model.dims))
    head += struct.pack(f"<{len(model.dims)}I", *model.dims)
    parts = [head, *_stats_parts(model.feature_stats)]
    parts.append(struct.pack("<I", len(model.weights)))
    for W in model.weights:
        parts += _array_parts(W)
    return seal(parts)


def unpack_model(r: Reader) -> DELMModel:
    """Read one DLMM container from r, and check its CRC32."""
    magic, version = r.unpack("<4sI")
    if magic != MODEL_MAGIC:
        raise DataError(f"{r.source}: not a model file (bad magic {magic!r})")
    if version != MODEL_FORMAT_VERSION:
        raise DataError(f"{r.source}: unsupported model format version {version}")
    with _decoding(r.source):
        activation = r.text()
        ndims = r.u32()
        dims = r.unpack(f"<{ndims}I")
        stats = _read_stats(r)
        nweights = r.u32()
        weights = [_read_array(r) for _ in range(nweights)]
        unseal(r)
        return DELMModel(
            weights=weights, dims=dims, activation=activation, feature_stats=stats
        )


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
    out += pack_text(config.activation)
    out += struct.pack(f"<{config.hidden_layers}I", *config.layer_widths)
    out += struct.pack("<I", len(config.layer_C))
    out += struct.pack(f"<{len(config.layer_C)}d", *config.layer_C)
    return out


def _read_config(r: Reader) -> TrainConfig:
    h = r.u32()
    seed = r.i64()
    activation = r.text()
    widths = r.unpack(f"<{h}I")
    ncs = r.u32()
    cs = r.unpack(f"<{ncs}d")
    return TrainConfig(
        hidden_layers=h,
        layer_widths=widths,
        layer_C=cs,
        seed=seed,
        activation=activation,
    )


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
    """Read a classifier bundle of format version 1 or 2."""
    path = Path(path)
    if not path.is_file():
        raise DataError(f"model file not found: {path}")
    source = str(path)
    with open_sealed(path) as r:
        magic, version = r.unpack("<4sI")
        if magic != BUNDLE_MAGIC:
            raise DataError(f"{source}: not a classifier bundle (bad magic {magic!r})")
        if version not in BUNDLE_FORMAT_VERSIONS:
            raise DataError(f"{source}: unsupported bundle format version {version}")
        with _decoding(source):
            config = _read_config(r)
            labels = [r.text() for _ in range(r.u32())]
            global_model = unpack_model(r.sealed(r.u64(), f"{source}[global]"))
            if version == 1:
                per_class = {
                    lab: unpack_model(r.sealed(r.u64(), f"{source}[{lab}]")) for lab in labels
                }
                unseal(r)
                if len(per_class) != len(labels):
                    raise ValueError(f"duplicate class labels {labels}")
                return ClassModels.from_models(global_model, per_class, config)
            stacks = [_read_array(r, 3) for _ in global_model.weights]
            unseal(r)
            class_stack = DELMModel(
                weights=stacks, dims=global_model.dims, activation=global_model.activation
            )
            return ClassModels(global_model, labels, class_stack, config)
